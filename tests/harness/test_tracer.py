"""Per-hop packet capture through the recorder's ``packet`` category —
including the end-to-end Eq. 1 check."""

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey
from repro.obs.record import PACKET, Recorder
from repro.switch.switch import Switch

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=4,
                    nics_per_tor=1, link_bandwidth_bps=25e9)


def captured_network(scheme):
    recorder = Recorder(categories=(PACKET,), retain={PACKET})
    net = Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=2),
                  recorder=recorder)
    return net, recorder


def hops(recorder):
    """Captured hops as ``(time_ns, location, data)``, in capture order."""
    return [(t, loc, data) for t, _, _, loc, data
            in recorder.records(PACKET)]


def traced_run(scheme, nbytes=150_000):
    net, recorder = captured_network(scheme)
    net.post_message(0, 1, nbytes)
    net.run(until_ns=10_000_000_000)
    assert net.metrics.all_flows_done()
    return net, hops(recorder)


def hops_of(events, pkt_id):
    """Chronological hop locations of one packet instance."""
    return [loc for _, loc, data in events if data["pkt_id"] == pkt_id]


def spine_of(events, pkt_id):
    """The non-ToR switch one packet traversed (leaf-spine only)."""
    return next((loc for loc in hops_of(events, pkt_id)
                 if not loc.startswith("tor")), None)


def of_flow(events, flow):
    """Hops of *flow* in either direction (data one way, ACKs back)."""
    keys = {(flow.src, flow.dst, flow.qp), (flow.dst, flow.src, flow.qp)}
    return [e for e in events
            if (e[2]["src"], e[2]["dst"], e[2]["qp"]) in keys]


class TestCapture:
    def test_records_every_hop(self):
        net, events = traced_run("ecmp")
        # Any data packet crosses tor0 -> spineX -> tor1 = 3 switches.
        first_data = next(d for _, _, d in events if d["ptype"] == "data")
        path = hops_of(events, first_data["pkt_id"])
        assert len(path) == 3
        assert path[0] == "tor0"
        assert path[1].startswith("spine")
        assert path[2] == "tor1"

    def test_flow_filter(self):
        net, recorder = captured_network("ecmp")
        net.post_message(0, 1, 50_000, qp=7)
        net.post_message(1, 0, 50_000, qp=3)  # different flow
        net.run(until_ns=10_000_000_000)
        events = hops(recorder)
        assert {d["qp"] for _, _, d in events} == {3, 7}
        watched = of_flow(events, FlowKey(0, 1, 7))
        assert watched
        assert all(d["qp"] == 7 for _, _, d in watched)

    def test_acks_captured_on_reverse_flow_filter(self):
        net, events = traced_run("ecmp")
        watched = of_flow(events, FlowKey(0, 1, 0))
        assert any(d["ptype"] == "ack" for _, _, d in watched)


class TestEq1EndToEnd:
    def test_psn_residue_determines_spine(self):
        """The capture proves Eq. 1 on the wire: under Themis every data
        packet's spine is a function of PSN mod N only."""
        net, events = traced_run("themis", nbytes=300_000)
        n = 4  # spines
        spine_by_residue = {}
        for _, loc, data in events:
            if data["ptype"] != "data" or loc != "tor0":
                continue
            spine = spine_of(events, data["pkt_id"])
            spine_by_residue.setdefault(data["psn"] % n, set()).add(spine)
        assert set(spine_by_residue) == {0, 1, 2, 3}
        for residue, spines in spine_by_residue.items():
            assert len(spines) == 1, f"residue {residue} split: {spines}"
        distinct = {next(iter(s)) for s in spine_by_residue.values()}
        assert len(distinct) == 4

    def test_ecmp_single_path(self):
        net, events = traced_run("ecmp")
        spines = {spine_of(events, d["pkt_id"]) for _, loc, d in events
                  if d["ptype"] == "data" and loc == "tor0"}
        assert len(spines) == 1

    def test_rps_uses_many_paths(self):
        net, events = traced_run("rps")
        spines = {spine_of(events, d["pkt_id"]) for _, loc, d in events
                  if d["ptype"] == "data" and loc == "tor0"}
        assert len(spines) == 4


class TestQueryHelpers:
    def test_packets_by_psn(self):
        net, events = traced_run("themis", nbytes=50_000)
        psn0 = [d for _, _, d in events
                if d["ptype"] == "data" and d["psn"] == 0]
        # PSN 0 crosses three switches at least once.
        assert len(psn0) >= 3

    def test_nack_events_collected_when_present(self):
        net, events = traced_run("rps", nbytes=150_000)
        nacks = [d for _, _, d in events if d["ptype"] == "nack"]
        assert len(nacks) == net.metrics.nacks_generated * 3

    def test_nack_events_present_on_lossy_uplinks(self):
        net, recorder = captured_network("rps")
        loss_rng = net.rng.fork("loss")
        for port in net.topology.tors[0].ports:
            if isinstance(port.peer, Switch):
                port.set_loss(0.05, loss_rng)
        net.post_message(0, 1, 150_000)
        net.run(until_ns=10_000_000_000)
        nacks = [e for e in hops(recorder) if e[2]["ptype"] == "nack"]
        assert nacks, "lossy run produced no NACK capture events"
        assert of_flow(nacks, FlowKey(0, 1, 0)) == nacks

    def test_spine_of_unknown_packet(self):
        net, events = traced_run("ecmp", nbytes=20_000)
        assert spine_of(events, -1) is None
