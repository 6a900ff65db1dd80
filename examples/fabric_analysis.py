#!/usr/bin/env python
"""Fabric observability tour: packet capture, utilization, fairness.

Runs the same cross-rack workload under ECMP and Themis and uses the
analysis toolkit to show *why* spraying wins: per-uplink byte counts
(ECMP collisions visible as imbalance), Jain fairness over flow
goodputs, and a per-hop packet capture (the recorder's ``packet``
category) proving Eq. 1 on the wire.

Run:  python examples/fabric_analysis.py
"""

from repro import Network, NetworkConfig, TopologySpec
from repro.harness.analysis import (flow_fairness, link_utilization,
                                    uplink_imbalance)
from repro.harness.report import format_table
from repro.obs.record import PACKET, Recorder

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=8,
                    nics_per_tor=8, link_bandwidth_bps=25e9)


def run(scheme: str):
    recorder = Recorder(categories=(PACKET,), retain={PACKET})
    net = Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=7),
                  recorder=recorder)
    for i in range(8):                     # rack 0 -> rack 1, 8 flows
        net.post_message(i, 8 + i, 1_000_000)
    net.run(until_ns=60_000_000_000)
    assert net.metrics.all_flows_done()
    return net, recorder.records(PACKET)


def spine_picks(hops, src: int, count: int = 8):
    """(PSN, spine) of the first *count* data packets *src* sent."""
    spine_of = {}
    for _, _, _, loc, data in hops:
        if not loc.startswith("tor"):
            spine_of.setdefault(data["pkt_id"], loc)
    first = [data for _, _, _, loc, data in hops
             if data["ptype"] == "data" and data["src"] == src
             and loc == "tor0"][:count]
    return [(data["psn"], spine_of.get(data["pkt_id"])) for data in first]


def main() -> None:
    rows = []
    for scheme in ("ecmp", "themis"):
        net, hops = run(scheme)

        print(f"\n##### scheme = {scheme}")
        # run(until_ns) leaves the clock at the bound; measure busy time
        # over the traffic, which ends with the last receive.
        end_ns = max(f.receiver_done_ns for f in net.metrics.flows.values())
        uplinks = [u for u in link_utilization(net, until_ns=end_ns)
                   if u.src == "tor0"]
        assert all(u.busy_fraction > 0 for u in uplinks if u.bytes_sent)
        print(format_table(
            ["uplink", "bytes", "busy"],
            [[f"{u.src}->{u.dst}", u.bytes_sent,
              f"{u.busy_fraction:.1%}"] for u in uplinks]))
        imbalance = uplink_imbalance(net, "tor0")
        fairness = flow_fairness(net)
        print(f"uplink imbalance (max/mean): {imbalance:.2f}   "
              f"flow fairness (Jain): {fairness:.3f}")
        rows.append([scheme, f"{imbalance:.2f}", f"{fairness:.3f}",
                     f"{net.metrics.mean_goodput_gbps():.1f}"])

        # Which spine did each of flow 0's first packets take?
        print("flow 0->8 PSN->spine: "
              + "  ".join(f"{psn}:{spine}"
                          for psn, spine in spine_picks(hops, 0)))

    print("\n==== Summary ====")
    print(format_table(
        ["scheme", "uplink imbalance", "Jain fairness", "goodput Gbps"],
        rows))


if __name__ == "__main__":
    main()
