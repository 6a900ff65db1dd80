"""Unit + integration tests for Priority Flow Control."""

import pytest

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.node import Device
from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.pfc import PfcConfig, PfcController
from repro.switch.switch import Switch


class TestPfcConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=100, xon_bytes=200)
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=100, xon_bytes=0)


class TestPortPause:
    def _port(self, sim):
        src = Device(sim, "src")
        dst = _Sink(sim, "dst")
        port = Port(sim, src, bandwidth_bps=1e9, delay_ns=0)
        port.connect(dst)
        return port, dst

    def test_paused_data_waits(self):
        sim = Simulator()
        port, dst = self._port(sim)
        port.pause_data()
        port.enqueue(data_packet(FlowKey(0, 1), 0, 100))
        sim.run()
        assert dst.received == []
        port.resume_data()
        sim.run()
        assert len(dst.received) == 1

    def test_control_flows_while_paused(self):
        sim = Simulator()
        port, dst = self._port(sim)
        port.pause_data()
        port.enqueue(data_packet(FlowKey(0, 1), 0, 100))
        port.enqueue(ack_packet(FlowKey(1, 0), 3))
        sim.run()
        assert len(dst.received) == 1
        assert dst.received[0].is_control

    def test_pause_mid_stream(self):
        sim = Simulator()
        port, dst = self._port(sim)
        for psn in range(5):
            port.enqueue(data_packet(FlowKey(0, 1), psn, 1000))
        sim.run(until=1_000)  # first packet (8 us serialization) pending
        port.pause_data()
        sim.run()
        # The in-flight packet completes; the rest are held.
        assert len(dst.received) == 1
        port.resume_data()
        sim.run()
        assert len(dst.received) == 5


class _Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


class TestPfcController:
    def _setup(self, xoff=3000, xon=1500):
        sim = Simulator()
        down = Switch(sim, "down", lb=EcmpLB(),
                      buffer=SharedBuffer(10**6),
                      ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
        down.pfc = PfcController(sim, down, PfcConfig(xoff, xon))
        # Slow egress so ingress occupancy builds.
        sink = _Sink(sim, "sink")
        egress = down.add_port(1e8, 0)   # 100 Mbps
        egress.connect(sink)
        down.routes[1] = [egress]
        # The upstream transmitter whose port will be paused.
        up = Device(sim, "up")
        up_port = Port(sim, up, bandwidth_bps=1e9, delay_ns=100)
        up_port.connect(down)
        return sim, down, up_port

    def test_xoff_pauses_upstream(self):
        sim, down, up_port = self._setup()
        for psn in range(5):
            down.receive(data_packet(FlowKey(0, 1), psn, 1000), up_port)
        sim.run(until=200)  # let the PAUSE propagate
        assert up_port.data_paused
        assert down.pfc.pauses_sent == 1

    def test_drain_resumes_upstream(self):
        sim, down, up_port = self._setup()
        for psn in range(5):
            down.receive(data_packet(FlowKey(0, 1), psn, 1000), up_port)
        sim.run()
        assert not up_port.data_paused
        assert down.pfc.resumes_sent == 1
        assert down.pfc.ingress_occupancy(up_port) == 0

    def test_control_packets_not_charged(self):
        sim, down, up_port = self._setup()
        down.routes[0] = down.routes[1]
        for _ in range(100):
            down.receive(ack_packet(FlowKey(1, 0), 0), up_port)
        assert down.pfc.ingress_occupancy(up_port) == 0
        assert not down.pfc.paused_ports

    def test_unroutable_packet_credited(self):
        """A packet dropped for want of a route must not leak ingress
        bytes either."""
        sim, down, up_port = self._setup()
        down.routes[1] = []
        down.receive(data_packet(FlowKey(0, 1), 0, 1000), up_port)
        assert down.pfc.ingress_occupancy(up_port) == 0

    def test_consumed_packet_credited(self):
        """A packet eaten by middleware must not leak ingress bytes."""
        from repro.switch.switch import Middleware

        class EatData(Middleware):
            def on_packet(self, switch, packet, in_port):
                return not packet.is_data

        sim, down, up_port = self._setup()
        down.add_middleware(EatData())
        down.receive(data_packet(FlowKey(0, 1), 0, 1000), up_port)
        assert down.pfc.ingress_occupancy(up_port) == 0


class TestLosslessFabric:
    def test_incast_with_tiny_buffer_lossless(self):
        """3:1 incast into a switch with a buffer far below the incast
        volume: without PFC packets drop; with PFC the fabric backs
        pressure up into the senders and nothing is lost."""
        topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                            nics_per_tor=4, link_bandwidth_bps=25e9)

        def run(pfc):
            net = Network(NetworkConfig(
                topology=topo, scheme="ecmp", buffer_bytes=150_000,
                pfc=pfc, seed=2))
            for src in (0, 1, 2):
                net.post_message(src, 4, 400_000)
            net.run(until_ns=60_000_000_000)
            return net

        lossy = run(None)
        assert lossy.metrics.drops > 0          # buffer too small
        assert lossy.metrics.all_flows_done()   # recovered via retx

        lossless = run(PfcConfig(xoff_bytes=40_000, xon_bytes=20_000))
        assert lossless.metrics.drops == 0
        assert lossless.metrics.all_flows_done()
        total_pauses = sum(s.pfc.pauses_sent
                           for s in lossless.topology.switches)
        assert total_pauses > 0

    def test_pfc_with_themis(self):
        """Lossless + Themis co-exist: still blocks invalid NACKs."""
        topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=2,
                            nics_per_tor=2, link_bandwidth_bps=25e9)
        net = Network(NetworkConfig(
            topology=topo, scheme="themis",
            pfc=PfcConfig(xoff_bytes=60_000, xon_bytes=30_000), seed=1))
        for src, dst in ((0, 2), (2, 4), (4, 6), (6, 0),
                         (1, 3), (3, 5), (5, 7), (7, 1)):
            net.post_message(src, dst, 500_000)
        net.run(until_ns=60_000_000_000)
        assert net.metrics.all_flows_done()
        assert net.metrics.drops == 0
