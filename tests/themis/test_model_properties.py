"""Model-checking properties of Themis-D x NIC-SR (hypothesis).

An abstract pipeline — deterministic PSN spraying over N per-path FIFOs,
arbitrary cross-path interleavings, a real NIC-SR receiver, a real
Themis-D — explored across thousands of arrival orders.  Two theorems
the design relies on:

* **No false compensation**: on a loss-free run, Themis never fabricates
  a NACK, for *any* FIFO-respecting interleaving.
* **Loss recovery coverage**: dropping one packet D that has at least
  one same-path successor always surfaces a NACK for D to the sender —
  either the RNIC's own NACK validated as genuine, or a compensated one.
"""

from hypothesis import given, settings, strategies as st

from repro.cc.base import FixedRate
from repro.harness.metrics import Metrics
from repro.net.packet import FlowKey, PacketType, data_packet
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.themis.config import ThemisConfig
from repro.themis.dest import ThemisDest

FLOW = FlowKey(0, 1)


class MiniToR:
    """Just enough switch surface for ThemisDest: down NICs + forward."""

    def __init__(self, sim):
        self.sim = sim
        self.down_nics = {1}
        self.to_sender = []          # NACKs surviving toward the sender

    def forward(self, packet):
        self.to_sender.append(packet)


class Pipeline:
    """ToR (Themis-D) wired synchronously to a NIC-SR receiver."""

    def __init__(self, n_paths, capacity=256):
        self.sim = Simulator()
        self.metrics = Metrics(self.sim)
        self.tor = MiniToR(self.sim)
        self.dest = ThemisDest(
            ThemisConfig(), self.metrics,
            n_paths_for=lambda flow: n_paths,
            queue_capacity_for=lambda flow: capacity)
        nic = Rnic(self.sim, 1, config=RnicConfig(),
                   metrics=self.metrics, rng=SimRng(0),
                   cc_factory=lambda f: FixedRate(self.sim, 1e9))
        pipeline = self

        class Loopback:
            def enqueue(self, packet):
                if packet.ptype is PacketType.NACK:
                    # The NACK rides back to the ToR instantly.
                    if pipeline.dest.on_packet(pipeline.tor, packet,
                                               None):
                        pipeline.tor.to_sender.append(packet)
                return True

        nic.uplink = Loopback()
        self.nic = nic
        self.receiver = nic.receiver(FLOW)

    def deliver(self, psn):
        packet = data_packet(FLOW, psn, 100)
        if self.dest.on_packet(self.tor, packet, None):
            self.nic.receive(packet, None)

    def sender_nack_epsns(self):
        return {p.epsn for p in self.tor.to_sender
                if p.ptype is PacketType.NACK}


def fifo_interleavings(n_packets, n_paths):
    """Strategy: arrival orders preserving per-path (mod-N) FIFO order.

    Encoded as a sequence of path picks; each pick releases that path's
    next pending PSN.  Invalid (exhausted-path) picks wrap to the next
    non-empty path, keeping every generated order valid.
    """
    return st.lists(st.integers(0, n_paths - 1), min_size=n_packets,
                    max_size=n_packets).map(
        lambda picks: _decode(picks, n_packets, n_paths))


def _decode(picks, n_packets, n_paths):
    pending = {p: [psn for psn in range(n_packets)
                   if psn % n_paths == p] for p in range(n_paths)}
    order = []
    for pick in picks:
        for offset in range(n_paths):
            path = (pick + offset) % n_paths
            if pending[path]:
                order.append(pending[path].pop(0))
                break
    # Release anything left (picks ran out of some paths).
    for path in range(n_paths):
        order.extend(pending[path])
    return order


@settings(max_examples=300, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_lossless_runs_never_compensate(n_paths, data):
    n_packets = data.draw(st.integers(n_paths + 1, 40))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        pipe.deliver(psn)
    # Theorem 1: no fabricated NACKs without loss.
    assert pipe.metrics.themis.nacks_compensated == 0
    # Sanity: the receiver assembled the whole stream.
    assert pipe.receiver.epsn == n_packets
    # Accounting closes.
    themis = pipe.metrics.themis
    assert themis.nacks_inspected \
        == themis.nacks_blocked + themis.nacks_forwarded


@settings(max_examples=300, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_single_loss_surfaces_a_nack_given_late_successor(n_paths, data):
    """Theorem 2, with its true precondition.

    §3.4 can only compensate when a same-path successor of the dropped
    PSN traverses the ToR *after* the blocked NACK (hypothesis found the
    counter-example where the only successor raced ahead — that case is
    what the RTO fallback exists for).  Appending a tail of N+1 fresh
    PSNs guarantees such a successor, after which recovery must be
    NACK-driven: the dropped PSN reaches the sender either as a
    validated RNIC NACK or as a Themis-compensated one.
    """
    n_packets = data.draw(st.integers(2 * n_paths + 2, 40))
    dropped = data.draw(st.integers(0, n_packets - 1))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        if psn != dropped:
            pipe.deliver(psn)
    # Late tail: one packet per path, in order, after everything else.
    for psn in range(n_packets, n_packets + n_paths + 1):
        pipe.deliver(psn)
    # Theorem 2: the sender hears about the loss (validated-through or
    # compensated NACK carrying exactly the dropped PSN).
    assert dropped in pipe.sender_nack_epsns()
    # And the receiver is stuck exactly at the dropped PSN.
    assert pipe.receiver.epsn == dropped


@settings(max_examples=200, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_compensated_nacks_name_only_truly_lost_psns(n_paths, data):
    """Safety dual of theorem 2: a compensated NACK is *never* fabricated
    for data that was merely delayed.  With exactly one dropped PSN,
    every Themis-generated NACK must carry exactly that PSN."""
    n_packets = data.draw(st.integers(n_paths + 1, 40))
    dropped = data.draw(st.integers(0, n_packets - 1))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        if psn != dropped:
            pipe.deliver(psn)
    for psn in range(n_packets, n_packets + n_paths + 1):
        pipe.deliver(psn)
    fabricated = [p for p in pipe.tor.to_sender
                  if p.ptype is PacketType.NACK and p.themis_generated]
    assert all(p.epsn == dropped for p in fabricated)
