"""Per-layer span tracing for the benchmark's traced mode.

The tracer wraps each layer's entry points at class level: the methods
the engine dispatches (``Port._pump``, ``Switch.receive``,
``Rnic.receive``, the QP and DCQCN timers, fault actions) and the calls
one layer makes into the next (``Port.enqueue``, ``LoadBalancer.select``,
Themis middleware hooks, the results store).  It must be installed before
any ``Network`` is built: ports cache ``_pump`` and their peer's
``receive`` as bound methods at construction, so a later patch would
miss them.

Each wrapper times its call and keeps a stack of open spans, so a span's
self time is its duration minus the time of the spans it called.  Spans
are aggregated per (name, parent) in memory; full spans are kept only
for a bounded sample, written out at the end of the run.

The engine's public ``Simulator.trace`` hook counts every dispatched
event by callback, which shows how many events ran a callback no wrapper
covers (their time would land in the engine's self time).
"""

from __future__ import annotations

import time
from typing import Optional

#: Layer names, longest first so the most specific prefix wins.
LAYERS = ("switch.lb", "themis.src", "themis.dst", "cc.dcqcn",
          "results.store", "sim.engine", "net.port", "switch", "rnic",
          "collectives", "faults", "harness")


def layer_of(span: str) -> str:
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span!r} belongs to no layer")


def entry_points() -> list[tuple[type, str, str]]:
    """(class, method, span name) for every wrapped entry point."""
    from repro.cc.dcqcn import Dcqcn
    from repro.collectives.group import Collective
    from repro.collectives.ring import RingCollective
    from repro.faults.injector import FaultInjector
    from repro.harness.jobs import JobRunner
    from repro.harness.network import Network
    from repro.net.port import Port
    from repro.results.store import ResultsStore
    from repro.rnic.nic import Rnic
    from repro.rnic.qp import SenderQp
    from repro.rnic.reliability import ReceiverQp
    from repro.sim.engine import Simulator
    from repro.switch import lb
    from repro.switch.switch import Switch
    from repro.themis.dest import ThemisDest
    from repro.themis.source import ThemisSource

    points = [
        (Simulator, "run", "sim.engine.run"),
        (Port, "enqueue", "net.port.enqueue"),
        (Port, "_pump", "net.port.pump"),
        (Switch, "receive", "switch.receive"),
        (Switch, "forward", "switch.forward"),
        (Rnic, "receive", "rnic.receive"),
        (SenderQp, "_send_one", "rnic.send"),
        (SenderQp, "_rto_fire", "rnic.rto"),
        (ReceiverQp, "_delayed_ack_fire", "rnic.delayed_ack"),
        (ThemisSource, "on_packet", "themis.src.on_packet"),
        (ThemisSource, "select_port", "themis.src.select_port"),
        (ThemisDest, "on_packet", "themis.dst.on_packet"),
        (FaultInjector, "_apply", "faults.apply"),
        (Collective, "start", "collectives.start"),
        (RingCollective, "_on_progress", "collectives.progress"),
        (Network, "__init__", "harness.network.build"),
        (Network, "run", "harness.network.run"),
        (JobRunner, "run", "harness.jobs.run"),
        (ResultsStore, "get_job_result", "results.store.get"),
        (ResultsStore, "put_job_result", "results.store.put"),
    ]
    for method in ("on_cnp", "on_nack", "on_timeout", "on_bytes_sent",
                   "_increase_tick", "_alpha_tick"):
        points.append((Dcqcn, method, "cc.dcqcn." + method.lstrip("_")))
    for value in vars(lb).values():
        if (isinstance(value, type) and issubclass(value, lb.LoadBalancer)
                and "select" in vars(value)):
            points.append((value, "select", "switch.lb.select"))
    return [p for p in points if p[1] in vars(p[0])]


#: Every SAMPLE_EVERY-th span is kept in full, up to SAMPLE_CAP spans:
#: a span per call at ~10^6 events per run would not fit in memory.
SAMPLE_EVERY = 997
SAMPLE_CAP = 20_000


class Tracer:
    """Installs the wrappers and owns every span they record."""

    def __init__(self) -> None:
        #: (name, parent name or None) -> [calls, total_s, self_s]
        self.agg: dict[tuple[str, Optional[str]], list] = {}
        #: Sampled full spans: [name, parent, start_s, duration_s].
        self.samples: list[list] = []
        #: Engine events per dispatched callback function.
        self.event_counts: dict = {}
        #: Counters harvested from each network after it ran.
        self.counts: dict[str, float] = {}
        self.ecn_marks = 0
        self._stack: list[list] = []
        self._seen = 0
        self._origin = time.perf_counter()
        self._patched: list[tuple[type, str, object]] = []
        self._wrappers: set = set()

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        from repro.switch.ecn import EcnMarker

        for owner, attr, name in entry_points():
            original = vars(owner)[attr]
            if name == "harness.network.run":
                wrapper = self._harvesting(original, name)
            elif name == "harness.network.build":
                wrapper = self._hooking(original, name)
            else:
                wrapper = self._span(original, name)
            self._patch(owner, attr, original, wrapper)
        original = vars(EcnMarker)["should_mark"]
        self._patch(EcnMarker, "should_mark", original,
                    self._ecn_counter(original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        self._wrappers.add(wrapper)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def _span(self, fn, name: str):
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (name, parent[0])
                else:
                    key = (name, None)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                tracer._seen += 1
                if (tracer._seen % SAMPLE_EVERY == 0
                        and len(tracer.samples) < SAMPLE_CAP):
                    tracer.samples.append(
                        [name, key[1], start - tracer._origin, duration])

        return wrapper

    def _hooking(self, fn, name: str):
        """Span around ``Network.__init__`` that also attaches the
        event-counting hook to the network's engine."""
        span = self._span(fn, name)
        counts = self.event_counts

        def hook(_time_ns, _seq, callback) -> None:
            func = getattr(callback, "__func__", callback)
            counts[func] = counts.get(func, 0) + 1

        def wrapper(net, *args, **kwargs):
            span(net, *args, **kwargs)
            net.sim.trace = hook

        return wrapper

    def _harvesting(self, fn, name: str):
        """Span around ``Network.run`` that afterwards adds the
        network's own counters to :attr:`counts`."""
        span = self._span(fn, name)

        def wrapper(net, *args, **kwargs):
            batches = net.sim.batches
            executed = span(net, *args, **kwargs)
            self._harvest(net, executed, net.sim.batches - batches)
            return executed

        return wrapper

    def _ecn_counter(self, fn):
        def wrapper(marker, queue_bytes):
            marked = fn(marker, queue_bytes)
            if marked:
                self.ecn_marks += 1
            return marked

        return wrapper

    def _harvest(self, net, events: int, batches: int) -> None:
        metrics = net.metrics
        flows = metrics.flows.values()
        ports = [port for switch in net.topology.switches
                 for port in switch.ports]
        ports += [port for nic in net.nics for port in nic.ports]
        themis = metrics.themis
        add = {
            "events": events,
            "batches": batches,
            "tx_packets": sum(p.packets_sent for p in ports),
            "drops": sum(p.packets_dropped for p in ports),
            "data_packets": metrics.data_packets_sent,
            "retx": sum(f.retransmissions for f in flows),
            "spurious_retx": sum(f.spurious_retransmissions for f in flows),
            "timeouts": sum(f.timeouts for f in flows),
            "nacks_received": sum(f.nacks_received for f in flows),
            "ooo_arrivals": sum(f.receiver_ooo for f in flows),
            "cnps": metrics.cnps_generated,
            "nacks_inspected": themis.nacks_inspected,
            "nacks_blocked": themis.nacks_blocked,
            "nacks_compensated": themis.nacks_compensated,
            "compensation_cancelled": themis.compensation_cancelled,
            "tpsn_not_found": themis.tpsn_not_found,
            "ring_overflows": themis.queue_overflows,
        }
        for key, value in add.items():
            self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the aggregates, to difference two points of a run."""
        return {
            "agg": {key: list(row) for key, row in self.agg.items()},
            "counts": dict(self.counts),
            "events": dict(self.event_counts),
            "ecn_marks": self.ecn_marks,
        }

    def unwrapped_events(self, before: dict, after: dict) -> int:
        wrapped_funcs = self._wrappers
        return sum(count - before["events"].get(func, 0)
                   for func, count in after["events"].items()
                   if func not in wrapped_funcs)

    def sample_doc(self) -> dict:
        return {"sample_every": SAMPLE_EVERY,
                "fields": ["name", "parent", "start_s", "duration_s"],
                "spans": self.samples}


def delta(before: dict, after: dict) -> dict:
    """Per-(name, parent) [calls, total_s, self_s] between snapshots."""
    out = {}
    for key, row in after["agg"].items():
        old = before["agg"].get(key, [0, 0.0, 0.0])
        calls = row[0] - old[0]
        if calls:
            out[key] = [calls, row[1] - old[1], row[2] - old[2]]
    return out
