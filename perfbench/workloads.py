"""Workload generators for the benchmark.

Every workload is built here from public ``repro`` APIs only
(``Network``/``NetworkConfig``/``TopologySpec``, ``Network.post_message``,
the ``repro.faults`` scenario builder and injector, ``run_arena`` and
``ResultsStore``), so a change to the program's own bench builders
cannot silently change what is measured.

A workload object has three phases, each timed separately by
``perfbench/rep.py``:

* ``setup()``  -- build the fabric (or open the results store) and post
  the work;
* ``run(lap)``  -- the timed region: run the work to completion, calling
  ``lap()``, if given, at the end of each piece of it that holds the
  same work in every repetition of a seed (a run of simulated events,
  an arena cell) and once at the very end;
* ``result()`` -- check the outputs and summarise them as simulated
  metrics plus a digest that must repeat exactly for a seed (and the
  digests of any warm passes the workload ran itself).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import asdict

#: Simulated-time deadline of the sim workloads.  Flows not done by then
#: count as failed and their FCT is censored at the deadline.
DEADLINE_NS = 500_000_000

#: Warm passes per arena repetition.  One pass takes a few milliseconds;
#: this many span about a second, so their median, like the multi-second
#: cold pass, averages over the host's speed swings instead of catching
#: a single one.
ARENA_WARM_PASSES = 150

#: Simulated events per lap of a sim run (about 30 ms of wall time).
LAP_EVENTS = 8_000
#: Most slices a sim run is cut into; the rest runs as one last lap.
MAX_SLICES = 100_000


def percentile(values, share: float):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def digest_of(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Packet-level simulation workloads
# ----------------------------------------------------------------------
class SimWorkload:
    """One fabric, a fixed list of (src, dst, nbytes) flows, run until
    every receiver completes (or the deadline passes)."""

    #: TopologySpec keyword arguments.
    topology: dict = {}
    scheme = "ecmp"
    #: Bytes per flow at scale 1.0.
    flow_bytes = 0
    #: Simulated time per ``Network.run`` call of ``run``; short enough
    #: that one slice holds well under ``LAP_EVENTS`` events.
    slice_ns = 2_000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.nbytes = max(4096, int(self.flow_bytes * scale))
        self.net = None
        self.flows: list = []
        self.done_ns: dict = {}
        self.left = 0

    def pairs(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def install_faults(self, net) -> None:
        """Hook for workloads with a fault schedule."""

    def setup(self) -> None:
        from repro import Network, NetworkConfig, TopologySpec

        config = NetworkConfig(topology=TopologySpec(**self.topology),
                               scheme=self.scheme, transport="nic_sr",
                               seed=self.seed)
        net = Network(config)
        self.net = net
        self.install_faults(net)
        pairs = self.pairs()
        self.left = len(pairs)

        def done_cb(key):
            def on_done() -> None:
                # Completion time is read here: after stop(), run(until)
                # drains the clock to the deadline.
                self.done_ns[key] = net.now_ns
                self.left -= 1
                if self.left == 0:
                    net.stop()
            return on_done

        for src, dst in pairs:
            flow = net.post_message(src, dst, self.nbytes,
                                    on_receiver_done=done_cb((src, dst)))
            self.flows.append(flow)

    def run(self, lap=None) -> None:
        """Run to the deadline.  With ``lap``, run in ``slice_ns`` slices
        while flows are open, with a lap after every ``LAP_EVENTS``
        events, then drain to the deadline in one last lap -- the same
        events, in the same order, as the one ``Network.run`` call made
        without it."""
        if lap is None:
            self.net.run(until_ns=DEADLINE_NS)
            return
        until = 0
        events = 0
        for _ in range(MAX_SLICES):
            if not self.left or until >= DEADLINE_NS:
                break
            until = min(until + self.slice_ns, DEADLINE_NS)
            events += self.net.run(until_ns=until)
            if events >= LAP_EVENTS:
                lap()
                events = 0
        self.net.run(until_ns=DEADLINE_NS)
        lap()

    # ------------------------------------------------------------------
    def _delivered_bytes(self, flow) -> int:
        """Payload bytes the receiver has accepted in order."""
        net = self.net
        sender = net.nics[flow.src].senders[flow]
        receiver = net.nics[flow.dst].receivers.get(flow)
        if receiver is None:
            return 0
        return sum(sender.payload_for(psn) for psn in range(receiver.epsn))

    def result(self) -> dict:
        net = self.net
        metrics = net.metrics
        problems = []
        fcts = []
        rows = []
        failed = 0
        delivered_total = 0
        for flow in self.flows:
            stats = metrics.flows[flow]
            done = self.done_ns.get((flow.src, flow.dst))
            if done is None:
                failed += 1
                fct = DEADLINE_NS - stats.start_ns
            else:
                fct = done - stats.start_ns
                delivered = self._delivered_bytes(flow)
                delivered_total += delivered
                if delivered != stats.bytes_posted:
                    problems.append(
                        f"flow {flow}: posted {stats.bytes_posted} B, "
                        f"delivered {delivered} B")
                if done != stats.receiver_done_ns:
                    problems.append(f"flow {flow}: completion callback at "
                                    f"{done} ns, receiver at "
                                    f"{stats.receiver_done_ns} ns")
            fcts.append(fct)
            rows.append([flow.src, flow.dst, flow.qp, stats.start_ns, done,
                         stats.sender_done_ns, stats.bytes_posted,
                         stats.packets_sent, stats.retransmissions,
                         stats.spurious_retransmissions,
                         stats.nacks_received, stats.timeouts,
                         stats.receiver_ooo])
        jct_ns = max(fcts)
        counters = {
            "data_packets_sent": metrics.data_packets_sent,
            "retransmissions": metrics.retransmissions,
            "drops": metrics.drops,
            "nacks_generated": metrics.nacks_generated,
            "cnps_generated": metrics.cnps_generated,
            "themis": asdict(metrics.themis),
        }
        return {
            "digest": digest_of({"flows": rows, "counters": counters}),
            "warm_digests": [],
            "attempted": len(self.flows),
            "failed": failed,
            "problems": problems,
            "sim": {
                "sim_jct_us": jct_ns / 1e3,
                "sim_fct_p50_us": percentile(fcts, 0.50) / 1e3,
                "sim_fct_p99_us": percentile(fcts, 0.99) / 1e3,
                "sim_goodput_gbps": delivered_total * 8 / jct_ns,
            },
            "jobs": {"executed": 0, "cache_hits": 0},
        }

    def close(self) -> None:
        self.net = None


class ThemisAlltoall(SimWorkload):
    """Fig. 5 regime: 32 NICs on a 16 x 8 leaf-spine, every pair posts
    one message, Themis PSN spraying over NIC-SR with DCQCN."""

    topology = {"kind": "leaf_spine", "num_tors": 16, "num_spines": 8,
                "nics_per_tor": 2, "link_bandwidth_bps": 100e9}
    scheme = "themis"
    flow_bytes = 40_000
    slice_ns = 500

    def pairs(self):
        n = 32
        return [(s, d) for s in range(n) for d in range(n) if s != d]


class ThemisLossy(SimWorkload):
    """16 long Themis flows on a 4 x 4 leaf-spine; one ToR uplink drops
    1% of data packets and another runs 2 us slow for the whole run."""

    topology = {"kind": "leaf_spine", "num_tors": 4, "num_spines": 4,
                "nics_per_tor": 2, "link_bandwidth_bps": 100e9}
    scheme = "themis"
    flow_bytes = 2_000_000

    def pairs(self):
        return [(s, (s + k) % 8) for s in range(8) for k in (2, 4)]

    def fault_links(self, net) -> tuple[str, str]:
        uplinks = sorted(link.name for link in net.topology.links
                         if link.kind == "fabric")
        lossy, slow = random.Random(self.seed).sample(uplinks, 2)
        return lossy, slow

    def install_faults(self, net) -> None:
        from repro.faults import FaultInjector, Scenario
        from repro.faults.spec import LatencyShift, RandomLoss

        lossy, slow = self.fault_links(net)
        # Both faults outlast the deadline, so they hold for the whole run.
        span_us = 2 * DEADLINE_NS / 1e3
        scenario = (Scenario("perfbench-lossy")
                    .add(RandomLoss(link=lossy, at_us=0.0,
                                    duration_us=span_us, rate=0.01))
                    .add(LatencyShift(link=slow, at_us=0.0,
                                      duration_us=span_us, extra_us=2.0)))
        FaultInjector(net, scenario).install()


class EcmpIncast(SimWorkload):
    """15 -> 1 incast on a 2 x 2 leaf-spine under flow-hash ECMP: no
    spraying and no Themis, so shared-buffer queues, ECN marking, CNPs
    and DCQCN carry the load."""

    topology = {"kind": "leaf_spine", "num_tors": 2, "num_spines": 2,
                "nics_per_tor": 8, "link_bandwidth_bps": 100e9}
    scheme = "ecmp"
    flow_bytes = 2_000_000

    def pairs(self):
        return [(s, 0) for s in range(1, 16)]


# ----------------------------------------------------------------------
# Arena sweep
# ----------------------------------------------------------------------
class ArenaSweep:
    """The quick arena grid, in-process (``workers=1``), through a fresh
    results store: one cold pass that executes and stores every cell,
    then warm passes answered entirely from the store."""

    def __init__(self, seed: int, scale: float = 1.0,
                 work_dir: str = ".") -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.store = None
        self.specs = []
        self.cold_doc = None
        self.cold_counters = None
        self.cells_done = 0
        #: Per warm pass: (digest, byte-identical to the cold doc?,
        #: jobs executed, cache hits).  Documents are not kept: one per
        #: pass would inflate the process's peak RSS.
        self.warm_passes: list[tuple[str, bool, int, int]] = []

    def _spec_kwargs(self) -> dict:
        from repro.harness.arena import LB_POLICIES

        kwargs = {"quick": True, "seeds": (self.seed,)}
        if self.scale < 1.0:
            count = max(1, round(len(LB_POLICIES) * self.scale))
            kwargs["lbs"] = LB_POLICIES[:count]
        return kwargs

    def setup(self) -> None:
        from repro.harness.arena import arena_job_specs
        from repro.results.store import ResultsStore

        os.makedirs(self.work_dir, exist_ok=True)
        self.store = ResultsStore(os.path.join(self.work_dir,
                                               "results.sqlite"))
        self.specs = arena_job_specs(**self._spec_kwargs())

    def _pass(self, progress=None):
        from repro.harness.arena import run_arena
        from repro.harness.metrics import JobCounters

        counters = JobCounters()
        doc = run_arena(workers=1, cache=self.store, counters=counters,
                        progress=progress, **self._spec_kwargs())
        return doc, counters

    def run(self, lap=None) -> None:
        """The cold pass, with a lap per cell and one for the document."""
        lap = lap or (lambda: None)

        def progress(message: str) -> None:
            if message.startswith(("done ", "failed ")):
                self.cells_done += 1
                lap()

        self.cold_doc, self.cold_counters = self._pass(progress)
        lap()

    def warm(self) -> None:
        doc, counters = self._pass()
        self.warm_passes.append((digest_of(doc),
                                 json.dumps(doc) == json.dumps(self.cold_doc),
                                 counters.executed, counters.cache_hits))

    def result(self) -> dict:
        from repro.harness.arena import validate_arena_doc

        doc = self.cold_doc
        cells = doc["cells"]
        problems = [f"arena doc: {p}" for p in validate_arena_doc(doc)]
        if len(cells) != len(self.specs):
            problems.append(f"arena doc has {len(cells)} cells, grid "
                            f"has {len(self.specs)}")
        if self.cold_counters.cache_hits:
            problems.append(f"cold pass hit the cache "
                            f"{self.cold_counters.cache_hits} times")
        for _digest, identical, executed, _hits in self.warm_passes:
            if not identical:
                problems.append("warm arena doc differs from the cold one")
            if executed:
                problems.append(f"warm pass executed {executed} jobs")
        if self.cells_done != len(self.specs):
            problems.append(f"timed {self.cells_done} cells, grid has "
                            f"{len(self.specs)}")
        tails = [cell["tail_ns"] for cell in cells]
        censored = sum(1 for cell in cells if not cell["completed"])
        return {
            "digest": digest_of(doc),
            "warm_digests": [p[0] for p in self.warm_passes],
            "attempted": len(self.specs),
            "failed": self.cold_counters.failed + censored,
            "problems": problems,
            "sim": {
                "sim_jct_us": sum(tails) / 1e3,
                "sim_fct_p50_us": percentile(tails, 0.50) / 1e3,
                "sim_fct_p99_us": percentile(tails, 0.99) / 1e3,
                "sim_goodput_gbps": (sum(c["goodput_gbps"] for c in cells)
                                     / len(cells)),
            },
            "jobs": {"executed": (self.cold_counters.executed
                                  + sum(p[2] for p in self.warm_passes)),
                     "cache_hits": sum(p[3] for p in self.warm_passes)},
        }

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {
    "themis_alltoall": ThemisAlltoall,
    "themis_lossy": ThemisLossy,
    "ecmp_incast": EcmpIncast,
    "arena_sweep": ArenaSweep,
}
