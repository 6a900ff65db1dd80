"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--mode plain]
        [--warm N] [--scale X] [--spans-out PATH] [--cpu N]

Prints one JSON object on its last stdout line.  Modes:

* ``plain``    -- untraced: set-up, one cold run timed lap by lap with a
  host calibration (``calib.py``) before set-up and between laps, then
  ``--warm`` in-process re-runs of the same work;
* ``traced``   -- the per-layer span wrappers are installed before
  anything is built (see ``perfbench/spans.py``), and the cold run is
  timed whole;
* ``recorder`` -- every network gets an all-category ``repro.obs``
  ``Recorder``, to price the program's own tracing.

Set-up time starts before ``import repro``, so it includes the import.
In plain mode ``run_s`` is the sum of the laps, without the calibrations
between them.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import calibrate  # noqa: E402


def _pin_early(args: list[str]) -> None:
    """Apply ``--cpu`` before anything is timed, so set-up, the run and
    their calibrations share one CPU."""
    if "--cpu" in args[:-1]:
        cpu = int(args[args.index("--cpu") + 1])
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})


_pin_early(sys.argv[1:])
_CAL0 = calibrate()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, ArenaSweep  # noqa: E402


def make_workload(name: str, seed: int, scale: float, tag: str):
    cls = WORKLOADS[name]
    if cls is ArenaSweep:
        work_dir = os.path.join(ROOT, ".perfbench_work",
                                f"{tag}-{os.getpid()}")
        return cls(seed, scale, work_dir=work_dir)
    return cls(seed, scale)


def install_recorder_everywhere() -> None:
    """Give every ``Network`` built from here on an all-category
    recorder (the arena builds its networks internally)."""
    from repro.harness.network import Network
    from repro.obs.record import Recorder

    original = Network.__init__

    def init(self, config, *, sim=None, recorder=None):
        original(self, config, sim=sim,
                 recorder=recorder if recorder is not None else Recorder())

    Network.__init__ = init


class Laps:
    """The ``lap`` callback of ``run``: times each lap and calibrates
    the host between laps, outside the timed laps."""

    def __init__(self) -> None:
        self.laps_s: list[float] = []
        self.cal_s = [calibrate()]
        self.start = time.perf_counter()

    def __call__(self) -> None:
        end = time.perf_counter()
        self.laps_s.append(end - self.start)
        self.cal_s.append(calibrate())
        self.start = time.perf_counter()


def layer_metrics(tracer, before: dict, after: dict, run_s: float) -> dict:
    """Per-layer metrics of the timed region between two snapshots."""
    spans_d = spans.delta(before, after)
    counts = {k: v - before["counts"].get(k, 0)
              for k, v in after["counts"].items()}
    self_s: dict[str, float] = {layer: 0.0 for layer in spans.LAYERS}
    calls: dict[str, int] = {}
    top_total = 0.0
    for (name, parent), (n, total, own) in spans_d.items():
        self_s[spans.layer_of(name)] += own
        calls[name] = calls.get(name, 0) + n
        if parent is None:
            top_total += total

    def calls_of(prefix: str) -> int:
        return sum(n for name, n in calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    events = counts.get("events", 0)
    batches = counts.get("batches", 0)
    retx = counts.get("retx", 0)
    data = counts.get("data_packets", 0)
    return {
        "sim_retx_ratio": retx / data if data else 0.0,
        "sim.engine.events": events,
        "sim.engine.batches": batches,
        "sim.engine.events_per_batch": events / batches if batches else 0.0,
        "sim.engine.self_s": self_s["sim.engine"],
        "net.port.enqueue_calls": calls.get("net.port.enqueue", 0),
        "net.port.tx_packets": counts.get("tx_packets", 0),
        "net.port.drops": counts.get("drops", 0),
        "net.port.self_s": self_s["net.port"],
        "switch.receive_calls": calls.get("switch.receive", 0),
        "switch.self_s": self_s["switch"],
        "switch.lb.select_calls": calls_of("switch.lb"),
        "switch.lb.self_s": self_s["switch.lb"],
        "switch.ecn_marks": after["ecn_marks"] - before["ecn_marks"],
        "rnic.receive_calls": calls.get("rnic.receive", 0),
        "rnic.self_s": self_s["rnic"],
        "rnic.retx": retx,
        "rnic.spurious_retx": counts.get("spurious_retx", 0),
        "rnic.useful_retx_ratio": (
            (retx - counts.get("spurious_retx", 0)) / retx if retx else 0.0),
        "rnic.timeouts": counts.get("timeouts", 0),
        "rnic.nacks_received": counts.get("nacks_received", 0),
        "rnic.ooo_arrivals": counts.get("ooo_arrivals", 0),
        "cc.dcqcn.calls": calls_of("cc.dcqcn"),
        "cc.dcqcn.self_s": self_s["cc.dcqcn"],
        "cc.cnps": counts.get("cnps", 0),
        "themis.src.calls": calls_of("themis.src"),
        "themis.src.self_s": self_s["themis.src"],
        "themis.dst.calls": calls_of("themis.dst"),
        "themis.dst.self_s": self_s["themis.dst"],
        "themis.dst.nacks_inspected": counts.get("nacks_inspected", 0),
        "themis.dst.nacks_blocked": counts.get("nacks_blocked", 0),
        "themis.dst.nacks_compensated": counts.get("nacks_compensated", 0),
        "themis.dst.compensation_cancelled":
            counts.get("compensation_cancelled", 0),
        "themis.dst.tpsn_not_found": counts.get("tpsn_not_found", 0),
        "themis.ring.overflows": counts.get("ring_overflows", 0),
        "faults.applied": calls.get("faults.apply", 0),
        "faults.self_s": self_s["faults"],
        "collectives.self_s": self_s["collectives"],
        "harness.self_s": self_s["harness"],
        "results.store.self_s": self_s["results.store"],
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - top_total,
        "trace.unwrapped_events": tracer.unwrapped_events(before, after),
    }


def store_metrics(before: dict, after: dict) -> dict:
    """Results-store calls and time over cold and warm passes."""
    out = {"results.store.put_calls": 0, "results.store.put_s": 0.0,
           "results.store.get_calls": 0, "results.store.get_s": 0.0}
    for (name, _parent), (n, total, _own) in spans.delta(before,
                                                         after).items():
        if name in ("results.store.put", "results.store.get"):
            op = name.rsplit(".", 1)[1]
            out[f"results.store.{op}_calls"] += n
            out[f"results.store.{op}_s"] += total
    return out


def build_seconds(before: dict, after: dict) -> float:
    return sum(total for (name, _p), (_n, total, _o)
               in spans.delta(before, after).items()
               if name == "harness.network.build")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "traced", "recorder"))
    parser.add_argument("--warm", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--cpu", type=int, default=-1,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer().install()
        mark0 = tracer.snapshot()
    elif args.mode == "recorder":
        install_recorder_everywhere()

    wl = make_workload(args.workload, args.seed, args.scale, "cold")
    try:
        wl.setup()
        setup_s = time.perf_counter() - _T0
        gc.collect()
        if tracer is not None:
            mark1 = tracer.snapshot()
        if args.mode == "plain":
            laps = Laps()
            wl.run(laps)
            run_s = sum(laps.laps_s)
        else:
            # Traced and recorder runs are priced whole, in one
            # ``Network.run`` call, against the plain runs' wall time.
            laps = None
            start = time.perf_counter()
            wl.run()
            run_s = time.perf_counter() - start
        if tracer is not None:
            mark2 = tracer.snapshot()
        warm_s = []
        if isinstance(wl, ArenaSweep):
            # The warm passes re-read the cold pass's store.
            for _ in range(args.warm):
                start = time.perf_counter()
                wl.warm()
                warm_s.append(time.perf_counter() - start)
            result = wl.result()
        else:
            result = wl.result()
            for i in range(args.warm):
                again = make_workload(args.workload, args.seed, args.scale,
                                      f"warm{i}")
                again.setup()
                gc.collect()
                start = time.perf_counter()
                again.run()
                warm_s.append(time.perf_counter() - start)
                result["warm_digests"].append(again.result()["digest"])
                again.close()
    finally:
        wl.close()

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "warm_s": warm_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if laps is not None:
        out["setup_cal_s"] = (_CAL0 + laps.cal_s[0]) / 2
        out["laps_s"] = laps.laps_s
        out["lap_cal_s"] = [(a + b) / 2
                            for a, b in zip(laps.cal_s, laps.cal_s[1:])]
    out.update(result)
    if tracer is not None:
        mark3 = tracer.snapshot()
        tracer.uninstall()
        layers = layer_metrics(tracer, mark1, mark2, run_s)
        layers.update(store_metrics(mark1, mark3))
        layers["harness.network.build_s"] = build_seconds(mark0, mark2)
        out["layers"] = layers
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out) or ".",
                        exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.sample_doc(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
