"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh-process repetitions of one workload (``perfbench/rep.py``)
until ``--seconds`` have passed, checks every output, and prints one JSON
object as its last stdout line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from separate traced
processes, so the untraced figures never carry tracing cost.  A failed
check prints ``"correct": false`` and exits 1; a missing program (no
``src/repro`` beside this directory) exits 2 without a result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, HERE)

from calib import CAL_REF_S  # noqa: E402
from workloads import ARENA_WARM_PASSES, WORKLOADS, percentile  # noqa: E402

#: Repetitions always made, however short ``--seconds`` is: two reps are
#: the least that can show a seed's digest repeating across processes.
MIN_REPS = 2
MAX_REPS = 50
#: Whole-run budget; a run that would pass it is stopped and fails.
BUDGET_S = 170.0
#: Longest measuring window, whatever ``--seconds`` asks for, so the
#: run ends well inside the budget.
MAX_WINDOW_S = 120.0


class BenchError(RuntimeError):
    pass


def cpu_for(rep: int) -> int:
    """CPU for the rep-th repetition: reps rotate over the usable CPUs.

    On a shared VM each vCPU goes through its own slow and fast phases
    of several seconds, uncorrelated with the other's; an unpinned
    process mostly stays on one vCPU and inherits its phase.  Rotating
    makes a run's median average over every vCPU.  In trials of 30 s
    windows of ``themis_alltoall`` on a 2-vCPU VM, the spread of window
    medians was 0.09 rotating against 0.24 unpinned and 0.23 pinned to
    one CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[rep % len(cpus)]


def spawn(workload: str, seed: int, scale: float, mode: str, warm: int,
          deadline: float, cpu: int, spans_out: str = "") -> dict:
    cmd = [sys.executable, REP, "--workload", workload, "--seed",
           str(seed), "--mode", mode, "--warm", str(warm),
           "--scale", repr(scale), "--cpu", str(cpu)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the run finished")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition overran the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reps(plain: list[dict], others: list[dict] = ()) -> list[str]:
    """Correctness checks across repetitions of one seed.

    Every repetition must pass its own output checks, and every pass --
    cold, warm, traced or recorded -- must reproduce the first cold
    pass's simulated digest exactly; the plain ones in as many laps.
    A traced or recorder rep runs its simulation in one piece, so its
    digest also shows that cutting a run into laps changes nothing.
    """
    problems = []
    reference = plain[0]["digest"]
    laps = len(plain[0]["laps_s"])
    for i, rep in enumerate(list(plain) + list(others)):
        problems += [f"rep {i}: {p}" for p in rep["problems"]]
        if i < len(plain) and len(rep["laps_s"]) != laps:
            problems.append(f"rep {i}: {len(rep['laps_s'])} laps != "
                            f"{laps}")
        if rep["digest"] != reference:
            problems.append(f"rep {i}: digest {rep['digest'][:12]} != "
                            f"{reference[:12]}")
        for digest in rep["warm_digests"]:
            if digest != reference:
                problems.append(f"rep {i}: warm-pass digest "
                                f"{digest[:12]} != {reference[:12]}")
    return problems


def scaled_run_s(reps: list[dict]) -> float:
    """Run time scaled to reference host speed (``calib.py``).

    A rep's cold run is timed lap by lap (``run`` in ``workloads.py``):
    a run of simulated events or one arena cell, tens of milliseconds
    each, with the same work in every rep of a seed.  Each lap is
    divided by the host calibration taken on either side of it, which
    cancels the shared host's slow stretches (1.5x for minutes at a
    time); the median over reps of each lap's ratio, summed over laps,
    is the run in calibration units.
    """
    columns = zip(*(zip(r["laps_s"], r["lap_cal_s"]) for r in reps))
    return CAL_REF_S * sum(median(lap / cal for lap, cal in column)
                           for column in columns)


def end_to_end(reps: list[dict]) -> dict:
    """``run_s`` is :func:`scaled_run_s`; ``setup_s`` is the median of
    the reps' set-up times, each scaled by the calibrations around it;
    ``peak_rss_mb`` is a median."""
    return {
        "setup_s": CAL_REF_S * median(r["setup_s"] / r["setup_cal_s"]
                                      for r in reps),
        "run_s": scaled_run_s(reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(plain: list[dict], traced: list[dict], recorded: dict,
              arena: bool) -> dict:
    # Times vary between reps and are reported as medians; counts repeat
    # exactly (the digest check), so the first traced rep's stand.
    out = {name: (median(t["layers"][name] for t in traced)
                  if name.endswith("_s") else value)
           for name, value in traced[0]["layers"].items()}
    plain_run = median(r["run_s"] for r in plain)
    out["trace.overhead_ratio"] = (median(t["run_s"] for t in traced)
                                   / plain_run)
    out["obs.recorder.overhead_ratio"] = recorded["run_s"] / plain_run
    out["warm_s"] = median(w for rep in plain for w in rep["warm_s"])
    out["run_wall_s"] = plain_run
    out["setup_wall_s"] = median(r["setup_s"] for r in plain)
    out["host.cal_ms"] = 1e3 * median(cal for r in plain
                                      for cal in r["lap_cal_s"])
    out["harness.jobs.executed"] = traced[0]["jobs"]["executed"]
    out["harness.jobs.cache_hits"] = traced[0]["jobs"]["cache_hits"]
    # Simulated outcomes repeat exactly across reps (the digest check).
    out.update(plain[0]["sim"])
    out["failed_ratio"] = (sum(r["failed"] for r in plain)
                           / sum(r["attempted"] for r in plain))
    # An arena rep's laps are its cells plus one for the document.
    cells = ([[lap * 1e3 for lap in r["laps_s"][:-1]] for r in plain]
             if arena else [])
    out["cell_p50_ms"] = (median(percentile(c, 0.50) for c in cells)
                          if cells else 0.0)
    out["cell_p90_ms"] = (median(percentile(c, 0.90) for c in cells)
                          if cells else 0.0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> tuple[dict, list[dict], list[str]]:
    """Run repetitions; returns (metric values, cold reps, problems)."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    arena = workload == "arena_sweep"

    def more(done: int) -> bool:
        # Start another rep only if it should end within ``seconds``.
        if done < MIN_REPS:
            return True
        elapsed = time.monotonic() - start
        return (done < MAX_REPS and elapsed * (done + 1) / done
                <= min(seconds, MAX_WINDOW_S))

    if not trace:
        # One warm arena pass per rep keeps the cold/warm document check
        # in every run; it takes milliseconds and feeds no metric here.
        warm = 1 if arena else 0
        reps = []
        while more(len(reps)):
            reps.append(spawn(workload, seed, scale, "plain", warm,
                              deadline, cpu_for(len(reps))))
        return end_to_end(reps), reps, check_reps(reps)

    spans_out = os.path.join(ROOT, ".perfbench_out",
                             f"spans-{workload}-seed{seed}.json")
    plain, traced = [], []
    while more(len(traced)):
        # A plain rep and its traced twin share a CPU, so their ratio
        # compares like with like.
        cpu = cpu_for(len(traced))
        plain.append(spawn(workload, seed, scale, "plain",
                           ARENA_WARM_PASSES if arena else 1, deadline,
                           cpu))
        traced.append(spawn(workload, seed, scale, "traced",
                            1 if arena else 0, deadline, cpu,
                            spans_out if not traced else ""))
    recorded = spawn(workload, seed, scale, "recorder", 0, deadline,
                     cpu_for(0))
    problems = check_reps(plain, traced + [recorded])
    return per_layer(plain, traced, recorded, arena), plain, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    try:
        values, reps, problems = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         args.scale)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} "
                        "differ from BENCHMARK.json")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
