"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench -q

Every workload runs at a reduced size (``--scale``), must print exactly
the metrics ``BENCHMARK.json`` declares, and its correctness checks must
trip on a corrupted digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_metrics_match_spec(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["ecmp_incast", "themis_lossy",
                                      "arena_sweep"])
def test_traced_metrics_match_spec(workload):
    result = result_of(bench(workload, 1))
    assert result["correct"] is True
    units = declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Layer self times plus the engine's and the unattributed remainder
    # add up to the traced timed region.
    selfs = sum(v for k, v in values.items()
                if k.endswith(".self_s"))
    assert selfs + values["trace.unattributed_s"] == pytest.approx(
        values["trace.run_s"], rel=0.05)
    themis = {k: v for k, v in values.items() if k.startswith("themis.")}
    if workload == "ecmp_incast":
        assert all(v == 0 for v in themis.values()), themis
    if workload == "themis_lossy":
        assert values["themis.src.calls"] > 0
        assert values["themis.dst.nacks_inspected"] > 0
        assert values["faults.applied"] == 2
    if workload == "arena_sweep":
        assert values["harness.jobs.cache_hits"] > 0
        assert values["results.store.put_calls"] > 0
    assert values["trace.unwrapped_events"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_checks_trip_on_corrupted_digest(workload):
    deadline = run.time.monotonic() + 120
    warm = 2 if workload == "arena_sweep" else 1
    reps = [run.spawn(workload, 3, SCALE, "plain", warm, deadline,
                      run.cpu_for(i))
            for i in range(2)]
    assert run.check_reps(reps) == []

    bad = [dict(rep) for rep in reps]
    bad[1]["digest"] = "0" * 64
    assert run.check_reps(bad)

    bad = [dict(rep) for rep in reps]
    bad[0]["warm_digests"] = ["f" * 64]
    assert run.check_reps(bad)

    bad = [dict(rep) for rep in reps]
    bad[1]["problems"] = ["posted 10 B, delivered 9 B"]
    assert run.check_reps(bad)

    bad = [dict(rep) for rep in reps]
    bad[1]["laps_s"] = bad[1]["laps_s"][:-1]
    assert run.check_reps(bad)


def test_scaled_run_cancels_host_speed():
    # Three reps of the same two laps; the second ran on a host twice
    # as slow (laps and calibrations alike), the third had one lap hit
    # by a preemption its calibrations did not see.
    cal = run.CAL_REF_S
    reps = [{"laps_s": [0.03, 0.05], "lap_cal_s": [cal, cal]},
            {"laps_s": [0.06, 0.10], "lap_cal_s": [2 * cal, 2 * cal]},
            {"laps_s": [0.09, 0.05], "lap_cal_s": [cal, cal]}]
    assert run.scaled_run_s(reps) == pytest.approx(0.08)


def test_arena_warm_pass_mismatch_is_caught():
    from workloads import ArenaSweep

    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    arena = ArenaSweep(3, SCALE, work_dir=work)
    try:
        arena.setup()
        arena.run()
        arena.warm()
        result = arena.result()
        assert result["problems"] == []
        assert result["jobs"]["cache_hits"] == len(arena.specs)
        # A cold document that no longer matches what the warm pass
        # read back from the store.
        arena.cold_doc["cells"][0]["tail_ns"] += 1
        arena.warm()
        result = arena.result()
        assert result["problems"]
        assert result["warm_digests"][0] != result["digest"]
    finally:
        arena.close()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("ecmp_incast", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
