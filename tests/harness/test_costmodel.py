"""Tests for the per-event-class cost model (``repro bench`` gate)."""

import pytest

from repro.harness.costmodel import (_fit_structural, _timed_run,
                                     measure_mix, residual_table)


class TestFitStructural:
    def test_recovers_known_costs_from_two_anchors(self):
        batch_cost, time_cost = 50.0, 0.002
        anchors = [(2_000, 3_000_000), (40_000, 1_000_000)]
        gaps = [(batch_cost * b + time_cost * t, b, t) for b, t in anchors]
        assert _fit_structural(gaps) == (pytest.approx(batch_cost),
                                         pytest.approx(time_cost))

    def test_negative_solve_is_clamped(self):
        # The exact solve is (112.5, -12.5); a negative cost is noise,
        # so the better-fitting single term wins: 300 / 5 per batch.
        gaps = [(100.0, 1, 1), (100.0, 2, 10)]
        assert _fit_structural(gaps) == (pytest.approx(60.0), 0.0)


class TestResidualTable:
    def test_normalizes_by_median_and_flags_slower_class(self):
        baseline = {"costs_ns": {"A.a": 100.0, "B.b": 100.0,
                                 "C.c": 100.0, "D.d": 100.0}}
        # A machine 2x slower everywhere, and C.c 1.5x slower on top.
        current = {"costs_ns": {"A.a": 200.0, "B.b": 200.0,
                                "C.c": 300.0, "D.d": 200.0}}
        lines = residual_table(current, baseline)
        assert "machine factor 2.00x" in lines[0]
        rows = {line.split()[0]: line for line in lines[2:]}
        assert set(rows) == {"A.a", "B.b", "C.c", "D.d"}
        assert "1.50x" in rows["C.c"] and "<-- slower" in rows["C.c"]
        for name in ("A.a", "B.b", "D.d"):
            assert "1.00x" in rows[name] and "slower" not in rows[name]
        assert lines[2].split()[0] == "C.c"  # widest offender first


class TestTimedRun:
    def test_profiled_counts_match_counting_trace(self):
        acc, counts, wall = _timed_run("lossy", quick=True)
        mix, executed, _, _ = measure_mix("lossy", quick=True)
        assert counts == mix
        assert sum(counts.values()) == executed
        assert set(acc) == set(counts)
        assert 0 < sum(acc.values()) <= wall * 1.05
