"""Tests of the benchmark's own machinery; no server is started.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import Future

import numpy as np
import pytest

import compare
import drivers
import run as run_cli
import workloads
from oracle import Oracle, classify_swap, row_matches

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


class FakeClock:
    """A clock that only moves when told to (or when slept on)."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def resolved(value=None):
    fut = Future()
    fut.set_result(value)
    return fut


# ----------------------------------------------------------------------
class TestSchedules:
    def test_bursts_are_seeded_and_jittered_within_a_tenth(self):
        s = drivers.burst_schedule(40, 2.0, 10, seed=3)
        np.testing.assert_array_equal(s, drivers.burst_schedule(40, 2.0, 10, 3))
        starts, counts = np.unique(s, return_counts=True)
        assert list(counts) == [40] * 5
        offsets = starts - np.arange(0, 10, 2.0)
        assert np.all((offsets >= 0) & (offsets < 0.2))

    @pytest.mark.parametrize("name", ["overload", "hot_swap"])
    def test_seed_drives_inputs_only(self, name):
        w = workloads.WORKLOADS[name]
        a = workloads.Inputs(w, 5, 2.0)
        b = workloads.Inputs(w, 5, 2.0)
        c = workloads.Inputs(w, 6, 2.0)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.order, b.order)
        assert not np.array_equal(a.samples, c.samples)
        if w.open_loop:
            np.testing.assert_array_equal(a.schedule, b.schedule)
            assert not np.array_equal(a.schedule, c.schedule)
        # the served model's weights never depend on the run seed
        for key, value in a.states[0].items():
            np.testing.assert_array_equal(value, c.states[0][key])
        for sa, sb in zip(a.states, b.states):
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])


# ----------------------------------------------------------------------
class TestLagAccounting:
    def test_open_loop_charges_a_stall_to_later_requests(self):
        clock = FakeClock()
        pending = []

        def submit(i):
            if i == 1:
                clock.now += 0.003  # this submit stalls the generator
            pending.append(Future())
            return pending[-1]

        record = drivers.run_open_loop(submit, [0.0, 0.001, 0.002],
                                       clock=clock, sleep=clock.sleep)
        np.testing.assert_allclose(record.lag_ms(), [0.0, 0.0, 2.0],
                                   atol=1e-9)
        clock.now = 100.010
        for fut in pending:
            fut.set_result(None)
        # latency runs from the schedule, so the stall counts in full
        np.testing.assert_allclose(record.latency_ms(), [10.0, 9.0, 8.0],
                                   atol=1e-9)

    def test_closed_loop_keeps_outstanding_and_times_from_submit(self):
        clock = FakeClock()
        inflight, peak = [], [0]

        def submit(i):
            clock.now += 0.001
            inflight.append(Future())
            peak[0] = max(peak[0], len(inflight))
            fut = inflight[-1]
            if len(inflight) == 4:
                clock.now += 0.002
                inflight.pop(0).set_result(i)  # frees one slot
            return fut

        record = drivers.run_closed_loop(submit, 0.05, 4, clock=clock,
                                         wait_s=1.0)
        assert peak[0] == 4
        # the first four slots were free at t0 and filled 1 ms apart
        np.testing.assert_allclose(record.lag_ms()[:4], [0, 1, 2, 3],
                                   atol=1e-9)
        assert np.all(record.lag_ms()[4:] >= 0)
        # request 0 was sent at t0 and resolved inside submit(3)
        assert record.latency_ms()[0] == pytest.approx(6.0)

    @pytest.mark.parametrize("late_s, valid", [
        (lambda i: 0.030 if i % 20 == 0 else 0.0001, True),
        (lambda i: 0.001 * i, False),
    ], ids=["host-stalls", "growing-backlog"])
    def test_only_a_generator_that_falls_behind_is_invalid(self, late_s,
                                                             valid):
        record = drivers.LoadRecord(0.0, closed=False)
        for i in range(100):
            record._track(0.01 * i, 0.01 * i + late_s(i), Future(),
                          clock=lambda: 0.0)
        phase = type("Phase", (), {"attempted": 100, "record": record})
        assert workloads.lag_valid(workloads.WORKLOADS["overload"],
                                   phase) is valid

    def test_resolved_futures_are_released_and_hung_ones_counted(self):
        record = drivers.LoadRecord(0.0, closed=False)
        record._track(0.0, 0.0, resolved(np.ones(2)), clock=lambda: 0.5)
        record._track(0.0, 0.0, Future(), clock=lambda: 0.5)
        failed = Future()
        record._track(0.0, 0.0, failed, clock=lambda: 0.5)
        failed.set_exception(TimeoutError("late"))
        assert list(record.pending) == [1]
        assert drivers.wait_all(record, timeout_s=0.01) == 1
        np.testing.assert_array_equal(record.outcome[0], np.ones(2))
        assert record.outcome[1:] == [None, "TimeoutError"]
        assert record.done[0] == 0.5 and np.isnan(record.done[1])


# ----------------------------------------------------------------------
class _Inputs:
    def sample(self, i):
        return 0


def _record(rows, sent, done):
    record = drivers.LoadRecord(0.0, closed=False)
    for row, s, d in zip(rows, sent, done):
        fut = Future()
        record._track(s, s, fut, clock=lambda: d)
        if isinstance(row, Exception):
            fut.set_exception(row)
        elif row is not None:
            fut.set_result(row)
    return record


class TestOracle:
    def test_float_rows_match_within_relative_tolerance(self):
        expected = np.array([1.0, -2.0, 3.0])
        assert row_matches(expected * (1 + 5e-7), expected, exact=False)
        assert not row_matches(expected + 1e-5, expected, exact=False)
        assert not row_matches(expected[:2], expected, exact=False)

    def test_fixed_point_rows_must_be_bit_exact(self):
        expected = np.array([0.25, -0.5])
        assert row_matches(expected.copy(), expected, exact=True)
        assert not row_matches(expected * (1 + 1e-12), expected, exact=True)

    def test_each_answer_matches_exactly_one_tier(self):
        oracle = Oracle({"full": [[1.0, 2.0]], "reduced": [[1.1, 2.0]],
                         "int8": [[1.0, 2.5]]}, exact={"int8"})
        assert oracle.matching(0, np.array([1.0, 2.0 + 1e-7])) == ["full"]
        assert oracle.matching(0, np.array([1.0, 2.5])) == ["int8"]
        assert oracle.matching(0, np.array([1.0, 2.5 + 1e-9])) == []
        assert oracle.matching(0, np.array([9.0, 9.0])) == []

    @pytest.mark.parametrize("matching, lo, hi, overlapped, want", [
        ([3], 2, 4, False, "ok"),
        ([2, 3], 3, 3, False, "ok"),
        ([1], 2, 4, True, "stale"),
        ([], 2, 4, True, "torn"),
        ([], 2, 2, False, "wrong"),
        ([5], 2, 4, True, "wrong"),
    ])
    def test_swap_verdicts(self, matching, lo, hi, overlapped, want):
        assert classify_swap(matching, lo, hi, overlapped) == want

    def test_check_classifies_tiers_and_failures(self):
        from repro.serve import QueueFull

        oracle = Oracle({"full": [[1.0]], "int4": [[0.0]]}, exact={"int4"})
        record = _record(
            [np.array([1.0]), np.array([0.0]), np.array([0.5]),
             QueueFull("degrade", 40), None],
            sent=[0.0] * 5, done=[0.1] * 5)
        verdicts = workloads.check(record, _Inputs(), oracle)
        assert verdicts == ["full", "int4", "fail:wrong", "fail:QueueFull",
                            "fail:hung"]

    def test_check_judges_reads_against_publish_windows(self):
        oracle = Oracle({0: [[0.0]], 1: [[1.0]], 2: [[2.0]]})
        # publish 1 ran over [1.0, 1.1], publish 2 over [2.0, 2.1]
        swaps = [(1, 1.0, 1.1, 100.0), (2, 2.0, 2.1, 100.0)]
        record = _record(
            [np.array([1.0]),   # sent after publish 1: generation 1 is ok
             np.array([0.0]),   # sent after publish 1 returned: stale
             np.array([7.0]),   # overlaps publish 2 and matches nothing
             np.array([7.0]),   # matches nothing outside any publish
             np.array([1.0])],  # in flight across publish 2: 1 or 2 ok
            sent=[1.5, 1.5, 1.95, 1.5, 1.9], done=[1.6, 1.6, 2.05, 1.6, 2.2])
        verdicts = workloads.check(record, _Inputs(), oracle, swaps)
        assert verdicts == ["ok", "fail:stale", "torn", "fail:wrong", "ok"]

    @pytest.mark.parametrize("swaps", [
        [],                          # no publish at all
        [(1, 1.0, 1.5, 100.0)],      # returned exactly when it was sent
        [(1, 1.6, 1.7, 100.0)],      # started exactly when it arrived
        [(1, 2.0, 2.1, 100.0)],      # entirely after it
    ])
    def test_a_read_outside_every_publish_window_is_wrong(self, swaps):
        oracle = Oracle({0: [[0.0]], 1: [[1.0]]})
        record = _record([np.array([7.0])], sent=[1.5], done=[1.6])
        assert workloads.check(record, _Inputs(), oracle, swaps) == \
            ["fail:wrong"]

    def test_swap_metrics_split_the_tail_only_around_publishes(self):
        import layers

        sent = [0.0, 1.0, 2.0, 3.0]
        done = [0.1, 1.02, 2.3, 3.01]
        record = _record([np.array([0.0])] * 4, sent=sent, done=done)
        phase = type("Phase", (), {
            "record": record, "verdicts": ["ok"] * 4, "attempted": 4,
            "served": lambda self: np.ones(4, dtype=bool)})()
        phase.swaps = [(1, 2.0, 2.05, 1.0)]  # only request 2 overlaps
        out = layers.swap_metrics(phase)
        assert out["hot_swap.post_swap_p99_ms"][2] == 1
        assert out["hot_swap.post_swap_p99_ms"][0] == pytest.approx(300.0)
        assert out["hot_swap.quiet_p99_ms"][2] == 3
        phase.swaps = []  # no writer: both are the whole tail
        out = layers.swap_metrics(phase)
        assert out["hot_swap.post_swap_p99_ms"] == \
            out["hot_swap.quiet_p99_ms"]
        assert out["hot_swap.quiet_p99_ms"][2] == 4


# ----------------------------------------------------------------------
def _runs(values, workload="steady", metric="p50_ms"):
    return [{"workload": workload, "set": 0, "seed": i,
             "metrics": {metric: v}} for i, v in enumerate(values)]


class TestComparator:
    SPEC = {"p50_ms": {"name": "p50_ms", "better": "lower", "bound": 0.1}}

    def verdict(self, base, head):
        rows = compare.compare(_runs(base), _runs(head), self.SPEC)
        assert len(rows) == 1 and rows[0][2] == len(base)
        return rows[0][-1]

    def test_consistent_win_beyond_the_base_spread_is_improved(self):
        base = [100 + i % 3 for i in range(10)]
        assert self.verdict(base, [v * 0.8 for v in base]) == "improved"

    def test_fewer_than_ten_pairs_never_claims_a_gain(self):
        base = [100 + i % 3 for i in range(9)]
        assert self.verdict(base, [v * 0.8 for v in base]) == "unchanged"

    def test_median_worse_by_more_than_the_bound_is_regressed(self):
        base = [100 + i % 3 for i in range(10)]
        assert self.verdict(base, [v * 1.2 for v in base]) == "regressed"

    def test_noise_within_the_bound_is_unchanged(self):
        base = [100 + i % 3 for i in range(10)]
        head = [101 - i % 3 for i in range(10)]
        assert self.verdict(base, head) == "unchanged"

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [70, 130] * 5
        assert self.verdict(base, [v * 1.05 for v in base]) == "unresolved"

    def test_higher_is_better_flips_the_direction(self):
        spec = {"g": {"name": "g", "better": "higher", "bound": 0.1}}
        base = _runs([100.0 + i % 2 for i in range(10)], metric="g")
        head = _runs([130.0 + i % 2 for i in range(10)], metric="g")
        assert compare.compare(base, head, spec)[0][-1] == "improved"
        assert compare.compare(head, base, spec)[0][-1] == "regressed"


# ----------------------------------------------------------------------
class TestBenchmarkFile:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    @pytest.fixture(scope="class")
    def spec(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            return json.load(fh)

    def test_shape_names_and_bounds(self, spec):
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        metrics = [m["name"] for key in ("end_to_end", "per_layer")
                   for m in spec[key]]
        loads = [w["name"] for w in spec["workloads"]]
        assert all(self.NAME.match(n) for n in metrics + loads)
        assert len(set(metrics)) == len(metrics)
        assert len(set(loads)) == len(loads)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and \
            setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert len(spec["per_layer"]) <= 128

    def test_workloads_agree_everywhere(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        assert tuple(names) == run_cli.WORKLOAD_NAMES
        assert set(names) == set(workloads.WORKLOADS)

    def test_end_to_end_metrics_are_the_declared_ones(self, spec):
        class _Phase:
            cpu_s = 0.01

            def latencies_ms(self):
                return np.array([1.0, 2.0, 3.0])

        metrics = workloads.end_to_end(_Phase(), [0.1, 0.2, 0.3])
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert {k: v[1] for k, v in metrics.items()} == declared
