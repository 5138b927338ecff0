"""Unit tests of the benchmark's own arithmetic and its contract file.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import time

import pytest

from harness import ROOT, LoopResult, Outcome, closed_loop
from stats import quartile_spread, tail_percentile
from tracing import Recorder, Span, covered, self_times


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [(11, 9.0), (20, 50.0), (100, 90.0), (1000, 99.0), (1005, 99.0), (5000, 99.8)])
    def test_leaves_at_least_ten_samples_beyond(self, n, pct):
        samples = list(range(n, 0, -1))
        got_pct, value = tail_percentile(samples)
        assert got_pct == pct
        assert sum(1 for s in samples if s > value) >= 10

    def test_is_the_highest_such_tenth_of_a_percent(self):
        samples = [float(i) for i in range(1, 1001)]
        pct, value = tail_percentile(samples)
        assert (pct, value) == (99.0, 990.0)
        # one tenth of a percent higher would leave only nine samples beyond
        assert sum(1 for s in samples if s > 991.0) == 9

    def test_needs_more_than_ten_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([1.0] * 10)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 9.9, 11.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
        assert covered((0, 10), [(-2, 1), (9, 12)]) == 2
        assert covered((0, 10), [(2, 8), (3, 4)]) == 6
        assert covered((0, 10), []) == 0

    def test_self_time_subtracts_children_only(self):
        spans = [
            Span("op", "0", None, 0.0, 10.0),
            Span("a", "0", 0, 1.0, 4.0),
            Span("a.inner", "0", 1, 2.0, 3.0),
            Span("b", "0", 0, 6.0, 7.5),
        ]
        assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]

    def test_recorder_nests_spans_and_tags_the_op(self):
        rec = Recorder()
        with rec.op("w:0"):
            with rec.span("outer") as outer:
                with rec.span("inner") as inner:
                    inner.counters["n"] = 3
        with rec.span("after"):
            pass
        assert [(s.name, s.op, s.parent) for s in rec.spans] == [
            ("outer", "w:0", None),
            ("inner", "w:0", 0),
            ("after", None, None),
        ]
        busy = rec.busy_s()
        assert busy["outer"] == pytest.approx(outer.duration - inner.duration)
        assert rec.named("inner")[0].counters == {"n": 3}


def test_closed_loop_counts_a_raising_step_as_failed():
    def step(i):
        if i == 1:
            raise RuntimeError("boom")
        return Outcome(count=2, failed=0, decided=2)

    result = closed_loop(step, 0, min_steps=3, max_steps=3)
    assert (result.attempted, result.failed, result.decided) == (5, 1, 4)


def test_op_ms_averages_within_each_step():
    result = LoopResult([Outcome(4, 0, 4), Outcome(1, 0, 1)], cpu_s=[0.002, 0.003])
    assert result.op_ms() == pytest.approx([0.5, 3.0])


def test_ops_per_s_is_the_median_over_complete_cycles():
    outcomes = [Outcome(2, 0, 2), Outcome(1, 0, 1)] * 3 + [Outcome(2, 0, 2)]
    # cycles of 3 ops take 1 s, 3 s (a burst) and 1.5 s; the trailing step is not a whole cycle
    result = LoopResult(outcomes, cpu_s=[0.5, 0.5, 2.0, 1.0, 1.0, 0.5, 0.1])
    assert result.cycle_rates(2) == pytest.approx([3.0, 1.0, 2.0])
    assert result.ops_per_s(2) == pytest.approx(2.0)


def test_closed_loop_times_steps_in_cpu_time():
    def step(i):
        time.sleep(0.02)  # wall time only
        sum(range(20000 * (i + 1)))
        return Outcome(count=1, failed=0, decided=1)

    result = closed_loop(step, 0, min_steps=2, max_steps=2)
    assert all(w >= 0.02 for w in result.wall_s)
    assert all(c < 0.02 for c in result.cpu_s)
    assert result.cpu_s[1] > 0


def test_setup_time_has_the_largest_bound():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
