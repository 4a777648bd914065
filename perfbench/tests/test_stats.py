import pytest

from perfbench import bench_stats
from perfbench.oracle import Tally


def test_tail_is_highest_step_with_ten_samples_beyond():
    assert bench_stats.tail_permille(20) == 500
    assert bench_stats.tail_permille(39) == 500
    assert bench_stats.tail_permille(40) == 750
    assert bench_stats.tail_permille(100) == 900
    assert bench_stats.tail_permille(199) == 900
    assert bench_stats.tail_permille(200) == 950
    assert bench_stats.tail_permille(1000) == 990
    assert bench_stats.tail_permille(10000) == 999


def test_tail_never_exceeds_the_cap():
    assert bench_stats.tail_permille(10000, cap=750) == 750
    assert bench_stats.tail_permille(30, cap=750) == 500


def test_min_samples_is_the_first_count_reaching_the_cap():
    for cap in bench_stats.LADDER[1:]:  # p50 is the floor at any count
        need = bench_stats.min_samples(cap)
        assert bench_stats.tail_permille(need, cap) == cap
        assert bench_stats.tail_permille(need - 1, cap) < cap


def test_tail_reports_label_value_and_count():
    samples = [float(value) for value in range(1, 101)]  # 1..100
    label, value, count = bench_stats.tail(samples)
    assert (label, count) == ("p90", 100)
    assert value == pytest.approx(90.1)
    assert bench_stats.tail(samples, cap=750)[0] == "p75"


def test_percentile_interpolates_linearly():
    assert bench_stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert bench_stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        bench_stats.percentile([], 0.5)


def test_typical_pass_sums_per_key_medians():
    passes = [
        {"a": 1.0, "b": 10.0},
        {"a": 9.0, "b": 11.0},  # a burst slows "a" on this pass only
        {"a": 2.0, "b": 12.0},
    ]
    assert bench_stats.typical_pass(passes) == pytest.approx(2.0 + 11.0)
    assert bench_stats.typical_pass(passes[:1]) == pytest.approx(11.0)
    with pytest.raises(ValueError):
        bench_stats.typical_pass([])
    with pytest.raises(ValueError):
        bench_stats.typical_pass([{"a": 1.0}, {"b": 1.0}])


def test_failed_ratio():
    assert bench_stats.failed_ratio(0, 40) == 0.0
    assert bench_stats.failed_ratio(1, 4) == 0.25
    assert bench_stats.failed_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        bench_stats.failed_ratio(5, 4)


def test_tally_counts_failures_and_merges():
    first, second = Tally(), Tally()
    first.record(True)
    first.record(False, "a")
    second.record(False, "b")
    first.merge(second)
    assert (first.attempted, first.failed, first.notes) == (3, 2, ["a", "b"])
    assert bench_stats.failed_ratio(first.failed, first.attempted) == (
        pytest.approx(2 / 3)
    )
