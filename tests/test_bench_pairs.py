"""The summary and claim rule of ``tools/bench_pairs.py`` on synthetic pairs.

No run is made: the script's ``summarise`` and ``claim_check`` are fed pairs
written here, so the rule every ``BENCH_*.json`` is judged by is pinned.
"""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SWEEP = {"name": "sweep_s", "better": "lower", "bound": 0.15}
OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.15}


def _pairs(metric, parent, change):
    return [{"parent": {metric["name"]: p}, "change": {metric["name"]: c}}
            for p, c in zip(parent, change)]


def _summary(metric, parent, change):
    return bench_pairs.summarise(_pairs(metric, parent, change), [metric])[metric["name"]]


def test_wins_follow_the_better_direction_and_ties_count_for_neither_side():
    # 7 pairs better for the change, 2 ties, 1 worse
    lower = [0.9] * 7 + [1.0] * 2 + [1.1]
    higher = [110] * 7 + [100] * 2 + [90]
    assert _summary(SWEEP, [1.0] * 10, lower)["change_wins"] == "7/10"
    assert _summary(OPS, [100] * 10, higher)["change_wins"] == "7/10"
    # read the other way round, the parent wins only the one worse pair
    assert _summary(SWEEP, lower, [1.0] * 10)["change_wins"] == "1/10"
    assert _summary(OPS, higher, [100] * 10)["change_wins"] == "1/10"


def test_summary_quartiles_median_change_and_bound():
    s = _summary(SWEEP, [1.0] * 10, [1.1] * 10)
    assert s["parent_q1_median_q3"] == [1.0, 1.0, 1.0]
    assert s["change_q1_median_q3"] == [1.1, 1.1, 1.1]
    assert s["median_change"] == 0.1
    assert s["within_bound"]
    # 20% slower breaks the 15% bound; 20% faster is no regression at all
    assert not _summary(SWEEP, [1.0] * 10, [1.2] * 10)["within_bound"]
    assert _summary(SWEEP, [1.0] * 10, [0.8] * 10)["within_bound"]
    # for a higher-is-better metric the sign turns round
    assert not _summary(OPS, [100] * 10, [80] * 10)["within_bound"]
    assert _summary(OPS, [100] * 10, [120] * 10)["within_bound"]


def _claim(metric, parent, change):
    summary = bench_pairs.summarise(_pairs(metric, parent, change), [metric])
    return bench_pairs.claim_check(summary, metric)


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread():
    # parent quartiles 1.0175, 1.045, 1.0725: an interquartile range of 5.26% of the median
    held = _claim(SWEEP, PARENT, [0.9] * 9 + [1.2])
    assert held == {"metric": "sweep_s", "wins": "9/10", "median_gap": 0.1388,
                    "parent_iqr_over_median": 0.0526, "holds": True}
    # eight wins are too few, however large the gap
    assert not _claim(SWEEP, PARENT, [0.9] * 8 + [1.2] * 2)["holds"]
    # ten wins by 0.001 each leave the median inside the parent's spread
    narrow = _claim(SWEEP, PARENT, [p - 0.001 for p in PARENT])
    assert narrow["wins"] == "10/10" and not narrow["holds"]
    # higher is better: the gap is the rise of the median
    rise = _claim(OPS, [100 * p for p in PARENT], [120] * 9 + [90])
    assert rise["wins"] == "9/10" and rise["median_gap"] > 0 and rise["holds"]
