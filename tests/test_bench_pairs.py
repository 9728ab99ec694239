"""The verdict of ``bench_pairs.py`` on fixed pairs of runs."""

from bench_pairs import summary, verdict

PARENT = [2.70, 2.72, 2.74, 2.75, 2.76, 2.80, 2.78, 2.71, 2.79, 2.73]


def test_summary_reads_quartiles_wins_and_losses():
    change = [p - 0.2 for p in PARENT[:8]] + [2.80, 2.79]
    s = summary(PARENT, change, "lower")
    assert (s["wins"], s["losses"]) == (8, 2)
    assert s["parent_q1"] < s["parent_median"] < s["parent_q3"]
    assert abs(s["parent_median"] - 2.745) < 1e-12


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_quartiles():
    faster = [p - 0.2 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.25) == "gain"
    # eight wins of ten is not enough, however large the gap
    assert verdict(PARENT, faster[:8] + PARENT[8:], "lower", 0.25) == "unresolved"
    # ten wins whose median gap (0.01) is inside the parent's spread (0.0525)
    assert verdict(PARENT, [p - 0.01 for p in PARENT], "lower", 0.25) == "unresolved"
    # for a metric where higher is better, the same numbers mirror
    assert verdict(faster, PARENT, "higher", 0.25) == "gain"


def test_a_regression_is_worse_than_the_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25) == "regression"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == "unresolved"
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25) == "regression"
