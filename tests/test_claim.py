"""tools/claim.py: the paired statistics of a claim, on fixed numbers."""

import statistics

import pytest

import claim


def test_a_higher_is_better_metric_that_wins_every_pair_past_the_base_spread():
    s = claim.compare([10, 12, 11, 13, 9], [14, 15, 13, 16, 12], "higher")
    assert s["base"] == {"values": [10, 12, 11, 13, 9], "median": 11, "q1": 10, "q3": 12, "iqr": 2}
    assert (s["change"]["median"], s["change"]["q1"], s["change"]["q3"]) == (14, 13, 15)
    assert (s["wins"], s["pairs"], s["gap"], s["improved"], s["gap_exceeds_base_iqr"]) == (5, 5, 3, True, True)


def test_a_lower_is_better_metric_counts_ties_as_no_win_and_a_small_gap_as_within_the_spread():
    # quartiles interpolate between the sorted values: base 1, 2, 4, 8 -> q1 1.75, median 3, q3 5
    s = claim.compare([8, 1, 4, 2], [7, 1, 5, 1], "lower")
    assert (s["base"]["q1"], s["base"]["median"], s["base"]["q3"], s["base"]["iqr"]) == (1.75, 3, 5, 3.25)
    assert s["change"]["median"] == 3
    assert (s["wins"], s["gap"], s["improved"], s["gap_exceeds_base_iqr"]) == (2, 0, False, False)
    worse = claim.compare([8, 1, 4, 2], [12, 9, 10, 11], "lower")
    assert (worse["wins"], worse["gap"], worse["improved"], worse["gap_exceeds_base_iqr"]) == (0, 7.5, False, True)


def test_the_gap_is_held_against_the_base_spread_not_the_change_spread():
    # base 10, 10, 10, 11, 11 -> IQR 1; change 11, 12, 12, 20, 30 -> IQR 8; the gap of 2 lies between
    s = claim.compare([10, 10, 11, 11, 10], [12, 20, 11, 30, 12], "higher")
    assert (s["base"]["iqr"], s["change"]["iqr"], s["gap"]) == (1, 8, 2)
    assert (s["wins"], s["gap_exceeds_base_iqr"]) == (4, True)


def test_the_median_is_the_middle_quartile():
    values = [3.5, 1.25, 9.0, 4.0, 2.0, 7.75]
    s = claim.summary(values)
    assert s["median"] == statistics.median(values) == 3.75


def test_compare_refuses_unpaired_or_too_few_values():
    with pytest.raises(ValueError, match="equally long"):
        claim.compare([1, 2, 3], [1, 2], "higher")
    with pytest.raises(ValueError, match="at least two"):
        claim.compare([1], [2], "higher")


def test_seeds_are_read_off_the_label():
    assert claim.seed_base("in-place-insert") == claim.seed_base("in-place-insert")
    assert claim.seed_base("a") != claim.seed_base("b")
    assert all(10_000 <= claim.seed_base(label) < 100_000 for label in ("a", "b", "x" * 50))
