"""The pair rule of tools/ab_pairs.py on fixed numbers."""

from __future__ import annotations

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(os.path.dirname(__file__), "..", "tools", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_summarize_pair_rule():
    parent = [3422, 3881, 3941, 3979, 4036, 4073]
    change = [4268, 4482, 4604, 4872, 4899, 4969]
    s = ab_pairs.summarize(parent, change, "higher")
    assert s["parent"] == (3896.0, 3960.0, 4021.75)
    assert s["change"][1] == 4738.0
    assert (s["wins"], s["pairs"]) == (6, 6)
    assert s["gain"] == 778.0 and s["parent_iqr"] == 125.75
    assert s["holds"]
    # the same runs read as a lower-is-better metric: no wins, a loss
    s = ab_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 0 and s["gain"] == -778.0 and not s["holds"]


def test_summarize_needs_nine_tenths_wins_and_a_gain_past_the_spread():
    parent = [100.0] * 10
    # 8 wins, 1 tie (counts for neither), 1 loss: 8/10 < 9/10
    s = ab_pairs.summarize(parent, [90.0] * 8 + [100.0, 101.0], "lower")
    assert s["wins"] == 8 and not s["holds"]
    # 10/10 wins, but the median gain (1) is inside the parent's spread (10)
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    s = ab_pairs.summarize(parent, [p - 1 for p in parent], "lower")
    assert s["wins"] == 10 and s["gain"] == 1.0 and s["parent_iqr"] == 10.0
    assert not s["holds"]
    s = ab_pairs.summarize(parent, [p - 11 for p in parent], "lower")
    assert s["holds"]
    with pytest.raises(ValueError):
        ab_pairs.summarize(parent, parent[:3], "lower")


def test_steal_seconds_reads_the_aggregate_cpu_line():
    stat = ("cpu  2692580 2324556 560195 11719241 12378 0 191263 710438 0 0\n"
            "cpu0 673145 581139 140048 2929810 3094 0 47815 177609 0 0\n"
            "intr 123 0 0\n")
    assert ab_pairs.steal_seconds(stat, 100) == 7104.38
    assert ab_pairs.steal_seconds(stat, 250) == 710438 / 250
    with pytest.raises(ValueError):
        ab_pairs.steal_seconds("cpu0 1 2 3 4 5 6 7 8 9 10\n", 100)
