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


def test_run_once_without_a_result_prints_its_exit_and_stderr(tmp_path, capsys):
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('no json here')\nsys.stderr.write('worker died: boom\\n')\n"
        "sys.exit(3)\n")
    assert ab_pairs.run_once(str(tmp_path), "serve", 1) is None
    out = capsys.readouterr().out
    assert "exit 3" in out and "worker died: boom" in out


def test_a_run_without_a_result_leaves_its_pair_out(tmp_path, monkeypatch, capsys):
    """A run that gives no result counts as a failed run of its side and
    its pair is left out of the rule; the other pairs still decide it."""
    import json

    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    os.makedirs(parent)
    os.makedirs(change)
    with open(os.path.join(parent, "BENCHMARK.json"), "w") as f:
        json.dump({"end_to_end": [{"name": "throughput_per_s", "better": "higher"}]}, f)
    values = {parent: [100.0, 101.0, 102.0], change: [110.0, None, 112.0]}

    def fake_run(checkout, workload, seed):
        v = values[checkout].pop(0)
        if v is None:
            return None
        return {"failed": 0, "attempted": 5, "metrics": {"throughput_per_s": {"value": v}}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "_steal_now", lambda: 0.0)
    assert ab_pairs.main([parent, change, "--workload", "serve", "--seed", "1",
                          "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    assert "pair 1 change: no result" in out
    assert "2 pairs (1 left out for a run with no result)" in out
    assert "change wins 2/2" in out and "pair rule holds" in out
    assert "failed ops parent: 0 / 15, failed runs 0" in out
    assert "failed ops change: 0 / 10, failed runs 1" in out
    assert ab_pairs.complete_pairs([1, None, 3], [4, 5, None]) == ([1], [4])


def test_median_change_in_percent_and_the_bound_flag(tmp_path, monkeypatch, capsys):
    """Each metric's median change prints as a percentage of the parent's
    median, flagged when it is worse than the metric's bound; a change
    in the better direction or inside the bound is not flagged."""
    import json

    s = ab_pairs.summarize([100.0, 100.0, 100.0], [70.0, 70.0, 70.0], "higher", 0.25)
    assert s["change_pct"] == -30.0 and s["beyond_bound"]
    s = ab_pairs.summarize([100.0] * 3, [80.0] * 3, "higher", 0.25)
    assert s["change_pct"] == -20.0 and not s["beyond_bound"]
    s = ab_pairs.summarize([100.0] * 3, [70.0] * 3, "lower", 0.25)  # 30% better
    assert s["change_pct"] == -30.0 and not s["beyond_bound"]
    s = ab_pairs.summarize([100.0] * 3, [112.0] * 3, "lower", 0.1)
    assert s["change_pct"] == 12.0 and s["beyond_bound"]
    assert not ab_pairs.summarize([100.0] * 3, [1.0] * 3, "higher")["beyond_bound"]

    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    os.makedirs(parent)
    os.makedirs(change)
    with open(os.path.join(parent, "BENCHMARK.json"), "w") as f:
        json.dump({"end_to_end": [
            {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}, f)
    values = {parent: [(100.0, 1000.0), (104.0, 1000.0)],
              change: [(150.0, 1150.0), (160.0, 1150.0)]}

    def fake_run(checkout, workload, seed):
        qps, rss = values[checkout].pop(0)
        return {"failed": 0, "attempted": 5,
                "metrics": {"throughput_per_s": {"value": qps}, "peak_rss_mb": {"value": rss}}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "_steal_now", lambda: 0.0)
    assert ab_pairs.main([parent, change, "--workload", "serve", "--seed", "1",
                          "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    qps = next(ln for ln in lines if ln.startswith("throughput_per_s ("))
    rss = next(ln for ln in lines if ln.startswith("peak_rss_mb ("))
    assert "median change +52.0% of the parent's" in qps and "WORSE" not in qps
    assert "median change +15.0% of the parent's, WORSE THAN BOUND (10%)" in rss
