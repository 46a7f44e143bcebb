"""Interleaved A/B pairs of the benchmark: parent checkout vs change checkout.

    python tools/ab_pairs.py <parent_checkout> <change_checkout> \
        --workload W --seed S --pairs N

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 10``
once in each checkout (its own directory, one after the other), the parent
first in even pairs and the change first in odd ones, and reads each run's
last stdout line as its JSON result. One line per run as it finishes, then
per end-to-end metric of the parent's ``BENCHMARK.json``: each side's
median and quartiles, the change's wins out of the pairs (ties count for
neither side), and whether the pair rule holds — the change wins at least
nine tenths of the pairs AND its median is better than the parent's by
more than the parent's quartile distance. Failed ops are printed per side.

A run that prints no result (a crash, a kill) does not end the set: its
exit code and the tail of its stderr are printed, it counts as a failed
run of its side, and its pair is left out of the rule; the summary says
how many pairs were left out.

Each run line also carries ``steal=…s``: the CPU time a hypervisor stole
from the (virtual) machine running the pairs during the run (the ``cpu``
line of ``/proc/stat``, 8th value, in ``SC_CLK_TCK`` ticks, read before
and after), and each side gets a total, so pairs that ran in stolen
minutes can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The pair rule on one metric: ``parent[i]`` and ``change[i]`` are
    the two runs of pair i, ``better`` is "higher" or "lower". Returns
    each side's quartiles, the change's wins, its median gain (positive =
    better), the parent's quartile distance and whether the rule holds."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq_, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq_[1])
    spread = pq_[2] - pq_[0]
    return {"parent": pq_, "change": cq, "wins": int(wins), "pairs": len(parent),
            "gain": gain, "parent_iqr": spread,
            "holds": wins >= 0.9 * len(parent) and gain > spread}


def steal_seconds(stat_text: str, ticks_per_s: int) -> float:
    """Host steal time in seconds from ``/proc/stat`` text: the 8th value
    of its aggregate ``cpu`` line over ``ticks_per_s`` (``SC_CLK_TCK``)."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) / ticks_per_s
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def _steal_now() -> float:
    with open("/proc/stat") as f:
        return steal_seconds(f.read(), os.sysconf("SC_CLK_TCK"))


def run_once(checkout: str, workload: str, seed: int) -> dict | None:
    """One benchmark run in ``checkout``: its parsed JSON result, or None
    (after printing its exit code and the tail of its stderr) when it
    printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        print(f"no JSON result from {checkout} (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", flush=True)
        return None
    return json.loads(lines[-1])


def complete_pairs(parent: list, change: list) -> tuple[list, list]:
    """The runs of the pairs in which both sides gave a result (a run
    without one is None), in pair order."""
    kept = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    return [p for p, _ in kept], [c for _, c in kept]


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    a = ap.parse_args(argv)
    with open(os.path.join(a.parent, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]
    sides = {"parent": a.parent, "change": a.change}
    runs: dict = {"parent": [], "change": []}
    steal = {"parent": 0.0, "change": 0.0}
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            before = _steal_now()
            res = run_once(sides[side], a.workload, a.seed)
            stolen = _steal_now() - before
            steal[side] += stolen
            runs[side].append(res)
            if res is None:
                print(f"pair {i} {side}: no result, steal={stolen:.2f}s", flush=True)
                continue
            vals = " ".join(f"{n}={res['metrics'][n]['value']:.4g}" for n, _ in metrics
                            if n in res["metrics"])
            print(f"pair {i} {side}: failed {res['failed']}/{res['attempted']} "
                  f"steal={stolen:.2f}s {vals}", flush=True)
    parent, change = complete_pairs(runs["parent"], runs["change"])
    print(f"\n{a.workload} seed {a.seed}, {len(parent)} pairs "
          f"({a.pairs - len(parent)} left out for a run with no result): median [q1, q3]")
    for name, better in metrics:
        if not parent or not all(name in r["metrics"] for r in parent + change):
            continue
        s = summarize([r["metrics"][name]["value"] for r in parent],
                      [r["metrics"][name]["value"] for r in change], better)
        print(f"{name} ({better} is better): parent {_fmt(s['parent'])}, "
              f"change {_fmt(s['change'])}, change wins {s['wins']}/{s['pairs']}, "
              f"median gain {s['gain']:.4g} vs parent quartile distance "
              f"{s['parent_iqr']:.4g}: pair rule {'holds' if s['holds'] else 'does not hold'}")
    for side, rs in runs.items():
        done = [r for r in rs if r is not None]
        print(f"failed ops {side}: {sum(r['failed'] for r in done)} / "
              f"{sum(r['attempted'] for r in done)}, failed runs {len(rs) - len(done)}, "
              f"steal {steal[side]:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
