"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,serve,refresh} --seed N \
        --seconds S --trace {0,1} [--limit SECONDS]

Run from the repository root. Prints a few human-readable lines, then, as
the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced (same seed, same inputs) and reports the per-layer metrics, with
the tracing overhead as ``trace.overhead_pct``.

Each run happens in a fresh child process with a fresh Ray session. Before
it starts, every process left over from an earlier run in this checkout is
killed; after it ends, every process it started is killed and waited for.
A run that outlives ``--limit`` is stopped and its unfinished ops count as
failed. Exit code 0 means every op succeeded and every checked answer was
right.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")  # inputs, indexes, Ray session files
DEFAULT_LIMIT_S = 170.0
PR_SET_CHILD_SUBREAPER = 36

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import harness, spec  # noqa: E402


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=float, default=DEFAULT_LIMIT_S,
                    help="wall-clock limit of the whole command, in seconds")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------------ child


def child_main(a) -> None:
    """One workload run in this process; writes result.json to the run dir."""
    import ray

    from perfbench import kernels, report, trace
    from perfbench.inputs import make_inputs
    from perfbench.workloads import WORKLOADS, Run

    run_dir = os.path.join(WORK, "run")
    trace_dir = os.path.join(run_dir, "trace") if a.trace else None
    inputs = make_inputs(WORK, a.workload, a.seed)
    ledger = harness.Ledger(os.path.join(run_dir, "progress.json"))
    rec = None
    if trace_dir:
        os.makedirs(trace_dir)
        os.environ[trace.ENV_TRACE_DIR] = trace_dir
        rec = trace.install(trace_dir, flush_on_root=False)
    kern: dict = {}
    with harness.ProcSampler(interval_s=0.5) as sampler:
        run = Run(work=run_dir, inputs=inputs, ledger=ledger, sampler=sampler,
                  seconds=a.seconds, rec=rec)
        run.t_start = time.perf_counter()
        harness.start_ray(WORK, trace=bool(trace_dir))
        try:
            WORKLOADS[a.workload](run)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ledger.fail("workload raised outside an op")
        finally:
            ray.shutdown()
        if trace_dir and run.index_dir and os.path.exists(run.index_dir):
            with run.untraced():
                texts = inputs.queries["text"].to_pylist()
                kern.update(kernels.build_kernels(inputs.pages_dir, run.index_dir))
                kern["codecs.svb_decode_mb_per_s"] = kernels.decode_kernel(run.index_dir)
                cold, hot = kernels.scorer_kernel(run.index_dir, texts)
                kern["query_stage.scorer_cold_qps"] = cold
                kern["query_stage.scorer_hot_qps"] = hot
    attempted, failed = ledger.totals()
    error_rate = failed / attempted if attempted else 1.0
    out = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": report.end_to_end(run, sampler),
        "op_latency": report.op_latency(run),
        "samples": len(run.op_ms),
    }
    if rec is not None:
        rec.flush()
        out["per_layer"] = report.per_layer(run, trace.load_spans(trace_dir), sampler,
                                            kern, error_rate)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(out, f)


# ----------------------------------------------------------------- parent


def _run_child(a, trace: int, time_left: float) -> dict:
    """Run one child; returns its result dict (a failure record when it
    crashed or ran out of time)."""
    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    env[harness.ENV_TAG] = WORK
    env["PYTHONPATH"] = ROOT + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(trace)]
    # the child's stdout (Ray and engine chatter) goes to our stderr, so the
    # last line of our stdout is the result
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    timed_out = False
    try:
        child.wait(timeout=max(1.0, time_left))
    except subprocess.TimeoutExpired:
        timed_out = True
        print("run exceeded its limit; stopping it", file=sys.stderr)
    harness.kill_tagged(WORK)
    child.wait()
    result_path = os.path.join(run_dir, "result.json")
    if not timed_out and child.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as f:
            return json.load(f)
    progress = {"attempted": 0, "failed": 0, "planned": 0}
    try:
        with open(os.path.join(run_dir, "progress.json")) as f:
            progress = json.load(f)
    except (OSError, ValueError):
        pass
    unfinished = max(1, progress["planned"])
    return {"attempted": progress["attempted"] + unfinished,
            "failed": progress["failed"] + unfinished,
            "end_to_end": {name: 0.0 for name, _, _ in spec.END_TO_END},
            "op_latency": {"bench.op_p50_ms": 0.0, "bench.op_p90_ms": 0.0},
            "per_layer": {name: 0.0 for name, _, _ in spec.PER_LAYER},
            "samples": 0}


def main(argv=None) -> int:
    a = _args(argv)
    if a.child:
        child_main(a)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "aarhus_ray")):
        print(f"no aarhus_ray package under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    # orphaned Ray processes re-parent to us, so we can reap them
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    leftovers = harness.kill_tagged(WORK)
    if leftovers:
        print(f"killed {leftovers} processes left by an earlier run", file=sys.stderr)
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    def left() -> float:
        return a.limit - (time.monotonic() - t0)

    base = _run_child(a, 0, left())
    runs = [base]
    if a.trace:
        traced = _run_child(a, 1, left())
        runs.append(traced)
        metrics = dict(traced["per_layer"], **base["op_latency"])
        u = base["end_to_end"]["throughput_per_s"]
        t = traced["end_to_end"]["throughput_per_s"]
        metrics["trace.overhead_pct"] = (u - t) / u * 100.0 if u else 0.0
        units = spec.PER_LAYER_UNITS
    else:
        metrics = base["end_to_end"]
        units = spec.END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"perfbench workload={a.workload} seed={a.seed} seconds={a.seconds} "
          f"trace={a.trace} op latency samples={base['samples']} "
          f"error_rate={failed / max(1, attempted):.4f}")
    for name, value in {**base["end_to_end"], **base["op_latency"]}.items():
        unit = spec.END_TO_END_UNITS.get(name) or spec.PER_LAYER_UNITS[name]
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
