"""Where the time of one serving-pool request goes, in process.

    python tools/serve_probe.py <index> [--queries N]

Starts a local Ray session (2 CPUs, the benchmark's), a standing pool on
``<index>`` (``start_serving`` defaults: k=10, "wand", one actor per CPU)
and replays a fixed query log (``fixtures.gen_queries(2048, seed=1)``)
through it once to warm the actors' term caches. Then, over
``ROUNDS`` requests of N queries (default 64) cut from the log in turn,
it prints the median milliseconds of:

- ``request``: a whole ``serve_queries`` call;
- ``driver_pre``: the driver's side before the graph execution (read and
  check the table, find the pool, encode the request);
- ``execute``: the graph execution, every actor's output read
  (``_execute``);
- ``driver_post``: the frame built from the actors' columns;
- ``empty_round_trip``: one execution of a request of no queries (every
  actor returns at once), the transport floor;
- ``slice_in_process``: a warm 32-query slice (half a 64-query request
  on the 2-actor pool) scored by a ``QueryScorer`` in this process,
  ``score_columns`` alone.

``request`` minus ``slice_in_process`` is the framework tax of a request
on the pool. The last line is the same figures as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROUNDS = 200
LOG_QUERIES = 2048
SLICE_QUERIES = 32


def _median_ms(fn, rounds: int) -> float:
    times = []
    for i in range(rounds):
        t0 = time.perf_counter_ns()
        fn(i)
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times)) / 1e6


def probe(index: str, n_queries: int = 64, rounds: int = ROUNDS) -> dict:
    """The medians above, in ms, for requests of ``n_queries`` queries on
    a pool of ``index``, over ``rounds`` requests each. Needs a Ray
    session; ends every pool of ``index`` before it returns."""
    from aarhus_ray import fixtures
    from aarhus_ray.pipelines import query as q
    from aarhus_ray.stages.query_stage import QueryScorer

    log = fixtures.gen_queries(max(LOG_QUERIES, n_queries), seed=1)
    n_req = log.num_rows // n_queries

    def request(i):
        return log.slice((i % n_req) * n_queries, n_queries)

    try:
        for i in range(n_req):  # warm every actor's term cache
            q.serve_queries(index, request(i))
        out = {"request": _median_ms(lambda i: q.serve_queries(index, request(i)), rounds)}
        parts = {"driver_pre": [], "execute": [], "driver_post": []}
        for i in range(rounds):
            t0 = time.perf_counter_ns()
            pool, qids, req = q._serve_request(index, request(i), 10, "wand", None, None, "or")
            t1 = time.perf_counter_ns()
            outs = q._execute(pool, req)
            t2 = time.perf_counter_ns()
            q._serve_frame(pool, outs, qids, 10)
            t3 = time.perf_counter_ns()
            for name, dt in zip(parts, (t1 - t0, t2 - t1, t3 - t2)):
                parts[name].append(dt)
        out.update({name: float(np.median(v)) / 1e6 for name, v in parts.items()})
        empty = q._encode_request(np.empty(0, np.int64), [])
        out["empty_round_trip"] = _median_ms(lambda i: q._execute(pool, empty), rounds)
    finally:
        q.stop_serving(index)
    scorer = QueryScorer(index, k=10, method="wand")
    texts, qids = log["text"].to_pylist(), log["query_id"].to_numpy()
    scorer.score_columns(qids, texts)  # warm its term cache on the whole log
    n_sl = len(texts) // SLICE_QUERIES

    def one_slice(i):
        lo = (i % n_sl) * SLICE_QUERIES
        scorer.score_columns(qids[lo:lo + SLICE_QUERIES], texts[lo:lo + SLICE_QUERIES])

    out["slice_in_process"] = _median_ms(one_slice, rounds)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("index")
    ap.add_argument("--queries", type=int, default=64, help="queries per request")
    a = ap.parse_args(argv)
    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        out = probe(a.index, a.queries)
    finally:
        ray.shutdown()
    for name, ms in out.items():
        print(f"{name:18s} {ms:8.3f} ms")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
