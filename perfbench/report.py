"""Turn one run's timings (and, traced, its spans) into named metrics."""

from __future__ import annotations

import math
import statistics

from . import spec
from .harness import NUM_CPUS
from .trace import within

# layers with an error counter: "<layer>.errors"
LAYERS = tuple(n[: -len(".errors")] for n, _, _ in spec.PER_LAYER if n.endswith(".errors"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(0, math.ceil(q * len(s)) - 1)])


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(run, sampler) -> dict:
    return {
        "setup_s": run.setup_s,
        "throughput_per_s": _div(run.work_done, run.work_wall_s),
        "index_bytes_per_input_byte": run.index_bytes_ratio,
        "peak_rss_mb": sampler.peak_kb / 1024.0,
    }


def op_latency(run) -> dict:
    """Client-side latency of the timed ops (see spec.py)."""
    return {"bench.op_p50_ms": percentile(run.op_ms, 0.50),
            "bench.op_p90_ms": percentile(run.op_ms, 0.90)}


def per_layer(run, spans, sampler, kern: dict, error_rate: float) -> dict:
    m = {name: 0.0 for name, _, _ in spec.PER_LAYER}

    # build: manifest stage rows + /proc write bytes of each build, kernels
    b = run.builds
    if b:
        wall = sum(x["wall_s"] for x in b)
        docs_busy = sum(x["docs_busy"] for x in b)
        seg_busy = sum(x["seg_busy"] for x in b)
        m["build.docs_stage_busy_s"] = docs_busy / len(b)
        m["build.segment_stage_busy_s"] = seg_busy / len(b)
        m["build.stage_busy_frac"] = _div(docs_busy + seg_busy, wall * NUM_CPUS)
        m["build.bytes_written_per_input_byte"] = _div(sum(x["bytes"] for x in b),
                                                      run.build_input_bytes)
        if kern:
            docs = sum(x["docs"] for x in b)
            m["build.kernel_share"] = _div(kern["kernel_s_per_doc"] * docs, wall)
    for key in ("extract.docs_per_s", "textnorm.tokens_per_s", "postings_stage.postings_per_s",
                "codecs.svb_decode_mb_per_s", "query_stage.scorer_hot_qps",
                "query_stage.scorer_cold_qps"):
        m[key] = kern.get(key, 0.0)

    # query path, over the steady request windows (serve loop, refresh bursts)
    req_w = run.windows.get("requests", [])
    n_q = run.queries_timed
    n_req = n_q / run.request_queries
    scorer = within(spans, "query_stage.QueryScorer.__call__", req_w)
    m["query_stage.scorer_ms_per_req"] = _div(sum(s.self_ns for s in scorer) / 1e6, n_req)
    m["query_stage.term_gathers_per_query"] = _div(
        len(within(spans, "query_stage.Segment.term_postings", req_w)), n_q)
    bmw = within(spans, "wand.block_max_topk", req_w)
    dense = within(spans, "wand.dense_accum_topk", req_w)
    m["wand.block_max_topk_ms"] = _mean([s.dur_ns / 1e6 for s in bmw])
    m["wand.block_max_topk_calls"] = _div(len(bmw), n_q)
    m["wand.dense_accum_topk_ms"] = _mean([s.dur_ns / 1e6 for s in dense])
    m["wand.dense_accum_topk_calls"] = _div(len(dense), n_q)
    m["wand.dense_share"] = _div(len(dense), len(dense) + len(bmw))
    dec = within(spans, "codecs.decode_postings", req_w)
    m["codecs.decode_postings_calls_per_req"] = _div(len(dec), n_req)
    m["codecs.decode_postings_ms_per_req"] = _div(sum(s.dur_ns for s in dec) / 1e6, n_req)

    scorer_by_req: dict[int, int] = {}
    for s in scorer:
        scorer_by_req[s.req] = scorer_by_req.get(s.req, 0) + s.dur_ns
    serve = within(spans, "pipelines.query.serve_queries", req_w)
    m["pipelines.query.dispatch_ms_per_req"] = _mean(
        [(s.dur_ns - scorer_by_req.get(s.req, 0)) / 1e6 for s in serve])
    if run.pipeline_s:
        m["pipelines.query.pipeline_call_s"] = statistics.median(run.pipeline_s)
    overheads = []
    for w in run.windows.get("pipeline", []):
        busy = sum(s.dur_ns for s in within(spans, "query_stage.QueryScorer.__call__", [w]))
        overheads.append((w[1] - w[0] - busy) / 1e9)
    m["pipelines.query.call_overhead_s"] = _mean(overheads)
    # a start_serving that finds its pool returns in microseconds; the
    # ones over 5 ms spun a pool up
    spins = [s.dur_ns / 1e9 for s in spans
             if s.name == "pipelines.query.start_serving" and s.dur_ns > 5_000_000]
    m["pipelines.query.start_serving_s"] = _mean(spins)
    m["pipelines.query.pool_rss_mb"] = sampler.pool_peak_kb / 1024.0

    # writes
    adds = [s for s in spans if s.name == "maintain.add_documents"]
    nested = {(s.pid, s.parent): s.dur_ns for s in spans if s.name == "build.build_index"}
    add_build = [nested.get((s.pid, s.sid), 0) / 1e9 for s in adds]
    m["maintain.add_build_s"] = _mean(add_build)
    m["maintain.add_graft_s"] = _mean([s.dur_ns / 1e9 - ab for s, ab in zip(adds, add_build)])
    m["maintain.delete_s"] = _mean([s.dur_ns / 1e9 for s in spans
                                    if s.name == "maintain.delete_documents"])
    m["maintain.compact_s"] = _mean([s.dur_ns / 1e9 for s in spans
                                     if s.name == "maintain.compact_index"])
    if run.fresh_s:
        m["maintain.fresh_query_s"] = statistics.median(run.fresh_s)
    m["maintain.shards_after_write"] = _mean(run.shards_after_write)
    write_w = run.windows.get("write", [])
    m["manifest.read_manifest_ms_per_write"] = _div(
        sum(s.self_ns for s in within(spans, "manifest.read_manifest", write_w)) / 1e6,
        len(write_w))

    for s in spans:
        if s.err:
            layer = next((lay for lay in LAYERS if s.name.startswith(lay + ".")), None)
            if layer is not None:
                m[f"{layer}.errors"] += 1
    m["bench.error_rate"] = error_rate
    m["trace.spans"] = float(len(spans))
    return m
