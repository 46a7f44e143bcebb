"""Metric names, units and workload names: the benchmark's public surface.

BENCHMARK.json mirrors these lists; tests/test_perfbench.py pins both.
Every workload prints every end-to-end metric (untraced run) and every
per-layer metric (traced run); a per-layer metric whose layer a workload
does not exercise reads 0 there. Op latency percentiles are client-side
numbers, but they are not end-to-end metrics: on a shared host their
run-to-run spread is wider than any bound a gate could use (NOTES.md), so
they are reported, from the untraced run, as ``bench.op_p50_ms`` /
``bench.op_p90_ms``.
"""

WORKLOADS = ("build", "serve", "refresh")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("index_bytes_per_input_byte", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better); the layer is the aarhus_ray module the name starts
# with; "bench" and "trace" describe the benchmark itself
PER_LAYER = (
    ("build.docs_stage_busy_s", "s", "lower"),
    ("build.segment_stage_busy_s", "s", "lower"),
    ("build.stage_busy_frac", "ratio", "higher"),
    ("build.bytes_written_per_input_byte", "ratio", "lower"),
    ("build.kernel_share", "ratio", "higher"),
    ("build.errors", "count", "lower"),
    ("extract.docs_per_s", "docs/s", "higher"),
    ("textnorm.tokens_per_s", "tokens/s", "higher"),
    ("postings_stage.postings_per_s", "postings/s", "higher"),
    ("codecs.svb_decode_mb_per_s", "MB/s", "higher"),
    ("codecs.decode_postings_calls_per_req", "count", "lower"),
    ("codecs.decode_postings_ms_per_req", "ms", "lower"),
    ("codecs.errors", "count", "lower"),
    ("query_stage.scorer_ms_per_req", "ms", "lower"),
    ("query_stage.scorer_hot_qps", "queries/s", "higher"),
    ("query_stage.scorer_cold_qps", "queries/s", "higher"),
    ("query_stage.term_gathers_per_query", "count", "lower"),
    ("query_stage.errors", "count", "lower"),
    ("wand.block_max_topk_ms", "ms", "lower"),
    ("wand.block_max_topk_calls", "count", "lower"),
    ("wand.dense_accum_topk_ms", "ms", "lower"),
    ("wand.dense_accum_topk_calls", "count", "lower"),
    ("wand.dense_share", "ratio", "higher"),
    ("wand.errors", "count", "lower"),
    ("pipelines.query.dispatch_ms_per_req", "ms", "lower"),
    ("pipelines.query.pipeline_call_s", "s", "lower"),
    ("pipelines.query.call_overhead_s", "s", "lower"),
    ("pipelines.query.start_serving_s", "s", "lower"),
    ("pipelines.query.pool_rss_mb", "MB", "lower"),
    ("pipelines.query.errors", "count", "lower"),
    ("maintain.add_build_s", "s", "lower"),
    ("maintain.add_graft_s", "s", "lower"),
    ("maintain.delete_s", "s", "lower"),
    ("maintain.compact_s", "s", "lower"),
    ("maintain.fresh_query_s", "s", "lower"),
    ("maintain.shards_after_write", "count", "lower"),
    ("maintain.errors", "count", "lower"),
    ("manifest.read_manifest_ms_per_write", "ms", "lower"),
    ("manifest.errors", "count", "lower"),
    ("bench.op_p50_ms", "ms", "lower"),
    ("bench.op_p90_ms", "ms", "lower"),
    ("bench.error_rate", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
