"""query_index — top-k BM25 over a built index (SURVEY.md §3.2).

    queries → map_batches(CachedOp(QueryScorer))  # replicas; each query
                                                  # scored once, completely;
                                                  # scorer cached per worker
            → map_batches(CachedOp(UrlResolver))  # attach_urls: partition-
                                                  # pruned lookup, a task too

The index is TERM-sharded (segments = disjoint term ranges), so each scorer
replica maps ALL segments (mmap — replicas on a node share page cache) and
gathers a query's term cursors from their owning segments before running a
single Block-Max WAND. Per-segment top-k + merge would be WRONG here: it
splits a document's score across segments whenever a query's terms straddle
a term-range boundary (caught by the DuckDB oracle; see QueryScorer
docstring). Results carry the frozen order (score DESC, doc_id ASC) with
1-based ranks.

Every per-call index op (query_index and the 44 retrieval/aggregation ops
below) is one op class in stages.query_stage plus one ``run_index_op``
call: scorers ride Ray's long-lived default workers via ``CachedOp``
(state cached per process and index version — the amortization of an
actor pool without per-run actor spawn). Each scorer loads its own
doclens and fills its own term-impact cache on first use of a term.
"""

from __future__ import annotations

import glob
import os
import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.exceptions import RayTaskError

from ..stages import query_stage as qs
from ..state import manifest as mf
from .build import _cpus

# rows per map_batches call of a per-call index op (an op class may set
# its own ``batch_rows``); the query table is cut into up to _cpus()*4
# blocks of about this size
_BATCH_ROWS = 64


def list_segments(out_dir: str) -> list[int]:
    segs = []
    for p in sorted(glob.glob(os.path.join(out_dir, "segments", "seg=*"))):
        m = re.match(r"seg=(\d+)$", os.path.basename(p))
        if m and os.path.isdir(p):
            segs.append(int(m.group(1)))
    return segs


def index_version(out_dir: str) -> int:
    """Cache-invalidation token: stats.json mtime (rewritten on rebuild)."""
    try:
        return os.stat(os.path.join(out_dir, "stats.json")).st_mtime_ns
    except OSError:
        return 0


def _require_segments(out_dir: str) -> list[int]:
    segs = list_segments(out_dir)
    if not segs:
        raise ValueError(f"no segments under {out_dir}")
    return segs


def _query_blocks(queries, batch_rows: int = _BATCH_ROWS) -> ray.data.Dataset:
    """parquet path | pyarrow Table | Dataset → Dataset of query blocks.
    A table is sliced up-front into one block per batch (at most
    _cpus()*4, one map task each): a single-block table would feed the
    whole map stage exactly ONE task, and repartition() output can get
    re-coalesced by size before the map operator. Query sets are small, so
    a path is read in this process and takes the table branch; a caller-built
    Dataset keeps its block layout (a count() here would execute the
    upstream pipeline twice)."""
    if isinstance(queries, str):
        queries = pq.read_table(queries)
    if not isinstance(queries, pa.Table):
        return queries
    n_blocks = max(1, min(_cpus() * 4, queries.num_rows // batch_rows + 1))
    per = (queries.num_rows + n_blocks - 1) // n_blocks
    return ray.data.from_arrow(
        [queries.slice(i * per, per) for i in range(n_blocks) if i * per < queries.num_rows]
    )


def run_index_op(out_dir: str, queries, OpCls, *args,
                 version: int | None = None) -> ray.data.Dataset:
    """The one dispatch path of every per-call index op: each batch of
    ``queries`` (parquet path | pyarrow Table | Dataset) runs through
    ``OpCls(out_dir, seg_ids, *args)`` in stateless map_batches tasks, the
    op built once per worker process and index version (CachedOp) — Ray's
    default workers are long-lived, so repeated calls reuse warm state
    instead of paying an actor-pool spawn (~2s/actor) per call.
    ``version`` overrides the cache token (stats.json mtime of
    ``out_dir``) for an op that reads more than one index."""
    segs = _require_segments(out_dir)
    if version is None:
        version = index_version(out_dir)
    batch_rows = getattr(OpCls, "batch_rows", _BATCH_ROWS)
    return _query_blocks(queries, batch_rows).map_batches(
        qs.CachedOp(out_dir, version, OpCls, (out_dir, tuple(segs), *args)),
        batch_format="pyarrow",
        batch_size=batch_rows,
    )


@ray.remote
def _facet_ids_of(path: str, column: str, values: tuple) -> np.ndarray:
    """One docs/pid file's doc_ids matching the facet predicate — pruned
    read (doc_id + the facet column only; text never leaves storage)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    t = _pq.read_table(path, columns=["doc_id", column])
    m = pc.is_in(t[column], value_set=pa.array(list(values), t.schema.field(column).type))
    return t.filter(m)["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)


def facet_doc_ids(out_dir: str, column: str, values) -> np.ndarray:
    """Sorted doc_id array for a metadata facet predicate (column IN
    values) over the docs/ sidecar — the query-time filter input for
    ``query_index(filter_ids=...)``. One pruned Ray task per pid file;
    per-pid arrays are already ascending (doc_id = (pid<<40)|row) and pids
    are visited in order, so the concat is sorted without a sort.

    Cluster posture: the result is broadcast via one ``ray.put`` exactly
    like the doclen table (8 bytes/matching doc, replicated per node, not
    per worker). At 10^12 docs prefer ``query_index_doc_sharded`` where
    each range scorer would load only ITS pids' facet rows."""
    paths = [
        os.path.join(out_dir, "docs", f"pid={p:04d}.parquet") for p in doc_pids(out_dir)
    ]
    parts = ray.get([_facet_ids_of.remote(p, column, tuple(values)) for p in paths])
    if not parts:
        return np.empty(0, np.uint64)
    return np.concatenate(parts)


@ray.remote
def _range_ids_of(path: str, column: str, lo: int, hi: int) -> np.ndarray:
    """One docs/pid file's doc_ids with docvalue in [lo, hi) — pruned read
    (doc_id + the int64 docvalue column only)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    t = _pq.read_table(path, columns=["doc_id", column])
    v = t[column].cast(pa.int64())
    m = pc.and_(pc.greater_equal(v, lo), pc.less(v, hi))
    return t.filter(m)["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)


def docvalue_range_ids(out_dir: str, column: str, lo: int, hi: int) -> np.ndarray:
    """Sorted doc_id array for a NUMERIC RANGE predicate (lo <= column <
    hi) over the docs/ sidecar — the range-filter input for
    ``query_index(filter_ids=...)`` (e.g. "only pages crawled this week").
    Same shape and cluster posture as ``facet_doc_ids``: one pruned Ray
    task per pid file, per-pid arrays already ascending, concat in pid
    order is globally sorted."""
    paths = [
        os.path.join(out_dir, "docs", f"pid={p:04d}.parquet") for p in doc_pids(out_dir)
    ]
    parts = ray.get([_range_ids_of.remote(p, column, int(lo), int(hi)) for p in paths])
    if not parts:
        return np.empty(0, np.uint64)
    return np.concatenate(parts)


def sort_topk(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    k: int = 10,
) -> ray.data.Dataset:
    """Sort-by-field retrieval: per query, the top-k MATCHING docs ordered
    by a numeric docvalue (field DESC, doc_id ASC) instead of by score —
    "newest matches first". Returns (query_id, rank, doc_id, <field>).
    Execution shape identical to query_index (stateless tasks,
    worker-cached DocvalueTopK state)."""
    return run_index_op(out_dir, queries, qs.DocvalueTopK, field, k)


def rescore_topk(
    out_dir: str,
    queries,
    window: int = 30,
    weight: float = 2.0,
    k: int = 10,
) -> ray.data.Dataset:
    """RESCORE retrieval (ES rescore API): primary BM25 fills a top-
    ``window`` candidate set per query; inside the window each doc gains
    ``weight`` × its phrase score (0 unless the query occurs as a
    consecutive phrase); the page is the rescored window's top-k.
    Returns (query_id, rank, doc_id, score)."""
    return run_index_op(out_dir, queries, qs.RescoreTopK, window, weight, k)


def search_after_topk(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    k: int = 10,
) -> ray.data.Dataset:
    """SEARCH_AFTER cursor pagination on the docvalue sort (ES
    search_after): ``queries`` rows carry (query_id, text, after_val,
    after_doc) — the sort key of the last delivered hit — and the result
    is the next k matches strictly after that cursor in (field DESC,
    doc_id ASC) order. Returns (query_id, rank, doc_id, <field>) with
    rank 1..k within the page."""
    return run_index_op(out_dir, queries, qs.DocvalueSearchAfter, field, k)


def query_index(
    out_dir: str,
    queries,
    k: int = 10,
    method: str = "wand",
    resolve_urls: bool = True,
    mode: str = "or",
    filter_ids: np.ndarray | None = None,
    near_window: int = 8,
    min_should_match: int = 1,
    span_slop: int = 2,
    terms_set_mod: int = 3,
    max_gaps: int = 2,
) -> ray.data.Dataset:
    """queries: parquet path | ray Dataset | pyarrow Table with
    (query_id:int64, text:string). Returns a Dataset
    (query_id, rank, doc_id[, url], score).

    ``method="wand"`` serves; ``method="brute"`` is its bit-identical
    exhaustive oracle. Any other value, an unknown ``mode``, or a
    positional mode with ``method="brute"`` raises ``ValueError`` at this
    call, before any Ray work.

    ``mode="and"`` switches to conjunctive retrieval: only documents
    containing EVERY query term are eligible (an out-of-vocabulary term
    empties that query's result); scores are unchanged BM25 sums.
    ``mode="phrase"`` requires the terms as consecutive tokens;
    ``mode="near"`` requires all distinct terms within ``near_window``
    consecutive tokens (unordered) — both verify from the positional
    sidecar when the index carries one, else from checkpoint text.
    ``mode="prefix"`` expands trailing-``*`` terms against the term
    dictionary (sorted-dict range scan per segment) and scores the
    union disjunctively; ``mode="wildcard"`` generalizes to ``*``
    anywhere; ``mode="regexp"`` expands full-match regexes (Lucene
    RegexpQuery) the same way.
    ``mode="msm"`` requires at least ``min_should_match`` distinct
    in-vocabulary terms per doc (m=1 ≡ "or", m=n_terms ≡ "and");
    scores stay the disjunctive BM25 sums of the matched terms.
    ``mode="terms_set"`` is msm with a PER-DOC required count read from
    a docvalue (ES terms_set / minimum_should_match_field): required =
    1 + doclen % ``terms_set_mod``.
    ``mode="span_near"`` requires the query's tokens IN ORDER within
    ``len(seq)−1+span_slop`` consecutive tokens (Lucene span_near
    in_order=true; slop=0 ≡ phrase) — verified from the positional
    sidecar when present, else from checkpoint text.
    ``mode="intervals"`` is the ES intervals query: whitespace-separated
    slots of ``|``-separated alternatives, matched as an ordered
    sequence (one occurrence from any alternative per slot) within
    ``n_slots−1+max_gaps`` consecutive tokens.

    ``filter_ids`` (sorted uint64 doc_ids, e.g. from ``facet_doc_ids``)
    restricts results to that doc set; BM25 statistics stay global (see
    QueryScorer). Composes with every mode."""
    qs.check_scorer_args(method, mode)  # in this process, not wrapped by a Ray worker
    _require_segments(out_dir)
    filter_ref = ray.put(np.ascontiguousarray(filter_ids, dtype=np.uint64)) if filter_ids is not None else None
    merged = run_index_op(
        out_dir, queries, qs.QueryScorer, k, method, None, mode, filter_ref,
        near_window, min_should_match, span_slop, terms_set_mod, max_gaps,
    )
    return attach_urls(merged, out_dir) if resolve_urls else merged


def attach_urls(ds: ray.data.Dataset, out_dir: str) -> ray.data.Dataset:
    """Append a ``url`` column to a Dataset of rows carrying the
    ``doc_id`` of an index (``out_dir``): ``UrlResolver`` run as a
    stateless ``CachedOp`` task, so its per-pid url cache is kept per
    worker process and index version, and no actor pool is spawned or
    outlives the call. A doc_id the index does not hold raises
    ``ValueError``."""
    return ds.map_batches(
        qs.CachedOp(out_dir, index_version(out_dir), qs.UrlResolver, (out_dir,)),
        batch_format="pyarrow",
    )


def facet_counts(
    out_dir: str,
    queries,
    facet: str = "lang",
) -> ray.data.Dataset:
    """Per-query FACET COUNTS over the full match set: for each query, the
    number of DISTINCT documents containing ≥1 query term, grouped by a
    docs/-sidecar facet column — the aggregation a search engine renders
    as the facet panel next to top-k results. Returns a Dataset
    (query_id, <facet>, n_docs), facet values ascending within a query.
    Tombstoned docs are excluded (same visibility as query_index).

    Same execution shape as query_index: queries stream through stateless
    map_batches tasks; each worker holds the mmap'd segments plus ONE
    dictionary-encoded facet array (code bytes per doc), cached per
    worker process."""
    return run_index_op(out_dir, queries, qs.FacetCounter, facet)


def match_counts(
    out_dir: str,
    queries,
) -> ray.data.Dataset:
    """TOTAL HITS per query: the distinct visible docs containing ≥1 query
    term (Lucene totalHits — the count a result page shows next to top-k).
    Returns (query_id, n_hits); empty-match queries emit no row. Same
    stateless-task execution shape as query_index."""
    return run_index_op(out_dir, queries, qs.MatchCounter)


def rare_terms(
    out_dir: str,
    queries,
    max_doc_count: int = 100,
) -> ray.data.Dataset:
    """RARE-TERMS aggregation per query (ES `rare_terms`, the exact
    dictionary-driven variant — see stages.query_stage.RareTerms): the
    vocabulary terms with global df ≤ max_doc_count present in ≥1 matching
    doc, with their matching-doc counts. Returns (query_id, term, n_docs).
    Same stateless-task shape as match_counts."""
    return run_index_op(out_dir, queries, qs.RareTerms, max_doc_count)


def function_score_topk(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    origin_us: int = 0,
    scale_us: int = 1,
    k: int = 10,
) -> ray.data.Dataset:
    """FUNCTION-SCORE retrieval (ES function_score, linear time decay):
    top-k by bm25 × max(0, 1 − |origin − docvalue| / scale). Returns
    (query_id, rank, doc_id, score). Same stateless-task shape as
    query_index; BM25 statistics stay global."""
    return run_index_op(out_dir, queries, qs.FunctionScoreTopK, field, origin_us, scale_us, k)


def field_value_factor_topk(
    out_dir: str,
    queries,
    field: str = "doclen",
    k: int = 10,
) -> ray.data.Dataset:
    """FIELD_VALUE_FACTOR retrieval (ES function_score field_value_factor,
    ln1p modifier): top-k by bm25 × ln(1 + docvalue). Returns
    (query_id, rank, doc_id, score); same stateless-task shape as
    function_score_topk, BM25 statistics stay global."""
    return run_index_op(out_dir, queries, qs.FieldValueFactorTopK, field, k)


def rank_feature_topk(
    out_dir: str,
    queries,
    field: str = "doclen",
    pivot: int = 100,
    weight: float = 2.0,
    k: int = 10,
) -> ray.data.Dataset:
    """RANK_FEATURE retrieval (ES rank_feature, saturation function, in a
    bool-should next to the match query): top-k by bm25 + weight ×
    f/(f + pivot) over the match set. Returns (query_id, rank, doc_id,
    score); same stateless-task shape as function_score_topk."""
    return run_index_op(out_dir, queries, qs.RankFeatureTopK, field, pivot, weight, k)


def distance_feature_topk(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    origin_us: int = 0,
    pivot_us: int = 1,
    weight: float = 2.0,
    k: int = 10,
) -> ray.data.Dataset:
    """DISTANCE_FEATURE retrieval (ES distance_feature on a date field):
    top-k by bm25 + weight × pivot/(pivot + |origin − ts|) over the
    match set. Returns (query_id, rank, doc_id, score); same
    stateless-task shape as function_score_topk."""
    return run_index_op(out_dir, queries, qs.DistanceFeatureTopK,
                        field, origin_us, pivot_us, weight, k)


def combined_fields_topk(
    body_dir: str,
    title_dir: str,
    queries,
    w_title: int = 2,
    k: int = 10,
) -> ray.data.Dataset:
    """COMBINED_FIELDS retrieval (ES combined_fields / Lucene BM25F with
    integer field weights): top-k by BM25 over merged-field statistics
    (tf' = tf_body + W·tf_title, dl' = dl_body + W·dl_title, combined
    df/avgdl). Returns (query_id, rank, doc_id, score) in body-internal
    doc space; same stateless-task shape as function_score_topk."""
    return run_index_op(
        body_dir, queries, qs.CombinedFieldsTopK, title_dir, w_title, k,
        version=max(index_version(body_dir), index_version(title_dir)),
    )


def boosting_topk(
    out_dir: str,
    queries,
    negative_boost: float = 0.5,
    k: int = 10,
) -> ray.data.Dataset:
    """BOOSTING retrieval (ES ``boosting`` query): positive disjunctive
    BM25, × ``negative_boost`` for docs also matching the negative query
    (demotion, not exclusion). ``queries`` must carry (query_id, text,
    neg) — ``neg`` is the per-query negative clause text. Returns
    (query_id, rank, doc_id, score); same stateless-task shape as
    query_index."""
    return run_index_op(out_dir, queries, qs.BoostingTopK, float(negative_boost), k)


def synonym_topk(
    out_dir: str,
    queries,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    k: int = 10,
) -> ray.data.Dataset:
    """Query-time SYNONYM retrieval (Lucene SynonymQuery semantics): each
    term expands to its synonym group scored as one pseudo-term (merged
    tf, max-df idf). Returns (query_id, rank, doc_id, score)."""
    syn_t = tuple(sorted((b, tuple(s)) for b, s in (synonyms or {}).items()))
    return run_index_op(out_dir, queries, qs.SynonymTopK, syn_t, k)


def date_histogram(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    bucket_us: int = 86_400_000_000,
) -> ray.data.Dataset:
    """DATE-HISTOGRAM aggregation per query (ES date_histogram): counts of
    distinct matching visible docs per fixed-width bucket of a numeric
    docvalue. Returns (query_id, bucket, n_docs); bucket = value //
    bucket_us. Same stateless-task shape as match_counts."""
    return run_index_op(out_dir, queries, qs.DateHistogram, field, bucket_us)


def histogram_agg(
    out_dir: str,
    queries,
    field: str = "doclen",
    interval: int = 4,
) -> ray.data.Dataset:
    """HISTOGRAM aggregation + bucket PIPELINE aggregations per query (ES
    `histogram` with min_doc_count=0 + `cumulative_sum` + `derivative`):
    the DENSE bucket series (empty buckets included) of a numeric docvalue
    over each query's match set, each bucket carrying n_docs, the running
    cum_docs and the bucket-over-bucket delta_docs. Returns (query_id,
    bucket, n_docs, cum_docs, delta_docs); bucket = value // interval.
    Same stateless-task shape as date_histogram."""
    return run_index_op(out_dir, queries, qs.HistogramPipeline, field, interval)


def top_metrics(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    metric: str = "doclen",
    size: int = 3,
) -> ray.data.Dataset:
    """TOP_METRICS aggregation per query (ES top_metrics): the metric
    docvalue read off the top ``size`` docs of the sort docvalue's
    ordering over the match set. Returns (query_id, rank, sort_val,
    metric_val)."""
    return run_index_op(out_dir, queries, qs.TopMetrics, field, metric, size)


def auto_date_histogram(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    target_buckets: int = 20,
) -> ray.data.Dataset:
    """AUTO-INTERVAL date histogram per query (ES auto_date_histogram):
    the smallest frozen-ladder interval keeping the dense series within
    target_buckets, then the dense counts at that interval. Returns
    (query_id, interval_us, bucket, n_docs)."""
    return run_index_op(out_dir, queries, qs.AutoDateHistogram, field, target_buckets)


def moving_window_agg(
    out_dir: str,
    queries,
    field: str = "doclen",
    interval: int = 4,
    window: int = 3,
    lag: int = 2,
) -> ray.data.Dataset:
    """MOVING-WINDOW pipeline aggs per query (ES moving_fn sum +
    serial_diff over the dense histogram series). Returns (query_id,
    bucket, n_docs, mov_sum, sdiff). Same stateless-task shape as
    histogram_agg."""
    return run_index_op(out_dir, queries, qs.MovingWindowAgg, field, interval, window, lag)


def bucket_sort_agg(
    out_dir: str,
    queries,
    field: str = "doclen",
    interval: int = 4,
    min_count: int = 1,
    size: int = 5,
) -> ray.data.Dataset:
    """BUCKET_SELECTOR + BUCKET_SORT per query (ES): histogram buckets
    with n_docs >= min_count, re-ranked (n_docs DESC, bucket ASC), top
    ``size``. Returns (query_id, rank, bucket, n_docs)."""
    return run_index_op(out_dir, queries, qs.BucketSortAgg, field, interval, min_count, size)


def range_agg(
    out_dir: str,
    queries,
    field: str = "doclen",
    ranges: tuple[tuple[int | None, int | None], ...] = ((None, 128), (128, None)),
) -> ray.data.Dataset:
    """RANGE aggregation per query (ES ``range``): doc_count + exact int64
    sum of a numeric docvalue per configured half-open [from, to) range —
    every configured range emitted, count-0 and empty match sets
    included. Returns (query_id, range_idx, n_docs, sum_val). Same
    stateless-task shape as date_histogram."""
    return run_index_op(out_dir, queries, qs.RangeAgg, field, tuple(ranges))


def matrix_stats(
    out_dir: str,
    queries,
    field_a: str = "doclen",
    field_b: str = "warc_ts",
    b_off: int = 0,
    b_div: int = 1,
) -> ray.data.Dataset:
    """MATRIX-STATS aggregation per query (ES matrix_stats): exact integer
    sufficient statistics (n, Σa, Σb, Σa², Σb², Σab) of two numeric
    docvalues over the distinct matching visible docs; mean/variance/
    covariance/correlation derive client-side. Same stateless-task shape
    as the other match-set aggregations."""
    return run_index_op(out_dir, queries, qs.MatrixStats, field_a, field_b, b_off, b_div)


def composite_agg(
    out_dir: str,
    requests,
    facet: str = "lang",
    field: str = "warc_ts",
    bucket_us: int = 250_000_000,
    size: int = 12,
) -> ray.data.Dataset:
    """COMPOSITE aggregation pages (ES composite agg): each input row is a
    page request (query_id, text, after_lang, after_bucket) and yields up
    to ``size`` buckets of the (facet ASC, docvalue-bucket ASC) composite
    key space STRICTLY AFTER the cursor — ("", -1) opens the stream. The
    caller iterates pages by feeding each page's last key back as the next
    cursor (functions/fulltext.composite_agg_query drives the loop). Same
    stateless-task shape as the other match-set aggregations."""
    return run_index_op(out_dir, requests, qs.CompositeAgg, facet, field, bucket_us, size)


def matchset_stats(
    out_dir: str,
    queries,
    field: str = "warc_ts",
) -> ray.data.Dataset:
    """STATS aggregation per query (ES stats agg): (n_docs, min, max, sum)
    of a numeric docvalue over the distinct matching visible docs. Returns
    (query_id, n_docs, min_ts, max_ts, sum_ts); empty matches emit no row."""
    return run_index_op(out_dir, queries, qs.MatchsetStats, field)


def matchset_string_stats(
    out_dir: str,
    queries,
    field: str = "text",
) -> ray.data.Dataset:
    """STRING_STATS aggregation per query (ES string_stats): value-length
    stats + integer-exact character entropy (milli-nats × T) over the
    matching visible docs' ``field`` values. Returns (query_id, n_values,
    min_len, max_len, sum_len, h_milli_t); empty matches emit no row."""
    return run_index_op(out_dir, queries, qs.MatchsetStringStats, field)


def matchset_mad(
    out_dir: str,
    queries,
    field: str = "doclen",
) -> ray.data.Dataset:
    """MEDIAN-ABSOLUTE-DEVIATION aggregation per query (ES
    median_absolute_deviation, exact type-1 order statistics). Returns
    (query_id, n_docs, median, mad); empty matches emit no row."""
    return run_index_op(out_dir, queries, qs.MatchsetMAD, field)


def multi_terms(
    out_dir: str,
    queries,
    facet: str = "lang",
    field: str = "doclen",
    bucket_width: int = 64,
    k: int = 5,
) -> ray.data.Dataset:
    """MULTI-TERMS aggregation per query (ES multi_terms on the composite
    (facet, field//bucket_width) key): top-k buckets by (count DESC,
    facet ASC, bucket ASC). Returns (query_id, facet, len_bucket,
    n_docs)."""
    return run_index_op(out_dir, queries, qs.MultiTerms, facet, field,
                        int(bucket_width), int(k))


def terms_enum(
    out_dir: str,
    prefixes,
    size: int = 10,
) -> ray.data.Dataset:
    """TERMS-ENUM (ES _terms_enum): per prefix, the first ``size``
    dictionary terms in lexicographic order. Input rows are
    (prefix_id, prefix); returns (prefix_id, rank, term)."""
    return run_index_op(out_dir, prefixes, qs.TermsEnum, int(size))


def matchset_extended_stats(
    out_dir: str,
    queries,
    field: str = "doclen",
) -> ray.data.Dataset:
    """EXTENDED-STATS aggregation per query (ES extended_stats): exact
    integer (n, Σv, Σv², n·Σv²−(Σv)²) over the match set's docvalue.
    Returns (query_id, n_docs, sum, sum_sq, var_num)."""
    return run_index_op(out_dir, queries, qs.MatchsetExtendedStats, field)


def filters_agg(
    out_dir: str,
    queries,
) -> ray.data.Dataset:
    """FILTERS aggregation per query (ES filters agg, other_bucket=true):
    the frozen named buckets short/long/en plus other, all emitted (zeros
    included) for every non-empty match set. Returns
    (query_id, bucket, n_docs)."""
    return run_index_op(out_dir, queries, qs.FiltersAgg)


def bucket_script_agg(
    out_dir: str,
    queries,
    share_denom: int = 8,
) -> ray.data.Dataset:
    """``bucket_script`` + ``bucket_selector`` pipeline aggs per query (ES):
    lang-terms buckets over the match set with n_docs/sum_doclen metrics,
    the integer-frozen derived avg_dl_x100, and the scale-free selector
    keeping buckets with ≥ 1/share_denom of the query's matches. Returns
    (query_id, lang, n_docs, sum_doclen, avg_dl_x100)."""
    return run_index_op(out_dir, queries, qs.BucketScriptAgg, share_denom)


def t_test_agg(
    out_dir: str,
    queries,
) -> ray.data.Dataset:
    """ES ``t_test`` agg (Welch, heteroscedastic) per query: doclen of
    matched docs vs the rest of the live corpus, moments from exact
    integer (n, S, SS) partials, means/t rounded 3dp. Returns
    (query_id, n_match, n_rest, mean_match, mean_rest, t_stat)."""
    return run_index_op(out_dir, queries, qs.TTestAgg)


def percolate(
    docs,
    queries,
) -> ray.data.Dataset:
    """REVERSE SEARCH (ES percolator): match a STREAM of documents against
    STORED queries (conjunctive: every distinct query term must appear).
    ``docs``: parquet path or Dataset with (doc_id, text); ``queries``:
    pyarrow Table with (query_id, text), compiled once per worker.
    Returns a streaming Dataset of (query_id, doc_id) matches — composes
    with ingest at full backpressure (no index consulted)."""
    qt = tuple(zip(queries["query_id"].to_pylist(), queries["text"].to_pylist()))
    if isinstance(docs, str):
        ds = ray.data.read_parquet(docs, columns=["doc_id", "text"])
        # single-row-group files would feed the map exactly one task
        ds = ds.repartition(max(2, _cpus() // 2))
    else:
        ds = docs
    # no index: the stored-query set alone is the cache key
    return ds.map_batches(
        qs.CachedOp(None, 0, qs.Percolator, (qt,)), batch_format="pyarrow", batch_size=256
    )


def term_stats(
    out_dir: str,
    terms,
) -> ray.data.Dataset:
    """TERM STATISTICS (ES term_statistics): per requested term, global
    visible df and total term frequency (ttf). ``terms``: pyarrow Table /
    Dataset / parquet path with a ``term`` string column. Returns
    (term, df, ttf); OOV terms emit no row."""
    return run_index_op(out_dir, terms, qs.TermStats)


def facet_cardinality(
    out_dir: str,
    queries,
    facet: str = "lang",
) -> ray.data.Dataset:
    """CARDINALITY aggregation per query (ES cardinality agg): the number
    of distinct facet values among matching visible docs. Returns
    (query_id, n_values); empty matches emit no row."""
    return run_index_op(out_dir, queries, qs.FacetCardinality, facet)


def percentile_ranks(
    out_dir: str,
    queries,
    field: str = "doclen",
    probes: tuple[int, ...] = (20, 40, 60),
) -> ray.data.Dataset:
    """PERCENTILE-RANKS aggregation per query (ES percentile_ranks,
    exact integer form). Returns (query_id, probe, n_le, n_docs); the ES
    percentage is n_le/n_docs·100 client-side."""
    return run_index_op(out_dir, queries, qs.PercentileRanks, field, tuple(probes))


def matchset_percentiles(
    out_dir: str,
    queries,
    field: str = "warc_ts",
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> ray.data.Dataset:
    """PERCENTILES aggregation per query (ES percentiles agg, exact
    type-1 order statistics). Returns (query_id, pct, value)."""
    return run_index_op(out_dir, queries, qs.MatchsetPercentiles, field, tuple(quantiles))


def matchset_boxplot(
    out_dir: str,
    queries,
    field: str = "doclen",
) -> ray.data.Dataset:
    """BOXPLOT aggregation per query (ES boxplot agg, exact integer form).
    Returns (query_id, n_docs, vmin, q1, q2, q3, vmax, n_low_out,
    n_high_out) — five-number summary + Tukey-fence outlier counts."""
    return run_index_op(out_dir, queries, qs.MatchsetBoxplot, field)


def export_matches(
    out_dir: str,
    queries,
    mode: str = "or",
) -> ray.data.Dataset:
    """SCROLL/EXPORT: the full match set per query as a streaming Dataset
    (query_id, doc_id) — the bulk API that feeds downstream jobs (rescore,
    join, training-set extraction) instead of a result page. Small batches
    (MatchExporter.batch_rows): each input query can fan out to corpus-scale output rows, and blocks
    stream through the executor with backpressure; consume with
    write_parquet or further map_batches, never take_all.
    ``mode="and"`` exports the conjunctive match set instead (docs
    containing EVERY distinct query term)."""
    return run_index_op(out_dir, queries, qs.MatchExporter, mode)


def explain_topk(
    out_dir: str,
    queries,
    k: int = 10,
) -> ray.data.Dataset:
    """EXPLAIN: for each query's top-k hits, one row per (hit, matched
    term) carrying the raw BM25 inputs — (query_id, rank, doc_id, term,
    tf, df, dl). df is the GLOBAL document frequency (summed across the
    term's shards); dl the hit's doclen. Integer-only: idf/contribution/
    score are pure functions of these plus (n_docs, avgdl), so the
    explanation is complete and exactly comparable. Same stateless-task +
    worker-cache execution shape as query_index; output is O(k · terms)
    per query, page-sized."""
    return run_index_op(out_dir, queries, qs.Explainer, k)


def rank_eval(
    out_dir: str,
    queries,
    k: int = 10,
) -> ray.data.Dataset:
    """RANK-EVAL: per query, integer IR metrics of the frozen disjunctive
    top-k against the deterministic conjunctive-containment qrel —
    (query_id, n_rel, n_rel_at_k, first_rel_rank); precision@k =
    n_rel_at_k/k, recall@k = n_rel_at_k/n_rel, MRR = 1/first_rel_rank
    (0 ⇒ no relevant hit). One row per input query, OOV ⇒ zeros. Same
    stateless-task + worker-cache execution as query_index."""
    return run_index_op(out_dir, queries, qs.RankEval, k)


def adjacency_matrix(
    out_dir: str,
    pairs,
) -> ray.data.Dataset:
    """ADJACENCY MATRIX: each input row (pair_id, text_a, text_b) yields
    the two disjunctive match-set sizes and their intersection size —
    (pair_id, n_a, n_b, n_ab), one row per pair, zeros included. Cells
    are independent → embarrassingly parallel; per-worker match sets are
    cached across cells sharing a filter, so an n×n matrix costs n match
    sets + n² sorted-array intersections, never n² postings gathers."""
    return run_index_op(out_dir, pairs, qs.AdjacencyMatrix)


def suggest_completions(
    out_dir: str,
    queries,
    size: int = 5,
) -> ray.data.Dataset:
    """COMPLETION SUGGESTER: each (query_id, text) prefix expands against
    the sharded term dictionary and returns the top ``size`` completions by
    GLOBAL df (tie: term ASC) as (query_id, rank, term, df). Dictionary-
    only — no postings or corpus scan; a prefix range routes to O(1)
    term-shard holders at cluster scale."""
    return run_index_op(out_dir, queries, qs.CompletionSuggester, size)


def diversified_sampler(
    out_dir: str,
    queries,
    facet: str = "lang",
    sample_size: int = 12,
    max_per_value: int = 3,
) -> ray.data.Dataset:
    """DIVERSIFIED-SAMPLER aggregation per query (ES diversified_sampler
    + terms sub-agg): relevance-ordered sample capped per facet value,
    then facet counts over the sample. Returns (query_id, <facet>,
    n_sample)."""
    return run_index_op(out_dir, queries, qs.DiversifiedSampler, facet, sample_size, max_per_value)


def collapse_topk(
    out_dir: str,
    queries,
    facet: str = "lang",
    k: int = 5,
) -> ray.data.Dataset:
    """FIELD COLLAPSING (ES ``collapse``): one blended page per query in
    which each facet value appears at most once — the group's best hit
    represents the group, winners re-rank (score DESC, doc_id ASC), top
    k; each hit carries the group's match count. Returns (query_id,
    rank, doc_id, <facet>, n_group, score). Execution shape identical to
    facet_topk."""
    return run_index_op(out_dir, queries, qs.CollapseTopK, facet, k)


def facet_topk(
    out_dir: str,
    queries,
    facet: str = "lang",
    k: int = 5,
) -> ray.data.Dataset:
    """GROUPED top-k: for each query, the top-k BM25 hits within every
    facet group (result diversification / field collapsing). Returns a
    Dataset (query_id, <facet>, rank, doc_id, score) — exact per-group
    rankings (the full disjunctive ranking restricted to each group),
    facet values ascending within a query. Execution shape identical to
    query_index (stateless tasks, worker-cached state)."""
    return run_index_op(out_dir, queries, qs.FacetTopK, facet, k)


def doc_pids(out_dir: str) -> list[int]:
    """Partition ids present in the docs/ sidecar (sorted)."""
    pids = []
    for f in sorted(glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet"))):
        m = re.match(r"pid=(\d+)\.parquet$", os.path.basename(f))
        if m:
            pids.append(int(m.group(1)))
    return pids


@ray.remote
def _mget_fetch(path: str, urls: tuple[str, ...]):
    """One routed point-read: the owning docs/pid file opened with the
    url predicate pushed down to its row groups."""
    import pyarrow.parquet as _pq

    return _pq.read_table(
        path,
        columns=["url", "doc_id", "doclen", "lang", "warc_ts"],
        filters=[("url", "in", list(urls))],
    )


def mget(out_dir: str, urls) -> pa.Table:
    """GET / _mget: routed point fetch of stored fields + docvalues by
    url (the user-facing document id). Routing replays the build's
    partitioner — pid = blake2b64(normalize_url(url)) % P, P from
    stats.json — so each lookup opens ONLY its owning base docs/pid file
    (the ES ``shard = hash(routing) % num_shards`` formula); delta
    generations (pids ≥ P, bounded by delta size) are scanned too, since
    their pid offsets are not url-derivable. Tombstoned docs report
    found=false (a GET after delete misses, pre-compaction); if a url is
    somehow visible in several generations the newest wins (warc_ts,
    then doc_id — the dedup rule). One Ray task per touched file, merged
    url-ascending. Output (url, found, doclen, lang, warc_ts); misses
    carry found=false and zero/empty fields so the row set is total."""
    from ..partition import normalize_url, partition_ids

    urls = [normalize_url(u) for u in urls]
    stats = mf.read_stats(out_dir)
    P = int(stats.get("num_partitions") or stats.get("P"))
    pids = partition_ids(urls, P)
    by_pid: dict[int, list[str]] = {}
    for u, p in zip(urls, pids):
        by_pid.setdefault(int(p), []).append(u)
    all_pids = doc_pids(out_dir)
    refs = []
    for pid in all_pids:
        if pid < P and pid not in by_pid:
            continue  # routed: base files for unrequested pids never open
        want = tuple(sorted(by_pid.get(pid, []))) if pid < P else tuple(sorted(urls))
        from ..stages.dedup_stage import docs_path

        refs.append(_mget_fetch.remote(docs_path(out_dir, pid), want))
    tables = [t for t in ray.get(refs) if t.num_rows] if refs else []
    found: dict[str, tuple[int, int, int, str]] = {}
    for t in tables:
        for u, d, dl, lg, ts in zip(
            t["url"].to_pylist(), t["doc_id"].to_pylist(), t["doclen"].to_pylist(),
            t["lang"].to_pylist(), t["warc_ts"].to_pylist(),
        ):
            prev = found.get(u)
            if prev is None or (ts, d) > (prev[0], prev[1]):
                found[u] = (int(ts), int(d), int(dl), lg)
    tomb = mf.read_tombstones(out_dir)
    if tomb is not None:
        import numpy as _np

        for u in list(found):
            d = _np.uint64(found[u][1])
            pos = _np.searchsorted(tomb, d)
            if pos < len(tomb) and tomb[pos] == d:
                del found[u]
    rows = []
    for u in sorted(set(urls)):
        if u in found:
            ts, d, dl, lg = found[u]
            rows.append((u, True, dl, lg, ts))
        else:
            rows.append((u, False, 0, "", 0))
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "found": pa.array([r[1] for r in rows], pa.bool_()),
            "doclen": pa.array([r[2] for r in rows], pa.int64()),
            "lang": pa.array([r[3] for r in rows], pa.string()),
            "warc_ts": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def _pid_groups(out_dir: str, n_ranges: int) -> list[tuple[int, ...]]:
    """Split the docs/ pids into at most ``n_ranges`` contiguous groups —
    the docID scheme (pid<<40 | row) makes a pid group one contiguous
    doc_id range, which a ``QueryScorer(pids=...)`` derives itself."""
    pids = doc_pids(out_dir)
    groups = np.array_split(np.array(pids), min(n_ranges, len(pids)))
    return [tuple(int(p) for p in g) for g in groups if len(g)]


def _merge_range_partials(out, k: int, qids: np.ndarray | None = None):
    """Per-range k-sized partials → the global top-k under the frozen
    (score DESC, doc_id ASC) order with 1-based ranks (merge input is
    queries × ranges × k — right-sized). With ``qids`` the partials'
    query ids are row positions into it: the merge then keeps two
    queries that share an id apart, and maps the positions back to the
    caller's ids, sorted by (query_id, rank)."""
    out = out.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
    out = out.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = (out.groupby("query_id", sort=False).cumcount() + 1).astype("int32")
    if qids is None:
        return out
    out["query_id"] = qids[out["query_id"].to_numpy()]
    if _in_qid_rank_order(out["query_id"].to_numpy(), out["rank"].to_numpy()):
        return out
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


# the serving result frame: (column, dtype) in output order — the dtypes
# QueryScorer's result table converts to
_TOPK_COLUMNS = (("query_id", np.int64), ("rank", np.int32),
                 ("doc_id", np.uint64), ("score", np.float64))


def _topk_frame(cols):
    """(query_id, rank, doc_id, score) arrays → the serving DataFrame."""
    import pandas as pd

    return pd.DataFrame({name: np.asarray(c, dtype=dt)
                         for (name, dt), c in zip(_TOPK_COLUMNS, cols)})


def _empty_topk_frame():
    return _topk_frame([()] * len(_TOPK_COLUMNS))


def _in_qid_rank_order(q: np.ndarray, r: np.ndarray) -> bool:
    """True when the (query_id ``q``, rank ``r``) rows are strictly
    ascending — the order each scorer slice already emits; only shuffled
    or duplicate query ids (or a range merge over them) break it."""
    return bool(np.all((q[1:] > q[:-1]) | ((q[1:] == q[:-1]) & (r[1:] > r[:-1]))))


@ray.remote
class _ServeScorer:
    """Standing scorer actor for the serving pool: holds a CachedOp over
    QueryScorer; the scorer builds once in THIS process (CachedOp's
    worker-process cache) and stays warm across calls. ``score`` is bound
    into the pool's compiled graph (start_serving), which runs it on every
    actor for every request: a slice crosses the actor boundary as plain
    columns both ways, an int64 query-id array and a list of texts in, the
    four result arrays (query_id, rank, doc_id, score) out; the Arrow table
    the scorer consumes is built here, on the actor's side. An empty slice
    (a request of fewer queries than actors) returns four empty typed
    arrays without calling the scorer."""

    def __init__(self, fn):
        self.fn = fn

    def score(self, qids: np.ndarray, texts: list) -> tuple:
        if not len(qids):
            return tuple(np.empty(0, dt) for _, dt in _TOPK_COLUMNS)
        out = self.fn(pa.table({"query_id": pa.array(qids, pa.int64()),
                                "text": pa.array(texts, pa.string())}))
        return tuple(out[name].to_numpy() for name, _ in _TOPK_COLUMNS)


class _Pool(NamedTuple):
    """A standing pool under its ``_SERVE_POOLS`` key: ``subs`` holds one
    list of _ServeScorer actors per range sub-pool (all of one size),
    ``graph`` the compiled Ray graph whose input carries one (query ids,
    texts) slice per actor of a sub-pool and whose outputs are every
    actor's result columns."""

    key: tuple
    subs: list
    graph: object


_SERVE_POOLS: dict = {}


def _compile_pool(subs: list):
    """One compiled graph over every actor of every range sub-pool: input
    arguments 2j and 2j+1 are slice j's query ids and texts, bound to actor
    j of each sub-pool; one output per actor, sub-pool by sub-pool."""
    from ray.dag import InputNode, MultiOutputNode

    with InputNode() as inp:
        dag = MultiOutputNode([a.score.bind(inp[2 * j], inp[2 * j + 1])
                               for sub in subs for j, a in enumerate(sub)])
    return dag.experimental_compile()


def start_serving(out_dir: str, k: int = 10, method: str = "wand",
                  n_actors: int | None = None,
                  n_ranges: int | None = None, mode: str = "or") -> _Pool:
    """Spin (or reuse) a STANDING scorer-actor pool for ``out_dir`` — the
    architecture a search engine actually serves from: shards stay open,
    state stays hot, a query answers in one compiled-graph round trip
    instead of a fresh Dataset pipeline launch (~1s fixed, the measured cap
    on per-call QPS — BENCH/BASELINE.md). Idempotent per (out_dir, version,
    k, method, n_actors, n_ranges, mode), ``n_actors`` as given (None stays
    None) — every query_index retrieval ``mode`` (and/phrase/near/msm/
    spans/…) serves from its own pool, the per-doc semantics are
    unchanged; a rebuilt index (new version) evicts the stale pool.

    A warm lookup costs one ``os.stat`` (the stats.json version) and a
    dict hit. Only a miss checks ``method`` and ``mode`` (``ValueError``
    before any actor spawns) and the segments, resolves the actor count
    (``n_actors`` or the cluster's CPUs), evicts older-version pools of
    the index, spawns the actors and compiles the pool's one Ray graph
    (``_compile_pool``: every actor's ``score`` on its slice of the input),
    primed by one execution with a one-query slice per actor so the first
    served request pays no scorer construction. A compiled actor polls its
    input channel: a live pool keeps about one core per actor busy, idle or
    not, until ``stop_serving`` or a write on its index (maintain.py) ends
    it.

    ``n_ranges``: the CLUSTER-shape pool — the doc space splits into
    contiguous pid ranges (the query_index_doc_sharded bound: each range
    actor loads ONLY its partitions' doclens, memory ∝ range size) and
    every range gets its own actor sub-pool; actor j of every sub-pool
    scores the same slice j, and serve_queries merges the k-sized partials
    under the frozen order. None = one full-state range (single-node
    shape). Returns the ``_Pool``."""
    version = index_version(out_dir)
    key = (out_dir, version, k, method, n_actors, n_ranges, mode)
    pool = _SERVE_POOLS.get(key)
    if pool is not None:
        return pool
    qs.check_scorer_args(method, mode)
    segs = _require_segments(out_dir)
    n = n_actors or max(1, _cpus())
    for stale in [k_ for k_ in _SERVE_POOLS if k_[0] == out_dir and k_[1] < version]:
        _kill_pool(stale)
    groups = [None] if n_ranges is None else _pid_groups(out_dir, n_ranges)
    fns = [qs.CachedOp(out_dir, version, qs.QueryScorer,
                       (out_dir, tuple(segs), k, method, pids, mode))
           for pids in groups]
    per = max(1, n // len(fns))
    subs = [[_ServeScorer.remote(fn) for _ in range(per)] for fn in fns]
    _SERVE_POOLS[key] = pool = _Pool(key, subs, _compile_pool(subs))
    try:
        _execute(pool, [np.zeros(1, np.int64), ["the"]] * per)
    except BaseException:
        _evict(pool)
        raise
    return pool


def _kill_pool(key) -> None:
    """Tear down the pool's compiled graph, then kill its actors."""
    pool = _SERVE_POOLS.pop(key)
    try:
        pool.graph.teardown()
    finally:
        for sub in pool.subs:
            for a in sub:
                ray.kill(a)


def stop_serving(out_dir: str | None = None) -> None:
    """Kill serving pools (all, or those of one index)."""
    for key in [k_ for k_ in _SERVE_POOLS if out_dir is None or k_[0] == out_dir]:
        _kill_pool(key)


def _evict(pool: _Pool) -> None:
    """Kill ``pool`` unless it is no longer registered under its key."""
    if _SERVE_POOLS.get(pool.key) is pool:
        _kill_pool(pool.key)


def _execute(pool: _Pool, args: list) -> list:
    """One execution of the pool's graph: every actor's output tuple, in
    graph output order. A scorer exception (``RayTaskError``, which also
    matches the scorer's own error class) propagates and leaves the pool
    serving; any other error (a dead actor, a closed channel) evicts the
    pool before it propagates, so the next call spawns a fresh one. Outputs
    wait without a time limit: a slow slice is not an error."""
    try:
        return [ref.get(timeout=-1) for ref in pool.graph.execute(*args)]
    except RayTaskError:
        raise
    except Exception:
        _evict(pool)
        raise


def _slice_bounds(n: int, n_actors: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of the contiguous slices a request of ``n`` queries
    is cut into for a sub-pool of ``n_actors``: exactly one slice per actor
    (every actor of the compiled graph runs on every request), sizes
    differing by at most one, so a slice is empty only when ``n`` is
    smaller than ``n_actors``."""
    return [(n * j // n_actors, n * (j + 1) // n_actors) for j in range(n_actors)]


def serve_queries(out_dir: str, queries, k: int = 10, method: str = "wand",
                  n_actors: int | None = None, n_ranges: int | None = None,
                  mode: str = "or"):
    """Answer a query table (query_id, text) — or a parquet path to one —
    from the standing pool (start_serving) in ONE execution of its compiled
    graph: the table is cut into one contiguous slice per actor of a
    sub-pool (empty ones when the request has fewer queries than actors),
    each an int64 query-id array plus a list of texts, and actor j of every
    range sub-pool scores slice j; the returned result arrays concatenate
    column by column, in slice order, into the frame. On a 2-actor pool
    (4-vCPU host) with 64-query requests the graph served a median 7.3k
    QPS against 5.0k for one ``.remote`` call per slice (perfbench serve,
    10 interleaved pairs; BENCH/BASELINE.md).
    Bit-identical to ``query_index(..., resolve_urls=False)`` (same scorer
    fn, same frozen order; pinned by test) — only the dispatch differs.
    With ``n_ranges`` the k-sized per-range partials merge under (score
    DESC, doc_id ASC) — exact, the query_index_doc_sharded argument: each
    doc is scored wholly inside one range with global df/idf.

    A scorer exception raises here and the pool keeps serving; a dead
    actor or a broken channel raises here and evicts the pool, so the next
    call serves from a fresh one.

    Returns a pandas DataFrame (query_id int64, rank int32, doc_id uint64,
    score float64) sorted by (query_id, rank). Slices come back in that
    order whenever the query ids ascend, so the sort runs only for
    shuffled or duplicate ids."""
    pool = start_serving(out_dir, k, method, n_actors, n_ranges, mode)
    if isinstance(queries, str):
        queries = pq.read_table(queries)
    n = queries.num_rows
    if n == 0:
        return _empty_topk_frame()
    qids = queries["query_id"].to_numpy().astype(np.int64, copy=False)
    texts = queries["text"].to_pylist()
    # a range pool scores row positions, merged and mapped back to qids
    sent = qids if len(pool.subs) == 1 else np.arange(n, dtype=np.int64)
    args = []
    for lo, hi in _slice_bounds(n, len(pool.subs[0])):
        args += (sent[lo:hi], texts[lo:hi])
    cols = [np.concatenate(col) for col in zip(*_execute(pool, args))]
    out = _topk_frame(cols)
    if len(pool.subs) > 1:
        return _merge_range_partials(out, k, qids)
    if _in_qid_rank_order(cols[0], cols[1]):
        return out
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def query_index_doc_sharded(
    out_dir: str,
    queries,
    n_ranges: int = 4,
    k: int = 10,
    method: str = "wand",
):
    """Top-k BM25 with DOC-RANGE-SHARDED scorer state — the cluster-shape
    path (SCALE.md: at 10^12 docs the ~5 TB doclen sidecar cannot live in
    every scorer; each node holds only the doc ranges it serves).

    The docID scheme (pid<<40 | row) makes pid groups contiguous docID
    ranges: each range scorer loads ONLY its partitions' doclens
    (DoclenTable(pids=...), memory ∝ range size — asserted by test) and
    scores every query over doc_ids in [lo, hi) with GLOBAL df/idf, so
    each document is scored completely inside exactly one range. The
    per-range partial top-k tables (≤ k rows per query per range) merge
    under the frozen (score DESC, doc_id ASC) order — EXACT, bit-identical
    to the full-corpus scorer, unlike per-term-segment top-k (SURVEY §8.3).

    Returns a pandas DataFrame (query_id, rank, doc_id, score) sorted by
    (query_id, rank): the merge input is final-answer-sized (queries ×
    n_ranges × k rows), so a driver merge is right-sized even at cluster
    scale. A query table or parquet path is scored under row positions,
    so two queries that share an id stay two answers; a caller-built
    Dataset is merged by its query ids.

    All ranges execute CONCURRENTLY in one union pipeline (round 4):
    warm-cache wall for 4 ranges ≈ one range's pipeline cost (~0.11s on
    the 500-doc verify fixture), where the old per-range .to_pandas()
    loop paid the fixed pipeline launch serially per range."""
    _require_segments(out_dir)
    if not doc_pids(out_dir):
        raise ValueError(f"no docs/pid=*.parquet under {out_dir}")
    if isinstance(queries, str):
        queries = pq.read_table(queries)
    qids = None
    if isinstance(queries, pa.Table):
        qids = queries["query_id"].to_numpy().astype(np.int64, copy=False)
        queries = queries.set_column(
            queries.schema.get_field_index("query_id"), "query_id",
            pa.array(np.arange(len(qids), dtype=np.int64)))
    qds = _query_blocks(queries)
    range_ds = [run_index_op(out_dir, qds, qs.QueryScorer, k, method, pids)
                for pids in _pid_groups(out_dir, n_ranges)]
    # ONE pipeline over the union: every range's scorer tasks run
    # concurrently (round 4; the old per-range .to_pandas() loop executed
    # ranges serially, hiding the latency win the sharding exists for)
    merged_ds = range_ds[0] if len(range_ds) == 1 else range_ds[0].union(*range_ds[1:])
    allp = merged_ds.to_pandas()
    if allp.empty:
        return _empty_topk_frame()
    return _merge_range_partials(allp, k, qids)[["query_id", "rank", "doc_id", "score"]]
