"""Flagship fulltext pipeline over the driver's ``documents`` table: wrap
each doc as a Common-Crawl-style page, run the REAL index build (extract →
dedup → postings → salted merge → segments) and answer a frozen query set
with Block-Max WAND — end-to-end through the same code paths as the
contract corpus. The DuckDB oracle replays BM25 exactly (same frozen
formula) in SQL, so this is the engine's strongest oracle-checked query.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..pipelines.build import build_index
from ..pipelines.query import attach_urls, query_index
from ..textnorm import TOKENIZE_SQL, tokenize

# Frozen query set (query_id = position). Duplicate terms count once (frozen
# engine semantics — mirrored with DISTINCT in the oracle SQL).
FT_QUERIES = (
    "table spark",
    "query group the",
    "vector",
    "customer stream batch",
    "zzznotinvocab",
    "slow slow merge",
)
BASE_TS_US = 1_700_000_000_000_000
# Synthetic crawl-ts rule: a Knuth-hash permutation of doc_id (injective —
# TS_MULT has no factor of the prime TS_MOD), so timestamp order is NOT
# doc_id order and sort-by-recency genuinely exercises the docvalue path.
# Exactly replayable in SQL: (doc_id * 2654435761) % 1000000007 is BIGINT-
# safe for every driver doc_id.
TS_MULT = 2_654_435_761
TS_MOD = 1_000_000_007


def doc_ts_us(doc_id: int) -> int:
    return BASE_TS_US + (doc_id * TS_MULT) % TS_MOD


def doc_url(doc_id: int) -> str:
    return f"doc://{doc_id:08d}"


def url_doc_id(url: str) -> int:
    return int(url[len("doc://") :])


# The BM25 oracle builder. Every ``*_oracle_sql`` below replays the frozen
# engine in DuckDB as one CTE chain: toks → dl/stats/tf/df → scored →
# ranked → top-k SELECT, built from these pieces (each returns its text
# without a trailing comma or newline). The formula keeps its own literals
# (k1=1.2, b=0.75, Lucene idf ln(1+(N-df+.5)/(df+.5))) on purpose: an
# oracle that read bm25.py's constants would no longer check them.


def _values(queries, terms=str.split) -> str:
    """``VALUES`` rows ``(qid, 'term')``, qid = position in ``queries``."""
    return ",".join(f"({qid}, '{t}')" for qid, q in enumerate(queries) for t in terms(q))


def _distinct_terms(q: str) -> list[str]:
    return sorted(set(q.split()))


def _qd(values: str) -> str:
    """``q`` = the ``(query_id, tok)`` rows ``values``; ``qd`` = the same
    deduplicated (a repeated query term counts once)."""
    return f"""q(query_id, tok) AS (VALUES {values}),
qd AS (SELECT DISTINCT query_id, tok FROM q)"""


def _toks(corpus: str = "documents", distinct: bool = False, name: str = "toks") -> str:
    """``name(doc_id, tok)``: the non-empty tokens of ``corpus``.text."""
    return f"""{name} AS (
  SELECT {"DISTINCT " if distinct else ""}doc_id, tok FROM (
    SELECT doc_id, unnest({TOKENIZE_SQL}) AS tok
    FROM {corpus}) WHERE tok <> ''
)"""


def _bm25_head(corpus: str = "documents", alias: str = "d") -> str:
    """``toks`` of ``corpus`` and its statistics (``_bm25_stats``)."""
    return f"{_toks(corpus)},\n{_bm25_stats(corpus, alias)}"


def _bm25_stats(corpus: str = "documents", alias: str = "d") -> str:
    """The statistics of ``toks``: ``dl`` (every doc of ``corpus``, 0.0
    when it has no token), ``stats`` (n, avgdl), ``tf`` and ``df``."""
    return f"""dl AS (SELECT {alias}.doc_id, CAST(coalesce(t.c, 0) AS DOUBLE) AS dl
       FROM {corpus} {alias} LEFT JOIN (SELECT doc_id, count(*) AS c FROM toks GROUP BY 1) t USING (doc_id)),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY 1)"""


def _scored(q: str = "qd", w: str = "", having: str = "", compact: bool = False) -> str:
    """``scored(query_id, doc_id, score)``: the BM25 sum over the
    (query_id, tok) rows of ``q`` (a relation, optionally "rel alias"),
    each term multiplied by the weight factor ``w`` (e.g. ``"qw.w * "``);
    ``having`` filters the (query, doc) groups. ``compact`` is the
    three-line join layout some oracles were written in."""
    a = q.split()[-1]
    if compact:
        joins = (f"{q} JOIN tf USING (tok) JOIN df USING (tok)\n"
                 "  JOIN dl ON tf.doc_id = dl.doc_id\n  CROSS JOIN stats s GROUP BY 1, 2")
    else:
        joins = (f"{q}\n  JOIN tf USING (tok)\n  JOIN df USING (tok)\n"
                 "  JOIN dl ON tf.doc_id = dl.doc_id\n  CROSS JOIN stats s\n  GROUP BY 1, 2")
    if having:
        joins += f"\n  HAVING {having}"
    return f"""scored AS (
  SELECT {a}.query_id, tf.doc_id,
         sum( {w}ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS score
  FROM {joins}
)"""


def _token_string() -> str:
    """``dt(doc_id, ts)``: each doc's tokens joined by single spaces with
    a space at each end, so a phrase p occurs iff ' p ' is a substring."""
    return f"""dt AS (SELECT doc_id,
              ' ' || array_to_string(list_filter({TOKENIZE_SQL}, x -> x <> ''), ' ') || ' ' AS ts
       FROM documents)"""


def _ranked(frm: str = "scored", key: str = "score", a: str = "") -> str:
    """``ranked``: each query's rows of ``frm`` (the eligibility join)
    numbered by (``key`` DESC, doc_id); ``a`` qualifies query_id/doc_id."""
    p = f"{a}." if a else ""
    return f"""ranked AS (
  SELECT {p}query_id, {p}doc_id,
         row_number() OVER (PARTITION BY {p}query_id ORDER BY {key} DESC, {p}doc_id) AS rank
  FROM {frm}
)"""


def _top(k, cols: str = "CAST(rank AS INTEGER) AS rank, doc_id", lo: int = 0,
         order: str = "rank") -> str:
    """The final SELECT: ranks ``lo``+1..``k`` of ``ranked``, projected
    to query_id plus ``cols``."""
    window = f"rank > {lo} AND rank <= {k}" if lo else f"rank <= {k}"
    return f"""SELECT CAST(query_id AS BIGINT) AS query_id, {cols}
FROM ranked WHERE {window}
ORDER BY query_id, {order}"""


def _write_pages(out_path: str, url, warc_ts, text, lang) -> str:
    """The one pages writer: (url, warc_ts, html, text, lang) parquet at
    ``out_path``, the html wrapping each text in one paragraph."""
    html = [f"<html><body><p>{x}</p></body></html>".encode() for x in text.to_pylist()]
    pages = pa.table(
        {"url": url, "warc_ts": warc_ts, "html": pa.array(html, pa.binary()),
         "text": text, "lang": lang}
    )
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(pages, out_path)
    return out_path


def _source_pages(sf_dir: str, out_path: str, text_of) -> str:
    """documents → pages: url and crawl ts derived from the source doc_id,
    text = ``text_of(doc text)``."""
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    ids = t["doc_id"].to_pylist()
    return _write_pages(
        out_path,
        pa.array([doc_url(i) for i in ids], pa.string()),
        pa.array([doc_ts_us(i) for i in ids], pa.timestamp("us")),
        pa.array([text_of(x) for x in t["text"].to_pylist()], pa.string()),
        t["lang"],
    )


def docs_as_pages(sf_dir: str, out_path: str) -> str:
    """documents → pages-schema parquet (url, warc_ts, html, text, lang)."""
    return _source_pages(sf_dir, out_path, lambda text: text)


def _work_dir(sf_dir: str) -> str:
    # ":v3" — docs checkpoint gained the warc_ts docvalue column and the
    # synthetic crawl ts became the hashed permutation; old cached indexes
    # under /tmp must not be reused by recency/range queries
    key = hashlib.blake2b(f"{sf_dir}:v3".encode(), digest_size=6).hexdigest()
    return f"/tmp/aarhus_fulltext_{key}"


def _ensure_index(sf_dir: str, fresh: bool = False, positions: bool = False) -> str:
    """Build (or reuse) the docs-as-pages index under the sf_dir-keyed
    workdir; returns the index path. ``fresh=True`` rebuilds from scratch.
    ``positions=True`` builds (and caches separately) a positional index
    (per-segment pos.bin sidecar) so phrase queries verify adjacency from
    decoded positions instead of re-tokenizing checkpoint text. The ONE
    build-config definition shared by every fulltext op."""
    if fresh:
        shutil.rmtree(_work_dir(sf_dir), ignore_errors=True)
    return _pages_index(sf_dir, "", lambda p: docs_as_pages(sf_dir, p), positions=positions)


def _pages_index(sf_dir: str, name: str, write_pages, num_partitions: int = 8,
                 positions: bool = False) -> str:
    """Build an index once under the sf_dir-keyed workdir: pages written
    by ``write_pages(path)`` into ``pages<name>/`` unless already there,
    then the index in ``index<name>`` (``_pos`` appended when positional)
    unless its ``_INDEX_DONE`` marker exists. Returns the index path."""
    work = _work_dir(sf_dir)
    pages = os.path.join(work, f"pages{name}", "part-0000.parquet")
    if not os.path.exists(pages):
        write_pages(pages)
    index = os.path.join(work, f"index{name}" + ("_pos" if positions else ""))
    if not os.path.exists(os.path.join(index, "_INDEX_DONE")):
        build_index(os.path.dirname(pages), index, num_partitions=num_partitions,
                    num_segments=2, n_salts=2, positions=positions)
    return index


def _index_copy(sf_dir: str, suffix: str) -> str:
    """A private copy of the cached index at ``<workdir><suffix>/index``
    (the workdir made fresh) for an op that mutates it."""
    base = _ensure_index(sf_dir, fresh=False)
    work = _work_dir(sf_dir) + suffix
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    index = os.path.join(work, "index")
    shutil.copytree(base, index)
    return index


def _halves_index(sf_dir: str, suffix: str) -> str:
    """Build over the FIRST half of documents-as-pages, then graft the
    second half in as a delta generation (pipelines/maintain.
    add_documents); returns the index under a fresh ``<workdir><suffix>``."""
    from ..pipelines.maintain import add_documents

    work = _work_dir(sf_dir) + suffix
    shutil.rmtree(work, ignore_errors=True)
    full = pq.read_table(docs_as_pages(sf_dir, os.path.join(work, "pages_all", "part-0000.parquet")))
    half = full.num_rows // 2
    for name, part in (("pages_a", full.slice(0, half)), ("pages_b", full.slice(half))):
        os.makedirs(os.path.join(work, name))
        pq.write_table(part, os.path.join(work, name, "part-0000.parquet"))
    index = os.path.join(work, "index")
    build_index(os.path.join(work, "pages_a"), index, num_partitions=8, num_segments=2, n_salts=2)
    add_documents(index, os.path.join(work, "pages_b"), num_partitions=4)
    return index


def _delete_mod_and_compact(sf_dir: str, index: str) -> str:
    """Tombstone every doc whose SOURCE doc_id % DELETE_MOD == 0 (by url),
    then compact ``index``; returns it."""
    from ..pipelines.maintain import compact_index, delete_documents

    src = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    delete_documents(index, urls=[doc_url(i) for i in src["doc_id"].to_pylist() if i % DELETE_MOD == 0])
    compact_index(index)
    return index


def _query_table(query_texts, **cols) -> pa.Table:
    """The query table of a registry op: ``query_id`` = position, ``text``,
    then any extra ``cols`` (name → Arrow array; a ``query_id`` given
    there replaces the positional one)."""
    return pa.table(
        {
            "query_id": pa.array(range(len(query_texts)), pa.int64()),
            "text": pa.array(list(query_texts), pa.string()),
            **cols,
        }
    )


# the (query_id, rank, doc_id) ranking every top-k op returns, and the
# scored match set a re-ranking op reads
_RANKED = ("query_id", "rank", "doc_id")
_SCORED = ("query_id", "doc_id", "score")


def _rank_frame(ds, by=("query_id", "rank"), cols=None, index: str | None = None) -> pd.DataFrame:
    """The one result runner of the registry ops: read ``ds`` through its
    Arrow blocks, so every column keeps the op's Arrow type (rank int32)
    even when no row matched; with ``index``, attach each row's url from
    that index; rows carrying a url get their SOURCE doc_id (int64) back;
    then sort by ``by``, keep ``cols`` (all when None) and reset the
    index."""
    out = ds if index is None else attach_urls(ds, index)
    res = pa.concat_tables(ray.get(out.to_arrow_refs()), promote_options="default")
    if res.num_columns == 0:
        # nothing matched and Ray Data hands all-empty blocks to a second
        # map stage without their schema: take the op's own (re-run, empty)
        res = ds.schema().base_schema.empty_table()
        res = res if index is None else res.append_column("url", pa.array([], pa.string()))
    res = res.to_pandas()
    if "url" in res.columns:
        res["doc_id"] = res["url"].map(url_doc_id).astype("int64")
    res = res.sort_values(list(by))
    if cols is not None:
        res = res[list(cols)]
    return res.reset_index(drop=True)


def _rerank(res: pd.DataFrame, k: int, key: str = "score") -> pd.DataFrame:
    """A whole match set re-ranked in SOURCE doc_id space: (``key`` DESC,
    doc_id ASC) per query, the first k, as (query_id, rank:int32,
    doc_id:int64)."""
    res = res.sort_values(["query_id", key, "doc_id"], ascending=[True, False, True])
    out = res.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = (out.groupby("query_id").cumcount() + 1).astype("int32")
    return out[["query_id", "rank", "doc_id"]].astype({"query_id": "int64", "doc_id": "int64"})


def _run_queries(index: str, query_texts, k: int, mode: str, cols=_RANKED, **kw) -> pd.DataFrame:
    """query_index over ``query_texts`` (query_id = position), its doc_ids
    mapped to source ids, as ``cols`` in (query_id, rank) order."""
    ds = query_index(index, _query_table(query_texts), k=k, resolve_urls=False, mode=mode, **kw)
    return _rank_frame(ds, cols=cols, index=index)


def bm25_topk(sf_dir: str, k: int = 10, fresh: bool = True) -> pd.DataFrame:
    """Build the index over documents-as-pages and answer FT_QUERIES.
    Returns (query_id, rank, doc_id) — integer-only so the oracle compare is
    exact (scores are float and engine-order-sensitive in the last ulp)."""
    return _run_queries(_ensure_index(sf_dir, fresh=fresh), FT_QUERIES, k, "or")


# Conjunctive query set: FT_QUERIES plus a mixed in-vocab ∧ OOV query
# (AND semantics must empty it — the oracle's HAVING count = n does too).
FT_QUERIES_CONJ = FT_QUERIES + ("table zzznotinvocab",)

# Phrase query set (pre-normalized: lowercase, single spaces — engine
# tokenization of these strings is the identity split). Mix of common
# bigrams, a repeated-adjacent-word phrase, a trigram, a single word
# (phrase ≡ term lookup) and an OOV-containing phrase (must be empty).
FT_PHRASES = (
    "sort merge",
    "batch batch",
    "data line",
    "table scan merge",
    "window",
    "slow slow",
    "zzznotinvocab table",
)

# Frozen NEAR query set (all DISTINCT terms within NEAR_WINDOW consecutive
# tokens, unordered). Duplicate terms count once, like every other mode.
FT_NEARS = (
    "table query",
    "customer batch",
    "query group the",
    "zzznotinvocab table",
    "vector",
)
NEAR_WINDOW = 8

# Frozen span_near query set (tokens IN ORDER within len−1+SPAN_SLOP
# consecutive tokens). The first two entries are the same term pair in
# both orders — ordered semantics make them DIFFERENT queries, the exact
# distinction mode="near" (unordered) erases.
FT_SPANS = (
    "query the",
    "the query",
    "customer slow batch",
    "zzznotinvocab table",
    "vector",
)
SPAN_SLOP = 2

# Frozen ES intervals query set: whitespace-separated ORDERED slots, each
# slot '|'-separated any_of alternatives. Exercises head/tail alternation,
# an OOV alternative silently leaving its slot, a fully-OOV slot (must be
# empty), and the single-slot degenerate (containment of either term).
FT_INTERVALS = (
    "query|table the",
    "customer|zzznotinvocab slow|fast batch",
    "the query|group",
    "zzznotinvocab table",
    "vector|stream",
)
INTERVALS_MAX_GAPS = 2

# Frozen span_not query set: ``include_seq ! exclude_terms`` — an ordered
# include span (the span_near predicate) qualifies only when NO exclude
# occurrence lies inside its position window. Exercises live exclusion on
# a common pair (two variants), the OOV-exclude degenerate (== span_near
# for the same include, pinned by test), the provably-empty self-exclude,
# and a single-token include with a live exclude.
FT_SPAN_NOTS = (
    "query the ! table",
    "the query ! scan row",
    "the query ! zzznotinvocab",
    "vector ! vector",
    "window ! the",
)

# Frozen span_containing query set: ``big_seq @ little_terms`` — the dual
# of span_not (inner occurrence REQUIRED instead of vetoed). Exercises a
# live little on a common pair, the OOV-little degenerate (must be
# EMPTY), self-containment (== span_near, pinned by test), a single-token
# big, and a multi-little alternation.
FT_SPAN_CONTAININGS = (
    "query the @ table",
    "the query @ zzznotinvocab",
    "vector @ vector",
    "the @ query",
    "the query @ scan row",
)

# Frozen span_or query set: ``seq1 | seq2 | …`` — union of COMPLETE span
# clauses (the other Lucene SpanOr composition; intervals is SpanOr per
# slot INSIDE one SpanNear). Exercises the both-orders union (a superset
# of each span_near result), a multi-token∪single-token union, a dead
# alternative dropping silently, the idempotent self-union (== span_near,
# pinned by test), and the all-dead empty.
FT_SPAN_ORS = (
    "query the | the query",
    "customer slow batch | vector",
    "zzznotinvocab table | key value",
    "vector | vector",
    "zzznotinvocab | zzzalsodead",
)

# Frozen span_within query set: ``little_seq < big_seq`` — the dual of
# span_containing (the kept span is the INNER one; scoring follows it).
# Exercises a little that is itself a big member (every big window
# encloses its own pick), a DISJOINT little that must land inside a big
# window (genuinely selective), the self-within degenerate
# (== span_near, pinned by test), and both OOV empties (little AND big
# need positions — unlike span_not, where a dead exclude vetoes nothing).
FT_SPAN_WITHINS = (
    "query < the query",
    "key < the query",
    "vector < vector",
    "query < zzznotinvocab table",
    "zzznotinvocab < the query",
)

# Frozen span_multi query set: ordered slots where a trailing-``*`` slot
# rewrites against the term dictionary as a PrefixQuery and a trailing
# ``~`` slot as a FuzzyQuery d≤1 (Lucene SpanMultiTermQueryWrapper
# inside span_near). Exercises prefix-before-literal and the reversed
# order (distinct results — ordered semantics), the FT_PREFIXES pair made
# positional, a dead prefix slot (unfillable ⇒ empty), a three-slot
# two-prefix composite, and the FT_FUZZIES misspellings made positional
# (tabl→table before merge; quey→query after the).
FT_SPAN_MULTIS = (
    "qu* the",
    "the qu*",
    "b* line",
    "zz* table",
    "customer sl* b*",
    "tabl~ merge",
    "the quey~",
    "t*ble the",
    "s*ow *ine",
    "/s(low|mall)/ table",
    "the /gr[ou]+p/",
)

# Frozen prefix-wildcard query set: trailing ``*`` expands against the term
# dictionary (range scan); literals mix in unchanged. "s*" fans out to six
# corpus terms; "zz*" matches nothing (must be empty); the last entry mixes
# an expanding prefix with a dead one.
FT_PREFIXES = (
    "s*",
    "b* line",
    "qu* gr*",
    "zz*",
    "c* zz*",
)

# Frozen fuzzy query set: misspellings within edit distance 1 of corpus
# terms ("tabl"→table, "quey"→query, "kei"→key, "valu"→value), one clean
# term, and one hopeless token (no d≤1 neighbour → contributes nothing).
FT_FUZZIES = (
    "tabl merge",
    "quey",
    "kei valu",
    "zzznotinvocab",
    "window",
)

# Frozen maxEdits=2 fuzzy query set: typos UNREACHABLE at d≤1 —
# transpositions ("tabel"→table, "valeu"→value: plain Levenshtein counts
# a swap as 2), double substitutions ("quyre"→query, "hsah"→hash), a
# 2-short token with multi-term fan-out ("ky"→{key, a}), one clean term
# and the hopeless token (vocab is ≥3 edits away → contributes nothing).
FT_FUZZIES2 = (
    "tabel merge",
    "quyre",
    "hsah",
    "ky valeu",
    "zzznotinvocab",
    "window",
)

# Frozen boost query set: per-term weights (term^W), incl. fractional
# weights, a repeated term (weights SUM: table^2 table ≡ table^3), an
# unweighted control and an OOV boost (contributes nothing).
FT_BOOSTS = (
    "table^2 query",
    "customer^0.5 batch^3",
    "table^2 table",
    "zzznotinvocab^5 merge",
    "vector",
)

# Frozen boolean query set (+MUST, -MUST_NOT, bare SHOULD): exclusion,
# multi-must with a scoring-only should, a pure-negative query (empty by
# Lucene's rule) and an OOV must (empty).
# NOTE on the first entry: "+table -query merge" hit a knife-edge float
# tie at sf0.01 (two docs' two-term sums bit-equal in the oracle's
# evaluation order but one ulp apart in the engine's) — the two-should
# form avoids the tie; semantics are unchanged.
FT_BOOLEANS = (
    "+table -query merge small",
    "batch -customer",
    "+query +group window",
    "-table",
    "+zzznotinvocab table",
)


def bm25_topk_incremental(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Incremental-build exactness check, driver-visible: build the index
    over the FIRST HALF of documents, graft the second half in as a delta
    generation (pipelines/maintain.add_documents — disjoint doc space,
    shared plan, folded stats), then answer FT_QUERIES over the union.
    Shares fulltext_bm25_topk's full-corpus DuckDB oracle: an incremental
    index must be indistinguishable from a fresh build over everything."""
    return _run_queries(_halves_index(sf_dir, "_incr"), FT_QUERIES, k, "or")


def bm25_topk_phrase(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Exact-phrase retrieval over the same index (query_stage mode=
    "phrase"): conjunctive candidates → adjacency verified against the
    docs checkpoint → survivors ranked by the BM25 sum of the phrase's
    distinct terms. Oracle replays phrase containment with a substring
    match over the space-joined token string."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_PHRASES, k, "phrase")


DELETE_MOD = 5  # delete-compact rule: tombstone docs with doc_id % 5 == 0


def bm25_topk_deleted(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Delete-compact lifecycle, driver-visible: copy the cached index,
    tombstone every doc whose SOURCE doc_id % DELETE_MOD == 0 (resolved
    by url through pipelines/maintain.delete_documents), compact (purges
    tombstones; N/avgdl/df recomputed over survivors), then answer
    FT_QUERIES. The oracle replays BM25 over documents WHERE doc_id %
    DELETE_MOD <> 0 — exact, because post-compaction scoring must be
    indistinguishable from a fresh build over the surviving corpus.
    Pre-compaction (visibility-only, stale-stats) semantics are pinned in
    tests/test_deletes.py."""
    index = _delete_mod_and_compact(sf_dir, _index_copy(sf_dir, "_del"))
    return _run_queries(index, FT_QUERIES, k, "or")


def bm25_deleted_oracle_sql(k: int = 10) -> str:
    return bm25_oracle_sql(k, where=f"doc_id % {DELETE_MOD} <> 0")


def bm25_topk_lifecycle(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """The FULL index lifecycle as one driver-visible composite (VERDICT
    r4 Next #8): build the base over the first half of documents, graft
    the second half in as a delta GENERATION (pipelines/maintain.
    add_documents — disjoint doc space, shared plan, folded stats),
    delete every doc whose source doc_id % DELETE_MOD == 0 (url-resolved
    tombstones across BOTH generations), compact (purge + stats/df
    recompute + generation merge), then answer FT_QUERIES. The oracle is
    the same survivors-only BM25 replay as fulltext_bm25_deleted: after
    add→delete→compact the index must be indistinguishable from a fresh
    build over exactly the surviving corpus — one hash pins the whole
    maintain.py lifecycle end to end (the pieces are pinned separately
    by bm25_topk_incremental / _deleted / tests/test_maintain.py)."""
    index = _delete_mod_and_compact(sf_dir, _halves_index(sf_dir, "_life"))
    return _run_queries(index, FT_QUERIES, k, "or")


def bm25_topk_snapshot_pit(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Snapshot isolation, driver-visible (ES point-in-time + _snapshot
    composed): copy the cached index, SNAPSHOT it (checksummed catalog),
    then MUTATE the source (delete_by_query tombstones every doc
    containing DBQ terms — the pre-compaction visibility path), RESTORE
    the snapshot into a fresh dir and answer FT_QUERIES from the
    restore. The restore must reflect the PRE-mutation corpus exactly —
    same full-corpus oracle as fulltext_bm25_topk — which certifies (a)
    snapshot consistency without pausing writers (write-once files), (b)
    restore checksum integrity, (c) tombstones in the source never leak
    through repository files. Byte-level restore identity is pinned
    separately in tests/test_maintain.py."""
    from ..pipelines.maintain import delete_by_query, restore_index, snapshot_index

    src = _index_copy(sf_dir, "_pit")
    work = os.path.dirname(src)
    snap = os.path.join(work, "snap")
    snapshot_index(src, snap)
    delete_by_query(src, DBQ_TEXT, mode="and")  # mutate AFTER the snapshot
    restored = os.path.join(work, "restored")
    restore_index(snap, restored)
    return _run_queries(restored, FT_QUERIES, k, "or")


def bm25_topk_force_merged(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """ES _forcemerge / _shrink lifecycle, driver-visible: copy the
    cached 2-segment index, compact_index(num_segments=1) — postings
    re-assembled under a single coarsened term range, the persisted plan
    rewritten so future delta generations align — then answer FT_QUERIES
    off the merged layout. Scores and ranks must be bit-identical to the
    unmerged index (only the shard layout changed), so the oracle is the
    SAME full-corpus BM25 replay fulltext_bm25_topk uses; pytest
    (tests/test_maintain.py::test_force_merge_shrinks_segments_bitwise)
    additionally pins segment count and byte-level dict coarsening."""
    from ..pipelines.maintain import compact_index

    index = _index_copy(sf_dir, "_fm")
    compact_index(index, num_segments=1)
    return _run_queries(index, FT_QUERIES, k, "or")


# delete_by_query filter: conjunctive — docs containing BOTH terms die
DBQ_TEXT = "vector stream"


def bm25_topk_delete_by_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """ES _delete_by_query, PRE-compaction semantics (the state deletes
    live in until a merge): copy the cached index, delete_by_query the
    conjunctive match set of DBQ_TEXT (streamed straight to a tombstone
    generation — pipelines/maintain.delete_by_query), then answer
    FT_QUERIES. Visibility-only is the Lucene contract being pinned:
    tombstoned docs vanish from every ranking while N/avgdl/df keep the
    PRE-delete globals — so the oracle scores over the FULL corpus and
    only the eligibility anti-join excludes the deleted set. (The
    post-compaction fresh-stats contract is pinned separately by
    fulltext_bm25_deleted.)"""
    from ..pipelines.maintain import delete_by_query

    index = _index_copy(sf_dir, "_dbq")
    delete_by_query(index, DBQ_TEXT, mode="and")
    return _run_queries(index, FT_QUERIES, k, "or")


def bm25_delete_by_query_oracle_sql(k: int = 10) -> str:
    """Full-corpus-stats BM25 (stale statistics — the Lucene pre-merge
    contract) with the conjunctive DBQ_TEXT match set anti-joined out of
    the ranking."""
    dbq_terms = ",".join(f"'{t}'" for t in sorted(set(DBQ_TEXT.split())))
    n_dbq = len(set(DBQ_TEXT.split()))
    return f"""
WITH {_bm25_head()},
deleted AS (
  SELECT doc_id FROM (SELECT DISTINCT doc_id, tok FROM toks WHERE tok IN ({dbq_terms}))
  GROUP BY doc_id HAVING count(*) = {n_dbq}
),
{_qd(_values(FT_QUERIES))},
{_scored()},
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rank
  FROM scored
  WHERE doc_id NOT IN (SELECT doc_id FROM deleted)
)
{_top(k)}
"""


def bm25_topk_phrase_positional(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Exact-phrase retrieval over a POSITIONAL index (pos.bin sidecar):
    candidates from the conjunctive intersection, adjacency verified by
    sorted-intersection of decoded per-term position lists — no checkpoint
    text is read. Must be bit-identical to bm25_topk_phrase (the text-verify
    path), so it shares that query's DuckDB oracle; the positional-vs-text
    equivalence is additionally property-tested in tests/test_positions.py."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True), FT_PHRASES, k, "phrase"
    )


def bm25_topk_near(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Proximity retrieval (NEAR): a doc qualifies iff ALL the query's
    distinct terms occur within NEAR_WINDOW consecutive tokens (unordered
    min-cover-span ≤ window−1, query_stage mode="near"); survivors rank by
    the BM25 sum of the distinct terms. Runs over the positional index
    (span check from decoded pos.bin lists — the scale path); positional
    vs text-verify equivalence is pinned in tests/test_positions.py. The
    oracle replays the span predicate with an n-way self-join over token
    positions (min(GREATEST−LEAST) per doc)."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_NEARS, k, "near", near_window=NEAR_WINDOW,
    )


def bm25_near_oracle_sql(k: int = 10) -> str:
    """NEAR oracle: BM25 CTEs over FT_NEARS terms + a per-query proximity
    constraint — an n-way self-join of (doc_id, tok, pos) rows, qualifying
    a doc when MIN(GREATEST(pos…) − LEAST(pos…)) ≤ NEAR_WINDOW−1 (some
    pick of one occurrence per term spans < window). Single-term queries
    degenerate to containment (span 0)."""
    blocks = []
    for qid, q in enumerate(FT_NEARS):
        terms = sorted(set(q.split()))
        aliases = [f"p{i}" for i in range(len(terms))]
        joins = f"posi {aliases[0]}" + "".join(
            f" JOIN posi {a} USING (doc_id)" for a in aliases[1:]
        )
        conds = " AND ".join(f"{a}.tok = '{t}'" for a, t in zip(aliases, terms))
        cols = ", ".join(f"{a}.pos" for a in aliases)
        blocks.append(
            f"  SELECT {qid} AS query_id, {aliases[0]}.doc_id FROM {joins}\n"
            f"  WHERE {conds} GROUP BY 2\n"
            f"  HAVING MIN(GREATEST({cols}) - LEAST({cols})) <= {NEAR_WINDOW - 1}"
        )
    nears = "\n  UNION ALL\n".join(blocks)
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_NEARS))},
arr AS (SELECT doc_id,
               list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
        FROM documents),
posi AS (SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) - 1 AS pos FROM arr),
nears AS (
{nears}
),
{_scored(compact=True)},
{_ranked("scored s JOIN nears n ON n.query_id = s.query_id AND n.doc_id = s.doc_id", "s.score", "s")}
{_top(k)}
"""


# Frozen completion-suggest prefixes: fan-out ("s"), a narrower stem
# ("ta"), a single-hit stem, a dead prefix (no rows) and a multi-token
# input (invalid for completion — no rows, like ES).
FT_COMPLETIONS = (
    "s",
    "ta",
    "wind",
    "zz",
    "two words",
)
COMPLETION_SIZE = 5


def completion_suggest(sf_dir: str) -> pd.DataFrame:
    """Completion suggester (ES `completion`): each prefix expands against
    the sharded term dictionary (sorted-list range scan) and the top
    COMPLETION_SIZE completions rank by GLOBAL df (popularity), tie term
    ASC (pipelines/query.suggest_completions). Dead prefixes and
    multi-token inputs emit no rows. The oracle replays the ranking over
    the distinct-token vocabulary with a LIKE prefix join."""
    from ..pipelines.query import suggest_completions

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(suggest_completions(index, _query_table(FT_COMPLETIONS), size=COMPLETION_SIZE))


def completion_suggest_oracle_sql() -> str:
    """Completion oracle: vocabulary = distinct (tok, df) over the token
    split; per prefix, tokens LIKE 'p%' rank by (df DESC, tok ASC), top
    COMPLETION_SIZE. Multi-token prefixes are excluded up front (VALUES
    only carries the single-token ones — the engine contract)."""
    rows = []
    for qid, p in enumerate(FT_COMPLETIONS):
        toks = [t for t in p.lower().split() if t]
        if len(toks) == 1:
            rows.append(f"({qid}, '{toks[0]}')")
    values = ",".join(rows)
    return f"""
WITH {_toks()},
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY 1),
q(query_id, prefix) AS (VALUES {values}),
ranked AS (
  SELECT q.query_id, df.tok AS term, df.df,
         row_number() OVER (PARTITION BY q.query_id ORDER BY df.df DESC, df.tok) AS rank
  FROM q JOIN df ON df.tok LIKE q.prefix || '%'
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank, term, df
FROM ranked WHERE rank <= {COMPLETION_SIZE}
ORDER BY query_id, rank
"""


def adjacency_matrix_query(sf_dir: str) -> pd.DataFrame:
    """Adjacency-matrix aggregation (ES `adjacency_matrix`) over all
    ordered-unique pairs (i ≤ j) of FT_QUERIES: per pair, both disjunctive
    match-set sizes and their intersection — the query co-occurrence
    matrix (pipelines/query.adjacency_matrix). The diagonal pins
    n_ab == n_a == n_b; pairs involving the OOV query pin zeros. The
    oracle replays every cell with containment joins."""
    from ..pipelines.query import adjacency_matrix

    index = _ensure_index(sf_dir, fresh=False)
    n = len(FT_QUERIES)
    rows = [(i * n + j, FT_QUERIES[i], FT_QUERIES[j]) for i in range(n) for j in range(i, n)]
    pairs = pa.table(
        {
            "pair_id": pa.array([r[0] for r in rows], pa.int64()),
            "text_a": pa.array([r[1] for r in rows], pa.string()),
            "text_b": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    return _rank_frame(adjacency_matrix(index, pairs), by=("pair_id",))


def adjacency_matrix_oracle_sql() -> str:
    """Adjacency oracle: distinct containment match sets per query, then
    per-pair counts and an intersection join; zero cells survive via LEFT
    JOIN + coalesce (the matrix shape is fixed by the request)."""
    n = len(FT_QUERIES)
    pair_values = ",".join(
        f"({i * n + j}, {i}, {j})" for i in range(n) for j in range(i, n)
    )
    return f"""
WITH {_toks()},
qd(query_id, tok) AS (VALUES {_values(FT_QUERIES, _distinct_terms)}),
m AS (SELECT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok) GROUP BY 1, 2),
cnt AS (SELECT query_id, count(*) AS n FROM m GROUP BY 1),
pairs(pair_id, qa, qb) AS (VALUES {pair_values}),
inter AS (
  SELECT p.pair_id, count(*) AS n
  FROM pairs p
  JOIN m ma ON ma.query_id = p.qa
  JOIN m mb ON mb.query_id = p.qb AND mb.doc_id = ma.doc_id
  GROUP BY 1
)
SELECT CAST(p.pair_id AS BIGINT) AS pair_id,
       CAST(coalesce(ca.n, 0) AS BIGINT) AS n_a,
       CAST(coalesce(cb.n, 0) AS BIGINT) AS n_b,
       CAST(coalesce(i.n, 0) AS BIGINT) AS n_ab
FROM pairs p
LEFT JOIN cnt ca ON ca.query_id = p.qa
LEFT JOIN cnt cb ON cb.query_id = p.qb
LEFT JOIN inter i USING (pair_id)
ORDER BY pair_id
"""


def rank_eval_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Rank-eval (ES `_rank_eval`) over FT_QUERIES: the frozen disjunctive
    top-k graded against the DETERMINISTIC conjunctive-containment qrel
    (relevant ⇔ doc contains every distinct query token — exactly
    replayable in SQL, no hand labels). Integer metrics per query:
    n_rel, n_rel_at_k (precision@k numerator), first_rel_rank (MRR⁻¹;
    0 = none). The fully-OOV query must score (0, 0, 0)."""
    from ..pipelines.query import rank_eval

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(rank_eval(index, _query_table(FT_QUERIES), k=k), by=("query_id",))


def rank_eval_oracle_sql(k: int = 10) -> str:
    """Rank-eval oracle: the frozen BM25 ranking stack top-k LEFT-JOINed
    against the conjunctive-containment relevance set (docs holding ALL
    the query's distinct in-vocab tokens, count(DISTINCT tok) = the
    query's distinct-token count — an OOV token makes the count
    unreachable, emptying the set)."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
qn AS (SELECT query_id, count(*) AS n_terms FROM qd GROUP BY 1),
rel AS (
  SELECT qd.query_id, tf.doc_id
  FROM qd JOIN tf USING (tok) JOIN qn USING (query_id)
  GROUP BY 1, 2
  HAVING count(DISTINCT tok) = min(qn.n_terms)
),
{_scored(compact=True)},
{_ranked()},
nr AS (SELECT query_id, count(*) AS n_rel FROM rel GROUP BY 1),
tk AS (
  SELECT r.query_id,
         count(rel.doc_id) AS n_at_k,
         coalesce(min(CASE WHEN rel.doc_id IS NOT NULL THEN r.rank END), 0) AS first_rnk
  FROM ranked r LEFT JOIN rel ON rel.query_id = r.query_id AND rel.doc_id = r.doc_id
  WHERE r.rank <= {k}
  GROUP BY 1
),
qids AS (SELECT DISTINCT query_id FROM qd)
SELECT CAST(q.query_id AS BIGINT) AS query_id,
       CAST(coalesce(nr.n_rel, 0) AS BIGINT) AS n_rel,
       CAST(coalesce(tk.n_at_k, 0) AS BIGINT) AS n_rel_at_k,
       CAST(coalesce(tk.first_rnk, 0) AS BIGINT) AS first_rel_rank
FROM qids q LEFT JOIN nr USING (query_id) LEFT JOIN tk USING (query_id)
ORDER BY query_id
"""


def explain_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """EXPLAIN API (Lucene/ES `_explain`) over FT_QUERIES: for each query's
    top-k hits, one row per (hit, matched term) with the raw BM25 inputs —
    tf from the postings, GLOBAL df from the shard dictionaries, dl from
    the doclen sidecar (pipelines/query.explain_topk). Integer-only: the
    floats (idf, contribution, score) are pure functions of these rows
    plus (n_docs, avgdl) — tests pin that score_tf/idf over them
    reconstructs the hit's ranking score bit-exactly. The oracle replays
    the frozen ranking and joins the same statistics in SQL."""
    from ..pipelines.query import explain_topk

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(
        explain_topk(index, _query_table(FT_QUERIES), k=k), by=("query_id", "rank", "term"),
        cols=("query_id", "rank", "doc_id", "term", "tf", "df", "dl"), index=index,
    )


def explain_oracle_sql(k: int = 10) -> str:
    """Explain oracle: the frozen BM25 ranking stack (bm25_oracle_sql's
    CTEs) ranks FT_QUERIES' top-k, then each hit joins back the per-term
    tf / global df / doclen it was scored from — exactly the rows the
    engine's Explainer emits (absent terms emit no row)."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored(compact=True)},
{_ranked()}
SELECT CAST(r.query_id AS BIGINT) AS query_id, CAST(r.rank AS INTEGER) AS rank,
       r.doc_id, qd.tok AS term,
       CAST(tf.tf AS BIGINT) AS tf, CAST(df.df AS BIGINT) AS df,
       CAST(dl.dl AS BIGINT) AS dl
FROM ranked r
JOIN qd ON qd.query_id = r.query_id
JOIN tf ON tf.doc_id = r.doc_id AND tf.tok = qd.tok
JOIN df ON df.tok = qd.tok
JOIN dl ON dl.doc_id = r.doc_id
WHERE r.rank <= {k}
ORDER BY query_id, rank, term
"""


TV_NDOCS = 8  # termvectors targets: the TV_NDOCS smallest doc_ids


def term_vectors_query(sf_dir: str) -> pd.DataFrame:
    """TERMVECTORS API (ES `_termvectors` with term_statistics=true): for
    each of the TV_NDOCS smallest doc_ids, one row per distinct term of the
    doc with its tf, GLOBAL df and first position — and every statistic is
    read from the INDEX, not recomputed from text: tf from the decoded
    postings (the doc's entry lives in exactly ONE salt shard per term —
    asserted), first_pos from the pos.bin sidecar's per-posting sublist,
    df summed across term shards (the invariant: never per-segment). The
    stored text is used only to ENUMERATE the doc's terms (a term-sharded
    index has no forward index; ES stores term vectors per doc for the
    same reason). Point-lookup API ⇒ driver-side like spell_suggest; the
    scale path per term is a skip-seek into the one block containing
    doc_id instead of the full postings decode used here."""
    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment

    index = _ensure_index(sf_dir, fresh=False, positions=True)
    targets = sorted(
        pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )["doc_id"].to_pylist()
    )[:TV_NDOCS]
    # index doc_ids are (pid<<40)|row — the stable external key is the URL
    urls = {doc_url(int(t)): int(t) for t in targets}
    docs = pq.read_table(
        os.path.join(index, "docs"),
        columns=["doc_id", "url", "text"],
        filters=[("url", "in", list(urls))],
    )
    by_doc = {
        urls[u]: (int(ixid), t)
        for ixid, u, t in zip(
            docs["doc_id"].to_pylist(), docs["url"].to_pylist(), docs["text"].to_pylist()
        )
    }
    segs = [Segment(index, sid) for sid in list_segments(index)]

    rows = []
    for did in targets:
        did = int(did)
        index_id, text = by_doc[did]
        for term in sorted(set(tokenize(text))):
            df = sum(sg.dict[term][0] for sg in segs if term in sg.dict)
            hits = []
            for sg in segs:
                got = sg.term_postings(term)
                if got is None:
                    continue
                doc_ids, tfs = got
                i = int(np.searchsorted(doc_ids, index_id))
                if i < len(doc_ids) and int(doc_ids[i]) == index_id:
                    vals, bounds = sg.term_positions(term)
                    hits.append((int(tfs[i]), int(vals[bounds[i] + 1])))
            assert len(hits) == 1, f"doc {did} term {term!r} in {len(hits)} shards"
            tf, first_pos = hits[0]
            rows.append((did, term, tf, df, first_pos))
    out = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df", "first_pos"])
    for c in ("doc_id", "tf", "df", "first_pos"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "term"]).reset_index(drop=True)


def term_vectors_oracle_sql() -> str:
    """Termvectors oracle: per-doc (term, tf, min position) over the
    TV_NDOCS smallest doc_ids joined with the corpus-wide distinct-doc df
    — the exact statistics the engine gathers from postings/pos.bin."""
    return f"""
WITH arr AS (
  SELECT doc_id,
         list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
  FROM documents
),
posi AS (SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) - 1 AS pos FROM arr),
sel AS (SELECT doc_id FROM documents ORDER BY doc_id LIMIT {TV_NDOCS}),
tv AS (
  SELECT doc_id, tok, count(*) AS tf, min(pos) AS first_pos
  FROM posi JOIN sel USING (doc_id) GROUP BY 1, 2
),
df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM posi GROUP BY 1)
SELECT tv.doc_id, tv.tok AS term, CAST(tv.tf AS BIGINT) AS tf,
       CAST(df.df AS BIGINT) AS df, CAST(tv.first_pos AS BIGINT) AS first_pos
FROM tv JOIN df USING (tok)
ORDER BY doc_id, term
"""


def bm25_topk_span_near(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Ordered proximity (Lucene span_near in_order=true): a doc qualifies
    iff the query's tokens occur AS A SEQUENCE (strictly increasing
    positions) within len(seq)−1+SPAN_SLOP consecutive tokens — slop=0 is
    exact phrase, and unlike mode="near" the queries "query the" and
    "the query" are different. Runs over the positional index (ordered
    min-span from decoded pos.bin via the greedy chain in
    query_stage._min_ordered_span); survivors rank by the BM25 sum of the
    distinct terms. The oracle replays the predicate with an n-way ordered
    positional self-join (p1 < p2 < … < pn, MIN(pn−p1) ≤ n−1+slop)."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPANS, k, "span_near", span_slop=SPAN_SLOP,
    )


TH_LANGS = ("en", "de", "zh")  # top_hits buckets (frozen subset of the facet)
TH_SIZE = 2                    # hits per bucket (ES top_hits size)


def top_hits_query(sf_dir: str, size: int = TH_SIZE) -> pd.DataFrame:
    """ES ``top_hits`` aggregation: per query, per ``lang`` facet bucket,
    the top ``size`` hits by the GLOBAL BM25 ranking (ES semantics: the
    aggregation buckets the query's match set; scores are the query's,
    never renormalized per bucket — exactly this engine's filter-invariant
    scoring contract). Runs as one facet-filtered retrieval per bucket
    (filter_ids from the lang docvalue; statistics stay global so a doc's
    score is identical in and out of a bucket), which at cluster scale is
    the same partition-pruned gather as any filtered query — no extra
    all-to-all. Output (query_id, lang, rank, doc_id); empty buckets
    yield no rows (ES returns an empty hits array). Oracle: row_number
    over (query, lang) partitions of the standard BM25 stack."""
    from ..pipelines.query import facet_doc_ids

    index = _ensure_index(sf_dir, fresh=False)
    parts = []
    for lang in TH_LANGS:
        allowed = facet_doc_ids(index, "lang", (lang,))
        res = _run_queries(index, FT_QUERIES, size, "or", filter_ids=allowed)
        res.insert(1, "lang", lang)
        parts.append(res)
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["query_id", "lang", "rank"]).reset_index(drop=True)


def top_hits_oracle_sql(size: int = TH_SIZE) -> str:
    """top_hits oracle: the standard BM25 stack scored per query, joined to
    the documents' lang docvalue, row_number per (query, lang) bucket."""
    langs = ",".join(f"'{l}'" for l in TH_LANGS)
    return f"""
WITH {_bm25_head()},
qd(query_id, tok) AS (VALUES {_values(FT_QUERIES, _distinct_terms)}),
{_scored(compact=True)},
ranked AS (
  SELECT s.query_id, d.lang, s.doc_id,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id) AS rank
  FROM scored s JOIN documents d USING (doc_id)
  WHERE d.lang IN ({langs})
)
SELECT CAST(query_id AS BIGINT) AS query_id, lang, CAST(rank AS INTEGER) AS rank, doc_id
FROM ranked WHERE rank <= {size}
ORDER BY query_id, lang, rank
"""


def bm25_topk_intervals(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """ES intervals query (all_of ordered + any_of slots): each query is a
    sequence of slots, a slot matching ANY of its '|'-alternatives; a doc
    qualifies iff one occurrence per slot can be picked with strictly
    increasing positions within n_slots−1+INTERVALS_MAX_GAPS consecutive
    tokens (Lucene SpanOr inside SpanNear). Survivors rank by the BM25 sum
    of the distinct alternatives the doc contains. Runs over the
    positional index; the oracle replays the predicate with per-slot
    ``tok IN (…)`` positional self-joins."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_INTERVALS, k, "intervals", max_gaps=INTERVALS_MAX_GAPS,
    )


def bm25_intervals_oracle_sql(k: int = 10) -> str:
    """intervals oracle: the span_near oracle generalized — each sequence
    alias constrains ``tok IN (slot alternatives)`` instead of one term,
    and the BM25 CTE sums over every alternative PRESENT in the doc
    (absent alternatives simply don't join). Single-slot queries
    degenerate to containment-of-any."""
    parsed = [
        [sorted(set(slot.split("|"))) for slot in q.split()] for q in FT_INTERVALS
    ]
    values = _values(parsed, lambda slots: sorted({t for s in slots for t in s}))
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, slots, len(slots) - 1 + INTERVALS_MAX_GAPS,
                    cond=lambda col, s: f"{col} IN ({', '.join(repr(t) for t in s)})")
        for qid, slots in enumerate(parsed)
    )
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {values})", spans, k
    )


def _bm25_spans_oracle_sql(qd_block: str, spans: str, k: int) -> str:
    """The span family's shared oracle TEMPLATE — the frozen BM25 CTE
    stack (toks/dl/stats/tf/df + positional arr/posi + scored/ranked,
    byte-identical in every span oracle) with only the two per-mode
    parts injected: ``qd_block`` (the scoring-vocabulary CTE — VALUES
    for literal query sets, computed for dictionary rewrites) and
    ``spans`` (the per-query match-set blocks, ``_span_block``).
    Single-sourced so a change to the frozen scoring form cannot
    desynchronize one span oracle (intervals included) from the others."""
    return f"""
WITH {_bm25_head()},
{qd_block},
arr AS (SELECT doc_id,
               list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
        FROM documents),
posi AS (SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) - 1 AS pos FROM arr),
spans AS (
{spans}
),
{_scored(compact=True)},
{_ranked("scored s JOIN spans n ON n.query_id = s.query_id AND n.doc_id = s.doc_id", "s.score", "s")}
{_top(k)}
"""


def _span_block(qid: int, items, limit: int, cond=lambda col, t: f"{col} = '{t}'",
                veto: str | None = None, a: str = "p") -> str:
    """One query's ordered-span match block over ``posi``: alias ``{a}i``
    picks a position where ``cond(col, items[i])`` holds, picks strictly
    increase, and the first-to-last distance is at most ``limit`` — over
    the doc's best tuple (HAVING MIN) or, when ``veto`` is given (extra
    ``AND`` lines over the tuple, possibly none), per tuple."""
    al = [f"{a}{i}" for i in range(len(items))]
    joins = f"posi {al[0]}" + "".join(f" JOIN posi {x} USING (doc_id)" for x in al[1:])
    where = " AND ".join(
        [cond(f"{x}.tok", t) for x, t in zip(al, items)]
        + [f"{al[i + 1]}.pos > {al[i]}.pos" for i in range(len(al) - 1)]
    )
    head = f"  SELECT {qid} AS query_id, {al[0]}.doc_id FROM {joins}\n  WHERE {where}"
    span = f"{al[-1]}.pos - {al[0]}.pos"
    if veto is None:
        return f"{head} GROUP BY 2\n  HAVING MIN({span}) <= {limit}"
    return f"{head}\n    AND {span} <= {limit}\n{veto}  GROUP BY 2"


def _in_window(kw: str, toks, n: int) -> str:
    """A ``_span_block`` veto: ``kw`` ("EXISTS" or "NOT EXISTS") a
    position of one of ``toks`` inside the window of picks p0..p{n-1}."""
    listed = ",".join(f"'{t}'" for t in toks)
    return (
        f"    AND {kw} (SELECT 1 FROM posi e\n"
        f"      WHERE e.doc_id = p0.doc_id AND e.tok IN ({listed})\n"
        f"        AND e.pos BETWEEN p0.pos AND p{n - 1}.pos)\n"
    )


def bm25_span_near_oracle_sql(k: int = 10) -> str:
    """span_near oracle: BM25 CTEs over each query's DISTINCT terms + a
    per-query ORDERED proximity constraint — an n-way self-join of
    (doc_id, tok, pos) rows aliased per SEQUENCE position (duplicate
    query tokens reuse the same tok in two aliases), qualifying a doc when
    MIN(p_last − p_first) ≤ n−1+slop over strictly-increasing picks.
    Single-token queries degenerate to containment."""
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, q.split(), len(q.split()) - 1 + SPAN_SLOP)
        for qid, q in enumerate(FT_SPANS)
    )
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {_values(FT_SPANS, _distinct_terms)})", spans, k
    )


def bm25_topk_span_not(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Lucene ``span_not`` (pre=post=0) — the last member of the span
    family (span_near=ordered, span_first=lead-gated, intervals=SpanOr
    inside SpanNear): each FT_SPAN_NOTS query is ``include ! exclude``,
    matching docs where SOME ordered include span (within
    len(seq)−1+SPAN_SLOP tokens) contains NO exclude occurrence.
    Exclusion vetoes spans, never statistics: survivors rank by the BM25
    sum of the DISTINCT include terms, exactly span_near's scoring (the
    OOV-exclude query is pinned equal to span_near by test; ``t ! t`` is
    provably empty). Oracle: the span_near n-way ordered positional
    self-join per query plus a NOT EXISTS exclude-position-in-window
    veto per tuple — a doc qualifies when at least one clean tuple
    survives."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPAN_NOTS, k, "span_not", span_slop=SPAN_SLOP,
    )


def bm25_span_not_oracle_sql(k: int = 10) -> str:
    """span_not oracle: BM25 CTEs over each query's DISTINCT INCLUDE
    terms + per-query ordered self-join spans with a NOT EXISTS
    exclude-in-window veto (EXISTS-a-clean-tuple ≡ the engine's
    greedy-per-start check, exact by the superset-window argument in
    query_stage._clean_span_exists)."""
    parsed = []
    for q in FT_SPAN_NOTS:
        inc, exc = q.split("!", 1)
        parsed.append((inc.split(), sorted(set(exc.split()))))
    values = _values(parsed, lambda p: sorted(set(p[0])))
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, seq, len(seq) - 1 + SPAN_SLOP,
                    veto=_in_window("NOT EXISTS", excl, len(seq)))
        for qid, (seq, excl) in enumerate(parsed)
    )
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {values})", spans, k
    )


def bm25_topk_span_containing(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Lucene ``span_containing`` — the span family's last member
    (span_near=ordered, span_first=lead-gated, span_not=veto,
    intervals=SpanOr-in-SpanNear, this=inner-REQUIRED): each
    FT_SPAN_CONTAININGS query is ``big @ little``, matching docs where
    SOME ordered big span (within len(seq)−1+SPAN_SLOP tokens) contains
    an occurrence of any little term. Survivors rank by the BM25 sum of
    the DISTINCT big terms. OOV little ⇒ empty (containment needs a
    position — the opposite of span_not's degeneracy); ``t @ t`` ==
    span_near(t), both pinned by test. Oracle: the span_near n-way
    ordered self-join plus an EXISTS little-in-window requirement, with
    the widest-achievable-window argument (query_stage.
    _containing_span_exists) making EXISTS-a-containing-tuple exact."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPAN_CONTAININGS, k, "span_containing", span_slop=SPAN_SLOP,
    )


def bm25_span_containing_oracle_sql(k: int = 10) -> str:
    """span_containing oracle: BM25 CTEs over each query's DISTINCT BIG
    terms + per-query ordered self-join spans with an EXISTS
    little-in-window requirement per tuple."""
    parsed = []
    for q in FT_SPAN_CONTAININGS:
        big, little = q.split("@", 1)
        parsed.append((big.split(), sorted(set(little.split()))))
    values = _values(parsed, lambda p: sorted(set(p[0])))
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, seq, len(seq) - 1 + SPAN_SLOP,
                    veto=_in_window("EXISTS", little, len(seq)))
        for qid, (seq, little) in enumerate(parsed)
    )
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {values})", spans, k
    )


def bm25_topk_span_or(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Lucene ``span_or`` over whole sequences — the union composition
    completing the span family (span_near=ordered, span_first=lead-gated,
    span_not=veto, span_containing=inner-required, span_within=inner-kept,
    intervals=per-slot SpanOr INSIDE one SpanNear): each FT_SPAN_ORS
    query is ``seq1 | seq2 | …``, matching docs where ANY alternative
    ordered sequence occurs within len(alt)−1+SPAN_SLOP tokens. A dead
    (OOV) alternative drops silently; ``t | t`` == span_near(t), pinned
    by test. Survivors rank by the BM25 sum of the DISTINCT terms across
    ALL alternatives (absent terms contribute 0). Oracle: one span_near
    ordered self-join block per (query, alternative), UNION ALL'd into
    the match set (query_stage._score_query_span_or)."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPAN_ORS, k, "span_or", span_slop=SPAN_SLOP,
    )


def bm25_span_or_oracle_sql(k: int = 10) -> str:
    """span_or oracle: BM25 CTEs over the union of each query's DISTINCT
    terms across alternatives + per-(query, alternative) ordered
    self-join span blocks UNION ALL'd — a doc matches iff any
    alternative's block emits it."""
    parsed = [
        [alt.split() for alt in q.split("|") if alt.split()] for q in FT_SPAN_ORS
    ]
    values = _values(parsed, lambda alts: sorted({t for a in alts for t in a}))
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, seq, len(seq) - 1 + SPAN_SLOP, veto="")
        for qid, alts in enumerate(parsed)
        for seq in alts
    )
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {values})",
        # a doc matches iff ANY alternative's block emits it
        "  SELECT DISTINCT query_id, doc_id FROM (\n" + spans + "\n  )",
        k,
    )


def bm25_topk_span_within(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Lucene ``span_within`` — the dual of span_containing, completing
    the enclosure pair: each FT_SPAN_WITHINS query is
    ``little_seq < big_seq``, matching docs where some ordered LITTLE
    span (within len(little)−1+SPAN_SLOP tokens) lies fully inside the
    inclusive window of some ordered BIG span (within
    len(big)−1+SPAN_SLOP tokens). The kept span is the INNER one, so
    survivors rank by the BM25 sum of the DISTINCT LITTLE terms (Lucene
    scores SpanWithin by the little clause). OOV little OR big ⇒ empty;
    ``t < t`` == span_near(t), pinned by test. Oracle: a little ordered
    self-join nested with an EXISTS big self-join enclosing it
    (query_stage._within_span_exists — exact by the
    widest-achievable-window + greedy-inside-window arguments)."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPAN_WITHINS, k, "span_within", span_slop=SPAN_SLOP,
    )


def bm25_span_within_oracle_sql(k: int = 10) -> str:
    """span_within oracle: BM25 CTEs over each query's DISTINCT LITTLE
    terms + per-query little ordered self-joins with an EXISTS
    big-self-join-enclosure requirement per tuple (SQL enumerates ALL
    (big pick, little pick) combinations — the engine's widest-window
    argument makes its greedy check exactly equivalent)."""
    parsed = []
    for q in FT_SPAN_WITHINS:
        little, big = q.split("<", 1)
        parsed.append((little.split(), big.split()))
    values = _values(parsed, lambda p: sorted(set(p[0])))
    blocks = []
    for qid, (little, big) in enumerate(parsed):
        first, last = "q0", f"q{len(little) - 1}"
        b_aliases = [f"b{i}" for i in range(len(big))]
        b_from = ", ".join(f"posi {a}" for a in b_aliases)
        b_conds = [f"{a}.doc_id = {first}.doc_id" for a in b_aliases]
        b_conds += [f"{a}.tok = '{t}'" for a, t in zip(b_aliases, big)]
        b_conds += [
            f"{b_aliases[i + 1]}.pos > {b_aliases[i]}.pos"
            for i in range(len(big) - 1)
        ]
        b_limit = len(big) - 1 + SPAN_SLOP
        b_conds.append(f"{b_aliases[-1]}.pos - {b_aliases[0]}.pos <= {b_limit}")
        # enclosure: little fully inside the big inclusive window
        b_conds.append(f"{b_aliases[0]}.pos <= {first}.pos")
        b_conds.append(f"{last}.pos <= {b_aliases[-1]}.pos")
        veto = (
            f"    AND EXISTS (SELECT 1 FROM {b_from}\n"
            f"      WHERE {' AND '.join(b_conds)})\n"
        )
        blocks.append(
            _span_block(qid, little, len(little) - 1 + SPAN_SLOP, veto=veto, a="q")
        )
    spans = "\n  UNION ALL\n".join(blocks)
    return _bm25_spans_oracle_sql(
        f"qd(query_id, tok) AS (VALUES {values})", spans, k
    )


def bm25_topk_span_multi(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Lucene ``SpanMultiTermQueryWrapper`` inside ``span_near`` — the
    span-family member that composes with the DICTIONARY: each
    FT_SPAN_MULTIS query is a sequence of ordered slots, a trailing-``*``
    slot rewriting to the SpanOr of every dictionary term with that
    prefix (the spanRewriteMethod) and a bare slot staying literal; a doc
    qualifies iff one occurrence per slot can be picked with strictly
    increasing positions within n_slots−1+SPAN_SLOP consecutive tokens.
    An unfillable slot (dead prefix / OOV literal) empties the result.
    Survivors rank by the BM25 sum of the DISTINCT expanded alternatives
    the doc contains, each with its own global df/idf (the
    scoring_boolean rewrite prefix mode also uses). Engine: prefix
    slots expand via the sorted-dict range scan, then the intervals
    kernel (query_stage._score_slot_sequence) verifies; oracle: the
    intervals self-join with LIKE slot conditions and a LIKE-expanded
    scoring vocabulary."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False, positions=True),
        FT_SPAN_MULTIS, k, "span_multi", span_slop=SPAN_SLOP,
    )


def bm25_span_multi_oracle_sql(k: int = 10) -> str:
    """span_multi oracle: the intervals ordered self-join with per-slot
    ``tok LIKE 'stem%'`` / ``tok = 'lit'`` conditions, and a scoring
    vocabulary expanded with the same LIKE patterns against the
    distinct-token vocab (UNION dedupes terms shared across slots)."""

    def slot_cond(col: str, raw: str) -> str:
        if raw.startswith("/") and raw.endswith("/") and len(raw) > 2:
            return f"regexp_full_match({col}, '{raw[1:-1]}')"
        if "*" in raw:  # prefix AND general wildcard: * ↔ SQL %
            return f"{col} LIKE '{raw.replace('*', '%')}'"
        if raw.endswith("~"):
            return f"levenshtein({col}, '{raw[:-1]}') <= 1"
        return f"{col} = '{raw}'"

    qd = "\n  UNION\n".join(
        f"  SELECT {qid} AS query_id, tok FROM vocab WHERE {slot_cond('tok', raw)}"
        for qid, q in enumerate(FT_SPAN_MULTIS)
        for raw in q.split()
    )
    spans = "\n  UNION ALL\n".join(
        _span_block(qid, q.split(), len(q.split()) - 1 + SPAN_SLOP, cond=slot_cond)
        for qid, q in enumerate(FT_SPAN_MULTIS)
    )
    return _bm25_spans_oracle_sql(
        "vocab AS (SELECT DISTINCT tok FROM toks),\nqd AS (\n" + qd + "\n)",
        spans, k,
    )


def bm25_topk_prefix(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Wildcard retrieval: trailing-``*`` query terms expand to every
    dictionary term with that prefix (per-segment sorted-term bisection,
    query_stage.QueryScorer._expand_prefix), then ordinary disjunctive
    BM25 over the union — each expanded term scored with its own global
    df/idf (Lucene scoring_boolean rewrite). The oracle replays the
    expansion with a LIKE join against the distinct-token vocabulary."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_PREFIXES, k, "prefix")


def bm25_prefix_oracle_sql(k: int = 10) -> str:
    """Prefix oracle: the standard BM25 CTE stack, but the query→term map
    goes through the vocabulary — literal tokens join on equality, ``p*``
    patterns join on ``tok LIKE 'p%'`` — so each query scores the DISTINCT
    union of its literal + expanded terms, exactly the engine's rewrite."""
    rows = []
    for qid, q in enumerate(FT_PREFIXES):
        for raw in q.split():
            if raw.endswith("*"):
                rows.append(f"({qid}, '{raw[:-1]}', true)")
            else:
                rows.append(f"({qid}, '{raw}', false)")
    values = ",".join(rows)
    return f"""
WITH {_bm25_head()},
vocab AS (SELECT DISTINCT tok FROM tf),
q(query_id, pat, is_prefix) AS (VALUES {values}),
qd AS (
  SELECT DISTINCT q.query_id, v.tok
  FROM q JOIN vocab v
    ON (q.is_prefix AND v.tok LIKE q.pat || '%')
    OR (NOT q.is_prefix AND v.tok = q.pat)
),
{_scored()},
{_ranked()}
{_top(k)}
"""


# General-wildcard query set: suffix (*ow), infix (c*er), contains (*or*),
# multi-star (s*m*), a no-match pattern, and mixes with literal terms.
FT_WILDCARDS = (
    "*ow",
    "c*er",
    "*or* data",
    "s*m*",
    "*zzz*",
    "*a* the",
)


def bm25_topk_wildcard(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """General wildcard retrieval (``*`` anywhere — Lucene WildcardQuery):
    patterns expand against the term dictionary (prefix-ranged scan when a
    literal prefix exists, else a vocabulary-bounded full scan) and the
    union scores as disjunctive BM25 with per-term global df/idf
    (query_stage.QueryScorer._expand_wildcard)."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_WILDCARDS, k, "wildcard")


def bm25_wildcard_oracle_sql(k: int = 10) -> str:
    """Wildcard oracle: the prefix oracle generalized — ``*`` patterns
    join the vocabulary with LIKE ('*' → '%'), literal tokens on
    equality; then the standard BM25 stack over the expanded union."""
    rows = []
    for qid, q in enumerate(FT_WILDCARDS):
        for raw in q.split():
            if "*" in raw:
                rows.append(f"({qid}, '{raw.lower().replace('*', '%')}', true)")
            else:
                rows.append(f"({qid}, '{raw}', false)")
    values = ",".join(rows)
    return f"""
WITH {_bm25_head()},
vocab AS (SELECT DISTINCT tok FROM tf),
q(query_id, pat, is_wild) AS (VALUES {values}),
qd AS (
  SELECT DISTINCT q.query_id, v.tok
  FROM q JOIN vocab v
    ON (q.is_wild AND v.tok LIKE q.pat)
    OR (NOT q.is_wild AND v.tok = q.pat)
),
{_scored()},
{_ranked()}
{_top(k)}
"""


PR_PROBES = (20, 40, 60)  # percentile_ranks probes over doclen ∈ [10,99]


def percentile_ranks_query(sf_dir: str) -> pd.DataFrame:
    """Percentile-ranks aggregation per FT_QUERY (ES percentile_ranks
    over the doclen docvalue, exact integer form): for each probe value,
    how many matching docs have doclen ≤ probe, plus the match-set size
    (the ES percentage is the client-side float ratio). Output
    (query_id, probe, n_le, n_docs) — hash-exact
    (pipelines/query.percentile_ranks)."""
    from ..pipelines.query import percentile_ranks

    index = _ensure_index(sf_dir, fresh=False)
    out = percentile_ranks(index, _query_table(FT_QUERIES), field="doclen", probes=PR_PROBES)
    return _rank_frame(out, by=("query_id", "probe"))


def percentile_ranks_oracle_sql() -> str:
    probes = ",".join(f"({p})" for p in PR_PROBES)
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
p(probe) AS (VALUES {probes})
SELECT CAST(m.query_id AS BIGINT) AS query_id,
       CAST(p.probe AS BIGINT) AS probe,
       CAST(count(*) FILTER (WHERE dl.dl <= p.probe) AS BIGINT) AS n_le,
       CAST(count(*) AS BIGINT) AS n_docs
FROM matched m JOIN dl USING (doc_id) CROSS JOIN p
GROUP BY 1, 2
ORDER BY 1, 2
"""


AN_NDOCS = 8  # analyze API: the AN_NDOCS smallest doc_ids


def _analyze_batch(batch: pa.Table) -> pa.Table:
    """Stateless analysis stage (ES `_analyze` over a doc stream): the
    engine's FROZEN normalize+tokenize chain (textnorm — the exact code
    the index build runs) applied per doc, emitting one row per token
    with its 1-based position. Streams through map_batches like
    percolation; composes with any corpus-sized input."""
    from ..textnorm import tokenize as _tok

    ids_out: list[int] = []
    pos_out: list[int] = []
    toks_out: list[str] = []
    for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        toks = _tok(text)
        ids_out.extend([did] * len(toks))
        pos_out.extend(range(1, len(toks) + 1))
        toks_out.extend(toks)
    return pa.table(
        {
            "doc_id": pa.array(ids_out, pa.int64()),
            "pos": pa.array(pos_out, pa.int64()),
            "token": pa.array(toks_out, pa.string()),
        }
    )


def analyze_query(sf_dir: str) -> pd.DataFrame:
    """ES `_analyze` as a first-class queryable op: the AN_NDOCS smallest
    docs' texts through the engine's frozen analysis chain, one row per
    (doc_id, position, token). The oracle replays the chain with the
    regexp split + a range-join for ordinality — auditing the tokenizer
    itself, token order included (every other oracle only sees bags)."""
    import pyarrow.dataset as pads
    import ray.data

    # predicate pushdown at the read (row-group pruning + fragment-level
    # filter) — at 100x scale the previous per-row lambda filter was a
    # full-corpus Python loop to select a handful of docs
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pads.field("doc_id") < AN_NDOCS,
    )
    return _rank_frame(ds.map_batches(_analyze_batch, batch_format="pyarrow"), by=("doc_id", "pos"))


def analyze_oracle_sql() -> str:
    return f"""
WITH docs AS (
  SELECT doc_id,
         list_filter({TOKENIZE_SQL}, x -> x <> '') AS l
  FROM documents WHERE doc_id < {AN_NDOCS}
),
idx AS (SELECT unnest(range(1, 1001)) AS pos)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(i.pos AS BIGINT) AS pos,
       d.l[i.pos] AS token
FROM docs d, idx i
WHERE i.pos <= len(d.l)
ORDER BY doc_id, pos
"""


# query_string mini-language set: one query per construct family —
# MUST+boost, phrase+MUST_NOT, prefix group + fractional boost, the full
# composite, pure-negative (empty), OOV MUST (empty), repeated-term
# weight summing.
FT_QS = (
    '+table spark^2',
    '"group the" -batch',
    'quer* merge^0.5',
    '+vector "slow merge" -key',
    '-table',
    '+zzznotinvocab table',
    'key row^2 row',
)


def bm25_topk_query_string(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """The ES/Lucene ``query_string`` entry point: one string composes
    phrases, +/- occur clauses, ^boosts and prefix wildcards
    (query_stage.parse_query_string — shared verbatim with the oracle
    generator — and QueryScorer._score_query_qs)."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_QS, k, "query_string")


def bm25_query_string_oracle_sql(k: int = 10) -> str:
    """query_string oracle, GENERATED from the same parse the engine uses
    (the boost-oracle precedent — the parse is shared code; what the SQL
    independently replays is the retrieval semantics given the parse):
    summed per-term weights (prefix items expand against the vocabulary
    with LIKE), conjunctive eligibility over MUST ∪ phrase terms with
    substring-verified phrases, SHOULD-union eligibility otherwise,
    MUST_NOT anti-join, weighted BM25 scoring over the eligible set."""
    from ..stages.query_stage import parse_query_string

    wlit_rows: list[str] = []
    wpre_rows: list[str] = []
    mreq_rows: list[str] = []
    phr_rows: list[str] = []
    mn_rows: list[str] = []
    for qid, q in enumerate(FT_QS):
        phrases, must, must_not, should = parse_query_string(q)
        wmap: dict[str, float] = {}
        req: set[str] = set(must)
        for t in set(must):
            wmap[t] = wmap.get(t, 0.0) + 1.0
        for p in phrases:
            toks = p.split()
            req |= set(toks)
            for t in set(toks):
                wmap[t] = wmap.get(t, 0.0) + 1.0
            phr_rows.append(f"({qid}, '{p}')")
        for item, w in should:
            if item.endswith("*"):
                wpre_rows.append(f"({qid}, '{item[:-1]}', {w!r})")
            else:
                wmap[item] = wmap.get(item, 0.0) + w
        for t, w in sorted(wmap.items()):
            wlit_rows.append(f"({qid}, '{t}', {w!r})")
        for t in sorted(req):
            mreq_rows.append(f"({qid}, '{t}')")
        for t in sorted(set(must_not)):
            mn_rows.append(f"({qid}, '{t}')")
    sent = "(-1, 'zzzsentinel')"
    sentw = "(-1, 'zzzsentinel', 0.0)"
    wlit = ",".join(wlit_rows) or sentw
    wpre = ",".join(wpre_rows) or sentw
    mreq = ",".join(mreq_rows) or sent
    phr = ",".join(phr_rows) or sent
    mn = ",".join(mn_rows) or sent
    return f"""
WITH {_toks()},
toksd AS (SELECT DISTINCT doc_id, tok FROM toks),
{_bm25_stats()},
vocab AS (SELECT DISTINCT tok FROM tf),
{_token_string()},
wlit(query_id, tok, w) AS (VALUES {wlit}),
wpre(query_id, pre, w) AS (VALUES {wpre}),
wexp AS (
  SELECT query_id, tok, w FROM wlit WHERE query_id >= 0
  UNION ALL
  SELECT p.query_id, v.tok, p.w FROM wpre p JOIN vocab v ON v.tok LIKE p.pre || '%'
  WHERE p.query_id >= 0
),
wsum AS (SELECT query_id, tok, CAST(sum(w) AS DOUBLE) AS w FROM wexp GROUP BY 1, 2),
mreq(query_id, tok) AS (VALUES {mreq}),
nreq AS (SELECT query_id, count(*) AS n FROM mreq WHERE query_id >= 0 GROUP BY 1),
conj_cnt AS (
  SELECT m.query_id, d.doc_id, count(*) AS c
  FROM mreq m JOIN toksd d USING (tok) WHERE m.query_id >= 0 GROUP BY 1, 2
),
conj_pass AS (
  SELECT c.query_id, c.doc_id FROM conj_cnt c JOIN nreq r USING (query_id) WHERE c.c = r.n
),
phr(query_id, phrase) AS (VALUES {phr}),
nphr AS (SELECT query_id, count(*) AS n FROM phr WHERE query_id >= 0 GROUP BY 1),
phr_cnt AS (
  SELECT p.query_id, dt.doc_id, count(*) AS c
  FROM phr p JOIN dt ON position((' ' || p.phrase || ' ') IN dt.ts) > 0
  WHERE p.query_id >= 0 GROUP BY 1, 2
),
phr_pass AS (
  SELECT h.query_id, h.doc_id FROM phr_cnt h JOIN nphr n USING (query_id) WHERE h.c = n.n
),
elig_conj AS (
  SELECT c.query_id, c.doc_id FROM conj_pass c
  LEFT JOIN nphr np USING (query_id)
  LEFT JOIN phr_pass pp ON pp.query_id = c.query_id AND pp.doc_id = c.doc_id
  WHERE np.n IS NULL OR pp.doc_id IS NOT NULL
),
union_ok AS (
  SELECT w.query_id, d.doc_id FROM wsum w JOIN toksd d USING (tok)
  WHERE w.query_id NOT IN (SELECT query_id FROM nreq)
  GROUP BY 1, 2
),
elig0 AS (SELECT * FROM elig_conj UNION ALL SELECT * FROM union_ok),
mn(query_id, tok) AS (VALUES {mn}),
excl AS (
  SELECT DISTINCT m.query_id, d.doc_id FROM mn m JOIN toksd d USING (tok) WHERE m.query_id >= 0
),
elig AS (
  SELECT e.query_id, e.doc_id FROM elig0 e
  LEFT JOIN excl x ON x.query_id = e.query_id AND x.doc_id = e.doc_id
  WHERE x.doc_id IS NULL
),
{_scored("wsum w", "w.w * ")},
{_ranked("elig e JOIN scored s ON s.query_id = e.query_id AND s.doc_id = e.doc_id", "s.score", "e")}
{_top(k)}
"""


# update_by_query: conjunctive filter, transform appends one new token
UBQ_TEXT = "slow merge"
UBQ_SUFFIX = " refreshed"
UBQ_OFFSET = 10_000_000  # oracle-side id for a doc's NEW version


def _ubq_transform(t: str) -> str:
    return t + UBQ_SUFFIX


def bm25_topk_update_by_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """ES _update_by_query with exact Lucene update semantics, PRE-merge:
    copy the cached index, update every doc matching UBQ_TEXT (AND) by
    appending UBQ_SUFFIX (pipelines/maintain.update_by_query: streamed
    tombstones + delta generation), then answer FT_QUERIES. The contract
    pinned here: old versions stay in N/avgdl/df until compaction (an
    update is a delete + re-add), new versions rank with the folded
    stats. Ranked via the _full_ranking pattern (brute over the whole
    match set, re-ranked in SOURCE doc_id space) so bit-equal score ties
    order exactly as the oracle's (score DESC, source doc_id ASC)."""
    from ..pipelines.maintain import update_by_query

    index = _index_copy(sf_dir, "_ubq")
    update_by_query(index, UBQ_TEXT, _ubq_transform, mode="and")
    res = _run_queries(index, FT_QUERIES, 1 << 20, "or", cols=_SCORED, method="brute")
    return _rerank(res, k)


def bm25_update_by_query_oracle_sql(k: int = 10) -> str:
    """Update oracle: corpus' = documents UNION ALL the transformed
    versions of the conjunctive UBQ_TEXT match set (new id = old +
    UBQ_OFFSET). EVERY statistic (N, avgdl, df, tf) is computed over
    corpus' INCLUDING the superseded old versions — the Lucene pre-merge
    contract — and only the eligibility filter hides them; output ids
    fold back with % UBQ_OFFSET."""
    upd_terms = ",".join(f"'{t}'" for t in sorted(set(UBQ_TEXT.split())))
    n_upd = len(set(UBQ_TEXT.split()))
    return f"""
WITH {_toks(distinct=True, name="base_toks")},
upd AS (
  SELECT doc_id FROM base_toks WHERE tok IN ({upd_terms})
  GROUP BY doc_id HAVING count(*) = {n_upd}
),
corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT d.doc_id + {UBQ_OFFSET}, d.text || '{UBQ_SUFFIX}'
  FROM documents d JOIN upd u ON d.doc_id = u.doc_id
),
{_bm25_head("corpus", "c")},
{_qd(_values(FT_QUERIES))},
{_scored()},
ranked AS (
  SELECT query_id, doc_id % {UBQ_OFFSET} AS doc_id,
         row_number() OVER (
           PARTITION BY query_id ORDER BY score DESC, doc_id % {UBQ_OFFSET}
         ) AS rank
  FROM scored
  WHERE NOT (doc_id < {UBQ_OFFSET} AND doc_id IN (SELECT doc_id FROM upd))
)
{_top(k)}
"""


# Regexp query set (Lucene RegexpQuery: pattern must match the WHOLE term).
# Constructs restricted to the RE2 ∩ Python-re common core so the DuckDB
# regexp_full_match oracle replays expansion exactly: alternation, classes,
# '.', '*', '+', '?'. Mix: alternation, dot positions, star suffix with a
# literal second token, char class, and a no-match pattern (empty result).
FT_REGEXPS = (
    "s(low|mall)",
    ".a..",
    "(jo|cust).*",
    "merge gr[ou]+p",
    "zz+9*",
)


def bm25_topk_regexp(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Regexp retrieval (Lucene RegexpQuery, scoring_boolean rewrite):
    every whitespace-separated item is a FULL-match regex expanded against
    the sharded term dictionary (literal-prefix bisect routing, else a
    vocabulary-bounded scan — never a corpus scan) and the union scores as
    disjunctive BM25 with per-term global df/idf
    (query_stage.QueryScorer._expand_regexp)."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_REGEXPS, k, "regexp")


def _vocab_oracle_sql(pats: str, on: str, k: int) -> str:
    """The BM25 stack over each query's vocabulary expansion: the
    distinct tokens joined to the ``(query_id, pat)`` rows ``pats`` on
    the predicate ``on`` (over ``v.tok`` and ``q.pat``)."""
    return f"""
WITH {_bm25_head()},
vocab AS (SELECT DISTINCT tok FROM tf),
q(query_id, pat) AS (VALUES {pats}),
qd AS (
  SELECT DISTINCT q.query_id, v.tok
  FROM q JOIN vocab v ON {on}
),
{_scored()},
{_ranked()}
{_top(k)}
"""


def bm25_regexp_oracle_sql(k: int = 10) -> str:
    """Regexp oracle: the wildcard oracle with LIKE replaced by DuckDB's
    regexp_full_match (RE2) — exact for the frozen pattern set because the
    constructs used are semantics-identical between RE2 and Python re on
    full-match; then the standard BM25 stack over the expanded union."""
    pats = _values(FT_REGEXPS, lambda q: q.lower().split())
    return _vocab_oracle_sql(pats, "regexp_full_match(v.tok, q.pat)", k)


def bm25_topk_fuzzy(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Typo-tolerant retrieval: every query token expands to the dictionary
    terms within Levenshtein distance ≤ 1 (vectorized per-byte-length
    bucket scan, query_stage.Segment.fuzzy1_candidates), then ordinary
    disjunctive BM25 over the union — Lucene FuzzyQuery(maxEdits=1) under
    the scoring_boolean rewrite, plain Levenshtein so DuckDB's
    levenshtein() replays the expansion exactly."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_FUZZIES, k, "fuzzy")


def bm25_fuzzy_oracle_sql(k: int = 10) -> str:
    """Fuzzy oracle: the standard BM25 CTE stack with the query→term map
    joining the vocabulary on levenshtein(tok, pat) <= 1."""
    return _vocab_oracle_sql(_values(FT_FUZZIES), "levenshtein(v.tok, q.pat) <= 1", k)


def bm25_topk_fuzzy2(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Typo-tolerant retrieval at maxEdits=2 (Lucene FuzzyQuery's upper
    bound — ES ``fuzziness: 2``): every query token expands to the
    dictionary terms within Levenshtein distance ≤ 2 (vectorized full-DP
    kernel over the five |t|±2 byte-length buckets,
    query_stage.Segment.fuzzy2_candidates), then ordinary disjunctive
    BM25 over the union — plain Levenshtein (a transposition costs 2, so
    FT_FUZZIES2's swap typos are reachable here and NOT at d≤1), which
    DuckDB's levenshtein() replays exactly. Expansion cost is bounded by
    the dictionary, never the corpus."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_FUZZIES2, k, "fuzzy2")


def bm25_fuzzy2_oracle_sql(k: int = 10) -> str:
    """Fuzzy2 oracle: the standard BM25 CTE stack with the query→term map
    joining the vocabulary on levenshtein(tok, pat) <= 2."""
    return _vocab_oracle_sql(_values(FT_FUZZIES2), "levenshtein(v.tok, q.pat) <= 2", k)


def facet_counts_query(sf_dir: str) -> pd.DataFrame:
    """Search-engine faceting: for each FT_QUERY, the count of DISTINCT
    documents containing ≥1 query term, grouped by the lang facet (the
    facet panel an engine renders next to top-k; pipelines/query.
    facet_counts). Output (query_id, lang, n_docs), lang ascending."""
    from ..pipelines.query import facet_counts

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(facet_counts(index, _query_table(FT_QUERIES), facet="lang"), by=("query_id", "lang"))


def facet_counts_oracle_sql() -> str:
    """Facet-count oracle: distinct (query, doc) matches through the token
    table, grouped by the document's lang."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matches AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(m.query_id AS BIGINT) AS query_id, d.lang,
       CAST(count(*) AS BIGINT) AS n_docs
FROM matches m JOIN documents d USING (doc_id)
GROUP BY 1, 2
ORDER BY 1, 2
"""


def _parse_boosts(q: str) -> list[tuple[str, float]]:
    """(token, weight) pairs of a boost query — the same parse the engine
    runs (query_stage._score_query_boost): ``^W`` suffix, default 1.0,
    non-numeric suffixes treated as part of the term."""
    out = []
    for raw in q.split():
        stem, sep, ws = raw.rpartition("^")
        w = 1.0
        if sep:
            try:
                w = float(ws)
            except ValueError:
                stem = raw
        else:
            stem = raw
        for t in tokenize(stem):
            out.append((t, w))
    return out


def bm25_topk_boost(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Weighted retrieval: ``term^W`` multiplies that term's BM25
    contribution by W (Lucene boost syntax; repeated terms sum weights).
    Scaling contributions AND block maxima keeps WAND exact —
    wand == brute is property-tested (tests/test_pipeline.py)."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_BOOSTS, k, "boost")


def bm25_boost_oracle_sql(k: int = 10) -> str:
    """Boost oracle: the BM25 CTE stack with per-term weights — the query
    map carries (tok, w) rows, duplicate terms SUM their weights, and the
    score multiplies each term's contribution by the summed weight."""
    values = ",".join(
        f"({qid}, '{tok}', {w!r})"
        for qid, q in enumerate(FT_BOOSTS)
        for tok, w in _parse_boosts(q)
    )
    return f"""
WITH {_bm25_head()},
q(query_id, tok, w) AS (VALUES {values}),
qw AS (SELECT query_id, tok, CAST(SUM(w) AS DOUBLE) AS w FROM q GROUP BY 1, 2),
{_scored("qw", "qw.w * ")},
{_ranked()}
{_top(k)}
"""


def bm25_topk_boolean(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Boolean retrieval (Lucene occur clauses): ``+term`` MUST, ``-term``
    MUST_NOT, bare SHOULD. Eligible docs contain every MUST, none of the
    MUST_NOT and (absent MUSTs) ≥1 SHOULD; scores sum the present
    MUST ∪ SHOULD contributions. Pure-negative and OOV-MUST queries are
    empty (query_stage._score_query_boolean)."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_BOOLEANS, k, "boolean")


def bm25_boolean_oracle_sql(k: int = 10) -> str:
    """Boolean oracle: roles ride a (query_id, tok, role) VALUES table;
    MUST eligibility counts distinct present musts against the TOTAL must
    count (an OOV must can never be present → empty, matching the
    engine); exclusion is a NOT EXISTS anti-join; scoring joins the
    distinct MUST ∪ SHOULD terms."""
    rows = []
    for qid, q in enumerate(FT_BOOLEANS):
        for raw in q.split():
            if raw.startswith("+"):
                role, stem = "must", raw[1:]
            elif raw.startswith("-"):
                role, stem = "not", raw[1:]
            else:
                role, stem = "should", raw
            for t in tokenize(stem):
                rows.append(f"({qid}, '{t}', '{role}')")
    values = ",".join(rows)
    return f"""
WITH {_bm25_head()},
q(query_id, tok, role) AS (VALUES {values}),
qmust AS (SELECT DISTINCT query_id, tok FROM q WHERE role = 'must'),
mcnt AS (SELECT query_id, count(*) AS n_must FROM qmust GROUP BY 1),
must_ok AS (
  SELECT qm.query_id, tf.doc_id
  FROM qmust qm JOIN tf USING (tok)
  GROUP BY 1, 2
  HAVING count(DISTINCT tf.tok) = (SELECT n_must FROM mcnt WHERE mcnt.query_id = qm.query_id)
),
base AS (
  SELECT query_id, doc_id FROM must_ok
  UNION ALL
  SELECT DISTINCT qs.query_id, tf.doc_id
  FROM (SELECT DISTINCT query_id, tok FROM q WHERE role = 'should') qs
  JOIN tf USING (tok)
  WHERE qs.query_id NOT IN (SELECT query_id FROM mcnt)
),
excl AS (
  SELECT DISTINCT qn.query_id, tf.doc_id
  FROM (SELECT DISTINCT query_id, tok FROM q WHERE role = 'not') qn
  JOIN tf USING (tok)
),
elig AS (
  SELECT b.query_id, b.doc_id FROM base b
  WHERE NOT EXISTS (SELECT 1 FROM excl e
                    WHERE e.query_id = b.query_id AND e.doc_id = b.doc_id)
),
qpos AS (SELECT DISTINCT query_id, tok FROM q WHERE role IN ('must', 'should')),
{_scored("qpos")},
{_ranked("scored s JOIN elig USING (query_id, doc_id)", "s.score", "s")}
{_top(k)}
"""


def facet_topk_query(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Grouped top-k (result diversification): for each FT_QUERY, the top-k
    BM25 hits WITHIN each lang facet group — exact per-group rankings
    (pipelines/query.facet_topk). Output (query_id, lang, rank, doc_id),
    lang ascending, 1-based ranks per group."""
    from ..pipelines.query import facet_topk

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(
        facet_topk(index, _query_table(FT_QUERIES), facet="lang", k=k),
        by=("query_id", "lang", "rank"), cols=("query_id", "lang", "rank", "doc_id"), index=index,
    )


def facet_topk_oracle_sql(k: int = 5) -> str:
    """Grouped-top-k oracle: the BM25 CTE stack windowed per (query, lang)."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
ranked AS (
  SELECT s.query_id, d.lang, s.doc_id,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id) AS rank
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT CAST(query_id AS BIGINT) AS query_id, lang, CAST(rank AS INTEGER) AS rank, doc_id
FROM ranked WHERE rank <= {k}
ORDER BY query_id, lang, rank
"""


def collapse_topk_query(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Field collapsing per FT_QUERY (ES ``collapse`` on lang): ONE
    blended page per query — each lang contributes its single best hit,
    winners re-ranked (score DESC, doc_id ASC), top-k, each row carrying
    the collapsed group's full match count (the integer core of
    inner_hits.total). Output (query_id, rank, doc_id, lang, n_group)
    (pipelines/query.collapse_topk). Contrast fulltext_facet_topk, which
    returns a full page per group."""
    from ..pipelines.query import collapse_topk

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(
        collapse_topk(index, _query_table(FT_QUERIES), facet="lang", k=k),
        cols=("query_id", "rank", "doc_id", "lang", "n_group"), index=index,
    )


def collapse_oracle_sql(k: int = 5) -> str:
    """Collapse oracle: the BM25 stack joined to lang; per (query, lang)
    window picks the group winner (grn=1) and counts the group; winners
    re-rank per query."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
g AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id) AS grn,
         count(*) OVER (PARTITION BY s.query_id, d.lang) AS n_group
  FROM scored s JOIN documents d USING (doc_id)
),
ranked AS (
  SELECT query_id, lang, doc_id, n_group,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rank
  FROM g WHERE grn = 1
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       doc_id, lang, CAST(n_group AS BIGINT) AS n_group
FROM ranked WHERE rank <= {k}
ORDER BY query_id, rank
"""


# match_phrase_prefix query set: (fixed-term-or-None, stem). The 31-word
# driver vocabulary makes single-letter stems genuinely multi-expansion
# ('s' → scan/slow/small/sort/spark/stream). Mix: multi-expansion after a
# common and a rare fixed term, a bare stem (prefix-only degeneration), an
# empty expansion (must be empty), and a stem range containing the fixed
# term itself ('slow s' — the self-completion double-count case).
FT_PHRASE_PREFIX = (
    ("table", "s"),
    ("the", "b"),
    (None, "v"),
    ("query", "zzz"),
    ("slow", "s"),
)


def bm25_topk_phrase_prefix(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """match_phrase_prefix per FT_PHRASE_PREFIX (ES match_phrase_prefix):
    the stem expands against the index dictionary, each completed phrase
    is adjacency-verified, and a matching doc scores as its best
    completion — fixed-term BM25 + max matching expansion contribution.
    Output (query_id, rank, doc_id), integer-only
    (query_index(mode="phrase_prefix"))."""
    texts = [f"{f} {s}" if f else s for f, s in FT_PHRASE_PREFIX]
    return _run_queries(_ensure_index(sf_dir, fresh=False), texts, k, "phrase_prefix")


def bm25_phrase_prefix_oracle_sql(k: int = 10) -> str:
    """match_phrase_prefix oracle: expansions from the distinct-token
    vocabulary via LIKE, adjacency via the token-string substring idiom,
    per-(doc, term) contributions from the standard formula; fscore =
    fixed contribution + MAX matching expansion contribution."""
    values = ",".join(
        "({}, {}, '{}')".format(qid, "'" + f + "'" if f else "NULL", s)
        for qid, (f, s) in enumerate(FT_PHRASE_PREFIX)
    )
    return f"""
WITH {_bm25_head()},
q(query_id, fixed, stem) AS (VALUES {values}),
vocab AS (SELECT DISTINCT tok FROM tf),
exp AS (SELECT q.query_id, v.tok AS e FROM q JOIN vocab v ON v.tok LIKE q.stem || '%'),
{_token_string()},
contrib AS (
  SELECT tf.doc_id, tf.tok,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
         * tf.tf * (1.2 + 1.0)
         / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl)) AS c
  FROM tf
  JOIN df USING (tok)
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
),
matched AS (
  SELECT x.query_id, dt.doc_id, x.e
  FROM exp x
  JOIN q USING (query_id)
  JOIN dt ON position(
       (CASE WHEN q.fixed IS NULL THEN ' ' || x.e || ' '
             ELSE ' ' || q.fixed || ' ' || x.e || ' ' END) IN dt.ts) > 0
),
emax AS (
  SELECT m.query_id, m.doc_id, max(c.c) AS e_max
  FROM matched m JOIN contrib c ON c.doc_id = m.doc_id AND c.tok = m.e
  GROUP BY 1, 2
),
final AS (
  SELECT e.query_id, e.doc_id,
         coalesce(fc.c, 0) + e.e_max AS fscore
  FROM emax e
  JOIN q ON q.query_id = e.query_id
  LEFT JOIN contrib fc ON fc.doc_id = e.doc_id AND fc.tok = q.fixed
),
{_ranked("final", "fscore")}
{_top(k)}
"""


TM_SIZE = 3  # top_metrics size


def top_metrics_query(sf_dir: str) -> pd.DataFrame:
    """top_metrics aggregation per FT_QUERY (ES ``top_metrics``): the
    doclen metric read off the TM_SIZE newest matching docs (sort =
    warc_ts DESC, doc_id ASC — injective, tie-free by construction).
    Output (query_id, rank, sort_val, metric_val), all integers
    (pipelines/query.top_metrics)."""
    from ..pipelines.query import top_metrics

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(
        top_metrics(index, _query_table(FT_QUERIES), field="warc_ts", metric="doclen", size=TM_SIZE)
    )


def top_metrics_oracle_sql() -> str:
    """top_metrics oracle: the match set joined to the frozen warc_ts
    rule and token-count doclens, windowed (ts DESC, doc_id) to
    TM_SIZE."""
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ranked AS (
  SELECT m.query_id, {ts} AS sort_val, dl.dl AS metric_val,
         row_number() OVER (PARTITION BY m.query_id
                            ORDER BY {ts} DESC, m.doc_id) AS rank
  FROM matched m JOIN dl USING (doc_id)
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       CAST(sort_val AS BIGINT) AS sort_val, CAST(metric_val AS BIGINT) AS metric_val
FROM ranked WHERE rank <= {TM_SIZE}
ORDER BY query_id, rank
"""


SCROLL_SLICES = 3  # sliced-scroll fan-out


def _add_slice_id(batch: pa.Table) -> pa.Table:
    """Deterministic scroll-slice assignment: md5-64(url) % SCROLL_SLICES
    — md5 over blake2b deliberately, so DuckDB replays the hash exactly
    (the simhash oracle's idiom). Coordination-free: any worker computes
    its own membership from the doc alone."""
    s = [
        int(hashlib.md5(u.encode()).hexdigest()[:16], 16) % SCROLL_SLICES
        for u in batch["url"].to_pylist()
    ]
    return batch.append_column("slice_id", pa.array(s, pa.int64()))


def sliced_scroll_query(sf_dir: str) -> pd.DataFrame:
    """Sliced scroll per FT_QUERY (ES sliced scrolling): the full match
    set STREAMS out of the export path and every doc is assigned to
    exactly one of SCROLL_SLICES slices by a frozen doc-local hash —
    the contract that lets N workers drain one scroll in parallel
    without coordination (each slice is a disjoint, deterministic
    sub-stream; the union is exactly the match set). Output (query_id,
    slice_id, doc_id) — the partition property is the thing under test,
    so all slices are emitted (a real consumer would filter its own
    slice inside the same map)."""
    from ..pipelines.query import export_matches

    index = _ensure_index(sf_dir, fresh=False)
    ds = attach_urls(export_matches(index, _query_table(FT_QUERIES)), index)
    by = ("query_id", "slice_id", "doc_id")
    return _rank_frame(ds.map_batches(_add_slice_id, batch_format="pyarrow"), by=by, cols=by)


def sliced_scroll_oracle_sql() -> str:
    """Sliced-scroll oracle: the match set with the md5-prefix slice hash
    replayed over the frozen url format."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
sliced AS (
  SELECT query_id, doc_id,
         CAST(CAST(concat('0x', substr(md5('doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0')), 1, 16)) AS UBIGINT)
              % {SCROLL_SLICES} AS BIGINT) AS slice_id
  FROM matched
)
SELECT CAST(query_id AS BIGINT) AS query_id, slice_id, doc_id
FROM sliced
ORDER BY query_id, slice_id, doc_id
"""


# mget request set: source ids present at every driver scale (sf0.001 has
# 50 docs) plus one guaranteed miss — the found=false row is part of the
# frozen contract.
MGET_IDS = (3, 17, 41)
MGET_MISSING = "doc://99999999"


def mget_query(sf_dir: str) -> pd.DataFrame:
    """GET/_mget per frozen request set: routed point fetch of stored
    fields + docvalues by url — pid = blake2b64(url) % P opens ONLY the
    owning docs/pid file (the ES shard-routing formula), url predicate
    pushed to row groups, misses reported found=false with zero/empty
    fields. Output (url, found, doclen, lang, warc_ts), url ascending
    (pipelines/query.mget)."""
    from ..pipelines.query import mget

    index = _ensure_index(sf_dir, fresh=False)
    urls = [doc_url(i) for i in MGET_IDS] + [MGET_MISSING]
    return mget(index, urls).to_pandas()


def mget_oracle_sql() -> str:
    """mget oracle: the request VALUES LEFT-JOIN documents on the frozen
    url format, token-count doclen, the frozen synthetic warc_ts rule;
    misses coalesce to the engine's zero/empty fields."""
    req = ",".join(
        f"('{doc_url(i)}')" for i in MGET_IDS
    ) + f",('{MGET_MISSING}')"
    ts = f"({BASE_TS_US} + (d.doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH req(url) AS (VALUES {req}),
{_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
d AS (SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url, doc_id, lang
      FROM documents)
SELECT req.url,
       d.doc_id IS NOT NULL AS found,
       CAST(coalesce(dl.dl, 0) AS BIGINT) AS doclen,
       coalesce(d.lang, '') AS lang,
       CAST(coalesce({ts}, 0) AS BIGINT) AS warc_ts
FROM req
LEFT JOIN d USING (url)
LEFT JOIN dl ON dl.doc_id = d.doc_id
ORDER BY req.url
"""


DS_N = 12  # diversified_sampler sample size (probed tie-free at both scales)
DS_CAP = 3  # max sample slots per lang


def diversified_sampler_query(sf_dir: str) -> pd.DataFrame:
    """Diversified-sampler aggregation per FT_QUERY (ES
    ``diversified_sampler`` + ``terms`` sub-agg on lang): walk the match
    set in relevance order, cap each lang at DS_CAP sample slots, stop
    at DS_N picks, then count the sample per lang — aggregation over the
    best hits without one lang drowning the sample. Output (query_id,
    lang, n_sample) (pipelines/query.diversified_sampler)."""
    from ..pipelines.query import diversified_sampler

    index = _ensure_index(sf_dir, fresh=False)
    out = diversified_sampler(
        index, _query_table(FT_QUERIES), facet="lang", sample_size=DS_N, max_per_value=DS_CAP
    )
    return _rank_frame(out, by=("query_id", "lang"))


def diversified_sampler_oracle_sql() -> str:
    """Sampler oracle: the skip-walk is equivalent to per-lang rank
    filter (≤ DS_CAP) then global top-DS_N over the kept set (a skipped
    doc can never evict an earlier pick), which two windows replay."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
g AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id) AS lrn
  FROM scored s JOIN documents d USING (doc_id)
),
kept AS (
  SELECT query_id, lang, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS srn
  FROM g WHERE lrn <= {DS_CAP}
)
SELECT CAST(query_id AS BIGINT) AS query_id, lang,
       CAST(count(*) AS BIGINT) AS n_sample
FROM kept WHERE srn <= {DS_N}
GROUP BY 1, 2
ORDER BY 1, 2
"""


SNIPPET_WINDOW = 7


def bm25_snippets(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Search-result snippets (KWIC): top-k BM25 per FT_QUERIES, each hit
    annotated with a text window around the first query-term occurrence.
    Frozen rule (replayed in SQL): first = smallest token index in the doc
    holding ANY of the query's terms; snippet = tokens[max(0, first-2) :
    max(0, first-2) + 7] joined by single spaces. Text fetch touches only
    the ≤ k×Q result docs (at cluster scale: the same partition-pruned
    read UrlResolver does)."""
    from ..textnorm import tokenize

    res = _run_queries(_ensure_index(sf_dir, fresh=False), FT_QUERIES, k, "or")
    import pyarrow.compute as pc

    want = pa.array(sorted(set(res["doc_id"].tolist())), pa.int64())
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.filter(pc.is_in(t["doc_id"], value_set=want))
    text_of = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    snippets = []
    for row in res.itertuples():
        qterms = set(tokenize(FT_QUERIES[row.query_id]))
        toks = tokenize(text_of[row.doc_id])
        first = next(i for i, tk in enumerate(toks) if tk in qterms)
        s = max(0, first - 2)
        snippets.append(" ".join(toks[s : s + SNIPPET_WINDOW]))
    out = res.copy()
    out["snippet"] = pd.Series(snippets, dtype="object")
    return out


def bm25_snippets_oracle_sql(k: int = 5) -> str:
    """Snippet oracle: the bm25 ranking CTEs + 1-based list_slice replay of
    the frozen window rule (engine 0-based s = max(0, first-2) ↔ SQL
    start = greatest(1, fp-2) for 1-based fp, end = start+6 inclusive)."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored(compact=True)},
{_ranked()},
arr AS (SELECT doc_id,
               list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
        FROM documents),
posi AS (SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) AS pos FROM arr),
firstp AS (SELECT qd.query_id, p.doc_id, min(p.pos) AS fp
           FROM qd JOIN posi p USING (tok) GROUP BY 1, 2)
SELECT CAST(r.query_id AS BIGINT) AS query_id, CAST(r.rank AS INTEGER) AS rank, r.doc_id,
       array_to_string(
         list_slice(a.a, greatest(1, f.fp - 2), greatest(1, f.fp - 2) + {SNIPPET_WINDOW - 1}),
         ' ') AS snippet
FROM ranked r
JOIN firstp f ON f.query_id = r.query_id AND f.doc_id = r.doc_id
JOIN arr a ON a.doc_id = r.doc_id
WHERE r.rank <= {k}
ORDER BY r.query_id, r.rank
"""


def index_stats(sf_dir: str) -> pd.DataFrame:
    """Index introspection cross-checked against corpus ground truth: every
    number here is read from the INDEX ARTIFACTS (stats.json fold + the
    term-shard dictionaries), while the oracle recomputes the same numbers
    from the raw documents table in SQL — a completeness audit of the
    whole build (lost postings, dropped docs, split-term double counts all
    show up as a mismatch).

    - n_docs / n_tokens: the manifest stat fold (Σ per-partition rows /
      doclen sums)
    - n_terms: distinct terms across shard dicts (salted shards split one
      term over several dicts — the union dedups them)
    - n_postings: Σ df over all shard dicts == count of distinct
      (doc, term) pairs (local dfs are disjoint doc ranges per term)."""
    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment
    from ..state import manifest as _mf

    index = _ensure_index(sf_dir, fresh=False)
    stats = _mf.read_stats(index)
    vocab: set[str] = set()
    n_postings = 0
    for sid in list_segments(index):
        seg = Segment(index, sid)
        vocab.update(seg.dict)
        n_postings += sum(e[0] for e in seg.dict.values())
    out = pd.DataFrame(
        [
            {
                "n_docs": int(stats["n_docs"]),
                "n_terms": len(vocab),
                "n_postings": int(n_postings),
                "n_tokens": int(stats["total_len"]),
            }
        ]
    )
    return out.astype("int64")


def index_stats_oracle_sql() -> str:
    return f"""
        WITH toks AS (
          SELECT doc_id, tok FROM (
            SELECT doc_id, unnest({TOKENIZE_SQL}) AS tok
            FROM documents) WHERE tok <> ''
        )
        SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents) AS n_docs,
               CAST(count(DISTINCT tok) AS BIGINT) AS n_terms,
               (SELECT CAST(count(*) AS BIGINT)
                FROM (SELECT DISTINCT doc_id, tok FROM toks)) AS n_postings,
               CAST(count(*) AS BIGINT) AS n_tokens
        FROM toks
    """


FT_FILTER_LANGS = ("en", "de")


def bm25_topk_filtered(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Facet-filtered retrieval: top-k BM25 per FT_QUERIES restricted to
    documents whose ``lang`` ∈ FT_FILTER_LANGS. The filter set comes from
    the index's docs/ facet sidecar (``facet_doc_ids`` — pruned parallel
    read, one broadcast), results are masked at postings-gather time inside
    the scorer (WAND pruning stays exact), and BM25 statistics remain
    GLOBAL — a doc's score is identical with and without the filter, the
    standard engine semantics the oracle replays with an eligibility join."""
    from ..pipelines.query import facet_doc_ids

    index = _ensure_index(sf_dir, fresh=False)
    allowed = facet_doc_ids(index, "lang", FT_FILTER_LANGS)
    return _run_queries(index, FT_QUERIES, k, "or", filter_ids=allowed)


def bm25_filtered_oracle_sql(k: int = 10) -> str:
    """Filtered oracle: the unchanged BM25 CTEs (GLOBAL stats over the whole
    corpus) with eligibility restricted by a documents.lang join before
    ranking — scores computed over everything, ranks over the facet set."""
    langs = ",".join(f"'{l}'" for l in FT_FILTER_LANGS)
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
ranked AS (
  SELECT s.query_id, s.doc_id,
         row_number() OVER (PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id) AS rank
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  WHERE d.lang IN ({langs})
)
{_top(k)}
"""


MLT_SOURCES = (0, 7, 42)  # frozen source documents (documents.doc_id)
MLT_TERMS = 5


def more_like_this(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Document-similarity search ("more like this"): for each frozen
    source doc, select its MLT_TERMS most characteristic terms by the
    INTEGER-ONLY frozen rule (tf DESC, df ASC, term ASC) — highest
    in-doc frequency, rarest in the corpus; integer sort keys make the
    selection exactly replayable in SQL with no float-comparison hazard —
    then rank the corpus by ordinary BM25 over those terms, excluding the
    source doc itself (dropped BEFORE rank truncation: k+1 are fetched).
    tf comes from the source text, df from the index's shard dictionaries
    (global df sum — the same numbers scoring uses)."""
    import pyarrow.compute as pc

    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment
    from ..textnorm import tokenize

    index = _ensure_index(sf_dir, fresh=False)
    segs = [Segment(index, sid) for sid in list_segments(index)]

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(list(MLT_SOURCES), pa.int64())))
    text_of = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    query_texts = []
    for src in MLT_SOURCES:
        tf: dict[str, int] = {}
        for tok in tokenize(text_of[src]):
            tf[tok] = tf.get(tok, 0) + 1
        gdf = {
            term: sum(s.dict[term][0] for s in segs if term in s.dict)
            for term in tf
        }
        picked = sorted(tf, key=lambda term: (-tf[term], gdf[term], term))[:MLT_TERMS]
        query_texts.append(" ".join(picked))  # tokenize() of this is identity

    res = _run_queries(_ensure_index(sf_dir, fresh=False), query_texts, k + 1, "or")
    out_rows = []
    for qid, src in enumerate(MLT_SOURCES):
        sub = res[(res["query_id"] == qid) & (res["doc_id"] != src)].head(k)
        for new_rank, doc in enumerate(sub["doc_id"], start=1):
            out_rows.append((src, new_rank, doc))
    out = pd.DataFrame(out_rows, columns=["src_doc_id", "rank", "doc_id"])
    out["src_doc_id"] = out["src_doc_id"].astype("int64")
    out["rank"] = out["rank"].astype("int32")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def more_like_this_oracle_sql(k: int = 10) -> str:
    """MLT oracle: term selection replayed with the integer-only rule
    (tf DESC, df ASC, tok ASC ≤ MLT_TERMS), then the unchanged BM25 CTEs
    over the selected (src, term) pairs, source doc excluded pre-rank."""
    values = ",".join(f"({s})" for s in MLT_SOURCES)
    return f"""
WITH {_bm25_head()},
src(s) AS (VALUES {values}),
qterms AS (
  SELECT src.s, tf.tok,
         row_number() OVER (PARTITION BY src.s
                            ORDER BY tf.tf DESC, df.df ASC, tf.tok ASC) AS rn
  FROM src JOIN tf ON tf.doc_id = src.s
  JOIN df ON df.tok = tf.tok
),
qd AS (SELECT s, tok FROM qterms WHERE rn <= {MLT_TERMS}),
scored AS (
  SELECT qd.s, tf.doc_id,
         sum( ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / st.avgdl)) ) AS score
  FROM qd
  JOIN tf USING (tok)
  JOIN df USING (tok)
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats st
  GROUP BY 1, 2
),
ranked AS (
  SELECT s, doc_id,
         row_number() OVER (PARTITION BY s ORDER BY score DESC, doc_id) AS rank
  FROM scored WHERE doc_id <> s
)
SELECT CAST(s AS BIGINT) AS src_doc_id, CAST(rank AS INTEGER) AS rank, doc_id
FROM ranked WHERE rank <= {k}
ORDER BY src_doc_id, rank
"""


def bm25_topk_recency(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Sort-by-field retrieval: per FT_QUERY, the k NEWEST matching docs —
    the match set is the ordinary disjunctive postings union, but ranking
    is (warc_ts DESC, doc_id ASC) over the index's numeric docvalue
    sidecar, relevance never computed (pipelines/query.sort_topk /
    query_stage.DocvalueTopK). The synthetic crawl ts is the hashed
    doc_id permutation (doc_ts_us), so this genuinely tests the docvalue
    path: ts order ≠ doc order, and the oracle replays the permutation in
    integer SQL. Output (query_id, rank, doc_id, warc_ts)."""
    from ..pipelines.query import sort_topk

    index = _ensure_index(sf_dir, fresh=False)
    out = _rank_frame(sort_topk(index, _query_table(FT_QUERIES), field="warc_ts", k=k),
                      cols=("query_id", "rank", "doc_id", "warc_ts"), index=index)
    return out.astype({"warc_ts": "int64"})


def bm25_recency_oracle_sql(k: int = 10) -> str:
    """Recency oracle: the distinct match set through the token table,
    ranked by the integer-replayed crawl ts (BASE + (doc_id*M) mod P)
    DESC, doc_id ASC — no floats anywhere."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matches AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ranked AS (
  SELECT query_id, doc_id,
         {BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD} AS warc_ts,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY (doc_id * {TS_MULT}) % {TS_MOD} DESC, doc_id) AS rank
  FROM matches
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       doc_id, CAST(warc_ts AS BIGINT) AS warc_ts
FROM ranked WHERE rank <= {k}
ORDER BY query_id, rank
"""


# Frozen ts-range filter: scramble values in [1e8, 6e8) µs past BASE —
# a ~50% slice of the corpus under the uniform hashed permutation.
TS_RANGE_LO_US = BASE_TS_US + 100_000_000
TS_RANGE_HI_US = BASE_TS_US + 600_000_000


def bm25_topk_ts_range(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Numeric-range-filtered retrieval: top-k BM25 per FT_QUERIES
    restricted to docs whose crawl ts ∈ [TS_RANGE_LO_US, TS_RANGE_HI_US)
    — "search only pages crawled in this window". The filter set comes
    from the docvalue sidecar (``docvalue_range_ids`` — pruned parallel
    read, one broadcast), masked at postings-gather time exactly like the
    facet filter; BM25 statistics stay GLOBAL (a doc's score is identical
    with and without the filter — the oracle replays eligibility as a
    predicate join before ranking)."""
    from ..pipelines.query import docvalue_range_ids

    index = _ensure_index(sf_dir, fresh=False)
    allowed = docvalue_range_ids(index, "warc_ts", TS_RANGE_LO_US, TS_RANGE_HI_US)
    return _run_queries(index, FT_QUERIES, k, "or", filter_ids=allowed)


def bm25_ts_range_oracle_sql(k: int = 10) -> str:
    """Range-filter oracle: the unchanged BM25 CTEs (GLOBAL stats) with
    eligibility restricted by the integer-replayed ts permutation."""
    lo = TS_RANGE_LO_US - BASE_TS_US
    hi = TS_RANGE_HI_US - BASE_TS_US
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rank
  FROM scored
  WHERE (doc_id * {TS_MULT}) % {TS_MOD} >= {lo}
    AND (doc_id * {TS_MULT}) % {TS_MOD} < {hi}
)
{_top(k)}
"""


def match_counts_query(sf_dir: str) -> pd.DataFrame:
    """Total hits per FT_QUERY (Lucene totalHits): distinct docs containing
    ≥1 query term (pipelines/query.match_counts). Output (query_id,
    n_hits); the OOV query matches nothing and emits no row — the
    SQL-join semantics the oracle replays."""
    from ..pipelines.query import match_counts

    index = _ensure_index(sf_dir, fresh=False)
    return _rank_frame(match_counts(index, _query_table(FT_QUERIES)), by=("query_id",))


def match_counts_oracle_sql() -> str:
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))}
SELECT CAST(qd.query_id AS BIGINT) AS query_id,
       CAST(count(DISTINCT toks.doc_id) AS BIGINT) AS n_hits
FROM qd JOIN toks USING (tok)
GROUP BY 1
ORDER BY 1
"""


# Query-time synonym map over the fixture vocabulary; includes OOV
# synonyms (quick/grid/large never match — they must contribute nothing)
# and an in-vocab pair (join↔merge) whose merged-tf/max-df scoring
# genuinely differs from plain OR retrieval.
FT_SYNONYMS = {
    "join": ("merge",),
    "fast": ("quick", "slow"),
    "big": ("large",),
    "table": ("row", "grid"),
}
FT_SYN_QUERIES = (
    "join customer",
    "fast query",
    "table scan",
    "big data",
    "vector",
    "zzznotinvocab",
)


def synonym_topk_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Query-time synonym retrieval per FT_SYN_QUERIES (Lucene
    SynonymQuery semantics: a term's synonym group scores as one
    pseudo-term with merged tf and max-df idf —
    stages/query_stage.SynonymTopK). Output integer-only."""
    from ..pipelines.query import synonym_topk

    index = _ensure_index(sf_dir, fresh=False)
    ds = synonym_topk(index, _query_table(FT_SYN_QUERIES), synonyms=FT_SYNONYMS, k=k)
    return _rank_frame(ds, cols=_RANKED, index=index)


def synonym_oracle_sql(k: int = 10) -> str:
    """Synonym oracle: per (query, base-term) group, merged tf = SUM of
    member tfs per doc and idf from the group's MAX df — the engine's
    SynonymQuery rule replayed relationally."""
    rows = []
    for qid, q in enumerate(FT_SYN_QUERIES):
        for base in q.split():
            for tok in sorted({base, *FT_SYNONYMS.get(base, ())}):
                rows.append(f"({qid}, '{base}', '{tok}')")
    values = ",".join(rows)
    return f"""
WITH {_bm25_head()},
syn(query_id, grp, tok) AS (VALUES {values}),
sd AS (SELECT DISTINCT query_id, grp, tok FROM syn),
mtf AS (SELECT sd.query_id, sd.grp, tf.doc_id, sum(tf.tf) AS mtf
        FROM sd JOIN tf USING (tok) GROUP BY 1, 2, 3),
gdf AS (SELECT sd.query_id, sd.grp, max(df.df) AS dfm
        FROM sd JOIN df USING (tok) GROUP BY 1, 2),
scored AS (
  SELECT m.query_id, m.doc_id,
         sum( ln(1 + (s.n - g.dfm + 0.5) / (g.dfm + 0.5))
              * m.mtf * (1.2 + 1.0)
              / (m.mtf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS score
  FROM mtf m
  JOIN gdf g ON g.query_id = m.query_id AND g.grp = m.grp
  JOIN dl ON m.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
{_ranked()}
{_top(k)}
"""


# function_score decay constants: origin just past the newest synthetic ts
# (ages span (7, TS_MOD+7) us), scale sized so the linear factor spans
# ~[0.17, 1) — wide enough to genuinely reorder bm25 ranks.
FS_ORIGIN_US = BASE_TS_US + TS_MOD
FS_SCALE_US = 1_200_000_000


def function_score_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Function-score retrieval per FT_QUERY (ES function_score, linear
    time decay): rank by bm25 × max(0, 1 − |origin − warc_ts| / scale)
    (pipelines/query.function_score_topk). Linear decay replays
    bit-faithfully in SQL (no transcendentals); output integer-only."""
    from ..pipelines.query import function_score_topk

    index = _ensure_index(sf_dir, fresh=False)
    ds = function_score_topk(
        index, _query_table(FT_QUERIES), origin_us=FS_ORIGIN_US, scale_us=FS_SCALE_US, k=k
    )
    return _rank_frame(ds, cols=_RANKED, index=index)


def field_value_factor_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Field-value-factor retrieval per FT_QUERY (ES function_score,
    ``field_value_factor`` with the ln1p modifier on doclen): rank by
    bm25 × ln(1 + doclen) (pipelines/query.field_value_factor_topk).
    ln of an exact integer agrees bitwise between numpy and DuckDB, so
    ranks replay exactly; output integer-only. Unlike the time decay
    (whose injective ts permutation breaks all ties), ln1p(doclen)
    PRESERVES bm25 ties — docs with identical (tf, dl) stay exactly
    tied — so the page is re-ranked in source doc_id space over the
    full match set (the _full_ranking pattern) to keep the external
    (fscore DESC, doc_id ASC) tie order exact."""
    from ..pipelines.query import field_value_factor_topk

    index = _ensure_index(sf_dir, fresh=False)
    k_all = 1 << 30  # whole match set: ties re-rank in source-id space
    ds = field_value_factor_topk(index, _query_table(FT_QUERIES), field="doclen", k=k_all)
    return _rerank(_rank_frame(ds, cols=_SCORED, index=index), k)


def field_value_factor_oracle_sql(k: int = 10) -> str:
    """Field-value-factor oracle: the unchanged BM25 CTEs, final score
    multiplied by ln(1 + dl) — dl is the same exact integer token count
    on both sides, ln is correctly rounded identically, the multiply is
    one IEEE op."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
boosted AS (
  SELECT sc.query_id, sc.doc_id, sc.score * ln(1.0 + dl.dl) AS fscore
  FROM scored sc JOIN dl ON sc.doc_id = dl.doc_id
),
{_ranked("boosted", "fscore")}
{_top(k)}
"""


# rank_feature saturation pivot (doclen feature) and the shared additive
# feature-query weight: a power of two so the boost multiply is IEEE-exact.
RF_PIVOT = 100
FEATURE_WEIGHT = 2.0
# distance_feature origin sits INSIDE the synthetic ts range (mid-span), so
# docs on both sides of it exist and symmetric-distance collisions are a
# real exercised case (handled by the _full_ranking source-id re-rank).
DF_ORIGIN_US = BASE_TS_US + TS_MOD // 2
DF_PIVOT_US = 60_000_000


def rank_feature_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Rank-feature retrieval per FT_QUERY (ES ``rank_feature`` with the
    default saturation function, bool-should next to the match query):
    rank by bm25 + W × dl/(dl + pivot) over the match set
    (pipelines/query.rank_feature_topk). dl and pivot are exact
    integers, so the saturation divide and the weighted add replay
    bitwise in SQL. Saturation preserves bm25 ties (equal (tf, dl) docs
    stay tied), so the page is re-ranked in source doc_id space over the
    full match set (the _full_ranking pattern) to keep the external
    (fscore DESC, doc_id ASC) tie order exact."""
    from ..pipelines.query import rank_feature_topk

    index = _ensure_index(sf_dir, fresh=False)
    k_all = 1 << 30  # whole match set: ties re-rank in source-id space
    ds = rank_feature_topk(
        index, _query_table(FT_QUERIES), field="doclen", pivot=RF_PIVOT, weight=FEATURE_WEIGHT,
        k=k_all,
    )
    return _rerank(_rank_frame(ds, cols=_SCORED, index=index), k)


def rank_feature_oracle_sql(k: int = 10) -> str:
    """Rank-feature oracle: the unchanged BM25 CTEs, final score plus the
    saturation boost — dl and pivot are the same exact integers on both
    sides, the divide, the power-of-two weight multiply, and the add are
    each one correctly-rounded IEEE op."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
boosted AS (
  SELECT sc.query_id, sc.doc_id,
         sc.score + {FEATURE_WEIGHT} * (dl.dl / (dl.dl + {RF_PIVOT}.0)) AS fscore
  FROM scored sc JOIN dl ON sc.doc_id = dl.doc_id
),
{_ranked("boosted", "fscore")}
{_top(k)}
"""


def distance_feature_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Distance-feature retrieval per FT_QUERY (ES ``distance_feature``
    on the warc_ts date docvalue, bool-should next to the match query):
    rank by bm25 + W × pivot/(pivot + |origin − ts|) over the match set
    (pipelines/query.distance_feature_topk). The int64 distance, the
    divide of exact integers, the power-of-two weight, and the add each
    round identically in numpy and DuckDB. The origin sits mid-span, so
    docs equidistant on opposite sides collide — ties re-rank in source
    doc_id space over the full match set (the _full_ranking pattern)."""
    from ..pipelines.query import distance_feature_topk

    index = _ensure_index(sf_dir, fresh=False)
    k_all = 1 << 30  # whole match set: ties re-rank in source-id space
    ds = distance_feature_topk(
        index, _query_table(FT_QUERIES), field="warc_ts", origin_us=DF_ORIGIN_US,
        pivot_us=DF_PIVOT_US, weight=FEATURE_WEIGHT, k=k_all,
    )
    return _rerank(_rank_frame(ds, cols=_SCORED, index=index), k)


def distance_feature_oracle_sql(k: int = 10) -> str:
    """Distance-feature oracle: the unchanged BM25 CTEs, final score plus
    the proximity boost replayed from the integer ts permutation — the
    same short IEEE-754 op chain the engine runs."""
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
boosted AS (
  SELECT query_id, doc_id,
         score + {FEATURE_WEIGHT} * ({DF_PIVOT_US}.0
             / ({DF_PIVOT_US}.0 + abs({DF_ORIGIN_US} - {ts}))) AS fscore
  FROM scored
),
{_ranked("boosted", "fscore")}
{_top(k)}
"""


def function_score_oracle_sql(k: int = 10) -> str:
    """Function-score oracle: the unchanged BM25 CTEs, final score
    multiplied by the linear decay replayed from the integer ts
    permutation — the same short IEEE-754 op chain the engine runs."""
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
decayed AS (
  SELECT query_id, doc_id,
         score * greatest(0.0, 1.0 - abs({FS_ORIGIN_US} - {ts}) / CAST({FS_SCALE_US} AS DOUBLE)) AS fscore
  FROM scored
),
{_ranked("decayed", "fscore")}
{_top(k)}
"""


# Minute buckets for the histogram agg: the synthetic crawl-ts permutation
# spreads docs over ~1000 s (TS_MOD us), so day buckets would collapse to
# one row; 60 s buckets yield ~17 populated buckets per query.
HIST_BUCKET_US = 60_000_000


def date_histogram_query(sf_dir: str) -> pd.DataFrame:
    """Date-histogram aggregation per FT_QUERY (ES date_histogram): counts
    of distinct matching docs per HIST_BUCKET_US-wide bucket of the crawl
    ts docvalue (pipelines/query.date_histogram). Output (query_id,
    bucket, n_docs) — all integers, hash-exact."""
    from ..pipelines.query import date_histogram

    index = _ensure_index(sf_dir, fresh=False)
    out = date_histogram(index, _query_table(FT_QUERIES), bucket_us=HIST_BUCKET_US)
    return _rank_frame(out, by=("query_id", "bucket"))


def date_histogram_oracle_sql() -> str:
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD}) // {HIST_BUCKET_US} AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs
FROM matched
GROUP BY 1, 2
ORDER BY 1, 2
"""


def stats_bucket_query(sf_dir: str) -> pd.DataFrame:
    """ES ``stats_bucket`` sibling pipeline aggregation: the stats of a
    date_histogram's per-bucket doc counts — per FT_QUERY, (n_buckets,
    min/max/sum of n_docs, avg_x100 = sum·100 // n_buckets). The
    distributed work IS the date_histogram fold (the engine's stateless
    per-query task); the sibling agg then runs on the window-shaped
    (query × bucket) result — ES evaluates pipeline aggs at reduce time
    the same way. All integers, hash-exact."""
    hist = date_histogram_query(sf_dir)
    rows = []
    for qid, g in hist.groupby("query_id", sort=True):
        n = g["n_docs"].to_numpy().astype(np.int64)
        rows.append((int(qid), len(n), int(n.min()), int(n.max()),
                     int(n.sum()), int(n.sum()) * 100 // len(n)))
    out = pd.DataFrame(
        rows,
        columns=["query_id", "n_buckets", "min_docs", "max_docs",
                 "sum_docs", "avg_docs_x100"],
    )
    return out.astype("int64")


def stats_bucket_oracle_sql() -> str:
    """stats_bucket oracle: the date_histogram CTE re-folded per query."""
    inner = date_histogram_oracle_sql().strip().rstrip().removesuffix("ORDER BY 1, 2").strip()
    return f"""
WITH hist AS (
{inner}
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(count(*) AS BIGINT) AS n_buckets,
       CAST(min(n_docs) AS BIGINT) AS min_docs,
       CAST(max(n_docs) AS BIGINT) AS max_docs,
       CAST(SUM(n_docs) AS BIGINT) AS sum_docs,
       CAST((SUM(n_docs) * 100) // count(*) AS BIGINT) AS avg_docs_x100
FROM hist GROUP BY 1 ORDER BY 1
"""


RT_MAX_DF = 100  # rare_terms: global-df rarity threshold (catches 'dup',
#                  the planted near-dup marker term; every other corpus
#                  term sits in ~380-460 docs)


def rare_terms_query(sf_dir: str) -> pd.DataFrame:
    """Rare-terms aggregation per FT_QUERY (ES rare_terms, exact
    dictionary-driven variant): vocabulary terms with global df ≤
    RT_MAX_DF appearing in ≥1 matching doc, with matching-doc counts.
    Output (query_id, term, n_docs) — hash-exact
    (pipelines/query.rare_terms)."""
    from ..pipelines.query import rare_terms

    index = _ensure_index(sf_dir, fresh=False)
    out = rare_terms(index, _query_table(FT_QUERIES), max_doc_count=RT_MAX_DF)
    return _rank_frame(out, by=("query_id", "term"))


def rare_terms_oracle_sql() -> str:
    return f"""
WITH {_toks(distinct=True)},
rare AS (SELECT tok FROM toks GROUP BY tok HAVING count(*) <= {RT_MAX_DF}),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(m.query_id AS BIGINT) AS query_id,
       t.tok AS term,
       CAST(count(*) AS BIGINT) AS n_docs
FROM matched m
JOIN toks t USING (doc_id)
JOIN rare r ON r.tok = t.tok
GROUP BY 1, 2
ORDER BY 1, 2
"""


HP_INTERVAL = 4  # histogram pipeline: doclen bucket width (doclen ∈ [10,99])


def histogram_pipeline_query(sf_dir: str) -> pd.DataFrame:
    """Histogram + pipeline aggregations per FT_QUERY (ES `histogram`
    min_doc_count=0 + `cumulative_sum` + `derivative` over the doclen
    docvalue): the DENSE bucket series between each match set's min and
    max bucket — zero-count buckets INCLUDED (that is what makes the
    pipeline aggs well-defined) — with the running total and the
    bucket-over-bucket difference (frozen 0 baseline at the series
    start). Output (query_id, bucket, n_docs, cum_docs, delta_docs) —
    all integers, hash-exact (pipelines/query.histogram_agg)."""
    from ..pipelines.query import histogram_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = histogram_agg(index, _query_table(FT_QUERIES), field="doclen", interval=HP_INTERVAL)
    return _rank_frame(out, by=("query_id", "bucket"))


def histogram_pipeline_oracle_sql() -> str:
    """Oracle: dense per-query bucket range via generate_series between
    the match set's min and max bucket, LEFT-JOINed counts (coalesce 0),
    then window functions replay the pipeline aggs — running SUM for
    cumulative_sum, value − lag(value, 1, 0) for the derivative with the
    frozen 0 start baseline."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
mb AS (SELECT m.query_id, dl.dl // {HP_INTERVAL} AS bucket
       FROM matched m JOIN dl USING (doc_id)),
counts AS (SELECT query_id, bucket, count(*) AS n FROM mb GROUP BY 1, 2),
bounds AS (SELECT query_id, min(bucket) AS b0, max(bucket) AS b1 FROM mb GROUP BY 1),
dense AS (SELECT query_id, unnest(generate_series(b0, b1)) AS bucket FROM bounds),
series AS (
  SELECT d.query_id, d.bucket, coalesce(c.n, 0) AS n_docs
  FROM dense d LEFT JOIN counts c ON c.query_id = d.query_id AND c.bucket = d.bucket
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(bucket AS BIGINT) AS bucket,
       CAST(n_docs AS BIGINT) AS n_docs,
       CAST(sum(n_docs) OVER w AS BIGINT) AS cum_docs,
       CAST(n_docs - lag(n_docs, 1, 0) OVER w AS BIGINT) AS delta_docs
FROM series
WINDOW w AS (PARTITION BY query_id ORDER BY bucket)
ORDER BY query_id, bucket
"""


ADH_TARGET = 20  # auto_date_histogram target bucket count


def auto_date_histogram_query(sf_dir: str) -> pd.DataFrame:
    """Auto-interval date histogram per FT_QUERY (ES auto_date_histogram
    over the warc_ts docvalue): the smallest frozen-ladder interval
    keeping the dense bucket series within ADH_TARGET buckets — sparser
    match sets get finer resolution, exactly the ES adaptive contract —
    then the DENSE counts at that interval, chosen interval on every
    row. Output (query_id, interval_us, bucket, n_docs), all integers
    (pipelines/query.auto_date_histogram)."""
    from ..pipelines.query import auto_date_histogram

    index = _ensure_index(sf_dir, fresh=False)
    out = auto_date_histogram(index, _query_table(FT_QUERIES), field="warc_ts", target_buckets=ADH_TARGET)
    return _rank_frame(out, by=("query_id", "bucket"))


def auto_date_histogram_oracle_sql() -> str:
    """Oracle: per-query (min, max) bounds, the ladder as a VALUES table,
    chosen interval = min ladder entry whose dense span fits the target
    (coalesce to the coarsest), then the dense generate_series counts at
    that interval — the engine's frozen warc_ts rule replayed inline."""
    from ..stages.query_stage import AutoDateHistogram

    ladder = ",".join(f"({iv})" for iv in AutoDateHistogram.LADDER)
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
mts AS (SELECT query_id, {ts} AS ts FROM matched),
bounds AS (SELECT query_id, min(ts) AS lo, max(ts) AS hi FROM mts GROUP BY 1),
ladder(iv) AS (VALUES {ladder}),
fits AS (
  SELECT b.query_id, min(l.iv) AS iv
  FROM bounds b JOIN ladder l ON (b.hi // l.iv - b.lo // l.iv + 1) <= {ADH_TARGET}
  GROUP BY 1
),
chosen AS (
  SELECT b.query_id, b.lo, b.hi,
         coalesce(f.iv, (SELECT max(iv) FROM ladder)) AS iv
  FROM bounds b LEFT JOIN fits f USING (query_id)
),
dense AS (
  SELECT query_id, iv, unnest(generate_series(lo // iv, hi // iv)) AS bucket
  FROM chosen
),
counts AS (
  SELECT m.query_id, c.iv, m.ts // c.iv AS bucket, count(*) AS n
  FROM mts m JOIN chosen c USING (query_id)
  GROUP BY 1, 2, 3
)
SELECT CAST(d.query_id AS BIGINT) AS query_id,
       CAST(d.iv AS BIGINT) AS interval_us,
       CAST(d.bucket AS BIGINT) AS bucket,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_docs
FROM dense d
LEFT JOIN counts c ON c.query_id = d.query_id AND c.bucket = d.bucket
ORDER BY d.query_id, d.bucket
"""


MW_WINDOW = 3  # moving_fn trailing window (buckets, current included)
MW_LAG = 2  # serial_diff lag


def moving_window_query(sf_dir: str) -> pd.DataFrame:
    """moving_fn + serial_diff pipeline aggregations per FT_QUERY (ES):
    the dense doclen-histogram series with the trailing MW_WINDOW-bucket
    sum (partial at the series head, the ES moving_fn behavior) and the
    lag-MW_LAG difference (frozen 0 baseline below the lag, the same
    total-output variant as the derivative). Output (query_id, bucket,
    n_docs, mov_sum, sdiff), all integers
    (pipelines/query.moving_window_agg)."""
    from ..pipelines.query import moving_window_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = moving_window_agg(
        index, _query_table(FT_QUERIES), field="doclen", interval=HP_INTERVAL,
        window=MW_WINDOW, lag=MW_LAG,
    )
    return _rank_frame(out, by=("query_id", "bucket"))


def moving_window_oracle_sql() -> str:
    """Oracle: the histogram-pipeline dense series; mov_sum is a ROWS
    BETWEEN window sum, sdiff is n − lag(n, MW_LAG, 0)."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
mb AS (SELECT m.query_id, dl.dl // {HP_INTERVAL} AS bucket
       FROM matched m JOIN dl USING (doc_id)),
counts AS (SELECT query_id, bucket, count(*) AS n FROM mb GROUP BY 1, 2),
bounds AS (SELECT query_id, min(bucket) AS b0, max(bucket) AS b1 FROM mb GROUP BY 1),
dense AS (SELECT query_id, unnest(generate_series(b0, b1)) AS bucket FROM bounds),
series AS (
  SELECT d.query_id, d.bucket, coalesce(c.n, 0) AS n_docs
  FROM dense d LEFT JOIN counts c ON c.query_id = d.query_id AND c.bucket = d.bucket
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(bucket AS BIGINT) AS bucket,
       CAST(n_docs AS BIGINT) AS n_docs,
       CAST(sum(n_docs) OVER (PARTITION BY query_id ORDER BY bucket
                              ROWS BETWEEN {MW_WINDOW - 1} PRECEDING AND CURRENT ROW) AS BIGINT) AS mov_sum,
       CAST(n_docs - lag(n_docs, {MW_LAG}, 0) OVER (PARTITION BY query_id ORDER BY bucket) AS BIGINT) AS sdiff
FROM series
ORDER BY query_id, bucket
"""


BS_MIN_COUNT = 2  # bucket_selector predicate: n_docs >= 2
BS_SIZE = 5  # bucket_sort truncation


def bucket_sort_query(sf_dir: str) -> pd.DataFrame:
    """bucket_selector + bucket_sort pipeline aggregations per FT_QUERY
    (ES): doclen-histogram buckets surviving n_docs >= BS_MIN_COUNT,
    re-ranked (n_docs DESC, bucket ASC), top BS_SIZE — the busiest
    doclen buckets of each match set. Output (query_id, rank, bucket,
    n_docs) (pipelines/query.bucket_sort_agg)."""
    from ..pipelines.query import bucket_sort_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = bucket_sort_agg(
        index, _query_table(FT_QUERIES), field="doclen", interval=HP_INTERVAL,
        min_count=BS_MIN_COUNT, size=BS_SIZE,
    )
    return _rank_frame(out, by=("query_id", "rank"))


def bucket_sort_oracle_sql() -> str:
    """Oracle: sparse histogram counts, HAVING-filtered by the selector
    predicate, row_number re-ranked (n DESC, bucket ASC), truncated."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
mb AS (SELECT m.query_id, dl.dl // {HP_INTERVAL} AS bucket
       FROM matched m JOIN dl USING (doc_id)),
counts AS (
  SELECT query_id, bucket, count(*) AS n
  FROM mb GROUP BY 1, 2
  HAVING count(*) >= {BS_MIN_COUNT}
),
ranked AS (
  SELECT query_id, bucket, n,
         row_number() OVER (PARTITION BY query_id ORDER BY n DESC, bucket) AS rank
  FROM counts
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(rank AS BIGINT) AS rank,
       CAST(bucket AS BIGINT) AS bucket,
       CAST(n AS BIGINT) AS n_docs
FROM ranked WHERE rank <= {BS_SIZE}
ORDER BY query_id, rank
"""


# Range-agg bounds over the doclen docvalue (None = open end). Deliberately
# NOT a partition: (100, 200) overlaps both neighbours (a doc can land in
# two buckets) and (1000, None) is empty at every driver scale — pinning
# the two contracts that make `range` more than a histogram special case:
# overlapping membership and the always-emitted zero bucket.
RANGE_BOUNDS = ((None, 120), (100, 200), (150, None), (1000, None))


def range_agg_query(sf_dir: str) -> pd.DataFrame:
    """Range aggregation per FT_QUERY (ES ``range`` over the doclen
    docvalue): doc_count + exact integer sum per configured half-open
    [from, to) bucket — every bucket of RANGE_BOUNDS emitted for every
    query, zero-count buckets and the OOV query's empty match set
    included (the ES bucket-skeleton contract). Output (query_id,
    range_idx, n_docs, sum_val), all integers
    (pipelines/query.range_agg)."""
    from ..pipelines.query import range_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = range_agg(index, _query_table(FT_QUERIES), field="doclen", ranges=RANGE_BOUNDS)
    return _rank_frame(out, by=("query_id", "range_idx"))


def range_agg_oracle_sql() -> str:
    """Range-agg oracle: the match set joined to integer doclens, CROSS
    JOINed against the VALUES-table of ranges with NULL-open bounds, then
    the full (query × range) skeleton LEFT-JOINs the aggregates so
    zero buckets and hit-less queries emit 0 rows exactly like the
    engine."""
    ranges = ",".join(
        f"({i}, {lo if lo is not None else 'NULL'}, {hi if hi is not None else 'NULL'})"
        for i, (lo, hi) in enumerate(RANGE_BOUNDS)
    )
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
ranges(range_idx, lo, hi) AS (VALUES {ranges}),
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
hits AS (
  SELECT m.query_id, r.range_idx, dl.dl
  FROM matched m
  JOIN dl USING (doc_id)
  CROSS JOIN ranges r
  WHERE (r.lo IS NULL OR dl.dl >= r.lo) AND (r.hi IS NULL OR dl.dl < r.hi)
),
agg AS (
  SELECT query_id, range_idx,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(dl) AS BIGINT) AS sum_val
  FROM hits GROUP BY 1, 2
),
skeleton AS (
  SELECT qq.query_id, r.range_idx
  FROM (SELECT DISTINCT query_id FROM q) qq CROSS JOIN ranges r
)
SELECT CAST(s.query_id AS BIGINT) AS query_id,
       CAST(s.range_idx AS BIGINT) AS range_idx,
       coalesce(a.n_docs, 0) AS n_docs,
       coalesce(a.sum_val, 0) AS sum_val
FROM skeleton s
LEFT JOIN agg a ON a.query_id = s.query_id AND a.range_idx = s.range_idx
ORDER BY s.query_id, s.range_idx
"""


MS_B_DIV = 1000  # matrix_stats: ts scaled to ms offsets so squares fit int64


def matrix_stats_query(sf_dir: str) -> pd.DataFrame:
    """Matrix-stats aggregation per FT_QUERY (ES matrix_stats over the
    doclen and crawl-ts docvalues): the exact integer sufficient
    statistics (n, Σa, Σb, Σa², Σb², Σab) with a = doclen and
    b = (warc_ts − BASE_TS_US) // MS_B_DIV, from which the matrix ES
    returns (means, variances, covariance, correlation) is pure float
    arithmetic (pipelines/query.matrix_stats). Hash-exact; the OOV query
    emits no row."""
    from ..pipelines.query import matrix_stats

    index = _ensure_index(sf_dir, fresh=False)
    out = matrix_stats(index, _query_table(FT_QUERIES), b_off=BASE_TS_US, b_div=MS_B_DIV)
    return _rank_frame(out, by=("query_id",))


def matrix_stats_oracle_sql() -> str:
    """Matrix-stats oracle: per-query joint integer moments of (token
    count, scaled ts permutation) over the distinct match set."""
    return f"""
WITH {_toks(distinct=True)},
{_toks(name="alltoks")},
dl AS (SELECT doc_id, count(*) AS a FROM alltoks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ab AS (
  SELECT m.query_id, dl.a,
         ((m.doc_id * {TS_MULT}) % {TS_MOD}) // {MS_B_DIV} AS b
  FROM matched m JOIN dl USING (doc_id)
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(SUM(a) AS BIGINT) AS sum_a,
       CAST(SUM(b) AS BIGINT) AS sum_b,
       CAST(SUM(a * a) AS BIGINT) AS sum_a2,
       CAST(SUM(b * b) AS BIGINT) AS sum_b2,
       CAST(SUM(a * b) AS BIGINT) AS sum_ab
FROM ab
GROUP BY 1
ORDER BY 1
"""


COMP_BUCKET_US = 250_000_000  # composite second source: warc_ts // 250s
COMP_PAGE_SIZE = 12


def composite_agg_query(sf_dir: str) -> pd.DataFrame:
    """Composite aggregation per FT_QUERY (ES `composite`): the FULL
    (lang ASC, ts-bucket ASC) bucket space of each query's match set,
    streamed in after_key pages of COMP_PAGE_SIZE buckets — the driver
    loop feeds each page's last key back as the next cursor, all live
    queries advancing in ONE pipeline launch per page round (pipelines/
    query.composite_agg). Output (query_id, page, lang, bucket, n_docs);
    the oracle recovers page as (row_number−1) // size over the same
    composite order, so the pagination semantics themselves are
    hash-checked. The OOV query matches nothing and emits no rows."""
    from ..pipelines.query import composite_agg

    index = _ensure_index(sf_dir, fresh=False)
    cursors: dict[int, tuple[str, int]] = {
        qid: ("", -1) for qid in range(len(FT_QUERIES))
    }
    live = sorted(cursors)
    frames = []
    page = 0
    while live:
        reqs = _query_table(
            [FT_QUERIES[q] for q in live],
            query_id=pa.array(live, pa.int64()),
            after_lang=pa.array([cursors[q][0] for q in live], pa.string()),
            after_bucket=pa.array([cursors[q][1] for q in live], pa.int64()),
        )
        res = _rank_frame(
            composite_agg(index, reqs, bucket_us=COMP_BUCKET_US, size=COMP_PAGE_SIZE),
            by=("query_id", "lang", "bucket"),
        )
        nxt = []
        for qid in live:
            g = res[res["query_id"] == qid]
            if len(g) == COMP_PAGE_SIZE:  # full page → there may be more
                last = g.iloc[-1]
                cursors[qid] = (str(last["lang"]), int(last["bucket"]))
                nxt.append(qid)
        if len(res):
            res["page"] = np.int64(page)
            frames.append(res)
        live = nxt
        page += 1
    out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        columns=["query_id", "lang", "bucket", "n_docs", "page"]
    )
    return (
        out[["query_id", "page", "lang", "bucket", "n_docs"]]
        .sort_values(["query_id", "page", "lang", "bucket"])
        .reset_index(drop=True)
    )


def composite_agg_oracle_sql() -> str:
    """Composite oracle: the (lang, ts-bucket) counts per query's distinct
    match set, page = (row_number−1) // size over the composite order —
    exactly the frames the engine's after_key loop emits."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
bkt AS (
  SELECT m.query_id, d.lang,
         CAST(({BASE_TS_US} + (m.doc_id * {TS_MULT}) % {TS_MOD}) // {COMP_BUCKET_US} AS BIGINT) AS bucket,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM matched m JOIN documents d USING (doc_id)
  GROUP BY 1, 2, 3
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST((row_number() OVER (PARTITION BY query_id ORDER BY lang, bucket) - 1)
            // {COMP_PAGE_SIZE} AS BIGINT) AS page,
       lang, bucket, n_docs
FROM bkt
ORDER BY query_id, page, lang, bucket
"""


def matchset_stats_query(sf_dir: str) -> pd.DataFrame:
    """Stats aggregation per FT_QUERY (ES stats agg): (n_docs, min, max,
    sum) of the crawl ts docvalue over the distinct matching docs
    (pipelines/query.matchset_stats; overflow-safe split-sum). Output is
    integer-only, hash-exact; the OOV query emits no row."""
    from ..pipelines.query import matchset_stats

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_stats(index, _query_table(FT_QUERIES))
    return _rank_frame(out, by=("query_id",))


def matchset_stats_oracle_sql() -> str:
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min({ts}) AS BIGINT) AS min_ts,
       CAST(max({ts}) AS BIGINT) AS max_ts,
       CAST(sum({ts}) AS BIGINT) AS sum_ts
FROM matched
GROUP BY 1
ORDER BY 1
"""


def string_stats_query(sf_dir: str) -> pd.DataFrame:
    """string_stats aggregation per FT_QUERY (ES string_stats on the text
    docvalue): matched-value length stats + character-entropy in the
    integer milli-nat × T contract (h_milli_t = T·l(T) − Σ c·l(c),
    l = round(ln·1000) — order-independent, hash-exact; ES's float
    entropy is h_milli_t/(1000·T) client-side, natural log where ES uses
    log2). OOV query emits no row
    (pipelines/query.matchset_string_stats)."""
    from ..pipelines.query import matchset_string_stats

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_string_stats(index, _query_table(FT_QUERIES))
    return _rank_frame(out, by=("query_id",))


def string_stats_oracle_sql() -> str:
    """Oracle: matched docs join documents; char counts via
    string_split(text, ''); the same milli-nat rounding on both sides
    (identical integer inputs → identical libm ln)."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
md AS (SELECT m.query_id, d.doc_id, d.text, length(d.text) AS len
       FROM matched m JOIN documents d USING (doc_id)),
ch AS (SELECT query_id, unnest(string_split(text, '')) AS c FROM md),
cc AS (SELECT query_id, c, count(*) AS n FROM ch GROUP BY 1, 2),
ent AS (SELECT query_id,
               CAST(sum(n) AS BIGINT) AS t,
               CAST(sum(n * CAST(round(ln(n)*1000) AS BIGINT)) AS BIGINT) AS s
        FROM cc GROUP BY 1),
st AS (SELECT query_id, count(*) AS n_values, min(len) AS min_len,
              max(len) AS max_len, sum(len) AS sum_len
       FROM md GROUP BY 1)
SELECT CAST(st.query_id AS BIGINT) AS query_id,
       CAST(n_values AS BIGINT) AS n_values,
       CAST(min_len AS BIGINT) AS min_len,
       CAST(max_len AS BIGINT) AS max_len,
       CAST(sum_len AS BIGINT) AS sum_len,
       CAST(ent.t * CAST(round(ln(ent.t)*1000) AS BIGINT) - ent.s AS BIGINT) AS h_milli_t
FROM st JOIN ent USING (query_id)
ORDER BY query_id
"""


def mad_query(sf_dir: str) -> pd.DataFrame:
    """median_absolute_deviation aggregation per FT_QUERY (ES MAD agg,
    exact type-1 instead of t-digest): lower median of doclen over the
    match set, then lower median of |doclen − median|
    (pipelines/query.matchset_mad). Integer-only."""
    from ..pipelines.query import matchset_mad

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_mad(index, _query_table(FT_QUERIES), field="doclen")
    return _rank_frame(out, by=("query_id",))


def mad_oracle_sql() -> str:
    """MAD oracle: doclen replay (non-distinct token counts), type-1
    lower median via row_number at floor(0.5·(n−1))+1, twice."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ranked AS (
  SELECT m.query_id, dl.dl AS v,
         row_number() OVER (PARTITION BY m.query_id ORDER BY dl.dl) AS rn,
         count(*) OVER (PARTITION BY m.query_id) AS n
  FROM matched m JOIN dl USING (doc_id)
),
med AS (SELECT query_id, v AS med, n
        FROM ranked WHERE rn = CAST(floor(0.5 * (n - 1)) AS BIGINT) + 1),
dranked AS (
  SELECT r.query_id, abs(r.v - m.med) AS d,
         row_number() OVER (PARTITION BY r.query_id ORDER BY abs(r.v - m.med)) AS rn,
         r.n
  FROM ranked r JOIN med m USING (query_id)
),
madv AS (SELECT query_id, d AS mad
         FROM dranked WHERE rn = CAST(floor(0.5 * (n - 1)) AS BIGINT) + 1)
SELECT CAST(med.query_id AS BIGINT) AS query_id,
       CAST(med.n AS BIGINT) AS n_docs,
       CAST(med.med AS BIGINT) AS median,
       CAST(madv.mad AS BIGINT) AS mad
FROM med JOIN madv USING (query_id)
ORDER BY query_id
"""


MT_BUCKET_W = 64
MT_K = 5


def multi_terms_query(sf_dir: str) -> pd.DataFrame:
    """multi_terms aggregation per FT_QUERY (ES multi_terms on the
    composite (lang, doclen//64) key): top-MT_K buckets by (count DESC,
    lang ASC, bucket ASC) (pipelines/query.multi_terms). Row order frozen
    by value sort on both sides."""
    from ..pipelines.query import multi_terms

    index = _ensure_index(sf_dir, fresh=False)
    out = multi_terms(
        index, _query_table(FT_QUERIES), facet="lang", field="doclen",
        bucket_width=MT_BUCKET_W, k=MT_K,
    )
    return _rank_frame(out, by=("query_id", "lang", "len_bucket"))


def multi_terms_oracle_sql() -> str:
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
grp AS (
  SELECT m.query_id, d.lang,
         CAST(floor(dl.dl / {MT_BUCKET_W}.0) AS BIGINT) AS len_bucket,
         count(*) AS c
  FROM matched m JOIN documents d USING (doc_id) JOIN dl USING (doc_id)
  GROUP BY 1, 2, 3
),
ranked AS (
  SELECT query_id, lang, len_bucket, c,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY c DESC, lang, len_bucket) AS rn
  FROM grp
)
SELECT CAST(query_id AS BIGINT) AS query_id, lang,
       CAST(len_bucket AS BIGINT) AS len_bucket,
       CAST(c AS BIGINT) AS n_docs
FROM ranked WHERE rn <= {MT_K}
ORDER BY 1, 2, 3
"""


# Frozen terms_enum prefix set: "s" and "t" fan wide, "qu" narrow, "zz"
# dead (must emit nothing), "b" medium.
TE_PREFIXES = ("s", "qu", "b", "zz", "t")
TE_SIZE = 8


def terms_enum_query(sf_dir: str) -> pd.DataFrame:
    """_terms_enum API per TE_PREFIX (ES terms_enum): the first TE_SIZE
    dictionary terms with the prefix, lexicographic, merged across the
    term-sharded segment dictionaries (pipelines/query.terms_enum)."""
    from ..pipelines.query import terms_enum

    index = _ensure_index(sf_dir, fresh=False)
    prefixes = pa.table(
        {
            "prefix_id": pa.array(range(len(TE_PREFIXES)), pa.int64()),
            "prefix": pa.array(list(TE_PREFIXES), pa.string()),
        }
    )
    return _rank_frame(terms_enum(index, prefixes, size=TE_SIZE), by=("prefix_id", "rank"))


def terms_enum_oracle_sql() -> str:
    """terms_enum oracle: the distinct corpus vocabulary filtered by
    prefix, ranked lexicographically, first TE_SIZE per prefix."""
    values = ",".join(f"({pid}, '{p}')" for pid, p in enumerate(TE_PREFIXES))
    return f"""
WITH vocab AS (
  SELECT DISTINCT tok FROM (
    SELECT unnest({TOKENIZE_SQL}) AS tok
    FROM documents) WHERE tok <> ''
),
p(prefix_id, prefix) AS (VALUES {values}),
ranked AS (
  SELECT p.prefix_id, vocab.tok,
         row_number() OVER (PARTITION BY p.prefix_id ORDER BY vocab.tok) AS rn
  FROM p JOIN vocab ON vocab.tok LIKE p.prefix || '%'
)
SELECT CAST(prefix_id AS BIGINT) AS prefix_id,
       CAST(rn AS INTEGER) AS rank,
       tok AS term
FROM ranked WHERE rn <= {TE_SIZE}
ORDER BY 1, 2
"""


def extended_stats_query(sf_dir: str) -> pd.DataFrame:
    """extended_stats aggregation per FT_QUERY (ES extended_stats on the
    doclen docvalue, exact-integer form): n, Σv, Σv² and the variance
    numerator n·Σv²−(Σv)² (pipelines/query.matchset_extended_stats)."""
    from ..pipelines.query import matchset_extended_stats

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_extended_stats(index, _query_table(FT_QUERIES), field="doclen")
    return _rank_frame(out, by=("query_id",))


def extended_stats_oracle_sql() -> str:
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(m.query_id AS BIGINT) AS query_id,
       COUNT(*) AS n_docs,
       CAST(SUM(dl.dl) AS BIGINT) AS "sum",
       CAST(SUM(dl.dl * dl.dl) AS BIGINT) AS sum_sq,
       CAST(COUNT(*) * CAST(SUM(dl.dl * dl.dl) AS BIGINT)
            - CAST(SUM(dl.dl) AS BIGINT) * CAST(SUM(dl.dl) AS BIGINT) AS BIGINT) AS var_num
FROM matched m JOIN dl USING (doc_id)
GROUP BY 1 ORDER BY 1
"""


def filters_agg_query(sf_dir: str) -> pd.DataFrame:
    """filters aggregation per FT_QUERY (ES filters agg with
    other_bucket): named buckets short/long/en plus other, all four
    emitted per non-empty match set (pipelines/query.filters_agg)."""
    from ..pipelines.query import filters_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = filters_agg(index, _query_table(FT_QUERIES))
    return _rank_frame(out, by=("query_id", "bucket"))


def filters_agg_oracle_sql() -> str:
    from ..stages.query_stage import FILTERS_AGG_LONG, FILTERS_AGG_SHORT

    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
j AS (SELECT m.query_id, dl.dl, d.lang
      FROM matched m JOIN dl USING (doc_id) JOIN documents d USING (doc_id)),
b(bucket) AS (VALUES ('short'), ('long'), ('en'), ('other'))
SELECT CAST(j.query_id AS BIGINT) AS query_id, b.bucket,
       CAST(SUM(CASE b.bucket
         WHEN 'short' THEN CASE WHEN j.dl < {FILTERS_AGG_SHORT} THEN 1 ELSE 0 END
         WHEN 'long'  THEN CASE WHEN j.dl >= {FILTERS_AGG_LONG} THEN 1 ELSE 0 END
         WHEN 'en'    THEN CASE WHEN j.lang = 'en' THEN 1 ELSE 0 END
         ELSE CASE WHEN j.dl >= {FILTERS_AGG_SHORT} AND j.dl < {FILTERS_AGG_LONG}
                    AND j.lang <> 'en' THEN 1 ELSE 0 END END) AS BIGINT) AS n_docs
FROM j CROSS JOIN b
GROUP BY 1, 2 ORDER BY 1, 2
"""


BUCKET_SCRIPT_DENOM = 8  # bucket_selector: keep langs with ≥ 1/8 of matches


def bucket_script_query(sf_dir: str) -> pd.DataFrame:
    """bucket_script + bucket_selector pipeline aggs per FT_QUERY (ES):
    lang-terms buckets over the match set carrying n_docs and sum_doclen,
    the script-derived integer avg_dl_x100 = sum_doclen*100 // n_docs,
    and the selector keeping buckets with ≥ 1/BUCKET_SCRIPT_DENOM of the
    query's matched docs — a scale-free integer cross-multiply, so the
    frozen contract holds at any sf (pipelines/query.bucket_script_agg).
    All columns integer, hash-exact."""
    from ..pipelines.query import bucket_script_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = bucket_script_agg(index, _query_table(FT_QUERIES), share_denom=BUCKET_SCRIPT_DENOM)
    return _rank_frame(out, by=("query_id", "lang"))


def bucket_script_oracle_sql() -> str:
    """Oracle: per-(query, lang) count + doclen sum over the distinct
    match set, HAVING the cross-multiplied share selector, integer ``//``
    for the script metric."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
tot AS (SELECT query_id, count(*) AS n_tot FROM matched GROUP BY 1),
b AS (SELECT m.query_id, d.lang, count(*) AS n_docs,
             CAST(SUM(dl.dl) AS BIGINT) AS sum_doclen
      FROM matched m JOIN documents d USING (doc_id) JOIN dl ON dl.doc_id = m.doc_id
      GROUP BY 1, 2)
SELECT CAST(b.query_id AS BIGINT) AS query_id, b.lang,
       CAST(b.n_docs AS BIGINT) AS n_docs,
       b.sum_doclen,
       CAST((b.sum_doclen * 100) // b.n_docs AS BIGINT) AS avg_dl_x100
FROM b JOIN tot USING (query_id)
WHERE b.n_docs * {BUCKET_SCRIPT_DENOM} >= tot.n_tot
ORDER BY 1, 2
"""


def t_test_query(sf_dir: str) -> pd.DataFrame:
    """ES t_test aggregation (Welch, heteroscedastic) per FT_QUERY:
    doclen of matched docs vs the rest of the corpus, moments from exact
    integer (n, S, SS) sums — additive per doc range, so the cluster
    plan is one partial-merge — with the float expression tree mirrored
    verbatim in the oracle and means/t rounded 3dp
    (pipelines/query.t_test_agg)."""
    from ..pipelines.query import t_test_agg

    index = _ensure_index(sf_dir, fresh=False)
    out = t_test_agg(index, _query_table(FT_QUERIES))
    return _rank_frame(out, by=("query_id",))


def t_test_oracle_sql() -> str:
    """Welch-t oracle: exact integer (n, S, SS) per side (rest = corpus −
    match), the SAME IEEE expression tree as the engine (every operand
    exact below 2^53 at oracle scales, so each op is correctly rounded
    identically on both engines), round 3dp, <2-doc sides dropped."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
corpus AS (
  SELECT CAST(count(*) AS BIGINT) AS n, CAST(SUM(dlv) AS BIGINT) AS s,
         CAST(SUM(dlv * dlv) AS BIGINT) AS ss
  FROM (SELECT coalesce(dl.dl, 0) AS dlv
        FROM documents d LEFT JOIN dl USING (doc_id))
),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
m AS (SELECT query_id, CAST(count(*) AS BIGINT) AS n1,
             CAST(SUM(dl.dl) AS BIGINT) AS s1,
             CAST(SUM(dl.dl * dl.dl) AS BIGINT) AS ss1
      FROM matched JOIN dl USING (doc_id) GROUP BY 1),
calc AS (SELECT m.query_id, m.n1, c.n - m.n1 AS n2,
                m.s1, c.s - m.s1 AS s2, m.ss1, c.ss - m.ss1 AS ss2
         FROM m CROSS JOIN corpus c)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(n1 AS BIGINT) AS n_match, CAST(n2 AS BIGINT) AS n_rest,
       round(CAST(s1 AS DOUBLE) / n1, 3) AS mean_match,
       round(CAST(s2 AS DOUBLE) / n2, 3) AS mean_rest,
       round( (CAST(s1 AS DOUBLE) / n1 - CAST(s2 AS DOUBLE) / n2)
              / sqrt( ((ss1 - CAST(s1 AS DOUBLE) * s1 / n1) / (n1 - 1)) / n1
                    + ((ss2 - CAST(s2 AS DOUBLE) * s2 / n2) / (n2 - 1)) / n2 ),
              3) AS t_stat
FROM calc WHERE n1 >= 2 AND n2 >= 2
ORDER BY query_id
"""


def export_matches_query(sf_dir: str) -> pd.DataFrame:
    """Scroll/export: the FULL match set per FT_QUERY as (query_id,
    doc_id) rows (pipelines/query.export_matches — a streaming Dataset;
    collected here only because the driver compares full results). The
    strongest completeness check of the postings layer: every (query,
    matching-doc) pair must surface, not just top-k."""
    from ..pipelines.query import export_matches

    index = _ensure_index(sf_dir, fresh=False)
    by = ("query_id", "doc_id")
    return _rank_frame(export_matches(index, _query_table(FT_QUERIES)), by=by, cols=by, index=index)


def export_matches_oracle_sql() -> str:
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))}
SELECT DISTINCT CAST(qd.query_id AS BIGINT) AS query_id, toks.doc_id
FROM qd JOIN toks USING (tok)
ORDER BY 1, 2
"""


PAGE_OFFSET = 10  # deep-paging window: ranks 11..20 (page 2 at k=10)


def bm25_topk_page2(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Deep paging (page 2): per FT_QUERY the MEMBERSHIP of absolute ranks
    offset+1..offset+k of the frozen BM25 total order. Implemented the way
    Lucene implements searchAfter/offset: collect top (offset+k) with the
    same exact WAND, then slice. The oracle checks the page SET
    (query_id, doc_id), not interior rank numbers: at depth >10 the
    corpus has bit-equal score ties whose SQL float replay can break a
    half-ulp differently (observed at sf0.01 rank 16/17), so interior
    order is not SQL-pinnable — rank-exactness of the ranking itself is
    already pinned by fulltext_bm25_topk and the frozen goldens, and the
    page BOUNDARY (who is in ranks 11..20) is exactly what this query
    verifies."""
    res = _run_queries(
        _ensure_index(sf_dir, fresh=False), FT_QUERIES, PAGE_OFFSET + k, "or"
    )
    out = res[res["rank"] > PAGE_OFFSET][["query_id", "doc_id"]]
    return out.sort_values(["query_id", "doc_id"]).reset_index(drop=True)


def bm25_page2_oracle_sql(k: int = 10) -> str:
    return _bm25_corpus_sql(
        "", _top(PAGE_OFFSET + k, "doc_id", lo=PAGE_OFFSET, order="doc_id")
    )


SIG_SAMPLE = 50   # foreground sample: each query's top-50 BM25 docs
SIG_MIN_FG = 3    # min sampled docs containing the term (ES min_doc_count)
SIG_SCALE = 1_000_000  # integer lift scale (frozen; makes ranking SQL-exact)
SIG_TOP = 10


def significant_terms(sf_dir: str) -> pd.DataFrame:
    """Significant-terms aggregation (Elasticsearch ``significant_text``
    under a ``sampler``): for each FT_QUERY, the terms over-represented
    in a deterministic S-doc sample of its match set relative to the
    whole corpus. INTEGER-ONLY end to end so the oracle replay is exact:

        sample = first SIG_SAMPLE docs of the match set by source doc_id
        lift   = (fg * N * SIG_SCALE) // (S * bg)

    fg = sampled docs containing the term, S = sample size (≤ SIG_SAMPLE),
    bg = GLOBAL df (the shard-dict sum scoring uses), N = corpus size —
    integer division, no floats anywhere (a top-k-by-BM25 sample would
    re-enter float-tie territory at depth 50; the doc_id sampler is ES's
    ``sampler`` aggregation shape with a frozen deterministic pick). The
    query's own tokens are excluded; fg ≥ SIG_MIN_FG (rare-junk floor);
    order (lift DESC, fg DESC, term ASC), top SIG_TOP per query.
    Foreground counting reads ONLY the ≤ S×Q sampled docs' text (the
    snippets-shaped right-sized fetch); bg comes from the dictionaries,
    no corpus scan."""
    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment
    from ..textnorm import tokenize
    import numpy as np
    import pyarrow.compute as pc

    index = _ensure_index(sf_dir, fresh=False)
    segs = [Segment(index, sid) for sid in list_segments(index)]
    from ..state import manifest as _mf

    n_docs = int(_mf.read_stats(index)["n_docs"])

    # internal doc_id -> source doc_id (via the docs sidecar urls; this is
    # the doclens-sized table — shards by doc range at cluster scale)
    import glob as _glob

    url_tbl = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "url"])
        for f in sorted(_glob.glob(os.path.join(index, "docs", "pid=*.parquet")))
    )
    int_ids = url_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    src_ids = np.asarray([url_doc_id(u) for u in url_tbl["url"].to_pylist()], dtype=np.int64)

    # per-query sample: match-set union -> source ids -> first S ascending
    samples: dict[int, list[int]] = {}
    for qid, q in enumerate(FT_QUERIES):
        lists = []
        for tok in set(tokenize(q)):
            for sg in segs:
                got = sg.term_postings(tok)
                if got is not None:
                    lists.append(got[0])
        if not lists:
            continue
        m = np.unique(np.concatenate(lists))
        srcs = np.sort(src_ids[np.searchsorted(int_ids, m)])
        samples[qid] = srcs[:SIG_SAMPLE].tolist()

    want_ids = sorted({d for s in samples.values() for d in s})
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(want_ids, pa.int64())))
    toks_of = {
        d: set(tokenize(x))
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }

    rows = []
    for qid, q in enumerate(FT_QUERIES):
        sample = samples.get(qid, [])
        s = len(sample)
        if s == 0:
            continue
        qtoks = set(tokenize(q))
        fg: dict[str, int] = {}
        for d in sample:
            for tok in toks_of[d]:
                if tok not in qtoks:
                    fg[tok] = fg.get(tok, 0) + 1
        cands = []
        for tok, f in fg.items():
            if f < SIG_MIN_FG:
                continue
            bg = sum(sg.dict[tok][0] for sg in segs if tok in sg.dict)
            lift = (f * n_docs * SIG_SCALE) // (s * bg)
            cands.append((-lift, -f, tok, bg))
        cands.sort()
        for rank, (nl, nf, tok, bg) in enumerate(cands[:SIG_TOP], start=1):
            rows.append((qid, rank, tok, -nf, bg, -nl))
    out = pd.DataFrame(
        rows, columns=["query_id", "rank", "term", "fg", "bg", "lift"]
    )
    out["query_id"] = out["query_id"].astype("int64")
    out["rank"] = out["rank"].astype("int32")
    for c in ("fg", "bg", "lift"):
        out[c] = out[c].astype("int64")
    return out


def significant_terms_oracle_sql() -> str:
    """Significant-terms oracle: the integer sampler (first SIG_SAMPLE
    matching doc_ids per query) → per-term fg over the sample, bg =
    global df, integer-division lift, (lift DESC, fg DESC, term ASC)
    window. No floats anywhere."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matches AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
sample AS (
  SELECT query_id, doc_id FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id ORDER BY doc_id) AS rn
    FROM matches) WHERE rn <= {SIG_SAMPLE}
),
ssize AS (SELECT query_id, CAST(count(*) AS BIGINT) AS s FROM sample GROUP BY 1),
n_corpus AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
dtoks AS (SELECT DISTINCT doc_id, tok FROM toks),
bg AS (SELECT tok, CAST(count(*) AS BIGINT) AS bg FROM dtoks GROUP BY 1),
fg AS (
  SELECT sm.query_id, dt.tok, CAST(count(*) AS BIGINT) AS fg
  FROM sample sm JOIN dtoks dt USING (doc_id)
  WHERE dt.tok NOT IN (SELECT tok FROM qd WHERE qd.query_id = sm.query_id)
  GROUP BY 1, 2
  HAVING count(*) >= {SIG_MIN_FG}
),
lifted AS (
  SELECT fg.query_id, fg.tok, fg.fg, bg.bg,
         (fg.fg * n.n * {SIG_SCALE}) // (ss.s * bg.bg) AS lift
  FROM fg JOIN bg USING (tok)
  JOIN ssize ss ON ss.query_id = fg.query_id
  CROSS JOIN n_corpus n
),
ranked AS (
  SELECT query_id, tok, fg, bg, lift,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY lift DESC, fg DESC, tok ASC) AS rank
  FROM lifted
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       tok AS term, fg, bg, CAST(lift AS BIGINT) AS lift
FROM ranked WHERE rank <= {SIG_TOP}
ORDER BY query_id, rank
"""


def spell_suggest(sf_dir: str) -> pd.DataFrame:
    """"Did you mean": for each FT_FUZZIES token NOT in the vocabulary,
    the Levenshtein≤1 dictionary term with the highest GLOBAL df (tie:
    term ASC) — Lucene DirectSpellChecker's frequency-ranked suggestion,
    computed from the same per-segment vectorized length-bucket scan the
    fuzzy mode uses (Segment.fuzzy1_candidates) with dfs summed across
    term shards. In-vocab tokens and tokens with no d≤1 neighbour emit no
    row (the SQL-join semantics). Output (query_id, token, suggestion,
    df)."""
    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment
    from ..textnorm import tokenize

    index = _ensure_index(sf_dir, fresh=False)
    segs = [Segment(index, sid) for sid in list_segments(index)]

    def global_df(term: str) -> int:
        return sum(sg.dict[term][0] for sg in segs if term in sg.dict)

    rows = []
    for qid, q in enumerate(FT_FUZZIES):
        seen = set()
        for tok in tokenize(q):
            if tok in seen:
                continue
            seen.add(tok)
            if global_df(tok) > 0:
                continue  # in vocabulary — nothing to correct
            cands = set()
            for sg in segs:
                cands.update(sg.fuzzy1_candidates(tok))
            cands.discard(tok)
            if not cands:
                continue
            best = min(cands, key=lambda c: (-global_df(c), c))  # df DESC, term ASC
            rows.append((qid, tok, best, global_df(best)))
    out = pd.DataFrame(rows, columns=["query_id", "token", "suggestion", "df"])
    out["query_id"] = out["query_id"].astype("int64")
    out["df"] = out["df"].astype("int64")
    return out


def spell_suggest_oracle_sql() -> str:
    """Spell-suggestion oracle: OOV query tokens joined to the vocabulary
    on levenshtein ≤ 1, argmax df with term-ASC tie via row_number."""
    values = _values(FT_FUZZIES, lambda q: dict.fromkeys(q.split()))
    return f"""
WITH {_toks(distinct=True)},
vocab AS (SELECT tok, CAST(count(*) AS BIGINT) AS df FROM toks GROUP BY 1),
q(query_id, token) AS (VALUES {values}),
oov AS (
  SELECT q.query_id, q.token FROM q
  WHERE q.token NOT IN (SELECT tok FROM vocab)
),
cand AS (
  SELECT o.query_id, o.token, v.tok AS suggestion, v.df,
         row_number() OVER (PARTITION BY o.query_id, o.token
                            ORDER BY v.df DESC, v.tok ASC) AS rn
  FROM oov o JOIN vocab v
    ON levenshtein(v.tok, o.token) <= 1 AND v.tok <> o.token
)
SELECT CAST(query_id AS BIGINT) AS query_id, token, suggestion, df
FROM cand WHERE rn = 1
ORDER BY query_id, token
"""


PS_PER_TOKEN = 3  # phrase suggester: candidates kept per token (df DESC)
PS_TOPK = 3       # suggestions emitted per query
# Phrase-suggester query set: misspellings chosen so single tokens expand
# to MULTIPLE vocabulary candidates (sow→{row,slow}, hast→{fast,hash},
# tort→{part,sort}, ag→{a,agg}) — the cartesian product and the collate
# ranking are genuinely exercised, not degenerate 1-candidate chains.
FT_PHRASE_FUZZIES = (
    "sow tabl",
    "hast tort",
    "ag stram",
    "zzznotinvocab merge",
    "quey",
)


def phrase_suggest(sf_dir: str) -> pd.DataFrame:
    """PHRASE SUGGESTER (ES phrase suggester with collate): whole-query
    "did you mean" over FT_PHRASE_FUZZIES. Per token, the top PS_PER_TOKEN
    in-vocabulary candidates within Levenshtein ≤ 1 (the token itself
    included when in vocab), ranked (global df DESC, term ASC) from the
    same vectorized dictionary scan fuzzy retrieval uses; whole-phrase
    candidates are the cartesian product, each COLLATED against the
    index — scored by the number of docs containing ALL its distinct
    tokens (sorted-postings intersection), zero-match phrases pruned
    (collate=true). Top PS_TOPK per query by (n_docs DESC, phrase ASC);
    a query with an uncorrectable token (no candidates) emits no rows.
    Output (query_id, rank, suggestion, n_docs) — integer-exact."""
    from itertools import product

    from ..pipelines.query import list_segments
    from ..stages.query_stage import Segment

    index = _ensure_index(sf_dir, fresh=False)
    segs = [Segment(index, sid) for sid in list_segments(index)]

    def global_df(term: str) -> int:
        return sum(sg.dict[term][0] for sg in segs if term in sg.dict)

    doc_arrs: dict[str, np.ndarray] = {}

    def doc_arr(term: str) -> np.ndarray:
        got = doc_arrs.get(term)
        if got is None:
            lists = [
                sg.term_postings(term)[0] for sg in segs if term in sg.dict
            ]
            got = np.unique(np.concatenate(lists)) if lists else np.empty(0, np.uint64)
            doc_arrs[term] = got
        return got

    rows = []
    for qid, q in enumerate(FT_PHRASE_FUZZIES):
        per_tok: list[list[str]] = []
        for tok in tokenize(q):
            cands: set[str] = set()
            for sg in segs:
                cands.update(sg.fuzzy1_candidates(tok))
            ranked = sorted(cands, key=lambda c: (-global_df(c), c))[:PS_PER_TOKEN]
            if not ranked:
                per_tok = []
                break
            per_tok.append(ranked)
        if not per_tok:
            continue
        scored = []
        for combo in product(*per_tok):
            cur: np.ndarray | None = None
            for t in sorted(set(combo)):
                arr = doc_arr(t)
                cur = arr if cur is None else np.intersect1d(cur, arr, assume_unique=True)
                if len(cur) == 0:
                    break
            n = int(len(cur)) if cur is not None else 0
            if n >= 1:  # collate: a suggestion must actually match
                scored.append((" ".join(combo), n))
        scored.sort(key=lambda x: (-x[1], x[0]))
        for r, (p, n) in enumerate(scored[:PS_TOPK], 1):
            rows.append((qid, r, p, n))
    out = pd.DataFrame(rows, columns=["query_id", "rank", "suggestion", "n_docs"])
    out["query_id"] = out["query_id"].astype("int64")
    out["rank"] = out["rank"].astype("int32")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


def phrase_suggest_oracle_sql() -> str:
    """Phrase-suggester oracle: per-token top-PS_PER_TOKEN levenshtein≤1
    vocabulary candidates (df DESC, term ASC), per-query cartesian
    product assembled as one SELECT block per query (token counts
    differ), each phrase collate-scored by a correlated containment
    count over per-doc token sets, ranked (n_docs DESC, phrase ASC)."""
    qtoks = ",".join(
        f"({qid}, {pos}, '{tok}')"
        for qid, q in enumerate(FT_PHRASE_FUZZIES)
        for pos, tok in enumerate(q.split())
    )
    blocks = []
    for qid, q in enumerate(FT_PHRASE_FUZZIES):
        n = len(q.split())
        aliases = [f"c{i}" for i in range(n)]
        phrase = " || ' ' || ".join(f"{a}.cand" for a in aliases)
        frm = " CROSS JOIN ".join(f"topc {a}" for a in aliases)
        where = " AND ".join(
            f"{a}.query_id = {qid} AND {a}.pos = {i}" for i, a in enumerate(aliases)
        )
        contains = " AND ".join(f"list_contains(d.tokset, {a}.cand)" for a in aliases)
        blocks.append(
            f"  SELECT {qid} AS query_id, {phrase} AS suggestion,\n"
            f"         (SELECT count(*) FROM docsets d WHERE {contains}) AS n_docs\n"
            f"  FROM {frm} WHERE {where}"
        )
    phrases = "\n  UNION ALL\n".join(blocks)
    return f"""
WITH {_toks(distinct=True)},
vocab AS (SELECT tok, CAST(count(*) AS BIGINT) AS df FROM toks GROUP BY 1),
docsets AS (SELECT doc_id, list(tok) AS tokset FROM toks GROUP BY 1),
qtoks(query_id, pos, tok) AS (VALUES {qtoks}),
cand AS (
  SELECT q.query_id, q.pos, v.tok AS cand,
         row_number() OVER (PARTITION BY q.query_id, q.pos
                            ORDER BY v.df DESC, v.tok ASC) AS rn
  FROM qtoks q JOIN vocab v ON levenshtein(v.tok, q.tok) <= 1
),
topc AS (SELECT * FROM cand WHERE rn <= {PS_PER_TOKEN}),
phrases AS (
{phrases}
),
ranked AS (
  SELECT query_id, suggestion, n_docs,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY n_docs DESC, suggestion ASC) AS rank
  FROM phrases WHERE n_docs >= 1
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       suggestion, CAST(n_docs AS BIGINT) AS n_docs
FROM ranked WHERE rank <= {PS_TOPK}
ORDER BY query_id, rank
"""


TITLE_LEN = 8        # synthetic title field: the doc's first 8 tokens
W_TITLE, W_BODY = 2.0, 1.0  # multi_match field boosts (title^2, body)


def _title_of(text: str) -> str:
    return " ".join(tokenize(text)[:TITLE_LEN])


def docs_as_title_pages(sf_dir: str, out_path: str) -> str:
    """documents → pages whose text is the TITLE field (first TITLE_LEN
    tokens). Every doc appears (an empty title is a doclen-0 doc), so the
    title field's N matches the corpus and its own avgdl/df are the
    field-local statistics Lucene keeps per field."""
    return _source_pages(sf_dir, out_path, _title_of)


def _ensure_title_index(sf_dir: str) -> str:
    """Build (or reuse) the TITLE-field index — a second postings space
    with its own doclens/avgdl/df, which is exactly what a Lucene field
    is. Reuses the whole build pipeline unchanged."""
    return _pages_index(sf_dir, "_title", lambda p: docs_as_title_pages(sf_dir, p))


REINDEX_LANG = "en"  # _reindex filter: destination holds only lang='en'


def _ensure_reindexed(sf_dir: str) -> str:
    """REINDEX API (ES `_reindex` with a query filter): stream the SOURCE
    index's docs sidecar — not the original raw corpus — through a lang
    filter into a fresh destination build. The destination RECOMPUTES its
    corpus statistics (N, avgdl, per-term df) over the surviving docs,
    which is exactly what distinguishes _reindex from a filtered search
    (bm25_topk_filtered keeps GLOBAL statistics and only gates
    eligibility). Reuses the whole build pipeline unchanged; cached under
    the workdir with the same _INDEX_DONE idempotency as every index."""
    return _pages_index(sf_dir, "_reindex", lambda p: _lang_pages(sf_dir, REINDEX_LANG, p))


def _lang_pages(sf_dir: str, lang: str, out_path: str) -> str:
    """The cached index's docs sidecar filtered to ``lang``, url-sorted,
    written back as pages."""
    t = pq.read_table(
        os.path.join(_ensure_index(sf_dir, fresh=False), "docs"),
        columns=["url", "text", "lang", "warc_ts"],
        filters=[("lang", "=", lang)],
    ).sort_by("url")
    return _write_pages(out_path, t["url"], t["warc_ts"].cast(pa.timestamp("us")), t["text"], t["lang"])


# Multi-index alias search: the alias spans one index per language —
# lang partitions are disjoint, so a doc lives in exactly one member index
ALIAS_LANGS = ("de", "fr")


def _ensure_lang_index(sf_dir: str, lang: str) -> str:
    """One alias-member index: the source docs sidecar filtered to
    ``lang``, rebuilt as a standalone index with its OWN recomputed
    statistics (each ES index carries its own stats — that per-index
    independence is exactly what cross-index search must respect)."""
    return _pages_index(sf_dir, f"_alias_{lang}", lambda p: _lang_pages(sf_dir, lang, p),
                        num_partitions=4)


def msearch_alias_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """MULTI-INDEX ALIAS SEARCH (ES: one alias over N indices, default
    query_then_fetch): each FT_QUERY runs against EVERY member index with
    that index's OWN statistics — a doc's score depends on which index it
    lives in, the documented ES cross-index behavior (and the reason
    dfs_query_then_fetch exists) — and the per-index hits merge into one
    ranking by (score DESC, source doc_id ASC). Lang partitions are
    disjoint, so the merge never sees one doc twice. Full-set re-rank in
    source space (the _full_ranking pattern) keeps the tie order exact.
    At cluster scale each member index is its own doc-range-sharded
    scorer fleet and the merge is the same k-sized fold as multifield's."""
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    frames = [
        _run_queries(_ensure_lang_index(sf_dir, lang), FT_QUERIES, n_docs, "or", cols=_SCORED)
        for lang in ALIAS_LANGS
    ]
    return _rerank(pd.concat(frames, ignore_index=True), k)


def msearch_alias_oracle_sql(k: int = 10) -> str:
    """Alias oracle: one full BM25 CTE stack PER member index (every
    statistic over that lang subset only), UNION ALL, then one global
    row_number per query over (score DESC, doc_id ASC)."""

    def stack(lang: str) -> str:
        return f"""
SELECT qd.query_id, tf_{lang}.doc_id,
       sum( ln(1 + (s.n - df_{lang}.df + 0.5) / (df_{lang}.df + 0.5))
            * tf_{lang}.tf * (1.2 + 1.0)
            / (tf_{lang}.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl_{lang}.dl / s.avgdl)) ) AS score
FROM qd
JOIN tf_{lang} USING (tok)
JOIN df_{lang} USING (tok)
JOIN dl_{lang} ON tf_{lang}.doc_id = dl_{lang}.doc_id
CROSS JOIN stats_{lang} s
GROUP BY 1, 2"""

    ctes = []
    for lang in ALIAS_LANGS:
        ctes.append(f"""
corpus_{lang} AS (SELECT doc_id, text FROM documents WHERE lang = '{lang}'),
toks_{lang} AS (
  SELECT doc_id, tok FROM (
    SELECT doc_id, unnest({TOKENIZE_SQL}) AS tok
    FROM corpus_{lang}) WHERE tok <> ''
),
dl_{lang} AS (SELECT c.doc_id, CAST(coalesce(t.c, 0) AS DOUBLE) AS dl
       FROM corpus_{lang} c LEFT JOIN (SELECT doc_id, count(*) AS c FROM toks_{lang} GROUP BY 1) t USING (doc_id)),
stats_{lang} AS (SELECT CAST(count(*) AS DOUBLE) AS n, avg(dl) AS avgdl FROM dl_{lang}),
tf_{lang} AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS tf FROM toks_{lang} GROUP BY 1, 2),
df_{lang} AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tf_{lang} GROUP BY 1)""")
    unioned = "\nUNION ALL\n".join(stack(lang) for lang in ALIAS_LANGS)
    return f"""
WITH {','.join(ctes)},
{_qd(_values(FT_QUERIES))},
scored AS (
{unioned}
),
{_ranked()}
{_top(k)}
"""


def reindex_lang_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """FT_QUERIES answered by the REINDEXED (lang-filtered) destination
    index: scores use the destination's RECOMPUTED N/avgdl/df, so ranks
    legitimately differ from bm25_topk_filtered's global-statistics
    ranking over the same doc subset — the reindex-vs-filter distinction
    itself is what the oracle pins (its CTEs compute every statistic over
    the lang='en' subset only). Full-set re-rank in source doc_id space
    (the _full_ranking pattern) keeps the external tie order exact."""
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    return _rerank(_run_queries(_ensure_reindexed(sf_dir), FT_QUERIES, n_docs, "or", cols=_SCORED), k)


def reindex_lang_oracle_sql(k: int = 10) -> str:
    """Reindex oracle: the BM25 stack with EVERY corpus statistic —
    N, avgdl, df, tf, dl — computed over the lang-filtered subset."""
    return f"""
WITH sub AS (SELECT doc_id, text FROM documents WHERE lang = '{REINDEX_LANG}'),
{_bm25_head("sub", "s")},
{_qd(_values(FT_QUERIES))},
{_scored()},
{_ranked()}
{_top(k)}
"""


def _full_ranking(index: str, k_all: int) -> pd.DataFrame:
    """Complete per-field scores for FT_QUERIES (brute path scores the
    whole match set; k_all >= corpus size keeps every doc), in SOURCE
    doc_id space."""
    return _run_queries(index, FT_QUERIES, k_all, "or", cols=_SCORED, method="brute")


def bm25_topk_doc_sharded(sf_dir: str, k: int = 10, n_ranges: int = 4) -> pd.DataFrame:
    """The CLUSTER-shape serving path as a first-class queryable op
    (SCALE.md §serving; pipelines/query.query_index_doc_sharded): scorer
    state is DOC-RANGE-SHARDED — at 10^12 docs the doclen sidecar cannot
    live in every scorer, so each range scorer loads ONLY its
    partitions' doclens and scores every query over doc_ids in [lo, hi)
    with GLOBAL df/idf; the per-range k-sized partial top-ks merge under
    the frozen (score DESC, doc_id ASC) order. EXACT by construction
    (every doc is scored wholly inside exactly one range — unlike
    per-term-segment top-k, SURVEY §8.3), so the oracle is the STANDARD
    full-corpus BM25 stack: the hash equality is precisely the
    attestation that the sandbox path and the cluster path compute the
    same ranking. URL resolution reuses the partition-pruned UrlResolver
    on the k-sized result (driver-side — right-sized even at scale)."""
    from ..pipelines.query import query_index_doc_sharded

    index = _ensure_index(sf_dir, fresh=False)
    res = query_index_doc_sharded(
        index, _query_table(FT_QUERIES), n_ranges=n_ranges, k=k
    )
    return _rank_frame(ray.data.from_pandas(res), cols=_RANKED, index=index)


def bm25_topk_serving(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """The STANDING-POOL serving path as a first-class queryable op
    (pipelines/query.start_serving/serve_queries — persistent scorer
    actors, state hot across calls, one round-trip per query batch
    instead of a Dataset pipeline launch; the architecture a search
    engine actually serves from). Shares bm25_topk's oracle: the scorer
    fn is the SAME importable object the pipeline path runs, so the hash
    equality driver-attests that pool dispatch changes nothing about the
    ranking (bit-identity also pinned by
    tests/test_pipeline.py::test_serving_pool_matches_pipeline). A pool
    this call started is torn down after the answer so repeated runs
    never leak actors; a pool that was already serving stays up."""
    from ..pipelines.query import _SERVE_POOLS, _kill_pool, serve_queries

    index = _ensure_index(sf_dir, fresh=False)
    before = set(_SERVE_POOLS)
    try:
        res = serve_queries(index, _query_table(FT_QUERIES), k=k, n_actors=4)
    finally:
        for key in set(_SERVE_POOLS) - before:
            _kill_pool(key)
    return _rank_frame(ray.data.from_pandas(res), cols=_RANKED, index=index)


def bm25_topk_daat(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """The reference cursor Block-Max WAND, document at a time
    (``query_stage.cursor_wand_topk`` — walks segment posting cursors
    directly, no cached contribution arrays; the memory shape a
    streaming-from-disk cluster scorer uses), run in this process and
    attested against bm25_topk's oracle. Cursor WAND is a test oracle, not
    a serving method; it is bit-identical to wand and brute (CLAUDE.md
    invariant), and this replays that identity per driver run through the
    shared DuckDB hash — the third member of the same-oracle-harder-path
    family (doc-sharded state, serving pool, cursor DAAT)."""
    from ..stages import query_stage as qs

    index = _ensure_index(sf_dir, fresh=False)
    scorer = qs.QueryScorer(index, k=k, method="brute")
    hits = [
        (qid, dict(zip(("doc_id", "score"), qs.cursor_wand_topk(scorer, tokenize(text)))))
        for qid, text in enumerate(FT_QUERIES)
    ]
    ds = ray.data.from_arrow(qs._ranked_table(hits, qs._SCORED_HITS))
    return _rank_frame(ds, cols=_RANKED, index=index)


def bm25_topk_multifield(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Multi-field retrieval (Lucene ``multi_match`` over ``title^2,
    body``): two REAL indexes — body (the shared one) and title (first
    TITLE_LEN tokens; _ensure_title_index) — each a full postings space
    with its own doclens/avgdl/df, scored independently and combined as

        score = W_TITLE * bm25_title + W_BODY * bm25_body

    over the union of both match sets (a doc matching only one field
    contributes 0 from the other), order (score DESC, doc_id ASC).
    Combination happens in source-doc space (urls align the two
    indexes). Exactness: each field's brute path scores its whole match
    set, so the combined ranking is exact — at cluster scale the same
    combine runs per doc-range shard (both fields' scorers see the same
    doc ranges; query_index_doc_sharded) with a final k-sized merge.
    The oracle replays both field CTEs and the weighted sum."""
    body = _ensure_index(sf_dir, fresh=False)
    title = _ensure_title_index(sf_dir)
    k_all = 1 << 30  # >= any corpus here: keep the full per-field rankings
    rb = _full_ranking(body, k_all)
    rt = _full_ranking(title, k_all)
    m = rb.merge(rt, on=["query_id", "doc_id"], how="outer", suffixes=("_b", "_t"))
    m["score"] = (
        W_TITLE * m["score_t"].fillna(0.0) + W_BODY * m["score_b"].fillna(0.0)
    )
    return _rerank(m, k)


def bm25_multifield_oracle_sql(k: int = 10) -> str:
    """Multi-field oracle: per-field BM25 CTE stacks (title = first
    TITLE_LEN tokens with field-local dl/avgdl/df; body = the standard
    stack) FULL-JOINed per (query, doc) and combined with the frozen
    weights."""
    return _fields_sql(
        f"{W_TITLE} * coalesce(t.score, 0) + {W_BODY} * coalesce(b.score, 0)", k
    )


def _field_stats() -> str:
    """The two field stacks' statistics: body = every token, title =
    the first TITLE_LEN tokens, each with field-local dl/avgdl/tf/df."""
    return f"""bod AS (SELECT doc_id,
                    list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
             FROM documents),
toksB AS (SELECT doc_id, unnest(a) AS tok FROM bod),
toksT AS (SELECT doc_id, unnest(list_slice(a, 1, {TITLE_LEN})) AS tok FROM bod),
dlB AS (SELECT doc_id, CAST(len(a) AS DOUBLE) AS dl FROM bod),
dlT AS (SELECT doc_id, CAST(least(len(a), {TITLE_LEN}) AS DOUBLE) AS dl FROM bod),
statsB AS (SELECT CAST(count(*) AS DOUBLE) AS n, avg(dl) AS avgdl FROM dlB),
statsT AS (SELECT CAST(count(*) AS DOUBLE) AS n, avg(dl) AS avgdl FROM dlT),
tfB AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS tf FROM toksB GROUP BY 1, 2),
dfB AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tfB GROUP BY 1),
tfT AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS tf FROM toksT GROUP BY 1, 2),
dfT AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tfT GROUP BY 1)"""


def _fields_sql(combine: str, k: int) -> str:
    """Per-field BM25 scores (``b``, ``t``) FULL-JOINed per (query, doc)
    and ranked by the expression ``combine`` over their scores."""
    return f"""
WITH {_field_stats()},
{_qd(_values(FT_QUERIES))},
scoredB AS (
  SELECT qd.query_id, tfB.doc_id,
         sum( ln(1 + (s.n - dfB.df + 0.5) / (dfB.df + 0.5))
              * tfB.tf * (1.2 + 1.0)
              / (tfB.tf + 1.2 * (1.0 - 0.75 + 0.75 * dlB.dl / s.avgdl)) ) AS score
  FROM qd JOIN tfB USING (tok) JOIN dfB USING (tok)
  JOIN dlB ON tfB.doc_id = dlB.doc_id
  CROSS JOIN statsB s GROUP BY 1, 2
),
scoredT AS (
  SELECT qd.query_id, tfT.doc_id,
         sum( ln(1 + (s.n - dfT.df + 0.5) / (dfT.df + 0.5))
              * tfT.tf * (1.2 + 1.0)
              / (tfT.tf + 1.2 * (1.0 - 0.75 + 0.75 * dlT.dl / s.avgdl)) ) AS score
  FROM qd JOIN tfT USING (tok) JOIN dfT USING (tok)
  JOIN dlT ON tfT.doc_id = dlT.doc_id
  CROSS JOIN statsT s GROUP BY 1, 2
),
comb AS (
  SELECT coalesce(b.query_id, t.query_id) AS query_id,
         coalesce(b.doc_id, t.doc_id) AS doc_id,
         {combine} AS score
  FROM scoredB b FULL JOIN scoredT t
    ON b.query_id = t.query_id AND b.doc_id = t.doc_id
),
{_ranked("comb")}
{_top(k)}
"""


CF_W_TITLE = 2  # combined_fields integer title weight (tf'/dl' stay exact ints)


def combined_fields_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Combined-fields retrieval per FT_QUERY (ES ``combined_fields`` /
    Lucene BM25F over title^2 + body): the THIRD multi_match-family
    semantics — fields merge into one synthetic field BEFORE scoring
    (tf' = tf_body + 2·tf_title, dl' = dl_body + 2·dl_title, combined
    avgdl'; df' = df_body since title ⊆ body), then ONE standard BM25
    ranks — distinct from the weighted score sum (multifield) and the
    per-term best field (cross_fields). Both REAL field indexes serve
    the gathers (pipelines/query.combined_fields_topk); integer tf'/dl'
    make the float chain SQL-replayable bitwise. Clone docs tie exactly,
    so the page re-ranks in source doc_id space over the full match set
    (the _full_ranking pattern)."""
    from ..pipelines.query import combined_fields_topk

    body = _ensure_index(sf_dir, fresh=False)
    title = _ensure_title_index(sf_dir)
    k_all = 1 << 30  # whole match set: ties re-rank in source-id space
    ds = combined_fields_topk(body, title, _query_table(FT_QUERIES), w_title=CF_W_TITLE, k=k_all)
    return _rerank(_rank_frame(ds, cols=_SCORED, index=body), k)


def combined_fields_oracle_sql(k: int = 10) -> str:
    """Combined-fields oracle: ONE BM25 stack over merged-field
    statistics — tf' = tf_body + 2·tf_title and dl' = dl_body + 2·dl_title
    are exact integers on both engines, avgdl' is one exact-int divide,
    df' = body df (title ⊆ body), and the scoring expression is the
    verbatim standard chain over those inputs."""
    return f"""
WITH bod AS (SELECT doc_id,
                    list_filter({TOKENIZE_SQL}, x -> x <> '') AS a
             FROM documents),
toksB AS (SELECT doc_id, unnest(a) AS tok FROM bod),
toksT AS (SELECT doc_id, unnest(list_slice(a, 1, {TITLE_LEN})) AS tok FROM bod),
dlc AS (SELECT doc_id,
               CAST(len(a) + {CF_W_TITLE} * least(len(a), {TITLE_LEN}) AS DOUBLE) AS dl
        FROM bod),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n,
                 CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS avgdl
          FROM dlc),
tfB AS (SELECT doc_id, tok, count(*) AS tf FROM toksB GROUP BY 1, 2),
tfT AS (SELECT doc_id, tok, count(*) AS tf FROM toksT GROUP BY 1, 2),
tfc AS (SELECT b.doc_id, b.tok,
               CAST(b.tf + {CF_W_TITLE} * coalesce(t.tf, 0) AS DOUBLE) AS tf
        FROM tfB b LEFT JOIN tfT t ON b.doc_id = t.doc_id AND b.tok = t.tok),
dfB AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tfB GROUP BY 1),
{_qd(_values(FT_QUERIES))},
scored AS (
  SELECT qd.query_id, tfc.doc_id,
         sum( ln(1 + (s.n - dfB.df + 0.5) / (dfB.df + 0.5))
              * tfc.tf * (1.2 + 1.0)
              / (tfc.tf + 1.2 * (1.0 - 0.75 + 0.75 * dlc.dl / s.avgdl)) ) AS score
  FROM qd
  JOIN tfc USING (tok)
  JOIN dfB USING (tok)
  JOIN dlc ON tfc.doc_id = dlc.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
{_ranked()}
{_top(k)}
"""


# Pinned results: per FT_QUERY, the promoted source doc ids, in display
# order. Ids exist at every driver scale (sf0.001 has 50 docs). Query 2
# pins a doc that does NOT match "vector" — the ES pinned contract shows
# it anyway; query 4 (OOV) is pure pins over an empty organic ranking.
FT_PINNED = ((7, 3), (11,), (44,), (), (5, 9), ())


def bm25_topk_pinned(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """PINNED query per FT_QUERY (Elasticsearch's ``pinned`` query —
    promoted/sponsored results): the configured ids rank 1..p in their
    GIVEN order regardless of relevance (a pinned doc that does not
    match still shows — ES's contract), then the organic disjunctive
    ranking fills the page, skipping docs already pinned. Output
    (query_id, rank, doc_id). Composition-only: one or-mode page of
    k+p through the real index plus a constant prepend — nothing new
    touches the corpus, which is exactly how ES implements it
    (organic query wrapped in a dis_max with a huge constant boost)."""
    index = _ensure_index(sf_dir, fresh=False)
    organic = _run_queries(
        index, FT_QUERIES, k + max((len(p) for p in FT_PINNED), default=0), "or"
    )
    rows = []
    for qid in range(len(FT_QUERIES)):
        pins = [p for p in FT_PINNED[qid]]
        page = list(pins)
        for d in organic[organic.query_id == qid]["doc_id"]:
            if len(page) >= k:
                break
            if int(d) not in pins:
                page.append(int(d))
        rows.extend((qid, r + 1, d) for r, d in enumerate(page[:k]))
    out = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id"])
    out["query_id"] = out["query_id"].astype("int64")
    out["rank"] = out["rank"].astype("int32")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def bm25_pinned_oracle_sql(k: int = 10) -> str:
    """Pinned oracle: the standard stack's organic ranking unioned under
    the pins VALUES (pin ordinal as the primary sort key), pinned docs
    removed from the organic side, re-ranked."""
    pin_rows = [
        (qid, ordinal, d)
        for qid, pins in enumerate(FT_PINNED)
        for ordinal, d in enumerate(pins)
    ]
    pins = ",".join(f"({q}, {o}, {d})" for q, o, d in pin_rows) or "(NULL, NULL, NULL)"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
pins(query_id, ord, doc_id) AS (VALUES {pins}),
{_scored()},
organic AS (
  SELECT s.query_id, s.doc_id, s.score
  FROM scored s
  LEFT JOIN pins p ON p.query_id = s.query_id AND p.doc_id = s.doc_id
  WHERE p.doc_id IS NULL
),
unioned AS (
  SELECT query_id, doc_id, 0 AS tier, ord AS ord2, 0.0 AS score
  FROM pins WHERE query_id IS NOT NULL
  UNION ALL
  SELECT query_id, doc_id, 1 AS tier, 0 AS ord2, score FROM organic
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY tier, ord2, score DESC, doc_id) AS rank
  FROM unioned
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS INTEGER) AS rank,
       CAST(doc_id AS BIGINT) AS doc_id
FROM ranked WHERE rank <= {k}
ORDER BY query_id, rank
"""


RS_SEED = "graft-r3"  # random_score seed (frozen)


def random_score_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """RANDOM_SCORE retrieval per FT_QUERY (ES function_score
    random_score with a seed + field): the match set ranked by a
    DETERMINISTIC per-doc hash — md5-64 of "seed:url" (md5 so DuckDB
    replays it; the simhash idiom) — descending, doc_id tie-break. The
    ES use-case verbatim: a reproducible shuffle of matching docs
    (diverse sampling pages that are stable across reruns and shards —
    the hash is a pure function of the doc, no coordination). Here the
    page assembles from the streamed export (match sets are small at
    driver scale); at 10^12 docs the same hash ranks via per-batch
    partial top-k exactly like the kNN scan. Output (query_id, rank,
    doc_id)."""
    from ..pipelines.query import export_matches

    index = _ensure_index(sf_dir, fresh=False)
    res = _rank_frame(export_matches(index, _query_table(FT_QUERIES)), by=("query_id",), index=index)
    res["h"] = [
        int(hashlib.md5(f"{RS_SEED}:{u}".encode()).hexdigest()[:16], 16)
        for u in res["url"]
    ]
    return _rerank(res, k, "h")


def random_score_oracle_sql(k: int = 10) -> str:
    """random_score oracle: the match set with the md5-prefix hash of
    seed:url replayed, ranked descending."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
hashed AS (
  SELECT query_id, doc_id,
         CAST(concat('0x', substr(md5('{RS_SEED}:' || 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0')), 1, 16)) AS UBIGINT) AS h
  FROM matched
),
{_ranked("hashed", "h")}
{_top(k)}
"""


# cross_fields query set: every query has <= 2 DISTINCT terms, deliberately.
# A doc's score is a sum of per-term blended contributions; DuckDB's
# parallel aggregate sums >= 3 addends in nondeterministic order, so two
# docs with identical inputs (the planted clones) can land an ulp apart
# and permute — with <= 2 addends the sum is commutative and exact ties
# stay exact, breaking by doc_id identically on both sides. (Found live:
# "customer stream batch" permuted an exact-tie clone trio at ranks 1-3.)
FT_CROSS = (
    "table spark",
    "query group",
    "vector",
    "customer stream",
    "slow merge",
    "zzznotinvocab table",
)


def bm25_topk_cross_fields(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """CROSS-FIELDS multi-field retrieval (the third Lucene ``multi_match``
    mode, next to best_fields=dis_max and most_fields=weighted sum): the
    match is term-centric — each query term takes its BEST field's
    weighted contribution, and the doc sums those per-term bests:

        score = Σ_t max(W_TITLE × bm25_title(t), W_BODY × bm25_body(t))

    "every term must be found in SOME field, whichever is strongest" —
    the mode for attribute-split documents (first/last name) where
    best_fields under-scores cross-field matches and most_fields
    double-counts. (Lucene's exact BlendedTermQuery df-munging is not
    hash-replayable; the per-term-max form is the frozen, SQL-exact
    blend.) Per-term per-field contributions come from 1-term brute
    rankings through each REAL index (a 1-term query's score IS that
    term's contribution); combination is in source-doc space. At
    cluster scale the same combine runs per doc-range shard — both
    fields' scorers shard identically — with a k-sized merge, exactly
    the multifield story. Output (query_id, rank, doc_id)."""
    body = _ensure_index(sf_dir, fresh=False)
    title = _ensure_title_index(sf_dir)
    terms = sorted({t for q in FT_CROSS for t in q.split()})
    k_all = 1 << 30

    def rank(idx: str) -> pd.DataFrame:
        return _run_queries(idx, terms, k_all, "or", cols=_SCORED, method="brute")

    m = rank(body).merge(
        rank(title), on=["query_id", "doc_id"], how="outer", suffixes=("_b", "_t")
    )
    m["c"] = np.maximum(
        W_TITLE * m["score_t"].fillna(0.0).to_numpy(),
        W_BODY * m["score_b"].fillna(0.0).to_numpy(),
    )
    m["term"] = m["query_id"].map(dict(enumerate(terms)))
    expand = pd.DataFrame(
        [(qid, t) for qid, q in enumerate(FT_CROSS) for t in sorted(set(q.split()))],
        columns=["qid", "term"],
    )
    j = expand.merge(m[["term", "doc_id", "c"]], on="term")
    scored = j.groupby(["qid", "doc_id"], sort=True)["c"].sum().reset_index()
    return _rerank(scored.rename(columns={"qid": "query_id"}), k, "c")


def bm25_cross_fields_oracle_sql(k: int = 10) -> str:
    """cross_fields oracle: the multifield per-field CTE stacks kept at
    PER-TERM granularity (no per-query sum yet), FULL-JOINed per
    (term, doc), blended with greatest(), then summed per (query, doc)."""
    return f"""
WITH {_field_stats()},
{_qd(_values(FT_CROSS))},
contribB AS (
  SELECT tfB.tok, tfB.doc_id,
         ln(1 + (s.n - dfB.df + 0.5) / (dfB.df + 0.5))
         * tfB.tf * (1.2 + 1.0)
         / (tfB.tf + 1.2 * (1.0 - 0.75 + 0.75 * dlB.dl / s.avgdl)) AS c
  FROM tfB JOIN dfB USING (tok)
  JOIN dlB ON tfB.doc_id = dlB.doc_id
  CROSS JOIN statsB s
),
contribT AS (
  SELECT tfT.tok, tfT.doc_id,
         ln(1 + (s.n - dfT.df + 0.5) / (dfT.df + 0.5))
         * tfT.tf * (1.2 + 1.0)
         / (tfT.tf + 1.2 * (1.0 - 0.75 + 0.75 * dlT.dl / s.avgdl)) AS c
  FROM tfT JOIN dfT USING (tok)
  JOIN dlT ON tfT.doc_id = dlT.doc_id
  CROSS JOIN statsT s
),
blended AS (
  SELECT coalesce(b.tok, t.tok) AS tok, coalesce(b.doc_id, t.doc_id) AS doc_id,
         greatest({W_TITLE} * coalesce(t.c, 0), {W_BODY} * coalesce(b.c, 0)) AS c
  FROM contribB b FULL JOIN contribT t
    ON b.tok = t.tok AND b.doc_id = t.doc_id
),
scored AS (
  SELECT qd.query_id, bl.doc_id, sum(bl.c) AS score
  FROM qd JOIN blended bl USING (tok)
  GROUP BY 1, 2
),
{_ranked()}
{_top(k)}
"""


def search_after_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """SEARCH_AFTER cursor pagination (ES search_after — the scale-safe
    deep-paging API): page 1 of the recency sort supplies each query's
    cursor (the rank-k hit's (warc_ts, doc_id) sort key, in ENGINE doc
    space), then pipelines/query.search_after_topk returns the next k
    matches strictly after the cursor — equal, by construction, to ranks
    k+1..2k of the full recency ordering, which is what the oracle
    replays. Output (query_id, rank, doc_id, warc_ts), rank 1..k within
    the page."""
    from ..pipelines.query import search_after_topk, sort_topk

    index = _ensure_index(sf_dir, fresh=False)
    page1 = _rank_frame(sort_topk(index, _query_table(FT_QUERIES), field="warc_ts", k=k))
    last = page1[page1["rank"] == page1.groupby("query_id")["rank"].transform("max")]
    cur = {int(r.query_id): (int(r.warc_ts), int(r.doc_id)) for r in last.itertuples()}
    keep = [qid for qid in range(len(FT_QUERIES)) if qid in cur]
    q2 = _query_table(
        [FT_QUERIES[qid] for qid in keep],
        query_id=pa.array(keep, pa.int64()),
        after_val=pa.array([cur[qid][0] for qid in keep], pa.int64()),
        after_doc=pa.array([cur[qid][1] for qid in keep], pa.uint64()),
    )
    out = _rank_frame(search_after_topk(index, q2, field="warc_ts", k=k),
                      cols=("query_id", "rank", "doc_id", "warc_ts"), index=index)
    return out.astype({"warc_ts": "int64"})


def search_after_oracle_sql(k: int = 10) -> str:
    """search_after oracle: the recency ordering's ranks k+1..2k (cursor
    paging after a full first page is exactly the next window), rank
    renumbered 1..k within the page."""
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ranked AS (
  SELECT query_id, doc_id, {ts} AS warc_ts,
         row_number() OVER (PARTITION BY query_id ORDER BY {ts} DESC, doc_id) AS rn
  FROM matched
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       CAST(rn - {k} AS INTEGER) AS rank,
       doc_id,
       CAST(warc_ts AS BIGINT) AS warc_ts
FROM ranked WHERE rn > {k} AND rn <= {2 * k}
ORDER BY query_id, rank
"""


def percolate_query(sf_dir: str) -> pd.DataFrame:
    """Percolation (reverse search) of the documents stream against
    FT_QUERIES as STORED conjunctive queries (pipelines/query.percolate):
    every (stored query, matching doc) pair, no index consulted — the
    alerting/routing primitive. The OOV query matches nothing. Output
    (query_id, doc_id), integer-only."""
    from ..pipelines.query import percolate

    out = _rank_frame(percolate(f"{sf_dir}/documents.parquet", _query_table(FT_QUERIES)),
                      by=("query_id", "doc_id"))
    return out.astype({"doc_id": "int64"})


def percolate_oracle_sql() -> str:
    """Percolator oracle: conjunctive containment — a (query, doc) pair
    survives iff the doc's distinct-token join covers ALL the query's
    distinct terms (OOV terms never join, so their queries return no
    rows)."""
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
qn AS (SELECT query_id, count(*) AS n FROM qd GROUP BY 1),
mc AS (SELECT qd.query_id, toks.doc_id, count(DISTINCT qd.tok) AS c
       FROM qd JOIN toks USING (tok) GROUP BY 1, 2)
SELECT CAST(mc.query_id AS BIGINT) AS query_id, mc.doc_id
FROM mc JOIN qn USING (query_id)
WHERE mc.c = qn.n
ORDER BY 1, 2
"""


# term-stats probe set: every FT_QUERIES token, a known-rare term, an OOV
FT_STAT_TERMS = tuple(sorted({t for q in FT_QUERIES for t in q.split()} | {"dup"}))


def term_stats_query(sf_dir: str) -> pd.DataFrame:
    """Term statistics per probe term (ES _termvectors term_statistics):
    global visible df + total term frequency from the decoded postings
    (pipelines/query.term_stats) — the strongest dictionary+tf audit
    short of a full export. OOV terms emit no row."""
    from ..pipelines.query import term_stats

    index = _ensure_index(sf_dir, fresh=False)
    terms = pa.table({"term": pa.array(list(FT_STAT_TERMS), pa.string())})
    return _rank_frame(term_stats(index, terms), by=("term",))


def term_stats_oracle_sql() -> str:
    values = ",".join(f"('{t}')" for t in FT_STAT_TERMS)
    return f"""
WITH {_toks()},
probe(term) AS (VALUES {values})
SELECT probe.term,
       CAST(count(DISTINCT toks.doc_id) AS BIGINT) AS df,
       CAST(count(*) AS BIGINT) AS ttf
FROM probe JOIN toks ON toks.tok = probe.term
GROUP BY 1
ORDER BY 1
"""


def facet_cardinality_query(sf_dir: str) -> pd.DataFrame:
    """Cardinality aggregation per FT_QUERY (ES cardinality agg): distinct
    lang values among matching docs (pipelines/query.facet_cardinality).
    Exact here; the HLL sketch (functions/sketches.py) is the large-value-
    space drop-in, as in ES."""
    from ..pipelines.query import facet_cardinality

    index = _ensure_index(sf_dir, fresh=False)
    out = facet_cardinality(index, _query_table(FT_QUERIES), facet="lang")
    return _rank_frame(out, by=("query_id",))


def facet_cardinality_oracle_sql() -> str:
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok))
SELECT CAST(m.query_id AS BIGINT) AS query_id,
       CAST(count(DISTINCT d.lang) AS BIGINT) AS n_values
FROM matched m JOIN documents d USING (doc_id)
GROUP BY 1
ORDER BY 1
"""


PCTL_QUANTILES = (0.25, 0.5, 0.75)


def matchset_percentiles_query(sf_dir: str) -> pd.DataFrame:
    """Percentiles aggregation per FT_QUERY (ES percentiles agg, exact
    type-1): the warc_ts order statistic at floor(q·(n−1)) for q ∈
    {25, 50, 75}% (pipelines/query.matchset_percentiles). Integer-only."""
    from ..pipelines.query import matchset_percentiles

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_percentiles(index, _query_table(FT_QUERIES), quantiles=PCTL_QUANTILES)
    return _rank_frame(out, by=("query_id", "pct"))


def matchset_percentiles_oracle_sql() -> str:
    qvals = ",".join(f"({q}, {int(round(q * 100))})" for q in PCTL_QUANTILES)
    ts = f"({BASE_TS_US} + (doc_id * {TS_MULT}) % {TS_MOD})"
    return f"""
WITH {_toks(distinct=True)},
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
ranked AS (
  SELECT query_id, {ts} AS v,
         row_number() OVER (PARTITION BY query_id ORDER BY {ts}) AS rn,
         count(*) OVER (PARTITION BY query_id) AS n
  FROM matched
),
quant(qf, pct) AS (VALUES {qvals})
SELECT CAST(r.query_id AS BIGINT) AS query_id,
       CAST(quant.pct AS BIGINT) AS pct,
       CAST(r.v AS BIGINT) AS value
FROM ranked r JOIN quant ON r.rn = CAST(floor(quant.qf * (r.n - 1)) AS BIGINT) + 1
ORDER BY 1, 2
"""


def matchset_boxplot_query(sf_dir: str) -> pd.DataFrame:
    """Boxplot aggregation per FT_QUERY (ES ``boxplot`` agg, exact integer
    form over the doclen docvalue): five-number summary — min, Q1/Q2/Q3 as
    type-1 order statistics at floor(q·(n−1)), max — plus Tukey 1.5·IQR
    fence outlier counts with the comparison doubled into int64
    (stages/query_stage.MatchsetBoxplot has the merge-across-doc-ranges
    posture). Output all-integer, hash-exact."""
    from ..pipelines.query import matchset_boxplot

    index = _ensure_index(sf_dir, fresh=False)
    out = matchset_boxplot(index, _query_table(FT_QUERIES), field="doclen")
    return _rank_frame(out, by=("query_id",))


def matchset_boxplot_oracle_sql() -> str:
    """Boxplot oracle: dl = per-doc token count (the engine's doclen),
    quartiles via row_number() = floor(q·(n−1)) + 1, fences replayed with
    the identical doubled-integer comparisons."""
    return f"""
WITH {_toks()},
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
{_qd(_values(FT_QUERIES))},
matched AS (SELECT DISTINCT qd.query_id, toks.doc_id FROM qd JOIN toks USING (tok)),
mv AS (SELECT m.query_id, dl.dl AS v FROM matched m JOIN dl USING (doc_id)),
ranked AS (
  SELECT query_id, v,
         row_number() OVER (PARTITION BY query_id ORDER BY v) AS rn,
         count(*) OVER (PARTITION BY query_id) AS n
  FROM mv
),
quart AS (
  SELECT query_id,
         any_value(n) AS n_docs,
         min(v) AS vmin,
         max(v) AS vmax,
         max(CASE WHEN rn = CAST(floor(0.25 * (n - 1)) AS BIGINT) + 1 THEN v END) AS q1,
         max(CASE WHEN rn = CAST(floor(0.5 * (n - 1)) AS BIGINT) + 1 THEN v END) AS q2,
         max(CASE WHEN rn = CAST(floor(0.75 * (n - 1)) AS BIGINT) + 1 THEN v END) AS q3
  FROM ranked GROUP BY 1
)
SELECT CAST(q.query_id AS BIGINT) AS query_id,
       CAST(q.n_docs AS BIGINT) AS n_docs,
       CAST(q.vmin AS BIGINT) AS vmin,
       CAST(q.q1 AS BIGINT) AS q1,
       CAST(q.q2 AS BIGINT) AS q2,
       CAST(q.q3 AS BIGINT) AS q3,
       CAST(q.vmax AS BIGINT) AS vmax,
       CAST((SELECT count(*) FROM mv WHERE mv.query_id = q.query_id
             AND 2 * mv.v < 2 * q.q1 - 3 * (q.q3 - q.q1)) AS BIGINT) AS n_low_out,
       CAST((SELECT count(*) FROM mv WHERE mv.query_id = q.query_id
             AND 2 * mv.v > 2 * q.q3 + 3 * (q.q3 - q.q1)) AS BIGINT) AS n_high_out
FROM quart q
ORDER BY 1
"""


RESCORE_WINDOW = 30
RESCORE_W = 2.0


def rescore_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Rescore retrieval per FT_PHRASES (ES rescore API): the primary
    disjunctive BM25 fills a top-RESCORE_WINDOW window; window docs
    containing the query as a consecutive phrase gain RESCORE_W × their
    phrase score; page = rescored window's top-k
    (pipelines/query.rescore_topk). Output integer-only."""
    from ..pipelines.query import rescore_topk

    index = _ensure_index(sf_dir, fresh=False)
    ds = rescore_topk(index, _query_table(FT_PHRASES), window=RESCORE_WINDOW, weight=RESCORE_W, k=k)
    return _rank_frame(ds, cols=_RANKED, index=index)


def rescore_oracle_sql(k: int = 10) -> str:
    """Rescore oracle: the phrase oracle's CTE stacks — primary scores
    windowed to the top-RESCORE_WINDOW by (score DESC, doc_id), phrase
    membership via the token-string adjacency replay, final = score +
    W × (score if phrase else 0), re-ranked inside the window."""
    values = ",".join(f"({qid}, '{p}')" for qid, p in enumerate(FT_PHRASES))
    return f"""
WITH {_bm25_head()},
q(query_id, phrase) AS (VALUES {values}),
qd AS (SELECT DISTINCT query_id, unnest(regexp_split_to_array(phrase, ' ')) AS tok FROM q),
{_token_string()},
phrased AS (
  SELECT q.query_id, dt.doc_id
  FROM q JOIN dt ON position((' ' || q.phrase || ' ') IN dt.ts) > 0
),
{_scored()},
windowed AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rn
  FROM scored
),
final AS (
  SELECT w.query_id, w.doc_id,
         w.score + {RESCORE_W} * (CASE WHEN p.doc_id IS NOT NULL THEN w.score ELSE 0 END) AS fscore
  FROM windowed w
  LEFT JOIN phrased p ON p.query_id = w.query_id AND p.doc_id = w.doc_id
  WHERE w.rn <= {RESCORE_WINDOW}
),
{_ranked("final", "fscore")}
{_top(k)}
"""


# Hybrid retrieval (ES 8 `rrf` retriever): reciprocal-rank fusion of a
# lexical BM25 window and an exact-cosine vector window. Frozen config:
RRF_K = 60  # the ES default rank_constant
RRF_WINDOW = 20  # rank_window_size per retriever


def hybrid_rrf_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Hybrid BM25 + kNN retrieval per FT_QUERIES (the ES 8 ``rrf``
    retriever): retriever 1 is the disjunctive BM25 top-RRF_WINDOW through
    the real index; retriever 2 is the exact cosine top-RRF_WINDOW against
    the query embedding (``embeddings[vec_id == query_id]`` — the driver
    tables share one id space). rrf(d) = Σ_r 1/(RRF_K + rank_r(d)) over
    the windows that contain d; final order (rrf DESC, doc_id ASC), top-k.

    Both windows come from distributed scans (the BM25 window through the
    term-sharded index, the vector window as one broadcast-matrix corpus
    scan with per-batch partials); the fusion itself is window-shaped —
    O(queries × RRF_WINDOW) rows on the driver, the ES coordinating-node
    step, never corpus-shaped. Every rrf score is a sum of ≤2 IEEE-exact
    divisions of integers, so the DuckDB replay is bit-identical; output
    is integer-only anyway. The OOV query's lexical window is empty, so
    its page is the pure vector ranking (ES semantics: a retriever that
    returns nothing simply contributes no reciprocal ranks)."""
    from .ann import multi_knn_window

    index = _ensure_index(sf_dir, fresh=False)
    lex = _run_queries(index, FT_QUERIES, RRF_WINDOW, "or").rename(
        columns={"rank": "lrank"}
    )
    vec = multi_knn_window(sf_dir, range(len(FT_QUERIES)), RRF_WINDOW).rename(
        columns={"vec_id": "doc_id", "rank": "vrank"}
    )
    f = lex.merge(vec, on=["query_id", "doc_id"], how="outer")
    lr = f["lrank"].to_numpy(dtype=np.float64, na_value=np.nan)
    vr = f["vrank"].to_numpy(dtype=np.float64, na_value=np.nan)
    f["rrf"] = np.where(np.isnan(lr), 0.0, 1.0 / (RRF_K + lr)) + np.where(
        np.isnan(vr), 0.0, 1.0 / (RRF_K + vr)
    )
    return _rerank(f, k, "rrf")


def hybrid_rrf_oracle_sql(k: int = 10) -> str:
    """RRF oracle: the standard BM25 CTE stack windowed to RRF_WINDOW,
    the cosine ranking windowed likewise (list_cosine_similarity — its
    float32 rounding cannot reorder this corpus's ~1e-3-separated
    cosines), FULL OUTER JOIN, rrf = coalesce'd reciprocal ranks."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
lwin AS (
  SELECT query_id, doc_id, rn FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rn
    FROM scored) WHERE rn <= {RRF_WINDOW}
),
qv AS (SELECT qq.query_id, e.embedding AS qe
       FROM (SELECT DISTINCT query_id FROM q) qq
       JOIN embeddings e ON e.vec_id = qq.query_id),
vcos AS (SELECT qv.query_id, e.vec_id AS doc_id,
                list_cosine_similarity(e.embedding, qv.qe) AS cos
         FROM qv CROSS JOIN embeddings e),
vwin AS (
  SELECT query_id, doc_id, rn FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, doc_id) AS rn
    FROM vcos) WHERE rn <= {RRF_WINDOW}
),
fused AS (
  SELECT coalesce(l.query_id, v.query_id) AS query_id,
         coalesce(l.doc_id, v.doc_id) AS doc_id,
         coalesce(1.0 / ({RRF_K} + l.rn), 0) + coalesce(1.0 / ({RRF_K} + v.rn), 0) AS rrf
  FROM lwin l FULL OUTER JOIN vwin v
    ON l.query_id = v.query_id AND l.doc_id = v.doc_id
),
{_ranked("fused", "rrf")}
{_top(k)}
"""


# Boosting query set: (positive, negative) clause pairs. Mix: a negative
# disjoint from the positive, one demoting via a common stopword (most of
# the match set demoted — ranks must still be total), an OOV negative
# (must change nothing), and a negative that overlaps the positive's own
# terms (docs matching 'slow' are demoted even though 'slow' also scores).
# Pairs are chosen so the top-(k+1) fscores are DISTINCT at sf0.01 and
# sf0.001 (like every frozen fulltext query set): on an exact fscore tie
# the engine breaks by its internal (pid<<40)|row doc id — a url-sort
# permutation of source ids that SQL cannot replay. ('table spark',
# 'merge') was rejected by exactly that probe: two docs tie at rank 10.
FT_BOOSTING = (
    ("table spark", "stream"),
    ("query group the", "vector"),
    ("vector", "zzznotinvocab"),
    ("customer stream batch", "the"),
    ("slow slow merge", "slow"),
)
NEG_BOOST = 0.5  # ES negative_boost — a power of two: the multiply is IEEE-exact


def bm25_topk_boosting(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Boosting retrieval per FT_BOOSTING (ES ``boosting`` query): the
    positive clause's disjunctive BM25 score × NEG_BOOST for docs that
    also match the negative clause (demotion in rank, never exclusion —
    contrast fulltext_bm25_boolean's must_not, which removes). Output
    (query_id, rank, doc_id), integer-only."""
    from ..pipelines.query import boosting_topk

    index = _ensure_index(sf_dir, fresh=False)
    queries = _query_table([p for p, _ in FT_BOOSTING],
                           neg=pa.array([n for _, n in FT_BOOSTING], pa.string()))
    ds = boosting_topk(index, queries, negative_boost=NEG_BOOST, k=k)
    return _rank_frame(ds, cols=_RANKED, index=index)


def bm25_boosting_oracle_sql(k: int = 10) -> str:
    """Boosting oracle: the standard BM25 stack scores the positive
    clause; the negative match set is a DISTINCT (query, doc) join of the
    negative terms against tf; final = score × NEG_BOOST where matched
    (exact: ×0.5 is a float exponent decrement)."""
    pos_values = _values(FT_BOOSTING, lambda pn: pn[0].split())
    neg_values = _values(FT_BOOSTING, lambda pn: pn[1].split())
    return f"""
WITH {_bm25_head()},
q(query_id, tok) AS (VALUES {pos_values}),
nq(query_id, tok) AS (VALUES {neg_values}),
qd AS (SELECT DISTINCT query_id, tok FROM q),
{_scored()},
negset AS (
  SELECT DISTINCT n.query_id, tf.doc_id
  FROM (SELECT DISTINCT query_id, tok FROM nq) n JOIN tf USING (tok)
),
final AS (
  SELECT s.query_id, s.doc_id,
         s.score * (CASE WHEN ns.doc_id IS NOT NULL THEN {NEG_BOOST} ELSE 1.0 END) AS fscore
  FROM scored s
  LEFT JOIN negset ns ON ns.query_id = s.query_id AND ns.doc_id = s.doc_id
),
{_ranked("final", "fscore")}
{_top(k)}
"""


DIS_TIE = 0.3  # dis_max tie_breaker (the ES default style: 0 < tie < 1)


def bm25_topk_dismax(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Disjunction-max multi-field retrieval (Lucene DisjunctionMaxQuery /
    ES dis_max over title, body): per doc the BEST field score wins and
    the other contributes only tie_breaker × its score —

        score = max(bm25_title, bm25_body) + DIS_TIE * min(title, body)

    (missing field ⇒ 0). This is the "don't double-count the same words
    in two fields" alternative to multi_match's weighted SUM; both ride
    the same two real field indexes (_ensure_title_index). Exact by the
    same argument as bm25_topk_multifield: each field's brute path scores
    its whole match set; at cluster scale the combine runs per doc-range
    shard with a final k-sized merge."""
    import numpy as np

    body = _ensure_index(sf_dir, fresh=False)
    title = _ensure_title_index(sf_dir)
    k_all = 1 << 30
    rb = _full_ranking(body, k_all)
    rt = _full_ranking(title, k_all)
    m = rb.merge(rt, on=["query_id", "doc_id"], how="outer", suffixes=("_b", "_t"))
    st = m["score_t"].fillna(0.0).to_numpy()
    sb = m["score_b"].fillna(0.0).to_numpy()
    m["score"] = np.maximum(st, sb) + DIS_TIE * np.minimum(st, sb)
    return _rerank(m, k)


def bm25_dismax_oracle_sql(k: int = 10) -> str:
    """dis_max oracle: the two field CTE stacks of the multi_match oracle,
    combined with greatest + tie_breaker × least instead of the weighted
    sum — the same short IEEE-754 chain the engine computes."""
    return _fields_sql(
        f"greatest(coalesce(t.score, 0), coalesce(b.score, 0)) + "
        f"{DIS_TIE} * least(coalesce(t.score, 0), coalesce(b.score, 0))", k
    )


# minimum_should_match query set (m=2): mixes 2-of-3 / 2-of-4 selections,
# an OOV term (never matches — ES counts only matchable optional clauses
# the doc actually satisfies, so 'vector OOV table' at m=2 needs both
# in-vocab terms), an all-OOV query and a single-term query (both must
# come back empty at m=2).
FT_MSMS = (
    "table spark vector",
    "customer stream batch",
    "query group merge slow",
    "vector zzznotinvocab table",
    "zzznotinvocab zzzsecondoov",
    "the",
)
MSM_M = 2


def bm25_topk_msm(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """minimum_should_match retrieval (Lucene/ES boolean knob): docs with
    >= MSM_M distinct matched terms, ranked by the unchanged disjunctive
    BM25 sum of the terms each doc contains (stages/query_stage.
    QueryScorer._score_query_msm). m generalizes or (m=1) / and (m=n)."""
    return _run_queries(
        _ensure_index(sf_dir, fresh=False), FT_MSMS, k, "msm",
        min_should_match=MSM_M,
    )


TSET_MOD = 3  # terms_set: per-doc required matches = 1 + doclen % TSET_MOD


def bm25_topk_terms_set(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """terms_set retrieval (ES `terms_set` with minimum_should_match_field):
    msm where the required distinct-match count is a PER-DOC docvalue fact
    — required(doc) = 1 + doclen % TSET_MOD (the frozen synthetic stand-in
    for a stored required_matches field; stages/query_stage.
    QueryScorer._score_query_terms_set). Docs demanding more matches than
    the query has in-vocabulary terms are ineligible by construction;
    scores stay the disjunctive BM25 sums of the matched terms.

    Ties: the solo-"the" query produces bit-equal scores for docs with
    identical (tf, dl); the engine's internal tie order is INDEX doc_id
    (partition-hash space), so like page2/multifield this query retrieves
    the full eligible set and re-ranks in SOURCE doc_id space — the
    _full_ranking pattern — making the external (score DESC, doc_id ASC)
    contract exact."""
    index = _ensure_index(sf_dir, fresh=False)
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    res = _run_queries(index, FT_MSMS, n_docs, "terms_set", cols=_SCORED, terms_set_mod=TSET_MOD)
    return _rerank(res, k)


def bm25_terms_set_oracle_sql(k: int = 10) -> str:
    """terms_set oracle: the msm BM25 CTEs with the HAVING threshold read
    per doc — count(DISTINCT matched) >= 1 + doclen % TSET_MOD."""
    having = f"count(DISTINCT tf.tok) >= 1 + CAST(any_value(dl.dl) AS BIGINT) % {TSET_MOD}"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_MSMS))},
{_scored(having=having)},
{_ranked()}
{_top(k)}
"""


def bm25_msm_oracle_sql(k: int = 10) -> str:
    """minimum_should_match oracle: identical BM25 CTEs; a (query, doc)
    survives only when its matched-DISTINCT-term count >= m. OOV terms
    never join, so they reduce the satisfiable clause pool exactly like
    the engine's in-vocabulary term set."""
    having = f"count(DISTINCT tf.tok) >= {MSM_M}"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_MSMS))},
{_scored(having=having)},
{_ranked()}
{_top(k)}
"""


def bm25_topk_conj(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Conjunctive-AND BM25 over the same index: a doc ranks only if it
    contains EVERY query term; scores are the unchanged BM25 sums, so this
    is the disjunctive result filtered to all-terms docs (oracle: same BM25
    SQL with HAVING count(matched terms) = count(query terms)). Reuses the
    workdir index when bm25_topk already built it this session."""
    return _run_queries(_ensure_index(sf_dir, fresh=False), FT_QUERIES_CONJ, k, "and")


def bm25_oracle_sql(k: int = 10, where: str = "") -> str:
    """DuckDB SQL replaying the frozen engine semantics over `documents`:
    [a-z0-9]+ tokens of lower(text) (``TOKENIZE_SQL``, ASCII-only),
    Lucene idf ln(1+(N-df+.5)/(df+.5)), k1=1.2 b=0.75, query terms
    deduped, order (score DESC, doc_id ASC). ``where`` restricts the
    corpus (a predicate over documents columns) — used by the
    delete-compact oracle, which must replay BM25 over the SURVIVING
    corpus only (N/avgdl/df all shrink with it)."""
    return _bm25_corpus_sql(where, _top(k))


def _bm25_corpus_sql(where: str, top: str) -> str:
    """``bm25_oracle_sql``'s chain over the documents ``where`` holds,
    ending in the final SELECT ``top``."""
    pred = f" WHERE {where}" if where else ""
    return f"""
WITH corpus AS (SELECT doc_id, text FROM documents{pred}),
{_bm25_head("corpus")},
{_qd(_values(FT_QUERIES))},
{_scored()},
{_ranked()}
{top}
"""


def bm25_phrase_oracle_sql(k: int = 10) -> str:
    """Phrase oracle: identical BM25 CTEs; a (query, doc) survives only
    when the phrase appears as a consecutive token run — replayed in SQL
    as a substring match on the single-space-joined token string (tokens
    contain no spaces, so ' p ' ⊂ ' t1 t2 ... tn ' ⟺ adjacency). A doc
    matching the phrase contains every term, so the score join is total."""
    values = ",".join(f"({qid}, '{p}')" for qid, p in enumerate(FT_PHRASES))
    return f"""
WITH {_bm25_head()},
q(query_id, phrase) AS (VALUES {values}),
qd AS (SELECT DISTINCT query_id, unnest(regexp_split_to_array(phrase, ' ')) AS tok FROM q),
{_token_string()},
matched AS (
  SELECT q.query_id, dt.doc_id
  FROM q JOIN dt ON position((' ' || q.phrase || ' ') IN dt.ts) > 0
),
{_scored()},
{_ranked("matched m JOIN scored s ON s.query_id = m.query_id AND s.doc_id = m.doc_id", "s.score", "m")}
{_top(k)}
"""


def bm25_conj_oracle_sql(k: int = 10) -> str:
    """Conjunctive oracle: identical BM25 CTEs, but a (query, doc) survives
    only when its matched-distinct-term count equals the query's distinct
    term count INCLUDING out-of-vocabulary terms (an OOV term can never
    match, so its query returns zero rows — same as the engine)."""
    elig = "scored s JOIN nq USING (query_id)\n  WHERE s.matched = nq.n_terms"
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES_CONJ))},
nq AS (SELECT query_id, count(*) AS n_terms FROM qd GROUP BY 1),
scored AS (
  SELECT qd.query_id, tf.doc_id,
         sum( ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS score,
         count(*) AS matched
  FROM qd
  JOIN tf USING (tok)
  JOIN df USING (tok)
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
{_ranked(elig, "s.score", "s")}
{_top(k)}
"""


FC_FIELDS = ("doc_id", "lang", "n_chars", "source", "text")


def field_caps_query(sf_dir: str) -> pd.DataFrame:
    """ES field_caps API over the index's source table: per field, the
    Arrow storage type and the aggregatable envelope (non-null count,
    min, max — stringified so one schema covers every field type). One
    streaming pass computes ALL fields' envelopes together: each batch
    emits a 5-row partial, the driver folds the tiny (blocks × fields)
    table — no shuffle, no per-field rescan. Output (field, type,
    n_non_null, min_v, max_v) ordered by field — hash-exact against a
    UNION ALL SQL replay."""
    import ray.data

    schema = pq.read_schema(f"{sf_dir}/documents.parquet")
    types = {f: str(schema.field(f).type) for f in FC_FIELDS}
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(FC_FIELDS))

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rows = {"field": [], "n": [], "min_v": [], "max_v": []}
        for f in FC_FIELDS:
            col = batch[f]
            mm = pc.min_max(col)
            rows["field"].append(f)
            rows["n"].append(len(col) - col.null_count)
            rows["min_v"].append(str(mm["min"].as_py()))
            rows["max_v"].append(str(mm["max"].as_py()))
        return pa.table(
            {
                "field": pa.array(rows["field"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "min_v": pa.array(rows["min_v"], pa.string()),
                "max_v": pa.array(rows["max_v"], pa.string()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for f in FC_FIELDS:
        g = parts[parts["field"] == f]
        # fold in the FIELD's order, not string order ("95" > "499")
        conv = int if types[f].startswith("int") else str
        rows.append(
            (
                f,
                types[f],
                int(g["n"].sum()),
                str(min(conv(v) for v in g["min_v"])),
                str(max(conv(v) for v in g["max_v"])),
            )
        )
    out = pd.DataFrame(rows, columns=["field", "type", "n_non_null", "min_v", "max_v"])
    out["n_non_null"] = out["n_non_null"].astype("int64")
    return out.sort_values("field").reset_index(drop=True)


def field_caps_oracle_sql() -> str:
    """UNION ALL replay of field_caps_query: numeric min/max stringified
    the way Python str() prints them (ints plain, no padding)."""
    parts = []
    for f in FC_FIELDS:
        parts.append(
            f"""SELECT '{f}' AS field, count({f}) AS n,
                   CAST(min({f}) AS VARCHAR) AS min_v,
                   CAST(max({f}) AS VARCHAR) AS max_v
            FROM documents"""
        )
    u = " UNION ALL ".join(parts)
    # Arrow type names, stated inline (the engine reads them from the
    # parquet schema; the oracle states the same contract literally)
    return f"""
        WITH caps AS ({u}),
        ty(field, type) AS (VALUES
          ('doc_id', 'int64'), ('lang', 'string'), ('n_chars', 'int64'),
          ('source', 'string'), ('text', 'string'))
        SELECT caps.field, ty.type, CAST(caps.n AS BIGINT) AS n_non_null,
               caps.min_v, caps.max_v
        FROM caps JOIN ty USING (field)
        ORDER BY field
    """


HL_WLEX, HL_WVEC = 0.7, 0.3  # linear-retriever weights (frozen)


def hybrid_linear_query(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Hybrid BM25 + kNN with LINEAR score fusion (the ES 8.14
    ``linear`` retriever with min_max normalizers — the value-based
    sibling of hybrid_rrf's rank-based fusion): each retriever's
    RRF_WINDOW window is min-max normalized per query (min→0, max→1;
    constant or single-row windows freeze to 1.0), fused as
    HL_WLEX·lex + HL_WVEC·vec with a missing retriever contributing 0,
    final order (fused DESC, doc_id ASC). Window-shaped driver fusion,
    like the RRF op. Floats cross the engines here (BM25 ln sums, f64
    cosine), so the frozen query set was gap-probed: the smallest
    adjacent fused-score gap at either test scale is ≫ 1e-9 while
    engine/SQL drift is ≤ ~1e-12 relative — the standard
    distinct-at-both-scales fulltext contract. Output (query_id, rank,
    doc_id)."""
    from .ann import multi_knn_window

    index = _ensure_index(sf_dir, fresh=False)
    lex = _run_queries(index, FT_QUERIES, RRF_WINDOW, "or", cols=_SCORED)
    vec = multi_knn_window(
        sf_dir, range(len(FT_QUERIES)), RRF_WINDOW, keep_cos=True
    ).rename(columns={"vec_id": "doc_id"})[["query_id", "doc_id", "cos"]]

    def _minmax(df: pd.DataFrame, col: str) -> np.ndarray:
        g = df.groupby("query_id")[col]
        mn = g.transform("min").to_numpy()
        mx = g.transform("max").to_numpy()
        v = df[col].to_numpy()
        rng = mx - mn
        return np.where(rng > 0, (v - mn) / np.where(rng > 0, rng, 1.0), 1.0)

    lex = lex.assign(ln=_minmax(lex, "score"))
    vec = vec.assign(vn=_minmax(vec, "cos"))
    f = lex[["query_id", "doc_id", "ln"]].merge(
        vec[["query_id", "doc_id", "vn"]], on=["query_id", "doc_id"], how="outer"
    )
    f["fused"] = HL_WLEX * f["ln"].fillna(0.0) + HL_WVEC * f["vn"].fillna(0.0)
    return _rerank(f, k, "fused")


def hybrid_linear_oracle_sql(k: int = 10) -> str:
    """Linear-fusion oracle: the RRF stack with SCORES kept — per-window
    min/max via window functions, DOUBLE[]-cast cosine (f64, 1 ulp from
    numpy), coalesce'd weighted sum."""
    return f"""
WITH {_bm25_head()},
{_qd(_values(FT_QUERIES))},
{_scored()},
lwin AS (
  SELECT query_id, doc_id, score FROM (
    SELECT query_id, doc_id, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rn
    FROM scored) WHERE rn <= {RRF_WINDOW}
),
lnorm AS (
  SELECT query_id, doc_id,
         CASE WHEN max(score) OVER (PARTITION BY query_id)
                   > min(score) OVER (PARTITION BY query_id)
              THEN (score - min(score) OVER (PARTITION BY query_id))
                   / (max(score) OVER (PARTITION BY query_id)
                      - min(score) OVER (PARTITION BY query_id))
              ELSE 1.0 END AS ln_
  FROM lwin
),
qv AS (SELECT qq.query_id, CAST(e.embedding AS DOUBLE[]) AS qe
       FROM (SELECT DISTINCT query_id FROM q) qq
       JOIN embeddings e ON e.vec_id = qq.query_id),
vcos AS (SELECT qv.query_id, e.vec_id AS doc_id,
                list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), qv.qe) AS cos
         FROM qv CROSS JOIN embeddings e),
vwin AS (
  SELECT query_id, doc_id, cos FROM (
    SELECT query_id, doc_id, cos,
           row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, doc_id) AS rn
    FROM vcos) WHERE rn <= {RRF_WINDOW}
),
vnorm AS (
  SELECT query_id, doc_id,
         CASE WHEN max(cos) OVER (PARTITION BY query_id)
                   > min(cos) OVER (PARTITION BY query_id)
              THEN (cos - min(cos) OVER (PARTITION BY query_id))
                   / (max(cos) OVER (PARTITION BY query_id)
                      - min(cos) OVER (PARTITION BY query_id))
              ELSE 1.0 END AS vn
  FROM vwin
),
fused AS (
  SELECT coalesce(l.query_id, v.query_id) AS query_id,
         coalesce(l.doc_id, v.doc_id) AS doc_id,
         {HL_WLEX} * coalesce(l.ln_, 0) + {HL_WVEC} * coalesce(v.vn, 0) AS fused
  FROM lnorm l FULL OUTER JOIN vnorm v
    ON l.query_id = v.query_id AND l.doc_id = v.doc_id
),
{_ranked("fused", "fused")}
{_top(k)}
"""


SPAN_FIRST_N = 30      # span_first: match end must be within the first N tokens
SF_CAND_WINDOW = 4000  # candidate window (covers every match at driver scales)


def bm25_topk_span_first(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """ES span_first query: the term must occur within the first
    SPAN_FIRST_N tokens of the document (lead-paragraph matching — the
    title/abstract-boost trick without field boundaries), survivors
    ranked by the term's BM25. One single-term query per FT_QUERY (its
    first term). Candidates come from the index (disjunctive window wide
    enough to hold every match at test scale); the position gate runs as
    a distributed text-verify map over the candidates' first N tokens —
    the phrase/near verify path (a positional index serves this gate
    from pos.bin at production scale; the gate semantics are what is
    frozen here). Output (query_id, rank, doc_id)."""
    index = _ensure_index(sf_dir, fresh=False)
    terms = [q.split()[0] for q in FT_QUERIES]
    res = _run_queries(index, terms, SF_CAND_WINDOW, "or", cols=_SCORED)
    # The candidate window must not saturate: a query whose term matches
    # >= SF_CAND_WINDOW docs would silently drop gated docs the SQL oracle
    # still scans. Fail loudly instead (widen SF_CAND_WINDOW, or serve the
    # gate from the positional sidecar, if a corpus ever trips this).
    sat = res.groupby("query_id").size()
    sat = sat[sat >= SF_CAND_WINDOW]
    assert sat.empty, (
        f"span_first candidate window saturated (>= {SF_CAND_WINDOW} matches) "
        f"for query_ids {sat.index.tolist()}"
    )

    import ray.data

    cand_ids = pa.array(sorted(res["doc_id"].unique().tolist()), pa.int64())
    term_arr = terms

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = batch.filter(pc.is_in(batch["doc_id"], value_set=cand_ids))
        if len(b) == 0:
            return pa.table(
                {"query_id": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
            )
        heads = [set(tokenize(t)[:SPAN_FIRST_N]) for t in b["text"].to_pylist()]
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        qids, dids = [], []
        for qid, term in enumerate(term_arr):
            for d, h in zip(ids, heads):
                if term in h:
                    qids.append(qid)
                    dids.append(int(d))
        return pa.table(
            {"query_id": pa.array(qids, pa.int64()), "doc_id": pa.array(dids, pa.int64())}
        )

    hits = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(verify, batch_format="pyarrow")
        .to_pandas()
    )
    return _rerank(res.merge(hits, on=["query_id", "doc_id"]), k)


def bm25_span_first_oracle_sql(k: int = 10) -> str:
    """span_first replay: the single-term BM25 stack gated on
    array_position within the first SPAN_FIRST_N tokens."""
    values = ",".join(f"({qid}, '{q.split()[0]}')" for qid, q in enumerate(FT_QUERIES))
    return f"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter({TOKENIZE_SQL},
                            x -> x <> '')) AS tok,
         generate_subscripts(list_filter({TOKENIZE_SQL},
                                         x -> x <> ''), 1) AS pos
  FROM documents
),
{_bm25_stats()},
q(query_id, tok) AS (VALUES {values}),
gate AS (SELECT DISTINCT q.query_id, t.doc_id
         FROM q JOIN toks t USING (tok) WHERE t.pos <= {SPAN_FIRST_N}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * (1.2 + 1.0)
           / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl)) AS score
  FROM q
  JOIN tf USING (tok)
  JOIN df USING (tok)
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
),
ranked AS (
  SELECT sc.query_id, sc.doc_id,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY sc.score DESC, sc.doc_id) AS rank
  FROM scored sc JOIN gate g ON sc.query_id = g.query_id AND sc.doc_id = g.doc_id
)
{_top(k)}
"""


# ---- ES join field: has_child / has_parent (round 4) -----------------------
# Elasticsearch's parent/child join field models one-to-many relations
# INSIDE an index (product→offers, question→answers, doc→passages) and is
# queried with has_child ("parents where some child matches") and
# has_parent ("children whose parent matches"). The natural child unit for
# a web corpus is the passage: each document's token stream splits into
# non-overlapping JOIN_CHUNK-token windows (the same passage granularity
# as paragraph_dup_spans and the RAG chunker). Both queries are pure
# map-side relational algebra here — the parent/child relation never
# crosses a shuffle because a doc's chunks live inside its own row — so
# the 100 TB posture is a single streaming pass plus a top-k / ordered
# fold of k-or-output-sized results. At ES, join fields force parent and
# children onto one shard; this layout is the same invariant for free.

JOIN_CHUNK = 32  # frozen passage width (tokens), == dedup.CHUNK_TOKENS
HAS_CHILD_TERM = "merge"  # child (passage) match term
HAS_PARENT_TERM = "spark"  # parent full-doc match term
HAS_PARENT_LANG = "en"  # parent filter
HAS_CHILD_K = 20


def has_child_query(sf_dir: str) -> pd.DataFrame:
    """ES has_child with score_mode=sum over constant-score children:
    parents ranked by HOW MANY of their passages match the term. One
    vectorized pass: per doc, token positions matching HAS_CHILD_TERM
    collapse to distinct chunk indices (np.unique(pos // JOIN_CHUNK));
    no shuffle — a parent's children are its own row's chunks. Output
    (doc_id, n_children, n_match) for the top-HAS_CHILD_K parents,
    n_match DESC doc_id ASC (total order)."""
    import ray.data

    from ..textnorm import tokenize_batch

    def scan(batch: pa.Table) -> pa.Table:
        ids, ncs, nms = [], [], []
        toks_per_doc = tokenize_batch(batch["text"].to_pylist())
        for d, toks in zip(batch["doc_id"].to_pylist(), toks_per_doc):
            if not toks:
                continue
            t = np.asarray(toks)
            pos = np.flatnonzero(t == HAS_CHILD_TERM)
            if len(pos) == 0:
                continue
            ids.append(int(d))
            ncs.append((len(toks) + JOIN_CHUNK - 1) // JOIN_CHUNK)
            nms.append(len(np.unique(pos // JOIN_CHUNK)))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_children": pa.array(ncs, pa.int64()),
                "n_match": pa.array(nms, pa.int64()),
            }
        )

    ds = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .repartition(16)
        .map_batches(scan, batch_format="pyarrow")
    )
    # k-sized driver fold: each block contributes <= its rows; the global
    # top-k is the k best of per-block bests (here: one modest to_pandas —
    # the matched-parent set — then nsmallest-style head; at 10^12 docs
    # swap for the two-phase top-k used by orders_topk_per_priority)
    out = ds.to_pandas()
    out = out.sort_values(["n_match", "doc_id"], ascending=[False, True]).head(HAS_CHILD_K)
    return out.reset_index(drop=True).astype("int64")


def has_parent_query(sf_dir: str) -> pd.DataFrame:
    """ES has_parent combined with a child-side match: passages whose
    PARENT doc matches (lang = HAS_PARENT_LANG and contains
    HAS_PARENT_TERM anywhere) and which THEMSELVES contain
    HAS_CHILD_TERM. Same single-pass shape — the parent predicate and
    the per-chunk child predicate evaluate inside one map task. Output
    (doc_id, chunk_idx, n_tokens) ordered (doc_id, chunk_idx)."""
    import ray.data

    from ..textnorm import tokenize_batch

    def scan(batch: pa.Table) -> pa.Table:
        ids, cis, nts = [], [], []
        langs = batch["lang"].to_pylist()
        toks_per_doc = tokenize_batch(batch["text"].to_pylist())
        for d, lang, toks in zip(batch["doc_id"].to_pylist(), langs, toks_per_doc):
            if lang != HAS_PARENT_LANG or not toks:
                continue
            t = np.asarray(toks)
            if not (t == HAS_PARENT_TERM).any():
                continue
            pos = np.flatnonzero(t == HAS_CHILD_TERM)
            n = len(toks)
            for ci in np.unique(pos // JOIN_CHUNK):
                ids.append(int(d))
                cis.append(int(ci))
                nts.append(min(JOIN_CHUNK, n - int(ci) * JOIN_CHUNK))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(cis, pa.int64()),
                "n_tokens": pa.array(nts, pa.int64()),
            }
        )

    ds = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
        )
        .repartition(16)
        .map_batches(scan, batch_format="pyarrow")
    )
    return _rank_frame(ds, by=("doc_id", "chunk_idx")).astype("int64")
