"""Pins the driver-facing registry contract in __ray_entry__.py.

The per-round driver correctness gate samples the FIRST 50 entries of
``queries()``; round 3's verdict flagged that a source-ordered dict left
every fulltext/dedup/ANN flagship outside that window.  These tests freeze
the fix: the window is exactly the explicit ``_DRIVER_WINDOW`` list, it is
exactly 50 names long, and it spans every operator family.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import __ray_entry__ as entry  # noqa: E402


def test_window_is_first_50_registry_entries():
    q = entry.queries()
    assert len(entry._DRIVER_WINDOW) == 50
    assert list(q)[: len(entry._DRIVER_WINDOW)] == entry._DRIVER_WINDOW
    # reorder must not drop or duplicate anything
    assert len(q) == len(set(q))


def test_window_spans_every_operator_family():
    families = {
        "fulltext": r"^fulltext_",
        "relational": r"^(q\d|customers_|top_customers|order_|lineitem_|supplier_|parts_)",
        "events": r"^events_(?!heavy_hitters|distinct_props)",
        "sketches": r"^events_(heavy_hitters|distinct_props)",
        "textstats": r"^docs_(term_counts|token_counts|lang|quality|pii|pack|contamination|unigram|ccnet|nb_|fingerprints)",
        "cleaning": r"^(corpus_clean$|docs_(gopher|source_cap|curation|dsir|mixture))",
        "dedup": r"^(docs_(dedup|minhash|simhash|substring|paragraph|dup_clusters|ngram_jaccard)|embedding_(near_dup|semdedup))",
        "ann": r"^(knn_|embedding_(kmeans|label|top_pc|int8))",
        "multimodal": r"^multimodal_",
    }
    win = entry._DRIVER_WINDOW
    for fam, pat in families.items():
        hits = [k for k in win if re.match(pat, k)]
        assert hits, f"driver window has no {fam} representative"


def test_window_oracle_coverage():
    """Round 5: EVERY window entry carries an exact oracle (the two
    rows-only knn ops were swapped out for hash-checked reps)."""
    o = entry.oracle_sql()
    missing = [k for k in entry._DRIVER_WINDOW if k not in o]
    assert not missing, missing


def test_rows_only_set_is_exactly_the_undoable_five():
    """The registry ops without an oracle are exactly the five that are
    batch-boundary-dependent or float-iterative by construction (SURVEY
    §8 ops 190/202 — HLL left this set in round 5 when its hash became
    DuckDB's md5_number_lower) — any regression that silently drops an
    oracle, or a new op landing without one, fails here."""
    q = entry.queries()
    o = entry.oracle_sql()
    assert set(o) <= set(q), sorted(set(o) - set(q))
    assert set(q) - set(o) == {
        "docs_doclen_quantile_sketch",
        "docs_target_classifier",
        "knn_pq",
        "knn_ivfpq",
        "knn_graph_search",
    }


def test_sql_mix64_matches_numpy():
    """The count_min oracle's splitmix64 emulation (wrapping uint64
    multiply via 32-bit-split HUGEINT arithmetic) must agree with the
    engine's numpy ``_mix64`` bit-for-bit, per row salt."""
    import duckdb
    import numpy as np

    from aarhus_ray.functions.dedup import _mix64
    from aarhus_ray.functions.sketches import CMS_W, _sql_mix64

    con = duckdb.connect()
    keys = np.array(
        [0, 1, 7, 12345, 2**32, 2**63 - 1, 0xDEADBEEFCAFEBABE, 2**64 - 1],
        dtype=np.uint64,
    )
    for r in range(4):
        # wrapped in Python ints (the production _cms_hash idiom) to avoid
        # the numpy scalar-multiply overflow RuntimeWarning
        salt = (0x9E3779B97F4A7C15 * (2 * r + 1)) & ((1 << 64) - 1)
        expect = (_mix64(keys ^ np.uint64(salt)) % np.uint64(CMS_W)).tolist()
        exprs = ", ".join(
            f"({_sql_mix64(f'xor(CAST({int(k)} AS UBIGINT), CAST({salt} AS UBIGINT))')}) % {CMS_W}"
            for k in keys
        )
        got = [int(v) for v in con.execute(f"SELECT {exprs}").fetchone()]
        assert got == expect, (r, got, expect)


def test_oracle_sql_is_pinned():
    """Every ``oracle_sql()`` string hashes to its md5 in
    ``tests/oracle_sql_md5.json``, so a refactor of the oracle generators
    cannot change, by accident, the SQL any check sends to DuckDB.

    Changing an oracle on purpose is allowed, but it must be stated in
    CHANGES.md (which entries changed and why). Then regenerate the
    table from the repo root with::

        python -c "import json, hashlib, __ray_entry__ as e; print(json.dumps({k: hashlib.md5(v.encode()).hexdigest() for k, v in e.oracle_sql().items()}, indent=1, sort_keys=True))" > tests/oracle_sql_md5.json
    """
    import hashlib
    import json

    pinned = json.loads((Path(__file__).parent / "oracle_sql_md5.json").read_text())
    got = {k: hashlib.md5(v.encode()).hexdigest() for k, v in entry.oracle_sql().items()}
    changed = sorted(k for k in set(pinned) | set(got) if pinned.get(k) != got.get(k))
    assert not changed, f"oracle SQL changed for {len(changed)} entries: {changed}"
