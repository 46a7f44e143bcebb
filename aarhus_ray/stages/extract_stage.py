"""Stateless prep maps + the ExtractUDF actor stage (SURVEY.md §2.2/§2.3).

Order matters for scale: extraction runs BEFORE the url-hash shuffle so the
wide ``html`` payload is dropped on the map side and the all-to-all moves
only extracted text (~10× smaller than raw html).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..extract import extract_text
from ..partition import normalize_url, partition_ids


def prep_batch_fn(
    langs: tuple[str, ...] | None,
    num_partitions: int,
    pid_offset: int = 0,
    skip_pids: tuple[int, ...] = (),
):
    """Returns a stateless map_batches fn: normalize urls, filter langs,
    tag each row with its corpus partition_id = blake2b64(url) % P.

    ``pid_offset`` shifts the partition ids (delta generations of an
    incremental index claim a fresh pid range so their doc_ids —
    (pid << 40) | row — are disjoint from and above every base doc_id).
    Rows of ``skip_pids`` (pids a resumed build already finished) are
    dropped."""

    lang_set = list(langs) if langs else None
    skip = pa.array(sorted(skip_pids), pa.uint32()) if skip_pids else None

    def prep(batch: pa.Table) -> pa.Table:
        urls = pa.array([normalize_url(u) for u in batch["url"].to_pylist()], pa.string())
        batch = batch.set_column(batch.schema.get_field_index("url"), "url", urls)
        if lang_set is not None:
            batch = batch.filter(pc.is_in(batch["lang"], value_set=pa.array(lang_set)))
        pid = partition_ids(batch["url"], num_partitions) + np.uint32(pid_offset)
        batch = batch.append_column("pid", pa.array(pid, pa.uint32()))
        if skip is not None:
            batch = batch.filter(pc.invert(pc.is_in(batch["pid"], value_set=skip)))
        return batch

    return prep


class ExtractUDF:
    """Actor-pool stage: html bytes → canonical extracted text, html dropped.

    Stateful per the contract (BASELINE.json:6 "stateful actor-pool
    map_batches stages"): regexes/parser tables are module-level compiled
    once per worker process; the actor form keeps setup amortized and lets
    the pool be sized explicitly.
    """

    def __init__(self) -> None:
        # touch the extractor once so lazy imports/regex compilation happen
        # here, not in the first batch
        extract_text(b"<html><body>warm</body></html>")

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_col = batch["html"]
        texts = pa.array(
            [extract_text(h) for h in html_col.to_pylist()],
            pa.string(),
        )
        batch = batch.drop_columns(["html"])
        return batch.append_column("text", texts)
