"""Per-partition lineage manifests + checkpoint/resume (BASELINE.json:6,
SURVEY.md §4.4). The output layout IS the checkpoint:

    out_dir/
      stats.json                  # N, avgdl, P, S, salt plan, code-version hash
      docs/pid=NNNN.parquet       # doc_id, url, doclen, text  (doclens = projection)
      partials/pid=NNNN.arrow     # map output of the disk exchange; removed at the end
      segments/seg=SSSS/{dict.parquet,postings.bin,skips.bin}
      manifest.jsonl              # one row per (stage, partition)
      metrics.parquet             # mirror of manifest rows

Every unit writes ``*.tmp`` then renames (atomic on one filesystem), then
appends its manifest row with a blake2b checksum. The units are the pid
(docs + partials, one row with both checksums) and the segment bucket.
Resume scans the manifest, verifies checksums, and skips finished units. A
code-version hash over the frozen modules guards against resuming across
semantic changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, asdict


def code_version_hash() -> str:
    """Hash of the semantics-bearing frozen modules."""
    import aarhus_ray

    root = os.path.dirname(aarhus_ray.__file__)
    h = hashlib.blake2b(digest_size=8)
    for rel in ("extract.py", "textnorm.py", "codecs.py", "bm25.py", "partition.py"):
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def file_checksum(path: str) -> str:
    h = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ManifestRow:
    stage: str
    partition_id: int
    input_rows: int
    output_rows: int
    bytes_out: int
    wall_s: float
    checksum: str
    status: str  # "done" | "failed"
    doclen_sum: int = 0  # docs stage only: Σ doclen of the partition, so
    # global stats (N, avgdl) come from the manifest — no extra Ray job
    partials_checksum: str = ""  # docs stage only: the pid's map-output
    # file partials/pid=NNNN.arrow (``checksum`` covers its docs file)


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.jsonl")


def append_manifest(out_dir: str, row: ManifestRow) -> None:
    """Append one JSON line. POSIX O_APPEND line writes < PIPE_BUF are atomic
    enough for concurrent tasks on one node; on a real cluster each worker
    appends to its own shard file and finalize() merges — here one file."""
    with open(manifest_path(out_dir), "a") as f:
        f.write(json.dumps(asdict(row)) + "\n")


def read_manifest(out_dir: str) -> list[dict]:
    path = manifest_path(out_dir)
    if not os.path.exists(path):
        return []
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def completed_units(out_dir: str, stage: str, paths: dict[int, dict[str, str]]) -> set[int]:
    """partition_ids of ``paths`` with a status=done manifest row whose
    checksums still match the artifacts: ``paths[pid]`` maps each checksum
    field of the row to the file it covers."""
    done = set()
    for row in read_manifest(out_dir):
        pid = int(row["partition_id"])
        if row["stage"] != stage or row["status"] != "done" or pid not in paths:
            continue
        try:
            if all(file_checksum(p) == row.get(k) for k, p in paths[pid].items()):
                done.add(pid)
        except OSError:
            continue
    return done


def write_stats(out_dir: str, stats: dict) -> None:
    stats = dict(stats, code_version=code_version_hash())
    atomic_write_bytes(os.path.join(out_dir, "stats.json"), json.dumps(stats, indent=1).encode())


def read_stats(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "stats.json")) as f:
        return json.load(f)


def read_tombstones(out_dir: str):
    """Sorted unique uint64 doc_id array of every tombstone generation
    under ``out_dir/tombstones/``, or None when the index has no deletes
    (the common case — zero cost on the query path). Written by
    pipelines/maintain.delete_documents; purged by compact_index."""
    import glob

    # a generation is one atomic file (delete_documents) OR one atomic
    # DIRECTORY of parquet parts (delete_by_query streams the match set
    # straight to disk and renames the directory into place)
    files = sorted(glob.glob(os.path.join(out_dir, "tombstones", "gen-*.parquet")))
    files += sorted(glob.glob(os.path.join(out_dir, "tombstones", "gen-*", "*.parquet")))
    if not files:
        return None
    import numpy as np
    import pyarrow.parquet as pq

    parts = [
        pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy(zero_copy_only=False)
        for f in files
    ]
    return np.unique(np.concatenate(parts).astype(np.uint64))


def check_resume_compatible(out_dir: str, expect: dict) -> bool:
    """True iff an existing stats.json matches the current config + code
    version (P, S, salts, seed must not drift across a resume)."""
    path = os.path.join(out_dir, "stats.json")
    if not os.path.exists(path):
        return False
    old = read_stats(out_dir)
    if old.get("code_version") != code_version_hash():
        return False
    return all(old.get(k) == v for k, v in expect.items())


class StageTimer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0
