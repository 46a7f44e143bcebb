"""Interchange-format sources: JSONL and CSV round-trips of the documents
table. Web-text corpora arrive as JSONL dumps (one doc per line) and
metadata sheets as CSV; an engine claiming source completeness must read
both without corruption. Each op derives its interchange file from the
parquet documents table ONCE (cached by a _DONE marker under /tmp),
reads it back through the matching ``ray.data`` reader, and folds a
per-lang summary — so the DuckDB oracle over the ORIGINAL parquet
verifies the whole write→parse→read path byte-exactly (quoting,
escaping, unicode, embedded delimiters all covered by the hash)."""

from __future__ import annotations

import hashlib
import os
import shutil

import pandas as pd
import pyarrow as pa
import ray.data


def _interchange_dir(sf_dir: str, kind: str) -> str:
    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    final = f"/tmp/aarhus_interchange_{kind}_{tag}"
    if os.path.exists(os.path.join(final, "_DONE")):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "n_chars"]
    )
    if kind == "jsonl":
        ds.write_json(tmp)
    elif kind == "csv":
        ds.write_csv(tmp)
    elif kind == "feather":
        # Arrow IPC / Feather v2 — no ray.data writer exists, so each
        # batch writes its own .arrow file (distributed, one IPC file per
        # task; uuid names are fine, readers list the dir). repartition
        # first: documents.parquet is one row group (CLAUDE.md gotcha), so
        # an unpartitioned write would make exactly one file and certify
        # nothing about multi-file reads.
        import uuid

        os.makedirs(tmp, exist_ok=True)

        def write_ipc(batch: pa.Table) -> pa.Table:
            import pyarrow.feather as feather

            path = os.path.join(tmp, f"part-{uuid.uuid4().hex}.arrow")
            feather.write_feather(batch, path, compression="uncompressed")
            return pa.table({"path": pa.array([path], pa.string())})

        ds.repartition(8).map_batches(
            write_ipc, batch_format="pyarrow", batch_size=None
        ).materialize()
    elif kind == "warc":
        # WARC/1.0 (ISO 28500) with per-record gzip members — the exact
        # physical layout of Common Crawl's .warc.gz files (each record
        # is an independent gzip member, so a remote reader can seek to a
        # record offset and decompress just that member). One .warc.gz
        # per partition, written inside map_batches.
        import uuid

        os.makedirs(tmp, exist_ok=True)

        def write_warc(batch: pa.Table) -> pa.Table:
            path = os.path.join(tmp, f"part-{uuid.uuid4().hex}.warc.gz")
            with open(path, "wb") as f:
                for doc_id, text, lang, n_chars in zip(
                    batch["doc_id"].to_pylist(),
                    batch["text"].to_pylist(),
                    batch["lang"].to_pylist(),
                    batch["n_chars"].to_pylist(),
                ):
                    f.write(_warc_record_gz(doc_id, text, lang, n_chars))
            return pa.table({"path": pa.array([path], pa.string())})

        ds.repartition(8).map_batches(
            write_warc, batch_format="pyarrow", batch_size=None
        ).materialize()
    elif kind == "avro":
        # Apache Avro Object Container File (the Hadoop-ecosystem row
        # format), written FROM SCRATCH to the public spec — magic
        # 'Obj\\x01', header metadata map (avro.schema JSON +
        # avro.codec deflate), 16-byte sync markers framing raw-deflate
        # blocks of zigzag-varint records. One .avro per partition.
        import uuid

        os.makedirs(tmp, exist_ok=True)

        def write_avro(batch: pa.Table) -> pa.Table:
            path = os.path.join(tmp, f"part-{uuid.uuid4().hex}.avro")
            with open(path, "wb") as f:
                f.write(_avro_file_bytes(batch))
            return pa.table({"path": pa.array([path], pa.string())})

        ds.repartition(8).map_batches(
            write_avro, batch_format="pyarrow", batch_size=None
        ).materialize()
    elif kind == "orc":
        # Apache ORC via pyarrow.orc — the other big-data columnar
        # format; one .orc file per partition, same distributed-write
        # template as feather.
        import uuid

        os.makedirs(tmp, exist_ok=True)

        def write_orc(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as orc

            path = os.path.join(tmp, f"part-{uuid.uuid4().hex}.orc")
            orc.write_table(batch, path)
            return pa.table({"path": pa.array([path], pa.string())})

        ds.repartition(8).map_batches(
            write_orc, batch_format="pyarrow", batch_size=None
        ).materialize()
    else:
        raise ValueError(kind)
    open(os.path.join(tmp, "_DONE"), "w").write("ok")
    os.rename(tmp, final) if not os.path.exists(final) else shutil.rmtree(tmp)
    return final


def _warc_record_gz(doc_id: int, text: str, lang: str, n_chars: int) -> bytes:
    """One WARC/1.0 response record, gzip-compressed as its own member
    (mtime=0 so identical inputs give identical bytes). Content-Length
    frames the payload exactly — payloads are free to contain CRLFs or
    even the literal string 'WARC/1.0'; a correct reader never splits on
    markers. doc_id/lang/n_chars ride in custom WARC-Aarhus-* headers
    (ISO 28500 §5 permits extension fields), the text is the payload."""
    import gzip

    payload = text.encode("utf-8")
    headers = (
        b"WARC/1.0\r\n"
        b"WARC-Type: response\r\n"
        + f"WARC-Record-ID: <urn:aarhus:doc:{doc_id}>\r\n".encode()
        + b"WARC-Date: 2025-01-01T00:00:00Z\r\n"
        + f"WARC-Target-URI: https://synth.example/{doc_id}\r\n".encode()
        + f"WARC-Aarhus-Doc-ID: {doc_id}\r\n".encode()
        + f"WARC-Aarhus-Lang: {lang}\r\n".encode()
        + f"WARC-Aarhus-NChars: {n_chars}\r\n".encode()
        + b"Content-Type: text/plain; charset=utf-8\r\n"
        + f"Content-Length: {len(payload)}\r\n".encode()
        + b"\r\n"
    )
    return gzip.compress(headers + payload + b"\r\n\r\n", mtime=0)


def _parse_warc_members(data: bytes) -> pa.Table:
    """Walk a WARC byte string record by record. Compressed input
    (gzip magic 1f 8b) is walked member by member (zlib wbits=31,
    chaining on unused_data — gzip.decompress would also concatenate
    members but loses the member boundaries this walk certifies);
    uncompressed input (what Ray's read_binary_files delivers for a
    .gz path — it gunzips by extension before the task sees bytes) is
    walked by Content-Length framing alone. Either way a record's
    header block ends at the first blank line and its payload is
    exactly Content-Length bytes — never a regex split, so payloads
    may contain CRLFs or the literal string 'WARC/1.0'."""
    import zlib

    gzipped = data[:2] == b"\x1f\x8b"
    doc_ids, texts, langs, n_chars_l = [], [], [], []

    def _one_record(buf: bytes, start: int) -> int:
        """Parse the record at buf[start:]; return the offset just past
        it. Absolute offsets throughout — no per-record buffer copy."""
        head_end = buf.index(b"\r\n\r\n", start)
        lines = buf[start:head_end].split(b"\r\n")
        if lines[0] != b"WARC/1.0":
            raise ValueError(f"bad WARC version line: {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            k, _, v = line.partition(b": ")
            headers[k.decode("ascii")] = v.decode("utf-8")
        clen = int(headers["Content-Length"])
        body = head_end + 4
        if buf[body + clen : body + clen + 4] != b"\r\n\r\n":
            raise ValueError("record not terminated by CRLF CRLF")
        doc_ids.append(int(headers["WARC-Aarhus-Doc-ID"]))
        texts.append(buf[body : body + clen].decode("utf-8"))
        langs.append(headers["WARC-Aarhus-Lang"])
        n_chars_l.append(int(headers["WARC-Aarhus-NChars"]))
        return body + clen + 4

    if gzipped:
        pos = 0
        while pos < len(data):
            d = zlib.decompressobj(wbits=31)
            rec = d.decompress(data[pos:])
            pos = len(data) - len(d.unused_data)
            end = _one_record(rec, 0)
            if rec[end:]:
                raise ValueError("trailing bytes after record inside gzip member")
    else:
        pos = 0
        while pos < len(data):
            pos = _one_record(data, pos)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "n_chars": pa.array(n_chars_l, pa.int64()),
        }
    )


# --- Apache Avro Object Container File, from scratch (public spec) ------
# Writer and reader implement the OCF layout directly: no Avro library
# exists in this environment, and a hand-rolled codec keeps the whole
# encode→deflate→inflate→decode path certifiable by the same per-lang
# fold hash as WARC/PPM. The reader is SCHEMA-DRIVEN: it decodes by the
# field list embedded in the file header, not by assuming the writer.

_AVRO_MAGIC = b"Obj\x01"
_AVRO_SCHEMA = (
    '{"type":"record","name":"doc","fields":['
    '{"name":"doc_id","type":"long"},{"name":"text","type":"string"},'
    '{"name":"lang","type":"string"},{"name":"n_chars","type":"long"}]}'
)


def _avro_long(n: int) -> bytes:
    """Avro long: zigzag then base-128 varint, low groups first."""
    z = (n << 1) ^ (n >> 63)
    out = bytearray()
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _avro_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return _avro_long(len(b)) + b


def _avro_file_bytes(batch: pa.Table) -> bytes:
    """One complete OCF: header (metadata map: schema + deflate codec),
    then one raw-deflate block holding the batch's records. The sync
    marker derives from the block content (md5 of the record bytes), so
    identical inputs produce identical files."""
    import zlib

    recs = bytearray()
    for doc_id, text, lang, n_chars in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist(),
        batch["lang"].to_pylist(), batch["n_chars"].to_pylist(),
    ):
        recs += _avro_long(int(doc_id))
        recs += _avro_str(text)
        recs += _avro_str(lang)
        recs += _avro_long(int(n_chars))
    sync = hashlib.md5(bytes(recs)).digest()
    co = zlib.compressobj(9, zlib.DEFLATED, -15)  # raw deflate per spec
    payload = co.compress(bytes(recs)) + co.flush()
    out = bytearray(_AVRO_MAGIC)
    out += _avro_long(2)  # metadata map: one block of two entries
    out += _avro_str("avro.schema") + _avro_long(len(_AVRO_SCHEMA)) + _AVRO_SCHEMA.encode()
    out += _avro_str("avro.codec") + _avro_long(7) + b"deflate"
    out += _avro_long(0)  # map terminator
    out += sync
    out += _avro_long(batch.num_rows) + _avro_long(len(payload)) + payload + sync
    return bytes(out)


def _avro_read_long(buf: bytes, pos: int) -> tuple[int, int]:
    """Zigzag varint at ``pos`` → (value, next pos). A 64-bit long takes
    at most 10 bytes; a longer continuation run or a buffer that ends
    mid-varint is a ValueError, never an IndexError or an unbounded
    integer."""
    z = 0
    for shift in range(0, 70, 7):
        if pos >= len(buf):
            raise ValueError(f"truncated Avro varint at byte {pos}")
        b = buf[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not b & 0x80:
            return (z >> 1) ^ -(z & 1), pos
    raise ValueError(f"Avro varint longer than 10 bytes ending at byte {pos}")


def _parse_avro(data: bytes) -> pa.Table:
    """Schema-driven OCF reader: validate magic, decode the metadata map
    (negative map-block counts per spec carry a byte size), json-parse
    avro.schema for the field order/types, then walk blocks — inflate if
    codec=deflate, verify every sync marker, decode count records by the
    embedded field list. Only long/string fields are needed here; any
    other type is an explicit error, not a silent skip."""
    import json as _json
    import zlib

    if data[:4] != _AVRO_MAGIC:
        raise ValueError(f"bad Avro magic: {data[:4]!r}")
    pos = 4
    meta: dict[str, bytes] = {}
    while True:
        count, pos = _avro_read_long(data, pos)
        if count == 0:
            break
        if count < 0:  # spec: negative count prefixes the block byte size
            count = -count
            _, pos = _avro_read_long(data, pos)
        for _ in range(count):
            klen, pos = _avro_read_long(data, pos)
            key = data[pos : pos + klen].decode("utf-8")
            pos += klen
            vlen, pos = _avro_read_long(data, pos)
            meta[key] = data[pos : pos + vlen]
            pos += vlen
    sync = data[pos : pos + 16]
    pos += 16
    schema = _json.loads(meta["avro.schema"])
    fields = [(f["name"], f["type"]) for f in schema["fields"]]
    codec = meta.get("avro.codec", b"null").decode("ascii")
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported avro.codec {codec!r}")
    cols: dict[str, list] = {name: [] for name, _ in fields}
    while pos < len(data):
        count, pos = _avro_read_long(data, pos)
        size, pos = _avro_read_long(data, pos)
        block = data[pos : pos + size]
        pos += size
        if data[pos : pos + 16] != sync:
            raise ValueError("block sync marker mismatch")
        pos += 16
        if codec == "deflate":
            block = zlib.decompress(block, -15)
        bp = 0
        for _ in range(count):
            for name, typ in fields:
                if typ == "long":
                    v, bp = _avro_read_long(block, bp)
                    cols[name].append(v)
                elif typ == "string":
                    ln, bp = _avro_read_long(block, bp)
                    cols[name].append(block[bp : bp + ln].decode("utf-8"))
                    bp += ln
                else:
                    raise ValueError(f"unsupported field type {typ!r}")
        if bp != len(block):
            raise ValueError("trailing bytes after records inside block")
    return pa.table(
        {
            name: pa.array(cols[name], pa.int64() if typ == "long" else pa.string())
            for name, typ in fields
        }
    )


def _lang_fold(ds: ray.data.Dataset) -> pd.DataFrame:
    """(lang, n_docs, sum_chars, sum_text_len) — sum_text_len counts the
    PARSED text's characters, so any quoting/escape corruption in the
    interchange layer breaks the hash."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        tlen = pc.utf8_length(batch["text"])
        return pa.table(
            {
                "lang": batch["lang"],
                "n_docs": pa.array(np.ones(len(batch), np.int64), pa.int64()),
                "sum_chars": batch["n_chars"].cast(pa.int64()),
                "sum_text_len": tlen.cast(pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
            Sum("sum_text_len", alias_name="sum_text_len"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in ("n_docs", "sum_chars", "sum_text_len"):
        out[c] = out[c].astype("int64")
    return out


def jsonl_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → JSONL (ray.data.write_json) → ray.data.read_json →
    per-lang fold. Hash-checked against the parquet original: the JSONL
    layer must preserve every character."""
    d = _interchange_dir(sf_dir, "jsonl")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".json")
    )
    return _lang_fold(ray.data.read_json(files))


def csv_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → CSV (ray.data.write_csv) → ray.data.read_csv →
    per-lang fold — quoting and embedded-delimiter correctness is the
    entire point of the hash check."""
    d = _interchange_dir(sf_dir, "csv")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".csv")
    )
    return _lang_fold(ray.data.read_csv(files))


def feather_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → Arrow IPC/Feather v2 files (one per partition, written
    inside map_batches — Ray Data has no feather writer) →
    ray.data.read_binary_files + a flat-map that opens each file with
    pyarrow.feather and emits its rows → per-lang fold. The IPC layer is
    zero-copy columnar, so the hash check certifies the full
    write→mmap→read path; binary-file + in-task decode is also the
    template for any custom single-file format at scale (each file is
    one task, pruning by file list)."""
    d = _interchange_dir(sf_dir, "feather")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".arrow")
    )

    def decode(batch: pa.Table) -> pa.Table:
        import io

        import pyarrow.feather as feather

        parts = [
            feather.read_table(io.BytesIO(buf.as_py()))
            for buf in batch["bytes"]
        ]
        return pa.concat_tables(parts)

    return _lang_fold(
        ray.data.read_binary_files(files).map_batches(decode, batch_format="pyarrow")
    )


def warc_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → WARC/1.0 .warc.gz files (per-record gzip members —
    Common Crawl's physical layout) → ray.data.read_binary_files + an
    in-task Content-Length-framed record parser → per-lang fold. The
    hash check certifies the whole encode→compress→decompress→parse
    path: CRLF-bearing payloads, unicode, and member boundaries all
    break it if mishandled. This is the template for real CC ingest at
    scale: one WARC file per task, record framing never regex-split."""
    d = _interchange_dir(sf_dir, "warc")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".warc.gz")
    )

    def decode(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [_parse_warc_members(buf.as_py()) for buf in batch["bytes"]]
        )

    # compression=None (pyarrow: "no compression", vs the default
    # "detect"): read_binary_files would otherwise gunzip by extension,
    # and the member-boundary walk is exactly what the parser certifies.
    return _lang_fold(
        ray.data.read_binary_files(
            files, arrow_open_stream_args={"compression": None}
        ).map_batches(decode, batch_format="pyarrow")
    )


def avro_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → Avro OCF files (from-scratch writer: zigzag-varint
    records in raw-deflate blocks, sync-marker framing, schema embedded
    in the header) → ray.data.read_binary_files + the schema-driven
    in-task parser → per-lang fold. The hash check certifies the whole
    encode→deflate→inflate→decode path against the parquet original —
    the Hadoop-ecosystem row format joins the source surface with the
    same one-file-per-task scale template as WARC."""
    d = _interchange_dir(sf_dir, "avro")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".avro")
    )

    def decode(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([_parse_avro(buf.as_py()) for buf in batch["bytes"]])

    return _lang_fold(
        ray.data.read_binary_files(files).map_batches(decode, batch_format="pyarrow")
    )


def orc_roundtrip_stats(sf_dir: str) -> pd.DataFrame:
    """documents → Apache ORC files (pyarrow.orc, one per partition) →
    ray.data.read_binary_files + in-task ORC decode → per-lang fold.
    Completes the columnar-interchange pair (Feather/IPC + ORC)."""
    d = _interchange_dir(sf_dir, "orc")
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".orc")
    )

    def decode(batch: pa.Table) -> pa.Table:
        import io

        import pyarrow.orc as orc

        return pa.concat_tables(
            [orc.ORCFile(io.BytesIO(buf.as_py())).read() for buf in batch["bytes"]]
        )

    return _lang_fold(
        ray.data.read_binary_files(files).map_batches(decode, batch_format="pyarrow")
    )
