"""Spans recorded from outside the program.

The traced run wraps public functions of the engine's modules; each call
becomes a span (name, start, end, parent, request id, error flag). The
benchmark process installs the wrappers itself; Ray workers and actors
install them at start through ``runtime_env={"worker_process_setup_hook":
"perfbench.trace.worker_setup"}``. Spans are kept in memory; a worker
appends its spans to ``spans-<pid>.jsonl`` in the trace directory each
time its outermost span ends (an actor can be killed at any moment, so
it cannot wait for the run to end), the benchmark process when the run
ends.

Clocks are ``time.perf_counter_ns`` (CLOCK_MONOTONIC, shared by every
process on the host), so spans of different processes share one time
axis. A request id ties the client's ``serve_queries`` span to the actor's
scorer span of the same request: it is the first query id of the table
the call carries.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import threading
import time

ENV_TRACE_DIR = "PERFBENCH_TRACE_DIR"

# (module, attribute path, span name). A span's layer is the module its name
# starts with (report.LAYERS). Functions another module imported by name are
# patched there too.
TARGETS = (
    ("aarhus_ray.pipelines.build", "build_index", "build.build_index"),
    ("aarhus_ray.pipelines.maintain", "build_index", "build.build_index"),
    ("aarhus_ray.pipelines.maintain", "add_documents", "maintain.add_documents"),
    ("aarhus_ray.pipelines.maintain", "delete_documents", "maintain.delete_documents"),
    ("aarhus_ray.pipelines.maintain", "compact_index", "maintain.compact_index"),
    ("aarhus_ray.pipelines.query", "start_serving", "pipelines.query.start_serving"),
    ("aarhus_ray.pipelines.query", "serve_queries", "pipelines.query.serve_queries"),
    ("aarhus_ray.pipelines.query", "query_index", "pipelines.query.query_index"),
    ("aarhus_ray.state.manifest", "read_manifest", "manifest.read_manifest"),
    ("aarhus_ray.stages.query_stage", "QueryScorer.__call__", "query_stage.QueryScorer.__call__"),
    ("aarhus_ray.stages.query_stage", "Segment.term_postings", "query_stage.Segment.term_postings"),
    ("aarhus_ray.stages.query_stage", "block_max_topk", "wand.block_max_topk"),
    ("aarhus_ray.stages.query_stage", "dense_accum_topk", "wand.dense_accum_topk"),
    ("aarhus_ray.wand", "block_max_topk", "wand.block_max_topk"),
    ("aarhus_ray.wand", "dense_accum_topk", "wand.dense_accum_topk"),
    ("aarhus_ray.codecs", "decode_postings", "codecs.decode_postings"),
)

# argument index of the query table whose first query id is the request id
_REQ_ARG = {
    "pipelines.query.serve_queries": 1,
    "query_stage.QueryScorer.__call__": 1,
}


def _first_qid(table) -> int:
    return int(table["query_id"][0].as_py()) if table.num_rows else -1


class Recorder:
    """In-memory span list of one process."""

    def __init__(self, out_path: str, flush_on_root: bool):
        self.out_path = out_path
        self.flush_on_root = flush_on_root
        self.enabled = True
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else -1
        arg = _REQ_ARG.get(name)
        req = _first_qid(args[arg]) if arg is not None and len(args) > arg else -1
        stack.append(sid)
        err = 0
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            err = 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, t0, t1, req, err))
            if self.flush_on_root and not stack:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        pid = os.getpid()
        with open(self.out_path, "a") as f:
            for s in spans:
                f.write(json.dumps((pid,) + s) + "\n")


def _wrap(rec: Recorder, name: str, fn):
    if getattr(fn, "__perfbench_span__", None):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs)

    wrapper.__perfbench_span__ = name
    return wrapper


def install(trace_dir: str, flush_on_root: bool) -> Recorder:
    """Wrap every target in this process; returns the process's recorder."""
    rec = Recorder(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), flush_on_root)
    for mod_name, attr, name in TARGETS:
        mod = importlib.import_module(mod_name)
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        setattr(holder, leaf, _wrap(rec, name, getattr(holder, leaf)))
    return rec


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    trace_dir = os.environ.get(ENV_TRACE_DIR)
    if trace_dir:
        install(trace_dir, flush_on_root=True)


# ---------------------------------------------------------------- analysis


class Span:
    __slots__ = ("pid", "sid", "parent", "name", "t0", "t1", "req", "err", "child_ns")

    def __init__(self, pid, sid, parent, name, t0, t1, req, err):
        self.pid, self.sid, self.parent, self.name = pid, sid, parent, name
        self.t0, self.t1, self.req, self.err = t0, t1, req, err
        self.child_ns = 0

    @property
    def dur_ns(self) -> int:
        return self.t1 - self.t0

    @property
    def self_ns(self) -> int:
        """Duration minus the time its (same-process) child spans cover."""
        return self.dur_ns - self.child_ns


def load_spans(trace_dir: str) -> list[Span]:
    spans: list[Span] = []
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    spans.append(Span(*json.loads(line)))
    by_id = {(s.pid, s.sid): s for s in spans}
    for s in spans:
        parent = by_id.get((s.pid, s.parent))
        if parent is not None:
            parent.child_ns += s.dur_ns
    return spans


def within(spans, name: str, windows) -> list[Span]:
    """Spans called ``name`` that start inside any (t0, t1) window."""
    return [s for s in spans if s.name == name and any(a <= s.t0 < b for a, b in windows)]
