"""Run-side plumbing: the op ledger, the /proc sampler and the Ray session.

Everything here runs inside the child process that ``run.py`` starts for
one workload run, except ``tagged_processes``/``kill_tagged``, which the
parent uses to clean up.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback

# every process of a run (the child, Ray's gcs/raylet, workers, actors)
# inherits this variable; its value names the run's work directory
ENV_TAG = "PERFBENCH_WORK"
NUM_CPUS = 2  # logical Ray CPUs; 1 hangs build_index (see NOTES.md)
OBJECT_STORE_BYTES = 256 * 1024 * 1024


class Ledger:
    """Counts ops (builds, writes, requests, pipeline calls) attempted and
    failed. A raise or a wrong answer fails the op. After every op the
    counts go to ``progress_path`` so the parent can account for a run it
    had to stop: the ops not finished by then count as failed."""

    def __init__(self, progress_path: str):
        self.progress_path = progress_path
        self.attempted = 0
        self.failed = 0
        self.planned = 0  # ops the run still means to make, beyond attempted
        self._write()

    def _write(self) -> None:
        tmp = self.progress_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"attempted": self.attempted, "failed": self.failed,
                       "planned": self.planned}, f)
        os.replace(tmp, self.progress_path)

    def plan(self, n_ops: int) -> None:
        self.planned = n_ops
        self._write()

    def run(self, fn, *args, **kwargs):
        """One op: returns (ok, result, seconds). A raise is logged and
        counted as failed; the run goes on."""
        self.attempted += 1
        self.planned = max(0, self.planned - 1)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out, ok = None, False
        dt = time.perf_counter() - t0
        if not ok:
            self.failed += 1
        self._write()
        return ok, out, dt

    def totals(self) -> tuple[int, int]:
        """(attempted, failed), counting the ops still planned as attempted
        and failed: a run that stopped early did not make them."""
        return self.attempted + self.planned, self.failed + self.planned

    def fail(self, reason: str) -> None:
        """Count one more failed op: an op that returned a wrong answer."""
        print(f"wrong answer: {reason}", file=sys.stderr)
        self.failed += 1
        self._write()


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _read_write_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    return 0


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read().replace(b"\0", b" ").decode(errors="replace")


def session_processes(root_pid: int) -> list[int]:
    """``root_pid`` and all its descendants."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tagged_processes(tag: str) -> list[int]:
    """Live processes whose environment carries ``ENV_TAG=tag``."""
    needle = f"{ENV_TAG}={tag}".encode() + b"\0"
    me = os.getpid()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read() + b"\0"
        except OSError:
            continue
        if b"\0" + needle in b"\0" + env:
            found.append(int(name))
    return found


def kill_tagged(tag: str, timeout_s: float = 20.0) -> int:
    """SIGKILL every process of a run (leftover or still going) and wait
    until none is left; returns how many were killed."""
    import signal

    killed = 0
    deadline = time.monotonic() + timeout_s
    while True:
        pids = tagged_processes(tag)
        if not pids:
            return killed
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                killed += 1
            except OSError:
                pass
        _reap()
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} survived SIGKILL")
        time.sleep(0.1)


def _reap() -> None:
    """Collect exited children (the parent is a child subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class ProcSampler:
    """Samples /proc for the run's process tree on a background thread:
    the peak of the summed VmHWM (this process + every Ray process), the same for
    serving-pool actors only, and per-process write_bytes so that bytes
    written inside a window can be summed even for processes that exited
    (their last sample stands in for their final count)."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.peak_kb = 0
        self.pool_peak_kb = 0
        self.last_write: dict[int, int] = {}
        self._pool_pids: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        total = pool = 0
        writes = {}
        for pid in session_processes(os.getpid()):
            try:
                hwm = _vm_hwm_kb(pid)
                writes[pid] = _read_write_bytes(pid)
                if pid not in self._pool_pids and _cmdline(pid).startswith("ray::_ServeScorer"):
                    self._pool_pids.add(pid)
            except (OSError, ValueError):
                continue
            total += hwm
            if pid in self._pool_pids:
                pool += hwm
        with self._lock:
            self.peak_kb = max(self.peak_kb, total)
            self.pool_peak_kb = max(self.pool_peak_kb, pool)
            self.last_write.update(writes)

    def write_marker(self) -> dict[int, int]:
        """Current write_bytes per process, to diff against later."""
        self.sample()
        with self._lock:
            return dict(self.last_write)

    def bytes_written_since(self, marker: dict[int, int]) -> int:
        self.sample()
        with self._lock:
            return sum(max(0, v - marker.get(pid, 0)) for pid, v in self.last_write.items())


def ray_temp_dir(work: str) -> str | None:
    """Ray's session dir inside the work dir, or None when that path would
    make Ray's unix socket paths longer than the kernel allows (107 bytes;
    Ray appends ~65 characters), in which case Ray's default is used."""
    path = os.path.join(work, "ray")
    return path if len(path) <= 40 else None


def start_ray(work: str, trace: bool) -> None:
    """Fresh local Ray session. Workers inherit this process's environment
    (PYTHONPATH, the run tag and, when tracing, the trace directory); the
    traced run also installs the span wrappers in every worker."""
    import ray
    from ray.data import DataContext

    runtime_env = {"worker_process_setup_hook": "perfbench.trace.worker_setup"} if trace else None
    ray.init(
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(work),
        runtime_env=runtime_env,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
