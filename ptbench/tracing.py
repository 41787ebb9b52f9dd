"""Outside-in measurement: wrappers around the program's public calls,
Spark's status tracker and UDF profiler, and a process-tree RSS sampler.

Nothing here edits the program. ``Tracer`` swaps module attributes for
timing wrappers while it is active and puts the originals back on exit.
"""
from __future__ import annotations

import os
import pstats
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Spans that are whole Spark passes; a collect or count outside any of
# them is one of the cache variant's inline passes.
PASS_SPANS = {"update", "sse", "rerror"}

# Executor-side functions read from the UDF profiler: metric -> (file, func).
# The profiler strips directories, so files are matched by base name.
KERNELS = {
    "task.decode_s": [
        ("ptucker.py", "_collect_idx_vals"),
        ("cache.py", "_collect_with_pres"),
    ],
    "row_update.update_rows_s": [("row_update.py", "update_rows")],
    "row_update.accumulate_b_c_s": [
        ("row_update.py", "accumulate_b_c")
    ],
    "row_update.sse_partial_s": [("row_update.py", "sse_partial")],
    "row_update.rerror_partial_s": [
        ("row_update.py", "rerror_partial")
    ],
    "delta.delta_dense_s": [("delta.py", "delta_dense")],
    "delta.delta_sparse_s": [("delta.py", "delta_sparse")],
    "delta.compute_pres_s": [("delta.py", "compute_pres")],
    "delta.delta_from_pres_s": [("delta.py", "delta_from_pres")],
    "delta.rescale_pres_s": [("delta.py", "rescale_pres")],
    "linalg.solve_rows_batched_s": [
        ("linalg.py", "solve_rows_batched")
    ],
}

JOB_GROUP = "ptbench-solve"


def _leaves(value):
    """The ndarrays in a broadcast value, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _leaves(v)]
    return []


class Tracer:
    """Times the driver-side calls of one solve, from outside the program.

    Use as a context manager around ``factorize``; read ``wall`` (seconds
    by span), ``collect_bytes``, ``broadcast_bytes`` and
    ``broadcast_changed`` afterwards.
    """

    def __init__(self) -> None:
        from pyspark import SparkContext
        from pyspark.sql.classic.dataframe import DataFrame

        from repro.core import cache, ptucker

        self._targets = [
            (ptucker, "_mode_update_pass", "update"),
            (ptucker, "spark_sse", "sse"),
            (cache, "spark_sse", "sse"),
            (ptucker, "spark_rerror", "rerror"),
            (ptucker, "assemble_factor", "assemble"),
            (cache, "assemble_factor", "assemble"),
            (ptucker, "qr_orthogonalize", "qr"),
            (cache, "qr_orthogonalize", "qr"),
            (ptucker, "truncate_core", "truncate"),
            (SparkContext, "broadcast", "broadcast"),
            (DataFrame, "toPandas", "collect"),
            (DataFrame, "count", "count"),
        ]
        self._saved: list[tuple[object, str, object]] = []
        self.wall: dict[str, float] = defaultdict(float)
        self.collect_bytes = 0
        self.broadcast_bytes = 0
        self.broadcast_changed = 0
        self._last_bc: dict[tuple, list[np.ndarray]] = {}
        self._open_passes = 0

    def __enter__(self) -> "Tracer":
        for owner, attr, span in self._targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, span))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, span: str):
        def wrapper(*args, **kwargs):
            bare = span in ("collect", "count") and self._open_passes == 0
            is_pass = span in PASS_SPANS
            self._open_passes += is_pass
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open_passes -= is_pass
            self.wall[span] += dt
            if bare:
                # The cache variant runs its row update and Pres passes
                # inline: a bare collect is its update, a bare count its
                # Pres (re)build.
                kind = "update" if span == "collect" else "pres"
                self.wall[kind] += dt
            if span == "collect":
                self.collect_bytes += int(out.memory_usage(deep=True).sum())
            elif span == "broadcast":
                self._account_broadcast(out, args[1])
            return out

        return wrapper

    def _account_broadcast(self, bc, value) -> None:
        path = getattr(bc, "_path", None)
        sent = os.path.getsize(path) if path and os.path.exists(path) else 0
        self.broadcast_bytes += sent
        leaves = _leaves(value)
        key = tuple(a.shape for a in leaves)
        prev = self._last_bc.get(key)
        total = sum(a.nbytes for a in leaves)
        if prev is None:
            changed = total
        else:
            changed = sum(
                int(np.count_nonzero(a != b)) * a.itemsize
                for a, b in zip(leaves, prev)
            )
        # Scale array bytes to the pickled bytes actually sent.
        self.broadcast_changed += int(changed * sent / total) if total else 0
        self._last_bc[key] = [a.copy() for a in leaves]


def job_counts(sc) -> tuple[int, int]:
    """(jobs, stages) Spark ran under ``JOB_GROUP``, skipped stages included."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(JOB_GROUP)
    stages = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        stages += len(info.stageIds) if info is not None else 0
    return len(jobs), stages


def cached_bytes(sc) -> int:
    """Memory plus disk bytes of every persisted RDD (``getRDDStorageInfo``)."""
    infos = sc._jsc.sc().getRDDStorageInfo()
    return sum(int(i.memSize()) + int(i.diskSize()) for i in infos)


def kernel_times(dump_dir: Path) -> dict[str, float]:
    """Σ over tasks of UDF time and of each named kernel's cumulative time,
    read from ``spark.profile.dump`` pstats files."""
    out = dict.fromkeys(KERNELS, 0.0)
    out["task.udf_s"] = 0.0
    for f in sorted(dump_dir.glob("*.pstats")):
        st = pstats.Stats(str(f))
        out["task.udf_s"] += st.total_tt
        for (filename, _, func), (_, _, _, ct, _) in st.stats.items():
            base = os.path.basename(filename)
            for metric, names in KERNELS.items():
                if (base, func) in names:
                    out[metric] += ct
    return out


class RssSampler:
    """Peak resident memory of this process and all its descendants
    (driver Python, JVM, Python workers), sampled from /proc."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _tree_rss(self) -> int:
        children = defaultdict(list)
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
            children[ppid].append(int(entry.name))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                continue
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self._tree_rss())
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self.peak = self._tree_rss()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak = max(self.peak, self._tree_rss())
