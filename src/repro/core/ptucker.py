"""P-Tucker on Spark: fully parallel row-wise ALS (Algorithms 2-4).

One driver loop runs all three variants, shaped like
``reference.factorize``. The default and approx variants read N persisted
views (``ModePartitionedTensor``), view ``n`` hash-partitioned by the
mode-n index. One mode update is a single ``mapInPandas`` pass: each
partition owns complete row groups Ω^(n)_{i_n}, vectorizes the δ/B/c
accumulation with NumPy, solves the (B+λI) systems for its rows, and
emits ``(i_n, new_row)``. The driver collects the (small) row table,
assembles the new A^(n), and broadcasts the refreshed model state for the
next mode — mirroring the paper's thread-parallel row distribution with
Spark partitions as the unit of parallelism. P-Tucker-Approx (Algorithm
4) adds one R(β) pass per iteration and truncates the core.

P-Tucker-Cache (Algorithm 3) keeps its table Pres ∈ R^{|Ω| × |G|} as an
``array<double>`` column of length |G| on the entries DataFrame, so the
table is co-partitioned with the entries it belongs to and moves with
them through each mode's shuffle. Instead of the mode views it reads that
DataFrame, repartitioned by ``i_n``, and per mode runs two passes:

1. the row update, with δ recovered from Pres by dividing out the mode-n
   factor (Alg. 3 line 12);
2. rescale Pres by ``a_new / a_old`` (Alg. 3 lines 17-19), rebuilding
   pairs whose old factor value is ~0.

This deliberately materializes and shuffles the O(|Ω|·J^N) state — the
exact time-for-memory trade the paper measures in Fig. 8.
"""
from __future__ import annotations

import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel

from repro.core.approx import (
    dense_core_from_coo,
    full_core_coo,
    truncate_core,
    use_sparse_core,
)
from repro.core.config import PTuckerConfig, PTuckerResult, converged
from repro.core.delta import compute_pres, rescale_pres
from repro.core.row_update import rerror_partial, sse_partial, update_rows
from repro.tensor.linalg import init_factors, qr_orthogonalize
from repro.tensor.spark_tensor import ModePartitionedTensor, entry_columns

_ROW_SCHEMA = "i long, row array<double>"
_SSE_SCHEMA = "sse double, cnt long"


def _pres_schema(order: int) -> str:
    cols = ", ".join(f"i{n} long" for n in range(order))
    return f"{cols}, val double, pres array<double>"


def _collect_idx_vals(
    pdfs: Iterator[pd.DataFrame], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Concatenate a partition's Arrow batches into COO arrays.

    Returns ``(idx, vals, pres)``; ``pres`` is the (E, |G|) Pres table
    when the batches carry the cache variant's ``pres`` column, else None.
    """
    frames = list(pdfs)
    if not frames:
        return np.zeros((0, order), np.int64), np.zeros(0, np.float64), None
    pdf = pd.concat(frames, ignore_index=True)
    idx = np.stack(
        [pdf[c].to_numpy(np.int64) for c in entry_columns(order)], axis=1
    )
    pres = (
        np.stack(pdf["pres"].to_numpy()) if "pres" in pdf.columns else None
    )
    return idx, pdf["val"].to_numpy(np.float64), pres


def _mode_update_pass(
    view: DataFrame,
    bc,
    mode: int,
    lam: float,
    order: int,
) -> pd.DataFrame:
    """Run the partitioned row-update pass and collect (i_n, row) pairs."""

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, pres = _collect_idx_vals(pdfs, order)
        if len(vals) == 0:
            return  # empty partition: emit no batch (Arrow cannot type it)
        core, factors, core_coo = bc.value
        upd = update_rows(
            idx, vals, core, factors, mode, lam, core_coo=core_coo, pres=pres
        )
        yield pd.DataFrame(
            {"i": upd.indices, "row": [r for r in upd.rows]}
        )

    return view.mapInPandas(run, schema=_ROW_SCHEMA).toPandas()


def assemble_factor(
    collected: pd.DataFrame, dim: int, rank: int
) -> np.ndarray:
    """Driver-side assembly of A^(n) from collected (i, row) pairs.

    Unobserved rows stay zero, matching Eq. 10 with B = c = 0.
    """
    out = np.zeros((dim, rank), dtype=np.float64)
    if len(collected):
        out[collected["i"].to_numpy(np.int64)] = np.stack(
            collected["row"].to_numpy()
        )
    return out


def spark_sse(view: DataFrame, bc, order: int) -> float:
    """Distributed Eq. 6: Σ (X_α − X̂_α)² over observed entries."""

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        core, factors, core_coo = bc.value
        sse, cnt = sse_partial(idx, vals, core, factors, core_coo=core_coo)
        yield pd.DataFrame({"sse": [sse], "cnt": [cnt]})

    parts = view.mapInPandas(run, schema=_SSE_SCHEMA).toPandas()
    return float(parts["sse"].sum())


def spark_rerror(view: DataFrame, bc_rerror, order: int, ranks) -> np.ndarray:
    """Distributed Eq. 14: sum of per-partition partial R(β) vectors.

    ``bc_rerror`` broadcasts (factors, core_idx, core_vals): R(β) always
    needs the COO core, independent of which δ kernel the update passes
    are currently using.
    """

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        factors, c_idx, c_vals = bc_rerror.value
        r = rerror_partial(idx, vals, c_idx, c_vals, tuple(ranks), factors)
        yield pd.DataFrame({"r": [r]})

    parts = view.mapInPandas(run, schema="r array<double>").toPandas()
    if not len(parts):
        return np.zeros(0)
    return np.sum(np.stack(parts["r"].to_numpy()), axis=0)


def _pres_pass(
    src: DataFrame,
    prev: DataFrame | None,
    state: tuple,
    mode: int | None,
    order: int,
) -> DataFrame:
    """Persist ``src`` with a fresh Pres column and release ``prev``.

    With ``mode`` None, Pres is built from ``state = (core, factors)``
    (Alg. 3 lines 1-4); otherwise the Pres on ``src`` is rescaled with
    ``state = (core, factors, old A^(mode))`` (lines 17-19).
    """
    bc = src.sparkSession.sparkContext.broadcast(state)

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, pres = _collect_idx_vals(pdfs, order)
        if len(vals) == 0:
            return  # empty partition: emit no batch (Arrow cannot type it)
        if mode is None:
            core, factors = bc.value
            pres = compute_pres(core, factors, idx)
        else:
            core, factors, old_a = bc.value
            pres = rescale_pres(pres, core, factors, old_a, idx, mode)
        cols = {c: idx[:, k] for k, c in enumerate(entry_columns(order))}
        yield pd.DataFrame(cols | {"val": vals, "pres": list(pres)})

    out = src.mapInPandas(run, schema=_pres_schema(order)).persist(
        StorageLevel.MEMORY_AND_DISK
    )
    out.count()
    if prev is not None:
        prev.unpersist()
    bc.unpersist()
    return out


def factorize(
    spark: SparkSession,
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    cfg: PTuckerConfig,
) -> PTuckerResult:
    """Run P-Tucker (default, cache or approx variant) on Spark."""
    n_modes = len(shape)
    sc = spark.sparkContext
    cache = cfg.variant == "cache"
    owns_mpt = not cache and not isinstance(entries, ModePartitionedTensor)
    if cache:
        # The Pres DataFrame is reshuffled by every mode, so Cache needs
        # no mode views: a raw DataFrame is read directly.
        if isinstance(entries, ModePartitionedTensor):
            entries = entries.view(0)
        base = entries.select(
            *[F.col(c).cast("long") for c in entry_columns(n_modes)],
            F.col("val").cast("double"),
        )
        partitions = cfg.partitions or sc.defaultParallelism
    else:
        mpt = (
            ModePartitionedTensor(entries, shape, cfg.partitions)
            if owns_mpt
            else entries
        )
    factors, core = init_factors(shape, cfg.ranks, cfg.seed)

    core_idx = core_vals = None
    if cfg.variant == "approx":
        core_idx, core_vals = full_core_coo(core)

    result = PTuckerResult(factors=factors, core=core)
    cached_df: DataFrame | None = None

    def broadcast_state():
        # Switch to the COO kernels only once truncation has made the
        # core genuinely sparse (same rule as the reference engine).
        coo = None
        if cfg.variant == "approx" and use_sparse_core(
            len(core_vals), core.size
        ):
            coo = (core_idx, core_vals)
        return sc.broadcast((core, factors, coo))

    # Never-observed rows need no special handling here: observed entries
    # never index them (so they influence no δ), and assemble_factor
    # rebuilds each A^(n) from zeros, which realizes Eq. 10's B=c=0 ⇒ 0.

    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        if cache:
            cached_df = _pres_pass(
                base, cached_df, (core, factors), None, n_modes
            )
        for n in range(n_modes):
            if cache:
                view = cached_df.repartition(partitions, F.col(f"i{n}"))
            else:
                view = mpt.view(n)
            bc = broadcast_state()
            collected = _mode_update_pass(view, bc, n, cfg.lam, n_modes)
            old_a = factors[n]
            factors[n] = assemble_factor(collected, shape[n], cfg.ranks[n])
            bc.unpersist()
            if cache:
                cached_df = _pres_pass(
                    view, cached_df, (core, factors, old_a), n, n_modes
                )
        bc = broadcast_state()
        sse_view = cached_df if cache else mpt.view(0)
        sse = spark_sse(sse_view, bc, n_modes)
        result.errors.append(float(np.sqrt(sse)))
        if cfg.variant == "approx":
            bc_rerror = sc.broadcast((factors, core_idx, core_vals))
            rerr = spark_rerror(mpt.view(0), bc_rerror, n_modes, cfg.ranks)
            bc_rerror.unpersist()
            core_idx, core_vals = truncate_core(
                core_idx, core_vals, rerr, cfg.truncation_rate
            )
            core = dense_core_from_coo(core_idx, core_vals, cfg.ranks)
        bc.unpersist()
        result.core_nnz_history.append(
            len(core_vals) if core_vals is not None else core.size
        )
        result.iter_times.append(time.perf_counter() - t0)
        if converged(result.errors, cfg.tol):
            result.converged = True
            break

    if owns_mpt:
        mpt.unpersist()
    if cached_df is not None:
        cached_df.unpersist()
    factors, core = qr_orthogonalize(factors, core)
    result.factors, result.core = factors, core
    return result
