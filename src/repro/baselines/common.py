"""Shared machinery for the HOOI-family competitor baselines.

All three competitors (Tucker-ALS/HOOI, Tucker-CSF, S-HOT_scan) update
A^(n) as the J_n leading left singular vectors of the mode-n TTMc
Y_(n) = X ×_{k≠n} A^(k)T (Algorithm 1 lines 4-5), treating missing
entries as zeros — the accuracy flaw P-Tucker removes. They differ only
in *how* Y_(n) is materialized, which is exactly the memory story of
Table III:

* HOOI materializes the full dense Y_(n) (I_n × J^{N-1}) on the driver —
  the intermediate-data-explosion object;
* Tucker-CSF materializes only each partition's local rows of Y_(n);
* S-HOT_scan streams row-chunks, keeping O(J^{2(N-1)}) state.

The left singular vectors are obtained from the K×K Gram Y^T Y
(K = Π_{k≠n} J_k is small), so no I_n×I_n object ever exists:
eig(Gram) → V, then U = Y V Σ^{-1} row-by-row.

A ``SimulatedOOM`` budget stands in for the paper's 512 GB machine: a
baseline whose intermediate data would exceed the budget raises instead
of thrashing this container (see DESIGN.md substitutions).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.delta import full_product_block
from repro.core.ptucker import _collect_idx_vals, spark_sse


class SimulatedOOM(MemoryError):
    """Raised when a baseline's intermediate data exceeds the memory budget.

    Stands in for the paper's O.O.M. outcomes (Figs 6, 7, 11) in a way
    that is deterministic and doesn't take down the test box.
    """


def ensure_budget(nbytes: int, budget: int | None, what: str) -> None:
    """Raise SimulatedOOM if ``what`` would need more than ``budget`` bytes."""
    if budget is not None and nbytes > budget:
        raise SimulatedOOM(
            f"{what} needs {nbytes / 1e9:.2f} GB > budget {budget / 1e9:.2f} GB"
        )


def rest_modes(order: int, mode: int) -> list[int]:
    """Modes other than ``mode``, ascending — the TTMc column layout (Eq. 2)."""
    return [k for k in range(order) if k != mode]


def kron_block(
    idx: np.ndarray, factors: list[np.ndarray], modes: list[int]
) -> np.ndarray:
    """Row-wise Kronecker products ⊗_{k ∈ modes} A^(k)[i_k] for a batch.

    Lowest mode varies fastest, matching ``matricization_col_index``.
    """
    block: np.ndarray | None = None
    for k in modes:
        rows_k = factors[k][idx[:, k]]
        if block is None:
            block = rows_k
        else:
            block = (rows_k[:, :, None] * block[:, None, :]).reshape(
                len(rows_k), -1
            )
    if block is None:
        block = np.ones((len(idx), 1))
    return block


def local_y_rows(
    idx: np.ndarray,
    vals: np.ndarray,
    factors: list[np.ndarray],
    mode: int,
    row_ids: np.ndarray,
) -> np.ndarray:
    """Dense local rows of Y_(mode) for the given (sorted-unique) row ids.

    idx/vals must contain every entry whose mode index is in ``row_ids``
    (guaranteed when the data is hash-partitioned by the mode index).
    """
    rest = rest_modes(len(factors), mode)
    k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
    out = np.zeros((len(row_ids), k_cols), dtype=np.float64)
    pos = np.searchsorted(row_ids, idx[:, mode])
    chunk = max(1, 4_000_000 // max(1, k_cols))
    for s in range(0, len(vals), chunk):
        e = slice(s, min(s + chunk, len(vals)))
        block = kron_block(idx[e], factors, rest)
        np.add.at(out, pos[e], vals[e, None] * block)
    return out


def leading_left_factor_from_gram(
    gram: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` eigenpairs of the K×K Gram, for U = Y V Σ^{-1}.

    Returns (V, inv_sigma): V (K, rank) orthonormal, inv_sigma (rank,)
    with zeros where the spectrum is (numerically) null.
    """
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1][:rank]
    w_top = np.clip(w[order], 0.0, None)
    sigma = np.sqrt(w_top)
    inv_sigma = np.where(sigma > 1e-12, 1.0 / np.maximum(sigma, 1e-300), 0.0)
    return v[:, order], inv_sigma


def spark_core_update(
    view: DataFrame, factors: list[np.ndarray], ranks: tuple[int, ...]
) -> np.ndarray:
    """Distributed Algorithm 1 line 7: G = X ×_1 A^(1)T ... ×_N A^(N)T.

    Each partition accumulates Σ val · ⊗_n A^(n)[i_n] into a local J^N
    array (C-order: mode N-1 fastest); partials are summed on the driver.
    """
    order = len(ranks)
    sc = view.sparkSession.sparkContext
    bc = sc.broadcast(factors)

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        f = bc.value
        k_total = int(np.prod([a.shape[1] for a in f]))
        acc = np.zeros(k_total, dtype=np.float64)
        chunk = max(1, 4_000_000 // max(1, k_total))
        for s in range(0, len(vals), chunk):
            e = slice(s, min(s + chunk, len(vals)))
            block = full_product_block(f, idx[e], ranks)
            acc += (vals[e, None] * block).sum(axis=0)
        yield pd.DataFrame({"g": [acc]})

    parts = view.mapInPandas(run, schema="g array<double>").toPandas()
    bc.unpersist()
    if not len(parts):
        return np.zeros(ranks)
    return np.sum(np.stack(parts["g"].to_numpy()), axis=0).reshape(ranks)


def hooi_family_loop(
    spark,
    mpt,
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    mode_updater,
    max_iters: int,
    tol: float,
    seed: int,
):
    """Shared Algorithm-1 outer loop for the HOOI-family baselines.

    ``mode_updater(n, factors) -> new A^(n)`` supplies the per-method
    TTMc+SVD step. Per iteration the core is recomputed (line 7) and the
    observed-entry reconstruction error (Eq. 6) recorded so speed and
    accuracy are measured exactly as for P-Tucker. It is kept apart from
    ``ptucker.factorize`` on purpose: an SVD update plus a core pass is a
    different algorithm, and one loop for both would branch on its caller.
    """
    import time

    from repro.core.config import PTuckerResult, converged

    sc = spark.sparkContext
    factors = init_orthonormal_factors(shape, ranks, seed)
    core = np.zeros(ranks)
    result = PTuckerResult(factors=factors, core=core)
    for _ in range(max_iters):
        t0 = time.perf_counter()
        for n in range(len(shape)):
            factors[n] = mode_updater(n, factors)
        core = spark_core_update(mpt.view(0), factors, ranks)
        bc = sc.broadcast((core, factors, None))
        sse = spark_sse(mpt.view(0), bc, len(shape))
        bc.unpersist()
        result.errors.append(float(np.sqrt(sse)))
        result.core_nnz_history.append(core.size)
        result.iter_times.append(time.perf_counter() - t0)
        if converged(result.errors, tol):
            result.converged = True
            break
    result.factors, result.core = factors, core
    return result


def init_orthonormal_factors(
    shape: tuple[int, ...], ranks: tuple[int, ...], seed: int
) -> list[np.ndarray]:
    """Random column-orthonormal starting factors for the HOOI family."""
    g = np.random.default_rng(seed)
    out = []
    for i, j in zip(shape, ranks):
        a = g.standard_normal((i, j))
        q, _ = np.linalg.qr(a)
        out.append(q[:, :j])
    return out
