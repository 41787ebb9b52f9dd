"""S-HOT_scan-like baseline (Oh et al., WSDM 2017).

S-HOT avoids the M-bottleneck of MET/HaTen2 by computing the TTMc
*on the fly*: no row block of Y_(n) larger than a small scan window ever
exists. Here each partition streams its row groups in chunks of
``scan_rows`` rows, accumulating the K×K Gram of Y_(n); after an eig of
the Gram, a second streaming pass emits the factor rows
U = Y V Σ^{-1}. Peak intermediate state is O(K² + scan_rows·K) — the
scan-bounded memory profile that lets S-HOT scale (Table III), at the
cost of the two passes and per-chunk overheads P-Tucker does not pay.

Missing entries are treated as zeros, as in the original — the source of
its poor accuracy on sparse data (Fig. 11).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.common import (
    ensure_budget,
    hooi_family_loop,
    kron_block,
    leading_left_factor_from_gram,
    rest_modes,
)
from repro.core.ptucker import _collect_idx_vals, assemble_factor
from repro.tensor.spark_tensor import ModePartitionedTensor

_SCAN_ROWS = 256


def _sorted_groups(idx: np.ndarray, mode: int):
    """Sort a partition's entries by mode index; return sorted arrays and
    per-row-group boundaries."""
    order = np.argsort(idx[:, mode], kind="stable")
    s_idx = idx[order]
    uniq, starts = np.unique(s_idx[:, mode], return_index=True)
    return order, s_idx, uniq, starts


def _gram_pass(
    view: DataFrame, factors: list[np.ndarray], mode: int, order: int
) -> np.ndarray:
    """Scan pass 1: accumulate Gram(Y_(mode)) = Σ_rows y yᵀ in row chunks."""
    sc = view.sparkSession.sparkContext
    bc = sc.broadcast(factors)

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        f = bc.value
        rest = rest_modes(order, mode)
        k_cols = int(np.prod([f[k].shape[1] for k in rest]))
        gram = np.zeros((k_cols, k_cols), dtype=np.float64)
        if len(vals):
            perm, s_idx, uniq, starts = _sorted_groups(idx, mode)
            s_vals = vals[perm]
            bounds = np.append(starts, len(s_vals))
            for rs in range(0, len(uniq), _SCAN_ROWS):
                re = min(rs + _SCAN_ROWS, len(uniq))
                lo, hi = bounds[rs], bounds[re]
                rows = np.zeros((re - rs, k_cols))
                pos = np.searchsorted(uniq[rs:re], s_idx[lo:hi, mode])
                block = kron_block(s_idx[lo:hi], f, rest)
                np.add.at(rows, pos, s_vals[lo:hi, None] * block)
                gram += rows.T @ rows
        yield pd.DataFrame({"g": [gram.ravel()]})

    parts = view.mapInPandas(run, schema="g array<double>").toPandas()
    bc.unpersist()
    mats = np.stack(parts["g"].to_numpy())
    k = int(np.sqrt(mats.shape[1]))
    return mats.sum(axis=0).reshape(k, k)


def _rows_pass(
    view: DataFrame,
    factors: list[np.ndarray],
    mode: int,
    order: int,
    proj: np.ndarray,
) -> pd.DataFrame:
    """Scan pass 2: emit factor rows U = Y · proj (proj = V Σ^{-1})."""
    sc = view.sparkSession.sparkContext
    bc = sc.broadcast((factors, proj))

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        f, p = bc.value
        rest = rest_modes(order, mode)
        k_cols = p.shape[0]
        out_i: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        if len(vals):
            perm, s_idx, uniq, starts = _sorted_groups(idx, mode)
            s_vals = vals[perm]
            bounds = np.append(starts, len(s_vals))
            for rs in range(0, len(uniq), _SCAN_ROWS):
                re = min(rs + _SCAN_ROWS, len(uniq))
                lo, hi = bounds[rs], bounds[re]
                rows = np.zeros((re - rs, k_cols))
                pos = np.searchsorted(uniq[rs:re], s_idx[lo:hi, mode])
                block = kron_block(s_idx[lo:hi], f, rest)
                np.add.at(rows, pos, s_vals[lo:hi, None] * block)
                out_i.append(uniq[rs:re])
                out_r.append(rows @ p)
        if out_i:
            yield pd.DataFrame(
                {
                    "i": np.concatenate(out_i),
                    "row": [r for r in np.concatenate(out_r)],
                }
            )
        # empty partition: emit no batch (Arrow cannot type a 0-row list col)

    res = view.mapInPandas(run, schema="i long, row array<double>").toPandas()
    bc.unpersist()
    return res


def factorize_shot(
    spark: SparkSession,
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    *,
    max_iters: int = 20,
    tol: float = 1e-4,
    seed: int = 0,
    mem_budget: int | None = None,
):
    """Run the S-HOT_scan-like Tucker-ALS on Spark."""
    owns = not isinstance(entries, ModePartitionedTensor)
    mpt = ModePartitionedTensor(entries, shape) if owns else entries
    order = len(shape)

    def updater(n: int, factors: list[np.ndarray]) -> np.ndarray:
        rest = rest_modes(order, n)
        k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
        # Scan-bounded intermediates: Gram + one scan window per task.
        ensure_budget(
            (k_cols * k_cols + _SCAN_ROWS * k_cols) * 8,
            mem_budget,
            f"S-HOT scan window for mode {n}",
        )
        gram = _gram_pass(mpt.view(n), factors, n, order)
        v, inv_sigma = leading_left_factor_from_gram(gram, ranks[n])
        proj = v * inv_sigma[None, :]
        collected = _rows_pass(mpt.view(n), factors, n, order, proj)
        return assemble_factor(collected, shape[n], ranks[n])

    try:
        return hooi_family_loop(
            spark, mpt, shape, ranks, updater, max_iters, tol, seed
        )
    finally:
        if owns:
            mpt.unpersist()
