"""Tucker-CSF-like baseline (Smith & Karypis, Euro-Par 2017).

Tucker-CSF accelerates the TTMc by operating on a compressed sparse
fiber structure that lets whole fibers reuse partial Kronecker products.
The Spark analogue here: each partition *fully materializes* its local
block of Y_(n) rows in one vectorized sweep (sorted by fiber, i.e. by the
mode index, so the scatter-accumulate is one batched `np.add.at`), then
contributes a Gram partial; a second sweep forms U = Y V Σ^{-1}. The
per-task memory is O(I_local · J^{N-1}) — the ``Memory ✗`` row of
Table I — which buys fewer passes/chunk overheads than the scan-bounded
S-HOT. A driver-side budget check reproduces the paper's total
O(I · J^{N-1}) footprint semantics.

Missing entries are zeros, as in the original (accuracy ✗ in Table I).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.common import (
    ensure_budget,
    hooi_family_loop,
    leading_left_factor_from_gram,
    local_y_rows,
    rest_modes,
)
from repro.core.ptucker import _collect_idx_vals, assemble_factor
from repro.tensor.spark_tensor import ModePartitionedTensor


def _materialized_pass(
    view: DataFrame,
    factors: list[np.ndarray],
    mode: int,
    order: int,
    proj: np.ndarray | None,
):
    """One sweep materializing local Y rows per partition.

    With ``proj`` None, emits the partition's Gram partial; otherwise
    emits the factor rows U = Y · proj.
    """
    sc = view.sparkSession.sparkContext
    bc = sc.broadcast((factors, proj))

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, _ = _collect_idx_vals(pdfs, order)
        f, p = bc.value
        rest = rest_modes(order, mode)
        k_cols = int(np.prod([f[k].shape[1] for k in rest]))
        if len(vals) == 0:
            if p is None:
                yield pd.DataFrame({"g": [np.zeros(k_cols * k_cols)]})
            # rows mode: emit no batch (Arrow cannot type a 0-row list col)
            return
        row_ids = np.unique(idx[:, mode])
        y_local = local_y_rows(idx, vals, f, mode, row_ids)
        if p is None:
            yield pd.DataFrame({"g": [(y_local.T @ y_local).ravel()]})
        else:
            yield pd.DataFrame(
                {"i": row_ids, "row": [r for r in (y_local @ p)]}
            )

    schema = "g array<double>" if proj is None else "i long, row array<double>"
    res = view.mapInPandas(run, schema=schema).toPandas()
    bc.unpersist()
    return res


def factorize_csf(
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
    """Run the Tucker-CSF-like Tucker-ALS on Spark."""
    owns = not isinstance(entries, ModePartitionedTensor)
    mpt = ModePartitionedTensor(entries, shape) if owns else entries
    order = len(shape)

    def updater(n: int, factors: list[np.ndarray]) -> np.ndarray:
        rest = rest_modes(order, n)
        k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
        # Materialized-rows footprint: all local Y blocks together span
        # the observed rows of mode n (≤ I_n) — Table III's O(I·J^{N-1}).
        ensure_budget(
            shape[n] * k_cols * 8,
            mem_budget,
            f"Tucker-CSF materialized Y_({n}) rows",
        )
        g_parts = _materialized_pass(mpt.view(n), factors, n, order, None)
        gram = (
            np.sum(np.stack(g_parts["g"].to_numpy()), axis=0).reshape(
                k_cols, k_cols
            )
            if len(g_parts)
            else np.zeros((k_cols, k_cols))
        )
        v, inv_sigma = leading_left_factor_from_gram(gram, ranks[n])
        proj = v * inv_sigma[None, :]
        collected = _materialized_pass(mpt.view(n), factors, n, order, proj)
        return assemble_factor(collected, shape[n], ranks[n])

    try:
        return hooi_family_loop(
            spark, mpt, shape, ranks, updater, max_iters, tol, seed
        )
    finally:
        if owns:
            mpt.unpersist()
