"""Tucker-ALS / HOOI (Algorithm 1) with full intermediate materialization.

The textbook method (De Lathauwer et al.): per mode, materialize the
*entire* dense Y_(n) = X ×_{k≠n} A^(k)T (an I_n × J^{N-1} matrix) and
take its J_n leading left singular vectors. The dense Y_(n) is the
*intermediate data explosion* object (Definition 7) — its O(I·J^{N-1})
driver-side footprint is what P-Tucker's O(T·J²) replaces. The budget
guard turns that explosion into a deterministic ``SimulatedOOM``.

Not one of the paper's named competitors, but it is the algorithm their
scalability critique targets, and it doubles as a correctness oracle:
S-HOT_scan / Tucker-CSF must reproduce its subspaces.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.common import (
    ensure_budget,
    hooi_family_loop,
    rest_modes,
)
from repro.baselines.tucker_csf import _materialized_pass
from repro.core.ptucker import assemble_factor
from repro.tensor.spark_tensor import ModePartitionedTensor


def factorize_hooi(
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
    """Run classic Tucker-ALS (HOOI) with driver-side dense Y_(n)."""
    owns = not isinstance(entries, ModePartitionedTensor)
    mpt = ModePartitionedTensor(entries, shape) if owns else entries
    order = len(shape)

    def updater(n: int, factors: list[np.ndarray]) -> np.ndarray:
        rest = rest_modes(order, n)
        k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
        ensure_budget(
            shape[n] * k_cols * 8, mem_budget, f"dense Y_({n}) matricization"
        )
        # Identity projection: collect the raw Y rows to the driver.
        collected = _materialized_pass(
            mpt.view(n), factors, n, order, np.eye(k_cols)
        )
        y = assemble_factor(collected, shape[n], k_cols)
        u, _, _ = np.linalg.svd(y, full_matrices=False)
        out = u[:, : ranks[n]]
        if out.shape[1] < ranks[n]:  # K < J_n: pad with zero columns
            out = np.pad(out, ((0, 0), (0, ranks[n] - out.shape[1])))
        return out

    try:
        return hooi_family_loop(
            spark, mpt, shape, ranks, updater, max_iters, tol, seed
        )
    finally:
        if owns:
            mpt.unpersist()
