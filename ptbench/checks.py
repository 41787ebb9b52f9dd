"""Correctness checks on what the program returns.

``check_model`` runs on every timed solve; ``oracle_check`` runs once per
invocation on a miniature of the workload, outside the timed region.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import ptucker, reference
from repro.core.config import PTuckerConfig
from repro.core.metrics import reconstruction_error

ORTHO_TOL = 1e-8
ERROR_GAP_TOL = 1e-9
ORACLE_TOL = 1e-10


@dataclass
class ModelCheck:
    """Outcome of :func:`check_model`; ``problems`` is empty when it passed."""

    error: float
    error_gap: float
    ortho_err: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_model(result, train) -> ModelCheck:
    """Check the returned model against its own claims.

    * factors and core are finite;
    * every QR'd factor is orthonormal, ‖QᵀQ − I‖_F < 1e-8;
    * the training error recomputed from the returned model equals
      ``result.errors[-1]`` to 1e-9 relative (the gap is reported).
    """
    problems = []
    arrays = [*result.factors, result.core]
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append("non-finite factor or core")
    ortho = max(
        float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
        for q in result.factors
    )
    if not ortho < ORTHO_TOL:
        problems.append(f"factor not orthonormal: |Q'Q-I|={ortho:.3e}")
    err = reconstruction_error(train, result.core, result.factors)
    claimed = result.errors[-1]
    gap = abs(err - claimed) / abs(claimed) if claimed else abs(err)
    if not gap <= ERROR_GAP_TOL:
        problems.append(
            f"returned model's training error {err:.10g} != "
            f"errors[-1] {claimed:.10g} (relative gap {gap:.3e})"
        )
    return ModelCheck(err, gap, ortho, problems)


def oracle_check(spark, workload, seed: int, partitions: int) -> list[str]:
    """Spark engine vs ``core.reference`` on a seeded miniature.

    Returns the problems found; empty when ``errors`` agree to 1e-10
    relative at every iteration.
    """
    mini = workload.generate(seed, mini=True)
    cfg = PTuckerConfig(
        ranks=workload.ranks,
        max_iters=workload.mini_iters,
        tol=0.0,
        variant=workload.variant,
        partitions=partitions,
        seed=seed,
    )
    got = ptucker.factorize(spark, mini.to_spark(spark), mini.shape, cfg).errors
    want = reference.factorize(mini, cfg).errors
    if len(got) != len(want):
        return [f"oracle: {len(got)} iterations vs reference {len(want)}"]
    rel = max(abs(g - w) / abs(w) for g, w in zip(got, want))
    if not rel <= ORACLE_TOL:
        return [f"oracle: errors differ from reference by {rel:.3e} relative"]
    return []
