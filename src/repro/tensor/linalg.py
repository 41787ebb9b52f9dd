"""Small dense linear-algebra helpers shared by the engines.

The sizes here are always tiny (J × J systems, I_n × J_n QR), so NumPy on
the driver is the right tool; the heavy, |Omega|-proportional work lives in
the partitioned kernels.
"""
from __future__ import annotations

import numpy as np


def solve_rows_batched(
    b_mats: np.ndarray, c_vecs: np.ndarray, lam: float
) -> np.ndarray:
    """Closed-form row updates (Eq. 10) for R rows: c · (B + λI)^{-1}.

    b_mats (R,J,J), c_vecs (R,J) -> (R,J). ``B + λI`` is symmetric
    positive-definite for λ>0 (Theorem 1), so a direct solve of the
    transposed system is exact and cheaper than an explicit inverse:
    row = solve(B + λI, c) by symmetry.
    """
    j = b_mats.shape[-1]
    lhs = b_mats + lam * np.eye(j)[None, :, :]
    return np.linalg.solve(lhs, c_vecs[..., None])[..., 0]


def qr_orthogonalize(
    factors: list[np.ndarray], core: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Final orthogonalization step of Algorithm 2 lines 8-11.

    Each A^(n) = Q^(n) R^(n); A^(n) <- Q^(n) and G <- G ×_n R^(n) (Eq. 8-9),
    which leaves the reconstruction G ×_1 A^(1) ... unchanged.
    """
    from repro.tensor.ops import mode_n_product

    new_factors: list[np.ndarray] = []
    new_core = core
    for n, a in enumerate(factors):
        q, r = np.linalg.qr(a)
        new_factors.append(q)
        new_core = mode_n_product(new_core, r, n)
    return new_factors, new_core


def init_factors(
    shape: tuple[int, ...], ranks: tuple[int, ...], seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Random-uniform(0,1) initialization of factors and core (Alg. 2 line 1)."""
    if len(shape) != len(ranks):
        raise ValueError("shape and ranks must have the same order")
    g = np.random.default_rng(seed)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    return factors, core
