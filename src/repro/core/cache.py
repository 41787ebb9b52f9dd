"""Analytic memory sizes behind P-Tucker-Cache's trade-off (Fig. 8).

The cache variant itself runs in :func:`repro.core.ptucker.factorize`.
"""
from __future__ import annotations

import numpy as np

# Bound here only so ptbench's Tracer, which wraps these names on this
# module as well as on ptucker, finds them; nothing in this module uses them.
from repro.core.ptucker import assemble_factor, qr_orthogonalize, spark_sse  # noqa: F401


def pres_bytes(nnz: int, ranks: tuple[int, ...]) -> int:
    """Analytic size of the Pres table: |Ω| · |G| · 8 bytes (Theorem 6)."""
    return int(nnz) * int(np.prod(ranks)) * 8


def default_intermediate_bytes(threads: int, max_rank: int) -> int:
    """Analytic intermediate data of default P-Tucker: O(T·J²) (Theorem 4)."""
    return threads * (2 * max_rank * max_rank + 2 * max_rank) * 8
