"""Evaluation metrics: reconstruction error (Eq. 6), fit, and test RMSE.

The paper evaluates with (a) reconstruction error over the training
(observed) entries and (b) RMSE over a held-out 10% of the observed
entries, predicted via Eq. 5. These are the NumPy (driver) paths; the
distributed Eq. 6 is ``ptucker.spark_sse``.
"""
from __future__ import annotations

import numpy as np

from repro.core import delta as delta_mod
from repro.tensor.coo import CooTensor


def predict(core: np.ndarray, factors: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Eq. 5 predictions for arbitrary (possibly unobserved) indices."""
    return delta_mod.predictions(core, factors, idx)


def reconstruction_error(
    tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]
) -> float:
    """Eq. 6: sqrt of the sum of squared residuals over observed entries."""
    pred = predict(core, factors, tensor.idx)
    r = tensor.vals - pred
    return float(np.sqrt(np.dot(r, r)))


def fit(tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]) -> float:
    """fit = 1 − ‖X − X'‖ / ‖X‖ over observed entries (Section IV-C)."""
    return 1.0 - reconstruction_error(tensor, core, factors) / tensor.norm()


def rmse(tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]) -> float:
    """Root-mean-square error of Eq. 5 predictions on ``tensor``'s entries."""
    pred = predict(core, factors, tensor.idx)
    r = tensor.vals - pred
    return float(np.sqrt(np.mean(r * r)))
