"""The k-pass BatchNorm refresh the edge calibrator's one-forward replay replaces."""

from __future__ import annotations

import numpy as np

from repro.quantization.qmodel import QuantizedModel


def refresh_batchnorm_k_passes(
    qmodel: QuantizedModel, features: np.ndarray, passes: int
) -> None:
    """Refresh BatchNorm running statistics with ``passes`` training-mode forwards."""
    qmodel.sync()
    qmodel.model.train()
    for _ in range(passes):
        qmodel.model.forward(features)
    qmodel.model.eval()
