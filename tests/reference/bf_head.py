"""The row-wise softmax → arg-max → max head the BF network's column-wise head replaces."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import nn


def softmax_flip_head(
    logits: np.ndarray, confidence_threshold: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Flips in ``{-1, 0, +1}`` and their softmax confidence from ``(P, 3)`` logits."""
    probabilities = nn.functional.softmax(logits, axis=1)
    flips = np.argmax(probabilities, axis=1) - 1
    confidence = probabilities.max(axis=1)
    if confidence_threshold > 0.0:
        flips = np.where(confidence >= confidence_threshold, flips, 0)
    return flips.astype(np.int64), confidence
