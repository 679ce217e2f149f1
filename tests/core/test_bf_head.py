"""The BF network's column-wise flip head against the row-wise softmax oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from reference.bf_head import softmax_flip_head
from repro import runtime
from repro.core.bitflip import NUM_FEATURES, BitFlipNetwork

DTYPES = (np.float32, np.float64)
THRESHOLDS = (0.0, 0.6)


class _LogitsNetwork(BitFlipNetwork):
    """A BF network whose forward returns its input, so a test chooses the logits."""

    def forward(self, features: np.ndarray) -> np.ndarray:
        return runtime.asarray(features)


def _assert_same_head(actual, expected, dtype):
    """Flips equal; confidence bit-equal wherever the oracle's is a number.

    Where the oracle's confidence is NaN the head's must be NaN too, but
    the sign bit may differ: the oracle's ``max(axis=1)`` reduction returns
    NumPy's canonical positive NaN at float64, while the elementwise
    ``maximum`` keeps its operand's NaN (negative for ``inf - inf``).
    Nothing downstream reads the sign of a NaN.
    """
    flips, confidence = actual
    expected_flips, expected_confidence = expected
    assert flips.dtype == np.int64
    np.testing.assert_array_equal(flips, expected_flips)
    assert confidence.dtype == dtype
    nan = np.isnan(expected_confidence)
    np.testing.assert_array_equal(np.isnan(confidence), nan)
    assert confidence[~nan].tobytes() == expected_confidence[~nan].tobytes()


def _check_logits(logits, dtype, threshold):
    with runtime.use_dtype(dtype), np.errstate(invalid="ignore"):
        logits = runtime.asarray(logits)
        actual = _LogitsNetwork().predict_flips_with_confidence(
            logits, confidence_threshold=threshold
        )
        expected = softmax_flip_head(logits, confidence_threshold=threshold)
        _assert_same_head(actual, expected, dtype)
    return expected


def _tie_rows(dtype):
    """Exact ties in every column pair and in all three, and one-ulp near-ties."""
    rows = []
    for top, low in ((0.5, -1.0), (-3.0, -7.5), (40.0, 39.0)):
        for i, j in itertools.combinations(range(3), 2):
            row = [low] * 3
            row[i] = row[j] = top
            rows.append(row)
        rows.append([top] * 3)
    for base in (dtype(0.25), dtype(-2.0), dtype(1e-7)):
        for direction in (np.inf, -np.inf):
            near = np.nextafter(base, dtype(direction))
            for i, j in itertools.permutations(range(3), 2):
                row = [base - dtype(1.0)] * 3
                row[i], row[j] = base, near
                rows.append(row)
    return np.asarray(rows, dtype=dtype)


def _nonfinite_rows():
    """NaN, +inf or -inf in each column, all-(-inf), all-(+inf), and zero rows."""
    rows = []
    for value in (np.nan, np.inf, -np.inf):
        for column in range(3):
            row = [0.3, -1.2, 2.0]
            row[column] = value
            rows.append(row)
    rows += [
        [-np.inf] * 3, [np.inf] * 3, [np.nan] * 3,
        [np.inf, -np.inf, np.nan], [np.inf, np.inf, 1.0],
        [-np.inf, -np.inf, 1.0], [0.0] * 3, [-0.0, 0.0, -0.0],
    ]
    return np.asarray(rows)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("threshold", THRESHOLDS)
class TestColumnwiseHead:
    @pytest.mark.parametrize("scale", [1e-7, 1e-3, 1.0, 10.0, 100.0])
    def test_random_logits(self, dtype, threshold, scale):
        logits = np.random.default_rng(0).normal(size=(4000, 3)) * scale
        expected = _check_logits(logits, dtype, threshold)
        if threshold == 0.0:
            assert set(np.unique(expected[0])) == {-1, 0, 1}

    def test_ties_and_near_ties(self, dtype, threshold):
        expected = _check_logits(_tie_rows(dtype), dtype, threshold)
        if threshold == 0.0:
            # Exact two-way ties resolve to the first of the tied columns.
            np.testing.assert_array_equal(expected[0][:3], [-1, -1, 0])

    def test_nonfinite_and_zero_rows(self, dtype, threshold):
        expected = _check_logits(_nonfinite_rows(), dtype, threshold)
        assert np.isnan(expected[1]).any() and np.isfinite(expected[1]).any()

    def test_empty(self, dtype, threshold):
        _check_logits(np.zeros((0, 3)), dtype, threshold)

    def test_network_forward(self, dtype, threshold):
        """The real forward: a random and a quantized BF network on random features."""
        rng = np.random.default_rng(7)
        with runtime.use_dtype(dtype):
            for network in (
                BitFlipNetwork(rng=rng),
                BitFlipNetwork(rng=rng).quantize_(4),
            ):
                features = rng.normal(size=(3000, NUM_FEATURES)) * 3.0
                actual = network.predict_flips_with_confidence(features, threshold)
                expected = softmax_flip_head(network.forward(features), threshold)
                _assert_same_head(actual, expected, dtype)
