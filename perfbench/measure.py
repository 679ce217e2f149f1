"""Order statistics for the benchmark's timing samples, and the reference
kernel that tracks the host's speed during a run."""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

#: A tail percentile is only reported as meaningful with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = np.percentile(values, q)
    return sum(1 for value in values if value > cut)


def min_samples_for_tail(q: float, beyond: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``beyond`` distinct samples above the
    ``q``-th percentile."""
    return math.ceil(beyond * 100.0 / (100.0 - q))


class ReferenceKernel:
    """A fixed numpy computation, independent of the program under test.

    On a shared host the speed of the whole machine drifts by tens of
    percent over tens of seconds; the time of this kernel, sampled through a
    run, drifts with it.  Dividing a run's timings by the kernel's median
    time removes most of the drift and leaves the program's own cost.  The
    kernel is one im2col convolution layer written in plain numpy — a
    strided-window copy of a few megabytes, a GEMM, a bias and a ReLU — so
    it feels cache and memory-bandwidth contention the way the workloads do,
    plus a loop of small dictionary updates for the interpreter-bound part
    (bookkeeping, SQLite calls) of the fleet workload.
    """

    REPEATS = 4
    DTYPE = np.float32  # repro-lint: disable=dtype-discipline -- the reference must not follow the program's compute dtype

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.inputs = rng.standard_normal((40, 18, 129), dtype=self.DTYPE)
        self.weights = rng.standard_normal((18 * 5, 18), dtype=self.DTYPE)
        self.bias = rng.standard_normal(18, dtype=self.DTYPE)

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            windows = np.lib.stride_tricks.sliding_window_view(self.inputs, 5, axis=2)
            columns = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(-1, 18 * 5)
            np.maximum(columns @ self.weights + self.bias, 0.0).mean(axis=0)
            table: dict = {}
            for key in range(3000):
                table[key % 97] = table.get(key % 97, 0) + key
        return time.perf_counter() - start
