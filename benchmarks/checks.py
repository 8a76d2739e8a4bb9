"""Operation ledger and output checks feeding ``attempted`` / ``failed``.

Every stage call the benchmark makes and every output check it runs is one
attempted operation, counted against the layer that produced the output.
A stage call that raises, or a check that does not hold, is one failed
operation. ``failed / attempted`` is the run's error rate.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class StageError(RuntimeError):
    """A stage call raised; the pass cannot continue."""


class Ledger:
    def __init__(self):
        self.attempted: Counter = Counter()
        self.errors: Counter = Counter()
        self.messages: list[str] = []

    def call(self, layer: str, fn, *args, **kwargs):
        self.attempted[layer] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failing stage is reported, not fatal to the run
            self.errors[layer] += 1
            self.messages.append(f"{layer}: {getattr(fn, '__name__', fn)} raised {e!r}")
            raise StageError(str(e)) from e

    def check(self, layer: str, ok, what: str) -> bool:
        self.attempted[layer] += 1
        if not ok:
            self.errors[layer] += 1
            self.messages.append(f"{layer}: check failed: {what}")
        return bool(ok)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.errors.values())


def is_permutation(order, expected) -> bool:
    order = list(order)
    return len(order) == len(set(order)) and set(order) == set(expected)


def scores_in_range(scores) -> bool:
    """Conductance lies in [0, 1] (or is undefined) and log surprise is <= 0."""
    for s in scores:
        if s.conductance is not None and not 0.0 <= s.conductance <= 1.0:
            return False
        if not s.log_surprise <= 0.0:
            return False
    return True


def count_lists_ok(nbrs, k: int) -> bool:
    """Exactly k entries per row, no self entry, sorted by (distance, index)."""
    deg = np.diff(nbrs.indptr)
    if not np.all(deg == k):
        return False
    rows = np.repeat(np.arange(nbrs.n), deg)
    if np.any(nbrs.indices == rows):
        return False
    same_row = rows[1:] == rows[:-1]
    d0, d1 = nbrs.distances[:-1], nbrs.distances[1:]
    i0, i1 = nbrs.indices[:-1], nbrs.indices[1:]
    ordered = (d0 < d1) | ((d0 == d1) & (i0 < i1))
    return bool(np.all(ordered[same_row]))


def naive_rows_ok(distance, metric: str, rows: np.ndarray, nbrs, sample) -> bool:
    """Sampled rows hold a true k-nearest set under a naive full scan.

    ``distance`` is the package's scalar ``metrics.distance``. The k smallest
    naive distances must equal the naive distances of the returned
    neighbors, and the stored distances must agree with them; this accepts
    ties broken either way by last-bit rounding and nothing else.
    """
    n = rows.shape[0]
    for v in sample:
        idx, stored = nbrs.neighbors(int(v))
        k = len(idx)
        naive = np.array([distance(metric, rows[v], rows[u]) if u != v else math.inf
                          for u in range(n)])
        best = np.sort(naive)[:k]
        got = naive[idx]
        if not (np.allclose(np.sort(got), best, rtol=1e-9, atol=1e-12)
                and np.allclose(stored, got, rtol=1e-9, atol=1e-12)):
            return False
    return True


def calibration_ok(n: int, targets, thresholds, widest) -> bool:
    """Each threshold's achieved mean out-degree is at least its target."""
    for t, d in zip(targets, thresholds):
        if int(np.count_nonzero(widest.distances <= d)) / n < t:
            return False
    return True
