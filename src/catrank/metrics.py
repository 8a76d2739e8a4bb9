"""Distance functions between feature rows.

Conventions, uniform across the package:
  * smaller value means closer, for every metric;
  * cosine is returned as ``1 - similarity`` and clipped into [0, 2];
  * ``kl(x, y)`` computes the query-first divergence KL(x || y) with an
    epsilon floor on the second argument only (first-argument zeros
    contribute 0); it is the one asymmetric metric;
  * js uses the natural logarithm and needs no smoothing because a zero
    mixture component forces both inputs to zero there;
  * kl and js accept distribution rows only.
"""

from __future__ import annotations

import math

import numpy as np

from .data_model import DISTRIBUTION_ONLY_METRICS, METRICS, FeatureMatrix

KL_EPS = 1e-10
LN2 = math.log(2.0)


def xlogx(v: np.ndarray) -> np.ndarray:
    """v log v elementwise, 0 where v is 0 (scipy's ``xlogy(v, v)`` up to
    the last bit of numpy's log); the log skips the zeros."""
    out = np.zeros_like(v)
    np.log(v, out=out, where=v != 0)
    return np.multiply(v, out, out=out)


def check_metric(metric: str, features: FeatureMatrix | None = None):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if (features is not None and metric in DISTRIBUTION_ONLY_METRICS
            and features.kind != "distribution"):
        raise ValueError(f"metric {metric!r} requires distribution features")


def distance(metric: str, x, y) -> float:
    """Distance between two vectors under the named metric."""
    check_metric(metric)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if metric == "l1":
        return float(np.abs(x - y).sum())
    if metric == "l2":
        return float(np.sqrt(((x - y) ** 2).sum()))
    if metric == "cosine":
        nx = np.sqrt((x * x).sum())
        ny = np.sqrt((y * y).sum())
        if nx == 0.0 or ny == 0.0:
            raise ValueError("cosine distance is undefined for a zero vector")
        return float(np.clip(1.0 - (x @ y) / (nx * ny), 0.0, 2.0))
    if metric == "kl":
        return float(xlogx(x).sum() - (x * np.log(np.maximum(y, KL_EPS))).sum())
    # js
    m = 0.5 * (x + y)
    v = 0.5 * xlogx(x).sum() + 0.5 * xlogx(y).sum() - xlogx(m).sum()
    return float(np.clip(v, 0.0, LN2))


def prepare(metric: str, rows: np.ndarray) -> dict:
    """Precompute per-row data shared by the blocked kernels below."""
    prep: dict = {}
    if metric == "cosine":
        norms = np.sqrt((rows * rows).sum(axis=1))
        if np.any(norms == 0.0):
            bad = int(np.argmax(norms == 0.0))
            raise ValueError(f"cosine distance is undefined for zero vector at row {bad}")
        prep["unit"] = rows / norms[:, None]
    elif metric == "kl":
        prep["log_floor"] = np.log(np.maximum(rows, KL_EPS))
        prep["neg_entropy"] = xlogx(rows).sum(axis=1)
    elif metric == "js":
        prep["neg_entropy"] = xlogx(rows).sum(axis=1)
    return prep


# metrics whose ``block`` is a GEMM; l1, l2 and js broadcast instead
GEMM_METRICS = ("cosine", "kl")


def block_width(metric: str, dim: int) -> int:
    """Elements per (query, row) pair in the largest temporary of ``block``:
    l1, l2 and js broadcast a (q, n, dim) array; for the GEMMs it is the
    (q, n) output."""
    return 1 if metric in GEMM_METRICS else dim


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` through GEMM for any number of rows of ``a``. numpy hands a
    one-row product to GEMV, whose sums can differ from GEMM's in the last
    bit, so a query's distances would depend on whether its block had one row."""
    if len(a) == 1:
        return (np.repeat(a, 2, axis=0) @ b.T)[:1]
    return a @ b.T


def _broadcast(metric: str, rows: np.ndarray, i, j, h: np.ndarray | None) -> np.ndarray:
    """l1, l2 or js between the row stacks ``rows[i]`` and ``rows[j]``, which
    broadcast against each other; ``h`` holds the rows' negative entropies
    (js only). ``block`` and ``pair_distances`` both evaluate these metrics
    here, so a pair gets the same bytes from either."""
    x, y = rows[i], rows[j]
    if metric == "l1":
        return np.abs(x - y).sum(axis=-1)
    if metric == "l2":
        d = x - y
        return np.sqrt((d * d).sum(axis=-1))
    m = 0.5 * (x + y)
    return np.clip(0.5 * h[i] + 0.5 * h[j] - xlogx(m).sum(axis=-1), 0.0, LN2)


def block(metric: str, rows: np.ndarray, q: slice | np.ndarray, prep: dict,
          start: int = 0) -> np.ndarray:
    """Distances from ``rows[q]`` to ``rows[start:]``, as a (len(q), n - start)
    matrix.

    l1, l2 and js are symmetric bit for bit: each (i, j) value is computed
    with the same operations in the same order as (j, i), so a block over the
    columns from ``start`` on holds the same bytes as the transposed block
    from the other side. Cosine (GEMM sums, see ``_gemm``) and kl
    (asymmetric) are not, and their callers take full rows."""
    if metric == "cosine":
        unit = prep["unit"]
        return np.clip(1.0 - _gemm(unit[q], unit[start:]), 0.0, 2.0)
    if metric == "kl":
        return prep["neg_entropy"][q][:, None] - _gemm(rows[q], prep["log_floor"][start:])
    return _broadcast(metric, rows, (q, None), (None, slice(start, None)),
                      prep.get("neg_entropy"))


def pair_distances(metric: str, rows: np.ndarray, i: np.ndarray, j: np.ndarray,
                   prep: dict) -> np.ndarray:
    """Elementwise distances between ``rows[i[t]]`` and ``rows[j[t]]``."""
    if metric == "cosine":
        unit = prep["unit"]
        return np.clip(1.0 - (unit[i] * unit[j]).sum(axis=1), 0.0, 2.0)
    if metric == "kl":
        return prep["neg_entropy"][i] - (rows[i] * prep["log_floor"][j]).sum(axis=1)
    return _broadcast(metric, rows, i, j, prep.get("neg_entropy"))
