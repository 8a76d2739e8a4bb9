"""Close-neighbor relations: exact k-nearest by count, or within-distance-D.

Both strategies produce a directed NeighborSet in CSR layout. Lists are
sorted by (distance, index); ties at equal distance resolve to the lower
entity index so reruns are reproducible. Pair distances are counted
directed throughout, matching the asymmetry of the count strategy.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data_model import FeatureMatrix, open_text, read_json_object
from .errors import DataError

logger = logging.getLogger(__name__)

DEFAULT_EXACT_LIMIT = 20_000
DEFAULT_SAMPLE_PAIRS = 10_000_000
# Keeps each query-chunk distance block around tens of MB.
_BLOCK_ELEMENTS = 4_000_000


@dataclass
class NeighborSet:
    """Directed close-neighbor lists with distances, CSR layout."""

    indptr: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.distances[lo:hi]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for v in range(self.n):
                idx, dist = self.neighbors(v)
                cells = ",".join(f"{i}:{repr(d)}" for i, d in zip(idx.tolist(), dist.tolist()))
                f.write(f"{v}\t{cells}\n")
        with open(path + ".meta.json", "w", encoding="utf-8") as f:
            json.dump(self.meta | {"n": self.n}, f, separators=(",", ":"), sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "NeighborSet":
        meta = {}
        if os.path.exists(path + ".meta.json"):
            meta = read_json_object(path + ".meta.json")
        per_row: list[tuple[list[int], list[float]]] = []
        linenos: list[int] = []
        with open_text(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                ent, _, rest = line.partition("\t")
                try:
                    v = int(ent)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad entity index {ent!r}") from None
                if v != len(per_row):
                    raise DataError(f"{path}:{lineno}: entities out of order")
                ids: list[int] = []
                ds: list[float] = []
                if rest:
                    for cell in rest.split(","):
                        i, _, d = cell.partition(":")
                        try:
                            ids.append(int(i))
                            ds.append(float(d))
                        except ValueError:
                            raise DataError(f"{path}:{lineno}: bad cell {cell!r}") from None
                per_row.append((ids, ds))
                linenos.append(lineno)
        n = len(per_row)
        degrees = np.fromiter((len(ids) for ids, _ in per_row), dtype=np.int64, count=n)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        indices = np.array([i for ids, _ in per_row for i in ids], dtype=np.int64)
        distances = np.array([d for _, ds in per_row for d in ds], dtype=np.float64)
        owner = np.repeat(np.arange(n), degrees)
        for bad, why in (((indices < 0) | (indices >= n), f"outside [0, {n})"),
                         (indices == owner, "is the entity itself")):
            if bad.any():
                at = int(bad.argmax())
                raise DataError(f"{path}:{linenos[owner[at]]}: neighbor index "
                                f"{int(indices[at])} {why}")
        return cls(indptr=indptr, indices=indices, distances=distances, meta=meta)


def _query_chunks(n: int, workers: int):
    rows = max(1, min(n, _BLOCK_ELEMENTS // n))
    if workers > 1:
        rows = max(1, min(rows, math.ceil(n / (workers * 4))))
    return [range(s, min(s + rows, n)) for s in range(0, n, rows)]


def _run_chunks(fn, chunks, workers: int):
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _assemble(n: int, rows_idx: list[np.ndarray], rows_dist: list[np.ndarray],
              meta: dict) -> NeighborSet:
    degrees = np.fromiter(map(len, rows_idx), dtype=np.int64, count=n)
    return NeighborSet(
        indptr=np.concatenate(([0], np.cumsum(degrees))),
        indices=np.concatenate(rows_idx) if n else np.zeros(0, np.int64),
        distances=np.concatenate(rows_dist) if n else np.zeros(0, np.float64),
        meta=meta,
    )


def knn_by_count(features: FeatureMatrix, metric: str, k: int, workers: int = 1) -> NeighborSet:
    """Exact k nearest neighbors per entity under the metric.

    ``k >= n`` clamps every list to the n-1 other entities, with a warning.
    """
    metrics.check_metric(metric, features)
    n = features.n_entities
    if n < 2:
        raise ValueError("k nearest neighbors needs at least 2 entities")
    if k < 1:
        raise ValueError("k must be at least 1")
    clamped = False
    if k >= n:
        logger.warning("k=%d >= n=%d, clamping lists to %d neighbors", k, n, n - 1)
        clamped = True
        k = n - 1

    rows = features.rows
    prep = metrics.prepare(metric, rows)
    out_idx: list[np.ndarray | None] = [None] * n
    out_dist: list[np.ndarray | None] = [None] * n

    def work(chunk):
        d = metrics.block(metric, rows, np.asarray(chunk), prep)
        for local, v in enumerate(chunk):
            row = d[local].copy()
            row[v] = np.inf
            # stable sort on distance leaves equal distances in index order
            order = np.argsort(row, kind="stable")[:k]
            out_idx[v] = order.astype(np.int64)
            out_dist[v] = row[order]

    _run_chunks(work, _query_chunks(n, workers), workers)
    meta = {"metric": metric, "strategy": "count", "k": k, "clamped": clamped,
            "pairs": "directed"}
    return _assemble(n, out_idx, out_dist, meta)


def neighbors_by_distance(features: FeatureMatrix, metric: str, d: float,
                          workers: int = 1) -> NeighborSet:
    """All other entities within distance <= d; symmetric by construction."""
    metrics.check_metric(metric, features)
    if not d >= 0:  # also rejects NaN
        raise ValueError("distance threshold must be nonnegative")
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)
    out_idx: list[np.ndarray | None] = [None] * n
    out_dist: list[np.ndarray | None] = [None] * n

    def work(chunk):
        dm = metrics.block(metric, rows, np.asarray(chunk), prep)
        for local, v in enumerate(chunk):
            row = dm[local]
            within = row <= d
            within[v] = False
            cols = np.flatnonzero(within)
            order = cols[np.argsort(row[cols], kind="stable")]
            out_idx[v] = order.astype(np.int64)
            out_dist[v] = row[order]

    _run_chunks(work, _query_chunks(n, workers), workers)
    meta = {"metric": metric, "strategy": "distance", "d": d, "pairs": "directed"}
    return _assemble(n, out_idx, out_dist, meta)


def _directed_pair_pool_exact(features: FeatureMatrix, metric: str, workers: int) -> np.ndarray:
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)

    def work(chunk):
        c = np.asarray(chunk)
        d = metrics.block(metric, rows, c, prep)
        keep = np.ones(d.shape, dtype=bool)
        keep[np.arange(len(c)), c] = False
        return d[keep]

    parts = _run_chunks(work, _query_chunks(n, workers), workers)
    pool = np.concatenate(parts)
    pool.sort()
    return pool


def _directed_pair_pool_sampled(features: FeatureMatrix, metric: str, sample_pairs: int,
                                seed: int) -> np.ndarray:
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)
    rng = np.random.default_rng([seed, 0x7A1])
    parts = []
    chunk = max(1, min(sample_pairs, _BLOCK_ELEMENTS // max(1, features.dim)))
    remaining = sample_pairs
    while remaining > 0:
        s = min(chunk, remaining)
        i = rng.integers(0, n, size=s)
        # offset in [1, n-1] keeps j uniform over the other entities
        j = (i + rng.integers(1, n, size=s)) % n
        parts.append(metrics.pair_distances(metric, rows, i, j, prep))
        remaining -= s
    pool = np.concatenate(parts)
    pool.sort()
    return pool


def calibrate_thresholds(features: FeatureMatrix, metric: str, targets,
                         exact_limit: int = DEFAULT_EXACT_LIMIT,
                         sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                         seed: int = 0, workers: int = 1) -> list[float]:
    """Distance thresholds hitting each target average neighbor count.

    For ``n <= exact_limit`` all n(n-1) directed pair distances are sorted and
    the ceil(target * n)-th smallest returned; above that the same quantile is
    estimated from ``sample_pairs`` uniformly sampled directed pairs. Sharing
    one sorted pool across targets makes the results monotone in the target.
    """
    metrics.check_metric(metric, features)
    n = features.n_entities
    targets = list(targets)
    if not targets:
        raise ValueError("no calibration targets given")
    for t in targets:
        if t <= 0:
            raise ValueError("target average neighbor count must be positive")
        if t >= n - 1:
            raise ValueError(f"target {t} must be below n-1 = {n - 1}")

    exact = n <= exact_limit
    if exact:
        pool = _directed_pair_pool_exact(features, metric, workers)
        ranks = [math.ceil(t * n) for t in targets]
    else:
        pool = _directed_pair_pool_sampled(features, metric, sample_pairs, seed)
        total = n * (n - 1)
        ranks = [math.ceil(t * n / total * len(pool)) for t in targets]
    return [float(pool[max(0, r - 1)]) for r in ranks]


def calibrate_threshold(features: FeatureMatrix, metric: str, k_target: float,
                        exact_limit: int = DEFAULT_EXACT_LIMIT,
                        sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                        seed: int = 0, workers: int = 1) -> float:
    return calibrate_thresholds(
        features, metric, [k_target],
        exact_limit=exact_limit, sample_pairs=sample_pairs, seed=seed, workers=workers,
    )[0]


def _keep_entries(nbrs: NeighborSet, keep: np.ndarray, meta: dict) -> NeighborSet:
    """The entries where ``keep`` holds, each row keeping its order."""
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return NeighborSet(indptr=kept_before[nbrs.indptr], indices=nbrs.indices[keep],
                       distances=nbrs.distances[keep], meta=meta)


def slice_knn(nbrs: NeighborSet, k: int) -> NeighborSet:
    """Restrict count-strategy lists to their first k entries (lists are
    sorted by (distance, index), so the prefix is the exact smaller-k result)."""
    position = np.arange(len(nbrs.indices)) - np.repeat(nbrs.indptr[:-1], nbrs.out_degrees())
    return _keep_entries(nbrs, position < k, dict(nbrs.meta, k=k))


def filter_by_distance(nbrs: NeighborSet, d: float) -> NeighborSet:
    """Restrict distance-strategy lists to entries with distance <= d."""
    return _keep_entries(nbrs, nbrs.distances <= d, dict(nbrs.meta, d=d))
