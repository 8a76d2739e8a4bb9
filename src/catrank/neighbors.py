"""Close-neighbor relations: exact k-nearest by count, or within-distance-D.

Both strategies produce a directed NeighborSet in CSR layout. Lists are
sorted by (distance, index); ties at equal distance resolve to the lower
entity index so reruns are reproducible. Pair distances are counted
directed throughout, matching the asymmetry of the count strategy.

Distances come in blocks of query rows. Under l1, l2 and js, whose
distances are the same bytes from either side, a block is a strip from the
chunk's first row on, so kNN, exact calibration and distance lists each
compute every unordered pair once; cosine and kl blocks span full rows.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics
from .data_model import CSR, FeatureMatrix, open_text, read_json_object, write_json
from .errors import DataError

logger = logging.getLogger(__name__)

DEFAULT_EXACT_LIMIT = 20_000
DEFAULT_SAMPLE_PAIRS = 10_000_000
# Elements in the largest float64 temporary of one distance block: query
# rows x n x metrics.block_width. The broadcasting kernels (l1, l2, js) get
# 4 MB, which stays in cache. A GEMM block (cosine, kl) reads the whole
# n x dim operand once, so fewer rows per block would mean more passes over
# it; those keep 32 MB.
_BLOCK_ELEMENTS = 2**19
_GEMM_BLOCK_ELEMENTS = 4_000_000
# Sampled calibration draws its pairs in batches of this many elements // dim.
# The batch size fixes which pairs a seed draws, so it stays apart from the
# block budget, which only sets how many of them one kernel call takes.
_SAMPLE_BATCH_ELEMENTS = 4_000_000
# A neighbor list loads in blocks of whole lines of about this many
# characters, so the text and its parsing temporaries never exist for the
# whole file at once.
_TEXT_BLOCK_CHARS = 2**20


@dataclass
class NeighborSet(CSR):
    """Directed close-neighbor lists: rows of neighbor ids, each with the
    distance at the same position of ``distances``."""

    distances: np.ndarray

    @property
    def n(self) -> int:
        return len(self)

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.distances[lo:hi]

    def out_degrees(self) -> np.ndarray:
        return self.lengths()

    def save(self, path: str):
        """The rows as text, and ``<path>.meta.json`` holding the row count
        ``n`` alone; the settings that made the lists are the manifest's."""
        with open(path, "w", encoding="utf-8") as f:
            for v in range(self.n):
                idx, dist = self.neighbors(v)
                cells = ",".join(f"{i}:{repr(d)}" for i, d in zip(idx.tolist(), dist.tolist()))
                f.write(f"{v}\t{cells}\n")
        write_json(path + ".meta.json", {"n": self.n}, compact=True)

    @classmethod
    def load(cls, path: str) -> "NeighborSet":
        """Rows in the grammar ``_parse_rows`` takes. A ``<path>.meta.json``
        sidecar, where present, must agree on ``n``; other keys are ignored."""
        meta = {}
        if os.path.exists(path + ".meta.json"):
            meta = read_json_object(path + ".meta.json")
        degrees, ids, distances, linenos = _parse(path)
        n = len(degrees)
        if "n" in meta and (type(meta["n"]) is not int or meta["n"] != n):
            raise DataError(f"{path}: {n} rows, but {path}.meta.json says n = {meta['n']!r}")
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        # ids are still float64, so an id too long for int64 reads as out of range
        owner = CSR(indptr=indptr, indices=ids).owners()
        bad = (ids >= n) | (ids == owner)
        # a row's repeated id has equal row-major keys; an id past n keys as n
        indices = np.minimum(ids, n).astype(np.int64)
        keys = owner * (n + 1) + indices
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(keys, kind="stable")
            bad[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
        if bad.any():
            at = int(bad.argmax())
            why = (f"outside [0, {n})" if ids[at] >= n else
                   "is the entity itself" if ids[at] == owner[at] else "is repeated")
            raise DataError(f"{path}:{linenos[owner[at]]}: neighbor index {ids[at]:.0f} {why}")
        return cls(indptr=indptr, indices=indices, distances=distances)


def _parse(path: str):
    """Out-degrees, neighbor ids (as float64), distances and the line number
    of each row of a neighbor list, in the format ``_parse_rows`` takes;
    blank lines are skipped. Read in blocks of whole lines of about
    ``_TEXT_BLOCK_CHARS`` characters, each parsed by one ``_parse_rows``
    call. A block that fails is parsed again line by line, and its first bad
    line raises DataError."""
    degrees = [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0)]
    linenos: list[int] = []
    lineno = 0
    with open_text(path) as f:
        while lines := f.readlines(_TEXT_BLOCK_CHARS):
            first = len(linenos)
            rows = []
            for raw in lines:
                lineno += 1
                if line := raw.rstrip("\n"):
                    rows.append(line)
                    linenos.append(lineno)
            block = _parse_rows(rows, first)
            if block is None:
                for v, row in enumerate(rows, first):
                    if _parse_rows([row], v) is None:
                        raise DataError(f"{path}:{linenos[v]}: expected row {v} as "
                                        f"'{v}<TAB>id:distance,...'")
            degrees.append(block[0])
            values.append(block[1])
    values = np.concatenate(values)
    return np.concatenate(degrees), values[0::2], values[1::2].copy(), linenos


def _parse_rows(rows: list[str], first: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Out-degrees and the id, distance, id, distance, ... values of
    ``rows``, numbered from ``first``; None unless each row is its number, a
    TAB and comma-separated ``id:distance`` cells, each id digits only and
    each distance a whole float token over 0-9 . e E + -, or inf."""
    rests = []
    for v, row in enumerate(rows, first):
        ent, tab, rest = row.partition("\t")
        if not tab or ent != str(v):
            return None
        rests.append(rest)
    degrees = np.array([rest.count(":") for rest in rests], dtype=np.int64)
    n_cells = int(degrees.sum())
    cells = ",".join(filter(None, rests)).encode()
    # inf, right after its ':', is the one token with letters; most blocks
    # have none, and a memchr for 'i' is cheaper than the search
    text = cells.replace(b":inf", b":") if b"i" in cells else cells
    if text.translate(None, b"0123456789.eE+-,:"):
        return None
    # With the digits gone, the separators must alternate ':' ',' (one ':'
    # per cell, no cell list that is only ','), and every ':' must follow a
    # ',' or the start, so that each id is digits only.
    skeleton = text.translate(None, b"0123456789")
    if (skeleton.translate(None, b".eE+-") != (b":," * n_cells)[:-1]
            or skeleton.count(b",:") + skeleton.startswith(b":") != n_cells):
        return None
    if not cells:  # loadtxt warns on text without data
        return degrees, np.zeros(0)
    try:
        values = np.loadtxt([cells.replace(b":", b",").decode()], delimiter=",",
                            dtype=np.float64, ndmin=1)
    except ValueError:  # a token that is not a whole number
        return None
    return (degrees, values) if len(values) == 2 * n_cells else None


def _query_chunks(n: int, rows: int):
    """Chunks of at most ``rows`` and at most ceil(n/8) query rows. The cap
    gives threads several chunks each; it does not depend on the worker
    count, so block shapes, and with them the last bit of cosine and kl
    distances, depend only on n, dim and the metric."""
    rows = max(1, min(rows, math.ceil(n / 8)))
    return [np.arange(s, min(s + rows, n)) for s in range(0, n, rows)]


def _run_chunks(fn, chunks, workers: int):
    """``fn`` over the chunks, results yielded in chunk order. Threads take
    the chunks in waves of ``workers``, so no more than one wave of results
    is held before the caller consumes it."""
    if workers <= 1:
        yield from map(fn, chunks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for s in range(0, len(chunks), workers):
            yield from pool.map(fn, chunks[s:s + workers])


def _blocks(features: FeatureMatrix, metric: str, workers: int, fn, strips: bool = False):
    """``fn(chunk, d)`` for each query chunk and its distance block ``d``, a
    writable matrix of distances from the chunk to every row, or with
    ``strips`` to the rows from ``chunk[0]`` on, yielded in chunk order."""
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)
    budget = _GEMM_BLOCK_ELEMENTS if metric in metrics.GEMM_METRICS else _BLOCK_ELEMENTS
    chunks = _query_chunks(n, budget // (n * metrics.block_width(metric, features.dim)))
    return _run_chunks(
        lambda c: fn(c, metrics.block(metric, rows, c, prep, int(c[0]) if strips else 0)),
        chunks, workers)


def _upper(d: np.ndarray) -> np.ndarray:
    """Where a strip from ``_blocks`` holds a pair i < j: the chunk's rows
    start at the strip's first column, so that is above its main diagonal."""
    return np.arange(d.shape[1]) > np.arange(len(d))[:, None]


def _assemble(blocks) -> NeighborSet:
    """A NeighborSet from per-chunk (out-degrees, indices, distances)."""
    degrees, indices, distances = (np.concatenate(part) for part in zip(*blocks))
    return NeighborSet(indptr=np.concatenate(([0], np.cumsum(degrees))),
                       indices=indices, distances=distances)


def _keep_first(dist: np.ndarray, ids: np.ndarray, m: int):
    """The first m entries by (distance, id) of each row of candidates
    ``dist`` with ids ``ids`` (broadcast against ``dist``), whose ids rise
    along each row: the entries ``np.argsort(dist, axis=1, kind="stable")``
    puts first, left in id order.

    One ``np.partition`` finds each row's m-th smallest distance, the cut.
    Every distance below the cut is kept, and the first entries equal to it
    fill the row up to m. Comparisons take -0.0 and 0.0, and inf and inf, as
    equal, as the stable sort does; distances are never NaN (feature rows
    are finite)."""
    ids = np.broadcast_to(ids, dist.shape)
    if dist.shape[1] <= m:
        return dist, ids
    cut = np.partition(dist, m - 1, axis=1)[:, m - 1:m]
    keep = dist < cut
    tied = dist == cut
    need = m - keep.sum(axis=1)
    over = tied.sum(axis=1) > need
    if over.any():
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
    keep |= tied
    return dist[keep].reshape(-1, m), ids[keep].reshape(-1, m)


def _rows(parts, lo: int, hi: int):
    """Rows lo to hi of candidate parts ``(first row, distances, ids)``, each
    holding the rows from its first row on, side by side."""
    return (np.concatenate([p[1][lo - p[0]:hi - p[0]] for p in parts], axis=1),
            np.concatenate([p[2][lo - p[0]:hi - p[0]] for p in parts], axis=1))


def knn_by_count(features: FeatureMatrix, metric: str, k: int, workers: int = 1) -> NeighborSet:
    """Exact k nearest neighbors per entity under the metric.

    ``k >= n`` clamps every list to the n-1 other entities, with a warning.

    Each row keeps the first k + 1 of its candidates by (distance, index),
    found by ``_keep_first`` and then sorted, without the entity itself, or
    without the last where that sorts later. Cosine and kl take full rows.
    l1, l2 and js compute each unordered pair once: a chunk's strip gives
    its own rows their candidates from the chunk on, and its columns past
    the chunk give each later row its candidates among the chunk. Those are
    held per row and cut back to the first k + 1 once more than 2(k + 1)
    are held, so beyond the blocks in flight memory is O(n k) whatever
    ``dim`` is; a row's list is final when its own chunk arrives.
    """
    metrics.check_metric(metric, features)
    n = features.n_entities
    if n < 2:
        raise ValueError("k nearest neighbors needs at least 2 entities")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        logger.warning("k=%d >= n=%d, clamping lists to %d neighbors", k, n, n - 1)
        k = n - 1
    m = k + 1

    def nearest(chunk, dist, ids):
        # sort the first k + 1 by (distance, index), stably so ties keep
        # index order; drop the entity itself, or the last where it sorts later
        dist, ids = _keep_first(dist, ids, m)
        order = np.argsort(dist, axis=1, kind="stable")
        dist, ids = np.take_along_axis(dist, order, 1), np.take_along_axis(ids, order, 1)
        keep = ids != chunk[:, None]
        keep[keep.all(axis=1), k] = False
        return np.full(len(chunk), k), ids[keep], dist[keep]

    if metric in metrics.GEMM_METRICS:
        return _assemble(_blocks(features, metric, workers,
                                 lambda chunk, d: nearest(chunk, d, np.arange(n))))

    def strip(chunk, d):
        own = _keep_first(d, np.arange(chunk[0], n), m)
        return chunk, own, _keep_first(d[:, len(chunk):].T, chunk, m)

    lists = []
    held = []  # (first row, distances, ids) from earlier strips
    for chunk, own, later in _blocks(features, metric, workers, strip, strips=True):
        lo, hi = int(chunk[0]), int(chunk[-1]) + 1
        lists.append(nearest(chunk, *_rows(held + [(lo, *own)], lo, hi)))
        held.append((hi, *later))
        if sum(p[1].shape[1] for p in held) > 2 * m:
            held = [(hi, *_keep_first(*_rows(held, hi, n), m))]
    return _assemble(lists)


def neighbors_by_distance(features: FeatureMatrix, metric: str, d: float,
                          workers: int = 1) -> NeighborSet:
    """All other entities within distance <= d; symmetric by construction.

    Under l1, l2 and js, whose distances are the same bytes from either
    side, each unordered pair is computed once and listed from both sides."""
    metrics.check_metric(metric, features)
    if not d >= 0:  # also rejects NaN
        raise ValueError("distance threshold must be nonnegative")
    n = features.n_entities
    if n < 1:
        raise ValueError("neighbor search needs at least 1 entity")
    symmetric = metric not in metrics.GEMM_METRICS

    def within(chunk, dm):
        near = dm <= d
        if symmetric:
            near &= _upper(dm)
        else:
            near[np.arange(len(chunk)), chunk] = False
        row, col = np.nonzero(near)
        return row + chunk[0], col + (chunk[0] if symmetric else 0), dm[row, col]

    row, col, dist = (np.concatenate(part) for part in
                      zip(*_blocks(features, metric, workers, within, strips=symmetric)))
    if symmetric:
        row, col, dist = np.concatenate((row, col)), np.concatenate((col, row)), np.tile(dist, 2)
    order = np.lexsort((col, dist, row))  # by entity, then (distance, index)
    return _assemble([(np.bincount(row, minlength=n), col[order], dist[order])])


def _pooled(held: list[np.ndarray], r: int) -> np.ndarray:
    """The r smallest values of the arrays in ``held``, unordered. Empties
    ``held`` before selecting, so its arrays can be freed meanwhile."""
    merged = np.concatenate(held)
    held.clear()
    merged.partition(r - 1)
    return merged[:r].copy()


def _smallest(parts, r: int) -> np.ndarray:
    """The r smallest of the values in ``parts`` (1-D arrays), ascending.

    Parts are merged in place with ``np.partition`` whenever more than 2r
    values are held. So between merges at most 2r values plus one part are
    held, and a merge, which copies them once, peaks at twice that.
    """
    held: list[np.ndarray] = []
    size = 0
    for part in parts:
        held.append(part)
        size += len(part)
        if size > 2 * r:
            held = [_pooled(held, r)]
            size = r
    return np.sort(_pooled(held, r))


def _exact_pair_distances(features: FeatureMatrix, metric: str, workers: int):
    """Every directed pair distance, one query chunk at a time; self pairs
    read inf, which sorts after all n(n-1) real pairs."""
    def flat(chunk, d):
        d[np.arange(len(chunk)), chunk] = np.inf
        return d.ravel()

    return _blocks(features, metric, workers, flat)


def _upper_pair_distances(features: FeatureMatrix, metric: str, workers: int):
    """The n(n-1)/2 distances of the pairs i < j, one strip at a time."""
    return _blocks(features, metric, workers, lambda chunk, d: d[_upper(d)], strips=True)


def _sampled_pair_distances(features: FeatureMatrix, metric: str, sample_pairs: int,
                            seed: int):
    """Distances of ``sample_pairs`` uniform directed pairs of distinct entities."""
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)
    rng = np.random.default_rng([seed, 0x7A1])
    dim = max(1, features.dim)
    batch = max(1, min(sample_pairs, _SAMPLE_BATCH_ELEMENTS // dim))
    step = max(1, _BLOCK_ELEMENTS // dim)
    remaining = sample_pairs
    while remaining > 0:
        s = min(batch, remaining)
        i = rng.integers(0, n, size=s)
        # offset in [1, n-1] keeps j uniform over the other entities
        j = (i + rng.integers(1, n, size=s)) % n
        for lo in range(0, s, step):
            yield metrics.pair_distances(metric, rows, i[lo:lo + step], j[lo:lo + step], prep)
        remaining -= s


def calibrate_thresholds(features: FeatureMatrix, metric: str, targets,
                         exact_limit: int = DEFAULT_EXACT_LIMIT,
                         sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                         seed: int = 0, workers: int = 1) -> list[float]:
    """Distance thresholds hitting each target average neighbor count.

    For ``n <= exact_limit`` the threshold for target t is the ceil(t * n)-th
    smallest of all n(n-1) directed pair distances; above that the same
    quantile is estimated from ``sample_pairs`` uniformly sampled directed
    pairs. Pairs are scanned in blocks and only the r smallest distances are
    kept, r being the largest rank asked for, so no pool of all pairs is
    built or sorted. Memory is O(r) plus the blocks in flight: the kept
    values stay below 2r plus one block, and below twice that while a merge
    copies them; the blocks are one wave of ``workers``. Reading
    every target from the one kept prefix makes the results monotone in the
    target.

    The exact scan of l1, l2 and js, whose distances are symmetric bit for
    bit, computes each unordered pair once: every one of those values is
    two directed pairs, so it keeps the ceil(r/2) smallest and reads rank r
    at position ceil(r/2). Cosine and kl scan full rows.
    """
    metrics.check_metric(metric, features)
    n = features.n_entities
    targets = list(targets)
    if not targets:
        raise ValueError("no calibration targets given")
    for t in targets:
        if not 0 < t < n - 1:  # also rejects NaN
            raise ValueError(f"target average neighbor count {t} must be positive and "
                             f"below n-1 = {n - 1}")

    if n > exact_limit:
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be at least 1")
        total = n * (n - 1)
        ranks = [math.ceil(t * n / total * sample_pairs) for t in targets]
        pairs = _sampled_pair_distances(features, metric, sample_pairs, seed)
    elif metric in metrics.GEMM_METRICS:
        ranks = [math.ceil(t * n) for t in targets]
        pairs = _exact_pair_distances(features, metric, workers)
    else:
        # each pair i < j stands for the two directed pairs of one distance,
        # so the r-th smallest directed distance is the ceil(r/2)-th of them
        ranks = [(math.ceil(t * n) + 1) // 2 for t in targets]
        pairs = _upper_pair_distances(features, metric, workers)
    ranks = [max(1, r) for r in ranks]
    smallest = _smallest(pairs, max(ranks))
    return [float(smallest[r - 1]) for r in ranks]


def _keep_entries(nbrs: NeighborSet, keep: np.ndarray) -> NeighborSet:
    """The entries where ``keep`` holds, each row keeping its order."""
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return NeighborSet(indptr=kept_before[nbrs.indptr], indices=nbrs.indices[keep],
                       distances=nbrs.distances[keep])


def slice_knn(nbrs: NeighborSet, k: int) -> NeighborSet:
    """Restrict count-strategy lists to their first k entries (lists are
    sorted by (distance, index), so the prefix is the exact smaller-k result)."""
    position = np.arange(len(nbrs.indices)) - nbrs.indptr[nbrs.owners()]
    return _keep_entries(nbrs, position < k)


def filter_by_distance(nbrs: NeighborSet, d: float) -> NeighborSet:
    """Restrict distance-strategy lists to entries with distance <= d."""
    return _keep_entries(nbrs, nbrs.distances <= d)
