"""Close-neighbor relations: exact k-nearest by count, or within-distance-D.

Both strategies produce a directed NeighborSet in CSR layout. Lists are
sorted by (distance, index); ties at equal distance resolve to the lower
entity index so reruns are reproducible. Pair distances are counted
directed throughout, matching the asymmetry of the count strategy.

Distances come in blocks of query rows. Under l1, l2 and js, whose
distances are the same bytes from either side, a block is a strip from the
chunk's first row on, so kNN, exact calibration and distance lists each
compute every unordered pair once; cosine and kl blocks span full rows.
Inside ``shared_sweep`` the three share their strips: the first to need a
strip keeps it and the others read it, so ``grid`` and ``knn --avg-target``
compute each pair once per metric. Kept strips hold at most
``_KEPT_STRIP_ELEMENTS`` values (32 MB); at n = 800 and dim 64 all 80
strips are kept, 324,000 values (2.6 MB).
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor

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
# The strips one shared sweep keeps hold at most this many float64 values
# (32 MB) together; a strip past that is computed again for each use.
_KEPT_STRIP_ELEMENTS = 2**22
# Sampled calibration draws its pairs in batches of this many elements // dim.
# The batch size fixes which pairs a seed draws, so it stays apart from the
# block budget, which only sets how many of them one kernel call takes.
_SAMPLE_BATCH_ELEMENTS = 4_000_000
# A neighbor list loads in blocks of whole lines of about this many
# characters, so the text and its parsing temporaries never exist for the
# whole file at once.
_TEXT_BLOCK_CHARS = 2**20

# The neighbor-list grammar, checked over the bytes of a block that are not
# digits: each such byte has a class, and each class may follow only the
# classes listed here, with digits right before it ("1"), without ("0") or
# either ("*"). A sign right after an exponent is the exponent's own sign.
_TAB, _LF, _COLON, _COMMA, _DOT, _EXP, _SIGN, _EXP_SIGN, _INF, _OTHER = range(10)
_FOLLOWS = {
    _LF: {_LF: "0", _TAB: "1"},  # a blank line, or the entity of a row
    _TAB: {_LF: "0", _COLON: "1"},  # an empty list, or the first id
    _COMMA: {_COLON: "1"},
    _COLON: {_SIGN: "0", _INF: "0", _DOT: "*", _EXP: "1", _COMMA: "1", _LF: "1"},
    _SIGN: {_DOT: "*", _EXP: "1", _COMMA: "1", _LF: "1"},
    _DOT: {_EXP: "*", _COMMA: "*", _LF: "*"},  # with a digit on at least one side
    _EXP: {_EXP_SIGN: "0", _COMMA: "1", _LF: "1"},
    _EXP_SIGN: {_COMMA: "1", _LF: "1"},
    _INF: {_COMMA: "0", _LF: "0"},
}
_ALLOWED = np.zeros((_OTHER + 1, _OTHER + 1, 2), dtype=bool)
for _prev, _follows in _FOLLOWS.items():
    for _cls, _digits in _follows.items():
        _ALLOWED[_prev, _cls] = (_digits != "1", _digits != "0")
_CLASS = np.full(256, _OTHER, dtype=np.int8)
for _chars, _cls in (("\t", _TAB), ("\n", _LF), (":", _COLON), (",", _COMMA), (".", _DOT),
                     ("eE", _EXP), ("+-", _SIGN)):
    _CLASS[list(_chars.encode())] = _cls
# ':inf' is checked as ':' and this byte, which UTF-8 text never holds
_INF_BYTE = 0xFF
_CLASS[_INF_BYTE] = _INF
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)
# the most digits whose value int64 always holds
_INT64_DIGITS = 18
# (features, metric, kept strips) of the open shared sweep
_SWEEP = contextvars.ContextVar("_SWEEP", default=None)


class NeighborSet(CSR):
    """Directed close-neighbor lists: rows of neighbor ids, each with the
    distance at the same position of ``distances``. A loaded set keeps its
    distances as its checked text until they are first read: coherence
    scores read only the ids."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, distances: np.ndarray):
        super().__init__(indptr=indptr, indices=indices)
        self._distances = distances
        self._text: list[str] | None = None  # a loaded set's blocks, until converted

    @property
    def distances(self) -> np.ndarray:
        # threads that race here each convert the same text to equal arrays
        if (text := self._text) is not None:
            self._distances = _convert_distances(text)
            self._text = None
        return self._distances

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
        """Rows in the grammar ``_parse_block`` checks. A ``<path>.meta.json``
        sidecar, where present, must agree on ``n``; other keys are ignored."""
        meta = {}
        if os.path.exists(path + ".meta.json"):
            meta = read_json_object(path + ".meta.json")
        degrees, ids, texts, linenos = _parse(path)
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
        nbrs = cls(indptr=indptr, indices=indices, distances=None)
        nbrs._text = texts
        return nbrs


def _convert_distances(blocks: list[str]) -> np.ndarray:
    """The distances of the checked blocks of lines ``_parse`` keeps: each
    block's cells, ids and distances alike, go through one ``np.loadtxt``
    call, which rounds every token correctly."""
    values = [np.zeros(0)]
    for text in blocks:
        cells = ",".join(filter(None, (line.partition("\t")[2] for line in text.split("\n"))))
        if cells:  # loadtxt warns on text without data
            values.append(np.loadtxt([cells.replace(":", ",")], delimiter=",",
                                     dtype=np.float64, ndmin=1)[1::2])
    return np.concatenate(values)


def _parse(path: str):
    """Out-degrees, neighbor ids (as float64), the text of each block and
    the line number of each row of a neighbor list, in the grammar
    ``_parse_block`` checks; blank lines are skipped. Read in blocks of
    whole lines of about ``_TEXT_BLOCK_CHARS`` characters, each checked by
    one ``_parse_block`` call. A block that fails is checked again line by
    line, and its first bad line raises DataError."""
    degrees = [np.zeros(0, dtype=np.int64)]
    ids = [np.zeros(0)]
    texts = []
    linenos = [np.zeros(0, dtype=np.int64)]
    lines_before = rows_before = 0
    with open_text(path) as f:
        while lines := f.readlines(_TEXT_BLOCK_CHARS):
            text = "".join(lines)
            block = _parse_block(text if text[-1] == "\n" else text + "\n", rows_before)
            if block is None:
                v = rows_before
                for lineno, line in enumerate(lines, lines_before + 1):
                    if (row := _parse_block(line.rstrip("\n") + "\n", v)) is None:
                        raise DataError(f"{path}:{lineno}: expected row {v} as "
                                        f"'{v}<TAB>id:distance,...'")
                    v += len(row[0])
            degrees.append(block[0])
            ids.append(block[1])
            texts.append(text)
            linenos.append(lines_before + 1 + block[2])
            lines_before += len(lines)
            rows_before += len(block[0])
    return np.concatenate(degrees), np.concatenate(ids), texts, np.concatenate(linenos)


def _parse_block(text: str, first: int):
    """Out-degrees, neighbor ids (as float64) and the line of each row,
    counted from 0, of lines ``text`` that each end in LF, their rows
    numbered from ``first``; None unless each line is blank or its row's
    number in plain decimal, a TAB and comma-separated ``id:distance``
    cells, each id digits only and each distance a float token over
    0-9 . e E + -, or inf.

    One pass over the bytes: the classes of those that are not digits, with
    the count of digits right before each, must follow ``_FOLLOWS``; then
    the digit runs give the entities and ids."""
    raw = text.encode()
    # inf, right after its ':', is the one token with letters; most blocks
    # have none, and a memchr for 'i' is cheaper than the search
    if b"i" in raw:
        raw = raw.replace(b":inf", b":" + bytes([_INF_BYTE]))
    a = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero(a - np.uint8(48) > 9)
    cls = _CLASS[a[at]]
    digits = np.diff(at, prepend=-1) - 1
    cls[1:][(cls[1:] == _SIGN) & (cls[:-1] == _EXP) & (digits[1:] == 0)] = _EXP_SIGN
    some = digits > 0
    prev = np.concatenate(([_LF], cls[:-1]))
    if not _ALLOWED[prev, cls, some.view(np.int8)].all():
        return None
    if ((cls[:-1] == _DOT) & ~some[:-1] & ~some[1:]).any():
        return None
    tabs = np.flatnonzero(cls == _TAB)
    rows = np.arange(first, first + len(tabs))
    width = np.maximum(1, np.searchsorted(_POWERS_OF_TEN, rows, side="right"))
    if (digits[tabs] != width).any() or (_run_values(a, at[tabs], width) != rows).any():
        return None
    colons = np.flatnonzero(cls == _COLON)
    ends, lengths = at[colons], digits[colons]
    ids = _run_values(a, ends, np.minimum(lengths, _INT64_DIGITS)).astype(np.float64)
    for i in np.flatnonzero(lengths > _INT64_DIGITS).tolist():
        ids[i] = float(raw[ends[i] - lengths[i]:ends[i]])
    degrees = np.diff(np.searchsorted(colons, tabs), append=len(colons))
    lines = np.searchsorted(np.flatnonzero(cls == _LF), tabs)
    return degrees, ids, lines


def _run_values(a: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 values of the decimal digit runs of bytes ``a`` that end
    before positions ``ends`` and are ``lengths`` (at most 18) long."""
    values = np.zeros(len(ends), dtype=np.int64)
    for back in range(int(lengths.max(initial=0)), 0, -1):
        digit = a[np.maximum(ends - back, 0)] - np.uint8(48)
        values = values * 10 + np.where(lengths >= back, digit, 0)
    return values


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


@contextlib.contextmanager
def shared_sweep(features: FeatureMatrix, metric: str):
    """Inside the ``with`` statement, calls on ``features`` (this very
    object) under ``metric`` share their l1, l2 or js strips: the worker
    thread that computes a strip first keeps it, and later calls read it.
    The first strips in chunk order whose sizes sum to at most
    ``_KEPT_STRIP_ELEMENTS`` are kept; the rest are computed for each use.
    Kept strips are read-only, and none outlives the statement."""
    token = _SWEEP.set((features, metric, {}))
    try:
        yield
    finally:
        _SWEEP.reset(token)


def _blocks(features: FeatureMatrix, metric: str, workers: int, fn, strips: bool = False):
    """``fn(chunk, d)`` for each query chunk and its distance block ``d``, a
    matrix of distances from the chunk to every row, or with ``strips`` to
    the rows from ``chunk[0]`` on, yielded in chunk order. Blocks are
    writable, except strips that a ``shared_sweep`` keeps."""
    n = features.n_entities
    rows = features.rows
    prep = metrics.prepare(metric, rows)
    budget = _GEMM_BLOCK_ELEMENTS if metric in metrics.GEMM_METRICS else _BLOCK_ELEMENTS
    chunks = _query_chunks(n, budget // (n * metrics.block_width(metric, features.dim)))

    def block(c):
        return metrics.block(metric, rows, c, prep, int(c[0]) if strips else 0)

    sweep = _SWEEP.get()
    if strips and sweep is not None and sweep[0] is features and sweep[1] == metric:
        block, replay = _keeping(block, chunks, n, sweep[2])
        if replay:  # reading kept strips is too little work per chunk to pay for threads
            workers = 1
    return _run_chunks(lambda c: fn(c, block(c)), chunks, workers)


def _keeping(compute, chunks, n: int, kept: dict):
    """``compute(chunk)`` for the strips of ``chunks``, keeping those of the
    first chunks whose strips hold at most ``_KEPT_STRIP_ELEMENTS`` values
    together, and whether every strip is kept already. A kept strip is
    copied into one buffer, shared through ``kept`` with the sweep's later
    calls (their chunks are the same: they depend only on n, dim and the
    metric), and read from there as a read-only view. One buffer, not an
    array per strip, leaves no holes in the threads' heaps once the sweep
    ends."""
    sizes = np.array([len(c) * (n - int(c[0])) for c in chunks])
    ends = np.cumsum(sizes)
    fit = int(np.searchsorted(ends, _KEPT_STRIP_ELEMENTS, side="right"))
    if "buffer" not in kept:
        kept["buffer"] = np.empty(int(ends[fit - 1]) if fit else 0)
        kept["filled"] = set()
    buffer, filled = kept["buffer"], kept["filled"]
    offsets = {int(c[0]): int(end - size)
               for c, size, end in zip(chunks[:fit], sizes.tolist(), ends.tolist())}

    def strip(c):
        start = int(c[0])
        if start not in offsets:
            return compute(c)
        lo = offsets[start]
        d = buffer[lo:lo + len(c) * (n - start)].reshape(len(c), n - start)
        if start not in filled:
            d[...] = compute(c)
            filled.add(start)
        d.flags.writeable = False
        return d

    return strip, len(filled) == len(chunks)


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
    """All other entities within distance <= d.

    Under l1, l2 and js, whose distances are the same bytes from either
    side, each unordered pair is computed once and listed from both sides
    with the same distance, so the lists are symmetric bit for bit. Cosine
    and kl compute each side in its own row's block: kl is asymmetric, so
    j may be within d of i but not i of j; cosine is symmetric only up to
    the last bit of its GEMM sums, so a pair at the threshold may be listed
    from one side only."""
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


def check_targets(targets: list, n: int):
    """Raise ValueError unless there are targets and each lies in (0, n-1)."""
    if not targets:
        raise ValueError("no calibration targets given")
    for t in targets:
        if not 0 < t < n - 1:  # also rejects NaN
            raise ValueError(f"target average neighbor count {t} must be positive and "
                             f"below n-1 = {n - 1}")


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
    check_targets(targets, n)

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
