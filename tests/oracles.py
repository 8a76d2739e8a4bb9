"""Independent reference implementations used only to check the real ones.

Everything here favors obviousness over speed: exact integer arithmetic,
full scans, exhaustive enumeration.
"""

import math
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy import sparse

from catrank import metrics


def exact_binomial_tail(c: int, g: int, p: Fraction) -> Fraction:
    """Sum_{x>=g} C(c,x) p^x (1-p)^(c-x) in exact rational arithmetic."""
    q = 1 - p
    return sum(
        (Fraction(math.comb(c, x)) * p**x * q ** (c - x) for x in range(g, c + 1)),
        Fraction(0),
    )


def exact_binomial_tails_all_g(c: int, p: Fraction) -> list[Fraction]:
    """tails[g] for g = 0..c, via integer suffix sums over a common denominator."""
    a, d = p.numerator, p.denominator
    b = d - a
    numerators = [math.comb(c, x) * a**x * b ** (c - x) for x in range(c + 1)]
    suffix = [0] * (c + 2)
    for x in range(c, -1, -1):
        suffix[x] = suffix[x + 1] + numerators[x]
    denom = d**c
    return [Fraction(suffix[g], denom) for g in range(c + 1)]


def log_of_fraction(fr: Fraction) -> float:
    if fr == 0:
        return -math.inf
    return math.log(fr.numerator) - math.log(fr.denominator)


def naive_knn(rows: np.ndarray, metric: str, k: int) -> list[list[int]]:
    """Per-query full scan with scalar distances; ties to the lower index."""
    n = len(rows)
    result = []
    for i in range(n):
        dists = [
            (metrics.distance(metric, rows[i], rows[j]), j)
            for j in range(n)
            if j != i
        ]
        dists.sort()
        result.append([j for _, j in dists[:k]])
    return result


def knn_by_stable_sort(features, metric: str, k: int):
    """Count-strategy lists (indptr, indices, distances) from one block of
    every full row, as ``knn_by_count`` selected before it partitioned: a
    stable argsort of each row, its first k + 1 columns, and without the
    entity itself, or without the last column where that sorts later. ``k``
    is clamped to n - 1."""
    rows = features.rows
    n = len(rows)
    k = min(k, n - 1)
    d = metrics.block(metric, rows, np.arange(n), metrics.prepare(metric, rows))
    order = np.argsort(d, axis=1, kind="stable")[:, :k + 1]
    drop = order == np.arange(n)[:, None]
    drop[~drop.any(axis=1), k] = True
    order = order[~drop].reshape(n, k)
    return (np.concatenate(([0], np.cumsum(np.full(n, k)))), order.ravel(),
            np.take_along_axis(d, order, 1).ravel())


def inside_counts_by_product(nbrs, cats, cat_ids) -> np.ndarray:
    """G of every membership of the listed categories, member by member, as
    one sparse product per category: the neighbor rows of the members times
    the category's 0/1 indicator."""
    n = nbrs.n
    near = sparse.csr_matrix(
        (np.ones(len(nbrs.indices), dtype=np.int64), nbrs.indices, nbrs.indptr), shape=(n, n))
    counts = []
    for cat in cat_ids:
        members = cats.members[cat]
        indicator = np.zeros(n, dtype=np.int64)
        indicator[members] = 1
        counts.append(near[members] @ indicator)
    return np.concatenate(counts)


_DISTANCE = r"(?:inf|[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
_CELLS = rf"(?:[0-9]+:{_DISTANCE}(?:,[0-9]+:{_DISTANCE})*)?"


def parse_neighbor_list(text: str):
    """What loading a neighbor list should give: its rows as lists of
    (id, distance), or the line number of its first bad line, grammar
    first, then ids out of range or naming the row itself."""
    rows, linenos = [], []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        if not line:
            continue
        m = re.fullmatch(rf"{len(rows)}\t({_CELLS})", line)
        if m is None:
            return lineno
        cells = [cell.split(":") for cell in m[1].split(",")] if m[1] else []
        rows.append([(int(i), float(d)) for i, d in cells])
        linenos.append(lineno)
    for v, row in enumerate(rows):
        if any(i >= len(rows) or i == v for i, _ in row):
            return linenos[v]
    return rows


def _tsv_pairs(path: str):
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if line and not line.startswith("#"):
                a, b = line.split("\t")
                yield a.strip(), b.strip()


def ingest_graph(path: str, symmetrize: bool = False):
    """A well-formed edge list read one edge at a time into per-vertex sets:
    ids in order of first appearance, each vertex's sorted out-neighbors, and
    the self-loop and duplicate counts."""
    ids, index, edges, n_self = [], {}, [], 0
    for a, b in _tsv_pairs(path):
        for s in (a, b):
            if s not in index:
                index[s] = len(ids)
                ids.append(s)
        if a == b:
            n_self += 1
        else:
            edges.append((index[a], index[b]))
    out = [set() for _ in ids]
    n_dup = 0
    for u, v in edges:
        n_dup += v in out[u]
        out[u].add(v)
    if symmetrize:
        for u, v in edges:
            out[v].add(u)
    return ids, [sorted(s) for s in out], n_self, n_dup


def ingest_categories(path: str, index: dict[str, int]):
    """A well-formed assignment file read one line at a time into
    per-category sets: names in order of first appearance among lines naming
    a known entity, sorted members, and the kept, skipped and duplicate
    counts."""
    names, members, cat_index, n_skipped, n_dup = [], [], {}, 0, 0
    for ent, cat in _tsv_pairs(path):
        if ent not in index:
            n_skipped += 1
            continue
        if cat not in cat_index:
            cat_index[cat] = len(names)
            names.append(cat)
            members.append(set())
        n_dup += index[ent] in members[cat_index[cat]]
        members[cat_index[cat]].add(index[ent])
    n_kept = sum(len(m) for m in members)
    return names, [sorted(m) for m in members], n_kept, n_skipped, n_dup


def best_ordering_bruteforce(weights: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Scan every permutation for the maximum pairwise-consistent weight."""
    k = weights.shape[0]
    best = -math.inf
    best_order = None
    for perm in permutations(range(k)):
        score = sum(
            weights[perm[i], perm[j]] for i in range(k) for j in range(i + 1, k)
        )
        if score > best + 1e-12:
            best = score
            best_order = perm
    return best, best_order


def optimal_expected_code_length(freqs) -> int:
    """Minimum sum of freq * code-length over all prefix codes.

    Enumerates every non-increasing code-length multiset satisfying the
    Kraft equality (equivalent to enumerating all full binary trees) and
    pairs shortest lengths with largest frequencies.
    """
    freqs = sorted(freqs, reverse=True)
    n = len(freqs)
    best = math.inf

    def lengths(remaining: int, budget: Fraction, max_len: int, acc: list[int]):
        nonlocal best
        if remaining == 0:
            if budget == 0:
                cost = sum(f * l for f, l in zip(freqs, acc))
                if cost < best:
                    best = cost
            return
        for l in range(max_len, n):
            unit = Fraction(1, 2**l)
            if unit > budget:
                continue  # too short: one leaf would overshoot the capacity
            if unit * remaining < budget:
                break  # even all-remaining at this length cannot fill it
            lengths(remaining - 1, budget - unit, l, acc + [l])

    lengths(n, Fraction(1), 1, [])
    return best
