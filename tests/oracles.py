"""Independent reference implementations used only to check the real ones.

Everything here favors obviousness over speed: exact integer arithmetic,
full scans, exhaustive enumeration.
"""

import heapq
import math
import re
from fractions import Fraction
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from catrank import metrics
from catrank.coherence import (
    _LINEAR_MEAN_FLOOR,
    CategoryScore,
    binomial_tail,
    logsumexp,
    p_cat,
    score_categories,
)
from catrank.data_model import CSR, CategoryIndex, VoteDataset, csv_records
from catrank.embeddings import HuffmanTree, _expit
from catrank.errors import DataError


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
    first, then ids out of range, naming the row itself or repeated in it."""
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
        ids = [i for i, _ in row]
        if any(i >= len(rows) or i == v for i in ids) or len(set(ids)) < len(ids):
            return linenos[v]
    return rows


def parse_rows(rows: list[str], first: int) -> tuple[np.ndarray, np.ndarray] | None:
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


def load_votes_by_row(path: str, cats: CategoryIndex) -> VoteDataset:
    """Ingest the vote CSV; choice columns carry category names."""
    choice_lists: list[list[int]] = []
    by_id: dict[str, int] = {}
    answers: list[tuple[int, int]] = []
    records = csv_records(path, "vote file")
    m = len(next(records)) - 2
    if m < 2:
        raise DataError(f"{path}: header must carry at least 2 choice columns")
    for lineno, row in records:
        qid = row[0].strip()
        try:
            voted = int(row[-1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: voted index is not an integer") from None
        if not 1 <= voted <= m:
            raise DataError(f"{path}:{lineno}: voted index {voted} outside [1, {m}]")
        try:
            choices = [cats.index[c.strip()] for c in row[1:-1]]
        except KeyError as e:
            raise DataError(f"{path}:{lineno}: unknown category {e.args[0]!r}") from None
        if len(set(choices)) != m:
            raise DataError(f"{path}:{lineno}: duplicate categories in choices")
        qi = by_id.setdefault(qid, len(by_id))
        if qi == len(choice_lists):
            choice_lists.append(choices)
        elif choice_lists[qi] != choices:
            raise DataError(f"{path}:{lineno}: question {qid!r} repeats with different choices")
        answers.append((qi, voted - 1))
    if not answers:
        raise DataError(f"{path}: no answers")
    return VoteDataset.from_lists(list(by_id), choice_lists, answers)


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


def answer_pairs(votes) -> list[tuple[int, int]]:
    """Each answer as a ``(question position, voted position)`` pair."""
    return list(zip(votes.question.tolist(), votes.voted.tolist()))


def _position(cat: int, positions: Mapping[int, int], n_ranked: int) -> int:
    # unranked categories sort after all ranked ones, by index
    pos = positions.get(cat)
    return pos if pos is not None else n_ranked + cat


def relative_rank(voted: int, choices: Sequence[int], positions: Mapping[int, int],
                  n_ranked: int) -> int:
    """1-based relative rank of the voted category among its co-choices."""
    mine = _position(voted, positions, n_ranked)
    better = sum(
        1 for c in choices
        if c != voted and _position(c, positions, n_ranked) < mine
    )
    return 1 + better


def score_answer(voted: int, choices: Sequence[int], positions: Mapping[int, int],
                 n_ranked: int) -> float:
    m = len(choices)
    i = relative_rank(voted, choices, positions, n_ranked)
    return (m - i) / (m - 1)


def score_votes_by_loop(votes, order):
    """``evaluation._score_votes`` one answer at a time through the
    per-answer reference ``relative_rank``."""
    positions = {cat: pos for pos, cat in enumerate(order)}
    n_ranked = len(order)
    total = 0.0
    questions = votes.choices.tolist()
    max_m = max(len(q) for q in questions)
    rank_counts = np.zeros(max_m, dtype=np.int64)
    fallback_answers = 0
    for qi, pos in answer_pairs(votes):
        q = questions[qi]
        voted = q[pos]
        i = relative_rank(voted, q, positions, n_ranked)
        rank_counts[i - 1] += 1
        total += (len(q) - i) / (len(q) - 1)
        if any(c not in positions for c in q):
            fallback_answers += 1
    return total, rank_counts, fallback_answers


def preference_graph_by_loop(votes):
    """(categories, weights) of ``evaluation.build_preference_graph``,
    one answer and one choice at a time."""
    questions = votes.choices.tolist()
    cats = sorted({c for q in questions for c in q})
    local = {c: i for i, c in enumerate(cats)}
    k = len(cats)
    weights = np.zeros((k, k), dtype=np.float64)
    for qi, pos in answer_pairs(votes):
        q = questions[qi]
        a = local[q[pos]]
        w = 1.0 / (len(q) - 1)
        for c in q:
            b = local[c]
            if b != a:
                weights[a, b] += w
    return cats, weights


def exact_best_ordering_by_loop(weights: np.ndarray) -> tuple[float, list[int]]:
    """``evaluation._exact_best_ordering`` with one Python list per subset:
    subsets in ascending order extend by each absent x in ascending order,
    and a later candidate replaces the best only when strictly greater."""
    k = weights.shape[0]
    size = 1 << k
    dp = np.full(size, -np.inf)
    dp[0] = 0.0
    last = np.full(size, -1, dtype=np.int64)
    members = [[x for x in range(k) if s >> x & 1] for s in range(size)]
    for s in range(size):
        base = dp[s]
        if base == -np.inf:
            continue
        inside = members[s]
        for x in range(k):
            if s >> x & 1:
                continue
            gain = base + sum(weights[a, x] for a in inside)
            t = s | (1 << x)
            if gain > dp[t]:
                dp[t] = gain
                last[t] = x
    order_rev = []
    s = size - 1
    while s:
        x = int(last[s])
        order_rev.append(x)
        s ^= 1 << x
    return float(dp[size - 1]), order_rev[::-1]


def condensation_start_by_heap(weights: np.ndarray) -> list[int]:
    """The heuristic's condensation start by Kahn's algorithm with a heap:
    scipy's strongly connected components of the weight-majority digraph
    (a -> b when W[a, b] > W[b, a]) in topological order, ties to the lowest
    member index, each sorted by descending margin and then index."""
    k = weights.shape[0]
    adj = weights > weights.T
    n_comp, labels = connected_components(sparse.csr_matrix(adj), directed=True,
                                          connection="strong")
    comp_members = CSR.from_keys(np.sort(labels * k + np.arange(k)), n_comp, k)
    a, b = (labels[x] for x in np.nonzero(adj))
    cross = a != b
    comp_edges = CSR.from_keys(np.unique(a[cross] * n_comp + b[cross]), n_comp, n_comp)
    indeg = np.bincount(comp_edges.indices, minlength=n_comp)
    heap = [(comp_members[c][0], c) for c in range(n_comp) if indeg[c] == 0]
    heapq.heapify(heap)
    margin = weights.sum(axis=1) - weights.sum(axis=0)
    order: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        order.extend(sorted(comp_members[c].tolist(), key=lambda x: (-margin[x], x)))
        for d in comp_edges[c].tolist():
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, (comp_members[d][0], d))
    return order


def climb_reinsertions_by_list(weights: np.ndarray, order: list[int]) -> list[int]:
    """``evaluation._climb_reinsertions`` on a Python list: each visit builds
    the order without x, and full passes repeat until one moves nothing."""
    order = list(order)
    k = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(k):
            x = order[i]
            rest = order[:i] + order[i + 1:]
            ra = np.asarray(rest, dtype=np.int64)
            won_before = weights[ra, x]  # a placed before x contributes W[a, x]
            won_after = weights[x, ra]   # b placed after x contributes W[x, b]
            cum_before = np.concatenate(([0.0], np.cumsum(won_before)))
            cum_after = np.concatenate(([0.0], np.cumsum(won_after)))
            contribution = cum_before + (won_after.sum() - cum_after)
            j = int(np.argmax(contribution))
            if contribution[j] > contribution[i] + 1e-12:
                rest.insert(j, x)
                order = rest
                improved = True
    return order


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


def huffman_paths_by_stack(frequencies) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-leaf Huffman paths by a walk down from the root: the same heap
    merges as ``build_huffman``, then a stack of (node, path, bits) that
    hands each leaf its internal node ids and branch bits."""
    freqs = np.asarray(frequencies)
    n = len(freqs)
    # heap ids: leaves are 0..n-1, internal nodes n..2n-2 by creation order
    heap = [(int(f), i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    left = {}
    right = {}
    for t in range(n - 1):
        f1, a = heapq.heappop(heap)
        f2, b = heapq.heappop(heap)
        node = n + t
        left[node] = a
        right[node] = b
        heapq.heappush(heap, (f1 + f2, node))
    root = heap[0][1]

    points: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    codes: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    stack = [(root, [], [])]
    while stack:
        node, path, bits = stack.pop()
        if node < n:
            points[node] = np.array(path, dtype=np.int64)
            codes[node] = np.array(bits, dtype=np.float64)
        else:
            internal = node - n
            stack.append((left[node], path + [internal], bits + [0.0]))
            stack.append((right[node], path + [internal], bits + [1.0]))
    return points, codes


def co_prob(a: int, b: int, votes: VoteDataset | None = None,
            cats: CategoryIndex | None = None) -> float | None:
    """Geometric mean of P(a | b) and P(b | a).

    Conditionals come from question co-appearance (pass ``votes``) or entity
    co-membership (pass ``cats``). Returns None when either category has no
    support in the chosen universe.
    """
    if (votes is None) == (cats is None):
        raise ValueError("pass exactly one of votes= or cats=")
    if votes is not None:
        in_a, in_b = (np.flatnonzero((votes.choices == c).any(axis=1)) for c in (a, b))
    else:
        in_a, in_b = cats.members[a], cats.members[b]
    if not len(in_a) or not len(in_b):
        return None
    both = len(np.intersect1d(in_a, in_b, assume_unique=True))
    return math.sqrt((both / len(in_b)) * (both / len(in_a)))


def inside_counts_by_category(nbrs, cats: CategoryIndex, cat_ids: list[int]) -> np.ndarray:
    """G of every membership: how many of the member's neighbors belong to
    the category, for the listed categories' members in order. One category
    at a time, gathering its members' neighbor entries, so no temporary
    spans all memberships' neighbors at once."""
    degrees = nbrs.out_degrees()
    mask = np.zeros(nbrs.n, dtype=bool)
    inside = []
    for cat in cat_ids:
        members = cats.members[cat]
        mask[members] = True
        c = degrees[members]
        ends = np.cumsum(c)
        # positions in nbrs.indices of each member's neighbors, member by member
        at = np.repeat(nbrs.indptr[members] - (ends - c), c) + np.arange(ends[-1])
        hit = mask[nbrs.indices[at]]
        inside.append(np.bincount(np.repeat(np.arange(len(members)), c)[hit],
                                  minlength=len(members)))
        mask[members] = False
    return np.concatenate(inside)


def score_categories_by_category(nbrs, cats: CategoryIndex, min_size: int = 2,
                                 adjusted_p: bool = False) -> tuple[list[CategoryScore], int]:
    """The package's ``score_categories`` one category at a time: inside
    counts by a mask per category, and each category's sums and mean over
    its own slice. Each distinct (size, C, G) tail comes from the reference
    ``binomial_tail``, which the batched tails equal bit for bit."""
    if min_size < 2:
        raise ValueError("min_size must be at least 2")
    if nbrs.n != cats.n_entities:
        raise ValueError("neighbor set and category index cover different universes")
    cat_ids = np.flatnonzero(cats.members.lengths() >= min_size).tolist()
    skipped = cats.n_categories - len(cat_ids)
    if not cat_ids:
        return [], skipped
    sizes = cats.members.lengths()[cat_ids]
    c_obs = nbrs.out_degrees()[np.concatenate([cats.members[cat] for cat in cat_ids])]
    g_obs = inside_counts_by_category(nbrs, cats, cat_ids)

    observed = c_obs > 0
    # One int64 per (size, C, G) key, ordered as the triples are: the size's
    # rank among distinct sizes, then C, then G, each below ``span``.
    size_values, first_cat, size_rank = np.unique(sizes, return_index=True,
                                                  return_inverse=True)
    span = int(c_obs.max()) + 1
    if len(size_values) * span * span >= 2**63:
        raise ValueError("too many distinct (size, C, G) keys to pack in int64")
    keys = (np.repeat(size_rank, sizes) * span + c_obs) * span + g_obs
    distinct, which = np.unique(keys[observed], return_inverse=True)
    p_of_size = np.array([p_cat(cats, cat_ids[i], adjusted=adjusted_p)
                          for i in first_cat.tolist()])
    logs = np.array([binomial_tail(int(key // span % span), int(key % span),
                                   float(p_of_size[key // (span * span)]))[1]
                     for key in distinct.tolist()], dtype=np.float64)[which]

    ends = np.cumsum(sizes)
    starts = ends - sizes
    obs_at = np.concatenate(([0], np.cumsum(observed)))
    scores = []
    for cat, lo, hi, obs_lo, obs_hi in zip(cat_ids, starts.tolist(), ends.tolist(),
                                           obs_at[starts].tolist(), obs_at[ends].tolist()):
        total = int(c_obs[lo:hi].sum())
        arr = logs[obs_lo:obs_hi]
        if not arr.size:
            s, log_s = 1.0, 0.0
        elif arr.max() > _LINEAR_MEAN_FLOOR:
            s = float(np.exp(arr).mean())
            log_s = min(0.0, math.log(s))
        else:
            log_mean = float(logsumexp(arr)) - math.log(arr.size)
            s, log_s = math.exp(log_mean), min(0.0, log_mean)
        scores.append(CategoryScore(
            category=cat,
            n_members=hi - lo,
            conductance=int(g_obs[lo:hi].sum()) / total if total else None,
            surprise=s,
            log_surprise=log_s,
            n_observers_used=arr.size,
        ))
    return scores, skipped


def score_alone(cat: int, nbrs, cats: CategoryIndex, adjusted_p: bool = False) -> CategoryScore:
    """The package's ``score_categories`` of one category, over an index that
    holds only that category, so no other category shares its pass."""
    alone = CategoryIndex(names=[cats.names[cat]], members=CSR.from_lists([cats.members[cat]]),
                          n_entities=cats.n_entities)
    (score,), _ = score_categories(nbrs, alone, adjusted_p=adjusted_p)
    return score


def hs_pair_grads(vectors: np.ndarray, node_vecs: np.ndarray, tree: HuffmanTree,
                  center: int, context: int):
    """Descent gradients of the pair loss.

    Returns ``(grad_center, path_node_ids, grad_node_rows)``.
    """
    length = tree.lengths[context]
    pts = tree.points[context, :length]
    l2 = node_vecs[pts]
    f = _expit(l2 @ vectors[center])
    err = f - (1.0 - tree.codes[context, :length])
    return err @ l2, pts, np.outer(err, vectors[center])
