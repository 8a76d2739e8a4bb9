"""Scoring a category ranking against crowdsourced preference votes.

An answer whose voted category places i-th among its question's m choices
earns (m - i) / (m - 1) points, so first place earns 1 and last earns 0.
Rough accuracy divides total points by the answer count. Improved accuracy
divides by the best "cheating" score: the most points any single total
ordering of the vote categories could earn, which caps what a ranking can
achieve when answers conflict. The vote set alone decides how it is found:
exactly, by a subset DP, for up to 18 vote categories, and by a heuristic
above that; ``cheating_search`` names the search a vote set gets.

The score depends on the votes alone, so ``catrank ingest`` computes it
once per vote set and records it in ``votes.csv.meta.json`` beside the
digests of the ``votes.csv`` and ``categories.json`` it wrote and the
search's name. ``catrank evaluate`` passes the recorded score to
``evaluate`` only while both digests and the search still match, and
computes it otherwise.

Categories missing from a ranking fall back to positions after every
ranked category, mutually ordered by category index; evaluation therefore
never fails on a filtered ranking, it just scores it pessimistically.

Every answer is scored, and every preference counted, in one array pass
over the layout ``VoteDataset`` holds from load on: the (questions, m)
choice matrix and each answer's question and voted position. The
per-answer reference, ``score_answer``, lives in ``tests/oracles.py``
with the other loops the tests hold this pass to.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data_model import VoteDataset

logger = logging.getLogger(__name__)

# The subset DP's time and memory grow as 2^k: at 18 categories it takes
# about 0.3 s and 60 MB, so past that the heuristic runs.
_EXACT_HARD_CAP = 18
# the name the benchmark's trace counters read
DEFAULT_EXACT_LIMIT = _EXACT_HARD_CAP


def _require_answers(votes: VoteDataset):
    if not votes.n_answers:
        raise ValueError("vote dataset has no answers")


def _score_votes(votes: VoteDataset, order: Sequence[int]):
    """Total points, answers per relative rank and answers with an unranked
    choice, for every answer at once."""
    _require_answers(votes)
    choices, question, voted = votes.choices, votes.question, votes.voted
    n_ids = int(choices.max()) + 1
    ids = np.asarray(order, dtype=np.int64)
    at = np.flatnonzero((ids >= 0) & (ids < n_ids))
    ranked_at = np.full(n_ids, -1, dtype=np.int64)
    np.maximum.at(ranked_at, ids[at], at)  # a repeated id keeps its last place
    position = np.where(ranked_at >= 0, ranked_at, len(ids) + np.arange(n_ids))
    pos = position[choices]
    rank = 1 + (pos[:, None, :] < pos[:, :, None]).sum(axis=2)
    i, m = rank[question, voted], votes.m
    # a running sum, as a loop of += adds; np.sum's pairwise sum would differ
    total = float(np.add.accumulate(np.append(0.0, (m - i) / (m - 1)))[-1])
    rank_counts = np.bincount(i - 1, minlength=m)
    unranked = (ranked_at[choices] < 0).any(axis=1)
    return total, rank_counts, int(unranked[question].sum())


# ---------------------------------------------------------------------------
# preference graph and the cheating score


@dataclass
class PreferenceGraph:
    """Pairwise votes between co-appearing categories.

    ``weights[a][b]`` adds 1/(m-1), the per-comparison point value, for each
    answer that voted a in a question of m choices also listing b, in answer
    order; it is what the cheating score maximizes. Rows and columns follow
    ``categories``, the sorted vote categories.
    """

    categories: list[int]
    weights: np.ndarray


def build_preference_graph(votes: VoteDataset) -> PreferenceGraph:
    _require_answers(votes)
    choices, question, voted = votes.choices, votes.question, votes.voted
    cats = np.unique(choices)
    k = len(cats)
    local = np.searchsorted(cats, choices)[question]
    winner = local[np.arange(len(question)), voted]
    # every (voted, other choice) cell, answer by answer
    cells = (winner[:, None] * k + local)[np.arange(votes.m) != voted[:, None]]
    weights = np.zeros(k * k)
    np.add.at(weights, cells, 1.0 / (votes.m - 1))
    return PreferenceGraph(categories=cats.tolist(), weights=weights.reshape(k, k))


def _ordering_score(weights: np.ndarray, order: Sequence[int]) -> float:
    w = weights[np.ix_(order, order)]
    return float(np.triu(w, 1).sum())


def _exact_best_ordering(weights: np.ndarray) -> tuple[float, list[int]]:
    """Optimal ordering by dynamic programming over prefix subsets.

    Exhaustive over all orderings (the pairwise score only depends on which
    elements precede which), so the result equals a full permutation scan.
    dp[t], the best score of subset t placed first, is the best over x in t of
    dp[t - x] plus what t - x wins over x; ties go to the smallest t - x.
    """
    k = weights.shape[0]
    size = 1 << k
    # won[s, x]: W[a, x] over the a in s, added in ascending a
    won = np.zeros((size, k))
    n_in = np.zeros(size, dtype=np.int8)
    for b in range(k):
        won[1 << b:2 << b] = won[:1 << b] + weights[b]
        n_in[1 << b:2 << b] = n_in[:1 << b] + 1
    dp = np.zeros(size)  # every t is set before a larger subset reads it
    last = np.zeros(size, dtype=np.int64)
    xs = np.arange(k - 1, -1, -1)  # descending x is ascending t - x
    for n in range(1, k + 1):
        t = np.flatnonzero(n_in == n)[:, None]
        s = t ^ (1 << xs)
        gain = won[s, xs]
        gain += dp[s]
        gain[s > t] = -np.inf  # x is not in t
        dp[t[:, 0]] = gain.max(axis=1)
        last[t[:, 0]] = xs[gain.argmax(axis=1)]
    order = []
    s = size - 1
    while s:
        order.append(int(last[s]))
        s ^= 1 << order[-1]
    return float(dp[-1]), order[::-1]


def strong_components(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """``(count, labels)`` of the strongly connected components of the
    digraph with a dense adjacency matrix; labels number the components by
    their lowest vertex. Warshall's closure (J. ACM 1962) of ``adj | I``
    holds k^2 booleans and takes k passes over them."""
    k = adj.shape[0]
    if k == 0:
        return 0, np.zeros(0, dtype=np.int64)
    reach = (adj != 0) | np.eye(k, dtype=bool)
    for v in range(k):
        reach |= reach[:, v, None] & reach[v]
    # each vertex's first mutually reachable vertex is its component's lowest
    roots, labels = np.unique((reach & reach.T).argmax(axis=1), return_inverse=True)
    return len(roots), labels


def _condensation_order(weights: np.ndarray) -> np.ndarray:
    """Each category's place in Kahn's topological order of the strongly
    connected components of the weight-majority digraph (a -> b when
    W[a, b] > W[b, a]), ties to the component with the lowest member."""
    adj = weights > weights.T
    n_comp, labels = strong_components(adj)
    src, dst = np.nonzero(adj)
    cross = np.zeros((n_comp, n_comp), dtype=bool)
    cross[labels[src], labels[dst]] = True
    np.fill_diagonal(cross, False)
    waiting = cross.sum(axis=0)
    place = np.empty(n_comp, dtype=np.int64)
    for p in range(n_comp):
        c = int(np.argmin(waiting))  # a ready component waits for 0
        place[c] = p
        waiting[cross[c]] -= 1
        waiting[c] = n_comp  # above any in-degree: never picked again
    return place[labels]


def _heuristic_best_ordering(weights: np.ndarray) -> tuple[float, list[int]]:
    """Condensed topological order of the weight-majority digraph,
    margin-sorted inside each strongly connected component, then a
    reinsertion hill climb."""
    k = weights.shape[0]
    margin = weights.sum(axis=1) - weights.sum(axis=0)
    # climb from four starts and keep the best. Climbed alone on the 15 seed
    # 1-5 benchmark vote sets, condensation was best on 4 (3 alone), margin on
    # 3 (2; the two tie on feature_grid seed 2), identity on 6 (6) and
    # reversed on 3 (3): dropping any start lowers a score
    starts = [
        np.lexsort((np.arange(k), -margin, _condensation_order(weights))),
        np.argsort(-margin, kind="stable"),
        np.arange(k),
        np.arange(k)[::-1],
    ]
    best_score = -np.inf
    best_order = list(range(k))
    for start in starts:
        candidate = _climb_reinsertions(weights, start)
        score = _ordering_score(weights, candidate)
        if score > best_score + 1e-12:
            best_score = score
            best_order = candidate
    return best_score, best_order


def _climb_reinsertions(weights: np.ndarray, order: Sequence[int]) -> list[int]:
    """Move single elements to their best position until nothing improves.

    Reinsertion moves subsume adjacent swaps (a swap is a distance-1 move)
    and escape the plateaus that swap-only climbing gets stuck on. Every
    accepted move strictly increases the total, so this terminates; ties
    keep the current position, keeping the result deterministic.

    Positions are visited in turn, wrapping around, on the order held as
    one array. W[x, x] is 0 (a question never repeats a choice), so prefix
    sums over the whole order, x still in place, are those over the others
    with slots i and i + 1 equal: slot t > i stands for the others' slot
    t - 1. Once k visits in a row have moved nothing, every later visit
    would repeat one of them on the same order, so the climb stops.
    """
    order = np.array(order, dtype=np.int64)
    k = len(order)
    columns = np.ascontiguousarray(weights.T)
    cum_before = np.zeros(k + 1)
    cum_after = np.zeros(k + 1)
    i = idle = 0
    while idle < k:
        x = order[i]
        won_after = weights[x][order]  # b placed after x contributes W[x, b]
        # np.cumsum's sums, without the cost of its wrapper at every visit
        np.add.accumulate(columns[x][order], out=cum_before[1:])  # a before x: W[a, x]
        np.add.accumulate(won_after, out=cum_after[1:])
        # np.sum adds in pairs by position, so W[x, x] leaves before it sums
        others = np.concatenate((won_after[:i], won_after[i + 1:])).sum()
        contribution = cum_before + (others - cum_after)
        t = int(contribution.argmax())
        if contribution.item(t) > contribution.item(i) + 1e-12:
            if t <= i:
                order[t + 1:i + 1] = order[t:i]
                order[t] = x
            else:
                order[i:t - 1] = order[i + 1:t]
                order[t - 1] = x
            idle = 0
        else:
            idle += 1
        i = i + 1 if i + 1 < k else 0
    return order.tolist()


def cheating_search(votes: VoteDataset) -> str:
    """The name of the search ``best_cheating_score`` runs on ``votes``: the
    subset DP up to ``_EXACT_HARD_CAP`` distinct categories, the climb above."""
    exact = len(np.unique(votes.choices)) <= _EXACT_HARD_CAP
    return "subset_dp" if exact else "reinsertion_climb"


def best_cheating_score(votes: VoteDataset) -> tuple[float, list[int]]:
    """Maximum points any total ordering of the vote categories can earn.

    Exact up to ``_EXACT_HARD_CAP`` distinct categories, heuristic above
    (finding the true optimum is a linear ordering problem, NP-hard in
    general).
    """
    pref = build_preference_graph(votes)
    if cheating_search(votes) == "subset_dp":
        score, local_order = _exact_best_ordering(pref.weights)
    else:
        score, local_order = _heuristic_best_ordering(pref.weights)
    return score, [pref.categories[x] for x in local_order]


# ---------------------------------------------------------------------------
# full report


@dataclass
class EvaluationReport:
    total_points: float
    n_answers: int
    rough_accuracy: float
    cheating_score: float
    improved_accuracy: float
    agreement_histogram: list[float]
    unranked_fallback_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(votes: VoteDataset, order: Sequence[int],
             cheating_score: float | None = None) -> EvaluationReport:
    """Score an ordered category list against a vote dataset.

    ``cheating_score`` accepts a precomputed value so callers evaluating
    many rankings against the same votes pay for it once; it must be finite
    and positive.
    """
    total, rank_counts, fallback = _score_votes(votes, order)
    cheat = cheating_score
    if cheat is None:
        cheat, _ = best_cheating_score(votes)
    if not 0 < cheat < np.inf:
        raise ValueError(f"cheating score must be finite and positive, got {cheat!r}")
    acc = total / cheat
    if acc > 1.0 + 1e-12:
        logger.warning(
            "improved accuracy %.6f exceeds 1: heuristic cheating score is suboptimal",
            acc,
        )
    return EvaluationReport(
        total_points=total,
        n_answers=votes.n_answers,
        rough_accuracy=total / votes.n_answers,
        cheating_score=cheat,
        improved_accuracy=acc,
        agreement_histogram=(rank_counts / votes.n_answers).tolist(),
        unranked_fallback_count=fallback,
    )
