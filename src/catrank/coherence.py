"""Category coherence scoring and ranking.

Two criteria quantify how descriptive a category is:

  conductance     directed close-neighbor relationships from members to
                  members, divided by those from members to anyone;
                  undefined when members have no neighbors at all.

  surprise level  for each member ("observer") with C >= 1 neighbors of
                  which G lie inside the category, the binomial tail
                  probability of seeing at least G inside neighbors by
                  chance; averaged over observers. Lower means harder to
                  explain by chance, hence more descriptive. Members with
                  zero neighbors are excluded from the mean; if every
                  member is excluded the level is 1.

Tails are computed in log space (log-gamma + log-sum-exp) so that values
far below double-precision underflow still rank correctly. A scoring pass
needs one tail per distinct (size, C, G) key, and computes them all at once:
keys with the same tail length C - G + 1 share a 2-D array of log-pmf rows,
sliced so that one block holds at most the neighbor search's block budget of
elements (or one row, when a single tail is longer). Each batched tail equals
``binomial_tail(C, G, p)`` bit for bit, which stays the reference routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from . import evaluation
from .data_model import (
    CRITERIA,
    DISTRIBUTION_ONLY_METRICS,
    CategoryIndex,
    FeatureMatrix,
    VoteDataset,
)
from .neighbors import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_SAMPLE_PAIRS,
    _BLOCK_ELEMENTS,
    NeighborSet,
    calibrate_thresholds,
    filter_by_distance,
    knn_by_count,
    neighbors_by_distance,
    slice_knn,
)

# Above this log value the observer tails are averaged in plain linear
# space; below it exp() would underflow and the mean moves to log space.
_LINEAR_MEAN_FLOOR = -700.0


def binomial_tail(c: int, g: int, p: float) -> tuple[float, float]:
    """P(X >= g) for X ~ Binomial(c, p), returned as (linear, log).

    The linear value may underflow to 0; the log value stays exact-ish.
    """
    if g < 0 or c < 0 or g > c:
        raise ValueError(f"need 0 <= g <= c, got g={g}, c={c}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if g == 0:
        return 1.0, 0.0
    if p == 0.0:
        return 0.0, -math.inf
    if p == 1.0:
        return 1.0, 0.0
    xs = np.arange(g, c + 1, dtype=np.float64)
    log_pmf = (
        gammaln(c + 1.0) - gammaln(xs + 1.0) - gammaln(c - xs + 1.0)
        + xs * math.log(p) + (c - xs) * math.log1p(-p)
    )
    log_tail = min(0.0, float(logsumexp(log_pmf)))
    return math.exp(log_tail), log_tail


def binomial_log_tails(c: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``binomial_tail(c[i], g[i], p[i])[1]`` for every i, bit for bit.

    The same formula runs on 2-D blocks of keys that share a tail length;
    scipy's logsumexp reduces each row as it reduces one tail alone.
    """
    bad = (g < 0) | (g > c) | ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        at = int(bad.argmax())
        binomial_tail(int(c[at]), int(g[at]), float(p[at]))  # raises its ValueError
    out = np.zeros(len(c), dtype=np.float64)
    out[(g > 0) & (p == 0.0)] = -math.inf
    live = np.flatnonzero((g > 0) & (p > 0.0) & (p < 1.0))
    live = live[np.argsort((c - g)[live], kind="stable")]  # grouped by tail length
    lengths = (c - g + 1)[live]
    p_values, p_at = np.unique(p[live], return_inverse=True)
    log_p = np.array([math.log(q) for q in p_values.tolist()])[p_at, None]
    log_q = np.array([math.log1p(-q) for q in p_values.tolist()])[p_at, None]
    starts = np.flatnonzero(np.diff(lengths, prepend=0))
    for lo, hi in zip(starts.tolist(), np.append(starts[1:], len(live)).tolist()):
        length = int(lengths[lo])
        step = max(1, _BLOCK_ELEMENTS // length)
        for rows in (slice(s, min(s + step, hi)) for s in range(lo, hi, step)):
            keys = live[rows]
            cs = c[keys, None].astype(np.float64)
            xs = g[keys, None] + np.arange(length, dtype=np.float64)
            log_pmf = (
                gammaln(cs + 1.0) - gammaln(xs + 1.0) - gammaln(cs - xs + 1.0)
                + xs * log_p[rows] + (cs - xs) * log_q[rows]
            )
            tails = logsumexp(log_pmf, axis=1)
            out[keys] = np.where(tails < 0.0, tails, 0.0)  # min(0.0, tail), as binomial_tail
    return out


def p_cat(cats: CategoryIndex, cat: int, universe_size: int | None = None,
          adjusted: bool = False) -> float:
    """Probability that a random entity belongs to the category.

    ``adjusted`` switches to (size-1)/(N-1), the without-replacement view of
    an observer who is itself a member; default matches size/N.
    """
    n = cats.n_entities if universe_size is None else universe_size
    if n < 1:
        raise ValueError("universe size must be at least 1")
    size = cats.size(cat)
    if adjusted:
        if n == 1:
            return 0.0
        return max(0, size - 1) / (n - 1)
    return size / n


@dataclass
class CategoryScore:
    category: int
    n_members: int
    conductance: float | None
    surprise: float
    log_surprise: float
    n_observers_used: int


@dataclass
class CoherenceRanking:
    """Categories ordered by a criterion; a permutation of all scored ones."""

    criterion: str
    scores: list[CategoryScore]
    n_skipped: int

    @property
    def ordered_categories(self) -> list[int]:
        return [s.category for s in self.scores]

    def __len__(self) -> int:
        return len(self.scores)


def _inside_counts(nbrs: NeighborSet, cats: CategoryIndex, cat_ids: list[int]) -> np.ndarray:
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


def _score(nbrs: NeighborSet, cats: CategoryIndex, cat_ids: list[int],
           universe_size: int | None = None,
           adjusted_p: bool = False) -> list[CategoryScore]:
    """Conductance and surprise level of each listed category, in one pass.

    Each member observes C close neighbors, G of them members. p depends
    only on the size, so each distinct (C, G, size) tail is computed once;
    each mean is taken over the category's own observers in member order.
    """
    if nbrs.n != cats.n_entities:
        raise ValueError("neighbor set and category index cover different universes")
    if not cat_ids:
        return []
    sizes = cats.members.lengths()[cat_ids]
    if sizes.min() < 2:
        raise ValueError("scoring needs categories with at least 2 members")
    c_obs = nbrs.out_degrees()[np.concatenate([cats.members[cat] for cat in cat_ids])]
    g_obs = _inside_counts(nbrs, cats, cat_ids)

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
    p_of_size = np.array([p_cat(cats, cat_ids[i], universe_size, adjusted=adjusted_p)
                          for i in first_cat.tolist()])
    logs = binomial_log_tails(distinct // span % span, distinct % span,
                              p_of_size[distinct // (span * span)])[which]

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
    return scores


def conductance(cat: int, nbrs: NeighborSet, cats: CategoryIndex) -> float | None:
    """Fraction of members' directed neighbor relationships staying inside.

    Returns None when no member has any close neighbor.
    """
    return _score(nbrs, cats, [cat])[0].conductance


def surprise_level(cat: int, nbrs: NeighborSet, cats: CategoryIndex,
                   universe_size: int | None = None,
                   adjusted_p: bool = False) -> tuple[float, float, int]:
    """Mean binomial-tail probability over the category's observers.

    Returns ``(linear, log, n_observers_used)``.
    """
    s = _score(nbrs, cats, [cat], universe_size, adjusted_p)[0]
    return s.surprise, s.log_surprise, s.n_observers_used


def score_categories(nbrs: NeighborSet, cats: CategoryIndex, min_size: int = 2,
                     adjusted_p: bool = False) -> tuple[list[CategoryScore], int]:
    """Score every category with at least ``min_size`` members.

    Returns the scores (in category-index order) and the skipped count.
    """
    if min_size < 2:
        raise ValueError("min_size must be at least 2")
    scorable = np.flatnonzero(cats.members.lengths() >= min_size).tolist()
    scores = _score(nbrs, cats, scorable, adjusted_p=adjusted_p)
    return scores, cats.n_categories - len(scorable)


def _order_scores(scores: list[CategoryScore], criterion: str) -> list[CategoryScore]:
    if criterion == "conductance":
        # undefined conductance sorts after everything defined
        key = lambda s: (s.conductance is None, -(s.conductance or 0.0),
                         -s.n_members, s.category)
    elif criterion == "surprise":
        key = lambda s: (s.log_surprise, -s.n_members, s.category)
    else:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    return sorted(scores, key=key)


def rank_categories(nbrs: NeighborSet, cats: CategoryIndex, criterion: str,
                    min_size: int = 2, adjusted_p: bool = False) -> CoherenceRanking:
    """Score and order all categories with at least ``min_size`` members."""
    scores, skipped = score_categories(nbrs, cats, min_size, adjusted_p)
    if not scores:
        raise ValueError("no scorable category (all below min_size)")
    return CoherenceRanking(
        criterion=criterion,
        scores=_order_scores(scores, criterion),
        n_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# grid search over the full menu


@dataclass
class GridMenu:
    metrics: tuple[str, ...] = ("l1", "l2", "cosine", "kl", "js")
    strategies: tuple[str, ...] = ("count", "distance")
    sizes: tuple[float, ...] = (5, 10, 25, 50, 100)
    criteria: tuple[str, ...] = ("conductance", "surprise")
    min_size: int = 2


@dataclass
class GridResult:
    rows: list[dict]
    rankings: dict[str, CoherenceRanking]
    skipped_configs: list[dict] = field(default_factory=list)


def _config_key(feature, metric, strategy, size, criterion) -> str:
    size_txt = f"{size:g}"
    return f"{feature}|{metric}|{strategy}|{size_txt}|{criterion}"


def run_grid(features: dict[str, FeatureMatrix], cats: CategoryIndex, menu: GridMenu,
             votes: VoteDataset | None = None, workers: int = 1, seed: int = 0,
             exact_limit: int | None = None, sample_pairs: int | None = None,
             cheat_exact_limit: int = 9) -> GridResult:
    """Run every valid menu combination, reusing work where possible.

    Neighbor sets are shared between the two criteria; count-strategy lists
    are computed once at the largest K and sliced; distance-strategy lists
    are computed once at the largest threshold and filtered.
    """
    exact_limit = DEFAULT_EXACT_LIMIT if exact_limit is None else exact_limit
    sample_pairs = DEFAULT_SAMPLE_PAIRS if sample_pairs is None else sample_pairs

    rows: list[dict] = []
    rankings: dict[str, CoherenceRanking] = {}
    skipped: list[dict] = []
    cheat = None
    if votes is not None:
        cheat, _ = evaluation.best_cheating_score(votes, cheat_exact_limit)

    any_valid = False
    for fname, fm in features.items():
        for metric in menu.metrics:
            if metric in DISTRIBUTION_ONLY_METRICS and fm.kind != "distribution":
                skipped.append({"feature": fname, "metric": metric,
                                "reason": "metric requires distribution features"})
                continue
            any_valid = True
    if not any_valid:
        raise ValueError("no valid feature/metric combination in the menu")
    if "count" in menu.strategies and not all(float(s).is_integer() and s >= 1
                                              for s in menu.sizes):
        raise ValueError("count sizes must be integers of at least 1")

    for fname, fm in features.items():
        for metric in menu.metrics:
            if metric in DISTRIBUTION_ONLY_METRICS and fm.kind != "distribution":
                continue
            for strategy in menu.strategies:
                per_size = _neighbor_sets(fm, metric, strategy, menu.sizes, workers,
                                          seed, exact_limit, sample_pairs)
                for size, nbrs in per_size:
                    scores, n_skipped = score_categories(nbrs, cats, menu.min_size)
                    if not scores:
                        skipped.append({"feature": fname, "metric": metric,
                                        "strategy": strategy, "size": size,
                                        "reason": "no scorable category"})
                        continue
                    for criterion in menu.criteria:
                        ranking = CoherenceRanking(
                            criterion=criterion,
                            scores=_order_scores(scores, criterion),
                            n_skipped=n_skipped,
                        )
                        key = _config_key(fname, metric, strategy, size, criterion)
                        rankings[key] = ranking
                        row = {
                            "feature": fname,
                            "metric": metric,
                            "strategy": strategy,
                            "size": size,
                            "criterion": criterion,
                            "n_scored": len(ranking),
                            "n_skipped": n_skipped,
                        }
                        if strategy == "distance":
                            row["threshold"] = nbrs.meta.get("d")
                        if votes is not None:
                            rep = evaluation.evaluate(
                                votes, ranking.ordered_categories,
                                exact_limit=cheat_exact_limit,
                                cheating_score=cheat,
                            )
                            row.update({
                                "total_points": rep.total_points,
                                "rough_accuracy": rep.rough_accuracy,
                                "cheating_score": rep.cheating_score,
                                "improved_accuracy": rep.improved_accuracy,
                            })
                            for i, frac in enumerate(rep.agreement_histogram, 1):
                                row[f"agreement_{i}"] = frac
                        rows.append(row)
    return GridResult(rows=rows, rankings=rankings, skipped_configs=skipped)


def _neighbor_sets(fm, metric, strategy, sizes, workers, seed, exact_limit, sample_pairs):
    if strategy == "count":
        ks = sorted({int(s) for s in sizes})
        full = knn_by_count(fm, metric, max(ks), workers=workers)
        return [(k, slice_knn(full, k)) for k in ks]
    if strategy == "distance":
        targets = sorted({float(s) for s in sizes})
        ds = calibrate_thresholds(fm, metric, targets, exact_limit=exact_limit,
                                  sample_pairs=sample_pairs, seed=seed, workers=workers)
        widest = neighbors_by_distance(fm, metric, max(ds), workers=workers)
        return [(t, filter_by_distance(widest, d)) for t, d in zip(targets, ds)]
    raise ValueError(f"unknown closeness strategy {strategy!r}")
