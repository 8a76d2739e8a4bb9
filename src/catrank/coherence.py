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
far below double-precision underflow still rank correctly. Both steps are
numpy copies of scipy 1.17's ``gammaln`` (on integers) and ``logsumexp``
that return the same bits; the tests hold them to scipy.

A scoring pass works in array passes, not one pass per category: inside
counts by blocks of whole categories through a (block categories × n)
membership table, every distinct (size, C, G) tail at once with the log-pmf
elements of runs of keys end to end, and per-category sums as prefix sums at
category bounds. Every float sum over one tail's or one category's values is
a row sum of a 2-D array, which numpy adds up as it adds up the same values
in 1-D (``np.add.reduceat`` and zero padding do not). So each tail equals
the one-tail-at-a-time reference ``binomial_tail`` of the tests' oracles bit
for bit, and each score is the one the category gets when scored alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, metrics
from .data_model import (
    CRITERIA,
    DISTRIBUTION_ONLY_METRICS,
    METRICS,
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
    check_targets,
    filter_by_distance,
    knn_by_count,
    neighbors_by_distance,
    shared_sweep,
    slice_knn,
)

# Above this log value the observer tails are averaged in plain linear
# space; below it exp() would underflow and the mean moves to log space.
_LINEAR_MEAN_FLOOR = -700.0

# The inside counts of a block of categories touch at most this many
# membership table cells and neighbor entries together (1 MB per int64
# temporary), or one category's.
_INSIDE_ELEMENTS = 2**17

# cephes lgam: log(sqrt(2 pi)) and the Stirling-series coefficients it uses
# from 13 up to 1,000 (highest power first)
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)


def log_gamma_table(top: int) -> np.ndarray:
    """ln Γ(x) for the integers x = 0..top, bit for bit as scipy 1.17's
    ``gammaln`` (cephes ``lgam``) gives them: below 13 the log of the exact
    product (x-1)!, from 13 on Stirling's form with cephes' five-term
    correction, or its three-term short form from 1,000 on."""
    table = np.empty(top + 1, dtype=np.float64)
    table[0] = math.inf
    for x in range(1, min(top, 12) + 1):
        table[x] = math.log(math.factorial(x - 1))
    if top < 13:
        return table
    x = np.arange(13, top + 1, dtype=np.float64)
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), np.float64, len(x)) - x + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full_like(p, _STIRLING[0])
    for coef in _STIRLING[1:]:
        poly = poly * p + coef
    short = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    table[13:] = q + np.where(x < 1000.0, poly, short) / x
    return table


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) over ``axis`` (all of ``a`` when None), by the steps
    of scipy 1.17's ``logsumexp``, so that it returns the same bits: the
    maxima leave the sum and are counted as m, the rest is summed shifted by
    the maximum and divided by m, and log1p(s) + log(m) + max is returned."""
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True)
    tied = a == top
    m = np.sum(tied, axis=axis, keepdims=True, dtype=np.float64)
    shift = np.where(np.isfinite(top), top, 0.0)
    s = np.sum(np.exp(np.where(tied, -np.inf, a) - shift), axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.squeeze(np.log1p(s) + np.log(m) + top, axis=axis)


def binomial_log_tails(c: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log P(X >= g[i]) for X ~ Binomial(c[i], p[i]), for every i, bit for
    bit as the reference ``binomial_tail`` in the tests' oracles gives it.

    The live keys, ordered by tail length, go in runs of at most
    ``_BLOCK_ELEMENTS`` tail elements (or one key, when a single tail is
    longer); ``_log_tails_block`` computes each run's tails at once.
    """
    bad = (g < 0) | (g > c) | ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        at = int(bad.argmax())
        if g[at] < 0 or g[at] > c[at]:
            raise ValueError(f"need 0 <= g <= c, got g={int(g[at])}, c={int(c[at])}")
        raise ValueError(f"p must lie in [0, 1], got {float(p[at])}")
    out = np.zeros(len(c), dtype=np.float64)
    out[(g > 0) & (p == 0.0)] = -math.inf
    live = np.flatnonzero((g > 0) & (p > 0.0) & (p < 1.0))
    live = live[np.argsort((c - g)[live], kind="stable")]  # grouped by tail length
    p_values, p_at = np.unique(p[live], return_inverse=True)
    log_p = np.array([math.log(q) for q in p_values.tolist()])[p_at]
    log_q = np.array([math.log1p(-q) for q in p_values.tolist()])[p_at]
    lgam = log_gamma_table(int(c[live].max()) + 1 if len(live) else 0)
    for lo, hi in _runs((c - g + 1)[live], _BLOCK_ELEMENTS):
        keys = live[lo:hi]
        out[keys] = _log_tails_block(c[keys], g[keys], log_p[lo:hi], log_q[lo:hi], lgam)
    return out


def _log_tails_block(c, g, log_p, log_q, lgam) -> np.ndarray:
    """The log tails of keys ordered by tail length, given log p and
    log(1 - p) per key: ``logsumexp``'s steps run on all the keys' log-pmf
    values end to end, and only the sums of the shifted exponentials go by
    tail length, as row sums of (keys, length) views, which give the bits of
    one tail's 1-D sum."""
    lengths = c - g + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    key = np.repeat(np.arange(len(c)), lengths)
    cs = c[key]
    xs = g[key] + (np.arange(ends[-1]) - starts[key])
    log_pmf = (
        lgam[cs + 1] - lgam[xs + 1] - lgam[cs - xs + 1]
        + xs * log_p[key] + (cs - xs) * log_q[key]
    )
    top = np.maximum.reduceat(log_pmf, starts)
    tied = log_pmf == top[key]
    m = np.add.reduceat(tied, starts, dtype=np.float64)
    shift = np.where(np.isfinite(top), top, 0.0)
    shifted = np.exp(np.where(tied, -np.inf, log_pmf) - shift[key])
    s = np.empty(len(c), dtype=np.float64)
    for lo, hi in _equal_runs(lengths):
        s[lo:hi] = shifted[starts[lo]:ends[hi - 1]].reshape(hi - lo, -1).sum(axis=1)
    s = np.where(s == 0, s, s / m)
    tails = np.log1p(s) + np.log(m) + top
    return np.where(tails < 0.0, tails, 0.0)  # min(0.0, tail), as binomial_tail


def _runs(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Bounds of consecutive items whose sizes add up to at most ``budget``,
    or of one item that alone exceeds it."""
    ends = np.cumsum(sizes)
    bounds = []
    lo = 0
    while lo < len(ends):
        before = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + budget, side="right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _equal_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Bounds of the runs of equal adjacent values."""
    starts = np.flatnonzero(np.diff(values, prepend=values[:1] - 1))
    return list(zip(starts.tolist(), np.append(starts[1:], len(values)).tolist()))


def p_cat(cats: CategoryIndex, cat: int, adjusted: bool = False) -> float:
    """Probability that a random entity belongs to the category.

    ``adjusted`` switches to (size-1)/(N-1), the without-replacement view of
    an observer who is itself a member; default matches size/N.
    """
    n = cats.n_entities
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


def _memberships(cats: CategoryIndex, cat_ids: np.ndarray) -> np.ndarray:
    """The members of the listed categories, category after category."""
    sizes = cats.members.lengths()[cat_ids]
    ends = np.cumsum(sizes)
    at = np.repeat(cats.members.indptr[cat_ids] - (ends - sizes), sizes)
    return cats.members.indices[at + np.arange(int(sizes.sum()))]


def _inside_counts(nbrs: NeighborSet, cats: CategoryIndex, cat_ids: list[int]) -> np.ndarray:
    """G of every membership: how many of the member's neighbors belong to
    the category, for the listed categories' members in order.

    Whole categories go in blocks: their members mark a (block categories
    × n) table, every member's neighbor ids, offset by its category's row,
    are looked up in it at once, and each count is a difference of the hits'
    prefix sums at the membership's bounds. A block holds at most
    ``_INSIDE_ELEMENTS`` table cells and neighbor entries together, or one
    category.
    """
    n = nbrs.n
    cat_ids = np.asarray(cat_ids, dtype=np.int64)
    sizes = cats.members.lengths()[cat_ids]
    members = _memberships(cats, cat_ids)
    c = nbrs.out_degrees()[members]
    member_at = np.concatenate(([0], np.cumsum(sizes)))
    entry_at = np.concatenate(([0], np.cumsum(c)))
    # where each member's neighbors start in nbrs.indices, less where they
    # start among the gathered entries
    shift = nbrs.indptr[members] - entry_at[:-1]
    blocks = _runs(entry_at[member_at[1:]] - entry_at[member_at[:-1]] + n, _INSIDE_ELEMENTS)
    table = np.zeros(max((hi - lo for lo, hi in blocks), default=0) * n, dtype=bool)
    inside = np.empty(len(members), dtype=np.int64)
    for lo, hi in blocks:
        m_lo, m_hi = int(member_at[lo]), int(member_at[hi])
        e_lo, e_hi = int(entry_at[m_lo]), int(entry_at[m_hi])
        rows = np.repeat(np.arange(hi - lo) * n, sizes[lo:hi])
        cells = rows + members[m_lo:m_hi]
        table[cells] = True
        cb = c[m_lo:m_hi]
        at = np.repeat(shift[m_lo:m_hi], cb)
        at += np.arange(e_lo, e_hi)
        ids = nbrs.indices[at]
        ids += np.repeat(rows, cb)
        hits = np.zeros(e_hi - e_lo + 1, dtype=np.int64)
        np.cumsum(table[ids], out=hits[1:])
        bounds = entry_at[m_lo:m_hi + 1] - e_lo
        inside[m_lo:m_hi] = hits[bounds[1:]] - hits[bounds[:-1]]
        table[cells] = False
    return inside


def score_categories(nbrs: NeighborSet, cats: CategoryIndex, min_size: int = 2,
                     adjusted_p: bool = False) -> tuple[list[CategoryScore], int]:
    """Conductance and surprise level of every category with at least
    ``min_size`` members, in one pass.

    Returns the scores (in category-index order) and the skipped count.
    Each member observes C close neighbors, G of them members. p depends
    only on the size, so each distinct (C, G, size) tail is computed once.
    Each category's sums are differences of prefix sums at its bounds; the
    linear means of categories with the same observer count are row means
    of one (categories, count) array, which give the bits of each category's
    own 1-D mean.
    """
    if min_size < 2:
        raise ValueError("min_size must be at least 2")
    if nbrs.n != cats.n_entities:
        raise ValueError("neighbor set and category index cover different universes")
    cat_ids = np.flatnonzero(cats.members.lengths() >= min_size)
    skipped = cats.n_categories - len(cat_ids)
    if not len(cat_ids):
        return [], skipped
    sizes = cats.members.lengths()[cat_ids]
    c_obs = nbrs.out_degrees()[_memberships(cats, cat_ids)]
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
    p_of_size = np.array([p_cat(cats, int(cat_ids[i]), adjusted=adjusted_p)
                          for i in first_cat.tolist()])
    logs = binomial_log_tails(distinct // span % span, distinct % span,
                              p_of_size[distinct // (span * span)])[which]

    ends = np.cumsum(sizes)
    starts = ends - sizes

    def per_category(values):
        at = np.concatenate(([0], np.cumsum(values)))
        return at[ends] - at[starts]

    n_obs = per_category(observed)
    obs_lo = np.concatenate(([0], np.cumsum(n_obs)))[:-1]
    surprise = np.ones(len(cat_ids))
    log_surprise = np.zeros(len(cat_ids))
    seen = np.flatnonzero(n_obs)
    top = np.maximum.reduceat(logs, obs_lo[seen]) if len(seen) else logs[:0]
    in_linear = top > _LINEAR_MEAN_FLOOR
    linear = seen[in_linear]
    linear = linear[np.argsort(n_obs[linear], kind="stable")]  # grouped by count
    for lo, hi in _equal_runs(n_obs[linear]):
        rows = linear[lo:hi]
        block = logs[obs_lo[rows, None] + np.arange(n_obs[rows[0]])]
        surprise[rows] = np.exp(block).mean(axis=1)
    # math.log, since np.log can differ from it in the last bit
    log_surprise[linear] = [min(0.0, math.log(s)) for s in surprise[linear].tolist()]
    for i in seen[~in_linear].tolist():
        arr = logs[obs_lo[i]:obs_lo[i] + n_obs[i]]
        log_mean = float(logsumexp(arr)) - math.log(arr.size)
        surprise[i], log_surprise[i] = math.exp(log_mean), min(0.0, log_mean)
    return [
        CategoryScore(
            category=cat,
            n_members=size,
            conductance=inside / total if total else None,
            surprise=s,
            log_surprise=log_s,
            n_observers_used=k,
        )
        for cat, size, inside, total, s, log_s, k in zip(
            cat_ids.tolist(), sizes.tolist(), per_category(g_obs).tolist(),
            per_category(c_obs).tolist(), surprise.tolist(), log_surprise.tolist(),
            n_obs.tolist())
    ], skipped


def _check_criterion(criterion: str):
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")


def _order_scores(scores: list[CategoryScore], criterion: str) -> list[CategoryScore]:
    if criterion == "conductance":
        # undefined conductance sorts after everything defined
        key = lambda s: (s.conductance is None, -(s.conductance or 0.0),
                         -s.n_members, s.category)
    else:
        key = lambda s: (s.log_surprise, -s.n_members, s.category)
    return sorted(scores, key=key)


def rank_categories(nbrs: NeighborSet, cats: CategoryIndex, criterion: str,
                    min_size: int = 2, adjusted_p: bool = False) -> CoherenceRanking:
    """Score and order all categories with at least ``min_size`` members."""
    _check_criterion(criterion)
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
    metrics: tuple[str, ...] = METRICS
    strategies: tuple[str, ...] = ("count", "distance")
    sizes: tuple[float, ...] = (5, 10, 25, 50, 100)
    criteria: tuple[str, ...] = CRITERIA
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
             exact_limit: int = DEFAULT_EXACT_LIMIT,
             sample_pairs: int = DEFAULT_SAMPLE_PAIRS) -> GridResult:
    """Run every valid menu combination, reusing work where possible.

    Neighbor sets are shared between the two criteria; count-strategy lists
    are computed once at the largest K and sliced; distance-strategy lists
    are computed once at the largest threshold and filtered; both
    strategies share one distance sweep per feature matrix and metric.
    """
    # the whole menu is checked before any neighbor search or cheating score
    for axis in ("metrics", "strategies", "sizes", "criteria"):
        values = getattr(menu, axis)
        if not values:
            raise ValueError(f"grid menu axis {axis!r} is empty")
        # equal sizes merge into one configuration; any other repeat would rerun one
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated and axis != "sizes":
            raise ValueError(f"grid menu axis {axis!r} repeats {repeated[0]!r}")
    for metric in menu.metrics:
        metrics.check_metric(metric)
    for strategy in menu.strategies:
        if strategy not in ("count", "distance"):
            raise ValueError(f"unknown closeness strategy {strategy!r}")
    for criterion in menu.criteria:
        _check_criterion(criterion)
    if menu.min_size < 2:
        raise ValueError("min_size must be at least 2")
    rows: list[dict] = []
    rankings: dict[str, CoherenceRanking] = {}
    skipped: list[dict] = []
    pairs = []
    for fname, fm in features.items():
        for metric in menu.metrics:
            if metric in DISTRIBUTION_ONLY_METRICS and fm.kind != "distribution":
                skipped.append({"feature": fname, "metric": metric,
                                "reason": "metric requires distribution features"})
            else:
                pairs.append((fname, fm, metric))
    if not pairs:
        raise ValueError("no valid feature/metric combination in the menu")
    if "count" in menu.strategies and not all(float(s).is_integer() and s >= 1
                                              for s in menu.sizes):
        raise ValueError("count sizes must be integers of at least 1")
    if "distance" in menu.strategies:
        targets = sorted({float(s) for s in menu.sizes})
        for _, fm, _ in pairs:
            check_targets(targets, fm.n_entities)
    cheat = None
    if votes is not None:
        cheat, _ = evaluation.best_cheating_score(votes)

    for fname, fm, metric in pairs:
        per_config = neighbor_sets(fm, metric, menu.strategies, menu.sizes, workers,
                                   seed, exact_limit, sample_pairs)
        for strategy, size, threshold, nbrs in per_config:
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
                    row["threshold"] = threshold
                if votes is not None:
                    rep = evaluation.evaluate(votes, ranking.ordered_categories,
                                              cheating_score=cheat)
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


def neighbor_sets(fm, metric, strategies, sizes, workers, seed, exact_limit, sample_pairs):
    """``(strategy, size, threshold, neighbor set)`` for each strategy in
    order and each distinct size, the threshold being the calibrated
    distance, or None for the count strategy. kNN, calibration and the
    distance lists share one distance sweep (``shared_sweep``)."""
    out = []
    with shared_sweep(fm, metric):
        for strategy in strategies:
            if strategy == "count":
                ks = sorted({int(s) for s in sizes})
                full = knn_by_count(fm, metric, max(ks), workers=workers)
                out += [(strategy, k, None, slice_knn(full, k)) for k in ks]
                continue
            targets = sorted({float(s) for s in sizes})
            ds = calibrate_thresholds(fm, metric, targets, exact_limit=exact_limit,
                                      sample_pairs=sample_pairs, seed=seed, workers=workers)
            widest = neighbors_by_distance(fm, metric, max(ds), workers=workers)
            out += [(strategy, t, d, filter_by_distance(widest, d))
                    for t, d in zip(targets, ds)]
    return out
