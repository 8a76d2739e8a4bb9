import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from catrank import coherence, evaluation, metrics, neighbors
from catrank.coherence import (
    GridMenu,
    binomial_log_tails,
    binomial_tail,
    log_gamma_table,
    logsumexp,
    p_cat,
    rank_categories,
    run_grid,
    score_categories,
)
from catrank.data_model import FeatureMatrix, VoteDataset
from catrank.neighbors import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_SAMPLE_PAIRS,
    NeighborSet,
    calibrate_thresholds,
    filter_by_distance,
    knn_by_count,
    neighbors_by_distance,
    slice_knn,
)

from conftest import categories_from_members, neighbor_set_from_lists, random_simplex
from oracles import (
    exact_binomial_tail,
    exact_binomial_tails_all_g,
    inside_counts_by_product,
    log_of_fraction,
    score_alone,
    score_categories_by_category,
)


# ---------------------------------------------------------------------------
# binomial tail


def test_tail_worked_values():
    assert binomial_tail(2, 2, 0.5)[0] == pytest.approx(0.25, abs=1e-12)
    assert binomial_tail(3, 2, 0.5)[0] == pytest.approx(0.5, abs=1e-12)


def test_tail_g_zero_is_exactly_one():
    linear, log = binomial_tail(7, 0, 0.3)
    assert linear == 1.0
    assert log == 0.0


def test_tail_complement_value():
    # P(X >= 1) = 1 - 0.8^3
    assert binomial_tail(3, 1, 0.2)[0] == pytest.approx(0.488, abs=1e-12)


def test_tail_invalid_args():
    with pytest.raises(ValueError):
        binomial_tail(3, 4, 0.5)
    with pytest.raises(ValueError):
        binomial_tail(3, 1, 1.5)


def test_tail_extreme_p():
    assert binomial_tail(5, 3, 0.0) == (0.0, -math.inf)
    assert binomial_tail(5, 3, 1.0) == (1.0, 0.0)


def test_tail_monotone_in_g():
    for p in (0.1, 0.5, 0.9):
        prev = math.inf
        for g in range(0, 21):
            linear, _ = binomial_tail(20, g, p)
            assert linear <= prev + 1e-15
            prev = linear


def test_tail_large_case_vs_exact_oracle():
    exact = exact_binomial_tail(1000, 900, Fraction(1, 10))
    _, log_tail = binomial_tail(1000, 900, 0.1)
    assert log_tail == pytest.approx(log_of_fraction(exact), rel=1e-9)


def test_tail_sweep_vs_exact_oracle():
    for c in (1, 2, 5, 17, 40):
        for p in (Fraction(1, 100), Fraction(1, 2), Fraction(9, 10)):
            tails = exact_binomial_tails_all_g(c, p)
            for g in range(c + 1):
                linear, log = binomial_tail(c, g, float(p))
                want = tails[g]
                assert linear == pytest.approx(float(want), rel=1e-9)
                if want > 0:
                    assert log == pytest.approx(log_of_fraction(want), rel=1e-9, abs=1e-12)


def _tail_keys():
    """Random (C, G, p) keys as one scoring pass meets them, plus the edges:
    G = 0, p = 1 (a category covering the universe), adjusted p, and C up
    to 420 with 1,500 keys sharing the tail length 400."""
    rng = np.random.default_rng(21)
    n = 1000
    sizes = rng.integers(2, n, 40)
    ps = np.concatenate([sizes / n, (sizes - 1) / (n - 1), [1.0, 0.5, 1e-300]])
    c = rng.integers(0, 401, 3000)
    g = (rng.random(3000) * (c + 1)).astype(np.int64)
    g[:200] = 0
    c_long = rng.integers(400, 421, 1500)
    return (np.concatenate([c, c_long]), np.concatenate([g, c_long - 399]),
            np.concatenate([rng.choice(ps, 3000), rng.choice(ps[:80], 1500)]))


@pytest.mark.parametrize("budget", [coherence._BLOCK_ELEMENTS, 1000, 1])
def test_batched_tails_equal_binomial_tail_bitwise(monkeypatch, budget):
    c, g, p = _tail_keys()
    want = np.array([binomial_tail(int(a), int(b), float(q))[1] for a, b, q in zip(c, g, p)])
    monkeypatch.setattr(coherence, "_BLOCK_ELEMENTS", budget)
    blocks = []  # the tail lengths of each block's keys
    block = coherence._log_tails_block

    def recording(c, g, *rest):
        blocks.append((c - g + 1).tolist())
        return block(c, g, *rest)

    monkeypatch.setattr(coherence, "_log_tails_block", recording)
    got = binomial_log_tails(c, g, p)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert all(sum(lengths) <= budget or len(lengths) == 1 for lengths in blocks)
    # the 1,500 keys of tail length 400 span several blocks at every budget
    assert sum(lengths.count(400) for lengths in blocks) >= 1500
    assert sum(1 for lengths in blocks if 400 in lengths) > 1


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_batched_tails_reject_p_outside_unit_interval(p):
    with pytest.raises(ValueError) as want:
        binomial_tail(5, 2, p)
    with pytest.raises(ValueError) as got:
        binomial_log_tails(np.array([5, 5]), np.array([1, 2]), np.array([0.5, p]))
    assert str(got.value) == str(want.value)


def test_log_gamma_table_equals_scipy_gammaln_bitwise():
    table = log_gamma_table(300_000)
    assert table.tobytes() == gammaln(np.arange(300_001, dtype=np.float64)).tobytes()
    for top in (0, 1, 12, 13, 999, 1000):  # every branch edge, short tables
        assert log_gamma_table(top).tobytes() == table[:top + 1].tobytes()


def _lse_rows():
    """Rows with tied maxima, single elements and -inf entries."""
    rng = np.random.default_rng(11)
    rows = [np.array([0.5]), np.array([-np.inf]), np.array([-np.inf, -np.inf, -np.inf]),
            np.array([2.0, 2.0, 2.0, 2.0]), np.array([-np.inf, 3.0, 3.0, -1.0])]
    for _ in range(2000):
        row = rng.normal(0.0, rng.choice([1.0, 30.0, 700.0]), rng.integers(1, 40))
        if rng.random() < 0.5:
            row = np.round(row)  # ties, the maximum among them
        row[rng.random(len(row)) < rng.choice([0.0, 0.3])] = -np.inf
        rows.append(row)
    return rows


def test_logsumexp_equals_scipy_bitwise():
    rows = _lse_rows()
    got = np.array([logsumexp(row) for row in rows])
    want = np.array([scipy_logsumexp(row) for row in rows])
    assert got.tobytes() == want.tobytes()
    for width in (1, 4, 17):
        block = np.stack([row[:width] for row in rows if len(row) >= width])
        assert logsumexp(block, axis=1).tobytes() == scipy_logsumexp(block, axis=1).tobytes()


# ---------------------------------------------------------------------------
# p_cat and conductance


def test_p_cat_half():
    cats = categories_from_members([[0, 1, 2, 3]], 8)
    assert p_cat(cats, 0) == 0.5


def test_p_cat_edges():
    cats = categories_from_members([[], list(range(6))], 6)
    assert p_cat(cats, 0) == 0.0
    assert p_cat(cats, 1) == 1.0


def test_p_cat_adjusted():
    cats = categories_from_members([[0, 1, 2, 3]], 9)
    assert p_cat(cats, 0, adjusted=True) == pytest.approx(3 / 8)


def test_conductance_fig4(fig4_instance):
    nbrs, cats = fig4_instance
    assert score_alone(0, nbrs, cats).conductance == pytest.approx(4 / 7, abs=1e-12)


def test_conductance_all_inside():
    lists = [[1], [0], [], []]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1]], 4)
    assert score_alone(0, nbrs, cats).conductance == 1.0


def test_conductance_none_inside():
    lists = [[2], [3], [], []]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1]], 4)
    assert score_alone(0, nbrs, cats).conductance == 0.0


def test_conductance_undefined_without_relationships():
    lists = [[], [], [0], []]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1]], 4)
    assert score_alone(0, nbrs, cats).conductance is None


def test_singleton_category_rejected_by_both_criteria():
    nbrs = neighbor_set_from_lists([[1], [0]])
    cats = categories_from_members([[0]], 2)
    with pytest.raises(ValueError, match="at least 2"):
        rank_categories(nbrs, cats, "conductance", min_size=1)
    with pytest.raises(ValueError, match="at least 2"):
        rank_categories(nbrs, cats, "surprise", min_size=1)


# ---------------------------------------------------------------------------
# surprise level


def test_surprise_fig4(fig4_instance):
    nbrs, cats = fig4_instance
    s = score_alone(0, nbrs, cats)
    linear, log, n_obs = s.surprise, s.log_surprise, s.n_observers_used
    assert linear == pytest.approx(0.375, abs=1e-12)
    assert log == pytest.approx(math.log(0.375), abs=1e-12)
    assert n_obs == 3


def test_surprise_whole_universe_category():
    lists = [[1, 2], [0, 2], [0, 1]]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1, 2]], 3)
    s = score_alone(0, nbrs, cats)
    linear, log, n_obs = s.surprise, s.log_surprise, s.n_observers_used
    assert linear == 1.0
    assert log == 0.0
    assert n_obs == 3


def test_surprise_all_observers_excluded():
    lists = [[], [], [0, 1], []]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1]], 4)
    s = score_alone(0, nbrs, cats)
    linear, log, n_obs = s.surprise, s.log_surprise, s.n_observers_used
    assert (linear, log, n_obs) == (1.0, 0.0, 0)


def exact_surprise(members, nbrs, n_entities) -> Fraction:
    p = Fraction(len(members), n_entities)
    member_set = set(members)
    tails = []
    for m in members:
        ids = nbrs.neighbors(m)[0].tolist()
        if not ids:
            continue
        g = sum(1 for x in ids if x in member_set)
        tails.append(exact_binomial_tail(len(ids), g, p))
    if not tails:
        return Fraction(1)
    return sum(tails, Fraction(0)) / len(tails)


def test_surprise_knn_category_vs_exact_oracle():
    # 20-entity universe, 5-member category whose k=4 neighbor lists stay inside
    lists = []
    members = [0, 1, 2, 3, 4]
    for v in range(20):
        if v in members:
            lists.append([m for m in members if m != v])
        else:
            lists.append([(v + 1) % 20, (v + 2) % 20, (v + 3) % 20, (v + 4) % 20])
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([members], 20)
    s = score_alone(0, nbrs, cats)
    linear, n_obs = s.surprise, s.n_observers_used
    want = exact_surprise(members, nbrs, 20)
    assert n_obs == 5
    assert linear == pytest.approx(float(want), rel=1e-9)


def test_surprise_random_instances_vs_exact_oracle():
    # several overlapping categories per instance, two of equal size (so they
    # share tail keys), scored in one batch and checked one by one
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(5, 31))
        sizes = rng.integers(2, n + 1, size=4)
        sizes[1] = sizes[0]
        member_lists = [sorted(rng.choice(n, size=int(s), replace=False).tolist())
                        for s in sizes]
        lists = []
        for v in range(n):
            others = [x for x in range(n) if x != v]
            deg = int(rng.integers(0, min(6, n - 1) + 1))
            lists.append(sorted(rng.choice(others, size=deg, replace=False).tolist()))
        lists[member_lists[2][0]] = []  # an observer with zero neighbors
        nbrs = neighbor_set_from_lists(lists)
        cats = categories_from_members(member_lists, n)
        scores, skipped = score_categories(nbrs, cats)
        assert skipped == 0
        assert [s.category for s in scores] == [0, 1, 2, 3]
        for s, members in zip(scores, member_lists):
            want = exact_surprise(members, nbrs, n)
            assert s.surprise == pytest.approx(float(want), rel=1e-9)
            assert s.log_surprise <= 0.0
            assert s.n_observers_used == sum(1 for m in members if lists[m])
            alone = score_alone(s.category, nbrs, cats)
            assert (alone.surprise, alone.log_surprise, alone.n_observers_used) == (
                s.surprise, s.log_surprise, s.n_observers_used)
            inside = sum(1 for m in members for x in lists[m] if x in members)
            total = sum(len(lists[m]) for m in members)
            assert s.conductance == (float(Fraction(inside, total)) if total else None)
            assert alone.conductance == s.conductance


def test_inside_counts_match_sparse_product():
    # overlapping categories of every size, in an order that is not by id,
    # over neighbor lists with empty rows and degrees up to n - 1
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        lists = []
        for v in range(n):
            others = [x for x in range(n) if x != v]
            deg = int(rng.integers(0, n)) if rng.random() > 0.2 else 0
            lists.append(sorted(rng.choice(others, size=deg, replace=False).tolist()))
        member_lists = [sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                          replace=False).tolist()) for _ in range(6)]
        nbrs = neighbor_set_from_lists(lists)
        cats = categories_from_members(member_lists, n)
        cat_ids = rng.permutation(6).tolist()
        got = coherence._inside_counts(nbrs, cats, cat_ids)
        assert got.tolist() == inside_counts_by_product(nbrs, cats, cat_ids).tolist()


def _score_bits(scores, skipped):
    return skipped, [(s.category, s.n_members,
                      None if s.conductance is None else s.conductance.hex(),
                      s.surprise.hex(), s.log_surprise.hex(), s.n_observers_used)
                     for s in scores]


# a clique of this many members in a universe of _DEEP_N entities: every
# member's tail is about 119 * log(120 / _DEEP_N), below the linear-mean floor
_DEEP_SIZE, _DEEP_N = 120, 100_000


@pytest.mark.parametrize("budget", [None, 1000, 1])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_score_categories_equal_per_category_oracle_bitwise(budget, data):
    # random neighbor lists with zero-degree observers, categories below
    # min_size and two of equal size (so they share tail keys), sometimes
    # beside a clique whose tails all fall below the linear-mean floor;
    # every field must carry the per-category oracle's bits at every budget
    n_small = data.draw(st.integers(2, 30), label="n_small")
    deep = data.draw(st.booleans(), label="deep")
    n = _DEEP_N if deep else n_small
    lists = [data.draw(st.lists(st.integers(0, n_small - 1).filter(lambda x, v=v: x != v),
                                max_size=8, unique=True), label=f"row {v}")
             for v in range(n_small)]
    member_lists = [data.draw(st.permutations(range(n_small)), label=f"cat {i}")
                    [:data.draw(st.integers(1, n_small), label=f"size {i}")]
                    for i in range(data.draw(st.integers(2, 6), label="n_cats"))]
    member_lists[1] = member_lists[1][:len(member_lists[0])]
    member_lists[1] += [v for v in range(n_small) if v not in member_lists[1]][
        :len(member_lists[0]) - len(member_lists[1])]
    lists[member_lists[0][0]] = []  # an observer with zero neighbors
    if deep:
        clique = list(range(n_small, n_small + _DEEP_SIZE))
        member_lists.append(clique)
        lists += [[u for u in clique if u != v] for v in clique]
    lengths = [len(row) for row in lists] + [0] * (n - len(lists))
    indices = np.array([u for row in lists for u in sorted(row)], dtype=np.int64)
    nbrs = NeighborSet(indptr=np.concatenate(([0], np.cumsum(lengths))), indices=indices,
                       distances=np.ones(len(indices)))
    cats = categories_from_members(member_lists, n)
    min_size = data.draw(st.integers(2, 4), label="min_size")
    adjusted_p = data.draw(st.booleans(), label="adjusted_p")
    want = score_categories_by_category(nbrs, cats, min_size, adjusted_p)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(coherence, "_INSIDE_ELEMENTS", budget)
            patch.setattr(coherence, "_BLOCK_ELEMENTS", budget)
        got = score_categories(nbrs, cats, min_size, adjusted_p)
    assert _score_bits(*got) == _score_bits(*want)
    if deep:
        assert got[0][-1].log_surprise < coherence._LINEAR_MEAN_FLOOR


def test_surprise_monotone_in_inside_count():
    # with C fixed, more inside neighbors never raises the tail
    cats = categories_from_members([[0, 1, 2, 3]], 12)
    p = p_cat(cats, 0)
    tails = [binomial_tail(5, g, p)[0] for g in range(6)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# ranking


def test_rank_two_cliques_beat_random_category():
    rng = np.random.default_rng(22)
    # clique-separating embeddings: two tight clusters in the plane
    rows = np.vstack([
        rng.normal(0.0, 0.05, size=(10, 2)),
        rng.normal(5.0, 0.05, size=(10, 2)),
    ])
    fm = FeatureMatrix(kind="point", rows=rows)
    nbrs = knn_by_count(fm, "l2", 3)
    random_members = sorted(rng.choice(20, size=10, replace=False).tolist())
    cats = categories_from_members(
        [list(range(10)), list(range(10, 20)), random_members], 20,
        names=["cliqueA", "cliqueB", "random"])
    for criterion in ("conductance", "surprise"):
        ranking = rank_categories(nbrs, cats, criterion)
        order = ranking.ordered_categories
        assert order.index(0) < order.index(2)
        assert order.index(1) < order.index(2)


def test_rank_all_singletons_errors():
    nbrs = neighbor_set_from_lists([[1], [0], [1]])
    cats = categories_from_members([[0], [1], [2]], 3)
    with pytest.raises(ValueError, match="no scorable"):
        rank_categories(nbrs, cats, "surprise")


def test_rank_rejects_unknown_criterion_before_scoring(monkeypatch):
    def no_scoring(*args, **kwargs):
        raise AssertionError("categories were scored before the criterion was checked")

    monkeypatch.setattr(coherence, "score_categories", no_scoring)
    nbrs = neighbor_set_from_lists([[1], [0], [1]])
    cats = categories_from_members([[0, 1], [2]], 3)
    with pytest.raises(ValueError, match="unknown criterion 'bogus'"):
        rank_categories(nbrs, cats, "bogus")


def test_rank_single_scorable_category():
    nbrs = neighbor_set_from_lists([[1], [0], [1]])
    cats = categories_from_members([[0, 1], [2]], 3)
    ranking = rank_categories(nbrs, cats, "surprise")
    assert len(ranking) == 1
    assert ranking.n_skipped == 1


def test_rank_criterion_contrast_small_vs_large_pure():
    # one large and one small category, both perfectly pure: conductance
    # ties (1.0) and prefers the larger; surprise favors the small one,
    # whose purity is harder to explain by chance
    n = 40
    big = list(range(20))
    small = list(range(20, 25))
    lists = []
    for v in range(n):
        if v in big:
            lists.append([m for m in big if m != v][:2])
        elif v in small:
            lists.append([m for m in small if m != v][:2])
        else:
            lists.append([])
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([big, small], n, names=["big", "small"])
    by_cond = rank_categories(nbrs, cats, "conductance").ordered_categories
    by_surp = rank_categories(nbrs, cats, "surprise").ordered_categories
    assert by_cond == [0, 1]  # equal purity: tie-break by size
    assert by_surp == [1, 0]  # smaller category is the bigger surprise
    # deterministic reruns
    assert rank_categories(nbrs, cats, "conductance").ordered_categories == by_cond
    assert rank_categories(nbrs, cats, "surprise").ordered_categories == by_surp


def test_rank_undefined_conductance_sorts_last():
    lists = [[1], [0], [], [], [5], [4]]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1], [2, 3], [4, 5]], 6)
    ranking = rank_categories(nbrs, cats, "conductance")
    assert ranking.ordered_categories[-1] == 1
    assert ranking.scores[-1].conductance is None


def test_min_size_validation():
    nbrs = neighbor_set_from_lists([[1], [0]])
    cats = categories_from_members([[0, 1]], 2)
    with pytest.raises(ValueError, match="min_size"):
        score_categories(nbrs, cats, min_size=1)


# ---------------------------------------------------------------------------
# grid


def grid_fixture(rng, n=120, dim=6):
    rows = random_simplex(rng, n, dim)
    fm = FeatureMatrix(kind="distribution", rows=rows)
    members = [
        sorted(rng.choice(n, size=8, replace=False).tolist()),
        sorted(rng.choice(n, size=12, replace=False).tolist()),
        sorted(rng.choice(n, size=5, replace=False).tolist()),
    ]
    cats = categories_from_members(members, n)
    return fm, cats


def test_grid_point_features_filter_kl_js():
    rng = np.random.default_rng(23)
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((30, 4)))
    cats = categories_from_members([[0, 1, 2], [3, 4, 5]], 30)
    menu = GridMenu(metrics=("l1", "l2", "cosine", "kl", "js"),
                    strategies=("count",), sizes=(3,), criteria=("surprise",))
    result = run_grid({"emb": fm}, cats, menu)
    metrics_run = {r["metric"] for r in result.rows}
    assert metrics_run == {"l1", "l2", "cosine"}
    assert {s["metric"] for s in result.skipped_configs} == {"kl", "js"}


def test_grid_full_menu_is_100_configs():
    rng = np.random.default_rng(24)
    fm, cats = grid_fixture(rng)
    result = run_grid({"topics": fm}, cats, GridMenu())
    assert len(result.rows) == 100
    assert len(result.rankings) == 100


def test_grid_empty_valid_set_errors():
    rng = np.random.default_rng(25)
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((10, 3)))
    cats = categories_from_members([[0, 1]], 10)
    menu = GridMenu(metrics=("kl", "js"), strategies=("count",), sizes=(2,))
    with pytest.raises(ValueError, match="no valid"):
        run_grid({"emb": fm}, cats, menu)


def test_grid_deterministic_rerun():
    rng = np.random.default_rng(26)
    fm, cats = grid_fixture(rng, n=60)
    menu = GridMenu(metrics=("l2", "js"), strategies=("count", "distance"),
                    sizes=(3, 7), criteria=("conductance", "surprise"))
    a = run_grid({"f": fm}, cats, menu, seed=5)
    b = run_grid({"f": fm}, cats, menu, seed=5)
    assert a.rows == b.rows
    assert list(a.rankings) == list(b.rankings)
    for key in a.rankings:
        assert a.rankings[key].ordered_categories == b.rankings[key].ordered_categories


def test_grid_reuses_neighbor_sets_consistently():
    # sliced-k and filtered-distance results must match direct computation
    rng = np.random.default_rng(27)
    fm, cats = grid_fixture(rng, n=50)
    menu = GridMenu(metrics=("l1",), strategies=("count",), sizes=(3, 9),
                    criteria=("surprise",))
    result = run_grid({"f": fm}, cats, menu)
    direct = knn_by_count(fm, "l1", 3)
    ranking = rank_categories(direct, cats, "surprise")
    key = "f|l1|count|3|surprise"
    assert result.rankings[key].ordered_categories == ranking.ordered_categories


def _record_blocks(monkeypatch) -> list:
    """(metric, first query row, query rows, first column) of every
    ``metrics.block`` call from here on."""
    calls = []
    block = metrics.block

    def recording(metric, rows, q, prep, start=0):
        calls.append((metric, int(q[0]), len(q), start))
        return block(metric, rows, q, prep, start)

    monkeypatch.setattr(metrics, "block", recording)
    return calls


def _sets(fm, metric, workers):
    return coherence.neighbor_sets(fm, metric, ("count", "distance"), (3, 7.5), workers,
                                   0, DEFAULT_EXACT_LIMIT, DEFAULT_SAMPLE_PAIRS)


def _direct_sets(fm, metric, workers):
    """What ``_sets`` gives, from the three searches called on their own."""
    full = knn_by_count(fm, metric, 7, workers=workers)
    ds = calibrate_thresholds(fm, metric, [3.0, 7.5], workers=workers)
    widest = neighbors_by_distance(fm, metric, ds[-1], workers=workers)
    return ([("count", k, None, slice_knn(full, k)) for k in (3, 7)]
            + [("distance", t, d, filter_by_distance(widest, d))
               for t, d in zip((3.0, 7.5), ds)])


def _as_bytes(sets):
    return [(strategy, size, threshold, nbrs.indptr.tobytes(), nbrs.indices.tobytes(),
             nbrs.distances.tobytes()) for strategy, size, threshold, nbrs in sets]


@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "kl", "js"])
def test_neighbor_sets_compute_each_strip_once(monkeypatch, metric):
    # n = 90 at dim 6 splits the queries into 8 chunks
    fm, _ = grid_fixture(np.random.default_rng(40), n=90)
    calls = _record_blocks(monkeypatch)
    _direct_sets(fm, metric, workers=2)
    direct = Counter(calls)
    calls.clear()
    _sets(fm, metric, workers=2)
    shared = Counter(calls)
    # kNN, exact calibration and the distance lists each take every block
    assert len(direct) == 8 and set(direct.values()) == {3}
    if metric in metrics.GEMM_METRICS:
        assert shared == direct
    else:
        assert shared == Counter(set(direct))


@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
def test_neighbor_sets_bytes_do_not_depend_on_kept_strips(monkeypatch, metric):
    fm, _ = grid_fixture(np.random.default_rng(41), n=90)
    expected = _as_bytes(_direct_sets(fm, metric, workers=1))
    calls = _record_blocks(monkeypatch)
    # every strip fits the default budget; 1,080 + 972 values fit the first two
    # strips (12 rows each, from column 0 and 12); 0 keeps none
    for budget, kept in ((neighbors._KEPT_STRIP_ELEMENTS, 8), (12 * 90 + 12 * 78, 2), (0, 0)):
        monkeypatch.setattr(neighbors, "_KEPT_STRIP_ELEMENTS", budget)
        for workers in (1, 2):
            calls.clear()
            assert _as_bytes(_sets(fm, metric, workers)) == expected, (budget, workers)
            counts = Counter(calls)
            assert len(counts) == 8 and sum(n == 1 for n in counts.values()) == kept
            assert set(counts.values()) <= {1, 3}


def test_neighbor_sets_threads_fill_kept_strips_without_loss():
    # more workers than cores and a short switch interval: a strip lost or
    # read before its thread filled it would change the bytes
    fm, _ = grid_fixture(np.random.default_rng(43), n=90)
    expected = _as_bytes(_direct_sets(fm, "js", workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _as_bytes(_sets(fm, "js", workers=5)) == expected
    finally:
        sys.setswitchinterval(interval)


def test_grid_keeps_no_strip_between_calls(monkeypatch):
    fm, cats = grid_fixture(np.random.default_rng(42), n=90)
    menu = GridMenu(metrics=("l2", "cosine", "js"), sizes=(3, 7), criteria=("surprise",))
    calls = _record_blocks(monkeypatch)
    first = run_grid({"f": fm}, cats, menu, workers=2)
    once = list(calls)
    calls.clear()
    second = run_grid({"f": fm}, cats, menu, workers=2)
    assert once and sorted(calls) == sorted(once)
    assert first.rows == second.rows


@pytest.mark.parametrize("size", [2.5, 0, -1.0, math.inf, math.nan])
def test_grid_rejects_count_size_that_is_not_a_positive_integer(size):
    rng = np.random.default_rng(28)
    fm, cats = grid_fixture(rng, n=30)
    menu = GridMenu(metrics=("l2",), strategies=("count",), sizes=(3, size),
                    criteria=("surprise",))
    with pytest.raises(ValueError, match="count sizes must be integers of at least 1"):
        run_grid({"f": fm}, cats, menu)


def test_grid_takes_integral_float_count_size_as_k():
    rng = np.random.default_rng(29)
    fm, cats = grid_fixture(rng, n=30)
    menu = GridMenu(metrics=("l2",), strategies=("count",), sizes=(3.0,),
                    criteria=("surprise",))
    (row,) = run_grid({"f": fm}, cats, menu).rows
    assert row["size"] == 3 and type(row["size"]) is int


@pytest.mark.parametrize("bad, message", [
    ({"criteria": ("conductance", "bogus")}, "unknown criterion 'bogus'"),
    ({"strategies": ("count", "bogus")}, "unknown closeness strategy 'bogus'"),
    ({"metrics": ("l1", "l3")}, "unknown metric 'l3'"),
    ({"min_size": 1}, "min_size must be at least 2"),
    ({"metrics": ()}, "grid menu axis 'metrics' is empty"),
    ({"strategies": ()}, "grid menu axis 'strategies' is empty"),
    ({"sizes": ()}, "grid menu axis 'sizes' is empty"),
    ({"criteria": ()}, "grid menu axis 'criteria' is empty"),
    ({"metrics": ("l1", "l2", "l1")}, "grid menu axis 'metrics' repeats 'l1'"),
    ({"strategies": ("count", "count")}, "grid menu axis 'strategies' repeats 'count'"),
    ({"criteria": ("surprise", "conductance", "surprise")},
     "grid menu axis 'criteria' repeats 'surprise'"),
    ({"sizes": (3, 40)},
     r"target average neighbor count 40\.0 must be positive and below n-1 = 29"),
])
def test_grid_rejects_bad_menu_before_any_work(monkeypatch, bad, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the menu was checked")

    for name in ("knn_by_count", "calibrate_thresholds", "neighbors_by_distance"):
        monkeypatch.setattr(coherence, name, no_work)
    monkeypatch.setattr(evaluation, "best_cheating_score", no_work)
    rng = np.random.default_rng(30)
    fm, cats = grid_fixture(rng, n=30)
    votes = VoteDataset.from_lists(["q"], [[0, 1, 2]], [(0, 0)])
    menu = GridMenu(**{"metrics": ("l1", "l2"), "strategies": ("count", "distance"),
                       "sizes": (3,), **bad})
    with pytest.raises(ValueError, match=message):
        run_grid({"f": fm}, cats, menu, votes=votes)
