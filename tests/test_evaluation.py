import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from catrank import evaluation
from catrank.data_model import VoteDataset
from catrank.evaluation import (
    best_cheating_score,
    build_preference_graph,
    evaluate,
    strong_components,
    _condensation_order,
    _exact_best_ordering,
    _heuristic_best_ordering,
    _ordering_score,
    _score_votes,
)

from conftest import categories_from_members
from oracles import (
    best_ordering_bruteforce,
    climb_reinsertions_by_list,
    co_prob,
    condensation_start_by_heap,
    exact_best_ordering_by_loop,
    preference_graph_by_loop,
    score_answer,
    score_votes_by_loop,
)


def make_votes(questions, answers):
    """questions: list of choice lists; answers: list of (q_index, voted_pos)."""
    return VoteDataset.from_lists([f"q{i}" for i in range(len(questions))], questions, answers)


def uniform_votes(rng, questions, per_question):
    answers = []
    for qi, q in enumerate(questions):
        for _ in range(per_question):
            answers.append((qi, int(rng.integers(len(q)))))
    return make_votes(questions, answers)


# ---------------------------------------------------------------------------
# answer scoring


def test_score_answer_rank_points():
    order = [0, 1, 2, 3, 4]
    positions = {cat: pos for pos, cat in enumerate(order)}
    choices = [0, 1, 2, 3, 4]
    assert score_answer(0, choices, positions, 5) == 1.0
    assert score_answer(1, choices, positions, 5) == 0.75
    assert score_answer(4, choices, positions, 5) == 0.0


def test_score_answer_unranked_fallback_order():
    # ranked: 7; unranked 3 and 5 fall after it, mutually by index
    positions = {7: 0}
    choices = [7, 3, 5]
    assert score_answer(7, choices, positions, 1) == 1.0
    assert score_answer(3, choices, positions, 1) == 0.5
    assert score_answer(5, choices, positions, 1) == 0.0


def test_score_answer_step_values():
    positions = {0: 0, 1: 1, 2: 2}
    for m, voted, want in ((3, 0, 1.0), (3, 1, 0.5), (3, 2, 0.0)):
        assert score_answer(voted, list(range(m)), positions, 3) == want


def test_rough_accuracy_consistent_votes():
    votes = make_votes(
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]],
        [(0, 0)] * 10 + [(1, 0)] * 10,
    )
    assert evaluate(votes, [0, 1, 2, 3, 4, 5]).rough_accuracy == 1.0


def test_rough_accuracy_uniform_votes_expect_half():
    rng = np.random.default_rng(31)
    questions = []
    for _ in range(120):
        questions.append(sorted(rng.choice(30, size=5, replace=False).tolist()))
    votes = uniform_votes(rng, questions, 10)
    acc = evaluate(votes, list(range(30))).rough_accuracy
    # each answer's points are uniform over {0,.25,.5,.75,1}: mean .5, sd ~.3536
    n = votes.n_answers
    assert abs(acc - 0.5) <= 3 * 0.3536 / math.sqrt(n)


def test_agreement_histogram_sums_to_one():
    rng = np.random.default_rng(32)
    questions = [sorted(rng.choice(20, size=5, replace=False).tolist()) for _ in range(40)]
    votes = uniform_votes(rng, questions, 5)
    hist = np.asarray(evaluate(votes, list(range(20))).agreement_histogram)
    assert len(hist) == 5
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_agreement_histogram_consistent_votes_all_first():
    votes = make_votes([[0, 1, 2, 3, 4]], [(0, 0)] * 8)
    hist = np.asarray(evaluate(votes, [0, 1, 2, 3, 4]).agreement_histogram)
    assert hist.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def sparse_votes(rng):
    """Questions of one choice count from 2 to 6 over sparse category ids,
    some ids unused."""
    n_ids, m = int(rng.integers(6, 40)), int(rng.integers(2, 7))
    questions = [rng.choice(n_ids, size=m, replace=False).tolist()
                 for _ in range(int(rng.integers(1, 30)))]
    answers = [(qi, int(rng.integers(len(q)))) for qi, q in enumerate(questions)
               for _ in range(int(rng.integers(0, 5)))]
    return make_votes(questions, answers or [(0, 0)]), n_ids


@pytest.mark.parametrize("call", [
    pytest.param(lambda votes, order: evaluate(votes, order).rough_accuracy,
                 id="rough_accuracy"),
    pytest.param(lambda votes, order: evaluate(votes, order).agreement_histogram,
                 id="agreement_histogram"),
    evaluate,
    lambda votes, order: build_preference_graph(votes),
    lambda votes, order: best_cheating_score(votes),
])
def test_votes_without_answers_are_rejected(call):
    with pytest.raises(ValueError, match="vote dataset has no answers"):
        call(make_votes([[0, 1]], []), [0, 1])


def test_score_votes_matches_answer_loop():
    rng = np.random.default_rng(40)
    for _ in range(60):
        votes, n_ids = sparse_votes(rng)
        perm = rng.permutation(n_ids).tolist()
        cut = int(rng.integers(0, n_ids))
        orders = [
            perm,
            perm[:cut],  # partial
            perm[:cut] + [n_ids + 3, n_ids],  # ids no question lists
            [-1] + perm[:cut] + [-n_ids, -2],  # negative ids must not wrap around
            perm[:cut] + perm[:2],  # a repeated id keeps its last place
            [],
        ]
        for order in orders:
            total, counts, fallback = _score_votes(votes, order)
            want_total, want_counts, want_fallback = score_votes_by_loop(votes, order)
            assert type(total) is float and total == want_total
            assert counts.dtype == want_counts.dtype
            assert counts.tobytes() == want_counts.tobytes()
            assert fallback == want_fallback


# ---------------------------------------------------------------------------
# preference graph


def test_preference_graph_unanimous_question():
    votes = make_votes([[3, 1, 4, 0, 2]], [(0, 0)] * 20)
    pref = build_preference_graph(votes)
    a = pref.categories.index(3)
    for other in (0, 1, 2, 4):
        b = pref.categories.index(other)
        assert pref.weights[a, b] == 20 * 0.25
        assert pref.weights[b, a] == 0
    winners = {(pref.categories[w], pref.categories[l])
               for w, l in zip(*np.nonzero(pref.weights > pref.weights.T))}
    assert winners == {(3, 0), (3, 1), (3, 2), (3, 4)}


def test_preference_graph_tie_no_majority():
    votes = make_votes([[0, 1]], [(0, 0)] * 10 + [(0, 1)] * 10)
    pref = build_preference_graph(votes)
    assert (pref.weights == pref.weights.T).all()


def test_preference_graph_weights_scale():
    votes = make_votes([[0, 1, 2]], [(0, 0)] * 4)
    pref = build_preference_graph(votes)
    a = pref.categories.index(0)
    b = pref.categories.index(1)
    assert pref.weights[a, b] == pytest.approx(4 * 0.5)


def test_preference_graph_matches_answer_loop():
    rng = np.random.default_rng(41)
    for _ in range(60):
        votes, _ = sparse_votes(rng)
        pref = build_preference_graph(votes)
        cats, weights = preference_graph_by_loop(votes)
        assert pref.categories == cats
        assert pref.weights.tobytes() == weights.tobytes()


# ---------------------------------------------------------------------------
# cheating score


def test_cheating_score_consistent_votes_is_total():
    votes = make_votes(
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]],
        [(0, 0)] * 7 + [(1, 0)] * 7,
    )
    score, order = best_cheating_score(votes)
    assert score == pytest.approx(14.0)
    assert evaluate(votes, order).rough_accuracy == 1.0


def test_cheating_score_three_cycle():
    # A>B, B>C, C>A with equal weight: any order violates exactly one edge
    votes = make_votes(
        [[0, 1], [1, 2], [2, 0]],
        [(0, 0), (1, 0), (2, 0)],
    )
    score, _ = best_cheating_score(votes)
    assert score == pytest.approx(2.0)
    brute, _ = best_ordering_bruteforce(build_preference_graph(votes).weights)
    assert score == pytest.approx(brute)
    pref = build_preference_graph(votes)
    h_score, _ = _heuristic_best_ordering(pref.weights)
    assert h_score == pytest.approx(brute)


@pytest.mark.parametrize("k, exact", [(10, True), (18, True), (19, False)])
def test_cheating_score_is_exact_up_to_the_hard_cap(monkeypatch, k, exact):
    calls = []

    def spy(weights):
        calls.append(len(weights))
        return real(weights)

    real = evaluation._exact_best_ordering
    monkeypatch.setattr(evaluation, "_exact_best_ordering", spy)
    rng = np.random.default_rng(k)
    votes = uniform_votes(rng, [[i, (i + 1) % k, (i + 3) % k] for i in range(k)], 3)
    _, order = best_cheating_score(votes)
    assert calls == ([k] if exact else [])
    assert sorted(order) == list(range(k))


def random_votes(rng, n_cats, n_questions, m, per_question):
    questions = []
    for _ in range(n_questions):
        questions.append(sorted(rng.choice(n_cats, size=m, replace=False).tolist()))
    return uniform_votes(rng, questions, per_question)


def test_exact_ordering_matches_bruteforce():
    rng = np.random.default_rng(33)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        w = rng.random((k, k))
        np.fill_diagonal(w, 0.0)
        got_score, got_order = _exact_best_ordering(w)
        want_score, _ = best_ordering_bruteforce(w)
        assert got_score == pytest.approx(want_score, rel=1e-12)
        assert _ordering_score(w, got_order) == pytest.approx(got_score, rel=1e-12)


def test_exact_ordering_matches_subset_loop():
    # integer thirds make many tied sums and tied orders
    rng = np.random.default_rng(42)
    for k in range(1, 13):
        for _ in range(2 if k > 9 else 5):
            for w in (rng.random((k, k)), rng.integers(0, 4, (k, k)) / 3):
                np.fill_diagonal(w, 0.0)
                assert _exact_best_ordering(w) == exact_best_ordering_by_loop(w)


def _partition(labels):
    return sorted(np.flatnonzero(labels == c).tolist() for c in np.unique(labels))


def _digraphs():
    rng = np.random.default_rng(4)
    yield np.zeros((0, 0), dtype=np.int8)
    yield np.zeros((1, 1), dtype=np.int8)
    yield np.ones((1, 1), dtype=np.int8)  # a self-loop
    yield np.ones((7, 7), dtype=np.int8)  # complete: one component
    yield np.triu(np.ones((9, 9), dtype=np.int8), 1)  # acyclic: singletons
    yield np.eye(6, k=1, dtype=np.int8) + np.eye(6, k=-5, dtype=np.int8)  # one cycle
    for _ in range(300):
        k = int(rng.integers(1, 80))
        yield (rng.random((k, k)) < rng.uniform(0.0, 0.15)).astype(np.int8)
    for k in (40, 200):  # at most one direction per pair, as a strict majority
        adj = rng.random((k, k)) < 0.5
        yield (adj & ~adj.T).astype(np.int8)


def test_strong_components_partition_equals_scipy():
    for adj in _digraphs():
        count, labels = strong_components(adj)
        want_count, want = connected_components(csr_matrix(adj), directed=True,
                                                 connection="strong")
        assert count == want_count
        assert count == len(labels) == 0 or labels.min() == 0 and labels.max() == count - 1
        assert _partition(labels) == _partition(want)
        # numbered by lowest vertex: labels first appear as 0, 1, 2, ...
        first = np.unique(labels, return_index=True)[1]
        assert labels[np.sort(first)].tolist() == list(range(count))


def test_condensation_order_matches_heap_kahn():
    # floor-rounded weights tie many pairs and margins, sparse cells leave
    # many components, and per-cell 1/(m - 1) mixes question sizes
    rng = np.random.default_rng(22)
    for _ in range(60):
        k = int(rng.integers(19, 201))
        w = np.floor(rng.random((k, k)) * rng.uniform(1, 4)) / rng.integers(1, 5, (k, k))
        w *= rng.random((k, k)) < rng.uniform(0.005, 0.2)
        np.fill_diagonal(w, 0.0)
        margin = w.sum(axis=1) - w.sum(axis=0)
        got = np.lexsort((np.arange(k), -margin, _condensation_order(w)))
        assert got.tolist() == condensation_start_by_heap(w)


def _climb_weights(rng, kind: str, k: int) -> np.ndarray:
    if kind == "float":
        w = rng.random((k, k))
    elif kind == "sparse":
        w = rng.random((k, k)) * (rng.random((k, k)) < rng.uniform(0.02, 0.3))
    else:  # whole thirds: exact ties between moves, their sums rounded
        w = rng.integers(0, 4, (k, k)) / 3
    np.fill_diagonal(w, 0.0)  # a question never repeats a choice
    return w


@pytest.mark.parametrize("kind", ["float", "sparse", "thirds"])
def test_climb_matches_list_climb_from_every_start(monkeypatch, kind):
    # the array-held climb against the list-rebuilding reference, from each
    # of the heuristic's four starts
    climbs = []
    real = evaluation._climb_reinsertions

    def recorded(weights, start):
        climbs.append((weights, np.array(start).tolist(), real(weights, start)))
        return climbs[-1][2]

    monkeypatch.setattr(evaluation, "_climb_reinsertions", recorded)
    rng = np.random.default_rng(["float", "sparse", "thirds"].index(kind))
    for k in [1, 2, 3] * 4 + rng.integers(4, 61, 78).tolist():
        _heuristic_best_ordering(_climb_weights(rng, kind, k))
    assert len(climbs) == 4 * 90
    for weights, start, got in climbs:
        assert got == [int(x) for x in climb_reinsertions_by_list(weights, start)]


def test_heuristic_matches_bruteforce_small_instances():
    rng = np.random.default_rng(34)
    hits = 0
    trials = 60
    for _ in range(trials):
        n_cats = int(rng.integers(4, 8))
        votes = random_votes(rng, n_cats, n_questions=int(rng.integers(4, 10)),
                             m=3, per_question=int(rng.integers(2, 6)))
        pref = build_preference_graph(votes)
        h_score, h_order = _heuristic_best_ordering(pref.weights)
        b_score, _ = best_ordering_bruteforce(pref.weights)
        assert _ordering_score(pref.weights, h_order) == pytest.approx(h_score)
        assert h_score >= 0.98 * b_score  # never far off, even when not optimal
        if abs(h_score - b_score) <= 1e-9:
            hits += 1
    assert hits >= math.ceil(0.98 * trials), f"heuristic optimal on {hits}/{trials}"


def test_heuristic_condenses_on_the_weight_majority():
    # Category 1 beats 4 in two answers of 4- and 5-choice questions (1/3 and
    # 1/4 point) and loses to it in one 2-choice answer (1 point): the answer
    # majority says 1 -> 4, the weight majority 4 -> 1. Condensing on answer
    # counts instead gives 31/6 points, below the optimum of 16/3. A vote set
    # has one m, so the weights of one set per m are summed over categories 0-4.
    weights = np.zeros((5, 5))
    for votes in (make_votes([[3, 2, 1, 4]], [(0, 1), (0, 2)]),
                  make_votes([[1, 4, 0, 3, 2]], [(0, 2), (0, 0)]),
                  make_votes([[4, 1], [2, 0]], [(0, 0), (1, 0), (1, 0)])):
        pref = build_preference_graph(votes)
        weights[np.ix_(pref.categories, pref.categories)] += pref.weights
    assert weights[4, 1] == 1.0 and weights[1, 4] == 1 / 3 + 1 / 4
    b_score, _ = best_ordering_bruteforce(weights)
    h_score, h_order = _heuristic_best_ordering(weights)
    assert h_score == pytest.approx(b_score)
    assert _ordering_score(weights, h_order) == pytest.approx(b_score)


def test_cheating_dominates_random_rankings():
    rng = np.random.default_rng(35)
    votes = random_votes(rng, 30, n_questions=60, m=5, per_question=6)
    cheat, _ = best_cheating_score(votes)
    cats = list(range(30))
    for _ in range(50):
        order = list(rng.permutation(cats))
        total, _, _ = _score_votes(votes, order)
        assert cheat >= total - 1e-9


# ---------------------------------------------------------------------------
# improved accuracy


def test_improved_accuracy_of_cheating_order_is_one():
    rng = np.random.default_rng(36)
    votes = random_votes(rng, 6, n_questions=8, m=3, per_question=4)
    _, order = best_cheating_score(votes)
    assert evaluate(votes, order).improved_accuracy == pytest.approx(1.0)


def test_improved_accuracy_never_below_rough_when_conflicts_exist():
    rng = np.random.default_rng(37)
    votes = random_votes(rng, 8, n_questions=12, m=4, per_question=5)
    order = list(range(8))
    rep = evaluate(votes, order)
    assert rep.improved_accuracy >= rep.rough_accuracy


def test_improved_accuracy_all_fallback_is_deterministic():
    votes = make_votes([[2, 5, 9]], [(0, 0)] * 3)
    # ranking shares no category with the votes: fallback order is by index,
    # so voting 2 (lowest index) wins both comparisons
    acc1 = evaluate(votes, [100, 101]).improved_accuracy
    acc2 = evaluate(votes, [100, 101]).improved_accuracy
    assert acc1 == acc2 == pytest.approx(1.0)


def test_evaluate_report_fields():
    rng = np.random.default_rng(38)
    votes = random_votes(rng, 10, n_questions=15, m=5, per_question=4)
    rep = evaluate(votes, list(range(10)))
    assert rep.n_answers == votes.n_answers
    assert 0.0 <= rep.rough_accuracy <= 1.0
    assert rep.improved_accuracy >= rep.rough_accuracy
    assert sum(rep.agreement_histogram) == pytest.approx(1.0)
    assert rep.unranked_fallback_count == 0
    assert rep.total_points <= rep.n_answers


def test_evaluate_counts_fallback_answers():
    votes = make_votes([[0, 1, 2], [3, 4, 5]], [(0, 0), (1, 1)])
    rep = evaluate(votes, [0, 1, 2])  # second question entirely unranked
    assert rep.unranked_fallback_count == 1


# ---------------------------------------------------------------------------
# co-prob


def test_co_prob_full_overlap():
    votes = make_votes([[0, 1, 2], [0, 1, 3]], [(0, 0), (1, 0)])
    assert co_prob(0, 1, votes=votes) == pytest.approx(1.0)


def test_co_prob_geometric_mean():
    # a appears in 4 questions, b in 3, together in 3: P(b|a)=0.75, P(a|b)=1
    questions = [[0, 1, 9], [0, 1, 8], [0, 1, 7], [0, 5, 6]]
    votes = make_votes(questions, [(i, 0) for i in range(4)])
    assert co_prob(0, 1, votes=votes) == pytest.approx(math.sqrt(0.75), abs=1e-4)
    assert co_prob(0, 1, votes=votes) == pytest.approx(0.8660, abs=1e-4)


def test_co_prob_disjoint_and_none():
    votes = make_votes([[0, 1, 2], [3, 4, 5]], [(0, 0), (1, 0)])
    assert co_prob(0, 3, votes=votes) == 0.0
    assert co_prob(0, 99, votes=votes) is None


def test_co_prob_symmetric():
    rng = np.random.default_rng(39)
    votes = random_votes(rng, 12, n_questions=20, m=4, per_question=2)
    for _ in range(20):
        a, b = rng.choice(12, size=2, replace=False).tolist()
        assert co_prob(a, b, votes=votes) == co_prob(b, a, votes=votes)


def test_co_prob_from_entity_membership():
    cats = categories_from_members([[0, 1, 2, 3], [2, 3], [4]], 6)
    # P(1|0) = 2/4, P(0|1) = 1
    assert co_prob(0, 1, cats=cats) == pytest.approx(math.sqrt(0.5))
    assert co_prob(0, 2, cats=cats) == 0.0
