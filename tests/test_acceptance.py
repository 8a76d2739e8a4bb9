"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import xlogy

from catrank import metrics
from catrank.cli import main as cli_main
from catrank.coherence import binomial_log_tails, rank_categories
from catrank.data_model import FeatureMatrix
from catrank.embeddings import (
    WalkConfig,
    build_huffman,
    hs_pair_loss,
)
from catrank.evaluation import (
    _heuristic_best_ordering,
    _ordering_score,
    _score_votes,
    best_cheating_score,
    build_preference_graph,
    evaluate,
)
from catrank.neighbors import calibrate_thresholds, knn_by_count, neighbors_by_distance

from conftest import categories_from_members, embed_graph, random_simplex, two_cliques_graph
from oracles import (
    best_ordering_bruteforce,
    exact_binomial_tails_all_g,
    hs_pair_grads,
    log_of_fraction,
    score_alone,
    score_answer,
)
from test_cli import make_dataset
from test_evaluation import make_votes, random_votes


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


# ---------------------------------------------------------------------------


def test_criterion_01_fig4_worked_example(fig4_instance):
    nbrs, cats = fig4_instance
    score = score_alone(0, nbrs, cats)
    cond = score.conductance
    s_linear, s_log, n_obs = score.surprise, score.log_surprise, score.n_observers_used
    ok = (
        abs(cond - 4 / 7) <= 1e-12
        and abs(s_linear - 0.375) <= 1e-12
        and abs(s_log - math.log(0.375)) <= 1e-9
        and n_obs == 3
    )
    report(1, "fig4-conductance-and-surprise", ok,
           f"conductance={cond!r}, surprise={s_linear!r}")


def test_criterion_02_binomial_tail_sweep():
    # relative error of the log is ill-posed where the log vanishes (tail
    # of 1 - 1e-14 has log ~ -1e-14), so near zero an absolute bound of
    # 1e-12 stands in -- equivalent to 1e-12 relative on the linear value,
    # tighter than the 1e-9 the criterion asks for
    worst = 0.0
    checked = 0
    for c in list(range(1, 51)) + [1000]:
        for p in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            exact = exact_binomial_tails_all_g(c, p)
            # the batched tails scoring runs, every g at once; the linear
            # value is exp of the log, as the reference binomial_tail takes it
            logs = binomial_log_tails(np.full(c + 1, c), np.arange(c + 1),
                                      np.full(c + 1, float(p))).tolist()
            for g in range(c + 1):
                log = logs[g]
                linear = math.exp(log)
                want = exact[g]
                want_f = float(want)
                if want_f > 0.0:
                    worst = max(worst, abs(linear - want_f) / want_f)
                want_log = log_of_fraction(want)
                log_err = abs(log - want_log)
                if log_err > 1e-12:
                    worst = max(worst, log_err / abs(want_log))
                checked += 1
    ok = worst <= 1e-9
    report(2, "binomial-tail-vs-exact-oracle", ok,
           f"{checked} cases, worst rel err {worst:.3g}")


def test_criterion_03_metric_axioms():
    rng = np.random.default_rng(103)
    ok = True
    # identity
    x = rng.random(12)
    p = x / x.sum()
    ok &= metrics.distance("l1", x, x) == 0.0
    ok &= metrics.distance("l2", x, x) == 0.0
    ok &= metrics.distance("cosine", x, x) <= 1e-12
    ok &= metrics.distance("js", p, p) == 0.0
    ok &= abs(metrics.distance("kl", p, p)) <= 1e-9
    # symmetry, nonnegativity, bounds, triangle inequality
    for _ in range(1000):
        a, b, c = rng.standard_normal((3, 8)) * 3
        pa, pb = random_simplex(rng, 2, 8)
        for m in ("l1", "l2", "cosine"):
            ok &= abs(metrics.distance(m, a, b) - metrics.distance(m, b, a)) <= 1e-12
            ok &= metrics.distance(m, a, b) >= 0.0
        ok &= abs(metrics.distance("js", pa, pb) - metrics.distance("js", pb, pa)) <= 1e-12
        js = metrics.distance("js", pa, pb)
        ok &= 0.0 <= js <= math.log(2.0)
        ok &= metrics.distance("kl", pa, pb) >= -1e-12
        for m in ("l1", "l2"):
            ok &= metrics.distance(m, a, c) <= (
                metrics.distance(m, a, b) + metrics.distance(m, b, c) + 1e-9)
    # KL asymmetry witness
    pa = np.array([0.9, 0.1])
    pb = np.array([0.5, 0.5])
    ok &= abs(metrics.distance("kl", pa, pb) - metrics.distance("kl", pb, pa)) > 1e-3
    report(3, "metric-axioms", bool(ok))


def _oracle_knn_row(rows, metric, i, eps=1e-10):
    """Naive full-scan distances from row i, written independently."""
    x = rows[i]
    if metric == "l1":
        return np.abs(rows - x).sum(axis=1)
    if metric == "l2":
        return np.sqrt(((rows - x) ** 2).sum(axis=1))
    if metric == "cosine":
        nx = math.sqrt(float(x @ x))
        ns = np.sqrt((rows * rows).sum(axis=1))
        return np.clip(1.0 - (rows @ x) / (ns * nx), 0.0, 2.0)
    if metric == "kl":
        return float(xlogy(x, x).sum()) - (np.log(np.maximum(rows, eps)) * x).sum(axis=1)
    m = 0.5 * (rows + x)
    return np.clip(
        0.5 * float(xlogy(x, x).sum()) + 0.5 * xlogy(rows, rows).sum(axis=1)
        - xlogy(m, m).sum(axis=1),
        0.0, math.log(2.0),
    )


def test_criterion_04_exact_knn_vs_naive_oracle():
    rng = np.random.default_rng(104)
    dims = (2, 16, 128)
    all_metrics = ("l1", "l2", "cosine", "kl", "js")
    mismatches = 0
    for trial in range(100):
        metric = all_metrics[trial % 5]
        dim = dims[trial % 3]
        n = int(rng.integers(20, 501))
        k = int(rng.integers(1, 11))
        if metric in ("kl", "js"):
            rows = random_simplex(rng, n, dim)
            fm = FeatureMatrix(kind="distribution", rows=rows)
        else:
            rows = rng.standard_normal((n, dim))
            fm = FeatureMatrix(kind="point", rows=rows)
        nbrs = knn_by_count(fm, metric, k)
        for i in range(n):
            d = _oracle_knn_row(rows, metric, i)
            d[i] = np.inf
            want = np.lexsort((np.arange(n), d))[:k]
            if nbrs.neighbors(i)[0].tolist() != want.tolist():
                mismatches += 1
    ok = mismatches == 0
    report(4, "exact-knn-vs-naive-oracle", ok, f"{mismatches} mismatching lists")


def test_criterion_05_threshold_calibration():
    rng = np.random.default_rng(105)
    n = 2000
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((n, 16)))
    targets = [5, 10, 25, 50]
    exact = calibrate_thresholds(fm, "l2", targets)
    sampled = calibrate_thresholds(fm, "l2", targets, exact_limit=0,
                                   sample_pairs=2_000_000, seed=9)
    ok = True
    details = []
    for t, d_exact, d_sampled in zip(targets, exact, sampled):
        avg_exact = float(neighbors_by_distance(fm, "l2", d_exact).out_degrees().mean())
        avg_sampled = float(neighbors_by_distance(fm, "l2", d_sampled).out_degrees().mean())
        # exact full-sort keeps ceil(t*n) directed pairs precisely
        ok &= abs(avg_exact - math.ceil(t * n) / n) <= 1e-12
        ok &= abs(avg_sampled - t) <= 0.1 * t
        details.append(f"{t}: sampled avg {avg_sampled:.2f}")
    report(5, "threshold-calibration", bool(ok), "; ".join(details))


def test_criterion_06_embedding_end_to_end():
    graph = two_cliques_graph(10)
    clique_a = list(range(10))
    clique_b = list(range(10, 20))
    inter_mask = np.zeros((20, 20), dtype=bool)
    inter_mask[:10, 10:] = True
    intra_mask = np.zeros((20, 20), dtype=bool)
    intra_mask[:10, :10] = True
    intra_mask[10:, 10:] = True
    np.fill_diagonal(intra_mask, False)
    successes = 0
    for seed in range(100):
        fm = embed_graph(graph, WalkConfig(walks_per_vertex=5, walk_length=20,
                                           window=3, seed=seed), dim=16)
        unit = fm.rows / np.linalg.norm(fm.rows, axis=1, keepdims=True)
        sims = unit @ unit.T
        good = sims[intra_mask].mean() > sims[inter_mask].mean()
        rng = np.random.default_rng([seed, 777])
        rand_members = sorted(rng.choice(20, size=10, replace=False).tolist())
        while rand_members in (clique_a, clique_b):
            rand_members = sorted(rng.choice(20, size=10, replace=False).tolist())
        cats = categories_from_members([clique_a, clique_b, rand_members], 20)
        nbrs = knn_by_count(fm, "cosine", 3)
        for criterion in ("conductance", "surprise"):
            order = rank_categories(nbrs, cats, criterion).ordered_categories
            good = good and order.index(0) < order.index(2) and order.index(1) < order.index(2)
        successes += bool(good)
    ok = successes >= 95
    report(6, "embedding-end-to-end-cliques", ok, f"{successes}/100 seeds")


def test_criterion_07_gradient_and_normalization():
    rng = np.random.default_rng(107)
    n, dim = 5, 8
    vectors = rng.standard_normal((n, dim)) * 0.5
    node_vecs = rng.standard_normal((n - 1, dim)) * 0.5
    tree = build_huffman(rng.integers(1, 10, size=n).tolist())
    h = 1e-4
    worst = 0.0
    for center in range(n):
        for context in range(n):
            if context == center:
                continue
            g_center, pts, g_nodes = hs_pair_grads(vectors, node_vecs, tree,
                                                   center, context)
            for d in range(dim):
                vectors[center, d] += h
                up = hs_pair_loss(vectors, node_vecs, tree, center, context)
                vectors[center, d] -= 2 * h
                down = hs_pair_loss(vectors, node_vecs, tree, center, context)
                vectors[center, d] += h
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - g_center[d]) / max(abs(fd), abs(g_center[d]), 1e-8))
            for r, node in enumerate(pts.tolist()):
                for d in range(dim):
                    node_vecs[node, d] += h
                    up = hs_pair_loss(vectors, node_vecs, tree, center, context)
                    node_vecs[node, d] -= 2 * h
                    down = hs_pair_loss(vectors, node_vecs, tree, center, context)
                    node_vecs[node, d] += h
                    fd = (up - down) / (2 * h)
                    worst = max(worst, abs(fd - g_nodes[r, d]) / max(abs(fd), abs(g_nodes[r, d]), 1e-8))
    norm_ok = True
    for v in range(n):
        total = sum(math.exp(-hs_pair_loss(vectors, node_vecs, tree, v, w))
                    for w in range(n))
        norm_ok &= abs(total - 1.0) <= 1e-6
    ok = worst <= 1e-4 and norm_ok
    report(7, "skipgram-gradient-and-normalization", bool(ok),
           f"max rel err {worst:.3g}")


def test_criterion_08_evaluation_math():
    order = [0, 1, 2, 3, 4]
    positions = {cat: pos for pos, cat in enumerate(order)}
    choices = [0, 1, 2, 3, 4]
    ok = (
        score_answer(0, choices, positions, 5) == 1.0
        and score_answer(1, choices, positions, 5) == 0.75
        and score_answer(4, choices, positions, 5) == 0.0
    )
    votes = make_votes(
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [0, 2, 3, 4, 5]],
        [(0, 0)] * 5 + [(1, 0)] * 5 + [(2, 0)] * 5,
    )
    total_order = [0, 1, 2, 3, 4, 5]
    rep = evaluate(votes, total_order)
    ok = ok and rep.rough_accuracy == 1.0 and rep.improved_accuracy == 1.0
    report(8, "evaluation-answer-scoring", bool(ok))


def test_criterion_09_cheating_score_heuristic():
    rng = np.random.default_rng(109)
    hits = 0
    for _ in range(100):
        n_cats = int(rng.integers(4, 8))
        votes = random_votes(rng, n_cats, n_questions=int(rng.integers(4, 10)),
                             m=3, per_question=int(rng.integers(2, 6)))
        pref = build_preference_graph(votes)
        h_score, _ = _heuristic_best_ordering(pref.weights)
        b_score, _ = best_ordering_bruteforce(pref.weights)
        if abs(h_score - b_score) <= 1e-9:
            hits += 1
    dominance_ok = True
    for trial in range(3):
        votes = random_votes(rng, 40, n_questions=80, m=5, per_question=5)
        cheat, _ = best_cheating_score(votes)
        for _ in range(50):
            order = list(rng.permutation(40))
            total, _, _ = _score_votes(votes, order)
            dominance_ok &= cheat >= total - 1e-9
    ok = hits >= 98 and dominance_ok
    report(9, "cheating-score-heuristic", bool(ok),
           f"optimal on {hits}/100, dominance {'ok' if dominance_ok else 'violated'}")


def _normalized_manifest(path, root):
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    payload["wall_clock_s"] = None
    payload["inputs"] = {k.replace(root, "@"): v for k, v in payload["inputs"].items()}
    payload["outputs"] = {k.replace(root, "@"): v for k, v in payload["outputs"].items()}
    return payload


def _run_pipeline(root):
    root.mkdir()
    graph, cats, votes = make_dataset(root)
    work = root / "work"
    work.mkdir()
    steps = [
        ["ingest", "--graph", str(graph), "--categories", str(cats),
         "--votes", str(votes), "--out-dir", str(work)],
        ["walk", "--graph", str(work / "graph.json"), "--walks-per-vertex", "4",
         "--walk-length", "10", "--seed", "7", "--out", str(root / "walks.txt")],
        ["embed", "--graph", str(work / "graph.json"), "--walks", str(root / "walks.txt"),
         "--dim", "8", "--window", "2", "--seed", "7", "--out", str(root / "features.tsv")],
        ["knn", "--features", str(root / "features.tsv"), "--metric", "l2",
         "--k", "3", "--workers", "1", "--out", str(root / "nb.tsv")],
        ["knn", "--features", str(root / "features.tsv"), "--metric", "l2",
         "--avg-target", "3", "--seed", "7", "--workers", "1",
         "--out", str(root / "nb_dist.tsv")],
        ["coherence", "--neighbors", str(root / "nb.tsv"),
         "--categories", str(work / "categories.json"), "--out", str(root / "scores.csv")],
        ["rank", "--neighbors", str(root / "nb.tsv"),
         "--categories", str(work / "categories.json"), "--criterion", "surprise",
         "--out", str(root / "ranking.csv")],
        ["grid", "--features", str(root / "features.tsv"),
         "--categories", str(work / "categories.json"), "--votes", str(work / "votes.csv"),
         "--metrics", "l2,cosine", "--strategies", "count,distance", "--sizes", "3,5",
         "--criteria", "conductance,surprise", "--seed", "7", "--workers", "1",
         "--out-dir", str(root / "grid")],
        ["evaluate", "--ranking", str(root / "ranking.csv"), "--votes", str(work / "votes.csv"),
         "--categories", str(work / "categories.json"), "--out", str(root / "eval.json")],
        ["report", "stats", "--categories", str(work / "categories.json"),
         "--out", str(root / "stats.txt")],
        ["report", "quantiles", "--features", str(root / "features.tsv"),
         "--metric", "l2", "--targets", "3,5", "--seed", "7",
         "--out", str(root / "quantiles.csv")],
        ["report", "top", "--ranking", str(root / "ranking.csv"),
         "--categories", str(work / "categories.json"), "--top", "3",
         "--out", str(root / "top.csv"), "--text", str(root / "top.txt")],
    ]
    for step in steps:
        assert cli_main(step) == 0, step
    return root


def test_criterion_10_pipeline_determinism(tmp_path):
    a = _run_pipeline(tmp_path / "run1")
    b = _run_pipeline(tmp_path / "run2")
    mismatched = []
    files_a = sorted(p for p in a.rglob("*") if p.is_file())
    for fa in files_a:
        rel = fa.relative_to(a)
        fb = b / rel
        if not fb.exists():
            mismatched.append(f"missing {rel}")
            continue
        if fa.name.endswith("manifest.json"):
            if _normalized_manifest(fa, str(a)) != _normalized_manifest(fb, str(b)):
                mismatched.append(f"manifest {rel}")
        elif fa.read_bytes() != fb.read_bytes():
            mismatched.append(str(rel))
    ok = not mismatched
    report(10, "pipeline-determinism", ok,
           f"{len(files_a)} files compared" + (f"; mismatched: {mismatched}" if mismatched else ""))
