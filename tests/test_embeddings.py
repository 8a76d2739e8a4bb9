import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2

import catrank.embeddings as embeddings_module
from catrank.data_model import FeatureMatrix, load_graph
from catrank.embeddings import (
    HuffmanTree,
    WalkConfig,
    _make_noise_cdf,
    _noise_targets,
    build_huffman,
    generate_walks,
    hs_pair_loss,
    load_walks,
    save_walks,
    train_skipgram,
)
from catrank.errors import DataError

from conftest import embed_graph, graph_from_edges, two_cliques_graph
from oracles import hs_pair_grads, huffman_paths_by_stack, optimal_expected_code_length


# ---------------------------------------------------------------------------
# walks


def test_walk_forced_path():
    graph = graph_from_edges([(0, 1), (1, 2)])
    cfg = WalkConfig(walks_per_vertex=1, walk_length=3, seed=1)
    walks = generate_walks(graph, cfg)
    from_zero = [w for w in walks if w[0] == 0]
    assert len(from_zero) == 1
    assert from_zero[0].tolist() == [0, 1, 2]


def test_walk_sink_terminates_early():
    graph = graph_from_edges([(0, 1)])  # vertex 1 is a sink
    cfg = WalkConfig(walks_per_vertex=2, walk_length=5, seed=2)
    walks = generate_walks(graph, cfg)
    for w in walks:
        if w[0] == 1:
            assert w.tolist() == [1]


def test_walk_two_cycle():
    graph = graph_from_edges([(0, 1), (1, 0)])
    cfg = WalkConfig(walks_per_vertex=1, walk_length=4, seed=3)
    walks = generate_walks(graph, cfg)
    assert sorted(w.tolist() for w in walks) == [[0, 1, 0, 1], [1, 0, 1, 0]]


def test_walk_steps_are_edges():
    rng = np.random.default_rng(4)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, size=(60, 2)) if a != b]
    graph = graph_from_edges(edges)
    adj = [set(a.tolist()) for a in graph.adjacency]
    cfg = WalkConfig(walks_per_vertex=3, walk_length=10, seed=5)
    walks = generate_walks(graph, cfg)
    assert len(walks) == 3 * graph.n_entities
    for w in walks:
        for u, v in zip(w, w[1:]):
            assert int(v) in adj[int(u)]
        assert len(w) <= 10


def test_walks_independent_of_worker_count():
    graph = two_cliques_graph(5)
    cfg = WalkConfig(walks_per_vertex=4, walk_length=8, seed=6)
    a = generate_walks(graph, cfg, workers=1)
    b = generate_walks(graph, cfg, workers=4)
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_walks_round_trip(tmp_path):
    graph = two_cliques_graph(4)
    cfg = WalkConfig(walks_per_vertex=2, walk_length=6, seed=7)
    walks = generate_walks(graph, cfg)
    path = str(tmp_path / "walks.txt")
    save_walks(walks, graph.ids, path)
    back = load_walks(path, graph)
    assert all(np.array_equal(x, y) for x, y in zip(walks, back))


def test_walks_round_trip_spaced_ids(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("Isaac Newton\tGottfried Leibniz\nGottfried Leibniz\tEmilie du Chatelet\n",
                     encoding="utf-8")
    graph, _ = load_graph(str(edges), symmetrize=True)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=2, walk_length=5, seed=7))
    path = tmp_path / "walks.txt"
    save_walks(walks, graph.ids, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == [graph.ids[v] for v in walks[0].tolist()]
    back = load_walks(str(path), graph)
    assert len(back) == len(walks)
    assert all(np.array_equal(x, y) for x, y in zip(walks, back))
    # a corpus written with spaces between ids is no longer read
    path.write_text("Isaac Newton Gottfried Leibniz\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"walks\.txt:1: unknown entity"):
        load_walks(str(path), graph)


def test_walks_on_graph_without_edges(tmp_path):
    edges = tmp_path / "loop.tsv"
    edges.write_text("a\ta\n", encoding="utf-8")  # the self-loop is dropped
    graph, _ = load_graph(str(edges))
    assert graph.n_edges == 0
    cfg = WalkConfig(walks_per_vertex=2, walk_length=5, seed=1)
    assert [w.tolist() for w in generate_walks(graph, cfg)] == [[0], [0]]
    walks = generate_walks(graph_from_edges([], ids=["a", "b", "c"]), cfg)
    assert sorted(w.tolist() for w in walks) == [[0], [0], [1], [1], [2], [2]]


def test_walks_build_one_generator(monkeypatch):
    calls = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(embeddings_module.np.random, "default_rng", spy)
    walks = generate_walks(two_cliques_graph(5), WalkConfig(walks_per_vertex=3, walk_length=6,
                                                             seed=8))
    assert len(walks) == 30
    assert len(calls) == 1


def test_walk_neighbor_choice_is_uniform():
    # chi-squared over every step taken from every vertex of degree 2 or more
    rng = np.random.default_rng(4)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, size=(60, 2)) if a != b]
    graph = graph_from_edges(edges)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=100, walk_length=20, seed=9))
    steps = np.concatenate([np.stack([w[:-1], w[1:]], axis=1) for w in walks if len(w) > 1])
    stat, dof = 0.0, 0
    for v, nbrs in enumerate(graph.adjacency):
        if len(nbrs) < 2:
            continue
        taken = steps[steps[:, 0] == v, 1]
        counts = np.array([np.count_nonzero(taken == u) for u in nbrs])
        expected = counts.sum() / len(nbrs)
        assert expected >= 20
        stat += float(((counts - expected) ** 2 / expected).sum())
        dof += len(nbrs) - 1
    assert dof >= 20
    assert chi2.sf(stat, dof) > 0.01


def test_walk_prefixes():
    rng = np.random.default_rng(10)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 15, size=(30, 2)) if a != b]
    graph = graph_from_edges(edges)
    n = graph.n_entities
    assert any(len(row) == 0 for row in graph.adjacency)  # some walks end early
    full = generate_walks(graph, WalkConfig(walks_per_vertex=3, walk_length=12, seed=11))
    for p in range(3):  # each pass starts once from every vertex
        assert sorted(int(w[0]) for w in full[p * n:(p + 1) * n]) == list(range(n))
    fewer = generate_walks(graph, WalkConfig(walks_per_vertex=2, walk_length=12, seed=11))
    assert all(np.array_equal(x, y) for x, y in zip(fewer, full[:2 * n], strict=True))
    shorter = generate_walks(graph, WalkConfig(walks_per_vertex=3, walk_length=5, seed=11))
    assert all(np.array_equal(x, y[:5]) for x, y in zip(shorter[:n], full[:n]))
    assert any(len(y) > 5 for y in full[:n])


def test_walks_end_at_sinks_while_others_continue():
    # 0 -> 1 -> 2 dead-ends; 3 <-> 4 never ends; 5 <-> 6 may fall into the sink 2
    graph = graph_from_edges([(0, 1), (1, 2), (3, 4), (4, 3), (5, 6), (6, 5), (5, 2)])
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=10, walk_length=6, seed=12))
    forced = {0: [0, 1, 2], 1: [1, 2], 2: [2], 3: [3, 4, 3, 4, 3, 4], 4: [4, 3, 4, 3, 4, 3]}
    branching = []
    for w in walks:
        path = w.tolist()
        if path[0] in forced:
            assert path == forced[path[0]]
        else:
            assert all(b in graph.adjacency[a].tolist() for a, b in zip(path, path[1:]))
            assert len(path) == 6 or path[-1] == 2
            assert 2 not in path[:-1]
            branching.append(path)
    assert any(len(p) == 6 for p in branching)
    assert any(len(p) < 6 for p in branching)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(walk_length=1).validate()
    with pytest.raises(ValueError):
        WalkConfig(window=0).validate()
    with pytest.raises(ValueError):
        WalkConfig(walks_per_vertex=0).validate()


# ---------------------------------------------------------------------------
# Huffman coding


def test_huffman_classic_hand_trace():
    tree = build_huffman([4, 2, 1, 1])
    assert tree.lengths.tolist() == [1, 2, 3, 3]


def test_huffman_two_symbols():
    tree = build_huffman([1, 1])
    assert tree.lengths.tolist() == [1, 1]


def test_huffman_balanced():
    tree = build_huffman([1, 1, 1, 1])
    assert tree.lengths.tolist() == [2, 2, 2, 2]


def test_huffman_structure():
    rng = np.random.default_rng(8)
    freqs = rng.integers(1, 50, size=17).tolist()
    tree = build_huffman(freqs)
    assert len(tree.lengths) == 17
    assert len(np.unique(tree.points)) == 16
    codes = {tuple(c[:length].tolist()) for c, length in zip(tree.codes, tree.lengths)}
    assert len(codes) == 17  # every leaf code unique
    for code in codes:  # prefix-free
        for other in codes:
            if code != other:
                assert other[: len(code)] != code


def test_huffman_optimal_vs_kraft_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        freqs = rng.integers(1, 20, size=n).tolist()
        tree = build_huffman(freqs)
        cost = sum(f * l for f, l in zip(freqs, tree.lengths.tolist()))
        assert cost == optimal_expected_code_length(freqs)


def test_huffman_needs_two_entities():
    with pytest.raises(ValueError):
        build_huffman([5])


def test_huffman_deterministic_ties():
    a = build_huffman([3, 3, 3, 3, 3])
    b = build_huffman([3, 3, 3, 3, 3])
    assert [c.tolist() for c in a.codes] == [c.tolist() for c in b.codes]


def test_huffman_rows_match_the_stack_traversal():
    # small frequency ranges give many zeros and ties, large ones skewed trees
    rng = np.random.default_rng(26)
    for trial in range(200):
        n = int(rng.integers(2, 61))
        freqs = rng.integers(0, (3, 8, 1000)[trial % 3], size=n)
        tree = build_huffman(freqs)
        points, codes = huffman_paths_by_stack(freqs)
        assert tree.lengths.tolist() == [len(p) for p in points]
        for i, length in enumerate(tree.lengths.tolist()):
            assert tree.points[i, :length].tolist() == points[i].tolist()
            assert tree.codes[i, :length].tolist() == codes[i].tolist()
        padding = np.arange(tree.points.shape[1]) >= tree.lengths[:, None]
        assert tree.points.shape[1] == tree.lengths.max()
        assert (tree.points[padding] == n - 2).all()
        assert (tree.codes[padding] == 0).all()
        assert np.array_equal(np.unique(tree.points), np.arange(n - 1))


# ---------------------------------------------------------------------------
# hierarchical softmax


def toy_model(n=5, dim=8, seed=10):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)) * 0.5
    node_vecs = rng.standard_normal((n - 1, dim)) * 0.5
    tree = build_huffman(rng.integers(1, 10, size=n).tolist())
    return vectors, node_vecs, tree


def test_hs_probabilities_normalize():
    vectors, node_vecs, tree = toy_model()
    for v in range(5):
        total = sum(
            math.exp(-hs_pair_loss(vectors, node_vecs, tree, v, w)) for w in range(5)
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_expit_within_four_ulps_of_scipy():
    # numpy's exp differs from libm's in the last bit for a few inputs;
    # rounding 1 + e^-x at a binade edge (worst near x = -36.8, where e^-x
    # nears 2^53) turns that into at most four ulps of the result
    x = np.concatenate([np.linspace(-745.0, 745.0, 400_001),
                        np.random.default_rng(3).normal(0.0, 4.0, 400_000)])
    with np.errstate(over="ignore"):
        want = expit(x)
    np.testing.assert_array_max_ulp(embeddings_module._expit(x), want, maxulp=4)


def test_hs_gradients_match_finite_differences():
    vectors, node_vecs, tree = toy_model()
    h = 1e-4
    worst = 0.0
    for center, context in [(0, 1), (2, 4), (3, 0), (1, 2)]:
        g_center, pts, g_nodes = hs_pair_grads(vectors, node_vecs, tree, center, context)
        for d in range(vectors.shape[1]):
            vectors[center, d] += h
            up = hs_pair_loss(vectors, node_vecs, tree, center, context)
            vectors[center, d] -= 2 * h
            down = hs_pair_loss(vectors, node_vecs, tree, center, context)
            vectors[center, d] += h
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g_center[d]), 1e-8)
            worst = max(worst, abs(fd - g_center[d]) / denom)
        for r, node in enumerate(pts.tolist()):
            for d in range(node_vecs.shape[1]):
                node_vecs[node, d] += h
                up = hs_pair_loss(vectors, node_vecs, tree, center, context)
                node_vecs[node, d] -= 2 * h
                down = hs_pair_loss(vectors, node_vecs, tree, center, context)
                node_vecs[node, d] += h
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g_nodes[r, d]), 1e-8)
                worst = max(worst, abs(fd - g_nodes[r, d]) / denom)
    assert worst <= 1e-4


def test_hs_loss_is_neg_log_prob():
    vectors, node_vecs, tree = toy_model()
    loss = hs_pair_loss(vectors, node_vecs, tree, 0, 3)
    assert -hs_pair_loss(vectors, node_vecs, tree, 0, 3) == pytest.approx(-loss)
    assert loss > 0


# ---------------------------------------------------------------------------
# training


def test_train_deterministic_single_worker():
    graph = two_cliques_graph(5)
    cfg = WalkConfig(walks_per_vertex=3, walk_length=10, window=2, seed=11)
    walks = generate_walks(graph, cfg)
    a = train_skipgram(walks, graph.n_entities, dim=12, window=2, seed=11)
    b = train_skipgram(walks, graph.n_entities, dim=12, window=2, seed=11)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.node_vectors, b.node_vectors)


def test_train_normalization_after_training():
    graph = two_cliques_graph(4)
    cfg = WalkConfig(walks_per_vertex=3, walk_length=8, window=2, seed=12)
    walks = generate_walks(graph, cfg)
    model = train_skipgram(walks, graph.n_entities, dim=10, window=2, seed=12)
    rng = np.random.default_rng(13)
    for v in rng.integers(0, graph.n_entities, size=10):
        total = sum(
            math.exp(-hs_pair_loss(model.input_vectors, model.node_vectors,
                                   model.tree, int(v), w))
            for w in range(graph.n_entities)
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def lockstep_hs_reference(walks, n_entities, *, dim, window, seed,
                          initial_lr=0.025, final_lr=0.0001):
    """Per-pair SGD in the trainer's documented order, for one group of walks:
    step j applies pair j of every walk, all from one parameter snapshot. For a
    single walk this is plain sequential per-pair SGD."""
    start = train_skipgram(walks, n_entities, dim=dim, window=window, seed=seed,
                           initial_lr=0.0, final_lr=0.0)
    vectors = start.input_vectors.copy()
    node_vecs = start.node_vectors.copy()
    per_walk = [[(int(w[t]), int(w[c])) for t in range(len(w))
                 for c in range(max(0, t - window), min(len(w), t + window + 1)) if c != t]
                for w in walks]
    total = sum(map(len, per_walk))
    i = 0
    for j in range(max(map(len, per_walk))):
        step = [pairs[j] for pairs in per_walk if j < len(pairs)]
        grads = [hs_pair_grads(vectors, node_vecs, start.tree, center, context)
                 for center, context in step]
        for (center, _), (g_center, pts, g_nodes) in zip(step, grads):
            alpha = initial_lr + (final_lr - initial_lr) * (i / total)
            i += 1
            node_vecs[pts] -= alpha * g_nodes
            vectors[center] -= alpha * g_center
    return vectors, node_vecs


def assert_matches_reference(walks, n_entities):
    ref_vectors, ref_nodes = lockstep_hs_reference(walks, n_entities, dim=8, window=3,
                                                   seed=21, initial_lr=0.2)
    model = train_skipgram(walks, n_entities, dim=8, window=3, seed=21, initial_lr=0.2)
    assert np.abs(ref_nodes).max() > 0.01  # the walks moved the parameters
    assert np.abs(model.input_vectors - ref_vectors).max() <= 1e-12
    assert np.abs(model.node_vectors - ref_nodes).max() <= 1e-12


def test_single_walk_matches_per_pair_sgd():
    graph = two_cliques_graph(5)
    walk = generate_walks(graph, WalkConfig(walks_per_vertex=1, walk_length=30, seed=21))[0]
    assert_matches_reference([walk], graph.n_entities)


def test_walk_group_matches_lockstep_reference():
    # repeated walks put the same center and tree nodes in one step several times;
    # a short walk drops out of the group early
    graph = two_cliques_graph(5)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=1, walk_length=30, seed=21))
    assert_matches_reference([walks[0], walks[1], walks[0], walks[2][:5], walks[0]],
                             graph.n_entities)


@pytest.mark.parametrize("method", ["hs", "negative"])
def test_train_independent_of_worker_count(method):
    graph = two_cliques_graph(6)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=12, walk_length=10, seed=22))
    a = train_skipgram(walks, graph.n_entities, dim=8, window=2, seed=22, method=method,
                       negative=3, workers=1)
    b = train_skipgram(walks, graph.n_entities, dim=8, window=2, seed=22, method=method,
                       negative=3, workers=2)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.node_vectors, b.node_vectors)


def test_noise_draws_skip_the_context():
    cdf = _make_noise_cdf(np.array([1000, 1, 1]))
    targets = _noise_targets(np.zeros(200, dtype=np.int64), 5, cdf, np.random.default_rng(23))
    assert (targets[:, 0] == 0).all()
    assert set(np.unique(targets[:, 1:]).tolist()) == {1, 2}


def test_embed_dim_default_128():
    graph = two_cliques_graph(3)
    fm = embed_graph(graph, WalkConfig(walks_per_vertex=1, walk_length=4, window=2, seed=14))
    assert isinstance(fm, FeatureMatrix)
    assert fm.kind == "point"
    assert fm.dim == 128
    assert fm.n_entities == graph.n_entities


def test_embed_deterministic():
    graph = two_cliques_graph(4)
    cfg = WalkConfig(walks_per_vertex=2, walk_length=6, window=2, seed=15)
    a = embed_graph(graph, cfg, dim=16)
    b = embed_graph(graph, cfg, dim=16)
    assert np.array_equal(a.rows, b.rows)


def test_embed_single_entity_errors():
    graph = graph_from_edges([], ids=["only"])
    with pytest.raises(ValueError):
        embed_graph(graph, WalkConfig(seed=16))


def test_train_rejects_bad_args():
    graph = two_cliques_graph(3)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=1, walk_length=4, seed=17))
    with pytest.raises(ValueError):
        train_skipgram(walks, graph.n_entities, dim=0)
    with pytest.raises(ValueError):
        train_skipgram([], graph.n_entities, dim=4)
    with pytest.raises(ValueError):
        train_skipgram(walks, graph.n_entities, dim=4, method="negative", negative=-1)
    with pytest.raises(ValueError):  # noise cannot avoid the only entity walked
        train_skipgram([np.zeros(4, dtype=np.int64)], 2, dim=4, method="negative")
    for window in (0, -3):
        with pytest.raises(ValueError, match="window"):
            train_skipgram(walks, graph.n_entities, dim=4, window=window)
    for rates in ({"initial_lr": math.nan}, {"initial_lr": -0.1}, {"final_lr": math.inf},
                  {"final_lr": -1e-4}):
        with pytest.raises(ValueError, match="learning rates"):
            train_skipgram(walks, graph.n_entities, dim=4, **rates)


def test_train_refuses_a_corpus_without_pairs():
    one_entity_walks = [np.array([0]), np.array([1]), np.array([0])]
    with pytest.raises(ValueError, match="no walk has two entities"):
        train_skipgram(one_entity_walks, 2, dim=4)


def mean_cosine(rows, pairs):
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return float(np.mean([unit[a] @ unit[b] for a, b in pairs]))


def cliques_separate(method):
    graph = two_cliques_graph(10)
    cfg = WalkConfig(walks_per_vertex=5, walk_length=20, window=3, seed=18)
    fm = embed_graph(graph, cfg, dim=16, method=method)
    intra = [(a, b) for a in range(10) for b in range(10) if a != b]
    intra += [(a, b) for a in range(10, 20) for b in range(10, 20) if a != b]
    inter = [(a, b) for a in range(10) for b in range(10, 20)]
    return mean_cosine(fm.rows, intra) > mean_cosine(fm.rows, inter)


def test_two_cliques_separate():
    assert cliques_separate("hs")


def test_two_cliques_separate_negative_sampling():
    assert cliques_separate("negative")


def test_negative_sampling_model_has_no_tree_or_node_vectors():
    # an untrained all-zero node matrix would give hs_pair_loss a loss to compute
    graph = two_cliques_graph(5)
    walks = generate_walks(graph, WalkConfig(walks_per_vertex=3, walk_length=10, seed=19))
    model = train_skipgram(walks, graph.n_entities, dim=8, window=2, seed=19,
                           method="negative", negative=3)
    assert model.tree is None and model.node_vectors is None
    assert np.isfinite(model.input_vectors).all()


def test_negative_sampling_variant_trains():
    graph = two_cliques_graph(5)
    cfg = WalkConfig(walks_per_vertex=3, walk_length=10, window=2, seed=19)
    a = embed_graph(graph, cfg, dim=8, method="negative", negative=3)
    b = embed_graph(graph, cfg, dim=8, method="negative", negative=3)
    assert np.array_equal(a.rows, b.rows)
    assert a.dim == 8
