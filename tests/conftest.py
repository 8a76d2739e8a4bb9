import numpy as np
import pytest

from catrank.data_model import CSR, CategoryIndex, EntityGraph, FeatureMatrix
from catrank.embeddings import generate_walks, train_skipgram
from catrank.neighbors import NeighborSet

pytest_plugins = ["pytester"]


def graph_from_edges(edges, ids=None):
    """Build an EntityGraph directly from dense-index edge tuples."""
    n = max(max(u, v) for u, v in edges) + 1 if edges else 0
    if ids is None:
        ids = [f"e{i}" for i in range(n)]
    n = max(n, len(ids))
    out = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            out[u].add(v)
    return EntityGraph(
        ids=list(ids),
        adjacency=CSR.from_lists(sorted(s) for s in out),
    )


def embed_graph(graph, cfg, **train):
    """Point features as ``catrank embed`` trains them: the walks ``cfg``
    draws, then skip-gram at its window and seed."""
    walks = generate_walks(graph, cfg)
    model = train_skipgram(walks, graph.n_entities, window=cfg.window, seed=cfg.seed, **train)
    return FeatureMatrix(kind="point", rows=model.input_vectors)


def categories_from_members(members, n_entities, names=None):
    members = CSR.from_lists(sorted(m) for m in members)
    if names is None:
        names = [f"cat{i}" for i in range(len(members))]
    return CategoryIndex(
        names=list(names),
        members=members,
        n_entities=n_entities,
    )


def neighbor_set_from_lists(lists, distances=None):
    """NeighborSet from per-entity neighbor index lists (unit distances)."""
    n = len(lists)
    indptr = np.zeros(n + 1, dtype=np.int64)
    idx = []
    dist = []
    for v, nbrs in enumerate(lists):
        indptr[v + 1] = indptr[v] + len(nbrs)
        idx.extend(nbrs)
        if distances is None:
            dist.extend([1.0] * len(nbrs))
        else:
            dist.extend(distances[v])
    return NeighborSet(
        indptr=indptr,
        indices=np.array(idx, dtype=np.int64),
        distances=np.array(dist, dtype=np.float64),
    )


@pytest.fixture
def fig4_instance():
    """Hand-encoded neighbor set reproducing the worked coherence example:
    a 4-member category in a 16-entity universe with 4 directed inside
    relationships and 3 outgoing ones, whose surprise level is exactly 0.375.

    Member 0 and 1 each have both neighbors inside; member 2 has three
    neighbors all outside; member 3 has none (excluded observer). With
    p = 4/16 the observer tails are 1/16, 1/16 and 1, averaging 3/8.
    """
    lists = [[] for _ in range(16)]
    lists[0] = [1, 2]
    lists[1] = [2, 3]
    lists[2] = [4, 5, 6]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([[0, 1, 2, 3]], 16, names=["probe"])
    return nbrs, cats


def random_simplex(rng, n, dim):
    rows = rng.random((n, dim)) + 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


def two_cliques_graph(size=10):
    """Two directed cliques joined by one (bidirectional) bridge edge."""
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(size):
                if i != j:
                    edges.append((base + i, base + j))
    edges.append((0, size))
    edges.append((size, 0))
    return graph_from_edges(edges)
