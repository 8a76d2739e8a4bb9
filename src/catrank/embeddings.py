"""Graph embeddings from truncated random walks.

Walks over the adjacency are treated as sentences and fed to a skip-gram
model with a hierarchical softmax output layer over a Huffman tree of
entity frequencies. Every (center, context) pair within the window updates
the parameters along the context entity's tree path; the learning rate
decays linearly over the total number of trained pairs.

Determinism: each walk draws from its own generator derived from
(seed, pass, start vertex), so the corpus does not depend on worker count.
Training is bitwise reproducible with one worker; with several workers the
updates race hogwild-style and only converge statistically.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Lock

import numpy as np
from scipy.special import expit

from .data_model import EntityGraph, FeatureMatrix, open_text
from .errors import DataError

_WALK_SALT = 0x57A1C
_INIT_SALT = 0x1417
_NEG_SALT = 0x9E6


@dataclass
class WalkConfig:
    walks_per_vertex: int = 10
    walk_length: int = 40
    window: int = 5
    seed: int = 0

    def validate(self):
        if self.walk_length < 2:
            raise ValueError("walk_length must be at least 2")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.walks_per_vertex < 1:
            raise ValueError("walks_per_vertex must be at least 1")


def _single_walk(adjacency, start: int, length: int, rng) -> np.ndarray:
    path = [start]
    cur = start
    while len(path) < length:
        nbrs = adjacency[cur]
        if len(nbrs) == 0:
            break
        cur = int(nbrs[rng.integers(len(nbrs))])
        path.append(cur)
    return np.array(path, dtype=np.int64)


def generate_walks(graph: EntityGraph, cfg: WalkConfig, workers: int = 1) -> list[np.ndarray]:
    """walks_per_vertex truncated walks per vertex, in seeded-shuffled order.

    Each step picks a uniform out-neighbor; a sink vertex ends its walk early.
    """
    cfg.validate()
    n = graph.n_entities
    if n == 0:
        raise ValueError("graph has no entities")
    order_rng = np.random.default_rng([cfg.seed, _WALK_SALT, 0])
    schedule = []
    for pass_i in range(cfg.walks_per_vertex):
        for v in order_rng.permutation(n):
            schedule.append((pass_i, int(v)))

    adjacency = graph.adjacency

    def run(task):
        pass_i, v = task
        rng = np.random.default_rng([cfg.seed, _WALK_SALT, 1, pass_i, v])
        return _single_walk(adjacency, v, cfg.walk_length, rng)

    if workers <= 1:
        return [run(t) for t in schedule]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, schedule, chunksize=256))


def save_walks(walks: list[np.ndarray], ids: list[str], path: str):
    with open(path, "w", encoding="utf-8") as f:
        for walk in walks:
            f.write(" ".join(ids[v] for v in walk.tolist()) + "\n")


def load_walks(path: str, graph: EntityGraph) -> list[np.ndarray]:
    walks = []
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                walks.append(np.array([graph.index[s] for s in line.split()],
                                      dtype=np.int64))
            except KeyError as e:
                raise DataError(f"{path}:{lineno}: unknown entity {e.args[0]!r}") from None
    if not walks:
        raise DataError(f"{path}: empty walk corpus")
    return walks


# ---------------------------------------------------------------------------
# Huffman coding tree


@dataclass
class HuffmanTree:
    """Prefix code over entities; leaf i's root-to-leaf path has internal
    node ids ``points[i]`` and branch bits ``codes[i]``."""

    points: list[np.ndarray]
    codes: list[np.ndarray]

    @property
    def n_leaves(self) -> int:
        return len(self.points)

    @property
    def n_internal(self) -> int:
        return self.n_leaves - 1

    def code_lengths(self) -> list[int]:
        return [len(c) for c in self.codes]


def build_huffman(frequencies) -> HuffmanTree:
    """Optimal prefix code; merge ties resolve by (frequency, lowest id)."""
    freqs = np.asarray(frequencies)
    n = len(freqs)
    if n < 2:
        raise ValueError("Huffman tree needs at least 2 entities")
    if np.any(freqs < 0):
        raise ValueError("frequencies must be nonnegative")
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
    return HuffmanTree(points=points, codes=codes)


# ---------------------------------------------------------------------------
# hierarchical softmax


def hs_pair_loss(vectors: np.ndarray, node_vecs: np.ndarray, tree: HuffmanTree,
                 center: int, context: int) -> float:
    """Negative log probability of the context entity given the center."""
    x = node_vecs[tree.points[context]] @ vectors[center]
    sgn = 1.0 - 2.0 * tree.codes[context]
    return float(np.logaddexp(0.0, -sgn * x).sum())


def hs_pair_grads(vectors: np.ndarray, node_vecs: np.ndarray, tree: HuffmanTree,
                  center: int, context: int):
    """Descent gradients of the pair loss.

    Returns ``(grad_center, path_node_ids, grad_node_rows)``.
    """
    pts = tree.points[context]
    l2 = node_vecs[pts]
    f = expit(l2 @ vectors[center])
    err = f - (1.0 - tree.codes[context])
    return err @ l2, pts, np.outer(err, vectors[center])


def hs_log_prob(vectors: np.ndarray, node_vecs: np.ndarray, tree: HuffmanTree,
                center: int, target: int) -> float:
    return -hs_pair_loss(vectors, node_vecs, tree, center, target)


@dataclass
class SkipGramModel:
    input_vectors: np.ndarray
    node_vectors: np.ndarray
    tree: HuffmanTree
    dim: int
    initial_lr: float
    final_lr: float
    method: str
    seed: int


def _count_pairs(walks, window: int) -> int:
    total = 0
    for walk in walks:
        n = len(walk)
        for t in range(n):
            total += min(t + window, n - 1) - max(t - window, 0)
    return total


def _make_noise_cdf(freqs: np.ndarray) -> np.ndarray:
    # word2vec convention: unigram distribution raised to the 3/4 power
    w = np.asarray(freqs, dtype=np.float64) ** 0.75
    if w.sum() == 0:
        w = np.ones_like(w)
    return np.cumsum(w / w.sum())


def train_skipgram(walks: list[np.ndarray], n_entities: int, *, dim: int = 128,
                   window: int = 5, seed: int = 0, initial_lr: float = 0.025,
                   final_lr: float = 0.0001, method: str = "hs",
                   negative: int = 5, workers: int = 1) -> SkipGramModel:
    """Train skip-gram vectors over a walk corpus.

    ``method="hs"`` is the hierarchical-softmax default; ``"negative"``
    switches to negative sampling with ``negative`` noise draws per pair.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if n_entities < 2:
        raise ValueError("need at least 2 entities to train")
    if not walks:
        raise ValueError("empty walk corpus")
    if method not in ("hs", "negative"):
        raise ValueError(f"unknown training method {method!r}")

    freqs = np.zeros(n_entities, dtype=np.int64)
    for walk in walks:
        freqs += np.bincount(walk, minlength=n_entities)
    tree = build_huffman(freqs)

    rng = np.random.default_rng([seed, _INIT_SALT])
    vectors = (rng.random((n_entities, dim)) - 0.5) / dim
    node_vecs = np.zeros((n_entities - 1, dim))
    noise_cdf = _make_noise_cdf(freqs) if method == "negative" else None
    neg_vecs = np.zeros((n_entities, dim)) if method == "negative" else None

    total_pairs = _count_pairs(walks, window)
    lr_span = final_lr - initial_lr
    counter = [0]
    counter_lock = Lock()

    def train_walks(shard, pair_rng):
        for walk in shard:
            n = len(walk)
            for t in range(n):
                center = int(walk[t])
                lo = 0 if t < window else t - window
                hi = min(t + window + 1, n)
                for c in range(lo, hi):
                    if c == t:
                        continue
                    alpha = initial_lr + lr_span * (counter[0] / total_pairs)
                    context = int(walk[c])
                    if method == "hs":
                        g_center, pts, g_nodes = hs_pair_grads(
                            vectors, node_vecs, tree, center, context)
                        node_vecs[pts] -= alpha * g_nodes
                        vectors[center] -= alpha * g_center
                    else:
                        _neg_pair_update(vectors, neg_vecs, center, context,
                                         alpha, negative, noise_cdf, pair_rng)
                    if workers == 1:
                        counter[0] += 1
                    else:
                        with counter_lock:
                            counter[0] += 1

    if workers <= 1:
        train_walks(walks, np.random.default_rng([seed, _NEG_SALT]))
    else:
        shards = [walks[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(train_walks, shard, np.random.default_rng([seed, _NEG_SALT, w]))
                for w, shard in enumerate(shards)
            ]
            for fut in futures:
                fut.result()

    return SkipGramModel(
        input_vectors=vectors,
        node_vectors=node_vecs,
        tree=tree,
        dim=dim,
        initial_lr=initial_lr,
        final_lr=final_lr,
        method=method,
        seed=seed,
    )


def _neg_pair_update(vectors, neg_vecs, center, context, alpha, negative,
                     noise_cdf, rng):
    l1 = vectors[center]
    targets = [context]
    labels = [1.0]
    while len(targets) < negative + 1:
        w = int(np.searchsorted(noise_cdf, rng.random()))
        if w != context:
            targets.append(w)
            labels.append(0.0)
    l2 = neg_vecs[targets]
    f = expit(l2 @ l1)
    err = f - np.array(labels)
    neg_vecs[targets] -= alpha * np.outer(err, l1)
    vectors[center] -= alpha * (err @ l2)


def embed(graph: EntityGraph, walk_cfg: WalkConfig, *, dim: int = 128,
          initial_lr: float = 0.025, final_lr: float = 0.0001,
          method: str = "hs", negative: int = 5, workers: int = 1) -> FeatureMatrix:
    """Walk generation, Huffman coding and skip-gram training end to end.

    ``walk_cfg.seed`` drives both walk sampling and weight initialization.
    """
    if graph.n_entities < 2:
        raise ValueError("embedding needs at least 2 entities")
    walks = generate_walks(graph, walk_cfg, workers=workers)
    model = train_skipgram(
        walks, graph.n_entities, dim=dim, window=walk_cfg.window,
        seed=walk_cfg.seed, initial_lr=initial_lr, final_lr=final_lr,
        method=method, negative=negative, workers=workers,
    )
    return FeatureMatrix(kind="point", rows=model.input_vectors)
