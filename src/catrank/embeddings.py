"""Graph embeddings from truncated random walks.

Walks over the adjacency are treated as sentences and fed to a skip-gram
model with a hierarchical softmax output layer over a Huffman tree of
entity frequencies (or, optionally, negative sampling). Every
(center, context) pair within the window updates the parameters along the
context entity's tree path; the learning rate decays linearly over the
total number of trained pairs, in the order the pairs are trained. The tree
is one set of padded (entities x longest path) arrays, ``HuffmanTree``, which
the trainer and ``hs_pair_loss`` both read. Negative sampling builds no tree,
and its model holds no node vectors.

Update order: walks train in consecutive groups of ``_GROUP``, in corpus
order. Step j of a group updates pair j of every walk in it at once, from
one parameter snapshot, so each walk sees its own earlier pairs exactly as
in per-pair SGD and sees the other walks of its group one step late
(mini-batching across walks, as in Ji et al., arXiv:1604.04661). Negative
sampling draws its noise per group from one generator seeded by ``seed``.

Determinism: one generator seeded by ``seed`` draws each pass's shuffle of
the start vertices, then step t of every walk still alive, in shuffled order;
a walk stuck at a sink draws no more. So walks and vectors are bitwise
reproducible per seed, and ``workers`` is accepted and ignored.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data_model import EntityGraph, text_lines
from .errors import DataError

_WALK_SALT = 0x57A1C
_INIT_SALT = 0x1417
_NEG_SALT = 0x9E6
_GROUP = 64  # walks trained in lockstep


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


def generate_walks(graph: EntityGraph, cfg: WalkConfig, workers: int = 1) -> list[np.ndarray]:
    """walks_per_vertex passes of truncated walks, all walks of a pass in
    lockstep: a step picks a uniform out-neighbor, and a sink ends the walk.

    Walks come pass by pass, in shuffled start order, so fewer passes give a
    prefix of the corpus; a shorter ``walk_length`` gives prefixes of the first
    pass's walks (later passes then read other draws).
    """
    cfg.validate()
    n = graph.n_entities
    if n == 0:
        raise ValueError("graph has no entities")
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    degree = np.diff(indptr)
    rng = np.random.default_rng([cfg.seed, _WALK_SALT])
    walks = []
    for _ in range(cfg.walks_per_vertex):
        paths = np.full((n, cfg.walk_length), -1, dtype=np.int64)
        paths[:, 0] = rng.permutation(n)
        live = np.arange(n)
        for t in range(1, cfg.walk_length):
            cur = paths[live, t - 1]
            moving = degree[cur] > 0
            live, cur = live[moving], cur[moving]
            paths[live, t] = indices[indptr[cur] + rng.integers(degree[cur])]
        lengths = np.count_nonzero(paths >= 0, axis=1).tolist()
        walks += [path[:length] for path, length in zip(paths, lengths)]
    return walks


def save_walks(walks: list[np.ndarray], ids: list[str], path: str):
    with open(path, "w", encoding="utf-8") as f:
        for walk in walks:
            f.write("\t".join(ids[v] for v in walk.tolist()) + "\n")


def load_walks(path: str, graph: EntityGraph) -> list[np.ndarray]:
    walks = []
    for lineno, line in text_lines(path):
        try:
            walks.append(np.array([graph.index[s] for s in line.split("\t")], dtype=np.int64))
        except KeyError as e:
            raise DataError(f"{path}:{lineno}: unknown entity {e.args[0]!r}") from None
    if not walks:
        raise DataError(f"{path}: empty walk corpus")
    return walks


# ---------------------------------------------------------------------------
# Huffman coding tree


@dataclass
class HuffmanTree:
    """Prefix code over n entities, as the padded arrays the trainer reads:
    leaf i's root-to-leaf path has ``lengths[i]`` internal nodes, with ids
    ``points[i, :lengths[i]]`` and branch bits ``codes[i, :lengths[i]]``. Past
    its length a row holds the root's id, n - 2, and code 0; the root is on
    every path, so padding adds no row to an update."""

    points: np.ndarray
    codes: np.ndarray
    lengths: np.ndarray


def build_huffman(frequencies) -> HuffmanTree:
    """Optimal prefix code; merge ties resolve by (frequency, lowest id)."""
    freqs = np.asarray(frequencies)
    n = len(freqs)
    if n < 2:
        raise ValueError("Huffman tree needs at least 2 entities")
    if np.any(freqs < 0):
        raise ValueError("frequencies must be nonnegative")
    # heap ids: leaves are 0..n-1, internal nodes n..2n-2 by creation order,
    # so the root is 2n-2 and every parent's id is above its children's
    heap = [(int(f), i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    bit = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        f1, a = heapq.heappop(heap)
        f2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        bit[b] = 1
        heapq.heappush(heap, (f1 + f2, node))
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    parent, bit, lengths = np.array(parent), np.array(bit, dtype=np.int8), np.array(depth[:n])
    points = np.full((n, lengths.max()), n - 2, dtype=np.int64)
    codes = np.zeros(points.shape, dtype=np.int8)
    # fill every row from its leaf end, all leaves one level up per pass
    rows, node, col = np.arange(n), np.arange(n), lengths - 1
    while len(rows):
        points[rows, col] = parent[node] - n
        codes[rows, col] = bit[node]
        up = col > 0
        rows, node, col = rows[up], parent[node[up]], col[up] - 1
    return HuffmanTree(points=points, codes=codes, lengths=lengths)


# ---------------------------------------------------------------------------
# hierarchical softmax


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-x); 0 where e^-x overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def hs_pair_loss(vectors: np.ndarray, node_vecs: np.ndarray, tree: HuffmanTree,
                 center: int, context: int) -> float:
    """Negative log probability of the context entity given the center."""
    length = tree.lengths[context]
    x = node_vecs[tree.points[context, :length]] @ vectors[center]
    sgn = 1.0 - 2.0 * tree.codes[context, :length]
    return float(np.logaddexp(0.0, -sgn * x).sum())


@dataclass
class SkipGramModel:
    """What training learned; ``catrank embed`` records the settings itself.
    A negative-sampling model has no tree and no node vectors (``None``)."""

    input_vectors: np.ndarray
    node_vectors: np.ndarray | None
    tree: HuffmanTree | None


def _make_noise_cdf(freqs: np.ndarray) -> np.ndarray:
    # word2vec convention: unigram distribution raised to the 3/4 power
    w = np.asarray(freqs, dtype=np.float64) ** 0.75
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = 1.0  # so a uniform draw in [0, 1) always lands on an entity
    return cdf


def _pair_offsets(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Center and context positions of every pair in a walk of ``length``,
    in sequential training order (by center, then by context)."""
    t = np.repeat(np.arange(length), 2 * window + 1)
    c = t + np.tile(np.arange(-window, window + 1), length)
    keep = (c >= 0) & (c < length) & (c != t)
    return t[keep], c[keep]


def _count_pairs(walks, window: int) -> int:
    """(center, context) pairs in a walk corpus, as ``_pair_offsets`` lists them."""
    lengths = Counter(len(w) for w in walks)
    return sum(k * len(_pair_offsets(n, window)[0]) for n, k in lengths.items())


def _sgd_step(in_vecs, out_vecs, centers, targets, labels, mask, alpha):
    """One SGD update for P pairs at once from the same parameter snapshot.

    Pair p moves ``in_vecs[centers[p]]`` and the output rows
    ``out_vecs[targets[p]]`` down the gradient of its logistic losses, with
    step size ``alpha[p]``; updates that land on the same row add up.
    """
    n_pairs, width = targets.shape
    dim = in_vecs.shape[1]
    x = in_vecs[centers]
    rows = out_vecs[targets]
    err = _expit(np.matmul(rows, x[:, :, None])[:, :, 0]) - labels
    if mask is not None:
        err *= mask
    grad_x = np.matmul(err[:, None, :], rows)[:, 0, :] * alpha[:, None]
    # a center can repeat within a step; flat 1-D ufunc.at is fast, 2-D is not
    np.subtract.at(in_vecs.reshape(-1), (centers[:, None] * dim + np.arange(dim)).ravel(),
                   grad_x.ravel())
    # one GEMM for the distinct output rows; unique's cost is set by the step, not by n
    uniq, inv = np.unique(targets, return_inverse=True)
    owner = np.repeat(np.arange(n_pairs), width)
    coef = np.bincount(inv.ravel() * n_pairs + owner, weights=(err * alpha[:, None]).ravel(),
                       minlength=len(uniq) * n_pairs).reshape(len(uniq), n_pairs)
    out_vecs[uniq] -= coef @ x


def _lockstep_pairs(group: list[np.ndarray], offsets: dict):
    """A group's (center, context) pairs in training order, and the bounds of
    its steps: step j holds pair j of every walk in the group that has one."""
    counts = np.array([len(offsets[len(w)][0]) for w in group])
    centers = np.zeros((int(counts.max()), len(group)), dtype=np.int64)
    contexts = np.zeros_like(centers)
    for i, walk in enumerate(group):
        t, c = offsets[len(walk)]
        centers[:len(t), i] = walk[t]
        contexts[:len(c), i] = walk[c]
    live = np.arange(len(centers))[:, None] < counts
    bounds = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
    return centers[live], contexts[live], bounds


def _noise_targets(contexts: np.ndarray, negative: int, noise_cdf: np.ndarray, rng):
    """Each context followed by ``negative`` noise draws, none equal to it."""
    targets = np.empty((len(contexts), negative + 1), dtype=np.int64)
    targets[:, 0] = contexts
    noise = targets[:, 1:]
    noise[:] = np.searchsorted(noise_cdf, rng.random(noise.shape), side="right")
    clash = noise == contexts[:, None]
    while clash.any():
        noise[clash] = np.searchsorted(noise_cdf, rng.random(int(clash.sum())), side="right")
        clash = noise == contexts[:, None]
    return targets


def check_training(*, dim: int, window: int, initial_lr: float, final_lr: float,
                   method: str, negative: int):
    """ValueError unless ``train_skipgram`` can train with these settings;
    a caller checks them before it builds a corpus."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if window < 1:
        raise ValueError("window must be at least 1")
    if not (np.isfinite([initial_lr, final_lr]).all() and min(initial_lr, final_lr) >= 0):
        raise ValueError("learning rates must be finite and nonnegative")
    if method not in ("hs", "negative"):
        raise ValueError(f"unknown training method {method!r}")
    if negative < 0:
        raise ValueError("negative must be nonnegative")
    if method == "negative" and negative < 1:
        raise ValueError("negative sampling needs negative of at least 1")


def train_skipgram(walks: list[np.ndarray], n_entities: int, *, dim: int = 128,
                   window: int = 5, seed: int = 0, initial_lr: float = 0.025,
                   final_lr: float = 0.0001, method: str = "hs",
                   negative: int = 5, workers: int = 1) -> SkipGramModel:
    """Train skip-gram vectors over a walk corpus.

    ``method="hs"`` is the hierarchical-softmax default; ``"negative"``
    switches to negative sampling with ``negative`` noise draws per pair.
    Walks train in lockstep groups of ``_GROUP`` (see the module docstring);
    the result is bitwise reproducible and ``workers`` is ignored.
    """
    check_training(dim=dim, window=window, initial_lr=initial_lr, final_lr=final_lr,
                   method=method, negative=negative)
    if n_entities < 2:
        raise ValueError("need at least 2 entities to train")
    if not walks:
        raise ValueError("empty walk corpus")
    total_pairs = _count_pairs(walks, window)
    if not total_pairs:
        raise ValueError("no walk has two entities, so there is no (center, context) pair")

    freqs = np.bincount(np.concatenate(walks), minlength=n_entities)
    if method == "negative" and np.count_nonzero(freqs) < 2:
        raise ValueError("negative sampling needs at least 2 distinct entities in the walks")

    rng = np.random.default_rng([seed, _INIT_SALT])
    vectors = (rng.random((n_entities, dim)) - 0.5) / dim
    tree = node_vecs = None
    if method == "hs":
        tree = build_huffman(freqs)
        out_vecs = node_vecs = np.zeros((n_entities - 1, dim))
        path_mask = np.arange(tree.points.shape[1]) < tree.lengths[:, None]
        path_labels = (tree.codes == 0) & path_mask  # masked padding errors stay +0.0
    else:
        out_vecs = np.zeros((n_entities, dim))
        noise_cdf = _make_noise_cdf(freqs)
        noise_rng = np.random.default_rng([seed, _NEG_SALT])
        ns_labels = np.r_[1.0, np.zeros(negative)]

    offsets = {n: _pair_offsets(n, window) for n in {len(w) for w in walks}}
    lr_span = final_lr - initial_lr
    done = 0
    for g0 in range(0, len(walks), _GROUP):
        centers, contexts, bounds = _lockstep_pairs(walks[g0:g0 + _GROUP], offsets)
        alpha = initial_lr + lr_span * ((done + np.arange(len(centers))) / total_pairs)
        done += len(centers)
        if method == "negative":
            targets = _noise_targets(contexts, negative, noise_cdf, noise_rng)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if method == "hs":
                ctx = contexts[lo:hi]
                width = int(tree.lengths[ctx].max())
                _sgd_step(vectors, out_vecs, centers[lo:hi], tree.points[ctx, :width],
                          path_labels[ctx, :width], path_mask[ctx, :width], alpha[lo:hi])
            else:
                _sgd_step(vectors, out_vecs, centers[lo:hi], targets[lo:hi], ns_labels,
                          None, alpha[lo:hi])

    return SkipGramModel(input_vectors=vectors, node_vectors=node_vecs, tree=tree)
