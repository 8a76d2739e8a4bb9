"""Seeded planted-data generator for the benchmark workloads.

Every workload's inputs are written in the package's external formats (edge
TSV, entity/category TSV, vote CSV, feature text) or, for
``neighbor_scoring``, in the persisted neighbor-list format the CLI stages
read. A separate ``truth.json`` names the planted categories; the program
never reads it, the benchmark uses it to score ``planted_precision``.

The same (workload, seed, scale) always produces byte-identical files: all
randomness comes from ``numpy.random.default_rng([seed, salt])`` and floats
are written with ``repr``.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Sizes per workload. "full" is what the benchmark measures; "tiny" is for
# the smoke tests. The vote model is the same everywhere: each question lists
# one planted category and m-1 decoys, and a voter picks the planted one with
# probability ``planted_vote``, otherwise a uniformly random decoy.
SIZES = {
    "graph_embed": {
        "full": dict(n=1000, blocks=100, in_degree=8, random_degree=2,
                     questions=750, answers_per_question=4,
                     vote_planted=60, vote_decoys=60),
        "tiny": dict(n=120, blocks=6, in_degree=3, random_degree=2,
                     questions=30, answers_per_question=2,
                     vote_planted=6, vote_decoys=6),
    },
    "feature_grid": {
        "full": dict(n=800, blocks=40, dim=64, prototype_alpha=0.5,
                     concentration=1.5, category_size=8, questions=250,
                     answers_per_question=4, vote_planted=40, vote_decoys=40),
        "tiny": dict(n=90, blocks=6, dim=8, prototype_alpha=0.5,
                     concentration=20.0, category_size=6, questions=30,
                     answers_per_question=2, vote_planted=3, vote_decoys=3),
    },
    "neighbor_scoring": {
        "full": dict(n=10_000, k=25, categories=1000, zipf_exponent=0.6,
                     max_size=1500, min_size=2, member_noise=0.6,
                     isolated=0.005, graph_neighbors=5, questions=3000,
                     answers_per_question=2, vote_planted=100, vote_decoys=100),
        "tiny": dict(n=300, k=6, categories=40, zipf_exponent=0.6,
                     max_size=60, min_size=2, member_noise=0.6,
                     isolated=0.01, graph_neighbors=2, questions=60,
                     answers_per_question=1, vote_planted=10, vote_decoys=10),
    },
}

CHOICES_PER_QUESTION = 4
PLANTED_VOTE = 0.8

_SALTS = {"graph_embed": 0x6E, "feature_grid": 0xF6, "neighbor_scoring": 0x25}


def _entity_ids(n: int) -> list[str]:
    return [f"v{i:06d}" for i in range(n)]


def _write_lines(path: str, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def _write_edges(path: str, ids: list[str], edges):
    _write_lines(path, (f"{ids[u]}\t{ids[v]}" for u, v in edges))


def _ring(n: int) -> list[tuple[int, int]]:
    # A ring listed first makes the loader intern ids in index order, so
    # dense indices in other files line up with the graph's.
    return [(i, (i + 1) % n) for i in range(n)]


def _blocks(rng, n: int, blocks: int) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(perm[b::blocks]) for b in range(blocks)]


def _noisy(rng, members: np.ndarray, n: int, noise: float) -> np.ndarray:
    """Replace a ``noise`` share of a member set with random outsiders."""
    k = int(round(noise * len(members)))
    if k == 0:
        return np.sort(members)
    keep = rng.choice(members, size=len(members) - k, replace=False)
    outside = np.setdiff1d(np.arange(n), members)
    extra = rng.choice(outside, size=k, replace=False)
    return np.sort(np.concatenate([keep, extra]))


def _decoys(rng, n: int, sizes) -> list[np.ndarray]:
    return [np.sort(rng.choice(n, size=int(s), replace=False)) for s in sizes]


def _name_categories(rng, planted, decoys):
    """Interleave planted and decoy sets under shuffled names.

    Returns ``(names, member_sets, planted_names)``; category order in the
    written TSV follows the shuffled names, so neither index nor name says
    which category is planted.
    """
    sets = list(planted) + list(decoys)
    order = rng.permutation(len(sets))
    names = [f"cat{i:05d}" for i in range(len(sets))]
    member_sets = [sets[j] for j in order]
    planted_names = sorted(names[i] for i, j in enumerate(order) if j < len(planted))
    return names, member_sets, planted_names


def _write_categories(path: str, ids, names, member_sets):
    per_entity: dict[int, list[str]] = {}
    for name, ms in zip(names, member_sets):
        for e in ms.tolist():
            per_entity.setdefault(e, []).append(name)
    _write_lines(path, (f"{ids[e]}\t{c}" for e in sorted(per_entity)
                        for c in per_entity[e]))


def _write_votes(rng, path: str, planted_names, decoy_names, sz) -> int:
    """Questions with one planted and m-1 decoy choices; returns answer count."""
    vote_planted = rng.choice(planted_names, size=sz["vote_planted"], replace=False)
    vote_decoys = rng.choice(decoy_names, size=sz["vote_decoys"], replace=False)
    m = CHOICES_PER_QUESTION
    lines = ["question_id," + ",".join(f"choice_{i + 1}" for i in range(m)) + ",voted_index"]
    for q in range(sz["questions"]):
        good = str(rng.choice(vote_planted))
        bad = [str(x) for x in rng.choice(vote_decoys, size=m - 1, replace=False)]
        choices = [good] + bad
        perm = rng.permutation(m)
        choices = [choices[i] for i in perm]
        good_pos = int(np.flatnonzero(perm == 0)[0])
        for _ in range(sz["answers_per_question"]):
            if rng.random() < PLANTED_VOTE:
                pos = good_pos
            else:
                pos = int(rng.choice([i for i in range(m) if i != good_pos]))
            lines.append(f"q{q:05d}," + ",".join(choices) + f",{pos + 1}")
    _write_lines(path, lines)
    return len(lines) - 1


def _gen_graph_embed(rng, sz, out_dir):
    n = sz["n"]
    ids = _entity_ids(n)
    blocks = _blocks(rng, n, sz["blocks"])
    block_of = np.empty(n, dtype=np.int64)
    for b, ms in enumerate(blocks):
        block_of[ms] = b
    edges = set()
    for v in range(n):
        mates = blocks[block_of[v]]
        for u in rng.choice(mates, size=sz["in_degree"]).tolist():
            if u != v:
                edges.add((min(u, v), max(u, v)))
        for u in rng.integers(0, n, size=sz["random_degree"]).tolist():
            if u != v:
                edges.add((min(u, v), max(u, v)))
    _write_edges(os.path.join(out_dir, "edges.tsv"), ids, sorted(edges))
    decoys = _decoys(rng, n, [len(ms) for ms in blocks])
    return ids, blocks, decoys, {"edges": len(edges)}


def _gen_feature_grid(rng, sz, out_dir):
    n, dim = sz["n"], sz["dim"]
    ids = _entity_ids(n)
    blocks = _blocks(rng, n, sz["blocks"])
    protos = rng.dirichlet(np.full(dim, sz["prototype_alpha"]), size=len(blocks))
    rows = np.empty((n, dim))
    for b, ms in enumerate(blocks):
        # the floor keeps every alpha positive when a prototype component
        # underflows to zero
        alpha = sz["concentration"] * protos[b] + 1e-3
        rows[ms] = rng.dirichlet(alpha, size=len(ms))
    rows /= rows.sum(axis=1, keepdims=True)
    _write_edges(os.path.join(out_dir, "edges.tsv"), ids, _ring(n))
    header = f"{n} {dim} distribution"
    _write_lines(os.path.join(out_dir, "features.txt"),
                 [header] + [ids[e] + "\t" + " ".join(repr(x) for x in rows[e].tolist())
                             for e in range(n)])
    # planted categories are a sample of each block, so most entities are in
    # no category and scoring stays cheap next to the distance kernels
    planted = [np.sort(rng.choice(ms, size=sz["category_size"], replace=False))
               for ms in blocks]
    decoys = _decoys(rng, n, [len(ms) for ms in planted])
    return ids, planted, decoys, {"features": n}


def _knn_lists(points: np.ndarray, k: int):
    """Exact k nearest other points, sorted by (distance, index)."""
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    dist, idx = tree.query(points, k=k + 1)
    out = []
    for v in range(len(points)):
        keep = idx[v] != v
        d, i = dist[v][keep][:k], idx[v][keep][:k]
        order = np.lexsort((i, d))
        out.append((i[order], d[order]))
    return tree, out


def _zipf_sizes(sz) -> np.ndarray:
    ranks = np.arange(1, sz["categories"] + 1, dtype=np.float64)
    sizes = np.floor(sz["max_size"] / ranks ** sz["zipf_exponent"]).astype(np.int64)
    return np.maximum(sizes, sz["min_size"])


def _gen_neighbor_scoring(rng, sz, out_dir):
    n, k = sz["n"], sz["k"]
    ids = _entity_ids(n)
    points = rng.random((n, 2))
    tree, lists = _knn_lists(points, k)
    isolated = set(rng.choice(n, size=max(1, int(sz["isolated"] * n)), replace=False).tolist())
    nb_lines = []
    entries = 0
    for v, (idx, dist) in enumerate(lists):
        if v in isolated:
            nb_lines.append(f"{v}\t")
            continue
        nb_lines.append(f"{v}\t" + ",".join(f"{i}:{d!r}" for i, d in
                                            zip(idx.tolist(), dist.tolist())))
        entries += len(idx)
    nb_path = os.path.join(out_dir, "neighbors.tsv")
    _write_lines(nb_path, nb_lines)
    with open(nb_path + ".meta.json", "w", encoding="utf-8") as f:
        json.dump({"metric": "l2", "strategy": "count", "k": k, "clamped": False,
                   "pairs": "directed", "n": n}, f, separators=(",", ":"), sort_keys=True)

    g = sz["graph_neighbors"]
    edges = _ring(n) + [(v, int(u)) for v, (idx, _) in enumerate(lists)
                        for u in idx[:g].tolist()]
    _write_edges(os.path.join(out_dir, "edges.tsv"), ids, edges)

    sizes = rng.permutation(_zipf_sizes(sz))
    half = len(sizes) // 2
    planted = []
    for s in sizes[:half].tolist():
        centre = rng.random(2)
        _, near = tree.query(centre, k=s)
        planted.append(_noisy(rng, np.atleast_1d(near), n, sz["member_noise"]))
    decoys = _decoys(rng, n, sizes[half:])
    return ids, planted, decoys, {"neighbor_entries": entries,
                                  "isolated": len(isolated)}


_GENERATORS = {
    "graph_embed": _gen_graph_embed,
    "feature_grid": _gen_feature_grid,
    "neighbor_scoring": _gen_neighbor_scoring,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, out_dir: str, scale: str = "full") -> dict:
    """Write one workload's inputs under ``out_dir`` and return ``truth.json``'s content."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    sz = SIZES[workload][scale]
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, _SALTS[workload]])
    ids, planted, decoys, extra = _GENERATORS[workload](rng, sz, out_dir)
    names, member_sets, planted_names = _name_categories(rng, planted, decoys)
    _write_categories(os.path.join(out_dir, "categories.tsv"), ids, names, member_sets)
    planted_set = set(planted_names)
    decoy_names = [c for c in names if c not in planted_set]
    answers = _write_votes(rng, os.path.join(out_dir, "votes.csv"), planted_names,
                           decoy_names, sz)
    truth = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "sizes": sz,
        "n_entities": len(ids),
        "n_categories": len(names),
        "memberships": int(sum(len(ms) for ms in member_sets)),
        "answers": answers,
        "planted": planted_names,
        **extra,
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as f:
        json.dump(truth, f, indent=1, sort_keys=True)
        f.write("\n")
    return truth

