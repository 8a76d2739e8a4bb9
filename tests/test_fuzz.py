"""Malformed artifacts: every loader raises DataError and nothing else, and
the CLI stage that reads the artifact exits 2 whenever its loader rejects it.

Each example either replaces a valid artifact with random bytes or applies a
few random splices to it, then runs the loader and the stage on the result.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrank import neighbors
from catrank.cli import main
from catrank.data_model import (
    CategoryIndex,
    EntityGraph,
    load_categories,
    load_features,
    load_graph,
    load_votes,
    save_features_binary,
)
from catrank.embeddings import load_walks
from catrank.errors import DataError
from catrank.neighbors import NeighborSet
from catrank.report import read_ranking_csv

from test_cli import make_dataset, write_clique_neighbors, write_points
from oracles import parse_neighbor_list
from test_neighbors import check_load


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    make_dataset(d)
    write_points(d / "features.tsv")
    write_clique_neighbors(d / "nb.tsv")
    assert main(["ingest", "--graph", str(d / "edges.tsv"), "--categories",
                 str(d / "cats.tsv"), "--votes", str(d / "votes.csv"),
                 "--out-dir", str(d)]) == 0
    graph = EntityGraph.load(str(d / "graph.json"))
    save_features_binary(load_features(str(d / "features.tsv"), "point", graph),
                         graph.ids, str(d / "features.bin"))
    (d / "nb.tsv.meta.json").write_text('{"metric":"l2","n":12}', encoding="utf-8")
    assert main(["rank", "--neighbors", str(d / "nb.tsv"), "--categories",
                 str(d / "categories.json"), "--criterion", "surprise",
                 "--out", str(d / "ranking.csv")]) == 0
    assert main(["walk", "--graph", str(d / "graph.json"), "--walks-per-vertex", "1",
                 "--walk-length", "4", "--out", str(d / "walks.txt")]) == 0
    return d, graph, CategoryIndex.load(str(d / "categories.json"))


# (file mutated, loader the stage calls on it, stage argv with ``{d}`` for the
# base directory); every other input stays valid.
_KNN = ["knn", "--metric", "l2", "--k", "2", "--out", "{d}/o.tsv", "--features"]
_COHERENCE = ["coherence", "--neighbors", "{d}/nb.tsv", "--categories", "{d}/categories.json",
              "--out", "{d}/o.csv"]
_INGEST = ["ingest", "--out-dir", "{d}/out", "--graph", "{d}/edges.tsv"]

CASES = [
    ("edges.tsv", lambda p, g, c: load_graph(p), _INGEST),
    ("cats.tsv", lambda p, g, c: load_categories(p, g),
     _INGEST + ["--categories", "{d}/cats.tsv"]),
    ("votes.csv", lambda p, g, c: load_votes(p, c),
     _INGEST + ["--categories", "{d}/cats.tsv", "--votes", "{d}/votes.csv"]),
    ("features.tsv", lambda p, g, c: load_features(p, "point", g),
     _INGEST + ["--features", "{d}/features.tsv"]),
    ("features.tsv", lambda p, g, c: load_features(p, None, None), _KNN + ["{d}/features.tsv"]),
    ("features.bin", lambda p, g, c: load_features(p, None, None), _KNN + ["{d}/features.bin"]),
    ("features.bin.json", lambda p, g, c: load_features(p.removesuffix(".json"), None, None),
     _KNN + ["{d}/features.bin"]),
    ("graph.json", lambda p, g, c: EntityGraph.load(p),
     ["walk", "--graph", "{d}/graph.json", "--walk-length", "3", "--out", "{d}/o.txt"]),
    ("categories.json", lambda p, g, c: CategoryIndex.load(p), _COHERENCE),
    ("nb.tsv", lambda p, g, c: NeighborSet.load(p), _COHERENCE),
    ("nb.tsv.meta.json", lambda p, g, c: NeighborSet.load(p.removesuffix(".meta.json")),
     _COHERENCE),
    ("ranking.csv", lambda p, g, c: read_ranking_csv(p, c),
     ["report", "top", "--ranking", "{d}/ranking.csv", "--categories",
      "{d}/categories.json", "--out", "{d}/o.csv"]),
    ("walks.txt", lambda p, g, c: load_walks(p, g),
     ["embed", "--graph", "{d}/graph.json", "--walks", "{d}/walks.txt", "--dim", "2",
      "--window", "1", "--out", "{d}/o.tsv"]),
]


@st.composite
def spliced(draw, original: bytes, pieces=st.binary(max_size=6)) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 6)))
        data[i:j] = draw(pieces)
    return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_malformed_artifacts_raise_data_error_and_exit_2(base, case, data):
    d, graph, cats = base
    name, loader, argv = case
    target = d / name
    original = target.read_bytes()
    target.write_bytes(data.draw(st.one_of(st.binary(max_size=200), spliced(original))))
    try:
        try:
            loader(str(target), graph, cats)
            rejected = False
        except DataError:
            rejected = True
        rc = main([a.format(d=d) for a in argv])
    finally:
        target.write_bytes(original)
    assert rc == 2 if rejected else rc in (0, 2)


# a neighbor list in the saved form, with distances in plain and exponent
# notation and one inf, for the comparison with the oracle below
_NEIGHBORS = "".join(
    f"{v}\t" + ",".join(f"{(v + j) % 9}:{d!r}" for j, d in
                         enumerate((0.1 * v, 1e-05 * v, 123.456, 2.0 ** -40, math.inf), 1))
    + "\n" for v in range(9)).encode()
# splices drawn from the characters the parser is sensitive to, so that many
# spliced files still load
_PIECES = st.lists(st.sampled_from(b"0123456789.eE+-,:\t\n\r _xnaif"), max_size=4).map(bytes)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=spliced(_NEIGHBORS, _PIECES))
def test_neighbor_set_load_matches_oracle_on_spliced_files(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("nb") / "nb.tsv"
    path.write_bytes(data)
    expected = parse_neighbor_list(data.decode())
    default = neighbors._TEXT_BLOCK_CHARS
    try:
        for block_chars in (default, 50):  # one block; a few lines a block
            neighbors._TEXT_BLOCK_CHARS = block_chars
            check_load(path, expected)
    finally:
        neighbors._TEXT_BLOCK_CHARS = default


def test_neighbor_set_load_takes_the_unspliced_file(tmp_path):
    (tmp_path / "nb.tsv").write_bytes(_NEIGHBORS)
    expected = parse_neighbor_list(_NEIGHBORS.decode())
    assert isinstance(expected, list)
    check_load(tmp_path / "nb.tsv", expected)
