import numpy as np
import pytest

from catrank.data_model import FeatureMatrix
from catrank.errors import DataError
from catrank.neighbors import (
    NeighborSet,
    calibrate_threshold,
    calibrate_thresholds,
    filter_by_distance,
    knn_by_count,
    neighbors_by_distance,
    slice_knn,
)

from conftest import random_simplex
from oracles import naive_knn


def points(vals):
    return FeatureMatrix(kind="point", rows=np.asarray(vals, dtype=np.float64))


def test_knn_line_asymmetry():
    fm = points([[0.0], [1.0], [3.0]])
    nbrs = knn_by_count(fm, "l2", 1)
    assert nbrs.neighbors(0)[0].tolist() == [1]
    assert nbrs.neighbors(1)[0].tolist() == [0]
    assert nbrs.neighbors(2)[0].tolist() == [1]
    # 2 lists 1 but 1 does not list 2
    assert 2 not in nbrs.neighbors(1)[0]


def test_knn_tie_breaks_to_lower_index():
    fm = points([[0.0], [0.0], [0.0]])
    nbrs = knn_by_count(fm, "l2", 1)
    assert nbrs.neighbors(0)[0].tolist() == [1]
    assert nbrs.neighbors(1)[0].tolist() == [0]
    assert nbrs.neighbors(2)[0].tolist() == [0]


def test_knn_clamps_large_k():
    fm = points([[float(i)] for i in range(5)])
    nbrs = knn_by_count(fm, "l2", 10)
    assert all(d == 4 for d in nbrs.out_degrees())
    assert nbrs.meta["clamped"] is True


def test_knn_degree_regularity():
    rng = np.random.default_rng(3)
    fm = points(rng.standard_normal((30, 4)))
    nbrs = knn_by_count(fm, "l1", 7)
    assert all(d == 7 for d in nbrs.out_degrees())


def test_knn_matches_naive_oracle_small():
    rng = np.random.default_rng(4)
    for metric in ("l1", "l2", "cosine", "kl", "js"):
        n, dim = 25, 3
        if metric in ("kl", "js"):
            rows = random_simplex(rng, n, dim)
        else:
            rows = rng.standard_normal((n, dim))
        fm = FeatureMatrix(kind="distribution" if metric in ("kl", "js") else "point",
                           rows=rows)
        nbrs = knn_by_count(fm, metric, 4)
        expected = naive_knn(rows, metric, 4)
        for v in range(n):
            assert nbrs.neighbors(v)[0].tolist() == expected[v], (metric, v)


def test_knn_workers_deterministic():
    rng = np.random.default_rng(5)
    fm = points(rng.standard_normal((60, 8)))
    a = knn_by_count(fm, "l2", 5, workers=1)
    b = knn_by_count(fm, "l2", 5, workers=4)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.distances, b.distances)


def test_distance_strategy_semi_isolated():
    fm = points([[0.0], [1.0], [10.0]])
    nbrs = neighbors_by_distance(fm, "l2", 2.0)
    assert nbrs.neighbors(0)[0].tolist() == [1]
    assert nbrs.neighbors(1)[0].tolist() == [0]
    assert nbrs.neighbors(2)[0].tolist() == []


def test_distance_zero_all_distinct():
    fm = points([[0.0], [1.0], [2.0]])
    nbrs = neighbors_by_distance(fm, "l2", 0.0)
    assert all(d == 0 for d in nbrs.out_degrees())


def test_distance_max_keeps_everything():
    rng = np.random.default_rng(6)
    fm = points(rng.standard_normal((12, 3)))
    dmax = max(
        np.sqrt(((fm.rows[i] - fm.rows[j]) ** 2).sum())
        for i in range(12) for j in range(12)
    )
    for radius in (float(dmax), float("inf")):
        nbrs = neighbors_by_distance(fm, "l2", radius)
        assert all(d == 11 for d in nbrs.out_degrees())


@pytest.mark.parametrize("radius", [-1.0, float("nan")])
def test_distance_threshold_must_be_nonnegative(radius):
    with pytest.raises(ValueError, match="nonnegative"):
        neighbors_by_distance(points([[0.0], [1.0]]), "l2", radius)


def test_distance_strategy_symmetric():
    rng = np.random.default_rng(7)
    fm = points(rng.standard_normal((40, 4)))
    nbrs = neighbors_by_distance(fm, "l2", 1.0)
    listed = {(v, int(u)) for v in range(40) for u in nbrs.neighbors(v)[0]}
    assert all((b, a) in listed for a, b in listed)


def test_distance_monotone_in_threshold():
    rng = np.random.default_rng(8)
    fm = points(rng.standard_normal((30, 4)))
    small = neighbors_by_distance(fm, "l2", 0.8)
    large = neighbors_by_distance(fm, "l2", 1.2)
    for v in range(30):
        sm = set(small.neighbors(v)[0].tolist())
        lg = set(large.neighbors(v)[0].tolist())
        assert sm <= lg


def test_calibrate_exact_line_example():
    # 1-D points {0,1,2,3}: six unordered distances 1,1,1,2,2,3; the
    # ceil(1.5*4) = 6th smallest directed distance is 1, and D=1 keeps six
    # directed pairs for an average of exactly 1.5
    fm = points([[0.0], [1.0], [2.0], [3.0]])
    d = calibrate_threshold(fm, "l2", 1.5)
    assert d == 1.0
    nbrs = neighbors_by_distance(fm, "l2", d)
    assert nbrs.out_degrees().mean() == 1.5


def test_calibrate_identical_points():
    fm = points([[1.0]] * 6)
    d = calibrate_threshold(fm, "l2", 4.9)
    assert d == 0.0
    nbrs = neighbors_by_distance(fm, "l2", d)
    assert all(deg == 5 for deg in nbrs.out_degrees())


def test_calibrate_target_too_large():
    fm = points([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="below n-1"):
        calibrate_threshold(fm, "l2", 2.0)


def test_calibrate_sampled_close_to_exact():
    rng = np.random.default_rng(9)
    fm = points(rng.standard_normal((400, 8)))
    exact = calibrate_thresholds(fm, "l2", [5, 10, 25])
    sampled = calibrate_thresholds(fm, "l2", [5, 10, 25], exact_limit=10,
                                   sample_pairs=120_000, seed=1)
    for target, d in zip([5, 10, 25], sampled):
        avg = neighbors_by_distance(fm, "l2", d).out_degrees().mean()
        assert abs(avg - target) <= 0.1 * target
    assert all(s <= l for s, l in zip(sampled, sampled[1:]))
    assert all(e <= l for e, l in zip(exact, exact[1:]))


def test_slice_and_filter_reuse():
    rng = np.random.default_rng(10)
    fm = points(rng.standard_normal((50, 4)))
    full = knn_by_count(fm, "l2", 10)
    sliced = slice_knn(full, 3)
    direct = knn_by_count(fm, "l2", 3)
    assert np.array_equal(sliced.indices, direct.indices)
    assert np.array_equal(sliced.distances, direct.distances)

    wide = neighbors_by_distance(fm, "l2", 1.5)
    narrowed = filter_by_distance(wide, 0.9)
    direct = neighbors_by_distance(fm, "l2", 0.9)
    assert np.array_equal(narrowed.indices, direct.indices)
    assert np.array_equal(narrowed.distances, direct.distances)


def test_neighbor_set_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    fm = points(rng.standard_normal((20, 3)))
    nbrs = knn_by_count(fm, "cosine", 4)
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    back = NeighborSet.load(path)
    assert np.array_equal(back.indptr, nbrs.indptr)
    assert np.array_equal(back.indices, nbrs.indices)
    assert np.array_equal(back.distances, nbrs.distances)
    assert back.meta["metric"] == "cosine"


def test_neighbor_set_round_trip_with_empty_lists(tmp_path):
    fm = points([[0.0], [1.0], [10.0]])
    nbrs = neighbors_by_distance(fm, "l2", 2.0)
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    back = NeighborSet.load(path)
    assert np.array_equal(back.indptr, nbrs.indptr)
    assert np.array_equal(back.indices, nbrs.indices)


@pytest.mark.parametrize("cell", ["3:0.5", "-1:0.5"])
def test_neighbor_set_load_rejects_index_out_of_range(tmp_path, cell):
    path = tmp_path / "nb.tsv"
    path.write_text(f"0\t1:0.5\n1\t0:0.5,{cell}\n2\t\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv:2: neighbor index -?\d outside \[0, 3\)"):
        NeighborSet.load(str(path))


def test_neighbor_set_load_rejects_self_neighbor(tmp_path):
    path = tmp_path / "nb.tsv"
    path.write_text("0\t1:0.5\n1\t0:0.5\n2\t0:1.5,2:0.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv:3: neighbor index 2 is the entity itself"):
        NeighborSet.load(str(path))
