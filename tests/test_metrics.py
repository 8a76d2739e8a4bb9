import math

import numpy as np
import pytest

from catrank import metrics
from catrank.metrics import LN2, distance

from conftest import random_simplex


def test_l2_3_4_5():
    assert distance("l2", [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_cosine_antipodal_and_identity():
    assert distance("cosine", [1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
    assert distance("cosine", [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        distance("cosine", [0.0, 0.0], [1.0, 0.0])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        distance("l1", [1.0], [1.0, 2.0])


def test_js_disjoint_supports_is_ln2():
    assert distance("js", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)


def test_js_derived_value():
    # direct evaluation of 0.5*KL(x||m) + 0.5*KL(y||m), m = (x+y)/2:
    # 0.5*(0.5 ln(4/3) + 0.5 ln(4/5)) + 0.5*(0.25 ln(2/3) + 0.75 ln(6/5))
    assert distance("js", [0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.033822, abs=1e-5)


def test_kl_derived_value():
    # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75)
    assert distance("kl", [0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.143841, abs=1e-5)


def test_identity_all_metrics():
    rng = np.random.default_rng(11)
    x = rng.random(16)
    p = x / x.sum()
    assert distance("l1", x, x) == 0.0
    assert distance("l2", x, x) == 0.0
    assert distance("cosine", x, x) <= 1e-12
    assert distance("js", p, p) == 0.0
    assert abs(distance("kl", p, p)) <= 1e-9


def test_symmetry_and_kl_asymmetry():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.random(8)
        y = rng.random(8)
        p, q = x / x.sum(), y / y.sum()
        for m in ("l1", "l2", "cosine"):
            assert distance(m, x, y) == pytest.approx(distance(m, y, x), rel=1e-12)
        assert distance("js", p, q) == pytest.approx(distance("js", q, p), rel=1e-12)
    # explicit asymmetry witness for KL
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    assert abs(distance("kl", p, q) - distance("kl", q, p)) > 1e-3


def test_triangle_inequality_l1_l2():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x, y, z = rng.random((3, 6)) * 10 - 5
        for m in ("l1", "l2"):
            assert distance(m, x, z) <= distance(m, x, y) + distance(m, y, z) + 1e-9


def test_js_bounds_and_kl_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(500):
        p = random_simplex(rng, 1, 10)[0]
        q = random_simplex(rng, 1, 10)[0]
        js = distance("js", p, q)
        assert 0.0 <= js <= LN2
        assert distance("kl", p, q) >= -1e-12
        assert 0.0 <= distance("cosine", p, q) <= 2.0


def test_block_matches_scalar():
    rng = np.random.default_rng(15)
    n, dim = 40, 7
    pts = rng.standard_normal((n, dim))
    simplex = random_simplex(rng, n, dim)
    for metric in ("l1", "l2", "cosine", "kl", "js"):
        rows = simplex if metric in ("kl", "js") else pts
        prep = metrics.prepare(metric, rows)
        got = metrics.block(metric, rows, np.arange(n), prep)
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                assert got[i, j] == pytest.approx(
                    distance(metric, rows[i], rows[j]), rel=1e-10, abs=1e-12)


def test_pair_distances_matches_scalar():
    rng = np.random.default_rng(16)
    n, dim = 30, 5
    pts = rng.standard_normal((n, dim))
    simplex = random_simplex(rng, n, dim)
    i = rng.integers(0, n, 100)
    j = rng.integers(0, n, 100)
    for metric in ("l1", "l2", "cosine", "kl", "js"):
        rows = simplex if metric in ("kl", "js") else pts
        prep = metrics.prepare(metric, rows)
        got = metrics.pair_distances(metric, rows, i, j, prep)
        for t in range(0, 100, 9):
            assert got[t] == pytest.approx(
                distance(metric, rows[i[t]], rows[j[t]]), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("dim", [6, 64])
@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
def test_symmetric_blocks_are_bitwise_transposes(metric, dim):
    # zero rows, and for l1 and l2 rows of +-1e308 whose distances overflow
    # to inf: each (i, j) must still carry the bytes of (j, i)
    rng = np.random.default_rng(17)
    n = 30
    if metric == "js":
        rows = random_simplex(rng, n, dim)
        rows[:4, : dim // 2] = 0.0
        rows[:4] /= rows[:4].sum(axis=1, keepdims=True)
    else:
        rows = rng.standard_normal((n, dim))
        rows[0] = 0.0
        rows[1, ::2] = 1e308
        rows[2, 1::3] = -1e308
        rows[3] = 1e308
    prep = metrics.prepare(metric, rows)
    with np.errstate(over="ignore"):
        full = metrics.block(metric, rows, np.arange(n), prep)
        for i in range(n):
            from_i = metrics.block(metric, rows, np.array([i]), prep)[0]
            to_i = metrics.block(metric, rows, np.arange(n), prep, start=i)[:, 0]
            assert from_i.tobytes() == to_i.tobytes(), i
    assert np.isinf(full).any() == (metric != "js")
