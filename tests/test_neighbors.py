import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrank import metrics, neighbors
from catrank.data_model import CSR, FeatureMatrix, open_text
from catrank.errors import DataError
from catrank.neighbors import (
    NeighborSet,
    calibrate_thresholds,
    filter_by_distance,
    knn_by_count,
    neighbors_by_distance,
    slice_knn,
)

from conftest import random_simplex
from oracles import knn_by_stable_sort, naive_knn, parse_neighbor_list, parse_rows

def test_neighbor_set_is_csr():
    nbrs = NeighborSet(indptr=np.array([0, 1, 1]), indices=np.array([1]),
                       distances=np.array([0.5]))
    assert isinstance(nbrs, CSR)
    assert nbrs.n == len(nbrs) == 2
    assert [r.tolist() for r in nbrs] == [[1], []]
    assert nbrs.out_degrees().tolist() == [1, 0]


# 36 integer points, so l1 distances are exact and take only ten values
GRID = np.array([[x, y] for x in range(6) for y in range(6)], dtype=np.float64)


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


def test_knn_clamps_large_k(caplog):
    fm = points([[float(i)] for i in range(5)])
    with caplog.at_level(logging.WARNING, logger="catrank.neighbors"):
        nbrs = knn_by_count(fm, "l2", 10)
    assert all(d == 4 for d in nbrs.out_degrees())
    assert "clamping lists to 4 neighbors" in caplog.text


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
    d, = calibrate_thresholds(fm, "l2", [1.5])
    assert d == 1.0
    nbrs = neighbors_by_distance(fm, "l2", d)
    assert nbrs.out_degrees().mean() == 1.5


def test_calibrate_identical_points():
    fm = points([[1.0]] * 6)
    d, = calibrate_thresholds(fm, "l2", [4.9])
    assert d == 0.0
    nbrs = neighbors_by_distance(fm, "l2", d)
    assert all(deg == 5 for deg in nbrs.out_degrees())


def test_calibrate_target_too_large():
    fm = points([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="below n-1"):
        calibrate_thresholds(fm, "l2", [2.0])


@pytest.mark.parametrize("target", [float("nan"), 0.0, -1.0, float("inf")])
def test_calibrate_rejects_target_outside_range(target):
    fm = points([[0.0], [1.0], [2.0], [4.0]])
    for exact_limit in (20_000, 0):  # the exact scan and the sampled one
        with pytest.raises(ValueError, match=rf"count {target} must be positive and below n-1 = 3"):
            calibrate_thresholds(fm, "l2", [target], exact_limit=exact_limit)


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
    with open(path + ".meta.json", encoding="utf-8") as f:
        assert json.load(f) == {"n": 20}


def test_neighbor_set_round_trip_with_empty_lists(tmp_path):
    fm = points([[0.0], [1.0], [10.0]])
    nbrs = neighbors_by_distance(fm, "l2", 2.0)
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    back = NeighborSet.load(path)
    assert np.array_equal(back.indptr, nbrs.indptr)
    assert np.array_equal(back.indices, nbrs.indices)


@pytest.mark.parametrize("cell, message", [
    ("3:0.5", r"neighbor index 3 outside \[0, 3\)"),
    ("-1:0.5", r"expected row 1 as '1<TAB>id:distance,\.\.\.'"),
])
def test_neighbor_set_load_rejects_index_out_of_range(tmp_path, cell, message):
    path = tmp_path / "nb.tsv"
    path.write_text(f"0\t1:0.5\n1\t0:0.5,{cell}\n2\t\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv:2: " + message):
        NeighborSet.load(str(path))


def test_neighbor_set_load_rejects_index_beyond_int64(tmp_path):
    path = tmp_path / "nb.tsv"
    path.write_text(f"0\t1:0.5\n1\t{2**63}:0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv:2: neighbor index 9223372036854775808 "
                                        r"outside \[0, 2\)"):
        NeighborSet.load(str(path))


def test_neighbor_set_load_rejects_self_neighbor(tmp_path):
    path = tmp_path / "nb.tsv"
    path.write_text("0\t1:0.5\n1\t0:0.5\n2\t0:1.5,2:0.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv:3: neighbor index 2 is the entity itself"):
        NeighborSet.load(str(path))


@pytest.mark.parametrize("rows, line, message", [
    (["0\t1:0.5,1:0.5", "1\t0:0.5"], 1, "neighbor index 1 is repeated"),
    (["0\t1:0.5", "1\t0:0.5,2:0.1,0:0.7", "2\t0:0.1"], 2, "neighbor index 0 is repeated"),
    # one rule: the first row holding an id out of range, its own or repeated
    (["0\t1:0.5", "1\t2:0.5,2:0.5", "2\t9:0.1"], 2, "neighbor index 2 is repeated"),
    (["0\t1:0.5", "1\t9:0.5", "2\t0:0.1,0:0.1"], 2, r"neighbor index 9 outside \[0, 3\)"),
    (["0\t1:0.5,1:0.5,7:0.1", "1\t0:0.5"], 1, "neighbor index 1 is repeated"),
])
def test_neighbor_set_load_rejects_repeated_neighbor(tmp_path, rows, line, message):
    path = tmp_path / "nb.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"nb\.tsv:{line}: {message}$"):
        NeighborSet.load(str(path))


def test_neighbor_set_load_checks_sidecar_row_count(tmp_path):
    fm = points(np.arange(20.0)[:, None])
    path = str(tmp_path / "nb.tsv")
    knn_by_count(fm, "l1", 3).save(path)
    # cut the last two rows: row 17 still names entity 18 and is fine as
    # written, so the sidecar's count is what must catch the cut
    lines = (tmp_path / "nb.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "nb.tsv").write_text("".join(lines[:18]), encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv: 18 rows, but .*nb\.tsv\.meta\.json "
                                        r"says n = 20$"):
        NeighborSet.load(path)


@pytest.mark.parametrize("n", ["true", "1.0"])
def test_neighbor_set_load_refuses_a_non_integer_sidecar_count(tmp_path, n):
    # true == 1 and 1.0 == 1 in Python, so only the type tells them from a count
    path = tmp_path / "nb.tsv"
    path.write_text("0\t\n", encoding="utf-8")
    (tmp_path / "nb.tsv.meta.json").write_text('{"n": 1}', encoding="utf-8")
    assert NeighborSet.load(str(path)).n == 1
    (tmp_path / "nb.tsv.meta.json").write_text(f'{{"n": {n}}}', encoding="utf-8")
    with pytest.raises(DataError, match=r"nb\.tsv: 1 rows, but .*nb\.tsv\.meta\.json says n = "):
        NeighborSet.load(str(path))


def test_neighbor_set_load_ignores_other_sidecar_keys(tmp_path):
    # the keys earlier versions of knn wrote, which the benchmark's planted lists still carry
    path = tmp_path / "nb.tsv"
    path.write_text("0\t1:0.5\n1\t0:0.5\n2\t1:1.0\n", encoding="utf-8")
    (tmp_path / "nb.tsv.meta.json").write_text(
        '{"clamped":false,"k":1,"metric":"l2","n":3,"pairs":"directed","strategy":"count"}',
        encoding="utf-8")
    back = NeighborSet.load(str(path))
    assert back.indptr.tolist() == [0, 1, 2, 3]
    assert back.indices.tolist() == [1, 0, 1]
    assert back.distances.tolist() == [0.5, 0.5, 1.0]


def check_load(path, expected):
    """``NeighborSet.load`` on ``path`` gives ``expected``: the rows as lists
    of (id, distance), bit for bit, or DataError at the line numbered
    ``expected``."""
    if isinstance(expected, int):
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{expected}: "):
            NeighborSet.load(str(path))
        return
    nbrs = NeighborSet.load(str(path))
    indptr = np.cumsum([0] + [len(row) for row in expected])
    indices = np.array([i for row in expected for i, _ in row], dtype=np.int64)
    distances = np.array([d for row in expected for _, d in row], dtype=np.float64)
    for a, b in ((nbrs.indptr, indptr), (nbrs.indices, indices),
                 (nbrs.distances, distances)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_ROWS = ["0\t1:0.5,3:0.25", "1\t0:0.5", "2\t3:0.125,4:1e-05", "3\t2:2.0", "4\t"]
_LISTS = [[(1, 0.5), (3, 0.25)], [(0, 0.5)], [(3, 0.125), (4, 1e-05)], [(2, 2.0)], []]
_TOKENS = ["1.0", "1e3", "+3", " 3", "03", "1_0", "0x1p3", "nan", "inf", "-inf", "-0.0"]
# row 2's first distance for each token that is a distance in the format
_DISTANCES = {"1.0": 1.0, "1e3": 1000.0, "+3": 3.0, "03": 3.0, "inf": math.inf,
              "-0.0": -0.0}


def _with_row(i, row):
    return "\n".join(_ROWS[:i] + [row] + _ROWS[i + 1:])


_LOAD_CASES = (
    # (file text, the rows it loads as or the line of its DataError)
    [("\n".join(_ROWS) + "\n", _LISTS), ("\n".join(_ROWS), _LISTS),
     ("\r\n".join(_ROWS) + "\r\n", _LISTS), ("\r".join(_ROWS), _LISTS),
     ("\n\n" + "\n\n".join(_ROWS) + "\n\n", _LISTS),
     (_with_row(4, "4"), 5),
     (_with_row(0, _ROWS[0] + ","), 1),
     (_with_row(0, _ROWS[0] + ",,1:0.5"), 1),
     (_with_row(0, "0\t1:0.5:3"), 1),
     (_with_row(0, "0\t1:"), 1),
     (_with_row(0, "0\t:0.5"), 1),
     (_with_row(0, "0\t1"), 1),
     (_with_row(0, "0\t1:0.5\t"), 1),
     (_with_row(0, "0\t7:0.5"), 1),
     (_with_row(0, "0\t0:0.5"), 1),
     (_with_row(0, "0\t" + "9" * 30 + ":0.5"), 1),
     (_with_row(0, "0\t" + "9" * 400 + ":0.5"), 1),
     (_with_row(0, "0\t\u0663:0.5"), 1),
     ("\n".join(_ROWS + ["5\t0:1.0", "6\tx"]), 7),
     # a bad row is found before an id out of range on an earlier row
     ("\n".join(["0\t9:0.5"] + _ROWS[1:] + ["5\tx"]), 6)]
    + [(_with_row(2, f"{ent}\t3:0.125"), 3) for ent in ("02", "+2", " 2", "2.0", "2_0", "\u0662")]
    + [(_with_row(2, f"2\t{tok}:0.125,4:1e-05"), _LISTS if tok == "03" else 3)
       for tok in _TOKENS]
    + [(_with_row(2, f"2\t3:{tok},4:1e-05"),
        _LISTS[:2] + [[(3, _DISTANCES[tok]), (4, 1e-05)]] + _LISTS[3:]
        if tok in _DISTANCES else 3)
       for tok in _TOKENS]
)


@pytest.mark.parametrize("block_chars", [neighbors._TEXT_BLOCK_CHARS, 20, 1])
@pytest.mark.parametrize("text, expected", _LOAD_CASES)
def test_neighbor_set_load_outcomes(monkeypatch, tmp_path, text, expected, block_chars):
    monkeypatch.setattr(neighbors, "_TEXT_BLOCK_CHARS", block_chars)
    path = tmp_path / "nb.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert parse_neighbor_list(text) == expected
    check_load(path, expected)


# -0.0, the smallest subnormal, the smallest normal, the largest finite and inf
_EDGE_DISTANCES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_neighbor_set_round_trip_is_bit_exact(tmp_path_factory, data):
    # save writes each distance as its shortest repr; load must read back the
    # same bits, and ids of up to five digits exactly
    n = data.draw(st.one_of(st.integers(2, 50), st.integers(10**4, 10**5)), label="n")
    rows = data.draw(st.dictionaries(st.integers(0, n - 1),
                                     st.lists(st.integers(0, n - 1), max_size=6, unique=True),
                                     max_size=8), label="rows")
    lists = [[i for i in rows.get(v, []) if i != v] for v in range(n)]
    indices = np.array([i for row in lists for i in row], dtype=np.int64)
    distances = np.array(data.draw(st.lists(
        st.sampled_from(_EDGE_DISTANCES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=len(indices), max_size=len(indices)), label="distances"), dtype=np.float64)
    nbrs = NeighborSet(indptr=np.cumsum([0] + [len(row) for row in lists]),
                       indices=indices, distances=distances)
    path = str(tmp_path_factory.mktemp("round_trip") / "nb.tsv")
    nbrs.save(path)
    back = NeighborSet.load(path)
    assert back.indptr.tolist() == nbrs.indptr.tolist()
    assert back.indices.dtype == np.int64 and back.indices.tolist() == indices.tolist()
    assert back.distances.view(np.int64).tolist() == distances.view(np.int64).tolist()


def test_neighbor_set_load_in_blocks_matches_one_block(monkeypatch, tmp_path):
    rng = np.random.default_rng(13)
    nbrs = neighbors_by_distance(points(rng.standard_normal((60, 2))), "l2", 0.8)
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    for block_chars in (neighbors._TEXT_BLOCK_CHARS, 1, 100, 1000):
        monkeypatch.setattr(neighbors, "_TEXT_BLOCK_CHARS", block_chars)
        back = NeighborSet.load(path)
        for a, b in ((back.indptr, nbrs.indptr), (back.indices, nbrs.indices),
                     (back.distances, nbrs.distances)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# tokens a field of a neighbor list may be replaced by: what the grammar
# refuses next to what it takes in an odd form (leading zeros, 19 or more
# digits, exponents, signs)
_ODD_TOKENS = [
    "inf", "-inf", "+inf", "nan", "1.2.3", "1e", ".", "--1", "e5", "+.5", "5.", "-.", "1e+5",
    "1E-05", "+3", " 3", "3 ", "1_0", "٣", "0x1p3", "", "00", "007", "0" * 18 + "1",
    "9" * 19, str(2**63), "9" * 30]


@st.composite
def _neighbor_list_texts(draw):
    """A valid list, its ids sometimes in odd forms, with up to two of its
    fields (entity, TAB, id, ':', distance, ',') replaced by an odd token or
    a few grammar characters."""
    n = draw(st.integers(1, 6))
    rows = []
    for v in range(n):
        others = [i for i in range(n) if i != v]
        ids = draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
        fields = [str(v), "\t"]
        for i in ids:
            fields += [draw(st.sampled_from([str(i)] * 6 + ["0" + str(i), "0" * 18 + str(i),
                                                           "9" * 19, str(2**63)])),
                       ":", repr(draw(st.floats(allow_nan=False))), ","]
        rows.append(fields[:-1] if ids else fields)
    for _ in range(draw(st.integers(0, 2))):
        fields = rows[draw(st.integers(0, n - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(_ODD_TOKENS) | st.text(alphabet="0123456789.eE+-:,\t _i٣", max_size=6))
    lines = ["".join(fields) for fields in rows]
    for at in draw(st.lists(st.integers(0, n), max_size=2)):
        lines.insert(at, "")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _check_against_translate(path, text):
    """``NeighborSet.load`` on ``path``, holding ``text``, refuses it with the
    byte-translate checker's DataError at its first bad line, or reads the
    out-degrees, ids (as float64), distances and row lines that checker
    reads in one block; the regular-expression oracle agrees, through the id
    checks."""
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as f:
        numbered = [(lineno, raw.rstrip("\n")) for lineno, raw in enumerate(f, 1)]
    linenos = [lineno for lineno, line in numbered if line]
    rows = [line for _, line in numbered if line]
    block = parse_rows(rows, 0)
    if block is None:
        v = next(v for v, row in enumerate(rows) if parse_rows([row], v) is None)
        with pytest.raises(DataError) as refused:
            NeighborSet.load(str(path))
        assert str(refused.value) == (f"{path}:{linenos[v]}: expected row {v} as "
                                      f"'{v}<TAB>id:distance,...'")
    else:
        degrees, ids, texts, lines = neighbors._parse(str(path))
        distances = neighbors._convert_distances(texts)
        for got, want in zip((degrees, ids, distances),
                             (block[0], block[1][0::2], block[1][1::2])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert lines.tolist() == linenos
    check_load(path, parse_neighbor_list(text))


@pytest.mark.parametrize("block_chars", [neighbors._TEXT_BLOCK_CHARS, 20, 1])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_neighbor_list_texts())
def test_neighbor_list_grammar_matches_the_translate_checker(tmp_path_factory, block_chars,
                                                             text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighbors, "_TEXT_BLOCK_CHARS", block_chars)
        _check_against_translate(tmp_path_factory.mktemp("grammar") / "nb.tsv", text)


@pytest.mark.parametrize("token", _ODD_TOKENS)
@pytest.mark.parametrize("field", ["entity", "id", "distance"])
def test_each_odd_token_matches_the_translate_checker(tmp_path, token, field):
    cells = {"entity": "1", "id": "0", "distance": "0.5", field: token}
    text = f"0\t1:0.25\n{cells['entity']}\t{cells['id']}:{cells['distance']}\n"
    _check_against_translate(tmp_path / "nb.tsv", text)


def test_loaded_distances_convert_once_on_first_read(monkeypatch, tmp_path):
    nbrs = neighbors_by_distance(points(np.arange(6.0)[:, None]), "l1", 2.0)
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    calls = []
    convert = neighbors._convert_distances
    monkeypatch.setattr(neighbors, "_convert_distances",
                        lambda blocks: calls.append(1) or convert(blocks))
    back = NeighborSet.load(path)
    assert not calls
    first = back.distances
    assert back.distances is first and len(calls) == 1
    assert first.tobytes() == nbrs.distances.tobytes()


def test_knn_never_lists_the_entity_itself(tmp_path):
    # every distance overflows to inf, so all candidates tie at inf
    with np.errstate(over="ignore"):
        nbrs = knn_by_count(points([[0.0], [1e200], [-1e200]]), "l2", 2)
    owner = np.repeat(np.arange(3), nbrs.out_degrees())
    assert not (nbrs.indices == owner).any()
    path = str(tmp_path / "nb.tsv")
    nbrs.save(path)
    back = NeighborSet.load(path)
    for a, b in ((back.indptr, nbrs.indptr), (back.indices, nbrs.indices),
                 (back.distances, nbrs.distances)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _features(metric, rng, n, dim):
    if metric in ("kl", "js"):
        return FeatureMatrix(kind="distribution", rows=random_simplex(rng, n, dim))
    return points(rng.standard_normal((n, dim)))


def _scan(fm, metric, workers):
    knn = knn_by_count(fm, metric, 5, workers=workers)
    ds = calibrate_thresholds(fm, metric, [0.5, 1.5, 4.0], workers=workers)
    near = neighbors_by_distance(fm, metric, ds[-1], workers=workers)
    return [knn.indptr, knn.indices, knn.distances, np.array(ds),
            near.indptr, near.indices, near.distances]


def _check_block_budget(monkeypatch, metric, n, dim):
    fm = _features(metric, np.random.default_rng(12), n, dim)
    expected = _scan(fm, metric, workers=1)
    width = 1 if metric in metrics.GEMM_METRICS else dim
    default = (neighbors._GEMM_BLOCK_ELEMENTS if metric in metrics.GEMM_METRICS
               else neighbors._BLOCK_ELEMENTS)
    shapes = []
    block = metrics.block

    def recording(metric, rows, q, prep, start=0):
        d = block(metric, rows, q, prep, start)
        assert start in (0, q[0])
        shapes.append((*d.shape, start))
        return d

    monkeypatch.setattr(metrics, "block", recording)
    # the default, blocks of a few rows, two-row GEMM blocks, single rows
    for budget in (default, 1000, 2 * n, 1):
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(neighbors, "_GEMM_BLOCK_ELEMENTS", budget)
        for workers in (1, 2):
            shapes.clear()
            got = _scan(fm, metric, workers)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (budget, workers)
            # the kNN, calibration and distance-list strips of l1, l2 and js
            # start at their first query row; cosine and kl blocks span all n
            assert shapes and all(cols == n - start for _, cols, start in shapes)
            # always several chunks, so some start past 0
            assert any(start for *_, start in shapes) == (metric not in metrics.GEMM_METRICS)
            assert all(rows * n * width <= budget or rows == 1 for rows, *_ in shapes)
            if budget == 1:
                assert all(rows == 1 for rows, *_ in shapes)


@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "kl", "js"])
def test_block_budget_bounds_blocks_and_keeps_results_bitwise(monkeypatch, metric):
    # dim 6: at higher dim cosine and kl are not bitwise block-invariant,
    # see the xfail test below
    _check_block_budget(monkeypatch, metric, 70, 6)


@pytest.mark.xfail(strict=False, reason=(
    "known gap, see the FOUND line on metrics.block in CHANGES.md: OpenBLAS "
    "sums small products (output below about 1,200 entries, dim >= 32) with "
    "another kernel, so cosine and kl change in the last bit with a block's "
    "row count"))
@pytest.mark.parametrize("metric", ["cosine", "kl"])
def test_gemm_blocks_bitwise_at_high_dim(monkeypatch, metric):
    _check_block_budget(monkeypatch, metric, 70, 64)


@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
def test_strip_blocks_bitwise_at_high_dim(monkeypatch, metric):
    _check_block_budget(monkeypatch, metric, 70, 64)


@pytest.mark.parametrize("n", [9, 40, 120])
@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "kl", "js"])
def test_results_do_not_depend_on_worker_count(metric, n):
    # dim 64, where cosine and kl change in the last bit with a block's row
    # count: the worker count must not change the blocks
    fm = _features(metric, np.random.default_rng(n), n, 64)
    expected = _scan(fm, metric, workers=1)
    for workers in (2, 3):
        for a, b in zip(_scan(fm, metric, workers), expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), workers


@pytest.mark.parametrize("budget", [neighbors._BLOCK_ELEMENTS, 1])
@pytest.mark.parametrize("workers", [1, 2])
def test_lists_break_distance_ties_by_index(monkeypatch, budget, workers):
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
    fm = points(GRID)
    knn = knn_by_count(fm, "l1", 20, workers=workers)
    near = neighbors_by_distance(fm, "l1", 3.0, workers=workers)
    expected_knn = naive_knn(GRID, "l1", 20)
    for v in range(len(GRID)):
        assert knn.neighbors(v)[0].tolist() == expected_knn[v]
        within = sorted((np.abs(GRID[v] - GRID[u]).sum(), u) for u in range(len(GRID))
                        if u != v and np.abs(GRID[v] - GRID[u]).sum() <= 3.0)
        assert near.neighbors(v)[0].tolist() == [u for _, u in within]


def _tied_inputs(metric, rng, n):
    """Inputs full of equal distances: an integer grid, duplicated simplex
    rows (zero distances, also to the entity itself) and, under l1 and l2,
    rows of 0 and +-1e200 or +-1e308 whose distances overflow to inf."""
    counts = rng.integers(0, 3, (n, 2)).astype(np.float64)
    simplex = random_simplex(rng, n // 2 + 1, 3)[rng.integers(0, n // 2 + 1, n)]
    if metric in ("kl", "js"):
        yield FeatureMatrix(kind="distribution", rows=(counts + 1) / (counts + 1).sum(1)[:, None])
        yield FeatureMatrix(kind="distribution", rows=simplex)
        return
    yield points(counts + 1 if metric == "cosine" else counts)
    yield points(simplex)
    if metric in ("l1", "l2"):
        yield points(rng.choice([-1e308, -1e200, 0.0, 1e200, 1e308], (n, 2)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("budget", [neighbors._BLOCK_ELEMENTS, 1])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "kl", "js"])
def test_knn_matches_full_stable_sort(monkeypatch, metric, workers, budget):
    # budget 1 makes every block a single row, so candidates of later rows
    # are held and cut back many times before their own strip arrives
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(neighbors, "_GEMM_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(21)
    for n in (2, 3, 7, 20, 61):
        for fm in _tied_inputs(metric, rng, n):
            for k in sorted({1, 3, n - 1, n, n + 4}):
                got = knn_by_count(fm, metric, k, workers=workers)
                expected = knn_by_stable_sort(fm, metric, k)
                for a, b in zip((got.indptr, got.indices, got.distances), expected):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, k, fm.rows)


def test_selection_orders_signed_zeros_and_inf_like_a_stable_sort():
    rng = np.random.default_rng(22)
    d = rng.choice([-0.0, 0.0, 1.0, np.inf], (50, 12))
    for m in range(1, 13):
        dist, ids = neighbors._keep_first(d, np.arange(12), m)
        expected = np.sort(np.argsort(d, axis=1, kind="stable")[:, :m], axis=1)
        assert ids.tolist() == expected.tolist()
        assert dist.tobytes() == np.take_along_axis(d, expected, 1).tobytes()


def test_calibrate_matches_full_sort_with_ties(monkeypatch):
    # 1,260 directed l1 distances over only ten values, so every rank below
    # falls inside a run of ties
    fm = points(GRID)
    n = len(GRID)
    pool = np.sort([np.abs(GRID[i] - GRID[j]).sum()
                    for i in range(n) for j in range(n) if i != j])
    # ranks 1, 2, 35, 36 and 37 straddle the end of the first single-row
    # block (35 pairs), 700 and 1,224 fall mid-pool, and 1,260 is the very
    # last pair, from a target just below n-1
    targets = [0.01, 0.05, 35 / 36, 1.0, 37 / 36, 700 / 36, 34.0, 34.99]
    ranks = [math.ceil(t * n) for t in targets]
    assert ranks[-1] == n * (n - 1)
    expected = [float(pool[r - 1]) for r in ranks]
    for budget in (neighbors._BLOCK_ELEMENTS, 2 * n, 1):
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
        for workers in (1, 2):
            assert calibrate_thresholds(fm, "l1", targets, workers=workers) == expected
            # one target at a time keeps only its own rank's prefix
            for t, d in zip(targets, expected):
                assert calibrate_thresholds(fm, "l1", [t], workers=workers) == [d]


def test_sampled_calibrate_matches_full_sort(monkeypatch):
    fm = points(GRID)
    n, sample_pairs = len(GRID), 300
    pool = np.sort(np.concatenate(list(
        neighbors._sampled_pair_distances(fm, "l1", sample_pairs, seed=4))))
    assert len(pool) == sample_pairs
    targets = [0.1, 1.0, 12.5, 34.99]
    ranks = [math.ceil(t * n / (n * (n - 1)) * sample_pairs) for t in targets]
    expected = [float(pool[r - 1]) for r in ranks]
    # a budget of 7 pairs per slice at dim 2 splits the one draw into 43 parts
    for budget in (neighbors._BLOCK_ELEMENTS, 14):
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
        got = calibrate_thresholds(fm, "l1", targets, exact_limit=0,
                                   sample_pairs=sample_pairs, seed=4)
        assert got == expected


def _tied_features(metric):
    """Nine rows with many equal distances, two of them duplicates."""
    if metric == "js":
        rows = np.array([[a, b, 4 - a - b] for a in range(3) for b in range(3)], float) / 4
    else:
        rows = np.array([[a, b] for a in range(3) for b in range(3)], float)
    rows[8] = rows[0]
    return FeatureMatrix(kind="distribution" if metric == "js" else "point", rows=rows)


def _directed_matrix(fm, metric):
    """Distances between all ordered pairs, the diagonal excluded as NaN."""
    d = metrics.block(metric, fm.rows, np.arange(fm.n_entities),
                      metrics.prepare(metric, fm.rows))
    d[np.diag_indices_from(d)] = np.nan
    return d


@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
def test_calibrate_reads_every_rank_of_the_directed_pool(monkeypatch, metric):
    # every rank from 1 to n(n-1), odd and even, most of them inside runs of
    # ties, the last one the largest directed distance
    fm = _tied_features(metric)
    n = fm.n_entities
    pool = np.sort(_directed_matrix(fm, metric).ravel())[:n * (n - 1)]
    targets = [(r - 0.5) / n for r in range(1, n * (n - 1) + 1)]
    assert [math.ceil(t * n) for t in targets] == list(range(1, n * (n - 1) + 1))
    for budget in (neighbors._BLOCK_ELEMENTS, 2 * n * fm.dim, 1):
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
        for workers in (1, 2):
            got = calibrate_thresholds(fm, metric, targets, workers=workers)
            assert np.array(got).tobytes() == pool.tobytes(), (budget, workers)


@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
def test_calibrate_two_entities(metric):
    rows = [[0.25, 0.75], [1.0, 0.0]] if metric == "js" else [[0.0, 0.0], [3.0, 4.0]]
    fm = FeatureMatrix(kind="distribution" if metric == "js" else "point",
                       rows=np.array(rows))
    d = float(_directed_matrix(fm, metric)[0, 1])
    # ranks 1 and 2 both read the one pair
    assert calibrate_thresholds(fm, metric, [0.2, 0.5, 0.99]) == [d, d, d]


# np.errstate does not reach the worker threads
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("metric", ["l1", "l2", "js"])
@pytest.mark.parametrize("radius", [0.0, float("inf")])
def test_distance_lists_match_full_scan(monkeypatch, metric, radius):
    # d = 0 keeps exactly the duplicate rows; d = inf keeps everything,
    # including the l1 and l2 distances that overflow to inf
    fm = _tied_features(metric)
    if metric != "js":
        fm.rows[3] = [1e308, -1e308]
        fm.rows[5] = fm.rows[3]
    n = fm.n_entities
    full = _directed_matrix(fm, metric)
    expected_indices, expected_distances = [], []
    for v in range(n):
        within = sorted((full[v, u], u) for u in range(n) if u != v and full[v, u] <= radius)
        expected_indices += [u for _, u in within]
        expected_distances += [dist for dist, _ in within]
    for budget in (neighbors._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", budget)
        for workers in (1, 2):
            near = neighbors_by_distance(fm, metric, radius, workers=workers)
            assert near.indices.tolist() == expected_indices
            assert np.array(expected_distances).tobytes() == near.distances.tobytes()
    if radius == 0.0:
        assert [near.neighbors(v)[0].tolist() for v in (0, 8)] == [[8], [0]]
    else:
        assert near.out_degrees().tolist() == [n - 1] * n
        assert np.isinf(near.distances).any() == (metric != "js")
