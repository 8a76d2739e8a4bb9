import math

import numpy as np
import pytest

from catrank.coherence import rank_categories
from catrank.data_model import FeatureMatrix
from catrank.errors import DataError
from catrank.neighbors import calibrate_thresholds
from catrank.report import (
    category_stats,
    quantiles_csv,
    ranking_csv,
    read_ranking_csv,
    stats_text,
    top_csv,
    top_table,
    top_text,
)

from conftest import categories_from_members, neighbor_set_from_lists


def test_stats_single_category_each():
    cats = categories_from_members([[0], [1], [2]], 3)
    stats = category_stats(cats)
    assert stats.mean == 1.0
    assert stats.histogram == [0, 3]


def test_stats_empty_subset_notes():
    cats = categories_from_members([[0, 1]], 2)
    stats = category_stats(cats, subset=[])
    assert stats.subset_histogram is None
    assert "empty" in stats.subset_note
    assert "omitted" in stats_text(stats)


def test_stats_skewed_head_vs_tail():
    # head entities carry 20 labels each, the tail 8: the subset mean must
    # sit well above the overall mean
    n_head, n_tail = 5, 45
    n = n_head + n_tail
    members = []
    for c in range(20):
        members.append(list(range(n_head)) if c >= 8 else list(range(n)))
    cats = categories_from_members(members, n)
    stats = category_stats(cats, subset=range(n_head))
    assert stats.subset_mean == 20.0
    assert stats.mean == pytest.approx((n_head * 20 + n_tail * 8) / n)
    assert stats.subset_mean > stats.mean


def test_stats_bucket_width():
    cats = categories_from_members([[0, 1], [0, 1], [0, 1], [2]], 3)
    stats = category_stats(cats, bucket_width=2)
    # entities 0,1 have 3 categories (bucket 1), entity 2 has 1 (bucket 0)
    assert stats.histogram == [1, 2]


def test_quantiles_monotone_five_targets():
    rng = np.random.default_rng(41)
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((150, 8)))
    ds = calibrate_thresholds(fm, "l2", [5, 10, 25, 50, 100])
    assert len(ds) == 5
    assert all(a <= b for a, b in zip(ds, ds[1:]))


def test_quantiles_strictly_increasing_on_random_points():
    rng = np.random.default_rng(42)
    fm = FeatureMatrix(kind="point", rows=rng.random((80, 128)))
    ds = calibrate_thresholds(fm, "l2", [5, 10, 25, 50])
    assert all(a < b for a, b in zip(ds, ds[1:]))


def test_quantiles_identical_points_all_zero():
    fm = FeatureMatrix(kind="point", rows=np.ones((30, 4)))
    assert calibrate_thresholds(fm, "l2", [5, 10, 25]) == [0.0] * 3


def test_quantiles_csv_deterministic():
    rng = np.random.default_rng(43)
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((60, 4)))
    a = quantiles_csv(list(zip([3, 9], calibrate_thresholds(fm, "l1", [3, 9]))))
    b = quantiles_csv(list(zip([3, 9], calibrate_thresholds(fm, "l1", [3, 9]))))
    assert a == b
    assert a.startswith("target_avg_neighbors,distance_threshold\n")


def small_ranking(n_cats=12, criterion="surprise"):
    lists = [[(v + 1) % 30, (v + 2) % 30] for v in range(30)]
    nbrs = neighbor_set_from_lists(lists)
    members = [[(3 * c) % 30, (3 * c + 1) % 30, (3 * c + 2) % 30] for c in range(n_cats)]
    cats = categories_from_members(members, 30)
    return rank_categories(nbrs, cats, criterion), cats


def test_top_table_rows_and_order():
    ranking, cats = small_ranking()
    table = top_table(ranking, 5, cats)
    assert len(table.rows) == 5
    assert table.truncated_note is None
    values = [r["log_surprise"] for r in table.rows]
    assert values == sorted(values)
    assert [r["rank"] for r in table.rows] == [1, 2, 3, 4, 5]


def test_top_table_single_row():
    ranking, cats = small_ranking()
    table = top_table(ranking, 1, cats)
    assert len(table.rows) == 1
    assert table.rows[0]["rank"] == 1


def test_top_table_overlong_request():
    ranking, cats = small_ranking()
    table = top_table(ranking, 500, cats)
    assert len(table.rows) == len(ranking)
    assert "500" in table.truncated_note
    text = top_text(table)
    assert table.truncated_note in text


def test_extreme_log_surprise_renders():
    # a tight 50-member category in a 15,000-entity universe: every observer
    # tail is p^49, so the natural-log surprise is near -280
    n = 15_000
    members = list(range(50))
    lists = [[] for _ in range(n)]
    for m in members:
        lists[m] = [x for x in members if x != m]
    nbrs = neighbor_set_from_lists(lists)
    cats = categories_from_members([members, [100, 101]], n)
    ranking = rank_categories(nbrs, cats, "surprise")
    top = ranking.scores[0]
    assert top.category == 0
    assert top.log_surprise == pytest.approx(49 * math.log(50 / 15_000), rel=1e-9)
    assert top.log_surprise < -270
    csv_text = ranking_csv(ranking, cats)
    table = top_table(ranking, 2, cats)
    for rendered in (csv_text, top_csv(table), top_text(table)):
        assert "-279" in rendered
        assert "inf" not in rendered
        assert "nan" not in rendered


def test_ranking_csv_schema_and_determinism():
    ranking, cats = small_ranking()
    a = ranking_csv(ranking, cats)
    b = ranking_csv(ranking, cats)
    assert a == b
    header = a.splitlines()[0]
    assert header == "rank,category,criterion_value,conductance,log_surprise,n_members,n_observers_used"
    assert len(a.splitlines()) == len(ranking) + 1


@pytest.mark.parametrize("criterion", ["surprise", "conductance"])
def test_ranking_csv_reads_back(tmp_path, criterion):
    ranking, cats = small_ranking(criterion=criterion)
    path = tmp_path / "ranking.csv"
    path.write_text(ranking_csv(ranking, cats), encoding="utf-8")
    back = read_ranking_csv(str(path), cats)
    assert back.criterion == criterion
    assert back.ordered_categories == ranking.ordered_categories
    for a, b in zip(back.scores, ranking.scores):
        assert (a.n_members, a.conductance, a.log_surprise, a.n_observers_used) == \
            (b.n_members, b.conductance, b.log_surprise, b.n_observers_used)
        assert a.surprise == pytest.approx(b.surprise, rel=1e-12)


def _with_value(line, value):
    """A ranking CSV line with its criterion_value cell set to ``value``."""
    cells = line.split(",")
    return ",".join(cells[:2] + [value] + cells[3:])


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["category"] + [l.split(",")[1] for l in lines[1:]], r":1: header"),
    (lambda lines: lines[:2] + lines[1:2], r":3: category 'cat\d+' listed twice"),
    (lambda lines: lines[:1] + lines[2:], r":2: rank 2 out of sequence"),
    (lambda lines: lines[:1] + [lines[1].replace(",3,", ",x,", 1)], r":2: non-numeric"),
    (lambda lines: lines[:1], "empty ranking"),
    (lambda lines: lines[:1] + [_with_value(lines[1], "abc")] + lines[2:],
     r":2: criterion_value 'abc' is neither the conductance nor the log_surprise cell"),
    (lambda lines: lines[:1] + [_with_value(lines[1], "")] + lines[2:],
     r":2: criterion_value '' is neither the conductance nor the log_surprise cell"),
    (lambda lines: lines[:2] + [_with_value(lines[2], lines[2].split(",")[3])] + lines[3:],
     r":3: criterion_value matches conductance here but surprise on earlier rows"),
])
def test_read_ranking_csv_rejects_malformed(tmp_path, edit, message):
    ranking, cats = small_ranking()
    path = tmp_path / "ranking.csv"
    path.write_text("\n".join(edit(ranking_csv(ranking, cats).splitlines())) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_ranking_csv(str(path), cats)


@pytest.mark.parametrize("rows, criterion", [
    ("1,cat0,0.5,0.5,-1.0,3,3\n2,cat1,0.0,0.0,0.0,3,3\n", "conductance"),
    ("1,cat0,0.0,0.0,0.0,3,3\n2,cat1,-2.0,0.25,-2.0,3,3\n", "surprise"),
    ("1,cat0,,,0.0,3,0\n", "conductance"),
    ("1,cat0,0.0,,0.0,3,0\n", "surprise"),
    ("1,cat0,0.0,0.0,0.0,3,3\n", "conductance"),
])
def test_read_ranking_csv_criterion_from_rows_whose_cells_differ(tmp_path, rows, criterion):
    # a row whose conductance and log_surprise cells are equal does not decide;
    # a file with no deciding row reads as a conductance ranking
    _, cats = small_ranking()
    path = tmp_path / "ranking.csv"
    path.write_text("rank,category,criterion_value,conductance,log_surprise,n_members,"
                    "n_observers_used\n" + rows, encoding="utf-8")
    assert read_ranking_csv(str(path), cats).criterion == criterion
