import csv
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrank import cli, embeddings, report
from catrank.data_model import (
    CSR,
    CategoryIndex,
    EntityGraph,
    FeatureMatrix,
    VoteDataset,
    load_categories,
    load_features,
    load_graph,
    load_votes,
    save_features_binary,
    save_features_text,
    save_votes,
    write_json,
)
from catrank.errors import DataError

from oracles import ingest_categories, ingest_graph, load_votes_by_row


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# compressed sparse rows


def test_csr_rows_round_trip():
    rows = [[], [0, 2], [], [1], []]
    csr = CSR.from_lists(rows)
    assert len(csr) == 5
    assert [r.tolist() for r in csr] == rows
    assert [csr[i].tolist() for i in range(5)] == rows
    assert np.shares_memory(csr[1], csr.indices)
    assert csr.indices.dtype == np.int64
    assert csr.lengths().tolist() == [0, 2, 0, 1, 0]
    assert csr.owners().tolist() == [1, 1, 3]
    keys = np.array([r * 3 + c for r, row in enumerate(rows) for c in row], dtype=np.int64)
    by_keys = CSR.from_keys(keys, 5, 3)
    assert by_keys.indptr.tolist() == csr.indptr.tolist()
    assert by_keys.indices.tolist() == csr.indices.tolist()


def test_csr_with_no_rows():
    for csr in (CSR.from_lists([]), CSR.from_keys(np.zeros(0, np.int64), 0, 4)):
        assert len(csr) == 0
        assert list(csr) == []
        assert csr.indptr.tolist() == [0]
        assert csr.lengths().tolist() == []
        assert csr.owners().tolist() == []
        csr.check(0, "rows", no_self=True)


# ---------------------------------------------------------------------------
# graph loading


def test_load_graph_dedup_and_self_loops(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tB\nB\tA\nA\tA\n")
    graph, rep = load_graph(p)
    assert rep.n_entities == 2
    assert rep.n_edges == 2
    assert rep.n_self_loops_dropped == 1
    assert graph.ids == ["A", "B"]
    assert graph.adjacency[0].tolist() == [1]
    assert graph.adjacency[1].tolist() == [0]


def test_load_graph_duplicate_edges(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tB\nA\tB\n")
    graph, rep = load_graph(p)
    assert rep.n_entities == 2
    assert rep.n_edges == 1
    assert rep.n_duplicate_edges_dropped == 1


def test_load_graph_malformed_line(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tB\nA\n")
    with pytest.raises(DataError, match=":2"):
        load_graph(p)


def test_load_graph_empty(tmp_path):
    p = write(tmp_path / "g.tsv", "# only a comment\n")
    with pytest.raises(DataError, match="empty"):
        load_graph(p)


def test_load_graph_comments_and_symmetrize(tmp_path):
    p = write(tmp_path / "g.tsv", "# header\nA\tB\nB\tC\n")
    graph, _ = load_graph(p, symmetrize=True)
    assert graph.adjacency[1].tolist() == [0, 2]
    assert graph.adjacency[2].tolist() == [1]
    graph.validate()


def test_load_graph_rejects_id_starting_with_hash(tmp_path):
    # walks and feature files would skip a line starting with it as a comment
    p = write(tmp_path / "g.tsv", "A\tB\n\n# note\nB\t #b\n#b\tA\n")
    with pytest.raises(DataError, match=r"g\.tsv:4: '#b' starts with '#'"):
        load_graph(p)


def test_graph_round_trip(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tB\nC\tA\nB\tC\nC\tB\n")
    graph, _ = load_graph(p)
    out = tmp_path / "g.json"
    graph.save(str(out))
    back = EntityGraph.load(str(out))
    assert back.ids == graph.ids
    assert back.index == graph.index
    assert all(np.array_equal(a, b) for a, b in zip(back.adjacency, graph.adjacency))


def _random_tsv(rng, path, left, right, lines):
    """``lines`` random ``a<TAB>b`` lines over the two name pools, with
    padded cells, comments, blank lines and CRLF ends mixed in."""
    out = []
    for _ in range(lines):
        r = rng.random()
        if r < 0.05:
            out.append("# comment\tline")
        elif r < 0.1:
            out.append(" " if r < 0.075 else "")
        elif r < 0.2 and out:
            out.append(out[rng.integers(len(out))])  # a repeat, or a comment again
        else:
            a, b = left[rng.integers(len(left))], right[rng.integers(len(right))]
            out.append(f" {a}\t{b} " if rng.random() < 0.1 else f"{a}\t{b}")
    ends = "\r\n" if rng.random() < 0.3 else "\n"
    path.write_text(ends.join(out) + ends, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("seed", range(40))
def test_ingest_matches_set_based_oracle(tmp_path, seed):
    rng = np.random.default_rng([seed, 0x1D])
    pool = [f"v{i}" for i in range(int(rng.integers(1, 30)))]
    edges = _random_tsv(rng, tmp_path / "g.tsv", pool, pool, int(rng.integers(1, 120)))
    unknown = [f"u{i}" for i in range(3)]
    labels = [f"c{i}" for i in range(int(rng.integers(1, 8)))]
    assignments = _random_tsv(rng, tmp_path / "c.tsv", pool + unknown, labels,
                              int(rng.integers(1, 150)))
    for symmetrize in (False, True):
        graph, rep = load_graph(edges, symmetrize=symmetrize)
        ids, adjacency, n_self, n_dup = ingest_graph(edges, symmetrize)
        assert graph.ids == ids
        assert graph.index == {s: i for i, s in enumerate(ids)}
        assert isinstance(graph.adjacency, CSR)
        assert graph.adjacency.indices.dtype == np.int64
        assert [a.tolist() for a in graph.adjacency] == adjacency
        assert (rep.n_entities, rep.n_edges, rep.n_self_loops_dropped,
                rep.n_duplicate_edges_dropped) == \
            (len(ids), sum(map(len, adjacency)), n_self, n_dup)
        graph.validate()

        names, members, n_kept, n_skipped, n_dup = ingest_categories(assignments, graph.index)
        cats, crep = load_categories(assignments, graph)
        assert cats.names == names
        assert cats.index == {s: i for i, s in enumerate(names)}
        assert cats.n_entities == len(ids)
        assert isinstance(cats.members, CSR)
        assert [m.tolist() for m in cats.members] == members
        assert (crep.n_assignments, crep.n_skipped_unknown_entities,
                crep.n_duplicate_assignments) == (n_kept, n_skipped, n_dup)
        cats.validate()


# ---------------------------------------------------------------------------
# categories


@pytest.fixture
def small_graph(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tB\nB\tA\n")
    return load_graph(p)[0]


def test_load_categories_basic(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tcat1\nB\tcat1\nA\tcat2\n")
    cats, rep = load_categories(p, small_graph)
    assert cats.names == ["cat1", "cat2"]
    assert cats.members[0].tolist() == [0, 1]
    assert cats.members[1].tolist() == [0]
    assert rep.n_assignments == 3
    cats.validate()


def test_load_categories_rejects_name_starting_with_hash(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tcat1\nZ\t#skipped\nB\t#cat2\n")
    with pytest.raises(DataError, match=r"c\.tsv:3: '#cat2' starts with '#'"):
        load_categories(p, small_graph)


def test_load_categories_unknown_entity_skipped(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tcat1\nZ\tcat1\n")
    cats, rep = load_categories(p, small_graph)
    assert rep.n_skipped_unknown_entities == 1
    assert cats.members[0].tolist() == [0]


def test_load_categories_duplicate_assignment(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tcat1\nA\tcat1\n")
    cats, rep = load_categories(p, small_graph)
    assert rep.n_duplicate_assignments == 1
    assert cats.members[0].tolist() == [0]


def test_load_categories_zero_retained(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "Z\tcat1\n")
    with pytest.raises(DataError):
        load_categories(p, small_graph)


def test_categories_round_trip(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tcat1\nB\tcat1\nA\tcat2\n")
    cats, _ = load_categories(p, small_graph)
    out = tmp_path / "c.json"
    cats.save(str(out))
    back = CategoryIndex.load(str(out))
    assert back.names == cats.names
    assert back.n_entities == cats.n_entities
    assert all(np.array_equal(a, b) for a, b in zip(back.members, cats.members))


# ---------------------------------------------------------------------------
# features


def test_load_features_renormalizes(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 distribution\nA\t0.499999 0.5\nB\t0.25 0.75\n")
    fm = load_features(p, "distribution", small_graph)
    assert abs(fm.rows[0].sum() - 1.0) <= 1e-6


def test_load_features_sum_out_of_bounds(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 distribution\nA\t0.45 0.45\nB\t0.25 0.75\n")
    with pytest.raises(DataError, match="sanity bound"):
        load_features(p, "distribution", small_graph)


def test_load_features_nan_rejected(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 point\nA\tnan 0.5\nB\t0.25 0.75\n")
    with pytest.raises(DataError, match="non-finite"):
        load_features(p, "point", small_graph)


def test_load_features_negative_distribution(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 distribution\nA\t-0.1 1.1\nB\t0.25 0.75\n")
    with pytest.raises(DataError, match="negative"):
        load_features(p, "distribution", small_graph)


def test_load_features_missing_entity(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 point\nA\t0.1 0.2\n")
    with pytest.raises(DataError, match="B"):
        load_features(p, "point", small_graph)


def test_load_features_unknown_entity(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 2 point\nA\t0.1 0.2\nZ\t0.3 0.4\n")
    with pytest.raises(DataError, match="unknown entity"):
        load_features(p, "point", small_graph)


def test_features_text_round_trip(tmp_path, small_graph):
    rng = np.random.default_rng(7)
    fm = FeatureMatrix(kind="point", rows=rng.standard_normal((2, 5)))
    path = tmp_path / "f.tsv"
    save_features_text(fm, small_graph.ids, str(path))
    back = load_features(str(path), "point", small_graph)
    assert back.kind == fm.kind
    assert np.array_equal(back.rows, fm.rows)


def test_features_distribution_round_trip_after_load(tmp_path, small_graph):
    p = write(tmp_path / "f.tsv", "2 3 distribution\nA\t0.2 0.3 0.500001\nB\t0.1 0.1 0.8\n")
    fm = load_features(p, "distribution", small_graph)
    path = tmp_path / "f2.tsv"
    save_features_text(fm, small_graph.ids, str(path))
    back = load_features(str(path), "distribution", small_graph)
    assert np.array_equal(back.rows, fm.rows)


def test_features_binary_round_trip(tmp_path, small_graph):
    rows = np.array([[0.5, -1.25], [3.0, 0.125]])  # exactly float32-representable
    fm = FeatureMatrix(kind="point", rows=rows)
    path = tmp_path / "f.bin"
    save_features_binary(fm, small_graph.ids, str(path))
    back = load_features(str(path), "point", small_graph)
    assert np.array_equal(back.rows, fm.rows)


# ---------------------------------------------------------------------------
# votes


@pytest.fixture
def vote_cats(tmp_path, small_graph):
    p = write(tmp_path / "c.tsv", "A\tc1\nB\tc2\nA\tc3\nB\tc4\nA\tc5\nB\tc6\n")
    return load_categories(p, small_graph)[0]


def vote_csv(rows, m=5):
    header = "question_id," + ",".join(f"choice_{i + 1}" for i in range(m)) + ",voted_index"
    return header + "\n" + "\n".join(rows) + "\n"


def test_load_votes_basic(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv([
        "q1,c1,c2,c3,c4,c5,1",
        "q1,c1,c2,c3,c4,c5,3",
        "q2,c2,c3,c4,c5,c6,5",
    ]))
    votes = load_votes(p, vote_cats)
    assert votes.qids == ["q1", "q2"]
    assert votes.choices.tolist() == [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]
    assert votes.n_answers == 3
    assert (votes.question[1], votes.voted[1]) == (0, 2)


def test_vote_layout_is_one_choice_count():
    with pytest.raises(ValueError, match="same number of choices"):
        VoteDataset.from_lists(["a", "b"], [[3, 1, 4], [0, 2]], [(1, 1), (0, 2)])
    votes = VoteDataset.from_lists(["a", "b"], [[3, 1, 4], [0, 2, 5]], [(1, 1), (0, 2)])
    assert votes.choices.dtype == np.int64
    assert votes.choices.tolist() == [[3, 1, 4], [0, 2, 5]]
    assert type(votes.m) is int and votes.m == 3
    assert (votes.question.tolist(), votes.voted.tolist()) == ([1, 0], [1, 2])
    assert votes.n_answers == 2


def test_load_votes_bulk_counts(tmp_path, vote_cats):
    rows = []
    for q in range(500):
        for a in range(20):
            rows.append(f"q{q},c1,c2,c3,c4,c5,{(a % 5) + 1}")
    p = write(tmp_path / "v.csv", vote_csv(rows))
    votes = load_votes(p, vote_cats)
    assert votes.n_answers == 10_000
    assert len(votes.qids) == 500


def test_load_votes_out_of_range_index(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv(["q1,c1,c2,c3,c4,c5,6"]))
    with pytest.raises(DataError, match="voted index 6"):
        load_votes(p, vote_cats)


def test_load_votes_unknown_category(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv(["q1,c1,c2,c3,c4,nope,1"]))
    with pytest.raises(DataError, match="nope"):
        load_votes(p, vote_cats)


def test_load_votes_shared_category_across_questions(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv([
        "q1,c1,c2,c3,c4,c5,1",
        "q2,c1,c2,c3,c4,c6,2",
    ]))
    votes = load_votes(p, vote_cats)
    assert len(votes.qids) == 2


def test_load_votes_duplicate_choice_rejected(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv(["q1,c1,c1,c3,c4,c5,1"]))
    with pytest.raises(DataError, match="duplicate"):
        load_votes(p, vote_cats)


def test_vote_errors_point_at_the_line_where_the_record_ends(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv([
        "q1,c1,c2,c3,c4,c5,1",
        '"q\n2",c1,c2,c3,c4,c5,2',
        "q3,c1,c2,c3,c4,nope,1",
    ]))
    with pytest.raises(DataError, match=r"v\.csv:5: unknown category 'nope'"):
        load_votes(p, vote_cats)


def test_votes_round_trip(tmp_path, vote_cats):
    p = write(tmp_path / "v.csv", vote_csv([
        "q1,c1,c2,c3,c4,c5,1",
        "q1,c1,c2,c3,c4,c5,4",
        "q2,c2,c3,c4,c5,c6,5",
    ]))
    votes = load_votes(p, vote_cats)
    out = tmp_path / "v2.csv"
    save_votes(votes, vote_cats, str(out))
    back = load_votes(str(out), vote_cats)
    assert back.qids == votes.qids
    for name in ("choices", "question", "voted"):
        assert np.array_equal(getattr(back, name), getattr(votes, name))


_VOTE_CATS = CategoryIndex(names=["c1", "c2", "c3", "c4"],
                           members=CSR.from_lists([[0], [1], [0], [1]]), n_entities=2)
# cells the per-record checks refuse or take in an odd form: spaces, signs,
# other digits, a line break inside a quoted cell
_ODD_VOTE_CELLS = st.sampled_from([
    "", " ", "0", "5", "-1", "+1", " 2", "02", "1.0", "1_0", "٣", "x", "nope", " c1", "c2 ",
    "c\n1", "q\n1", "c1,c2", '"'])


@st.composite
def _vote_texts(draw):
    """A valid vote CSV with up to two faults: an odd cell, an odd voted
    index, a record whose choices differ from its question's first (maybe
    naming one twice), a record a cell short, or a stray quote."""
    m = draw(st.integers(2, 3))
    names = _VOTE_CATS.names
    first = {q: draw(st.permutations(names))[:m] for q in ("q1", "q2", "q3")}
    qids = draw(st.lists(st.sampled_from(list(first)), min_size=1, max_size=8))
    rows = [[q, *first[q], str(draw(st.integers(1, m)))] for q in qids]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["cell", "voted", "choices", "short"]))
        if fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_VOTE_CELLS)
        elif fault == "voted":
            row[-1] = draw(st.sampled_from(["0", str(m + 1), "-1", "+1", " 2", "02", "1.0", "x"]))
        elif fault == "choices":
            row[1:m + 1] = draw(st.permutations(names).map(lambda p: p[:m])
                                | st.lists(st.sampled_from(names), min_size=m, max_size=m))
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    if draw(st.integers(0, 19)) == 10:
        rows = []  # no answers
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [["question_id"] + [f"choice_{i + 1}" for i in range(m)] + ["voted_index"]] + rows)
    text = out.getvalue()
    if draw(st.integers(0, 9)) == 5:  # a stray quote, which may open a cell
        at = draw(st.integers(0, len(text)))
        text = text[:at] + '"' + text[at:]
    return text


def _votes_or_error(load, path):
    try:
        votes = load(path, _VOTE_CATS)
    except DataError as e:
        return str(e)
    return votes.qids, [(a.dtype, a.shape, a.tolist())
                        for a in (votes.choices, votes.question, votes.voted)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_vote_texts())
def test_load_votes_matches_the_record_by_record_loader(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("votes") / "v.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    assert _votes_or_error(load_votes, path) == _votes_or_error(load_votes_by_row, path)


# ---------------------------------------------------------------------------
# native artifacts


@pytest.mark.parametrize("name, text, message", [
    ("categories.json", '{"n_entities": 2, "names": ["c"], "members": [[0, 2]]}',
     r"index 2 outside \[0, 2\)"),
    ("categories.json", '{"n_entities": 2, "names": ["c"], "members": [[0, 1]]',
     r":1: invalid JSON"),
    ("categories.json", '{"names": ["c"], "members": [[0, 1]]}', "missing keys"),
    ("categories.json", '{"n_entities": 2, "names": ["c"], "members": [[0.5]]}',
     "list of integers"),
    ("categories.json", '{"n_entities": 2, "names": ["c"], "members": [[1, 0]]}',
     r"members\[0\]: entity ids are not sorted and unique"),
    ("categories.json",
     '{"n_entities": 3, "names": ["b", "c"], "members": [[2], [0, 0, 1]]}',
     r"members\[1\]: entity ids are not sorted and unique"),
    ("graph.json", '{"ids": ["A", "B"]}', "missing keys"),
    ("graph.json", '{"ids": ["A", "B"], "adjacency": [[1], [5]]}', r"outside \[0, 2\)"),
    ("graph.json", '{"ids": ["a", "b"], "adjacency": [[1], [0, 1]]}',
     r"adjacency\[1\]: self-loop"),
    ("graph.json", '{"ids": ["a", "b"], "adjacency": [[1, 1], [0]]}',
     r"adjacency\[0\]: entity ids are not sorted and unique"),
    ("graph.json", '{"ids": ["a", "b", "c"], "adjacency": [[1], [2, 0], []]}',
     r"adjacency\[1\]: entity ids are not sorted and unique"),
    # numpy reads booleans among integers as 0 and 1, and JSON holds ids past int64
    ("categories.json", '{"n_entities": 2, "names": ["c"], "members": [[false, 1]]}',
     r"members\[0\]: expected a list of integers"),
    ("graph.json", '{"ids": ["a", "b", "c"], "adjacency": [[true, 2], [0], [0]]}',
     r"adjacency\[0\]: expected a list of integers"),
    ("graph.json", '{"ids": ["a", "b"], "adjacency": [[1], [18446744073709551616]]}',
     r"adjacency\[1\]: expected a list of integers"),
    ("graph.json", '{"ids": ["a", "b"], "adjacency": [[1], 0]}',
     r"adjacency\[1\]: expected a list of integers"),
])
def test_native_json_artifacts_validated(tmp_path, name, text, message):
    path = write(tmp_path / name, text)
    load = CategoryIndex.load if name.startswith("categories") else EntityGraph.load
    with pytest.raises(DataError, match=message) as exc:
        load(path)
    assert name in str(exc.value)


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\r", "\r\nb"])
def test_native_graph_rejects_ids_no_text_artifact_can_carry(tmp_path, bad):
    path = write(tmp_path / "graph.json",
                 json.dumps({"ids": ["x", bad], "adjacency": [[1], [0]]}))
    with pytest.raises(DataError, match=r"graph\.json: ids\[1\] .* holds a TAB or a line break"):
        EntityGraph.load(path)


@pytest.mark.parametrize("bad, why", [
    (" x", "has surrounding whitespace"), ("x\u00a0", "has surrounding whitespace"),
    ("", "is empty"), ("#x", "starts with '#'"), ("a\tb", "holds a TAB or a line break"),
])
@pytest.mark.parametrize("artifact", ["graph", "categories", "sidecar"])
def test_native_names_follow_the_text_name_rule(tmp_path, artifact, bad, why):
    """Every native artifact refuses a name that no text format reads back
    as itself, naming the key and the index."""
    if artifact == "graph":
        where = r"graph\.json: ids\[1\]"
        path = write(tmp_path / "graph.json",
                     json.dumps({"ids": ["y", bad], "adjacency": [[1], [0]]}))
        load = EntityGraph.load
    elif artifact == "categories":
        where = r"categories\.json: names\[1\]"
        path = write(tmp_path / "categories.json",
                     json.dumps({"n_entities": 2, "names": ["y", bad], "members": [[0], [1]]}))
        load = CategoryIndex.load
    else:
        where = r"f\.bin\.json: ids\[1\]"
        path = str(tmp_path / "f.bin")
        save_features_binary(FeatureMatrix(kind="point", rows=np.ones((2, 2))), ["y", bad], path)
        load = lambda p: load_features(p, None, None)  # noqa: E731
    with pytest.raises(DataError, match=rf"{where} '.*' {why}$"):
        load(path)


def test_binary_feature_sidecar_missing_keys(tmp_path, small_graph):
    path = tmp_path / "f.bin"
    save_features_binary(FeatureMatrix(kind="point", rows=np.ones((2, 2))),
                         small_graph.ids, str(path))
    write(tmp_path / "f.bin.json", '{"n": 2, "dim": 2, "kind": "point"}')
    with pytest.raises(DataError, match=r"f\.bin\.json: missing keys \['ids'\]"):
        load_features(str(path), "point", small_graph)


def test_load_features_without_graph_keeps_file_order_and_checks_rows(tmp_path):
    p = write(tmp_path / "f.tsv", "2 2 point\nB\t0.5 0.5\nA\t0.25 0.75\n")
    fm = load_features(p, None, None)
    assert fm.kind == "point"
    assert fm.rows.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    bad = write(tmp_path / "g.tsv", "2 2 point\nB\t0.5 0.5\nA\tnan 0.75\n")
    with pytest.raises(DataError, match="non-finite"):
        load_features(bad, None, None)
    short = write(tmp_path / "h.tsv", "2 2 point\nB\t0.5 0.5\n")
    with pytest.raises(DataError, match=r"h\.tsv: header declares 2 rows, found 1$"):
        load_features(short, None, None)
    empty = write(tmp_path / "e.tsv", "0 2 point\n")
    with pytest.raises(DataError, match=r"e\.tsv: no feature rows$"):
        load_features(empty, None, None)
    with pytest.raises(DataError, match="requested kind 'distribution' but file declares"):
        load_features(p, "distribution", None)


# ---------------------------------------------------------------------------
# one content-line rule, one CSV record rule


@pytest.fixture
def native(tmp_path):
    """A two-entity graph and categories x, y, z, loaded and saved."""
    graph, _ = load_graph(write(tmp_path / "g.tsv", "A\tB\nB\tA\n"))
    cats, _ = load_categories(write(tmp_path / "c.tsv", "A\tx\nB\ty\nA\tz\n"), graph)
    graph.save(str(tmp_path / "graph.json"))
    cats.save(str(tmp_path / "categories.json"))
    return graph, cats


def _subset(path, graph, cats):
    work = os.path.dirname(path)
    args = cli.build_parser().parse_args([
        "report", "stats", "--graph", os.path.join(work, "graph.json"), "--subset", path,
        "--categories", os.path.join(work, "categories.json"),
        "--out", os.path.join(work, "stats.txt")])
    cli._run_report(args)  # noqa: SLF001


# Each reader gets a bad record on line 5, after a blank line and a '#' line.
# CSV has no comments, so there the '#' line sits inside a quoted cell and
# the record holding it spans lines 3-4. Every ranking cell is a number or a
# name, so there the quoted cell spanning lines 3-4 is the rank, "\n1".
_READERS = {
    "edges": ("A\tB\n\n# note\nB\tA\nA\n", "expected 'src<TAB>dst'",
              lambda p, g, c: load_graph(p)),
    "categories": ("A\tx\n\n# note\nB\ty\nB\n", "expected 'entity<TAB>category'",
                   lambda p, g, c: load_categories(p, g)),
    "features": ("2 2 point\n\n# note\nA\t1 2\nB\t1 y\n", "non-numeric component",
                 lambda p, g, c: load_features(p, None, None)),
    "walks": ("A\tB\n\n# note\nB\tA\nA\tZ\n", "unknown entity 'Z'",
              lambda p, g, c: embeddings.load_walks(p, g)),
    "config": ("seed = 1\n\n# note\nk = 2\nseed 3\n", "expected 'key = value'",
               lambda p, g, c: cli._read_config(p)),  # noqa: SLF001
    "subset": ("A\n\n# note\nB\nZ\n", "unknown entity 'Z'", _subset),
    "votes": ('question_id,choice_1,choice_2,voted_index\n\n"q1\n# note",x,y,1\n'
              "q2,x,nope,1\n", "unknown category 'nope'",
              lambda p, g, c: load_votes(p, c)),
    "ranking": (",".join(report.RANKING_COLUMNS) + '\n\n"\n1",x,-0.5,0.5,-0.5,2,1\n'
                "2,nope,-0.5,0.5,-0.5,2,1\n", "unknown category 'nope'",
                lambda p, g, c: report.read_ranking_csv(p, c)),
    "votes_cells": ('question_id,choice_1,choice_2,voted_index\n\n"q1\n# note",x,y,1\n'
                    "q2,x,y\n", "expected 4 columns, got 3", lambda p, g, c: load_votes(p, c)),
    "ranking_cells": (",".join(report.RANKING_COLUMNS) + '\n\n"\n1",x,-0.5,0.5,-0.5,2,1\n'
                      "2,y,-0.5,0.5,-0.5,2,1,9\n", "expected 7 columns, got 8",
                      lambda p, g, c: report.read_ranking_csv(p, c)),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_points_at_the_bad_line(tmp_path, native, reader):
    text, message, read = _READERS[reader]
    path = write(tmp_path / f"{reader}.txt", text)
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:5: {message}"):
        read(path, *native)


def test_write_json_has_two_fixed_forms(tmp_path):
    # names outside ASCII are written as \uXXXX escapes in both forms
    payload = {"b": [1, 2], "a": {"d": 1.5, "c": None}, "ids": ["G\u00f6del"]}
    path = tmp_path / "x.json"
    write_json(str(path), payload, compact=True)
    assert path.read_bytes() == (b'{"b":[1,2],"a":{"d":1.5,"c":null},'
                                 b'"ids":["G\\u00f6del"]}')
    write_json(str(path), payload)
    assert path.read_bytes() == (b'{\n  "a": {\n    "c": null,\n    "d": 1.5\n  },\n'
                                 b'  "b": [\n    1,\n    2\n  ],\n'
                                 b'  "ids": [\n    "G\\u00f6del"\n  ]\n}\n')
