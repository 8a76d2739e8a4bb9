import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import catrank
from catrank import coherence, embeddings, neighbors
from catrank.cli import main
from catrank.data_model import (
    CRITERIA,
    CategoryIndex,
    FeatureMatrix,
    load_features,
    load_votes,
    save_features_text,
)
from catrank.evaluation import best_cheating_score
from catrank.manifest import file_digest
from catrank.neighbors import (
    NeighborSet,
    calibrate_thresholds,
    knn_by_count,
    neighbors_by_distance,
)

from conftest import categories_from_members, random_simplex
from oracles import exact_binomial_tail, score_alone


def make_dataset(root):
    """Two 6-cliques joined by one edge, categories over them, and votes."""
    edges = []
    for base in (0, 6):
        for i in range(6):
            for j in range(6):
                if i != j:
                    edges.append((f"n{base + i}", f"n{base + j}"))
    edges.append(("n0", "n6"))
    edges.append(("n6", "n0"))
    graph = root / "edges.tsv"
    graph.write_text("".join(f"{u}\t{v}\n" for u, v in edges), encoding="utf-8")

    cats = {
        "cliqueA": [0, 1, 2, 3, 4, 5],
        "cliqueB": [6, 7, 8, 9, 10, 11],
        "mix1": [0, 6, 1, 7],
        "mix2": [2, 8, 3, 9],
        "mix3": [4, 10, 5, 11],
    }
    cat_path = root / "cats.tsv"
    cat_path.write_text(
        "".join(f"n{e}\t{name}\n" for name, es in cats.items() for e in es),
        encoding="utf-8",
    )

    votes = root / "votes.csv"
    names = list(cats)
    rows = ["question_id," + ",".join(f"choice_{i + 1}" for i in range(5)) + ",voted_index"]
    for q in range(6):
        shifted = names[q % 5:] + names[: q % 5]
        voted = shifted.index("cliqueA" if q % 2 == 0 else "cliqueB") + 1
        for _ in range(4):
            rows.append(f"q{q}," + ",".join(shifted) + f",{voted}")
    votes.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return graph, cat_path, votes


@pytest.fixture
def pipeline(tmp_path):
    graph, cats, votes = make_dataset(tmp_path)
    out = tmp_path / "work"
    out.mkdir()
    rc = main([
        "ingest", "--graph", str(graph), "--categories", str(cats),
        "--votes", str(votes), "--out-dir", str(out),
    ])
    assert rc == 0
    return tmp_path, out


def test_ingest_outputs_and_manifest(pipeline):
    _, out = pipeline
    for name in ("graph.json", "categories.json", "votes.csv", "votes.csv.meta.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert all(d.startswith("sha256:") for d in manifest["inputs"].values())
    assert str(out / "graph.json") in manifest["outputs"]


def test_walk_and_embed(pipeline):
    tmp, out = pipeline
    walks = tmp / "walks.txt"
    rc = main([
        "walk", "--graph", str(out / "graph.json"), "--walks-per-vertex", "2",
        "--walk-length", "6", "--seed", "3", "--out", str(walks),
    ])
    assert rc == 0
    lines = walks.read_text().splitlines()
    assert len(lines) == 2 * 12
    assert (tmp / "walks.txt.manifest.json").exists()

    feats = tmp / "features.tsv"
    rc = main([
        "embed", "--graph", str(out / "graph.json"), "--walks", str(walks),
        "--dim", "8", "--window", "2", "--seed", "3", "--out", str(feats),
    ])
    assert rc == 0
    header = feats.read_text().splitlines()[0].split()
    assert header == ["12", "8", "point"]
    manifest = json.loads((tmp / "features.tsv.manifest.json").read_text())
    assert manifest["parameters"]["dim"] == 8
    assert manifest["parameters"]["corpus_walks"] == 24
    assert not (tmp / "features.tsv.model.json").exists()


def test_walk_corpus_with_spaced_ids_reads_back(tmp_path):
    names = ["Isaac Newton", "Gottfried Leibniz", "Emilie du Chatelet"]
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{a}\t{b}\n" for a in names for b in names if a != b),
                     encoding="utf-8")
    out = tmp_path / "work"
    assert main(["ingest", "--graph", str(edges), "--out-dir", str(out)]) == 0
    walks = tmp_path / "walks.txt"
    assert main(["walk", "--graph", str(out / "graph.json"), "--walks-per-vertex", "2",
                 "--walk-length", "4", "--out", str(walks)]) == 0
    lines = walks.read_text(encoding="utf-8").splitlines()
    assert {cell for line in lines for cell in line.split("\t")} == set(names)
    feats = tmp_path / "features.tsv"
    assert main(["embed", "--graph", str(out / "graph.json"), "--walks", str(walks),
                 "--dim", "4", "--window", "2", "--out", str(feats)]) == 0
    params = json.loads((tmp_path / "features.tsv.manifest.json").read_text())["parameters"]
    assert (params["corpus_walks"], params["corpus_tokens"]) == (6, 24)
    assert not (tmp_path / "features.tsv.model.json").exists()


def test_ingested_ids_round_trip_through_embed_and_knn(tmp_path, capsys):
    """Every id ingest accepts reads back from the feature files embed writes,
    and an id that a text format would skip as a comment fails at its line."""
    names = ["a#b", "Emilie du Chatelet", "x,y", '"q"', "c"]
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{a}\t{b}\n" for a in names for b in names if a != b),
                     encoding="utf-8")
    graph = str(tmp_path / "work" / "graph.json")
    assert main(["ingest", "--graph", str(edges), "--out-dir", str(tmp_path / "work")]) == 0
    for binary in ([], ["--binary"]):
        feats, nb = str(tmp_path / f"f{len(binary)}"), str(tmp_path / f"nb{len(binary)}.tsv")
        assert main(["embed", "--graph", graph, "--walks-per-vertex", "2", "--walk-length", "4",
                     "--dim", "3", "--window", "1", "--out", feats] + binary) == 0
        assert main(["knn", "--features", feats, "--metric", "l2", "--k", "2",
                     "--out", nb]) == 0
        assert NeighborSet.load(nb).n == len(names)
        assert main(["ingest", "--graph", str(edges), "--features", feats,
                     "--out-dir", str(tmp_path / f"again{len(binary)}")]) == 0
    edges.write_text("a#b\tc\nx\t#b\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["ingest", "--graph", str(edges), "--out-dir", str(tmp_path / "bad")]) == 2
    assert f"{edges}:2: '#b' starts with '#'" in capsys.readouterr().err


def run_embed_knn(tmp, out, k="3"):
    feats = tmp / "features.tsv"
    if not feats.exists():
        assert main([
            "embed", "--graph", str(out / "graph.json"), "--walks-per-vertex", "8",
            "--walk-length", "16", "--window", "3", "--dim", "8", "--seed", "5",
            "--out", str(feats),
        ]) == 0
    nb = tmp / "nb.tsv"
    assert main([
        "knn", "--features", str(feats), "--metric", "cosine", "--k", k,
        "--out", str(nb),
    ]) == 0
    return feats, nb


def test_knn_coherence_rank_evaluate(pipeline):
    tmp, out = pipeline
    feats, nb = run_embed_knn(tmp, out)
    assert nb.exists()
    params = json.loads((tmp / "nb.tsv.manifest.json").read_text())["parameters"]
    assert (params["metric"], params["k"]) == ("cosine", 3)

    scores = tmp / "scores.csv"
    assert main([
        "coherence", "--neighbors", str(nb), "--categories",
        str(out / "categories.json"), "--out", str(scores),
    ]) == 0
    header = scores.read_text().splitlines()[0]
    assert header == "category,n_members,conductance,surprise,log_surprise,n_observers_used"

    ranking = tmp / "ranking.csv"
    assert main([
        "rank", "--neighbors", str(nb), "--categories", str(out / "categories.json"),
        "--criterion", "surprise", "--min-size", "2", "--out", str(ranking),
    ]) == 0
    lines = ranking.read_text().splitlines()
    assert lines[0] == "rank,category,criterion_value,conductance,log_surprise,n_members,n_observers_used"
    assert len(lines) == 6  # 5 categories + header
    # the clique categories must beat the mixed ones on this geometry
    order = [line.split(",")[1] for line in lines[1:]]
    assert set(order[:2]) == {"cliqueA", "cliqueB"}

    report_path = tmp / "report.json"
    assert main([
        "evaluate", "--ranking", str(ranking), "--votes", str(out / "votes.csv"),
        "--categories", str(out / "categories.json"), "--out", str(report_path),
    ]) == 0
    rep = json.loads(report_path.read_text())
    assert 0.0 <= rep["rough_accuracy"] <= 1.0
    assert rep["improved_accuracy"] >= rep["rough_accuracy"]
    assert len(rep["agreement_histogram"]) == 5


def test_knn_avg_target_calibrates(pipeline):
    tmp, out = pipeline
    feats, _ = run_embed_knn(tmp, out)
    nb = tmp / "nb_dist.tsv"
    assert main([
        "knn", "--features", str(feats), "--metric", "l2", "--avg-target", "3",
        "--out", str(nb),
    ]) == 0
    manifest = json.loads((tmp / "nb_dist.tsv.manifest.json").read_text())
    assert manifest["parameters"]["avg_target"] == 3.0
    d, = calibrate_thresholds(load_features(str(feats), None, None), "l2", [3.0])
    assert manifest["parameters"]["threshold"] == d


@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "kl", "js"])
def test_knn_output_loads_back_bitwise(tmp_path, metric):
    rng = np.random.default_rng(14)
    if metric in ("kl", "js"):
        fm = FeatureMatrix(kind="distribution", rows=random_simplex(rng, 16, 3))
    else:
        # rows at +-1e308 overflow l1 and l2 distances, which save writes as inf
        fm = FeatureMatrix(kind="point", rows=rng.standard_normal((16, 3)))
        fm.rows[:2] = [[1e308] * 3, [-1e308] * 3]
    features = str(tmp_path / "f.tsv")
    save_features_text(fm, [f"e{v}" for v in range(16)], features)
    fm = load_features(features, None, None)
    out = str(tmp_path / "nb.tsv")
    with np.errstate(over="ignore", invalid="ignore"):
        for flag, value, nbrs in (
                ("--k", "4", knn_by_count(fm, metric, 4)),
                ("--avg-target", "2.5", neighbors_by_distance(
                    fm, metric, calibrate_thresholds(fm, metric, [2.5])[0])),
                ("--radius", "inf", neighbors_by_distance(fm, metric, math.inf))):
            assert main(["knn", "--features", features, "--metric", metric, flag, value,
                         "--workers", "1", "--out", out]) == 0
            back = NeighborSet.load(out)
            for a, b in ((back.indptr, nbrs.indptr), (back.indices, nbrs.indices),
                         (back.distances, nbrs.distances)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), flag
            # the sidecar states the row count alone; the manifest holds the settings
            with open(out + ".meta.json", encoding="utf-8") as f:
                assert json.load(f) == {"n": 16}, flag
    if metric in ("l1", "l2"):
        assert np.isinf(back.distances).any()


def test_grid_eight_configs(pipeline):
    tmp, out = pipeline
    feats, _ = run_embed_knn(tmp, out)
    grid_dir = tmp / "grid"
    assert main([
        "grid", "--features", str(feats), "--categories", str(out / "categories.json"),
        "--votes", str(out / "votes.csv"), "--metrics", "l2,cosine",
        "--strategies", "count", "--sizes", "3,5",
        "--criteria", "conductance,surprise", "--out-dir", str(grid_dir),
    ]) == 0
    lines = (grid_dir / "summary.csv").read_text().splitlines()
    assert len(lines) == 9  # header + 2 metrics x 2 sizes x 2 criteria
    summary = json.loads((grid_dir / "summary.json").read_text())
    assert len(summary["rows"]) == 8
    assert all("improved_accuracy" in row for row in summary["rows"])
    assert len(list((grid_dir / "rankings").glob("*.csv"))) == 8


def test_grid_threshold_is_the_calibrated_distance(pipeline):
    tmp, out = pipeline
    feats, _ = run_embed_knn(tmp, out)
    grid_dir = tmp / "grid"
    assert main([
        "grid", "--features", str(feats), "--categories", str(out / "categories.json"),
        "--metrics", "l1,cosine", "--strategies", "count,distance", "--sizes", "5,3",
        "--criteria", "surprise", "--out-dir", str(grid_dir),
    ]) == 0
    fm = load_features(str(feats), None, None)
    want = {(metric, t): d for metric in ("l1", "cosine")
            for t, d in zip((3.0, 5.0), calibrate_thresholds(fm, metric, [3.0, 5.0]))}
    rows = json.loads((grid_dir / "summary.json").read_text())["rows"]
    with open(grid_dir / "summary.csv", encoding="utf-8", newline="") as f:
        cells = list(csv.DictReader(f))
    assert len(rows) == len(cells) == 8
    for row, cell in zip(rows, cells):
        if row["strategy"] == "count":
            assert "threshold" not in row and cell["threshold"] == ""
        else:
            d = want[row["metric"], row["size"]]
            assert row["threshold"] == d and float(cell["threshold"]) == d


def test_report_stats_quantiles_top(pipeline):
    tmp, out = pipeline
    feats, nb = run_embed_knn(tmp, out)
    stats_out = tmp / "stats.txt"
    assert main([
        "report", "stats", "--categories", str(out / "categories.json"),
        "--out", str(stats_out),
    ]) == 0
    assert "mean categories per entity" in stats_out.read_text()
    assert main([
        "report", "stats", "--categories", str(out / "categories.json"),
        "--graph", str(out / "graph.json"), "--out", str(stats_out),
    ]) == 0
    manifest = json.loads((tmp / "stats.txt.manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(out / "categories.json"), str(out / "graph.json")]

    subset = tmp / "subset.txt"
    subset.write_text("n0\nn1\n", encoding="utf-8")
    assert main([
        "report", "stats", "--categories", str(out / "categories.json"),
        "--graph", str(out / "graph.json"), "--subset", str(subset),
        "--out", str(stats_out),
    ]) == 0
    assert "subset mean" in stats_out.read_text()

    q_out = tmp / "quantiles.csv"
    assert main([
        "report", "quantiles", "--features", str(feats), "--metric", "l2",
        "--targets", "3,5,8", "--out", str(q_out),
    ]) == 0
    assert len(q_out.read_text().splitlines()) == 4

    ranking = tmp / "ranking.csv"
    assert main([
        "rank", "--neighbors", str(nb), "--categories", str(out / "categories.json"),
        "--criterion", "surprise", "--out", str(ranking),
    ]) == 0
    top_out = tmp / "top.csv"
    top_txt = tmp / "top.txt"
    assert main([
        "report", "top", "--ranking", str(ranking), "--categories",
        str(out / "categories.json"), "--top", "3", "--out", str(top_out),
        "--text", str(top_txt),
    ]) == 0
    assert len(top_out.read_text().splitlines()) == 4
    assert top_txt.read_text().splitlines()[0].startswith("rank")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--criterion", "surprise"])
    assert exc.value.code == 1


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("justonefield\n", encoding="utf-8")
    rc = main(["ingest", "--graph", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_ingest_takes_the_feature_kind_the_file_declares(tmp_path):
    graph, _, _ = make_dataset(tmp_path)
    dist = tmp_path / "dist.tsv"
    dist.write_text("12 2 distribution\n" + "".join(f"n{v}\t0.25 0.75\n" for v in range(12)),
                    encoding="utf-8")
    out = tmp_path / "work"
    assert main(["ingest", "--graph", str(graph), "--features", str(dist),
                 "--out-dir", str(out)]) == 0
    assert (out / "features.tsv").read_text().splitlines()[0] == "12 2 distribution"
    assert "feature_kind" not in json.loads((out / "manifest.json").read_text())["parameters"]
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--graph", str(graph), "--features", str(dist),
              "--feature-kind", "distribution", "--out-dir", str(tmp_path / "flag")])
    assert exc.value.code == 1
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("feature-kind = distribution\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "ingest", "--graph", str(graph),
              "--out-dir", str(tmp_path / "config")])
    assert exc.value.code == 1


def _bad_categories_line(tmp):
    (tmp / "bad_cats.tsv").write_text("n0\tcliqueA\nn1 cliqueA\n", encoding="utf-8")
    return ["--categories", str(tmp / "bad_cats.tsv")]


def _bad_feature_row(tmp):
    (tmp / "bad_f.tsv").write_text("1 2 point\nn0\t0.5 x\n", encoding="utf-8")
    return ["--features", str(tmp / "bad_f.tsv")]


def _bad_vote_line(tmp):
    (tmp / "bad_votes.csv").write_text("question_id,choice_1,choice_2,voted_index\n"
                                       "q1,cliqueA,nowhere,1\n", encoding="utf-8")
    return ["--categories", str(tmp / "cats.tsv"), "--votes", str(tmp / "bad_votes.csv")]


@pytest.mark.parametrize("extra", [_bad_categories_line, _bad_feature_row, _bad_vote_line])
def test_refused_ingest_writes_nothing(tmp_path, capsys, extra):
    graph, _, _ = make_dataset(tmp_path)
    out = tmp_path / "work"
    assert main(["ingest", "--graph", str(graph), *extra(tmp_path),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("menu", [["--sizes="], ["--metrics", "l1,l1"], ["--metrics", "kl"]])
def test_refused_grid_writes_nothing(pipeline, menu):
    tmp, out = pipeline
    grid_dir = tmp / "grid"
    assert main(["grid", "--features", str(write_points(tmp / "f.tsv")),
                 "--categories", str(out / "categories.json"), *menu,
                 "--out-dir", str(grid_dir)]) == 2
    assert not grid_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["ingest", "--graph", "{tmp}/edges.tsv", "--votes", "{tmp}/votes.csv",
      "--out-dir", "{tmp}/refused"], "ingest: --votes requires --categories"),
    (["report", "stats", "--categories", "{tmp}/work/categories.json",
      "--subset", "{tmp}/cats.tsv", "--out", "{tmp}/refused"],
     "report stats: --subset requires --graph"),
])
def test_option_without_the_option_it_needs_is_a_usage_error(pipeline, capsys, argv, message):
    tmp, _ = pipeline
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not list(tmp.glob("refused*"))


def test_report_stats_refuses_a_repeated_subset_id(pipeline, capsys):
    tmp, out = pipeline
    subset = tmp / "subset.txt"
    subset.write_text("n0\nn1\n# comment\nn0\n", encoding="utf-8")
    stats = tmp / "stats.txt"
    assert main(["report", "stats", "--categories", str(out / "categories.json"),
                 "--graph", str(out / "graph.json"), "--subset", str(subset),
                 "--out", str(stats)]) == 2
    assert f"{subset}:4: repeated entity 'n0'" in capsys.readouterr().err
    assert not stats.exists()


def test_config_file_supplies_defaults(tmp_path):
    graph, cats, votes = make_dataset(tmp_path)
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("walks-per-vertex = 4\nwalk-length = 5\nseed = 9\n", encoding="utf-8")
    out = tmp_path / "work"
    out.mkdir()
    assert main(["ingest", "--graph", str(graph), "--out-dir", str(out)]) == 0
    walks = tmp_path / "walks.txt"
    assert main([
        "--config", str(cfg), "walk", "--graph", str(out / "graph.json"),
        "--out", str(walks),
    ]) == 0
    assert len(walks.read_text().splitlines()) == 4 * 12
    manifest = json.loads((tmp_path / "walks.txt.manifest.json").read_text())
    assert manifest["seed"] == 9
    # explicit flag wins over the config file
    assert main([
        "--config", str(cfg), "walk", "--graph", str(out / "graph.json"),
        "--walks-per-vertex", "1", "--out", str(walks),
    ]) == 0
    assert len(walks.read_text().splitlines()) == 1 * 12


def test_config_reaches_nested_report_args(tmp_path):
    graph, cats, votes = make_dataset(tmp_path)
    out = tmp_path / "work"
    out.mkdir()
    assert main(["ingest", "--graph", str(graph), "--categories", str(cats),
                 "--out-dir", str(out)]) == 0
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("bucket-width = 2\n", encoding="utf-8")
    stats_out = tmp_path / "stats.txt"
    assert main([
        "--config", str(cfg), "report", "stats", "--categories",
        str(out / "categories.json"), "--out", str(stats_out),
    ]) == 0
    assert "bucket width 2" in stats_out.read_text()


@pytest.mark.parametrize("flag", ["--config=", "--conf"])
def test_config_path_in_any_argparse_spelling(tmp_path, flag):
    graph, cats, votes = make_dataset(tmp_path)
    out = tmp_path / "work"
    out.mkdir()
    assert main(["ingest", "--graph", str(graph), "--categories", str(cats),
                 "--out-dir", str(out)]) == 0
    cfg = tmp_path / "c.conf"
    given = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
    cfg.write_text("bucket-width = 2\n", encoding="utf-8")
    stats_out = tmp_path / "stats.txt"
    assert main([*given, "report", "stats", "--categories", str(out / "categories.json"),
                 "--out", str(stats_out)]) == 0
    assert "bucket width 2" in stats_out.read_text()
    cfg.write_text("no-such-option = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([*given, "walk", "--graph", "g", "--out", "w"])
    assert exc.value.code == 1


def test_limit_config_keys_reach_only_their_subcommands():
    from catrank.cli import _apply_config, build_parser

    parser = build_parser()
    _apply_config(parser, {"exact_limit": "12"})
    for argv in (["knn", "--features", "f", "--metric", "l2", "--avg-target", "3",
                  "--out", "o"],
                 ["grid", "--features", "f", "--categories", "c", "--out-dir", "d"],
                 ["report", "quantiles", "--features", "f", "--metric", "l2", "--out", "o"]):
        assert parser.parse_args(argv).exact_limit == 12
    args = vars(parser.parse_args(["evaluate", "--ranking", "r", "--votes", "v",
                                   "--categories", "c", "--out", "o"]))
    assert not [dest for dest in args if "exact_limit" in dest]


_MINIMAL_ARGV = {
    "walk": ["walk", "--graph", "g", "--out", "o"],
    "embed": ["embed", "--graph", "g", "--out", "o"],
    "knn": ["knn", "--features", "f", "--metric", "l2", "--k", "3", "--out", "o"],
    "coherence": ["coherence", "--neighbors", "n", "--categories", "c", "--out", "o"],
    "rank": ["rank", "--neighbors", "n", "--categories", "c", "--criterion", "surprise",
             "--out", "o"],
    "grid": ["grid", "--features", "f", "--categories", "c", "--out-dir", "d"],
    "evaluate": ["evaluate", "--ranking", "r", "--votes", "v", "--categories", "c",
                 "--out", "o"],
    "report quantiles": ["report", "quantiles", "--features", "f", "--metric", "l2",
                         "--out", "o"],
}


@pytest.mark.parametrize("key, raw, value, takers, other", [
    ("walk_length", "7", 7, ["walk", "embed"], "knn"),
    ("min_size", "4", 4, ["coherence", "rank", "grid"], "evaluate"),
    ("adjusted_p", "yes", True, ["coherence", "rank"], "grid"),
    ("seed", "5", 5, ["walk", "embed", "knn", "grid", "report quantiles"], "rank"),
])
def test_group_config_keys_reach_exactly_their_subcommands(key, raw, value, takers, other):
    from catrank.cli import _apply_config, build_parser

    parser = build_parser()
    _apply_config(parser, {key: raw})
    for name in takers:
        assert getattr(parser.parse_args(_MINIMAL_ARGV[name]), key) == value, name
    assert key not in vars(parser.parse_args(_MINIMAL_ARGV[other]))


def test_workers_flag_only_on_stages_that_take_it():
    from catrank.cli import _iter_parsers, build_parser

    takers = sorted(p.prog.removeprefix("catrank ") for p in _iter_parsers(build_parser())
                    if any(a.dest == "workers" for a in p._actions))  # noqa: SLF001
    assert takers == ["grid", "knn", "report quantiles"]


def test_evaluate_manifest_records_no_parameters(pipeline):
    tmp, out = pipeline
    ranking = tmp / "ranking.csv"
    assert main(["rank", "--neighbors", str(write_clique_neighbors(tmp / "nb.tsv")),
                 "--categories", str(out / "categories.json"), "--criterion", "surprise",
                 "--out", str(ranking)]) == 0
    argv = ["evaluate", "--ranking", str(ranking), "--votes", str(out / "votes.csv"),
            "--categories", str(out / "categories.json"), "--out", str(tmp / "report.json")]
    assert main(argv) == 0
    manifest = json.loads((tmp / "report.json.manifest.json").read_text())
    assert manifest["parameters"] == {}
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cheat-exact-limit", "0"])
    assert exc.value.code == 1


@pytest.mark.parametrize("key, value", [("k", "2"), ("avg-target", "1.5"), ("radius", "0.3")])
def test_strategy_config_key_is_an_unknown_key(tmp_path, capsys, key, value):
    # one of --k, --avg-target and --radius must be on the command line, so a
    # config key for one of them could only override the flag given there
    cfg = tmp_path / "catrank.conf"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    nb = tmp_path / "nb.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "knn", "--features", str(write_points(tmp_path / "f.tsv")),
              "--metric", "l2", "--avg-target", "1.5", "--out", str(nb)])
    assert exc.value.code == 1
    assert f"unknown config keys: ['{key.replace('-', '_')}']" in capsys.readouterr().err
    assert not nb.exists()


@pytest.mark.parametrize("key, value", [("dim", "1.5"), ("initial-lr", "fast"),
                                        ("method", "foo"), ("sizes", "1,abc"),
                                        ("targets", "1,abc")])
def test_config_value_failing_its_type_names_the_key(pipeline, capsys, key, value):
    tmp, out = pipeline
    cfg = tmp / "catrank.conf"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    feats = tmp / "features.tsv"
    capsys.readouterr()
    assert main(["--config", str(cfg), "embed", "--graph", str(out / "graph.json"),
                 "--out", str(feats)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"catrank: data error: config {key.replace('-', '_')}: ")
    assert err.rstrip().endswith(f"'{value}'")
    assert not feats.exists()


@pytest.mark.parametrize("key, value, argv", [
    ("criterion", "conductance", ["rank", "--neighbors", "nb", "--categories", "c",
                                  "--criterion", "surprise"]),
    ("metric", "kl", ["report", "quantiles", "--features", "f", "--metric", "l2"]),
    ("neighbors", "nb", ["coherence", "--neighbors", "nb", "--categories", "c"]),
    ("out", "o", ["walk", "--graph", "g"]),
], ids=["criterion", "metric", "neighbors", "out"])
def test_required_flag_config_key_is_an_unknown_key(tmp_path, capsys, key, value, argv):
    # a flag the command line must give always wins over its config key
    cfg = tmp_path / "catrank.conf"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), *argv, "--out", str(out)])
    assert exc.value.code == 1
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_input_keys_optional_in_some_subcommand_stay_config_keys():
    from catrank.cli import _apply_config, build_parser

    parser = build_parser()
    _apply_config(parser, {"graph": "g", "categories": "c", "features": "f", "votes": "v"})
    args = parser.parse_args(["ingest", "--graph", "e", "--out-dir", "d"])
    assert (args.categories, args.features, args.votes) == ("c", "f", "v")
    assert parser.parse_args(["report", "stats", "--categories", "x", "--out", "o"]).graph == "g"


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("no-such-option = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "walk", "--graph", "g", "--out", "w"])
    assert exc.value.code == 1


@pytest.mark.parametrize("second", ["walk_length", "walk-length"])
def test_repeated_config_key_is_rejected(tmp_path, capsys, second):
    cfg = tmp_path / "catrank.conf"
    cfg.write_text(f"walk-length = 3\n# the same key again\n{second} = 7\n", encoding="utf-8")
    assert main(["--config", str(cfg), "walk", "--graph", "g", "--out", "w"]) == 2
    assert capsys.readouterr().err == (f"catrank: data error: {cfg}:3: config key "
                                       "'walk_length' is set twice\n")


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CATRANK_WORKERS", "3")
    from catrank.cli import build_parser

    args = build_parser().parse_args(["knn", "--features", "f", "--metric", "l1", "--k", "3",
                                      "--out", "o"])
    assert args.workers == 3


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", " "])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_bad_worker_count_is_a_usage_error(monkeypatch, capsys, source, value):
    argv = ["knn", "--features", "f", "--metric", "l1", "--k", "3", "--out", "o"]
    if source == "flag":
        argv[1:1] = [f"--workers={value}"]
    else:
        monkeypatch.setenv("CATRANK_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument --workers: expected an integer of at least 1" in err
    assert err.rstrip().endswith(f"got {value!r}") and "Traceback" not in err


def test_bad_worker_count_in_config_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("workers = 0\n", encoding="utf-8")
    assert main(["--config", str(cfg), "walk", "--graph", "g", "--out", "w"]) == 2
    assert "config workers: expected an integer of at least 1" in capsys.readouterr().err


def _min_size_argv(tmp, stage):
    """``stage`` on inputs that do not exist, so only a usage error can come
    before reading them."""
    if stage == "grid":
        return ["grid", "--features", str(tmp / "missing.tsv"), "--categories",
                str(tmp / "missing.json"), "--out-dir", str(tmp / "grid")]
    criterion = ["--criterion", "surprise"] if stage == "rank" else []
    return [stage, "--neighbors", str(tmp / "missing.tsv"), "--categories",
            str(tmp / "missing.json"), *criterion, "--out", str(tmp / "s.csv")]


@pytest.mark.parametrize("value", ["1", "-2", "two"])
@pytest.mark.parametrize("stage", ["coherence", "rank", "grid"])
def test_min_size_below_two_is_a_usage_error(tmp_path, capsys, stage, value):
    with pytest.raises(SystemExit) as exc:
        main([*_min_size_argv(tmp_path, stage), f"--min-size={value}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument --min-size: expected an integer of at least 2, got {value!r}" in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "grid").exists()


@pytest.mark.parametrize("stage", ["coherence", "rank", "grid"])
def test_min_size_below_two_in_config_is_rejected(tmp_path, capsys, stage):
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("min-size = 1\n", encoding="utf-8")
    assert main(["--config", str(cfg), *_min_size_argv(tmp_path, stage)]) == 2
    assert capsys.readouterr().err == ("catrank: data error: config min_size: expected an "
                                       "integer of at least 2, got '1'\n")


def test_nothing_scorable_reads_the_same_for_coherence_and_rank(pipeline, capsys):
    # the largest category has 6 members
    tmp, work = pipeline
    nb = str(write_clique_neighbors(tmp / "nb.tsv"))
    (tmp / "out").mkdir()
    stages = _scoring_stages(nb, str(work / "categories.json"), tmp / "out")
    capsys.readouterr()
    for argv in stages:
        assert main([*argv, "--min-size", "7"]) == 2
        assert capsys.readouterr().err == ("catrank: data error: no scorable category "
                                           "(all below --min-size)\n")
    assert not list((tmp / "out").iterdir())
    for argv in stages:
        assert main([*argv, "--min-size", "6"]) == 0


@pytest.mark.parametrize("from_walks", [False, True], ids=["graph", "walk-file"])
def test_embed_refuses_a_corpus_without_pairs(tmp_path, capsys, from_walks):
    # two self-loops: ingest drops them, leaving two entities and no edge
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\ta\nb\tb\n", encoding="utf-8")
    out = tmp_path / "work"
    assert main(["ingest", "--graph", str(edges), "--out-dir", str(out)]) == 0
    walks = []
    if from_walks:
        (tmp_path / "walks.txt").write_text("a\nb\n", encoding="utf-8")
        walks = ["--walks", str(tmp_path / "walks.txt")]
    feats = tmp_path / "features.tsv"
    capsys.readouterr()
    assert main(["embed", "--graph", str(out / "graph.json"), *walks, "--dim", "4",
                 "--out", str(feats)]) == 2
    assert "no (center, context) pair" in capsys.readouterr().err
    assert not feats.exists()


def test_module_entry_point(tmp_path):
    graph, cats, votes = make_dataset(tmp_path)
    out = tmp_path / "work"
    # the child imports the package the test imported, installed or not
    src = os.path.dirname(os.path.dirname(catrank.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "catrank", "ingest", "--graph", str(graph),
         "--out-dir", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "entities" in proc.stdout


def write_points(path, kind="point"):
    """Dim-2 point features for the 12 entities: one tight cluster per clique."""
    rows = [f"n{v}\t{10.0 * (v // 6) + 0.1 * (v % 6)!r} {1.0 + 0.01 * v!r}" for v in range(12)]
    path.write_text(f"12 2 {kind}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_clique_neighbors(path, n=12):
    """Each entity lists its next three clique-mates."""
    lines = []
    for v in range(n):
        base = 6 * (v // 6)
        cells = ",".join(f"{base + (v - base + j) % 6}:{float(j)!r}" for j in (1, 2, 3))
        lines.append(f"{v}\t{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _scoring_stages(nb, cats, out):
    """coherence, then rank by each criterion, on one neighbor list."""
    inputs = ["--neighbors", nb, "--categories", cats]
    return [["coherence", *inputs, "--out", f"{out}/scores.csv"]] + [
        ["rank", *inputs, "--criterion", criterion, "--out", f"{out}/ranking_{criterion}.csv"]
        for criterion in CRITERIA]


def test_coherence_and_rank_never_convert_distances(pipeline, monkeypatch, capsys):
    tmp, work = pipeline
    nb = write_clique_neighbors(tmp / "nb.tsv")
    cats = str(work / "categories.json")
    (tmp / "read").mkdir()
    (tmp / "unread").mkdir()
    for argv in _scoring_stages(str(nb), cats, tmp / "read"):
        assert main(argv) == 0

    def refuse(blocks):
        raise AssertionError("distances converted")

    monkeypatch.setattr(neighbors, "_convert_distances", refuse)
    for argv in _scoring_stages(str(nb), cats, tmp / "unread"):
        assert main(argv) == 0
    for name in ["scores.csv"] + [f"ranking_{c}.csv" for c in CRITERIA]:
        assert (tmp / "unread" / name).read_bytes() == (tmp / "read" / name).read_bytes()
    # a distance no stage reads is still checked against the grammar
    lines = nb.read_text(encoding="utf-8").splitlines(keepends=True)
    for token in ("1.2.3", "1e", ".", "--1", "e5"):
        bad = tmp / "nb_bad.tsv"
        bad.write_text("".join(lines[:4] + [lines[4].replace(":2.0,", f":{token},")]
                               + lines[5:]), encoding="utf-8")
        assert f":{token}," in bad.read_text(encoding="utf-8")
        capsys.readouterr()
        for argv in _scoring_stages(str(bad), cats, tmp / "unread"):
            assert main(argv) == 2
            assert f"{bad}:5: expected row 4 as" in capsys.readouterr().err


def test_report_top_on_conductance_ranking(pipeline):
    tmp, out = pipeline
    nb = write_clique_neighbors(tmp / "nb.tsv")
    cats = str(out / "categories.json")
    ranking, top = tmp / "ranking.csv", tmp / "top.csv"
    assert main(["rank", "--neighbors", str(nb), "--categories", cats,
                 "--criterion", "conductance", "--out", str(ranking)]) == 0
    assert main(["report", "top", "--ranking", str(ranking), "--categories", cats,
                 "--out", str(top)]) == 0
    with open(top, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert all(r["criterion_value"] == r["conductance"] for r in rows)
    assert rows[0]["criterion_value"] != rows[0]["log_surprise"]


def test_grid_refuses_an_empty_menu_axis(pipeline, capsys):
    tmp, out = pipeline
    grid_dir = tmp / "grid"
    assert main(["grid", "--features", str(write_points(tmp / "f.tsv")),
                 "--categories", str(out / "categories.json"), "--sizes=",
                 "--out-dir", str(grid_dir)]) == 2
    assert "grid menu axis 'sizes' is empty" in capsys.readouterr().err
    assert not (grid_dir / "summary.csv").exists()


def test_adjusted_p_scores_and_ranks_by_the_without_replacement_p(fig4_instance, tmp_path):
    # fig. 4's neighbor set with a second category, "flip", whose surprise is
    # above the probe's at p = size/N (0.40 > 0.375) and below it at
    # p = (size-1)/(N-1) (0.30 < 0.36)
    nbrs, _ = fig4_instance
    members = [[0, 1, 2, 3], [0, 2, 4]]
    cats = categories_from_members(members, 16, names=["probe", "flip"])
    want = []
    for m in members:
        p = Fraction(len(m) - 1, cats.n_entities - 1)
        tails = [exact_binomial_tail(len(ids), len(set(ids.tolist()) & set(m)), p)
                 for ids in (nbrs.neighbors(v)[0] for v in m) if len(ids)]
        want.append(float(sum(tails) / len(tails)))
    for c in range(2):
        assert score_alone(c, nbrs, cats, adjusted_p=True).surprise == \
            pytest.approx(want[c], rel=1e-12)
    scores, _ = coherence.score_categories(nbrs, cats, adjusted_p=True)
    assert [s.surprise for s in scores] == pytest.approx(want, rel=1e-12)
    assert coherence.rank_categories(nbrs, cats, "surprise",
                                     adjusted_p=True).ordered_categories == [1, 0]

    nbrs.save(str(tmp_path / "nb.tsv"))
    cats.save(str(tmp_path / "cats.json"))
    for flag, order in (([], ["probe", "flip"]), (["--adjusted-p"], ["flip", "probe"])):
        ranking = tmp_path / f"ranking{len(flag)}.csv"
        assert main(["rank", "--neighbors", str(tmp_path / "nb.tsv"), "--categories",
                     str(tmp_path / "cats.json"), "--criterion", "surprise",
                     "--out", str(ranking), *flag]) == 0
        with open(ranking, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["category"] for r in rows] == order
        manifest = json.loads((tmp_path / f"{ranking.name}.manifest.json").read_text())
        assert manifest["parameters"]["adjusted_p"] is bool(flag)
    assert [math.exp(float(r["log_surprise"])) for r in rows] == \
        pytest.approx(want[::-1], rel=1e-12)


def _bad_config(tmp, out):
    cfg = tmp / "catrank.conf"
    cfg.write_text("seed 9\n", encoding="utf-8")
    return ["--config", str(cfg), "walk", "--graph", str(out / "graph.json"),
            "--out", str(tmp / "walks.txt")]


def _kl_on_points(tmp, out):
    return ["knn", "--features", str(write_points(tmp / "f.tsv")), "--metric", "kl",
            "--k", "2", "--out", str(tmp / "nb.tsv")]


def _universe_mismatch(tmp, out, stage="coherence"):
    """A 6-row neighbor list or feature file against the 12-entity categories."""
    cats = str(out / "categories.json")
    if stage == "grid":
        features = tmp / "f6.tsv"
        features.write_text("6 2 point\n" + "".join(f"n{v}\t{v}.0 1.0\n" for v in range(6)),
                            encoding="utf-8")
        return ["grid", "--features", str(features), "--categories", cats,
                "--votes", str(out / "votes.csv"), "--out-dir", str(tmp / "grid")]
    nb = str(write_clique_neighbors(tmp / "nb.tsv", n=6))
    criterion = ["--criterion", "surprise"] if stage == "rank" else []
    return [stage, "--neighbors", nb, "--categories", cats, *criterion,
            "--out", str(tmp / "s.csv")]


@pytest.mark.parametrize("stage", ["coherence", "rank", "grid"])
def test_row_count_mismatch_names_both_files(pipeline, capsys, stage):
    tmp, out = pipeline
    argv = _universe_mismatch(tmp, out, stage)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    rows_file = argv[argv.index("--features" if stage == "grid" else "--neighbors") + 1]
    assert err == (f"catrank: data error: {rows_file} has 6 rows, but "
                   f"{out / 'categories.json'} has n_entities = 12\n")
    assert not (tmp / "s.csv").exists()
    assert not (tmp / "grid").exists()


def _category_only_ranking(tmp, out):
    ranking = tmp / "ranking.csv"
    ranking.write_text("category\ncliqueA\ncliqueB\n", encoding="utf-8")
    return ["evaluate", "--ranking", str(ranking), "--votes", str(out / "votes.csv"),
            "--categories", str(out / "categories.json"), "--out", str(tmp / "e.json")]


def _zero_count_size(tmp, out):
    return ["grid", "--features", str(write_points(tmp / "f.tsv")),
            "--categories", str(out / "categories.json"), "--metrics", "l2",
            "--strategies", "count", "--sizes", "0,5", "--out-dir", str(tmp / "grid")]


def _stats_universe_mismatch(tmp, out):
    cats = tmp / "two.json"
    cats.write_text('{"n_entities": 2, "names": ["c"], "members": [[0, 1]]}', encoding="utf-8")
    subset = tmp / "subset.txt"
    subset.write_text("n11\n", encoding="utf-8")
    return ["report", "stats", "--categories", str(cats), "--graph", str(out / "graph.json"),
            "--subset", str(subset), "--out", str(tmp / "stats.txt")]


def _stats_graph_mismatch(tmp, out):
    cats = tmp / "two.json"
    cats.write_text('{"n_entities": 2, "names": ["c"], "members": [[0, 1]]}', encoding="utf-8")
    return ["report", "stats", "--categories", str(cats), "--graph", str(out / "graph.json"),
            "--out", str(tmp / "stats.txt")]


def _empty_features(tmp, out):
    features = tmp / "empty.tsv"
    features.write_text("0 2 point\n", encoding="utf-8")
    return ["knn", "--features", str(features), "--metric", "l2", "--radius", "1",
            "--out", str(tmp / "nb.tsv")]


def _zero_window(tmp, out):
    walks = tmp / "walks.txt"
    walks.write_text("n0\tn1\tn2\nn6\tn7\n", encoding="utf-8")
    return ["embed", "--graph", str(out / "graph.json"), "--walks", str(walks),
            "--window", "0", "--dim", "4", "--out", str(tmp / "f.tsv")]


def _tab_in_graph_id(tmp, out):
    # walks and features are TAB-separated lines, so no stage could read it back
    graph = tmp / "tab.json"
    graph.write_text(json.dumps({"ids": ["a\tb", "c"], "adjacency": [[1], [0]]}),
                     encoding="utf-8")
    return ["walk", "--graph", str(graph), "--out", str(tmp / "walks.txt")]


@pytest.mark.parametrize("argv", [_bad_config, _kl_on_points, _universe_mismatch,
                                  _category_only_ranking, _zero_count_size,
                                  _stats_universe_mismatch, _stats_graph_mismatch,
                                  _empty_features, _zero_window, _tab_in_graph_id])
def test_rejected_input_exits_2_without_traceback(pipeline, capsys, argv):
    tmp, out = pipeline
    capsys.readouterr()
    assert main(argv(tmp, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("catrank: data error: ")
    assert "Traceback" not in err


_LR_ERROR = "learning rates must be finite and nonnegative"


@pytest.mark.parametrize("option, message", [
    (["--window", "0"], "window must be at least 1"), (["--dim", "0"], "dim must be at least 1"),
    (["--initial-lr", "-1"], _LR_ERROR), (["--final-lr", "inf"], _LR_ERROR),
    (["--negative", "-1"], "negative must be nonnegative"),
    (["--method", "negative", "--negative", "0"],
     "negative sampling needs negative of at least 1")])
@pytest.mark.parametrize("corpus", [[], ["--walks", "walks.txt"]])
def test_embed_refuses_training_settings_before_any_walk(pipeline, capsys, monkeypatch,
                                                         option, message, corpus):
    tmp, out = pipeline

    def unreachable(*args, **kwargs):
        raise AssertionError("the corpus was built before the settings were checked")

    monkeypatch.setattr(embeddings, "generate_walks", unreachable)
    monkeypatch.setattr(embeddings, "load_walks", unreachable)
    corpus = [str(tmp / c) if c.endswith(".txt") else c for c in corpus]
    capsys.readouterr()
    assert main(["embed", "--graph", str(out / "graph.json"), *corpus, *option,
                 "--out", str(tmp / "f.tsv")]) == 2
    assert capsys.readouterr().err == f"catrank: data error: {message}\n"
    assert not (tmp / "f.tsv").exists()


def test_grid_summary_quotes_feature_name(pipeline):
    tmp, out = pipeline
    grid_dir = tmp / "grid"
    assert main([
        "grid", "--features", str(write_points(tmp / "f.tsv")), "--features-name", 'f,"1"',
        "--categories", str(out / "categories.json"), "--metrics", "l2",
        "--strategies", "count", "--sizes", "3", "--criteria", "surprise",
        "--out-dir", str(grid_dir),
    ]) == 0
    with open(grid_dir / "summary.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert None not in rows[0]
    assert (rows[0]["feature"], rows[0]["metric"], rows[0]["size"]) == ('f,"1"', "l2", "3")


def test_fractional_distance_sizes_and_quantile_targets(pipeline):
    tmp, out = pipeline
    features = str(write_points(tmp / "f.tsv"))
    grid_dir = tmp / "grid"
    assert main(["grid", "--features", features, "--categories", str(out / "categories.json"),
                 "--metrics", "l2", "--strategies", "distance", "--sizes", "1.5,3",
                 "--criteria", "surprise", "--out-dir", str(grid_dir)]) == 0
    summary = json.loads((grid_dir / "summary.json").read_text())
    assert [row["size"] for row in summary["rows"]] == [1.5, 3.0]
    assert (grid_dir / "rankings" / "features_l2_distance_1.5_surprise.csv").exists()
    q_out = tmp / "quantiles.csv"
    assert main(["report", "quantiles", "--features", features, "--metric", "l2",
                 "--targets", "1.5,3", "--out", str(q_out)]) == 0
    assert [line.split(",")[0] for line in q_out.read_text().splitlines()] == \
        ["target_avg_neighbors", "1.5", "3"]


# ---------------------------------------------------------------------------
# manifests: one rule for every stage


@pytest.mark.parametrize("word, value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False),
])
def test_config_boolean_words(tmp_path, word, value):
    graph, _, _ = make_dataset(tmp_path)
    cfg = tmp_path / "catrank.conf"
    cfg.write_text(f"symmetrize = {word}\n", encoding="utf-8")
    out = tmp_path / "work"
    assert main(["--config", str(cfg), "ingest", "--graph", str(graph),
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["symmetrize"] is value


def test_config_boolean_typo_is_a_config_error(tmp_path, capsys):
    graph, _, _ = make_dataset(tmp_path)
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("symmetrize = ture\n", encoding="utf-8")
    out = tmp_path / "work"
    assert main(["--config", str(cfg), "ingest", "--graph", str(graph),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("catrank: data error: config symmetrize: ")
    assert err.rstrip().endswith("got 'ture'")
    assert not out.exists()


def test_grid_refuses_a_repeated_menu_value(pipeline, capsys):
    tmp, out = pipeline
    grid_dir = tmp / "grid"
    assert main(["grid", "--features", str(write_points(tmp / "f.tsv")),
                 "--categories", str(out / "categories.json"), "--metrics", "l1,l1",
                 "--criteria", "surprise,surprise", "--sizes", "1",
                 "--out-dir", str(grid_dir)]) == 2
    assert "grid menu axis 'metrics' repeats 'l1'" in capsys.readouterr().err
    assert not (grid_dir / "summary.csv").exists()


def _manifest(argv) -> dict:
    from catrank.cli import _manifest_path, build_parser

    with open(_manifest_path(build_parser().parse_args(argv)), encoding="utf-8") as f:
        return json.load(f)


def _grid_argv(tmp, out, name):
    return ["grid", "--features", str(write_points(tmp / "f.tsv")),
            "--categories", str(out / "categories.json"), "--metrics", "l2",
            "--strategies", "distance", "--sizes", "3", "--criteria", "surprise",
            "--out-dir", str(tmp / name)]


def _quantiles_argv(tmp, out, name):
    return ["report", "quantiles", "--features", str(write_points(tmp / "f.tsv")),
            "--metric", "l2", "--targets", "3", "--out", str(tmp / name)]


@pytest.mark.parametrize("argv, flag, value, parsed", [
    (_grid_argv, "--exact-limit", "2", 2),
    (_grid_argv, "--sample-pairs", "7", 7),
    (_grid_argv, "--features-name", "other", "other"),
    (_quantiles_argv, "--exact-limit", "2", 2),
    (_quantiles_argv, "--sample-pairs", "7", 7),
])
def test_manifest_parameters_tell_apart_runs_that_differ_in_one_option(
        pipeline, argv, flag, value, parsed):
    tmp, out = pipeline
    runs = (argv(tmp, out, "a"), argv(tmp, out, "b") + [flag, value])
    for run in runs:
        assert main(run) == 0
    a, b = (_manifest(run)["parameters"] for run in runs)
    key = flag[2:].replace("-", "_")
    assert a[key] != parsed
    assert b == {**a, key: parsed}


@pytest.mark.parametrize("argv, flag", [(_grid_argv, "--sizes"), (_quantiles_argv, "--targets")])
def test_number_list_flag_is_checked_and_recorded_as_given(pipeline, capsys, argv, flag):
    tmp, out = pipeline
    kept = argv(tmp, out, "kept") + [flag, "1.5, 3"]
    assert main(kept) == 0
    assert _manifest(kept)["parameters"][flag[2:]] == "1.5, 3"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv(tmp, out, "refused") + [flag, "1,abc"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated numbers, got '1,abc'" in err
    assert "Traceback" not in err
    assert not (tmp / "refused").exists()


def _normalized_manifest(path, root):
    payload = json.loads(path.read_text(encoding="utf-8").replace(str(root), "@"))
    del payload["wall_clock_s"]
    return payload


def _worker_chain(root, features, cats, workers):
    root.mkdir()
    w = ["--workers", str(workers)]
    sampled = ["--exact-limit", "100", "--sample-pairs", "5000", "--seed", "3"]
    for argv in (
        ["knn", "--features", features, "--metric", "js", "--k", "5", *w,
         "--out", str(root / "nb_k.tsv")],
        ["knn", "--features", features, "--metric", "l1", "--avg-target", "5", *sampled, *w,
         "--out", str(root / "nb_avg.tsv")],
        ["knn", "--features", features, "--metric", "l2", "--avg-target", "5", *w,
         "--out", str(root / "nb_avg_exact.tsv")],
        ["knn", "--features", features, "--metric", "cosine", "--radius", "0.05", *w,
         "--out", str(root / "nb_radius.tsv")],
        ["grid", "--features", features, "--categories", cats, "--metrics", "l1,js,cosine",
         "--sizes", "3,5", "--criteria", "surprise", *sampled, *w,
         "--out-dir", str(root / "grid")],
        ["grid", "--features", features, "--categories", cats, "--metrics", "l2,js",
         "--strategies", "count,distance", "--sizes", "3,5", "--criteria", "surprise", *w,
         "--out-dir", str(root / "grid_exact")],
        ["report", "quantiles", "--features", features, "--metric", "kl", "--targets", "2,5",
         *sampled, *w, "--out", str(root / "quantiles.csv")],
    ):
        assert main(argv) == 0, argv
    return root


def test_outputs_and_manifests_do_not_depend_on_workers(tmp_path):
    # 300 entities: every distance kernel splits its queries into several blocks
    rng = np.random.default_rng(31)
    n = 300
    features = tmp_path / "features.tsv"
    save_features_text(FeatureMatrix(kind="distribution", rows=random_simplex(rng, n, 4)),
                       [f"e{i}" for i in range(n)], str(features))
    cats = tmp_path / "categories.json"
    categories_from_members([rng.choice(n, size=int(rng.integers(2, 30)), replace=False)
                             for _ in range(20)], n).save(str(cats))
    one, two = (_worker_chain(tmp_path / f"w{w}", str(features), str(cats), w) for w in (1, 2))
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    for rel in files:
        if rel.name.endswith("manifest.json"):
            assert _normalized_manifest(one / rel, one) == _normalized_manifest(two / rel, two)
        else:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


_INPUT_FLAGS = ("--graph", "--walks", "--categories", "--features", "--votes", "--neighbors",
                "--ranking", "--subset")


def test_manifest_inputs_are_the_input_options_given(pipeline):
    tmp, out = pipeline
    graph, cats, votes = (str(out / name) for name in
                          ("graph.json", "categories.json", "votes.csv"))
    feats, walks, nb, ranking = (str(tmp / name) for name in
                                 ("features.tsv", "walks.txt", "nb.tsv", "ranking.csv"))
    subset = tmp / "subset.txt"
    subset.write_text("n0\nn1\n", encoding="utf-8")
    steps = [
        (["ingest", "--graph", str(tmp / "edges.tsv"), "--out-dir", str(tmp / "g")],
         [str(tmp / "edges.tsv")]),
        (["ingest", "--graph", str(tmp / "edges.tsv"), "--categories", str(tmp / "cats.tsv"),
          "--features", str(write_points(tmp / "points.tsv")), "--votes", str(tmp / "votes.csv"),
          "--out-dir", str(tmp / "all")],
         [str(tmp / "edges.tsv"), str(tmp / "cats.tsv"), str(tmp / "points.tsv"),
          str(tmp / "votes.csv")]),
        (["walk", "--graph", graph, "--walks-per-vertex", "2", "--walk-length", "6",
          "--out", walks], [graph]),
        (["embed", "--graph", graph, "--walks-per-vertex", "2", "--walk-length", "6",
          "--dim", "4", "--window", "2", "--out", str(tmp / "generated.tsv")], [graph]),
        (["embed", "--graph", graph, "--walks", walks, "--dim", "4", "--window", "2",
          "--out", feats], [graph, walks]),
        (["knn", "--features", feats, "--metric", "l2", "--k", "3", "--out", nb], [feats]),
        (["coherence", "--neighbors", nb, "--categories", cats, "--out", str(tmp / "s.csv")],
         [nb, cats]),
        (["rank", "--neighbors", nb, "--categories", cats, "--criterion", "surprise",
          "--out", ranking], [nb, cats]),
        (["grid", "--features", feats, "--categories", cats, "--metrics", "l2",
          "--strategies", "count", "--sizes", "3", "--criteria", "surprise",
          "--out-dir", str(tmp / "grid")], [feats, cats]),
        (["grid", "--features", feats, "--categories", cats, "--votes", votes,
          "--metrics", "l2", "--strategies", "count", "--sizes", "3", "--criteria", "surprise",
          "--out-dir", str(tmp / "grid_votes")], [feats, cats, votes]),
        (["evaluate", "--ranking", ranking, "--votes", votes, "--categories", cats,
          "--out", str(tmp / "eval.json")], [ranking, votes, cats, votes + ".meta.json"]),
        (["report", "stats", "--categories", cats, "--out", str(tmp / "stats.txt")], [cats]),
        (["report", "stats", "--categories", cats, "--graph", graph, "--subset", str(subset),
          "--out", str(tmp / "stats_subset.txt")], [cats, graph, str(subset)]),
        (["report", "quantiles", "--features", feats, "--metric", "l2", "--targets", "3",
          "--out", str(tmp / "q.csv")], [feats]),
        (["report", "top", "--ranking", ranking, "--categories", cats, "--top", "2",
          "--out", str(tmp / "top.csv"), "--text", str(tmp / "top.txt")], [ranking, cats]),
    ]
    for argv, expected in steps:
        assert main(argv) == 0, argv
        manifest = _manifest(argv)
        assert sorted(manifest["inputs"]) == sorted(expected), argv
        assert not {"out", "out_dir", "text", "seed", "workers", "config"} \
            & set(manifest["parameters"]), argv
        assert not {f[2:] for f in _INPUT_FLAGS} & set(manifest["parameters"]), argv


# ---------------------------------------------------------------------------
# the cheating score ingest records beside votes.csv


def write_vote_set(root, n_cats, seed):
    """A ring of 2 * n_cats entities, categories c00, c01, ... of two members
    each, and 40 three-choice questions drawn from ``seed``, three answers
    each. ``cats_reversed.tsv`` lists the same assignments bottom up, so
    ingest numbers the categories the other way round."""
    rng = np.random.default_rng(seed)
    n = 2 * n_cats
    (root / "edges.tsv").write_text("".join(f"e{i}\te{(i + 1) % n}\n" for i in range(n)),
                                    encoding="utf-8")
    lines = [f"e{e}\tc{e // 2:02d}\n" for e in range(n)]
    (root / "cats.tsv").write_text("".join(lines), encoding="utf-8")
    (root / "cats_reversed.tsv").write_text("".join(lines[::-1]), encoding="utf-8")
    rows = ["question_id,choice_1,choice_2,choice_3,voted_index\n"]
    for q in range(40):
        names = ",".join(f"c{c:02d}" for c in rng.choice(n_cats, size=3, replace=False))
        rows += [f"q{q},{names},{int(rng.integers(1, 4))}\n" for _ in range(3)]
    (root / "votes.csv").write_text("".join(rows), encoding="utf-8")
    (root / "ranking.csv").write_text(
        "rank,category,criterion_value,conductance,log_surprise,n_members,n_observers_used\n"
        + "".join(f"{r + 1},c{c:02d},0.0,0.0,0.0,2,0\n"
                  for r, c in enumerate(rng.permutation(n_cats))), encoding="utf-8")


def _ingest_vote_set(root, cats="cats.tsv", out="work"):
    assert main(["ingest", "--graph", str(root / "edges.tsv"), "--categories", str(root / cats),
                 "--votes", str(root / "votes.csv"), "--out-dir", str(root / out)]) == 0
    return root / out


def _evaluate(root, votes, cats, out):
    assert main(["evaluate", "--ranking", str(root / "ranking.csv"), "--votes", str(votes),
                 "--categories", str(cats), "--out", str(root / out)]) == 0
    return root / out


@pytest.mark.parametrize("n_cats, search", [(12, "subset_dp"), (24, "reinsertion_climb")])
def test_ingest_records_the_cheating_score_bit_for_bit(tmp_path, n_cats, search):
    write_vote_set(tmp_path, n_cats, seed=5)
    out = _ingest_vote_set(tmp_path)
    votes, cats, meta = out / "votes.csv", out / "categories.json", out / "votes.csv.meta.json"
    recorded = json.loads(meta.read_text(encoding="utf-8"))
    score, _ = best_cheating_score(load_votes(str(votes), CategoryIndex.load(str(cats))))
    assert recorded == {"votes_sha256": file_digest(str(votes)),
                        "categories_sha256": file_digest(str(cats)),
                        "search": search, "cheating_score": score}
    assert recorded["cheating_score"].hex() == score.hex()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"][str(meta)] == file_digest(str(meta))


@pytest.mark.parametrize("case", ["as ingested", "votes edited", "other categories",
                                  "other search"])
def test_evaluation_is_the_same_with_or_without_the_sidecar(tmp_path, case):
    write_vote_set(tmp_path, 24, seed=5)
    out = _ingest_vote_set(tmp_path)
    votes, cats, meta = out / "votes.csv", out / "categories.json", out / "votes.csv.meta.json"
    recorded = json.loads(meta.read_text(encoding="utf-8"))
    if case == "votes edited":
        votes.write_text("".join(votes.read_text(encoding="utf-8").splitlines(True)[:-9]),
                         encoding="utf-8")
    elif case == "other categories":
        # the climb's score follows category ids, and this file numbers them backwards
        cats = _ingest_vote_set(tmp_path, "cats_reversed.tsv", "reversed") / "categories.json"
    elif case == "other search":
        recorded = {**recorded, "search": "iterated_local_search", "cheating_score": 1.0}
        meta.write_text(json.dumps(recorded), encoding="utf-8")
    with_meta = _evaluate(tmp_path, votes, cats, "with.json")
    inputs = json.loads((tmp_path / "with.json.manifest.json").read_text())["inputs"]
    used = case == "as ingested"
    assert inputs.get(str(meta)) == (file_digest(str(meta)) if used else None)
    meta.unlink()
    without = _evaluate(tmp_path, votes, cats, "without.json")
    assert with_meta.read_bytes() == without.read_bytes()
    # a sidecar read where it should not be would have changed the score
    score = json.loads(without.read_text(encoding="utf-8"))["cheating_score"]
    assert (score == recorded["cheating_score"]) is used


def test_evaluate_takes_the_score_of_a_matching_sidecar(tmp_path):
    write_vote_set(tmp_path, 12, seed=5)
    out = _ingest_vote_set(tmp_path)
    meta = out / "votes.csv.meta.json"
    recorded = json.loads(meta.read_text(encoding="utf-8"))
    meta.write_text(json.dumps({**recorded, "cheating_score": 1000.0}), encoding="utf-8")
    path = _evaluate(tmp_path, out / "votes.csv", out / "categories.json", "eval.json")
    rep = json.loads(path.read_text(encoding="utf-8"))
    assert rep["cheating_score"] == 1000.0
    assert rep["improved_accuracy"] == rep["total_points"] / 1000.0


# each turns the sidecar ingest wrote into one that is not a valid sidecar
_MALFORMED = {
    "invalid JSON": lambda meta: "{",
    "not an object": lambda meta: "[]",
    "missing key": lambda meta: json.dumps({k: v for k, v in meta.items() if k != "search"}),
    "bool score": lambda meta: json.dumps({**meta, "cheating_score": True}),
    "string score": lambda meta: json.dumps({**meta, "cheating_score": "190.0"}),
    "NaN score": lambda meta: json.dumps({**meta, "cheating_score": math.nan}),
    "Infinity score": lambda meta: json.dumps({**meta, "cheating_score": math.inf}),
    "zero score": lambda meta: json.dumps({**meta, "cheating_score": 0.0}),
    "digest not a string": lambda meta: json.dumps({**meta, "votes_sha256": 5}),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_votes_sidecar_is_a_data_error(tmp_path, capsys, case):
    write_vote_set(tmp_path, 12, seed=5)
    out = _ingest_vote_set(tmp_path)
    meta = out / "votes.csv.meta.json"
    meta.write_text(_MALFORMED[case](json.loads(meta.read_text(encoding="utf-8"))),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--ranking", str(tmp_path / "ranking.csv"),
                 "--votes", str(out / "votes.csv"), "--categories", str(out / "categories.json"),
                 "--out", str(tmp_path / "eval.json")]) == 2
    err = capsys.readouterr().err
    assert "votes.csv.meta.json" in err and "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()
