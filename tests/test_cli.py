import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import catrank
from catrank.cli import main
from catrank.data_model import FeatureMatrix, read_features, save_features_text
from catrank.neighbors import (
    NeighborSet,
    calibrate_threshold,
    knn_by_count,
    neighbors_by_distance,
)

from conftest import random_simplex


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
    for name in ("graph.json", "categories.json", "votes.csv", "manifest.json"):
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
    meta = json.loads((tmp / "features.tsv.model.json").read_text())
    assert meta["dim"] == 8
    assert meta["corpus_walks"] == 24


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
    meta = json.loads((tmp / "nb.tsv.meta.json").read_text())
    assert meta["metric"] == "cosine"
    assert meta["k"] == 3

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
    meta = json.loads((tmp / "nb_dist.tsv.meta.json").read_text())
    assert meta["strategy"] == "distance"
    assert meta["target"] == 3.0


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
    fm, _ = read_features(features)
    out = str(tmp_path / "nb.tsv")
    with np.errstate(over="ignore", invalid="ignore"):
        for flag, value, nbrs in (
                ("--k", "4", knn_by_count(fm, metric, 4)),
                ("--avg-target", "2.5", neighbors_by_distance(
                    fm, metric, calibrate_threshold(fm, metric, 2.5))),
                ("--radius", "inf", neighbors_by_distance(fm, metric, math.inf))):
            assert main(["knn", "--features", features, "--metric", metric, flag, value,
                         "--workers", "1", "--out", out]) == 0
            back = NeighborSet.load(out)
            for a, b in ((back.indptr, nbrs.indptr), (back.indices, nbrs.indices),
                         (back.distances, nbrs.distances)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), flag
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


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "catrank.conf"
    cfg.write_text("no-such-option = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "walk", "--graph", "g", "--out", "w"])
    assert exc.value.code == 1


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CATRANK_WORKERS", "3")
    from catrank.cli import build_parser

    args = build_parser().parse_args(["walk", "--graph", "g", "--out", "w"])
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


def _bad_config(tmp, out):
    cfg = tmp / "catrank.conf"
    cfg.write_text("seed 9\n", encoding="utf-8")
    return ["--config", str(cfg), "walk", "--graph", str(out / "graph.json"),
            "--out", str(tmp / "walks.txt")]


def _kl_on_points(tmp, out):
    return ["knn", "--features", str(write_points(tmp / "f.tsv")), "--metric", "kl",
            "--k", "2", "--out", str(tmp / "nb.tsv")]


def _universe_mismatch(tmp, out):
    return ["coherence", "--neighbors", str(write_clique_neighbors(tmp / "nb.tsv", n=6)),
            "--categories", str(out / "categories.json"), "--out", str(tmp / "s.csv")]


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


@pytest.mark.parametrize("argv", [_bad_config, _kl_on_points, _universe_mismatch,
                                  _category_only_ranking, _zero_count_size,
                                  _stats_universe_mismatch, _stats_graph_mismatch,
                                  _empty_features])
def test_rejected_input_exits_2_without_traceback(pipeline, capsys, argv):
    tmp, out = pipeline
    capsys.readouterr()
    assert main(argv(tmp, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("catrank: data error: ")
    assert "Traceback" not in err


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
