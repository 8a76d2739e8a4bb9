"""Tests of the benchmark's generator, tracer and workloads at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks``.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import layers
import planted
import run
import worker
from catrank import data_model

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _files(d):
    return sorted(os.listdir(d))


@pytest.mark.parametrize("workload", planted.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    planted.generate(workload, 3, str(a), scale="tiny")
    planted.generate(workload, 3, str(b), scale="tiny")
    assert _files(a) == _files(b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, _files(a), shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("workload", planted.WORKLOADS)
def test_different_seed_gives_different_files(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    planted.generate(workload, 3, str(a), scale="tiny")
    planted.generate(workload, 4, str(b), scale="tiny")
    main = {"graph_embed": "edges.tsv", "feature_grid": "features.txt",
            "neighbor_scoring": "neighbors.tsv"}[workload]
    for name in (main, "categories.tsv", "votes.csv", "truth.json"):
        assert (a / name).read_bytes() != (b / name).read_bytes(), name


@pytest.mark.parametrize("workload", planted.WORKLOADS)
def test_files_load_and_truth_names_planted_categories(workload, tmp_path):
    truth = planted.generate(workload, 5, str(tmp_path), scale="tiny")
    graph, _ = data_model.load_graph(str(tmp_path / "edges.tsv"))
    cats, report = data_model.load_categories(str(tmp_path / "categories.tsv"), graph)
    votes = data_model.load_votes(str(tmp_path / "votes.csv"), cats)
    assert graph.n_entities == truth["n_entities"]
    assert report.n_skipped_unknown_entities == 0
    assert cats.n_categories == truth["n_categories"]
    assert votes.n_answers == truth["answers"]
    assert set(truth["planted"]) <= set(cats.names)
    assert len(truth["planted"]) == truth["n_categories"] // 2
    if workload == "feature_grid":
        fm = data_model.load_features(str(tmp_path / "features.txt"), "distribution", graph)
        assert fm.dim == truth["sizes"]["dim"]


def test_neighbor_file_lines_up_with_graph_order(tmp_path):
    from catrank.neighbors import NeighborSet

    truth = planted.generate("neighbor_scoring", 2, str(tmp_path), scale="tiny")
    graph, _ = data_model.load_graph(str(tmp_path / "edges.tsv"))
    assert graph.ids == [f"v{i:06d}" for i in range(truth["n_entities"])]
    nbrs = NeighborSet.load(str(tmp_path / "neighbors.tsv"))
    deg = nbrs.out_degrees()
    assert nbrs.n == graph.n_entities
    assert int((deg == 0).sum()) == truth["isolated"]
    assert set(deg.tolist()) == {0, truth["sizes"]["k"]}
    assert len(nbrs.indices) == truth["neighbor_entries"]


@pytest.mark.parametrize("workload", planted.WORKLOADS)
def test_tiny_workload_runs_clean_with_tracing(workload, tmp_path):
    data, work = str(tmp_path / "data"), str(tmp_path / "work")
    planted.generate(workload, 1, data, scale="tiny")
    args = Namespace(workload=workload, seed=1, data=data, work=work, seconds=0.0,
                     trace=1, spans=str(tmp_path / "spans.json"))
    res = worker.run(args)
    assert res["failed"] == 0, res["messages"]
    assert res["attempted"] > 0
    assert len(res["walls"]) == worker.MIN_PASSES
    assert 0.0 < res["improved_accuracy"] <= 1.0 + 1e-9
    assert 0.0 <= res["planted_precision"] <= 1.0
    assert set(res["per_layer"]) == set(layers.PER_LAYER)
    per_layer = res["per_layer"]
    top = {"graph_embed": "embeddings", "feature_grid": "neighbors",
           "neighbor_scoring": "coherence"}[workload]
    assert per_layer[f"{top}.self_s"] > 0.0
    with open(args.spans, encoding="utf-8") as f:
        spans = json.load(f)
    assert spans["passes"]


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(planted.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "graph_embed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
