"""The three benchmark workloads, each putting a different layer on top.

Each workload ingests the generated files once (``ingest``), then runs one
*pass* of its pipeline from the ingested inputs to evaluated rankings
written out (``run_pass``). The first pass of a run is checked in depth
(``check_first``) with the results the tracer captured, which also returns
any per-layer values measured from those results; every later pass must
reproduce the first pass's rankings and scores exactly.

* ``graph_embed``: walks, skip-gram (hierarchical softmax), cosine kNN,
  both rankings, evaluation. Dominated by ``embeddings``.
* ``feature_grid``: the full ``run_grid`` menu over distribution features
  at ``workers=2``. Dominated by ``neighbors`` (with ``metrics``).
* ``neighbor_scoring``: the documented CLI stages on persisted artifacts,
  through ``catrank.cli.main``. Dominated by ``coherence``.

Functions are always called through their module (``embeddings.x``), so the
tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from catrank import cli, coherence, embeddings, evaluation, metrics, neighbors, report
from catrank import data_model
from catrank.data_model import FeatureMatrix

import checks
from tracing import Target

MIN_SIZE = 2
NAIVE_SAMPLE_ROWS = 6


def _lines(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def _precision(order_names, planted: set) -> float:
    """Share of planted categories among the top-P of a ranking, P = #planted."""
    top = order_names[: len(planted)]
    return sum(1 for c in top if c in planted) / len(planted)


def targets(line_counts: dict, window: int) -> list[Target]:
    """Every public function the traced run wraps, with its counters."""

    def lines(a, k, r):
        return {"lines": line_counts.get(a[0], 0)}

    def knn_count(a, k, r):
        n = a[0].n_entities
        return {"dist_evals": n * n, "kept": len(r.indices)}

    def calib_count(a, k, r):
        n = a[0].n_entities
        return {"pairs": n * (n - 1)}

    def score_count(a, k, r):
        scores = r[0]
        members = sum(s.n_members for s in scores)
        return {"memberships": members,
                "zero_neighbor_observers": members - sum(s.n_observers_used for s in scores)}

    def cheat_count(a, k, r):
        limit = a[1] if len(a) > 1 else k.get("exact_limit", evaluation.DEFAULT_EXACT_LIMIT)
        n_cats = len(evaluation.build_preference_graph(a[0]).categories)
        return {"exact": int(n_cats <= min(limit, evaluation._EXACT_HARD_CAP))}  # noqa: SLF001

    def manifest_count(a, k, r):
        paths = list(a[3]) + list(a[4])
        return {"bytes_hashed": sum(os.path.getsize(p) for p in paths)}

    return [
        Target("data_model", "load_graph", lines),
        Target("data_model", "load_categories", lines),
        Target("data_model", "load_votes", lines),
        Target("data_model", "load_features", lines),
        Target("data_model", "EntityGraph.load"),
        Target("data_model", "CategoryIndex.load"),
        Target("embeddings", "generate_walks",
               lambda a, k, r: {"steps": sum(len(w) - 1 for w in r)}),
        Target("embeddings", "train_skipgram",
               lambda a, k, r: {"pairs": embeddings._count_pairs(  # noqa: SLF001
                   a[0], k.get("window", window))}),
        Target("neighbors", "knn_by_count", knn_count, rss=True),
        Target("neighbors", "calibrate_thresholds", calib_count, rss=True),
        Target("neighbors", "neighbors_by_distance", knn_count),
        Target("neighbors", "slice_knn"),
        Target("neighbors", "filter_by_distance"),
        Target("neighbors", "NeighborSet.load",
               lambda a, k, r: {"entries": len(r.indices)}),
        Target("coherence", "score_categories", score_count),
        Target("coherence", "rank_categories"),
        Target("coherence", "run_grid"),
        Target("evaluation", "best_cheating_score", cheat_count),
        Target("evaluation", "evaluate", lambda a, k, r: {"answers": a[0].n_answers}),
        Target("report", "ranking_csv"),
        Target("report", "top_table"),
        Target("report", "top_csv"),
        Target("manifest", "write_manifest", manifest_count),
    ]


class Workload:
    name = ""
    workers = 1
    #: functions whose results the first pass keeps for the checks
    capture: frozenset = frozenset()
    window = 5

    def __init__(self, data_dir: str, work_dir: str, seed: int):
        self.data = data_dir
        self.work = work_dir
        self.seed = seed
        with open(os.path.join(data_dir, "truth.json"), encoding="utf-8") as f:
            self.truth = json.load(f)
        self.planted = set(self.truth["planted"])
        os.makedirs(work_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.data, name)

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)

    def input_lines(self) -> dict[str, int]:
        return {p: _lines(p) for p in self.inputs()}

    def inputs(self) -> list[str]:
        return [self.path("edges.tsv"), self.path("categories.tsv"), self.path("votes.csv")]

    def scorable(self) -> list[int]:
        return [c for c in range(self.cats.n_categories) if self.cats.size(c) >= MIN_SIZE]

    def _write_ranking(self, ledger, label: str, ranking):
        text = ledger.call("report", report.ranking_csv, ranking, self.cats)
        with open(self.out(f"ranking_{label}.csv"), "w", encoding="utf-8") as f:
            f.write(text)

    def _write_json(self, name: str, payload):
        with open(self.out(name), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


class GraphEmbed(Workload):
    """Planted-partition graph -> walks -> skip-gram -> cosine kNN -> rankings."""

    name = "graph_embed"
    workers = 1
    walks_per_vertex = 2
    walk_length = 10
    dim = 64
    k = 25
    headline = "surprise"
    capture = frozenset({"embeddings.generate_walks", "embeddings.train_skipgram",
                         "neighbors.knn_by_count"})

    def ingest(self):
        self.graph, _ = data_model.load_graph(self.path("edges.tsv"), symmetrize=True)
        self.cats, _ = data_model.load_categories(self.path("categories.tsv"), self.graph)
        self.votes = data_model.load_votes(self.path("votes.csv"), self.cats)

    def run_pass(self, ledger, tracer=None) -> dict:
        cfg = embeddings.WalkConfig(walks_per_vertex=self.walks_per_vertex,
                                    walk_length=self.walk_length, window=self.window,
                                    seed=self.seed)
        walks = ledger.call("embeddings", embeddings.generate_walks, self.graph, cfg,
                            workers=self.workers)
        model = ledger.call("embeddings", embeddings.train_skipgram, walks,
                            self.graph.n_entities, dim=self.dim, window=self.window,
                            seed=self.seed, method="hs", workers=self.workers)
        fm = FeatureMatrix(kind="point", rows=model.input_vectors)
        nbrs = ledger.call("neighbors", neighbors.knn_by_count, fm, "cosine", self.k,
                           workers=self.workers)
        outcome = {"orders": {}, "scores": {}}
        for criterion in data_model.CRITERIA:
            ranking = ledger.call("coherence", coherence.rank_categories, nbrs, self.cats,
                                  criterion, min_size=MIN_SIZE)
            rep = ledger.call("evaluation", evaluation.evaluate, self.votes,
                              ranking.ordered_categories)
            self._write_ranking(ledger, criterion, ranking)
            self._write_json(f"evaluation_{criterion}.json", rep.to_dict())
            outcome["orders"][criterion] = tuple(ranking.ordered_categories)
            outcome["scores"][criterion] = ranking.scores
            outcome[f"accuracy_{criterion}"] = rep.improved_accuracy
        order = outcome["orders"][self.headline]
        outcome["improved_accuracy"] = outcome[f"accuracy_{self.headline}"]
        outcome["planted_precision"] = _precision([self.cats.names[c] for c in order],
                                                  self.planted)
        return outcome

    def check_first(self, outcome, captured, ledger) -> dict:
        (_, _, walks), = captured["embeddings.generate_walks"]
        adj = [set(a.tolist()) for a in self.graph.adjacency]
        ledger.check("embeddings", all(b in adj[a] for w in walks
                                       for a, b in zip(w[:-1].tolist(), w[1:].tolist())),
                     "every walk step follows a graph edge")
        (_, _, model), = captured["embeddings.train_skipgram"]
        ledger.check("embeddings", np.all(np.isfinite(model.input_vectors)),
                     "trained vectors are finite")
        (args, _, nbrs), = captured["neighbors.knn_by_count"]
        fm = args[0]
        ledger.check("neighbors", checks.count_lists_ok(nbrs, self.k),
                     f"cosine k={self.k} lists: k entries sorted by (distance, index)")
        rng = np.random.default_rng([self.seed, 0x5A])
        sample = rng.choice(fm.n_entities, size=NAIVE_SAMPLE_ROWS, replace=False)
        ledger.check("neighbors", checks.naive_rows_ok(metrics.distance, "cosine", fm.rows,
                                                       nbrs, sample),
                     "sampled kNN rows match a naive scan")
        for criterion in data_model.CRITERIA:
            ledger.check("coherence", checks.is_permutation(outcome["orders"][criterion],
                                                            self.scorable()),
                         f"{criterion} ranking is a permutation of the scorable categories")
            ledger.check("coherence", checks.scores_in_range(outcome["scores"][criterion]),
                         "conductance in [0, 1] and log surprise <= 0")
            acc = outcome[f"accuracy_{criterion}"]
            ledger.check("evaluation", 0.0 < acc <= 1.0 + 1e-9,
                         f"{criterion} improved accuracy in (0, 1]")
            with open(self.out(f"ranking_{criterion}.csv"), encoding="utf-8") as f:
                names = [row["category"] for row in csv.DictReader(f)]
            ledger.check("report", names == [self.cats.names[c]
                                             for c in outcome["orders"][criterion]],
                         "written ranking CSV lists the ranking in order")
        return {"embeddings.sample_loss": self._sample_loss(model, walks)}

    def _sample_loss(self, model, walks) -> float:
        """Mean hierarchical-softmax loss over a fixed sample of corpus pairs."""
        rng = np.random.default_rng([self.seed, 0x105])
        total = 0.0
        m = 2000
        for _ in range(m):
            w = walks[int(rng.integers(len(walks)))]
            t = int(rng.integers(len(w)))
            lo, hi = max(0, t - self.window), min(len(w), t + self.window + 1)
            c = int(rng.integers(lo, hi - 1))
            c = c + 1 if c >= t else c
            total += embeddings.hs_pair_loss(model.input_vectors, model.node_vectors,
                                             model.tree, int(w[t]), int(w[c]))
        return total / m


class FeatureGrid(Workload):
    """The full run_grid menu over planted Dirichlet distribution features."""

    name = "feature_grid"
    workers = 2
    menu_metrics = ("l1", "l2", "cosine", "kl", "js")
    sizes = (5, 10, 25, 50)
    capture = frozenset({"neighbors.knn_by_count", "neighbors.slice_knn",
                         "neighbors.calibrate_thresholds",
                         "neighbors.neighbors_by_distance"})

    def inputs(self) -> list[str]:
        return super().inputs() + [self.path("features.txt")]

    def ingest(self):
        self.graph, _ = data_model.load_graph(self.path("edges.tsv"))
        self.cats, _ = data_model.load_categories(self.path("categories.tsv"), self.graph)
        self.votes = data_model.load_votes(self.path("votes.csv"), self.cats)
        self.features = data_model.load_features(self.path("features.txt"), "distribution",
                                                 self.graph)

    def run_pass(self, ledger, tracer=None) -> dict:
        menu = coherence.GridMenu(metrics=self.menu_metrics,
                                  strategies=("count", "distance"), sizes=self.sizes,
                                  criteria=data_model.CRITERIA, min_size=MIN_SIZE)
        result = ledger.call("coherence", coherence.run_grid, {"features": self.features},
                             self.cats, menu, votes=self.votes, workers=self.workers,
                             seed=self.seed)
        for key in sorted(result.rankings):
            self._write_ranking(ledger, key.replace("|", "_"), result.rankings[key])
        self._write_json("summary.json", {"rows": result.rows})
        best = max(result.rows, key=lambda r: r["improved_accuracy"])
        best_key = coherence._config_key(  # noqa: SLF001
            best["feature"], best["metric"], best["strategy"], best["size"], best["criterion"])
        order = result.rankings[best_key].ordered_categories
        return {
            "orders": {k: tuple(r.ordered_categories) for k, r in result.rankings.items()},
            "scores": {k: r.scores for k, r in result.rankings.items()},
            "cells": len(result.rows),
            "best_cell": best_key,
            "improved_accuracy": best["improved_accuracy"],
            "planted_precision": _precision([self.cats.names[c] for c in order],
                                            self.planted),
        }

    def check_first(self, outcome, captured, ledger) -> dict:
        expected_cells = (len(self.menu_metrics) * 2 * len(self.sizes)
                          * len(data_model.CRITERIA))
        ledger.check("coherence", outcome["cells"] == expected_cells,
                     f"grid evaluated {expected_cells} cells")
        ledger.check("evaluation", 0.0 < outcome["improved_accuracy"] <= 1.0 + 1e-9,
                     "best cell's improved accuracy in (0, 1]")
        scorable = self.scorable()
        for key, order in outcome["orders"].items():
            ledger.check("coherence", checks.is_permutation(order, scorable),
                         f"{key} ranking is a permutation of the scorable categories")
            ledger.check("coherence", checks.scores_in_range(outcome["scores"][key]),
                         f"{key}: conductance in [0, 1] and log surprise <= 0")
        rows = self.features.rows
        rng = np.random.default_rng([self.seed, 0x5A])
        for args, _, nbrs in captured["neighbors.knn_by_count"]:
            metric, k = args[1], args[2]
            ledger.check("neighbors", checks.count_lists_ok(nbrs, k),
                         f"{metric} k={k} lists: k entries sorted by (distance, index)")
            sample = rng.choice(len(rows), size=NAIVE_SAMPLE_ROWS, replace=False)
            ledger.check("neighbors", checks.naive_rows_ok(metrics.distance, metric, rows,
                                                           nbrs, sample),
                         f"{metric}: sampled kNN rows match a naive scan")
        for args, _, nbrs in captured["neighbors.slice_knn"]:
            ledger.check("neighbors", checks.count_lists_ok(nbrs, args[1]),
                         f"sliced k={args[1]} lists: k entries sorted")
        widest = {a[1]: r for a, _, r in captured["neighbors.neighbors_by_distance"]}
        for args, _, ds in captured["neighbors.calibrate_thresholds"]:
            metric, targets_ = args[1], list(args[2])
            ledger.check("neighbors", checks.calibration_ok(len(rows), targets_, ds,
                                                            widest[metric]),
                         f"{metric}: calibrated mean out-degree reaches each target")
        return {}


class NeighborScoring(Workload):
    """The CLI stages on a persisted neighbor list, in process."""

    name = "neighbor_scoring"
    workers = 1
    top = 100
    headline = "surprise"

    def native(self, name: str) -> str:
        return os.path.join(self.work, "native", name)

    def ingest(self):
        code = cli.main(["ingest", "--graph", self.path("edges.tsv"),
                         "--categories", self.path("categories.tsv"),
                         "--votes", self.path("votes.csv"),
                         "--out-dir", os.path.join(self.work, "native")])
        if code != 0:
            raise RuntimeError(f"catrank ingest exited {code}")

    def load_for_checks(self):
        self.cats = data_model.CategoryIndex.load(self.native("categories.json"))

    def stages(self) -> list[tuple[str, list[str]]]:
        nb = self.path("neighbors.tsv")
        cats = self.native("categories.json")
        votes = self.native("votes.csv")
        stages = [("coherence", ["coherence", "--neighbors", nb, "--categories", cats,
                                 "--min-size", str(MIN_SIZE), "--out", self.out("scores.csv")])]
        for criterion in data_model.CRITERIA:
            stages.append(("rank", ["rank", "--neighbors", nb, "--categories", cats,
                                    "--criterion", criterion, "--min-size", str(MIN_SIZE),
                                    "--out", self.out(f"ranking_{criterion}.csv")]))
        for criterion in data_model.CRITERIA:
            stages.append(("evaluate", ["evaluate", "--ranking",
                                        self.out(f"ranking_{criterion}.csv"),
                                        "--votes", votes, "--categories", cats,
                                        "--out", self.out(f"evaluation_{criterion}.json")]))
        stages.append(("report", ["report", "top", "--ranking",
                                  self.out(f"ranking_{self.headline}.csv"),
                                  "--categories", cats, "--top", str(self.top),
                                  "--out", self.out("top.csv")]))
        return stages

    def run_pass(self, ledger, tracer=None) -> dict:
        for stage, argv in self.stages():
            if tracer is None:
                code = ledger.call("cli", cli.main, argv)
            else:
                with tracer.span(f"cli.{stage}", "cli"):
                    code = ledger.call("cli", cli.main, argv)
            if code != 0:
                ledger.check("cli", False, f"catrank {stage} exited {code}")
        return self._read_outcome()

    def _read_csv(self, name: str) -> list[dict]:
        with open(self.out(name), encoding="utf-8", newline="") as f:
            return list(csv.DictReader(f))

    def _read_outcome(self) -> dict:
        outcome = {"orders": {}, "rows": {}}
        for criterion in data_model.CRITERIA:
            rows = self._read_csv(f"ranking_{criterion}.csv")
            outcome["rows"][criterion] = rows
            outcome["orders"][criterion] = tuple(r["category"] for r in rows)
            with open(self.out(f"evaluation_{criterion}.json"), encoding="utf-8") as f:
                outcome[f"evaluation_{criterion}"] = json.load(f)
        outcome["improved_accuracy"] = \
            outcome[f"evaluation_{self.headline}"]["improved_accuracy"]
        outcome["planted_precision"] = _precision(list(outcome["orders"][self.headline]),
                                                  self.planted)
        return outcome

    def check_first(self, outcome, captured, ledger) -> dict:
        scorable = [self.cats.names[c] for c in self.scorable()]
        scores = self._read_csv("scores.csv")
        ledger.check("coherence", checks.is_permutation([r["category"] for r in scores],
                                                        scorable),
                     "coherence scores cover exactly the scorable categories")
        for label, rows in [("scores", scores)] + list(outcome["rows"].items()):
            ok = all((r["conductance"] == "" or 0.0 <= float(r["conductance"]) <= 1.0)
                     and float(r["log_surprise"]) <= 0.0 for r in rows)
            ledger.check("coherence", ok, f"{label}: conductance in [0, 1], log surprise <= 0")
        for criterion, order in outcome["orders"].items():
            ledger.check("coherence", checks.is_permutation(order, scorable),
                         f"{criterion} ranking is a permutation of the scorable categories")
            rep = outcome[f"evaluation_{criterion}"]
            ledger.check("evaluation", 0.0 < rep["improved_accuracy"]
                         and 0.0 <= rep["rough_accuracy"] <= 1.0,
                         f"{criterion} evaluation accuracies in range")
        top = [r["category"] for r in self._read_csv("top.csv")]
        ledger.check("report", top == list(outcome["orders"][self.headline][: self.top]),
                     "report top lists the ranking's first rows")
        for _, argv in self.stages():
            out = argv[argv.index("--out") + 1]
            with open(out + ".manifest.json", encoding="utf-8") as f:
                recorded = json.load(f)["outputs"]
            ledger.check("manifest", recorded == {out: _sha256(out)},
                         f"{os.path.basename(out)} manifest digest matches the file")
        return {}


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return "sha256:" + hashlib.sha256(f.read()).hexdigest()


WORKLOADS = {w.name: w for w in (GraphEmbed, FeatureGrid, NeighborScoring)}
