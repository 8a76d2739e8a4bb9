"""Per-layer metrics of a traced run, named after the package modules.

``busy_s`` is span self time (the span's duration minus its wrapped
children's) per pass; rates divide a count computed by the benchmark from a
call's inputs and outputs by that call's self time. Layers a workload does
not run report 0. ``README.md`` maps each metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import statistics

LAYERS = ("data_model", "embeddings", "neighbors", "coherence", "evaluation",
          "report", "cli", "manifest")
CLI_STAGES = ("ingest", "coherence", "rank", "evaluate", "report")

# name -> (unit, better)
PER_LAYER = {
    "data_model.ingest.busy_s": ("s", "lower"),
    "data_model.ingest.lines_per_s": ("1/s", "higher"),
    "embeddings.generate_walks.busy_s": ("s", "lower"),
    "embeddings.generate_walks.steps_per_s": ("1/s", "higher"),
    "embeddings.train_skipgram.busy_s": ("s", "lower"),
    "embeddings.train_skipgram.pairs_per_s": ("1/s", "higher"),
    "embeddings.train_skipgram.pairs": ("count", "higher"),
    "embeddings.sample_loss": ("nats", "lower"),
    "neighbors.knn_by_count.busy_s": ("s", "lower"),
    "neighbors.knn_by_count.dist_evals_per_s": ("1/s", "higher"),
    "neighbors.knn_by_count.rss_mb": ("MB", "lower"),
    "neighbors.calibrate_thresholds.busy_s": ("s", "lower"),
    "neighbors.calibrate_thresholds.pairs_per_s": ("1/s", "higher"),
    "neighbors.calibrate_thresholds.rss_mb": ("MB", "lower"),
    "neighbors.neighbors_by_distance.busy_s": ("s", "lower"),
    "neighbors.slice_filter.busy_s": ("s", "lower"),
    "neighbors.kept_ratio": ("ratio", "higher"),
    "neighbors.load.busy_s": ("s", "lower"),
    "neighbors.load.entries_per_s": ("1/s", "higher"),
    "coherence.score_categories.busy_s": ("s", "lower"),
    "coherence.score_categories.memberships_per_s": ("1/s", "higher"),
    "coherence.score_categories.calls": ("count", "lower"),
    "coherence.rank_categories.busy_s": ("s", "lower"),
    "coherence.run_grid.busy_s": ("s", "lower"),
    "coherence.zero_neighbor_observers": ("count", "lower"),
    "evaluation.best_cheating_score.busy_s": ("s", "lower"),
    "evaluation.cheat_exact": ("ratio", "higher"),
    "evaluation.evaluate.busy_s": ("s", "lower"),
    "evaluation.evaluate.answers_per_s": ("1/s", "higher"),
    "report.ranking_csv.busy_s": ("s", "lower"),
    "manifest.write_manifest.busy_s": ("s", "lower"),
    "manifest.bytes_hashed": ("bytes", "lower"),
    **{f"cli.{stage}.busy_s": ("s", "lower") for stage in CLI_STAGES},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

_INGEST = ("data_model.load_graph", "data_model.load_categories",
           "data_model.load_votes", "data_model.load_features")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(ingest, traced, passes: int, errors: dict, extra: dict,
              traced_walls, untraced_walls) -> dict[str, float]:
    """Per-layer values from the ingest tracer and the traced passes' tracer."""
    busy = traced.busy_by("key")
    layer_self = traced.busy_by("layer")
    counts = traced.counts
    calls = traced.calls_by_key()
    ingest_busy = ingest.busy_by("key")

    def pp(x: float) -> float:
        return x / passes

    def b(key: str) -> float:
        return busy.get(key, 0.0)

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    ingest_s = sum(ingest_busy.get(k, 0.0) for k in _INGEST)
    ingest_lines = sum(ingest.counts.get(f"{k}.lines", 0.0) for k in _INGEST)
    evals = (c("neighbors.knn_by_count.dist_evals") + c("neighbors.neighbors_by_distance.dist_evals")
             + c("neighbors.calibrate_thresholds.pairs"))
    kept = c("neighbors.knn_by_count.kept") + c("neighbors.neighbors_by_distance.kept")
    cheat_calls = calls.get("evaluation.best_cheating_score", 0)
    out = {
        "data_model.ingest.busy_s": ingest_s,
        "data_model.ingest.lines_per_s": _rate(ingest_lines, ingest_s),
        "embeddings.generate_walks.busy_s": pp(b("embeddings.generate_walks")),
        "embeddings.generate_walks.steps_per_s": _rate(c("embeddings.generate_walks.steps"),
                                                       b("embeddings.generate_walks")),
        "embeddings.train_skipgram.busy_s": pp(b("embeddings.train_skipgram")),
        "embeddings.train_skipgram.pairs_per_s": _rate(c("embeddings.train_skipgram.pairs"),
                                                       b("embeddings.train_skipgram")),
        "embeddings.train_skipgram.pairs": pp(c("embeddings.train_skipgram.pairs")),
        "embeddings.sample_loss": extra.get("embeddings.sample_loss", 0.0),
        "neighbors.knn_by_count.busy_s": pp(b("neighbors.knn_by_count")),
        "neighbors.knn_by_count.dist_evals_per_s": _rate(c("neighbors.knn_by_count.dist_evals"),
                                                         b("neighbors.knn_by_count")),
        "neighbors.knn_by_count.rss_mb": traced.rss_peak_mb.get("neighbors.knn_by_count", 0.0),
        "neighbors.calibrate_thresholds.busy_s": pp(b("neighbors.calibrate_thresholds")),
        "neighbors.calibrate_thresholds.pairs_per_s": _rate(
            c("neighbors.calibrate_thresholds.pairs"), b("neighbors.calibrate_thresholds")),
        "neighbors.calibrate_thresholds.rss_mb":
            traced.rss_peak_mb.get("neighbors.calibrate_thresholds", 0.0),
        "neighbors.neighbors_by_distance.busy_s": pp(b("neighbors.neighbors_by_distance")),
        "neighbors.slice_filter.busy_s": pp(b("neighbors.slice_knn")
                                            + b("neighbors.filter_by_distance")),
        "neighbors.kept_ratio": kept / evals if evals else 0.0,
        "neighbors.load.busy_s": pp(b("neighbors.NeighborSet.load")),
        "neighbors.load.entries_per_s": _rate(c("neighbors.NeighborSet.load.entries"),
                                              b("neighbors.NeighborSet.load")),
        "coherence.score_categories.busy_s": pp(b("coherence.score_categories")),
        "coherence.score_categories.memberships_per_s": _rate(
            c("coherence.score_categories.memberships"), b("coherence.score_categories")),
        "coherence.score_categories.calls": pp(calls.get("coherence.score_categories", 0)),
        "coherence.rank_categories.busy_s": pp(b("coherence.rank_categories")),
        "coherence.run_grid.busy_s": pp(b("coherence.run_grid")),
        "coherence.zero_neighbor_observers":
            pp(c("coherence.score_categories.zero_neighbor_observers")),
        "evaluation.best_cheating_score.busy_s": pp(b("evaluation.best_cheating_score")),
        "evaluation.cheat_exact": (c("evaluation.best_cheating_score.exact") / cheat_calls
                                   if cheat_calls else 0.0),
        "evaluation.evaluate.busy_s": pp(b("evaluation.evaluate")),
        "evaluation.evaluate.answers_per_s": _rate(c("evaluation.evaluate.answers"),
                                                   b("evaluation.evaluate")),
        "report.ranking_csv.busy_s": pp(b("report.ranking_csv")),
        "manifest.write_manifest.busy_s": pp(b("manifest.write_manifest")),
        "manifest.bytes_hashed": pp(c("manifest.write_manifest.bytes_hashed")),
        "cli.ingest.busy_s": ingest_busy.get("cli.ingest", 0.0),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.spans": pp(len(traced.spans)),
    }
    for stage in CLI_STAGES[1:]:
        out[f"cli.{stage}.busy_s"] = pp(b(f"cli.{stage}"))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = pp(layer_self.get(layer, 0.0))
        out[f"{layer}.errors"] = float(errors.get(layer, 0))
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer names out of step: {sorted(set(out) ^ set(PER_LAYER))}")
    return out
