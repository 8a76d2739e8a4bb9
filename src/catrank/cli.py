"""Subcommand front-end wiring the pipeline stages together.

Stages exchange persisted artifacts (no hidden state), so any stage can be
rerun from the previous stage's outputs. Every run writes a manifest
recording resolved parameters and input/output digests. Exit status: 0 on
success, 1 on usage errors, 2 on data errors.

A ``key = value`` config file supplies defaults for any long flag; explicit
flags win. ``CATRANK_WORKERS`` sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import coherence, embeddings, evaluation, neighbors, report
from .data_model import (
    METRICS,
    CategoryIndex,
    EntityGraph,
    FeatureMatrix,
    load_categories,
    load_features,
    load_graph,
    load_votes,
    open_text,
    read_features,
    save_features_binary,
    save_features_text,
    save_votes,
)
from .errors import DataError
from .manifest import write_manifest


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_config(path: str) -> dict:
    values = {}
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _workers(text: str) -> int:
    """A worker count from ``--workers`` or ``CATRANK_WORKERS``, which argparse
    converts when the flag is absent: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1 (the flag or CATRANK_WORKERS), got {text!r}")
    return value


_WORKERS_HELP = ("threads for neighbor search and threshold calibration (knn, grid, "
                "report quantiles); other stages run in one thread")


def build_parser() -> _Parser:
    parser = _Parser(prog="catrank", description=__doc__)
    parser.add_argument("--config", help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workers", type=_workers,
                       default=os.environ.get("CATRANK_WORKERS") or "1", help=_WORKERS_HELP)
        return p

    p = add("ingest", "load external files into native artifacts")
    p.add_argument("--graph", required=True, help="TSV edge list")
    p.add_argument("--symmetrize", action="store_true", help="add reverse edges")
    p.add_argument("--categories", help="TSV entity/category assignments")
    p.add_argument("--features", help="feature file (text, or binary with sidecar)")
    p.add_argument("--feature-kind", choices=["point", "distribution"], default="point")
    p.add_argument("--votes", help="vote CSV")
    p.add_argument("--out-dir", required=True)

    p = add("walk", "generate the random-walk corpus")
    p.add_argument("--graph", required=True, help="native graph JSON")
    p.add_argument("--walks-per-vertex", type=int, default=10)
    p.add_argument("--walk-length", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("embed", "train skip-gram embeddings")
    p.add_argument("--graph", required=True, help="native graph JSON")
    p.add_argument("--walks", help="reuse a persisted walk corpus")
    p.add_argument("--walks-per-vertex", type=int, default=10)
    p.add_argument("--walk-length", type=int, default=40)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial-lr", type=float, default=0.025)
    p.add_argument("--final-lr", type=float, default=0.0001)
    p.add_argument("--method", choices=["hs", "negative"], default="hs")
    p.add_argument("--negative", type=int, default=5)
    p.add_argument("--binary", action="store_true", help="write float32 binary features")
    p.add_argument("--out", required=True)

    p = add("knn", "build the close-neighbor relation")
    p.add_argument("--features", required=True)
    p.add_argument("--metric", choices=METRICS, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="count strategy: exact k nearest")
    group.add_argument("--avg-target", type=float,
                       help="distance strategy: calibrate threshold to this average")
    group.add_argument("--radius", type=float, help="distance strategy: explicit threshold")
    p.add_argument("--exact-limit", type=int, default=neighbors.DEFAULT_EXACT_LIMIT)
    p.add_argument("--sample-pairs", type=int, default=neighbors.DEFAULT_SAMPLE_PAIRS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("coherence", "score all categories (both criteria)")
    p.add_argument("--neighbors", required=True)
    p.add_argument("--categories", required=True, help="native categories JSON")
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--adjusted-p", action="store_true")
    p.add_argument("--out", required=True)

    p = add("rank", "order categories by a criterion")
    p.add_argument("--neighbors", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--criterion", choices=["conductance", "surprise"], required=True)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--adjusted-p", action="store_true")
    p.add_argument("--out", required=True)

    p = add("grid", "run the full menu of configurations")
    p.add_argument("--features", required=True)
    p.add_argument("--features-name", default="features")
    p.add_argument("--categories", required=True)
    p.add_argument("--votes")
    p.add_argument("--metrics", default="l1,l2,cosine,kl,js")
    p.add_argument("--strategies", default="count,distance")
    p.add_argument("--sizes", default="5,10,25,50,100")
    p.add_argument("--criteria", default="conductance,surprise")
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--exact-limit", type=int, default=neighbors.DEFAULT_EXACT_LIMIT)
    p.add_argument("--sample-pairs", type=int, default=neighbors.DEFAULT_SAMPLE_PAIRS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)

    p = add("evaluate", "score a ranking against votes")
    p.add_argument("--ranking", required=True, help="ranking CSV")
    p.add_argument("--votes", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--exact-limit", type=int, default=evaluation.DEFAULT_EXACT_LIMIT)
    p.add_argument("--out", required=True)

    p = add("report", "descriptive statistics and tables")
    rsub = p.add_subparsers(dest="report_command", required=True)
    rp = rsub.add_parser("stats")
    rp.add_argument("--categories", required=True)
    rp.add_argument("--graph", help="checked against --categories; needed to resolve "
                    "--subset entity ids")
    rp.add_argument("--subset", help="file of entity ids, one per line")
    rp.add_argument("--bucket-width", type=int, default=1)
    rp.add_argument("--out", required=True)
    rp = rsub.add_parser("quantiles")
    rp.add_argument("--features", required=True)
    rp.add_argument("--metric", choices=METRICS, required=True)
    rp.add_argument("--targets", default="5,10,25,50,100")
    rp.add_argument("--exact-limit", type=int, default=neighbors.DEFAULT_EXACT_LIMIT)
    rp.add_argument("--sample-pairs", type=int, default=neighbors.DEFAULT_SAMPLE_PAIRS)
    rp.add_argument("--seed", type=int, default=0)
    # SUPPRESS keeps a parent-level --workers value from being clobbered
    rp.add_argument("--workers", type=_workers, default=argparse.SUPPRESS, help=_WORKERS_HELP)
    rp.add_argument("--out", required=True)
    rp = rsub.add_parser("top")
    rp.add_argument("--ranking", required=True)
    rp.add_argument("--categories", required=True)
    rp.add_argument("--top", type=int, default=100)
    rp.add_argument("--out", required=True, help="CSV output path")
    rp.add_argument("--text", help="aligned text output path")
    return parser


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# stage runners: each returns (parameters, input paths, output paths)


def _run_ingest(args):
    os.makedirs(args.out_dir, exist_ok=True)
    inputs = [args.graph]
    outputs = []
    graph, greport = load_graph(args.graph, symmetrize=args.symmetrize)
    gpath = os.path.join(args.out_dir, "graph.json")
    graph.save(gpath)
    outputs.append(gpath)
    print(f"graph: {greport.n_entities} entities, {greport.n_edges} edges, "
          f"{greport.n_self_loops_dropped} self-loops dropped, "
          f"{greport.n_duplicate_edges_dropped} duplicate edges dropped")
    if args.categories:
        inputs.append(args.categories)
        cats, creport = load_categories(args.categories, graph)
        cpath = os.path.join(args.out_dir, "categories.json")
        cats.save(cpath)
        outputs.append(cpath)
        print(f"categories: {cats.n_categories} categories, "
              f"{creport.n_assignments} assignments, "
              f"{creport.n_skipped_unknown_entities} skipped unknown entities")
    if args.features:
        inputs.append(args.features)
        fm = load_features(args.features, args.feature_kind, graph)
        fpath = os.path.join(args.out_dir, "features.tsv")
        save_features_text(fm, graph.ids, fpath)
        outputs.append(fpath)
        print(f"features: {fm.n_entities} rows, dim {fm.dim}, kind {fm.kind}")
    if args.votes:
        if not args.categories:
            raise DataError("--votes requires --categories")
        inputs.append(args.votes)
        votes = load_votes(args.votes, cats)
        vpath = os.path.join(args.out_dir, "votes.csv")
        save_votes(votes, cats, vpath)
        outputs.append(vpath)
        print(f"votes: {len(votes.questions)} questions, {votes.n_answers} answers")
    params = {"symmetrize": args.symmetrize, "feature_kind": args.feature_kind}
    return params, inputs, outputs


def _run_walk(args):
    graph = EntityGraph.load(args.graph)
    cfg = embeddings.WalkConfig(
        walks_per_vertex=args.walks_per_vertex,
        walk_length=args.walk_length,
        seed=args.seed,
    )
    walks = embeddings.generate_walks(graph, cfg)
    embeddings.save_walks(walks, graph.ids, args.out)
    print(f"walks: {len(walks)} walks over {graph.n_entities} entities")
    params = {"walks_per_vertex": cfg.walks_per_vertex, "walk_length": cfg.walk_length}
    return params, [args.graph], [args.out]


def _run_embed(args):
    graph = EntityGraph.load(args.graph)
    inputs = [args.graph]
    cfg = embeddings.WalkConfig(
        walks_per_vertex=args.walks_per_vertex,
        walk_length=args.walk_length,
        window=args.window,
        seed=args.seed,
    )
    if args.walks:
        inputs.append(args.walks)
        walks = embeddings.load_walks(args.walks, graph)
    else:
        walks = embeddings.generate_walks(graph, cfg)
    model = embeddings.train_skipgram(
        walks, graph.n_entities, dim=args.dim, window=args.window, seed=args.seed,
        initial_lr=args.initial_lr, final_lr=args.final_lr, method=args.method,
        negative=args.negative,
    )
    fm = FeatureMatrix(kind="point", rows=model.input_vectors)
    outputs = [args.out]
    if args.binary:
        save_features_binary(fm, graph.ids, args.out)
        outputs.append(args.out + ".json")
    else:
        save_features_text(fm, graph.ids, args.out)
    meta = {
        "dim": args.dim, "window": args.window, "seed": args.seed,
        "walks_per_vertex": cfg.walks_per_vertex, "walk_length": cfg.walk_length,
        "initial_lr": args.initial_lr, "final_lr": args.final_lr,
        "method": args.method, "negative": args.negative,
        "corpus_walks": len(walks),
        "corpus_tokens": int(sum(len(w) for w in walks)),
    }
    meta_path = args.out + ".model.json"
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    outputs.append(meta_path)
    print(f"embedding: {fm.n_entities} x {fm.dim} ({args.method})")
    return meta, inputs, outputs


def _run_knn(args):
    fm, _ = read_features(args.features)
    params = {"metric": args.metric, "workers": args.workers}
    if args.k is not None:
        nbrs = neighbors.knn_by_count(fm, args.metric, args.k, workers=args.workers)
        params["k"] = args.k
    elif args.avg_target is not None:
        d = neighbors.calibrate_threshold(
            fm, args.metric, args.avg_target, exact_limit=args.exact_limit,
            sample_pairs=args.sample_pairs, seed=args.seed, workers=args.workers)
        nbrs = neighbors.neighbors_by_distance(fm, args.metric, d, workers=args.workers)
        nbrs.meta["target"] = args.avg_target
        nbrs.meta["exact_limit"] = args.exact_limit
        nbrs.meta["sample_pairs"] = args.sample_pairs
        params.update(avg_target=args.avg_target, threshold=d,
                      exact_limit=args.exact_limit, sample_pairs=args.sample_pairs)
        print(f"calibrated threshold: {d!r}")
    else:
        nbrs = neighbors.neighbors_by_distance(fm, args.metric, args.radius,
                                               workers=args.workers)
        params["radius"] = args.radius
    nbrs.save(args.out)
    degs = nbrs.out_degrees()
    print(f"neighbors: {nbrs.n} entities, mean out-degree {degs.mean():.3f}")
    return params, [args.features], [args.out, args.out + ".meta.json"]


def _run_coherence(args):
    nbrs = neighbors.NeighborSet.load(args.neighbors)
    cats = CategoryIndex.load(args.categories)
    scores, skipped = coherence.score_categories(
        nbrs, cats, min_size=args.min_size, adjusted_p=args.adjusted_p)
    if not scores:
        raise DataError("no scorable category (all below min-size)")
    _write(args.out, report.scores_csv(scores, cats))
    print(f"coherence: scored {len(scores)} categories, skipped {skipped}")
    params = {"min_size": args.min_size, "adjusted_p": args.adjusted_p}
    return params, [args.neighbors, args.categories], [args.out]


def _run_rank(args):
    nbrs = neighbors.NeighborSet.load(args.neighbors)
    cats = CategoryIndex.load(args.categories)
    ranking = coherence.rank_categories(
        nbrs, cats, args.criterion, min_size=args.min_size, adjusted_p=args.adjusted_p)
    _write(args.out, report.ranking_csv(ranking, cats))
    print(f"ranking: {len(ranking)} categories by {args.criterion}, "
          f"skipped {ranking.n_skipped}")
    params = {"criterion": args.criterion, "min_size": args.min_size,
              "adjusted_p": args.adjusted_p}
    return params, [args.neighbors, args.categories], [args.out]


def _run_grid(args):
    os.makedirs(args.out_dir, exist_ok=True)
    fm, _ = read_features(args.features)
    cats = CategoryIndex.load(args.categories)
    inputs = [args.features, args.categories]
    votes = None
    if args.votes:
        inputs.append(args.votes)
        votes = load_votes(args.votes, cats)
    menu = coherence.GridMenu(
        metrics=tuple(_str_list(args.metrics)),
        strategies=tuple(_str_list(args.strategies)),
        sizes=tuple(_float_list(args.sizes)),
        criteria=tuple(_str_list(args.criteria)),
        min_size=args.min_size,
    )
    result = coherence.run_grid(
        {args.features_name: fm}, cats, menu, votes=votes, workers=args.workers,
        seed=args.seed, exact_limit=args.exact_limit, sample_pairs=args.sample_pairs)
    outputs = []
    rank_dir = os.path.join(args.out_dir, "rankings")
    os.makedirs(rank_dir, exist_ok=True)
    for key in sorted(result.rankings):
        path = os.path.join(rank_dir, key.replace("|", "_") + ".csv")
        _write(path, report.ranking_csv(result.rankings[key], cats))
        outputs.append(path)
    summary_csv = os.path.join(args.out_dir, "summary.csv")
    _write(summary_csv, report.summary_csv(result.rows))
    outputs.append(summary_csv)
    summary_json = os.path.join(args.out_dir, "summary.json")
    with open(summary_json, "w", encoding="utf-8") as f:
        json.dump({"rows": result.rows, "skipped_configs": result.skipped_configs},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    outputs.append(summary_json)
    print(f"grid: {len(result.rows)} configurations, "
          f"{len(result.skipped_configs)} skipped")
    params = {"metrics": args.metrics, "strategies": args.strategies,
              "sizes": args.sizes, "criteria": args.criteria,
              "min_size": args.min_size, "workers": args.workers}
    return params, inputs, outputs


def _run_evaluate(args):
    cats = CategoryIndex.load(args.categories)
    votes = load_votes(args.votes, cats)
    order = report.read_ranking_csv(args.ranking, cats).ordered_categories
    rep = evaluation.evaluate(votes, order, exact_limit=args.exact_limit)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(rep.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"rough accuracy:    {rep.rough_accuracy:.4f}")
    print(f"improved accuracy: {rep.improved_accuracy:.4f} "
          f"(cheating score {rep.cheating_score:g} of {rep.n_answers})")
    for i, frac in enumerate(rep.agreement_histogram, 1):
        print(f"agreement {i}: {frac:.4f}")
    params = {"exact_limit": args.exact_limit}
    return params, [args.ranking, args.votes, args.categories], [args.out]


def _run_report(args):
    if args.report_command == "stats":
        cats = CategoryIndex.load(args.categories)
        inputs = [args.categories]
        subset = None
        if args.subset and not args.graph:
            raise DataError("--subset requires --graph to resolve entity ids")
        if args.graph:
            graph = EntityGraph.load(args.graph)
            if graph.n_entities != cats.n_entities:
                raise DataError(f"{args.graph} has {graph.n_entities} entities, but "
                                f"{args.categories} has n_entities = {cats.n_entities}")
            inputs.append(args.graph)
        if args.subset:
            inputs.append(args.subset)
            subset = []
            with open_text(args.subset) as f:
                for lineno, raw in enumerate(f, 1):
                    name = raw.strip()
                    if not name:
                        continue
                    e = graph.index.get(name)
                    if e is None:
                        raise DataError(f"{args.subset}:{lineno}: unknown entity {name!r}")
                    subset.append(e)
        stats = report.category_stats(cats, subset=subset, bucket_width=args.bucket_width)
        _write(args.out, report.stats_text(stats))
        return {"bucket_width": args.bucket_width}, inputs, [args.out]
    if args.report_command == "quantiles":
        fm, _ = read_features(args.features)
        rows = report.distance_quantiles(
            fm, args.metric, _float_list(args.targets), exact_limit=args.exact_limit,
            sample_pairs=args.sample_pairs, seed=args.seed, workers=args.workers)
        _write(args.out, report.quantiles_csv(rows))
        params = {"metric": args.metric, "targets": args.targets}
        return params, [args.features], [args.out]
    # top
    cats = CategoryIndex.load(args.categories)
    ranking = report.read_ranking_csv(args.ranking, cats)
    table = report.top_table(ranking, args.top, cats)
    _write(args.out, report.top_csv(table))
    outputs = [args.out]
    if args.text:
        _write(args.text, report.top_text(table))
        outputs.append(args.text)
    if table.truncated_note:
        print(table.truncated_note)
    return {"top": args.top}, [args.ranking, args.categories], outputs


_RUNNERS = {
    "ingest": _run_ingest,
    "walk": _run_walk,
    "embed": _run_embed,
    "knn": _run_knn,
    "coherence": _run_coherence,
    "rank": _run_rank,
    "grid": _run_grid,
    "evaluate": _run_evaluate,
    "report": _run_report,
}


def _manifest_path(args) -> str:
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        return os.path.join(out_dir, "manifest.json")
    return args.out + ".manifest.json"


def _iter_parsers(parser):
    yield parser
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            for sub in action.choices.values():
                yield from _iter_parsers(sub)


def _apply_config(parser, config):
    known = set()
    for sub in _iter_parsers(parser):
        defaults = {}
        for action in sub._actions:  # noqa: SLF001
            if action.dest in ("help", "command", "report_command"):
                continue
            known.add(action.dest)
            if action.dest in config:
                raw = config[action.dest]
                if action.type is not None:
                    try:
                        raw = action.type(raw)
                    except argparse.ArgumentTypeError as e:
                        raise ValueError(f"config {action.dest}: {e}") from None
                elif isinstance(action.const, bool) or isinstance(action.default, bool):
                    raw = raw.lower() in ("1", "true", "yes", "on")
                defaults[action.dest] = raw
        sub.set_defaults(**defaults)
    unknown = set(config) - known
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 == len(argv):
                parser.error("--config needs a path")
            try:
                config = _read_config(argv[at + 1])
            except OSError as e:
                print(f"catrank: cannot read config: {e}", file=sys.stderr)
                return 1
            _apply_config(parser, config)
        args = parser.parse_args(argv)
        started = time.monotonic()
        params, inputs, outputs = _RUNNERS[args.command](args)
    except (DataError, ValueError) as e:
        print(f"catrank: data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"catrank: {e}", file=sys.stderr)
        return 2
    wall = time.monotonic() - started
    seed = getattr(args, "seed", None)
    write_manifest(_manifest_path(args), args.command, params, inputs, outputs,
                   seed, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
