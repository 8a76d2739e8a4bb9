"""Subcommand front-end wiring the pipeline stages together.

Stages exchange persisted artifacts (no hidden state), so any stage can be
rerun from the previous stage's outputs. Every run writes a manifest
recording its parameters, seed and input/output digests. Exit status: 0 on
success, 1 on usage errors, 2 on data errors.

A ``key = value`` config file, given as ``--config PATH`` or
``--config=PATH`` before the subcommand, supplies defaults for any long
flag; explicit flags win. ``--workers`` exists only on the stages that run
neighbor search or threshold calibration (knn, grid and report quantiles),
and ``CATRANK_WORKERS`` sets its default. No output depends on it: neighbor
search splits its work the same way at any worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import coherence, embeddings, evaluation, neighbors, report
from .data_model import (
    CRITERIA,
    METRICS,
    CategoryIndex,
    EntityGraph,
    FeatureMatrix,
    load_categories,
    load_features,
    load_graph,
    load_votes,
    read_json_object,
    save_features_binary,
    save_features_text,
    save_votes,
    text_lines,
    write_json,
)
from .errors import DataError
from .manifest import file_digest, write_manifest


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_config(path: str) -> dict:
    values = {}
    for lineno, line in text_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key in values:
            raise DataError(f"{path}:{lineno}: config key {key!r} is set twice")
        values[key] = value.strip()
    return values


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _numbers(text: str) -> str:
    """A checked ``--sizes`` or ``--targets`` list, kept as text for the manifest."""
    try:
        _float_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    return text


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _int_at_least(low: int, source: str = ""):
    """An argparse type for integers of at least ``low``; ``source``, when
    given, tells in the usage error where the value came from."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}{source}, got {text!r}")
        return value

    return convert


# argparse also converts the CATRANK_WORKERS default when the flag is absent
_workers = _int_at_least(1, " (the flag or CATRANK_WORKERS)")
# a surprise level and a conductance relate members to each other
_min_size = _int_at_least(2)


def build_parser() -> _Parser:
    # the paper's default menu and walk settings, as the flags spell them
    menu = coherence.GridMenu()
    walk = embeddings.WalkConfig()
    sizes = ",".join(f"{size:g}" for size in menu.sizes)
    # option groups that several subcommands take, each declared once
    calibration = argparse.ArgumentParser(add_help=False)
    calibration.add_argument("--exact-limit", type=int, default=neighbors.DEFAULT_EXACT_LIMIT)
    calibration.add_argument("--sample-pairs", type=int,
                             default=neighbors.DEFAULT_SAMPLE_PAIRS)
    calibration.add_argument("--seed", type=int, default=0)
    calibration.add_argument("--workers", type=_workers,
                             default=os.environ.get("CATRANK_WORKERS") or "1",
                             help="threads for neighbor search and threshold "
                             "calibration; outputs do not depend on it")
    walking = argparse.ArgumentParser(add_help=False)
    walking.add_argument("--walks-per-vertex", type=int, default=walk.walks_per_vertex)
    walking.add_argument("--walk-length", type=int, default=walk.walk_length)
    walking.add_argument("--seed", type=int, default=0)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--neighbors", required=True)
    scoring.add_argument("--categories", required=True, help="native categories JSON")
    scoring.add_argument("--min-size", type=_min_size, default=menu.min_size)
    scoring.add_argument("--adjusted-p", action="store_true")
    parser = _Parser(prog="catrank", description=__doc__)
    parser.add_argument("--config", help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load external files into native artifacts")
    p.add_argument("--graph", required=True, help="TSV edge list")
    p.add_argument("--symmetrize", action="store_true", help="add reverse edges")
    p.add_argument("--categories", help="TSV entity/category assignments")
    p.add_argument("--features", help="feature file (text, or binary with sidecar)")
    p.add_argument("--votes", help="vote CSV")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("walk", parents=[walking], help="generate the random-walk corpus")
    p.add_argument("--graph", required=True, help="native graph JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", parents=[walking], help="train skip-gram embeddings")
    p.add_argument("--graph", required=True, help="native graph JSON")
    p.add_argument("--walks", help="reuse a persisted walk corpus")
    p.add_argument("--window", type=int, default=walk.window)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--initial-lr", type=float, default=0.025)
    p.add_argument("--final-lr", type=float, default=0.0001)
    p.add_argument("--method", choices=["hs", "negative"], default="hs")
    p.add_argument("--negative", type=int, default=5)
    p.add_argument("--binary", action="store_true", help="write float32 binary features")
    p.add_argument("--out", required=True)

    p = sub.add_parser("knn", parents=[calibration], help="build the close-neighbor relation")
    p.add_argument("--features", required=True)
    p.add_argument("--metric", choices=METRICS, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="count strategy: exact k nearest")
    group.add_argument("--avg-target", type=float,
                       help="distance strategy: calibrate threshold to this average")
    group.add_argument("--radius", type=float, help="distance strategy: explicit threshold")
    p.add_argument("--out", required=True)

    p = sub.add_parser("coherence", parents=[scoring],
                       help="score all categories (both criteria)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank", parents=[scoring], help="order categories by a criterion")
    p.add_argument("--criterion", choices=CRITERIA, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("grid", parents=[calibration],
                       help="run the full menu of configurations")
    p.add_argument("--features", required=True)
    p.add_argument("--features-name", default="features")
    p.add_argument("--categories", required=True)
    p.add_argument("--votes")
    p.add_argument("--metrics", default=",".join(menu.metrics))
    p.add_argument("--strategies", default=",".join(menu.strategies))
    p.add_argument("--sizes", type=_numbers, default=sizes)
    p.add_argument("--criteria", default=",".join(menu.criteria))
    p.add_argument("--min-size", type=_min_size, default=menu.min_size)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("evaluate", help="score a ranking against votes")
    p.add_argument("--ranking", required=True, help="ranking CSV")
    p.add_argument("--votes", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="descriptive statistics and tables")
    rsub = p.add_subparsers(dest="report_command", required=True)
    rp = rsub.add_parser("stats")
    rp.add_argument("--categories", required=True)
    rp.add_argument("--graph", help="checked against --categories; needed to resolve "
                    "--subset entity ids")
    rp.add_argument("--subset", help="file of entity ids, one per line")
    rp.add_argument("--bucket-width", type=int, default=1)
    rp.add_argument("--out", required=True)
    rp = rsub.add_parser("quantiles", parents=[calibration])
    rp.add_argument("--features", required=True)
    rp.add_argument("--metric", choices=METRICS, required=True)
    rp.add_argument("--targets", type=_numbers, default=sizes)
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


def _check_universe(path: str, n: int, rows: str, cats_path: str, cats: CategoryIndex):
    """Refuse an input whose entity count is not the category index's."""
    if n != cats.n_entities:
        raise DataError(f"{path} has {n} {rows}, but {cats_path} has "
                        f"n_entities = {cats.n_entities}")


_VOTES_META_KEYS = ("votes_sha256", "categories_sha256", "search", "cheating_score")


def _save_votes_meta(votes_path: str, cats_path: str, search: str, score: float) -> str:
    """``<votes>.meta.json``: the cheating score of the written vote set, the
    search that found it and the digests of the two files it depends on."""
    path = votes_path + ".meta.json"
    write_json(path, {"votes_sha256": file_digest(votes_path),
                      "categories_sha256": file_digest(cats_path),
                      "search": search, "cheating_score": score}, compact=True)
    return path


def _recorded_cheating_score(args, votes) -> float | None:
    """The score ``<votes>.meta.json`` records, if its digests are those of
    ``--votes`` and ``--categories`` and its search is the one
    ``best_cheating_score`` runs on ``votes``; a score it used puts the
    sidecar among the manifest's inputs (``args.votes_meta``)."""
    path = args.votes + ".meta.json"
    if not os.path.exists(path):
        return None
    meta = read_json_object(path, _VOTES_META_KEYS)
    score = meta["cheating_score"]
    if type(score) is not float or not 0 < score < math.inf:
        raise DataError(f"{path}: cheating_score must be a finite positive float, "
                        f"got {score!r}")
    recorded = tuple(meta[key] for key in _VOTES_META_KEYS[:3])
    if not all(isinstance(value, str) for value in recorded):
        raise DataError(f"{path}: {', '.join(_VOTES_META_KEYS[:3])} must be strings")
    if recorded != (file_digest(args.votes), file_digest(args.categories),
                    evaluation.cheating_search(votes)):
        return None
    args.votes_meta = path
    return score


# ---------------------------------------------------------------------------
# stage runners: each returns (output paths, values it computed); main writes
# the manifest's parameters and inputs from the parsed options


def _run_ingest(args):
    # every input is loaded and checked before anything is written
    graph, greport = load_graph(args.graph, symmetrize=args.symmetrize)
    if args.categories:
        cats, creport = load_categories(args.categories, graph)
    if args.features:
        fm = load_features(args.features, None, graph)
    if args.votes:
        votes = load_votes(args.votes, cats)
        cheat, _ = evaluation.best_cheating_score(votes)
        search = evaluation.cheating_search(votes)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = [os.path.join(args.out_dir, "graph.json")]
    graph.save(outputs[-1])
    print(f"graph: {greport.n_entities} entities, {greport.n_edges} edges, "
          f"{greport.n_self_loops_dropped} self-loops dropped, "
          f"{greport.n_duplicate_edges_dropped} duplicate edges dropped")
    if args.categories:
        outputs.append(os.path.join(args.out_dir, "categories.json"))
        cats.save(outputs[-1])
        print(f"categories: {cats.n_categories} categories, "
              f"{creport.n_assignments} assignments, "
              f"{creport.n_skipped_unknown_entities} skipped unknown entities")
    if args.features:
        outputs.append(os.path.join(args.out_dir, "features.tsv"))
        save_features_text(fm, graph.ids, outputs[-1])
        print(f"features: {fm.n_entities} rows, dim {fm.dim}, kind {fm.kind}")
    if args.votes:
        outputs.append(os.path.join(args.out_dir, "votes.csv"))
        save_votes(votes, cats, outputs[-1])
        outputs.append(_save_votes_meta(
            outputs[-1], os.path.join(args.out_dir, "categories.json"), search, cheat))
        print(f"votes: {len(votes.qids)} questions, {votes.n_answers} answers, "
              f"cheating score {cheat:g} ({search})")
    return outputs, {}


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
    return [args.out], {}


def _run_embed(args):
    training = dict(dim=args.dim, window=args.window, initial_lr=args.initial_lr,
                    final_lr=args.final_lr, method=args.method, negative=args.negative)
    embeddings.check_training(**training)
    graph = EntityGraph.load(args.graph)
    cfg = embeddings.WalkConfig(
        walks_per_vertex=args.walks_per_vertex,
        walk_length=args.walk_length,
        seed=args.seed,
    )
    if args.walks:
        walks = embeddings.load_walks(args.walks, graph)
    else:
        walks = embeddings.generate_walks(graph, cfg)
    model = embeddings.train_skipgram(walks, graph.n_entities, seed=args.seed, **training)
    fm = FeatureMatrix(kind="point", rows=model.input_vectors)
    outputs = [args.out]
    if args.binary:
        save_features_binary(fm, graph.ids, args.out)
        outputs.append(args.out + ".json")
    else:
        save_features_text(fm, graph.ids, args.out)
    print(f"embedding: {fm.n_entities} x {fm.dim} ({args.method})")
    return outputs, {"corpus_walks": len(walks),
                     "corpus_tokens": int(sum(len(w) for w in walks))}


def _run_knn(args):
    fm = load_features(args.features, None, None)
    computed = {}
    if args.radius is not None:
        nbrs = neighbors.neighbors_by_distance(fm, args.metric, args.radius,
                                               workers=args.workers)
    else:
        strategy, size = ("distance", args.avg_target) if args.k is None else ("count", args.k)
        (_, _, d, nbrs), = coherence.neighbor_sets(
            fm, args.metric, [strategy], [size], args.workers, args.seed, args.exact_limit,
            args.sample_pairs)
        if d is not None:
            computed["threshold"] = d
            print(f"calibrated threshold: {d!r}")
    nbrs.save(args.out)
    degs = nbrs.out_degrees()
    print(f"neighbors: {nbrs.n} entities, mean out-degree {degs.mean():.3f}")
    return [args.out, args.out + ".meta.json"], computed


def _check_scoring_inputs(args, nbrs: neighbors.NeighborSet, cats: CategoryIndex):
    """DataError unless the neighbor list and the categories cover one
    universe and some category has at least ``--min-size`` members."""
    _check_universe(args.neighbors, nbrs.n, "rows", args.categories, cats)
    if not (cats.members.lengths() >= args.min_size).any():
        raise DataError("no scorable category (all below --min-size)")


def _run_coherence(args):
    nbrs = neighbors.NeighborSet.load(args.neighbors)
    cats = CategoryIndex.load(args.categories)
    _check_scoring_inputs(args, nbrs, cats)
    scores, skipped = coherence.score_categories(
        nbrs, cats, min_size=args.min_size, adjusted_p=args.adjusted_p)
    _write(args.out, report.scores_csv(scores, cats))
    print(f"coherence: scored {len(scores)} categories, skipped {skipped}")
    return [args.out], {}


def _run_rank(args):
    nbrs = neighbors.NeighborSet.load(args.neighbors)
    cats = CategoryIndex.load(args.categories)
    _check_scoring_inputs(args, nbrs, cats)
    ranking = coherence.rank_categories(
        nbrs, cats, args.criterion, min_size=args.min_size, adjusted_p=args.adjusted_p)
    _write(args.out, report.ranking_csv(ranking, cats))
    print(f"ranking: {len(ranking)} categories by {args.criterion}, "
          f"skipped {ranking.n_skipped}")
    return [args.out], {}


def _run_grid(args):
    fm = load_features(args.features, None, None)
    cats = CategoryIndex.load(args.categories)
    _check_universe(args.features, fm.n_entities, "rows", args.categories, cats)
    votes = load_votes(args.votes, cats) if args.votes else None
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
    os.makedirs(rank_dir, exist_ok=True)  # makes --out-dir too, once the grid has run
    for key in sorted(result.rankings):
        path = os.path.join(rank_dir, key.replace("|", "_") + ".csv")
        _write(path, report.ranking_csv(result.rankings[key], cats))
        outputs.append(path)
    summary_csv = os.path.join(args.out_dir, "summary.csv")
    _write(summary_csv, report.summary_csv(result.rows))
    outputs.append(summary_csv)
    summary_json = os.path.join(args.out_dir, "summary.json")
    write_json(summary_json, {"rows": result.rows, "skipped_configs": result.skipped_configs})
    outputs.append(summary_json)
    print(f"grid: {len(result.rows)} configurations, "
          f"{len(result.skipped_configs)} skipped")
    return outputs, {}


def _run_evaluate(args):
    cats = CategoryIndex.load(args.categories)
    votes = load_votes(args.votes, cats)
    order = report.read_ranking_csv(args.ranking, cats).ordered_categories
    rep = evaluation.evaluate(votes, order,
                              cheating_score=_recorded_cheating_score(args, votes))
    write_json(args.out, rep.to_dict())
    print(f"rough accuracy:    {rep.rough_accuracy:.4f}")
    print(f"improved accuracy: {rep.improved_accuracy:.4f} "
          f"(cheating score {rep.cheating_score:g} of {rep.n_answers})")
    for i, frac in enumerate(rep.agreement_histogram, 1):
        print(f"agreement {i}: {frac:.4f}")
    return [args.out], {}


def _run_report(args):
    if args.report_command == "stats":
        cats = CategoryIndex.load(args.categories)
        subset = None
        if args.graph:
            graph = EntityGraph.load(args.graph)
            _check_universe(args.graph, graph.n_entities, "entities", args.categories, cats)
        if args.subset:
            subset = {}  # entity ids in file order
            for lineno, name in text_lines(args.subset):
                e = graph.index.get(name)
                if e is None:
                    raise DataError(f"{args.subset}:{lineno}: unknown entity {name!r}")
                if e in subset:
                    raise DataError(f"{args.subset}:{lineno}: repeated entity {name!r}")
                subset[e] = None
        stats = report.category_stats(cats, subset=subset, bucket_width=args.bucket_width)
        _write(args.out, report.stats_text(stats))
        return [args.out], {}
    if args.report_command == "quantiles":
        fm = load_features(args.features, None, None)
        targets = _float_list(args.targets)
        ds = neighbors.calibrate_thresholds(
            fm, args.metric, targets, exact_limit=args.exact_limit,
            sample_pairs=args.sample_pairs, seed=args.seed, workers=args.workers)
        _write(args.out, report.quantiles_csv(list(zip(targets, ds))))
        return [args.out], {}
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
    return outputs, {}


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


# options naming a file a stage reads, and the votes sidecar evaluate read its
# cheating score from: the manifest digests them as inputs
_INPUT_OPTIONS = {"graph", "walks", "categories", "features", "votes", "neighbors",
                  "ranking", "subset", "votes_meta"}
# parsed values that are not parameters: the subcommand names, output paths,
# the seed (its own manifest field), the config file (resolved into the other
# options) and the worker count (no output depends on it)
_NOT_PARAMETERS = {"command", "report_command", "out", "out_dir", "text", "seed",
                   "config", "workers"}


def _manifest_path(args) -> str:
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        return os.path.join(out_dir, "manifest.json")
    return args.out + ".manifest.json"


_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _iter_parsers(parser):
    yield parser
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            for sub in action.choices.values():
                yield from _iter_parsers(sub)


def _apply_config(parser, config):
    known = set()
    for sub in _iter_parsers(parser):
        # a key for a required flag, or for one of a required group's flags
        # (knn's --k, --avg-target and --radius), could never take effect:
        # the command line must give that flag, and there it wins or clashes
        grouped = {action for group in sub._mutually_exclusive_groups  # noqa: SLF001
                   for action in group._group_actions}  # noqa: SLF001
        defaults = {}
        for action in sub._actions:  # noqa: SLF001
            if action.dest == "help" or action.required or action in grouped:
                continue
            known.add(action.dest)
            if action.dest in config:
                raw = config[action.dest]
                if action.type is not None:
                    try:
                        raw = action.type(raw)
                    except (argparse.ArgumentTypeError, ValueError) as e:
                        raise ValueError(f"config {action.dest}: {e}") from None
                elif isinstance(action.const, bool) or isinstance(action.default, bool):
                    if raw.lower() not in _CONFIG_BOOLS:
                        raise ValueError(f"config {action.dest}: expected one of "
                                         f"{'/'.join(_CONFIG_BOOLS)}, got {raw!r}")
                    raw = _CONFIG_BOOLS[raw.lower()]
                if action.choices is not None and raw not in action.choices:
                    raise ValueError(f"config {action.dest}: expected one of "
                                     f"{'/'.join(action.choices)}, got {raw!r}")
                defaults[action.dest] = raw
        sub.set_defaults(**defaults)
    unknown = set(config) - known
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # every spelling argparse accepts: --config PATH, --config=PATH, --conf PATH
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    try:
        config_path = pre.parse_known_args(argv)[0].config
        if config_path is not None:
            try:
                config = _read_config(config_path)
            except OSError as e:
                print(f"catrank: cannot read config: {e}", file=sys.stderr)
                return 1
            _apply_config(parser, config)
        args = parser.parse_args(argv)
        if args.command == "ingest" and args.votes and not args.categories:
            parser.error("ingest: --votes requires --categories")
        if getattr(args, "report_command", None) == "stats" and args.subset and not args.graph:
            parser.error("report stats: --subset requires --graph to resolve entity ids")
        started = time.monotonic()
        outputs, computed = _RUNNERS[args.command](args)
    except (DataError, ValueError) as e:
        print(f"catrank: data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"catrank: {e}", file=sys.stderr)
        return 2
    wall = time.monotonic() - started
    given = {k: v for k, v in vars(args).items() if v is not None}
    inputs = [v for k, v in given.items() if k in _INPUT_OPTIONS]
    params = {k: v for k, v in given.items()
              if k not in _INPUT_OPTIONS and k not in _NOT_PARAMETERS}
    write_manifest(_manifest_path(args), args.command, {**params, **computed}, inputs,
                   outputs, getattr(args, "seed", None), wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
