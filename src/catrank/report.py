"""Descriptive statistics, result tables, and the ranking CSV they persist.

Everything here formats data computed elsewhere, or reads a ranking back;
output is byte-identical given identical inputs (floats rendered with repr,
fixed orderings).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .coherence import CategoryScore, CoherenceRanking
from .data_model import CategoryIndex, csv_records, csv_text
from .errors import DataError


@dataclass
class CategoryStats:
    histogram: list[int]
    mean: float
    n_entities: int
    bucket_width: int
    subset_histogram: list[int] | None = None
    subset_mean: float | None = None
    subset_size: int | None = None
    subset_note: str | None = None


def category_stats(cats: CategoryIndex, subset=None, bucket_width: int = 1) -> CategoryStats:
    """Categories-per-entity histogram and mean, optionally for a subset too."""
    if bucket_width < 1:
        raise ValueError("bucket_width must be at least 1")
    counts = np.bincount(cats.members.indices, minlength=cats.n_entities)
    hist = np.bincount(counts // bucket_width)
    stats = CategoryStats(
        histogram=hist.tolist(),
        mean=float(counts.mean()) if len(counts) else 0.0,
        n_entities=cats.n_entities,
        bucket_width=bucket_width,
    )
    if subset is not None:
        subset = np.asarray(list(subset), dtype=np.int64)
        if len(subset) == 0:
            stats.subset_note = "subset empty; subset section omitted"
        else:
            sub = counts[subset]
            stats.subset_histogram = np.bincount(sub // bucket_width).tolist()
            stats.subset_mean = float(sub.mean())
            stats.subset_size = int(len(subset))
    return stats


def stats_text(stats: CategoryStats) -> str:
    out = io.StringIO()
    out.write(f"entities: {stats.n_entities}\n")
    out.write(f"mean categories per entity: {repr(stats.mean)}\n")
    out.write(f"histogram (bucket width {stats.bucket_width}):\n")
    for b, c in enumerate(stats.histogram):
        out.write(f"  {b * stats.bucket_width:>6}  {c}\n")
    if stats.subset_note:
        out.write(stats.subset_note + "\n")
    elif stats.subset_histogram is not None:
        out.write(f"subset size: {stats.subset_size}\n")
        out.write(f"subset mean categories per entity: {repr(stats.subset_mean)}\n")
        out.write("subset histogram:\n")
        for b, c in enumerate(stats.subset_histogram):
            out.write(f"  {b * stats.bucket_width:>6}  {c}\n")
    return out.getvalue()


def quantiles_csv(rows: list[tuple[float, float]]) -> str:
    return csv_text(["target_avg_neighbors", "distance_threshold"],
                ([f"{t:g}", d] for t, d in rows))


def scores_csv(scores: list[CategoryScore], cats: CategoryIndex) -> str:
    """Per-category coherence scores in category-index order."""
    return csv_text(
        ["category", "n_members", "conductance", "surprise", "log_surprise",
         "n_observers_used"],
        ([cats.names[s.category], s.n_members, s.conductance, s.surprise,
          s.log_surprise, s.n_observers_used] for s in scores),
    )


def summary_csv(rows: list[dict]) -> str:
    """Grid summary rows; columns in first-seen order, absent cells empty."""
    columns = list(dict.fromkeys(col for row in rows for col in row))
    return csv_text(columns, ([row.get(col, "") for col in columns] for row in rows))


RANKING_COLUMNS = ["rank", "category", "criterion_value", "conductance",
                   "log_surprise", "n_members", "n_observers_used"]


@dataclass
class TopTable:
    rows: list[dict]
    truncated_note: str | None = None


def _ranking_rows(ranking: CoherenceRanking, n: int, cats: CategoryIndex) -> list[dict]:
    return [
        {
            "rank": rank,
            "category": cats.names[s.category],
            "criterion_value": s.conductance if ranking.criterion == "conductance"
            else s.log_surprise,
            "conductance": s.conductance,
            "log_surprise": s.log_surprise,
            "n_members": s.n_members,
            "n_observers_used": s.n_observers_used,
        }
        for rank, s in enumerate(ranking.scores[:n], 1)
    ]


def top_table(ranking: CoherenceRanking, n: int, cats: CategoryIndex) -> TopTable:
    """First n rows of a ranking; asking past the end returns everything."""
    if n < 1:
        raise ValueError("n must be at least 1")
    note = None
    if n > len(ranking):
        note = f"requested {n} rows, ranking has {len(ranking)}"
        n = len(ranking)
    return TopTable(rows=_ranking_rows(ranking, n, cats), truncated_note=note)


def _rows_csv(rows: list[dict]) -> str:
    return csv_text(RANKING_COLUMNS, ([r[c] for c in RANKING_COLUMNS] for r in rows))


def ranking_csv(ranking: CoherenceRanking, cats: CategoryIndex) -> str:
    """Full ranking in the persistent CSV schema (natural-log surprise)."""
    return _rows_csv(_ranking_rows(ranking, len(ranking), cats))


def top_csv(table: TopTable) -> str:
    return _rows_csv(table.rows)


def read_ranking_csv(path: str, cats: CategoryIndex) -> CoherenceRanking:
    """Read a ranking written by ``ranking_csv``, keeping its order.

    The criterion is not stored as such: each row's criterion_value cell must
    equal its conductance cell or its log_surprise cell, and every row where
    those two differ must match the same one. A file with no such row is read
    as a conductance ranking.
    """
    scores: list[CategoryScore] = []
    seen: set[int] = set()
    criterion = None
    records = csv_records(path, "ranking")
    if next(records) != RANKING_COLUMNS:
        raise DataError(f"{path}:1: header must be {','.join(RANKING_COLUMNS)}")
    for lineno, row in records:
        where = f"{path}:{lineno}"
        rank, name, value, cond, log_s, n_members, n_observers = row
        c = cats.index.get(name)
        if c is None:
            raise DataError(f"{where}: unknown category {name!r}")
        if c in seen:
            raise DataError(f"{where}: category {name!r} listed twice")
        try:
            numbers = (int(rank), float(cond) if cond else None, float(log_s),
                       int(n_members), int(n_observers))
        except ValueError:
            raise DataError(f"{where}: non-numeric field") from None
        rank, conductance, log_surprise, n_members, n_observers = numbers
        if rank != len(scores) + 1:
            raise DataError(f"{where}: rank {rank} out of sequence")
        if not (log_surprise <= 0.0 and (conductance is None or 0.0 <= conductance <= 1.0)):
            raise DataError(f"{where}: need log_surprise <= 0 and conductance in [0, 1]")
        if value not in (cond, log_s):
            raise DataError(f"{where}: criterion_value {value!r} is neither the conductance "
                            "nor the log_surprise cell")
        if cond != log_s:
            matched = "conductance" if value == cond else "surprise"
            if criterion not in (None, matched):
                raise DataError(f"{where}: criterion_value matches {matched} here "
                                f"but {criterion} on earlier rows")
            criterion = matched
        seen.add(c)
        scores.append(CategoryScore(
            category=c, n_members=n_members, conductance=conductance,
            surprise=math.exp(log_surprise), log_surprise=log_surprise,
            n_observers_used=n_observers,
        ))
    if not scores:
        raise DataError(f"{path}: empty ranking")
    return CoherenceRanking(criterion=criterion or "conductance", scores=scores, n_skipped=0)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def top_text(table: TopTable) -> str:
    headers = RANKING_COLUMNS
    cells = [[_cell(r[h]) for h in headers] for r in table.rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for c in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n")
    if table.truncated_note:
        out.write("# " + table.truncated_note + "\n")
    return out.getvalue()
