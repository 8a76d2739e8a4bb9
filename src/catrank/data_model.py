"""Core domain types, file ingestion and persistence for the pipeline.

External formats:
  graph       UTF-8 TSV edge list ``src<TAB>dst``, ``#`` comments allowed
  categories  UTF-8 TSV ``entity<TAB>category``
  features    text header ``n<SP>dim<SP>kind`` then rows
              ``entity<TAB>v1 v2 ... vdim``; alternative binary format of
              little-endian float32, row-major, with a ``<path>.json``
              sidecar mapping entity id to row
  votes       UTF-8 CSV with header, ``question_id,choice_1,...,choice_m,
              voted_index`` (1-based voted index)

Every loaded structure is immutable by convention once built and safe to
share across parallel workers.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

FEATURE_KINDS = ("point", "distribution")

# Distribution rows whose sum strays further than this from 1 are rejected
# rather than silently renormalized.
DISTRIBUTION_SUM_TOLERANCE = 1e-3
# Rows already normalized this tightly are left untouched so that
# save/load round trips are bit-identical.
_RENORMALIZE_GATE = 1e-12


# ---------------------------------------------------------------------------
# shared readers


@contextmanager
def open_text(path: str, newline: str | None = None):
    """Open a UTF-8 input file; undecodable bytes and CSV syntax errors
    raised while reading it become DataError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: unreadable text: {e}") from None


def read_json_object(path: str, keys: tuple[str, ...] = ()) -> dict:
    """Parse a JSON file that must hold an object carrying ``keys``."""
    with open_text(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    return payload


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_name_list(value) -> bool:
    """A list of distinct strings."""
    return (isinstance(value, list) and all(isinstance(s, str) for s in value)
            and len(set(value)) == len(value))


def _index_lists(raw, count: int, n: int, where: str) -> list[np.ndarray]:
    """``count`` JSON lists of integers in ``[0, n)``, as int64 arrays."""
    if not isinstance(raw, list) or len(raw) != count:
        raise DataError(f"{where}: expected {count} lists")
    arrays = []
    for i, values in enumerate(raw):
        try:
            arr = np.asarray(values)
        except ValueError:
            arr = None
        if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
            raise DataError(f"{where}[{i}]: expected a list of integers")
        arrays.append(arr.astype(np.int64, copy=False))
    flat = np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
    bad = (flat < 0) | (flat >= n)
    if bad.any():
        raise DataError(f"{where}: index {int(flat[bad.argmax()])} outside [0, {n})")
    return arrays


def _sorted_unique(lists: list[np.ndarray], name: str) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``lists`` concatenated, and the list each came from;
    DataError naming ``name[i]`` unless every list is strictly increasing."""
    flat = np.concatenate(lists) if lists else np.zeros(0, np.int64)
    owner = np.repeat(np.arange(len(lists)), [len(a) for a in lists])
    bad = (np.diff(flat) <= 0) & (owner[1:] == owner[:-1])
    if bad.any():
        raise DataError(f"{name}[{int(owner[bad.argmax()])}]: entity ids are not "
                        "sorted and unique")
    return flat, owner


# ---------------------------------------------------------------------------
# entity graph


@dataclass
class GraphLoadReport:
    n_entities: int
    n_edges: int
    n_self_loops_dropped: int
    n_duplicate_edges_dropped: int


@dataclass
class EntityGraph:
    """Directed adjacency over dense integer ids with a string-id dictionary;
    each adjacency list sorted and unique, without the vertex itself."""

    ids: list[str]
    adjacency: list[np.ndarray]
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.ids)}

    @property
    def n_entities(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency)

    def validate(self):
        n = self.n_entities
        if len(self.adjacency) != n:
            raise DataError("adjacency length does not match entity count")
        if len(self.index) != n:
            raise DataError("id map is not a bijection")
        flat, owner = _sorted_unique(self.adjacency, "adjacency")
        for bad, why in (((flat < 0) | (flat >= n), f"index outside [0, {n})"),
                         (flat == owner, "self-loop")):
            if bad.any():
                raise DataError(f"adjacency[{int(owner[bad.argmax()])}]: {why}")

    def save(self, path: str):
        payload = {
            "ids": self.ids,
            "adjacency": [a.tolist() for a in self.adjacency],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))

    @classmethod
    def load(cls, path: str) -> "EntityGraph":
        payload = read_json_object(path, ("ids", "adjacency"))
        ids = payload["ids"]
        if not _is_name_list(ids):
            raise DataError(f"{path}: 'ids' must be a list of distinct strings")
        adjacency = _index_lists(payload["adjacency"], len(ids), len(ids),
                                 f"{path}: adjacency")
        graph = cls(ids=ids, adjacency=adjacency)
        try:
            graph.validate()
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        return graph


def load_graph(path: str, symmetrize: bool = False):
    """Ingest a TSV edge list into an EntityGraph.

    Duplicate edges are deduplicated and self-loops dropped (both counted in
    the returned report). ``symmetrize`` adds the reverse of every retained
    edge. Returns ``(graph, GraphLoadReport)``.
    """
    ids: list[str] = []
    index: dict[str, int] = {}

    def intern(s: str) -> int:
        i = index.get(s)
        if i is None:
            i = len(ids)
            index[s] = i
            ids.append(s)
        return i

    raw_edges: list[tuple[int, int]] = []
    n_self = 0
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
            u = intern(parts[0].strip())
            v = intern(parts[1].strip())
            if u == v:
                n_self += 1
                continue
            raw_edges.append((u, v))

    if not ids:
        raise DataError(f"{path}: empty graph")

    out: list[set[int]] = [set() for _ in ids]
    n_dup = 0
    for u, v in raw_edges:
        if v in out[u]:
            n_dup += 1
        else:
            out[u].add(v)
    if symmetrize:
        for u, v in raw_edges:
            out[v].add(u)

    adjacency = [np.array(sorted(s), dtype=np.int64) for s in out]
    graph = EntityGraph(ids=ids, adjacency=adjacency, index=index)
    report = GraphLoadReport(
        n_entities=graph.n_entities,
        n_edges=graph.n_edges,
        n_self_loops_dropped=n_self,
        n_duplicate_edges_dropped=n_dup,
    )
    return graph, report


# ---------------------------------------------------------------------------
# category index


@dataclass
class CategoryLoadReport:
    n_assignments: int
    n_skipped_unknown_entities: int
    n_duplicate_assignments: int


@dataclass
class CategoryIndex:
    """Category -> member entities, each member list sorted and unique."""

    names: list[str]
    members: list[np.ndarray]
    n_entities: int
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.names)}

    @property
    def n_categories(self) -> int:
        return len(self.names)

    def size(self, c: int) -> int:
        return len(self.members[c])

    def validate(self):
        _sorted_unique(self.members, "members")

    def save(self, path: str):
        payload = {
            "n_entities": self.n_entities,
            "names": self.names,
            "members": [m.tolist() for m in self.members],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))

    @classmethod
    def load(cls, path: str) -> "CategoryIndex":
        payload = read_json_object(path, ("n_entities", "names", "members"))
        n, names = payload["n_entities"], payload["names"]
        if not _is_count(n):
            raise DataError(f"{path}: 'n_entities' must be a nonnegative integer")
        if not _is_name_list(names):
            raise DataError(f"{path}: 'names' must be a list of distinct strings")
        members = _index_lists(payload["members"], len(names), n, f"{path}: members")
        cats = cls(names=names, members=members, n_entities=n)
        try:
            cats.validate()
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        return cats


def load_categories(path: str, graph: EntityGraph):
    """Ingest ``entity<TAB>category`` assignments against a loaded graph.

    Assignments for entities absent from the graph are skipped and counted.
    Returns ``(CategoryIndex, CategoryLoadReport)``.
    """
    names: list[str] = []
    cat_index: dict[str, int] = {}
    member_sets: list[set[int]] = []
    n_skipped = 0
    n_dup = 0
    n_kept = 0
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(
                    f"{path}:{lineno}: expected 'entity<TAB>category', got {line!r}"
                )
            ent, cat = parts[0].strip(), parts[1].strip()
            e = graph.index.get(ent)
            if e is None:
                n_skipped += 1
                continue
            c = cat_index.get(cat)
            if c is None:
                c = len(names)
                cat_index[cat] = c
                names.append(cat)
                member_sets.append(set())
            if e in member_sets[c]:
                n_dup += 1
            else:
                member_sets[c].add(e)
                n_kept += 1

    if n_kept == 0:
        raise DataError(f"{path}: no category assignment matched a graph entity")

    members = [np.array(sorted(s), dtype=np.int64) for s in member_sets]
    cats = CategoryIndex(
        names=names,
        members=members,
        n_entities=graph.n_entities,
        index=cat_index,
    )
    report = CategoryLoadReport(
        n_assignments=n_kept,
        n_skipped_unknown_entities=n_skipped,
        n_duplicate_assignments=n_dup,
    )
    return cats, report


# ---------------------------------------------------------------------------
# feature matrix


@dataclass
class FeatureMatrix:
    """Per-entity feature rows: point embeddings or probability distributions."""

    kind: str
    rows: np.ndarray

    @property
    def n_entities(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def validate(self):
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if not np.all(np.isfinite(self.rows)):
            raise DataError("feature rows contain non-finite components")
        if self.kind == "distribution":
            if np.any(self.rows < 0):
                raise DataError("distribution rows contain negative components")
            sums = self.rows.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-6):
                raise DataError("distribution rows do not sum to 1 within 1e-6")


def _normalize_distribution_rows(rows: np.ndarray, context: str):
    if np.any(rows < 0):
        bad = int(np.argwhere(rows < 0)[0][0])
        raise DataError(f"{context}: negative component in distribution row {bad}")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > DISTRIBUTION_SUM_TOLERANCE):
        bad = int(np.argmax(off))
        raise DataError(
            f"{context}: distribution row {bad} sums to {sums[bad]:.6g}, outside "
            f"the {DISTRIBUTION_SUM_TOLERANCE:g} sanity bound"
        )
    needs = off > _RENORMALIZE_GATE
    if np.any(needs):
        rows[needs] /= sums[needs, None]


def read_features(path: str) -> tuple[FeatureMatrix, list[str]]:
    """Read a feature file in file order, with the kind the file declares.

    Returns the matrix and the entity id of each row. A ``<path>.json``
    sidecar next to the file switches to the binary format. Rows must be
    finite; distribution rows must be nonnegative and are renormalized to
    sum 1.
    """
    fm, ids, n = _parse_features(path)
    if len(ids) != n:
        raise DataError(f"{path}: header declares {n} rows, found {len(ids)}")
    if not ids:
        raise DataError(f"{path}: no feature rows")
    return fm, ids


def load_features(path: str, kind: str, graph: EntityGraph) -> FeatureMatrix:
    """Read a feature file (see ``read_features``) and align its rows to
    graph dense order. Every graph entity must appear exactly once."""
    if kind not in FEATURE_KINDS:
        raise ValueError(f"feature kind must be one of {FEATURE_KINDS}, got {kind!r}")
    fm, ids, n = _parse_features(path)
    if fm.kind != kind:
        raise DataError(f"{path}: requested kind {kind!r} but file declares {fm.kind!r}")
    if n != graph.n_entities:
        raise DataError(f"{path}: file declares {n} entities, graph has {graph.n_entities}")
    row_of = np.full(n, -1, dtype=np.int64)
    for r, ent in enumerate(ids):
        e = graph.index.get(ent)
        if e is None:
            raise DataError(f"{path}: row {r} names unknown entity {ent!r}")
        row_of[e] = r
    missing = np.flatnonzero(row_of < 0)
    if len(missing):
        raise DataError(
            f"{path}: missing rows for {len(missing)} entities, "
            f"first missing ids: {[graph.ids[i] for i in missing[:10]]}"
        )
    return FeatureMatrix(kind=kind, rows=fm.rows[row_of])


def _parse_features(path: str) -> tuple[FeatureMatrix, list[str], int]:
    """Rows in file order, their ids, and the row count the file declares."""
    if os.path.exists(path + ".json"):
        rows, ids, kind, n = _parse_features_binary(path)
    else:
        rows, ids, kind, n = _parse_features_text(path)
    if not np.all(np.isfinite(rows)):
        bad = int(np.argwhere(~np.isfinite(rows))[0][0])
        raise DataError(f"{path}: non-finite component in row {bad}")
    if kind == "distribution":
        _normalize_distribution_rows(rows, path)
    return FeatureMatrix(kind=kind, rows=rows), ids, n


def _parse_features_text(path: str):
    with open_text(path) as f:
        header = None
        lineno = 0
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                header = line
                break
        if header is None:
            raise DataError(f"{path}: missing feature header")
        parts = header.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: header must be 'n dim kind'")
        try:
            n, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer header counts") from None
        if n < 0 or dim < 1:
            raise DataError(f"{path}:{lineno}: header needs n >= 0 and dim >= 1")
        kind = parts[2].lower()
        if kind not in FEATURE_KINDS:
            raise DataError(f"{path}:{lineno}: unknown kind {parts[2]!r} in header")
        ids: list[str] = []
        vecs: list[np.ndarray] = []
        seen: set[str] = set()
        for lineno, raw in enumerate(f, lineno + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            ent, _, rest = line.partition("\t")
            ent = ent.strip()
            if not rest:
                raise DataError(f"{path}:{lineno}: expected 'entity<TAB>values'")
            if ent in seen:
                raise DataError(f"{path}:{lineno}: duplicate row for {ent!r}")
            if len(ids) == n:
                raise DataError(f"{path}:{lineno}: more rows than the {n} the header declares")
            try:
                vec = np.array(rest.split(), dtype=np.float64)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric component") from None
            if vec.shape[0] != dim:
                raise DataError(
                    f"{path}:{lineno}: expected {dim} components, got {vec.shape[0]}"
                )
            seen.add(ent)
            ids.append(ent)
            vecs.append(vec)
    rows = np.array(vecs, dtype=np.float64).reshape(len(vecs), dim)
    return rows, ids, kind, n


def _parse_features_binary(path: str):
    sidecar = path + ".json"
    meta = read_json_object(sidecar, ("n", "dim", "kind", "ids"))
    n, dim, kind, ids = meta["n"], meta["dim"], meta["kind"], meta["ids"]
    if not (_is_count(n) and _is_count(dim) and dim >= 1):
        raise DataError(f"{sidecar}: needs integer n >= 0 and dim >= 1")
    if kind not in FEATURE_KINDS:
        raise DataError(f"{sidecar}: unknown kind {kind!r}")
    if not _is_name_list(ids) or len(ids) != n:
        raise DataError(f"{sidecar}: 'ids' must list {n} distinct entity ids")
    data = np.fromfile(path, dtype="<f4")
    if data.size != n * dim:
        raise DataError(f"{path}: expected {n * dim} float32 values, found {data.size}")
    with np.errstate(invalid="ignore"):  # signalling NaNs; rejected as non-finite next
        return data.reshape(n, dim).astype(np.float64), ids, kind, n


def save_features_text(fm: FeatureMatrix, ids: list[str], path: str):
    if len(ids) != fm.n_entities:
        raise ValueError("id list length does not match feature rows")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{fm.n_entities} {fm.dim} {fm.kind}\n")
        for e, ent in enumerate(ids):
            f.write(ent + "\t" + " ".join(repr(v) for v in fm.rows[e].tolist()) + "\n")


def save_features_binary(fm: FeatureMatrix, ids: list[str], path: str):
    if len(ids) != fm.n_entities:
        raise ValueError("id list length does not match feature rows")
    fm.rows.astype("<f4").tofile(path)
    meta = {"n": fm.n_entities, "dim": fm.dim, "kind": fm.kind, "ids": list(ids)}
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# vote dataset


@dataclass
class Question:
    qid: str
    choices: list[int]

    @property
    def m(self) -> int:
        return len(self.choices)


@dataclass
class VoteDataset:
    """Multiple-choice questions over categories plus individual answers.

    Answers are ``(question position, voted position)`` pairs, both 0-based.
    """

    questions: list[Question]
    answers: list[tuple[int, int]]

    @property
    def n_answers(self) -> int:
        return len(self.answers)

    def validate(self):
        for qi, pos in self.answers:
            q = self.questions[qi]
            if not 0 <= pos < q.m:
                raise DataError(f"answer position {pos} outside question {q.qid}")
        for q in self.questions:
            if len(set(q.choices)) != q.m:
                raise DataError(f"question {q.qid} has duplicate choices")
            if q.m < 2:
                raise DataError(f"question {q.qid} has fewer than 2 choices")


def load_votes(path: str, cats: CategoryIndex) -> VoteDataset:
    """Ingest the vote CSV; choice columns carry category names."""
    questions: list[Question] = []
    by_id: dict[str, int] = {}
    answers: list[tuple[int, int]] = []
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty vote file") from None
        m = len(header) - 2
        if m < 2:
            raise DataError(f"{path}: header must carry at least 2 choice columns")
        for rowno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != m + 2:
                raise DataError(f"{path}:{rowno}: expected {m + 2} columns, got {len(row)}")
            qid = row[0].strip()
            choice_names = [c.strip() for c in row[1:-1]]
            try:
                voted = int(row[-1])
            except ValueError:
                raise DataError(f"{path}:{rowno}: voted index is not an integer") from None
            if not 1 <= voted <= m:
                raise DataError(f"{path}:{rowno}: voted index {voted} outside [1, {m}]")
            choices = []
            for name in choice_names:
                c = cats.index.get(name)
                if c is None:
                    raise DataError(f"{path}:{rowno}: unknown category {name!r}")
                choices.append(c)
            if len(set(choices)) != m:
                raise DataError(f"{path}:{rowno}: duplicate categories in choices")
            qi = by_id.get(qid)
            if qi is None:
                qi = len(questions)
                by_id[qid] = qi
                questions.append(Question(qid=qid, choices=choices))
            elif questions[qi].choices != choices:
                raise DataError(
                    f"{path}:{rowno}: question {qid!r} repeats with different choices"
                )
            answers.append((qi, voted - 1))

    if not answers:
        raise DataError(f"{path}: no answers")
    return VoteDataset(questions=questions, answers=answers)


def save_votes(votes: VoteDataset, cats: CategoryIndex, path: str):
    ms = {q.m for q in votes.questions}
    if len(ms) > 1:
        raise ValueError("CSV vote format requires a uniform choice count per file")
    m = ms.pop()
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["question_id"] + [f"choice_{i + 1}" for i in range(m)] + ["voted_index"])
        for qi, pos in votes.answers:
            q = votes.questions[qi]
            writer.writerow([q.qid] + [cats.names[c] for c in q.choices] + [pos + 1])


# ---------------------------------------------------------------------------
# menu vocabulary

METRICS = ("l1", "l2", "cosine", "kl", "js")
DISTRIBUTION_ONLY_METRICS = frozenset({"kl", "js"})
CRITERIA = ("conductance", "surprise")
