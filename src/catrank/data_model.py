"""Core domain types, file ingestion and persistence for the pipeline.

External formats (each line format but neighbor lists skips blank lines and
``#`` comments, see ``text_lines``):
  graph       UTF-8 TSV edge list ``src<TAB>dst``
  categories  UTF-8 TSV ``entity<TAB>category``
  features    text header ``n<SP>dim<SP>kind`` then rows
              ``entity<TAB>v1 v2 ... vdim``; alternative binary format of
              little-endian float32, row-major, with a ``<path>.json``
              sidecar mapping entity id to row
  votes       UTF-8 CSV with header, ``question_id,choice_1,...,choice_m,
              voted_index`` (1-based voted index, any ``int()`` spelling;
              cells stripped), refused where its first bad record ends

In memory, id rows (adjacency, category members, neighbor lists) are one
``CSR`` layout, and a vote set is one ``VoteDataset`` array layout that
the evaluation kernels read as it is. Every loaded structure is immutable
by convention once built and safe to share across parallel workers.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import DataError

FEATURE_KINDS = ("point", "distribution")

# Distribution rows whose sum strays further than this from 1 are rejected
# rather than silently renormalized.
DISTRIBUTION_SUM_TOLERANCE = 1e-3
# Rows already normalized this tightly are left untouched so that
# save/load round trips are bit-identical.
_RENORMALIZE_GATE = 1e-12
# Vote records checked per array pass: only this many hold their cells as
# text at once.
_VOTE_CHUNK = 256


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


def text_lines(path: str):
    """``(line number, stripped text)`` for each content line of a UTF-8
    text file: every line that is neither blank nor a ``#`` comment. Every
    line format the package reads goes through here, except neighbor lists,
    which keep their own grammar."""
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line and line[0] != "#":
                yield lineno, line


def csv_records(path: str, what: str):
    """The header of a UTF-8 CSV file, then ``(line, record)`` for each
    non-blank record, where line is the one the record ends on. DataError
    ``empty <what>`` for an empty file, and at a record whose cell count
    differs from the header's."""
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty {what}")
        yield header
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} "
                                f"columns, got {len(row)}")
            yield reader.line_num, row


def csv_text(header: list[str], rows) -> str:
    """CSV text with minimal quoting and ``\\n`` line ends; None is an
    empty cell and Python floats keep their shortest round-trip form. Every
    CSV the package writes is made here."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def write_json(path: str, payload, compact: bool = False):
    """Every JSON file the package writes: ``compact`` without spaces and in
    the payload's key order, otherwise indented by 2 with sorted keys and a
    final newline."""
    # json.dump would stream through the pure-Python encoder, not the C one
    text = (json.dumps(payload, separators=(",", ":")) if compact
            else json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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


def check_names(names: list[str], where):
    """DataError ``<where(i)> <name> <why>`` at the first ``names[i]`` that
    cannot be an entity id or category name. Text formats split at TABs and
    line ends, strip cells and skip ``#`` lines, so a name is non-empty, does
    not start with ``#``, holds no TAB or line break and has no surrounding
    whitespace."""
    for i, name in enumerate(names):
        if not name:
            why = "is empty"
        elif name[0] == "#":
            why = "starts with '#'"
        elif "\t" in name or "\n" in name or "\r" in name:
            why = "holds a TAB or a line break"
        elif name != name.strip():
            why = "has surrounding whitespace"
        else:
            continue
        raise DataError(f"{where(i)} {name!r} {why}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_name_list(value) -> bool:
    """A list of distinct strings."""
    return (isinstance(value, list) and all(isinstance(s, str) for s in value)
            and len(set(value)) == len(value))


def _index_lists(raw, count: int, where: str) -> "CSR":
    """``count`` JSON lists of int64 integers, not booleans, as CSR rows."""
    if not isinstance(raw, list) or len(raw) != count:
        raise DataError(f"{where}: expected {count} lists")
    if all(type(values) is list for values in raw):
        flat = list(chain.from_iterable(raw))
        try:
            if set(map(type, flat)) <= {int}:
                lengths = np.fromiter(map(len, raw), dtype=np.int64, count=count)
                return CSR(indptr=np.concatenate(([0], np.cumsum(lengths))),
                           indices=np.fromiter(flat, dtype=np.int64, count=len(flat)))
        except OverflowError:  # an id past int64
            pass
    i = next(i for i, values in enumerate(raw) if type(values) is not list
             or not all(type(v) is int and -2**63 <= v < 2**63 for v in values))
    raise DataError(f"{where}[{i}]: expected a list of integers")


def _read_pairs(path: str, form: str) -> tuple[list[str], list[str]]:
    """The two stripped cells of each ``a<TAB>b`` content line of a UTF-8
    TSV file. ``form`` names the columns in the DataError a malformed line
    raises."""
    left: list[str] = []
    right: list[str] = []
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}:{lineno}: expected '{form}', got {line!r}")
        left.append(parts[0].strip())
        right.append(parts[1].strip())
    return left, right


def _line_holding(path: str, name: str) -> str:
    """``path:line:`` of the first content line with the cell ``name``."""
    return next(f"{path}:{lineno}:" for lineno, line in text_lines(path)
                if name in [cell.strip() for cell in line.split("\t")])


def _codes(names: list[str], index: dict[str, int]) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _codes_or(names: list[str], index: dict[str, int], miss) -> np.ndarray:
    """``_codes``, where a name ``index`` misses is coded ``miss(name)``."""
    try:
        return _codes(names, index)
    except KeyError:
        return np.fromiter((index[s] if s in index else miss(s) for s in names),
                           dtype=np.int64, count=len(names))


# ---------------------------------------------------------------------------
# compressed sparse rows


@dataclass
class CSR:
    """Rows of int64 ids in compressed sparse row layout: row i is
    ``indices[indptr[i]:indptr[i + 1]]``. The one layout of graph adjacency,
    category members and neighbor lists."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_lists(cls, rows) -> "CSR":
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        return cls(indptr=np.concatenate(([0], np.cumsum(lengths))),
                   indices=np.concatenate(rows) if rows else np.zeros(0, np.int64))

    @classmethod
    def from_keys(cls, keys: np.ndarray, n_rows: int, n_cols: int) -> "CSR":
        """Rows from sorted ``row * n_cols + col`` keys."""
        rows, cols = np.divmod(keys, n_cols)
        return cls(indptr=np.searchsorted(rows, np.arange(n_rows + 1)), indices=cols)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __iter__(self):
        bounds = self.indptr.tolist()
        return (self.indices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def owners(self) -> np.ndarray:
        """The row of each entry of ``indices``."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def check(self, n: int, name: str, no_self: bool = False):
        """DataError unless every id lies in [0, n), every row is strictly
        increasing and, with ``no_self``, no row i holds i; reported in that
        order, as ``name: index j outside [0, n)`` or ``name[i]: why``."""
        flat = self.indices
        bad = (flat < 0) | (flat >= n)
        if bad.any():
            raise DataError(f"{name}: index {int(flat[bad.argmax()])} outside [0, {n})")
        owner = self.owners()
        bad = (np.diff(flat) <= 0) & (owner[1:] == owner[:-1])
        if bad.any():
            raise DataError(f"{name}[{int(owner[bad.argmax()])}]: entity ids are not "
                            "sorted and unique")
        bad = flat == owner
        if no_self and bad.any():
            raise DataError(f"{name}[{int(owner[bad.argmax()])}]: self-loop")


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
    each adjacency row sorted and unique, without the vertex itself."""

    ids: list[str]
    adjacency: CSR
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.ids)}

    @property
    def n_entities(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.adjacency.indices)

    def validate(self):
        n = self.n_entities
        if len(self.adjacency) != n:
            raise DataError("adjacency length does not match entity count")
        if len(self.index) != n:
            raise DataError("id map is not a bijection")
        self.adjacency.check(n, "adjacency", no_self=True)

    def save(self, path: str):
        write_json(path, {"ids": self.ids, "adjacency": [a.tolist() for a in self.adjacency]},
                   compact=True)

    @classmethod
    def load(cls, path: str) -> "EntityGraph":
        payload = read_json_object(path, ("ids", "adjacency"))
        ids = payload["ids"]
        if not _is_name_list(ids):
            raise DataError(f"{path}: 'ids' must be a list of distinct strings")
        check_names(ids, lambda i: f"{path}: ids[{i}]")
        adjacency = _index_lists(payload["adjacency"], len(ids), f"{path}: adjacency")
        graph = cls(ids=ids, adjacency=adjacency)
        try:
            graph.validate()
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        return graph


def load_graph(path: str, symmetrize: bool = False):
    """Ingest a TSV edge list into an EntityGraph.

    Ids are numbered in order of first appearance. Duplicate edges are
    deduplicated and self-loops dropped (both counted in the returned
    report). ``symmetrize`` adds the reverse of every retained edge. Returns
    ``(graph, GraphLoadReport)``.
    """
    src, dst = _read_pairs(path, "src<TAB>dst")
    ends = [s for edge in zip(src, dst) for s in edge]
    ids = list(dict.fromkeys(ends))
    if not ids:
        raise DataError(f"{path}: empty graph")
    check_names(ids, lambda i: _line_holding(path, ids[i]))
    index = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    u, v = _codes(ends, index).reshape(-1, 2).T
    loop = u == v
    raw = u[~loop] * n + v[~loop]
    keys = np.unique(raw)
    n_dup = len(raw) - len(keys)
    if symmetrize:
        keys = np.union1d(keys, keys % n * n + keys // n)
    graph = EntityGraph(ids=ids, adjacency=CSR.from_keys(keys, n, n), index=index)
    report = GraphLoadReport(
        n_entities=graph.n_entities,
        n_edges=graph.n_edges,
        n_self_loops_dropped=int(loop.sum()),
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
    """Category -> member entities, each member row sorted and unique."""

    names: list[str]
    members: CSR
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
        self.members.check(self.n_entities, "members")

    def save(self, path: str):
        write_json(path, {"n_entities": self.n_entities, "names": self.names,
                          "members": [m.tolist() for m in self.members]}, compact=True)

    @classmethod
    def load(cls, path: str) -> "CategoryIndex":
        payload = read_json_object(path, ("n_entities", "names", "members"))
        n, names = payload["n_entities"], payload["names"]
        if not _is_count(n):
            raise DataError(f"{path}: 'n_entities' must be a nonnegative integer")
        if not _is_name_list(names):
            raise DataError(f"{path}: 'names' must be a list of distinct strings")
        check_names(names, lambda i: f"{path}: names[{i}]")
        members = _index_lists(payload["members"], len(names), f"{path}: members")
        cats = cls(names=names, members=members, n_entities=n)
        try:
            cats.validate()
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        return cats


def load_categories(path: str, graph: EntityGraph):
    """Ingest ``entity<TAB>category`` assignments against a loaded graph.

    Categories are numbered in order of first appearance. Assignments for
    entities absent from the graph are skipped and counted. Returns
    ``(CategoryIndex, CategoryLoadReport)``.
    """
    ents, labels = _read_pairs(path, "entity<TAB>category")
    e = np.fromiter((graph.index.get(s, -1) for s in ents), dtype=np.int64, count=len(ents))
    known = e >= 0
    labels = [c for c, k in zip(labels, known.tolist()) if k]
    names = list(dict.fromkeys(labels))
    check_names(names, lambda i: _line_holding(path, names[i]))
    cat_index = {s: i for i, s in enumerate(names)}
    raw = _codes(labels, cat_index) * graph.n_entities + e[known]
    keys = np.unique(raw)
    if len(keys) == 0:
        raise DataError(f"{path}: no category assignment matched a graph entity")
    cats = CategoryIndex(names=names, members=CSR.from_keys(keys, len(names), graph.n_entities),
                         n_entities=graph.n_entities, index=cat_index)
    report = CategoryLoadReport(
        n_assignments=len(keys),
        n_skipped_unknown_entities=len(ents) - len(labels),
        n_duplicate_assignments=len(raw) - len(keys),
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


def load_features(path: str, kind: str | None, graph: EntityGraph | None) -> FeatureMatrix:
    """Read a feature file, text or binary (a ``<path>.json`` sidecar next to
    the file switches to the binary format). Rows must be finite;
    distribution rows must be nonnegative and are renormalized to sum 1.

    With a graph, rows are aligned to graph dense order and every graph
    entity must appear exactly once; with None they stay in file order,
    which must hold the rows the header declares. The file must declare
    ``kind``; None takes the kind it declares."""
    if kind not in FEATURE_KINDS + (None,):
        raise ValueError(f"feature kind must be one of {FEATURE_KINDS} or None, got {kind!r}")
    if os.path.exists(path + ".json"):
        rows, ids, declared, n = _parse_features_binary(path)
    else:
        rows, ids, declared, n = _parse_features_text(path)
    if not np.all(np.isfinite(rows)):
        bad = int(np.argwhere(~np.isfinite(rows))[0][0])
        raise DataError(f"{path}: non-finite component in row {bad}")
    if declared == "distribution":
        _normalize_distribution_rows(rows, path)
    if kind not in (None, declared):
        raise DataError(f"{path}: requested kind {kind!r} but file declares {declared!r}")
    if graph is None:
        if len(ids) != n:
            raise DataError(f"{path}: header declares {n} rows, found {len(ids)}")
        if not ids:
            raise DataError(f"{path}: no feature rows")
        return FeatureMatrix(kind=declared, rows=rows)
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
    return FeatureMatrix(kind=declared, rows=rows[row_of])


def _parse_features_text(path: str):
    lines = text_lines(path)
    lineno, header = next(lines, (0, None))
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
    for lineno, line in lines:
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
    check_names(ids, lambda i: f"{sidecar}: ids[{i}]")
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
    write_json(path + ".json", meta, compact=True)


# ---------------------------------------------------------------------------
# vote dataset


@dataclass
class VoteDataset:
    """Multiple-choice questions over categories plus individual answers,
    held as arrays.

    Question q is ``qids[q]`` with the category ids ``choices[q]``: a
    (questions, m) matrix, since a vote file's header fixes one choice count
    m for every question. Answer a voted the choice at position ``voted[a]``
    of question ``question[a]``, both 0-based.
    """

    qids: list[str]
    choices: np.ndarray
    question: np.ndarray
    voted: np.ndarray

    @classmethod
    def from_lists(cls, qids: list[str], choice_lists, answers) -> "VoteDataset":
        """The layout of one choice list per question, all of one length, and
        ``(question position, voted position)`` answers."""
        if len({len(c) for c in choice_lists}) != 1:
            raise ValueError("every question of a vote set needs the same number of choices")
        answers = np.array(answers, dtype=np.int64).reshape(-1, 2)
        return cls(qids=list(qids), choices=np.array(choice_lists, dtype=np.int64),
                   question=answers[:, 0], voted=answers[:, 1])

    @property
    def m(self) -> int:
        """The choice count of every question."""
        return self.choices.shape[1]

    @property
    def n_answers(self) -> int:
        return len(self.question)


def load_votes(path: str, cats: CategoryIndex) -> VoteDataset:
    """Ingest the vote CSV; choice columns carry category names. Records are
    read once, ``_VOTE_CHUNK`` at a time, into arrays and checked there: a
    voted index may be any spelling ``int()`` reads as 1..m, and question ids
    and names are compared after stripping surrounding spaces. DataError at
    the line where the first bad record ends, worded by reading that record
    again; a CSV syntax or cell-count error later in the file loses to it."""
    records = csv_records(path, "vote file")
    m = len(next(records)) - 2
    if m < 2:
        raise DataError(f"{path}: header must carry at least 2 choice columns")
    positions = {str(i + 1): i for i in range(m)}
    number: dict[str, int] = {}

    def position(cell: str) -> int:  # -1 unless int() reads it as 1..m
        try:
            at = int(cell) - 1
        except ValueError:
            return -1
        return at if 0 <= at < m else -1

    def arrays(rows):
        return (np.fromiter((number.setdefault(row[0].strip(), len(number)) for row in rows),
                            np.int64, len(rows)),
                _codes_or(list(chain.from_iterable(row[1:-1] for row in rows)), cats.index,
                          lambda name: cats.index.get(name.strip(), -1)).reshape(-1, m),
                _codes_or([row[-1] for row in rows], positions, position))

    parts, rows, late = [], [], None
    try:
        for _, row in records:
            rows.append(row)
            if len(rows) == _VOTE_CHUNK:
                parts.append(arrays(rows))
                rows = []
    except DataError as e:
        late = e
    parts.append(arrays(rows))
    question, choices, voted = (np.concatenate(part) for part in zip(*parts))
    first = np.unique(question, return_index=True)[1]  # each question's first record
    # a record's checks, in the order they run on it
    checks = (voted < 0, choices < 0, np.diff(np.sort(choices, axis=1)) == 0,
              choices != choices[first][question])
    if any(map(np.any, checks)):
        bad = np.column_stack([c.reshape(len(voted), -1).any(axis=1) for c in checks])
        at, check = divmod(int(bad.argmax()), len(checks))
        lineno, row = next(islice(csv_records(path, "vote file"), at + 1, None))
        if check == 0:
            try:
                why = f"voted index {int(row[-1])} outside [1, {m}]"
            except ValueError:
                why = "voted index is not an integer"
        elif check == 1:
            name = next(c.strip() for c in row[1:-1] if c.strip() not in cats.index)
            why = f"unknown category {name!r}"
        elif check == 2:
            why = "duplicate categories in choices"
        else:
            why = f"question {row[0].strip()!r} repeats with different choices"
        raise DataError(f"{path}:{lineno}: {why}")
    if late is not None:
        raise late
    if not len(question):
        raise DataError(f"{path}: no answers")
    return VoteDataset(qids=list(number), choices=choices[first], question=question, voted=voted)


def save_votes(votes: VoteDataset, cats: CategoryIndex, path: str):
    names = [[cats.names[c] for c in row] for row in votes.choices.tolist()]
    text = csv_text(
        ["question_id"] + [f"choice_{i + 1}" for i in range(votes.m)] + ["voted_index"],
        ([votes.qids[qi]] + names[qi] + [pos + 1]
         for qi, pos in zip(votes.question.tolist(), votes.voted.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# menu vocabulary

METRICS = ("l1", "l2", "cosine", "kl", "js")
DISTRIBUTION_ONLY_METRICS = frozenset({"kl", "js"})
CRITERIA = ("conductance", "surprise")
