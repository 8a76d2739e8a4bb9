"""catrank runs on numpy alone: no stage imports scipy, and every stage
gives the same bytes with scipy made unimportable."""

import json
import os
import subprocess
import sys

import numpy as np

import catrank
from catrank.evaluation import _EXACT_HARD_CAP
from conftest import random_simplex

# the child imports the package the test imported, installed or not
_SRC = os.path.dirname(os.path.dirname(catrank.__file__))
_ENV = dict(os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))

_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

_STAGES = [
    ["ingest", "--graph", "edges.tsv", "--categories", "cats.tsv", "--votes", "votes.csv",
     "--out-dir", "work"],
    ["walk", "--graph", "work/graph.json", "--walks-per-vertex", "2", "--walk-length", "6",
     "--out", "walks.txt"],
    ["embed", "--graph", "work/graph.json", "--walks", "walks.txt", "--dim", "4",
     "--window", "2", "--out", "features.tsv"],
    ["knn", "--features", "dist.tsv", "--metric", "kl", "--k", "4", "--out", "nb_kl.tsv"],
    ["knn", "--features", "dist.tsv", "--metric", "js", "--k", "4", "--out", "nb_js.tsv"],
    ["coherence", "--neighbors", "nb_js.tsv", "--categories", "work/categories.json",
     "--out", "scores.csv"],
    ["rank", "--neighbors", "nb_kl.tsv", "--categories", "work/categories.json",
     "--criterion", "surprise", "--out", "ranking.csv"],
    ["evaluate", "--ranking", "ranking.csv", "--votes", "work/votes.csv",
     "--categories", "work/categories.json", "--out", "evaluation.json"],
    ["report", "top", "--ranking", "ranking.csv", "--categories", "work/categories.json",
     "--out", "top.csv"],
]


def _write_inputs(root, n_cats=24, size=5):
    """A ring of ``n_cats`` 5-cliques, one category per clique, distribution
    features near each clique's own prototype, and four-choice votes over
    all ``n_cats`` categories (more than the subset DP takes)."""
    n = n_cats * size
    edges = [(b + i, b + j) for b in range(0, n, size)
             for i in range(size) for j in range(size) if i != j]
    edges += [(b, (b + size) % n) for b in range(0, n, size)]
    (root / "edges.tsv").write_text("".join(f"e{u}\te{v}\n" for u, v in edges), encoding="utf-8")
    (root / "cats.tsv").write_text(
        "".join(f"e{v}\tc{v // size}\n" for v in range(n)), encoding="utf-8")
    rng = np.random.default_rng(5)
    rows = 0.3 * random_simplex(rng, n, 8) + 0.7 * random_simplex(rng, n_cats, 8)[
        np.arange(n) // size]
    (root / "dist.tsv").write_text(
        f"{n} 8 distribution\n"
        + "".join(f"e{v}\t" + " ".join(map(repr, row.tolist())) + "\n"
                  for v, row in enumerate(rows)), encoding="utf-8")
    votes = ["question_id,choice_1,choice_2,choice_3,choice_4,voted_index"]
    for q in range(3 * n_cats):
        choices = rng.choice(n_cats, 4, replace=False)
        for voted in rng.integers(1, 5, 3).tolist():
            votes.append(f"q{q}," + ",".join(f"c{c}" for c in choices) + f",{voted}")
    (root / "votes.csv").write_text("\n".join(votes) + "\n", encoding="utf-8")


def _run_stages(cwd, block):
    """Exit codes of every stage, run in one child process in ``cwd``."""
    script = (_BLOCK_SCIPY if block else "") + (
        "import json, sys\n"
        "from catrank.cli import main\n"
        f"print(json.dumps([main(argv) for argv in {_STAGES!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _outputs(root):
    """Every file the stages wrote, manifests without their wall-clock time."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            if name.endswith("manifest.json"):
                manifest = json.loads(data)
                manifest.pop("wall_clock_s")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[os.path.relpath(path, root)] = data
    return files


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, catrank.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_stage_runs_and_matches_with_scipy_blocked(tmp_path):
    runs = {}
    for mode in ("blocked", "free"):
        root = tmp_path / mode
        root.mkdir()
        _write_inputs(root)
        assert _run_stages(root, block=mode == "blocked") == [0] * len(_STAGES)
        runs[mode] = _outputs(root)
    assert runs["blocked"] == runs["free"]
    assert set(runs["blocked"]) >= {
        "walks.txt", "features.tsv", "nb_kl.tsv", "nb_js.tsv", "scores.csv",
        "ranking.csv", "evaluation.json", "top.csv", os.path.join("work", "graph.json")}
    # more vote categories than the subset DP takes, so the heuristic and
    # its strongly connected components ran
    votes = (tmp_path / "blocked" / "votes.csv").read_text().splitlines()[1:]
    assert len({c for line in votes for c in line.split(",")[1:5]}) > _EXACT_HARD_CAP
