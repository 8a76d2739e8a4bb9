"""The package ships only what a stage or the benchmark runs.

A top-level function or class in ``src/catrank`` is live when the command
line entry point (``pyproject.toml``'s scripts), module-level code, the
benchmark (``benchmarks/``) or a live definition refers to it. What only
tests call belongs in the tests; ``tests/oracles.py`` holds the references.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _refs(tree, module):
    """(module, name) pairs the nodes under ``tree`` refer to: a name read in
    ``module``, ``mod.name``, ``from .mod import name``, and the benchmark's
    ``Target("mod", "name")`` trace targets."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
            out.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update((node.module.rsplit(".", 1)[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and all(
                isinstance(a, ast.Constant) and isinstance(a.value, str) for a in node.args[:2]):
            out.add((node.args[0].value, node.args[1].value.split(".")[0]))
    return out


def unreferenced_definitions(root: Path = ROOT) -> list[str]:
    """``module.name`` of every top-level function or class in the package
    that nothing live refers to."""
    package = root / "src" / "catrank"
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py"))}
    defs = {(m, node.name): node for m, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8")
    live = {(target.rsplit(".", 1)[-1], name)
            for target, name in re.findall(r'=\s*"catrank\.(\w+):(\w+)"', scripts)}
    for path in sorted((root / "benchmarks").glob("*.py")):
        live |= _refs(ast.parse(path.read_text(encoding="utf-8")), None)
    for m, tree in modules.items():
        for node in tree.body:
            if (m, getattr(node, "name", None)) not in defs:
                live |= _refs(node, m)
    reached = set()
    while grown := {d for d in defs if d in live} - reached:
        reached |= grown
        for d in grown:
            live |= _refs(defs[d], d[0])
    return sorted(f"{m}.{name}" for m, name in set(defs) - reached)


def test_every_package_definition_is_reached_from_a_stage_or_the_benchmark():
    unreferenced = unreferenced_definitions()
    assert not unreferenced, f"no stage or benchmark calls: {', '.join(unreferenced)}"


def test_the_guard_sees_a_function_only_tests_call(tmp_path):
    package = tmp_path / "src" / "catrank"
    package.mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "pyproject.toml").write_text(
        '[project.scripts]\ncatrank = "catrank.cli:main"\n', encoding="utf-8")
    (package / "cli.py").write_text(
        "from .core import used\n\n\ndef main():\n    return used()\n", encoding="utf-8")
    (package / "core.py").write_text(
        "def used():\n    return 1\n\n\ndef _helper():\n    return 2\n\n\n"
        "def wrapper():\n    return _helper()\n", encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == ["core._helper", "core.wrapper"]
