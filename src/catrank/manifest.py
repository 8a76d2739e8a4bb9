"""Run manifests: every pipeline output ships with one for reproducibility.

Two runs of the same command are byte-identical in deterministic modes; the
manifests then differ only in the wall_clock_s field.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .data_model import write_json


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def write_manifest(path: str, command: str, parameters: dict, inputs: list[str],
                   outputs: list[str], seed: int | None, wall_clock_s: float):
    payload = {
        "tool": "catrank",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": {p: file_digest(p) for p in inputs},
        "outputs": {p: file_digest(p) for p in outputs},
        "seed": seed,
        "wall_clock_s": wall_clock_s,
    }
    write_json(path, payload)
