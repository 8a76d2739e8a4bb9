"""One benchmark process: ingest, then run and check a workload's passes.

``run.py`` starts this script in a fresh interpreter for every set-up
sample (``--mode setup``: import and ingest, then exit) and once per run
(``--mode run``). The caller sets the environment: ``PYTHONPATH`` pointing
at the checkout's ``src`` and BLAS pinned to one thread. The result is
written as JSON to ``--result``; spans of a traced run go to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

T_START = time.perf_counter()

import catrank  # noqa: E402
import catrank.cli  # noqa: E402,F401  (imports every module the workloads use)

import layers  # noqa: E402
import workloads  # noqa: E402
from checks import Ledger, StageError  # noqa: E402
from reference import ReferenceProcess  # noqa: E402
from tracing import Tracer  # noqa: E402

T_IMPORTED = time.perf_counter()

MIN_PASSES = 3
MAX_PASSES = 200


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def hygiene(workers: int) -> dict:
    """What a result depends on besides the code: machine, versions, threads."""
    import numpy
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return None

    pkg = os.path.dirname(os.path.abspath(catrank.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "workers": workers,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "fresh_process": True,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "git_commit": _git_commit(os.path.dirname(os.path.dirname(pkg))),
        "source_sha256": digest.hexdigest(),
    }


def _ingest(w, tracer=None):
    if tracer is None:
        w.ingest()
        return
    with tracer:
        if w.name == "neighbor_scoring":
            with tracer.span("cli.ingest", "cli"):
                w.ingest()
        else:
            w.ingest()


def _same(outcome: dict, first: dict, ledger: Ledger):
    ledger.check("coherence", outcome["orders"] == first["orders"],
                 "rankings repeat the first pass exactly")
    ledger.check("evaluation",
                 (outcome["improved_accuracy"], outcome["planted_precision"])
                 == (first["improved_accuracy"], first["planted_precision"]),
                 "evaluation repeats the first pass exactly")


def _timed_pass(w, ledger, first, tracer=None) -> float:
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        outcome = w.run_pass(ledger)
    else:
        with tracer:
            outcome = w.run_pass(ledger, tracer)
    wall = time.perf_counter() - t0
    _same(outcome, first, ledger)
    return wall


def run(args) -> dict:
    w = workloads.WORKLOADS[args.workload](args.data, args.work, args.seed)
    targets = workloads.targets(w.input_lines(), w.window)
    ingest_tracer = Tracer(catrank, targets) if args.trace else None
    _ingest(w, ingest_tracer)
    if w.name == "neighbor_scoring":
        w.load_for_checks()

    ledger = Ledger()
    result = {"walls": [], "traced_walls": [], "reference_walls": []}
    extra: dict = {}
    traced = Tracer(catrank, targets) if args.trace else None
    try:
        capture = Tracer(catrank, targets, capture=w.capture)
        t0 = time.perf_counter()
        with capture:
            first = w.run_pass(ledger, capture)
        result["first_wall"] = time.perf_counter() - t0
        extra = w.check_first(first, capture.captured, ledger)
        del capture
        result.update(improved_accuracy=first["improved_accuracy"],
                      planted_precision=first["planted_precision"])
        walls, traced_walls, refs = (result["walls"], result["traced_walls"],
                                     result["reference_walls"])
        with ReferenceProcess() if traced is None else nullcontext() as ref:
            if ref is not None:
                refs.append(ref.time())
            while True:
                walls.append(_timed_pass(w, ledger, first))
                if ref is not None:
                    refs.append(ref.time())
                else:
                    traced_walls.append(_timed_pass(w, ledger, first, traced))
                spent = sum(walls) + sum(traced_walls)
                if ((len(walls) >= MIN_PASSES and spent >= args.seconds)
                        or len(walls) >= MAX_PASSES):
                    break
    except StageError:
        pass  # counted in the ledger; the run reports correct = false

    result.update(attempted=ledger.total_attempted, failed=ledger.total_failed,
                  errors=dict(ledger.errors), messages=ledger.messages[:50],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  import_s=T_IMPORTED - T_START, hygiene=hygiene(w.workers))
    if args.trace and result["traced_walls"]:
        result["per_layer"] = layers.per_layer(
            ingest_tracer, traced, len(result["traced_walls"]), ledger.errors, extra,
            result["traced_walls"], result["walls"])
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "count_s"],
                       "ingest": ingest_tracer.as_records(),
                       "passes": traced.as_records()}, f)
    return result


def setup(args) -> dict:
    w = workloads.WORKLOADS[args.workload](args.data, args.work, args.seed)
    t0 = time.perf_counter()
    w.ingest()
    return {"import_s": T_IMPORTED - T_START, "ingest_s": time.perf_counter() - t0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True, help="generated input directory")
    p.add_argument("--work", required=True, help="directory for outputs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans")
    args = p.parse_args(argv)
    result = setup(args) if args.mode == "setup" else run(args)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
