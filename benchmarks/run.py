"""Run one catrank benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload graph_embed --seed 1 --seconds 20 --trace 0

From the root of a checkout: generates the workload's planted inputs from
``--seed`` under ``.bench_work/``, measures set-up in fresh processes, then
runs the workload in one more fresh process for about ``--seconds`` of
passes and checks its outputs. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's environment, which is also kept with the result under
``.bench_out/``. Exits 2 without a result when the checkout has no
``src/catrank`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# All load comes from one process at a time; BLAS never adds threads, so
# compute threads stay at the workload's ``workers`` (at most 2).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "improved_accuracy": "ratio",
    "planted_precision": "ratio",
}


def adjusted(walls: list[float], refs: list[float]) -> float:
    """Median wall time scaled to the reference kernel's nominal speed.

    ``refs[i]`` and ``refs[i + 1]`` were measured just before and just after
    ``walls[i]``; each time is divided by their mean, see ``reference.py``.
    """
    from reference import NOMINAL_S

    return statistics.median(w / ((refs[i] + refs[i + 1]) / 2) for i, w in enumerate(walls)) \
        * NOMINAL_S


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _worker(mode: str, args, data: str, work: str, result: str, env: dict,
            spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--data", data,
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result]
    if spans:
        cmd += ["--spans", spans]
    with open(os.path.join(work, f"{mode}.log"), "a", encoding="utf-8") as log:
        proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=2 * args.seconds + 120, check=False)
    if proc.returncode != 0:
        with open(os.path.join(work, f"{mode}.log"), encoding="utf-8") as log:
            sys.stderr.write(log.read()[-4000:])
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "catrank", "__init__.py")):
        return _fail(f"no catrank package under {SRC}; run from a full checkout")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, HERE)
    import layers
    import planted
    from reference import ReferenceProcess

    if args.workload not in planted.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}, expected one of {planted.WORKLOADS}")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CATRANK_WORKERS", None)

    run_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    data, work = os.path.join(run_dir, "data"), os.path.join(run_dir, "work")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        t0 = time.perf_counter()
        truth = planted.generate(args.workload, args.seed, data)
        generate_s = time.perf_counter() - t0

        setup_samples, setup_refs = [], []
        if not args.trace:
            with ReferenceProcess() as ref:
                setup_refs.append(ref.time())
                for i in range(SETUP_SAMPLES):
                    t0 = time.perf_counter()
                    _worker("setup", args, data, work, os.path.join(run_dir, f"setup{i}.json"),
                            env)
                    setup_samples.append(time.perf_counter() - t0)
                    setup_refs.append(ref.time())
        res = _worker("run", args, data, work, os.path.join(run_dir, "run.json"), env,
                      spans=stem + ".spans.json")
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        return _fail(str(e))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = res.get("per_layer", {})
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = {"setup_s": adjusted(setup_samples, setup_refs),
                  "peak_rss_mb": res["peak_rss_mb"]}
        if res["walls"]:
            values["wall_s"] = adjusted(res["walls"], res["reference_walls"])
        for name in ("improved_accuracy", "planted_precision"):
            if name in res:
                values[name] = res[name]
        units = END_TO_END
    correct = res["failed"] == 0 and bool(res["walls"]) and set(values) == set(units)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": truth["sizes"], "generate_s": generate_s,
        "setup_samples_s": setup_samples, "setup_reference_s": setup_refs,
        "raw_setup_median_s": statistics.median(setup_samples) if setup_samples else None,
        "first_pass_s": res.get("first_wall"),
        "pass_walls_s": res["walls"], "reference_walls_s": res["reference_walls"],
        "raw_wall_median_s": statistics.median(res["walls"]) if res["walls"] else None,
        "traced_pass_walls_s": res["traced_walls"],
        "errors": res["errors"], "messages": res["messages"], **res["hygiene"],
    }
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
