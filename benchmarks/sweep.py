"""Run every workload over several seeds and summarise each metric.

    python3 benchmarks/sweep.py --seeds 1-10 --out .bench_out/sweep.json
    python3 benchmarks/sweep.py --seeds 1 --trace      # one traced run each

Each run is ``benchmarks/run.py`` in its own process, one at a time, for
every workload in ``BENCHMARK.json`` at its ``run_seconds``. For every
workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median, and
flags a spread above a third of the metric's bound; it also prints the
spreads of the unadjusted wall and set-up times. With
``--trace`` it prints each layer's self time per pass and names the
dominant layer. Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict] | None:
    """One run's (record, result), or None if it failed to produce them."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", action="store_true", help="traced runs, per-layer metrics")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    summary: dict = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, records = [], []
        for seed in _seeds(args.seeds):
            out = _run(workload, seed, int(args.trace))
            if out is None or not out[1]["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED {out and out[1]}", flush=True)
                continue
            record, res = out
            records.append(record)
            runs.append(res)
            print(f"{workload} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']}", flush=True)
        if not runs:
            continue
        names = list(runs[0]["metrics"])
        summary[workload] = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in names
        }
        print(f"\n{workload}")
        if args.trace:
            layers = {k: v["median"] for k, v in summary[workload].items()
                      if k.endswith(".self_s")}
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
                print(f"  {k:28s} {v:10.4f} s/pass")
            print(f"  dominant layer: {max(layers, key=layers.get).split('.')[0]}")
            continue
        for name, s in summary[workload].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread > bound/3)"
            print(f"  {name:18s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}{flag}")
        # the same times before the machine-speed adjustment, for comparison
        for name, key in (("wall_s", "raw_wall_median_s"), ("setup_s", "raw_setup_median_s")):
            raw = summarise([r[key] for r in records])
            summary[workload][f"raw_{name}"] = dict(raw, unit="s")
            print(f"  {'raw ' + name:18s} median {raw['median']:<12.6g} spread "
                  f"{raw['spread']:.4f} s (unadjusted)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
