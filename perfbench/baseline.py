#!/usr/bin/env python3
"""Run every workload over a range of seeds and summarize each metric.

Run from the repository root:

    python3 perfbench/baseline.py [--seeds 1 10] [--out perfbench/baseline.json]

Each seed gets one untraced run per workload, of the length BENCHMARK.json
sets. For every end-to-end metric the summary holds the values, their median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. One traced run per workload,
on the first seed, adds the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = json.loads(lines[-3])["environment"]
    return {"environment": env, **json.loads(lines[-1])}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            results.append(run_once(wl, seed, spec["run_seconds"], 0))
            print(f"{wl} seed {seed}: {json.dumps(results[-1]['metrics'])}", flush=True)
        traced = run_once(wl, seeds[0], spec["run_seconds"], 1)
        out["environment"] = {k: v for k, v in results[0]["environment"].items()
                              if k not in ("workload", "seed", "trace")}
        out["workloads"][wl] = {
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()},
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for wl, rows in out["workloads"].items():
        for name, row in rows["end_to_end"].items():
            flag = "" if name == "setup_s" or row["spread"] < row["bound"] / 3 else "  WIDE"
            print(f"{wl:8s} {name:12s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.3f} (bound {row['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
