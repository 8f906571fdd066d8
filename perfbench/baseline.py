"""Run every workload over two sets of seeds and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Run from the root of a checkout.  For each set of seeds and each workload
it runs ``run.py --trace 0`` once per seed, then ``run.py --trace 1`` on the
set's first seed.  Each end-to-end metric gets, per set, the median over
the seeds and its spread: the distance between the first and third
quartiles as a share of the median.

It exits with 1 when a spread is not below a third of the metric's bound,
or when the second set's median is worse than the first's by more than the
bound.  The file is written either way.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = (list(range(1, 11)), list(range(11, 21)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("metadata: "))[len("metadata: "):])
    return meta, json.loads(lines[-1])


def measure(workload: str, seeds: list[int], spec: dict) -> dict:
    """One set: the end-to-end metrics over the seeds, and one traced run."""
    values: dict[str, list[float]] = {}
    runs = []
    for seed in seeds:
        meta, result = run(workload, seed, spec["run_seconds"], 0)
        runs.append({"meta": meta, "result": result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    end_to_end = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        end_to_end[name] = {"median": median, "spread": (q3 - q1) / median, "values": xs}
    meta, traced = run(workload, seeds[0], spec["run_seconds"], 1)
    return {
        "seeds": seeds,
        "end_to_end": end_to_end,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "per_layer_seed": seeds[0],
        "correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
        "metadata": [r["meta"] for r in runs] + [meta],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [measure(workload, seeds, spec) for seeds in SETS]
        out["workloads"][workload] = sets
        for name, bound in bounds.items():
            first, second = (s["end_to_end"][name] for s in sets)
            change = second["median"] / first["median"] - 1
            ok = all(s["spread"] < bound / 3 for s in (first, second)) and change <= bound
            steady &= ok
            print(f"  {workload} {name}: spreads {first['spread']:.4f} {second['spread']:.4f}, "
                  f"second median {change:+.4f} (bound {bound})"
                  f"{'' if ok else '  NOT steady'}", flush=True)
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
