"""Cold-process benchmark of fourweight's length-32 work.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src``.  Each job is one fresh process (``job.py``) that starts with the
program's caches empty.  Jobs run one after another, a closed loop with one
client, until S seconds have passed and at least two jobs have run.  Job i
takes its inputs from the seed and its batch number (i, or i // 2 in a
traced run, so that each traced job has the inputs of the untraced job
before it); the run thus covers several draws of inputs, and the median over
its jobs depends less on any one of them.

With ``--trace 0`` the last line of output reports the end-to-end metrics
declared in BENCHMARK.json, as medians over the jobs.  With ``--trace 1``
untraced and traced jobs alternate, and it reports the per-layer metrics as
medians over the traced jobs, with the tracing overhead.  Each run writes
its record, with every span, to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The whole run, jobs and reporting, must end within 180 s.
RUN_LIMIT_S = 165


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(workload: str, seed: int, batch: int, mode: str, run_id: str, timeout: float) -> dict | None:
    """One job in a fresh process (see job.py); None when it fails or runs out of time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(seed), str(batch), mode, repr(spawned), run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"job {run_id}: no result within {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"job {run_id}: exit {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fourweight" / "__init__.py").is_file():
        print("no src/fourweight here: run from the root of a fourweight checkout", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    load_at_start = os.getloadavg()[0]
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)

    start = time.monotonic()
    jobs: list[tuple[str, dict | None]] = []

    def job(mode: str) -> dict | None:
        batch = len(jobs) // 2 if args.trace else len(jobs)
        result = run_job(args.workload, args.seed, batch, mode, f"{args.workload}-{args.seed}-{len(jobs)}",
                         timeout=RUN_LIMIT_S - (time.monotonic() - start))
        jobs.append((mode, result))
        return result

    longest = 0.0
    while True:
        began = time.monotonic()
        if job("traced" if args.trace and len(jobs) % 2 else "plain") is None:
            break
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        # at least two jobs, so that no median rests on a single sample and
        # a traced run has an untraced job to compare with
        if elapsed >= args.seconds and len(jobs) >= 2:
            break
        if elapsed + 1.5 * longest > RUN_LIMIT_S:
            break

    done = [r for _, r in jobs if r is not None]
    per_job = max((len(r["checks"]) for r in done), default=1)
    attempted = sum(len(r["checks"]) if r else per_job for _, r in jobs)
    failed = sum(sum(not ok for _, ok in r["checks"]) if r else per_job for _, r in jobs)
    cold = all(r["cold"] for r in done)
    plain = [r for mode, r in jobs if r is not None and mode == "plain"]
    traced_jobs = [r for mode, r in jobs if r is not None and mode == "traced"]

    metrics: dict[str, float] = {}
    if plain and (traced_jobs or not args.trace):
        if args.trace:
            for name in declared:
                if name == "trace.overhead_ratio":
                    metrics[name] = statistics.median(r["wall_s"] for r in traced_jobs) / statistics.median(
                        r["wall_s"] for r in plain
                    )
                else:
                    metrics[name] = statistics.median(r["layers"][name] for r in traced_jobs)
        else:
            for name in declared:
                metrics[name] = statistics.median(r[name] for r in plain)

    meta = dict(jobs[0][1]["meta"]) if jobs[0][1] else {}
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), loadavg_1min_at_start=load_at_start, git_revision=git_revision(),
        jobs=len(jobs), plain_jobs=len(plain), traced_jobs=len(traced_jobs),
    )
    print("metadata: " + json.dumps(meta))
    for i, (mode, r) in enumerate(jobs):
        if r is None:
            print(f"job {i} ({mode}): FAILED")
            continue
        print(f"job {i} ({mode}): wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"cpu_s={r['cpu_s']:.4f} peak_rss_mib={r['peak_rss_mib']:.1f} checks={len(r['checks'])}")
        for name, ok in r["checks"]:
            if not ok:
                print(f"  FAILED check: {name}")
        for note in r["notes"]:
            print(f"  note: {note}")
    if not cold:
        print("caches were not empty at the start of a job: the run is not cold")
    absent = sorted({name for r in traced_jobs for name in r["absent"]})
    if absent:
        print("absent layers (reported with zero calls): " + ", ".join(absent))
    width = max(map(len, declared)) + 2
    for name in declared:
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}{shown:>14} {declared[name]}")
    print(f"{'fail_ratio':<{width}}{failed / attempted:>14.6g} ratio ({failed}/{attempted} answer checks)")

    record = {
        "meta": meta,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "jobs": [{k: v for k, v in (r or {}).items() if k != "spans"} | {"mode": mode} for mode, r in jobs],
        "spans": [s for r in traced_jobs for s in r["spans"]],
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    correct = failed == 0 and cold and len(metrics) == len(declared)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if len(metrics) == len(declared) else 1


if __name__ == "__main__":
    sys.exit(main())
