"""One job of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` as
``python3 perfbench/job.py WORKLOAD SEED BATCH MODE SPAWNED RUN_ID``.
SEED and BATCH together choose the job's inputs.  MODE is ``plain`` or
``traced``.  SPAWNED is the parent's ``time.monotonic()`` just before the
start, so that ``setup_s`` covers interpreter start, imports and input
generation.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cold(notes: list[str]) -> bool:
    """Whether the program's canonical-form and table-code caches are empty."""
    cold = True
    for module, attr in (("fourweight.canonical", "_canonicalize"), ("fourweight.catalog", "load_code")):
        info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
        if info is None:
            notes.append(f"cache check skipped: {module}.{attr} has no cache_info")
        elif info().currsize:
            notes.append(f"{module}.{attr} cache is not empty")
            cold = False
    return cold


def main(workload: str, seed: int, batch: int, mode: str, spawned: float, run_id: str) -> dict:
    import fourweight
    import numpy

    notes: list[str] = []
    cold = _cold(notes)
    from workloads import WORKLOADS

    job = WORKLOADS[workload]()
    meta = job.setup(seed, batch)
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    first_call = time.monotonic()
    t0 = time.perf_counter()
    job.run()
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    checks = job.checks()

    backend = sys.modules.get("fourweight.backend")
    meta.update(
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        backend=backend.backend_name() if hasattr(backend, "backend_name") else "unknown",
        fourweight=getattr(fourweight, "__version__", "unknown"),
    )
    result = {
        "setup_s": first_call - spawned,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024,
        "cold": cold,
        "checks": checks,
        "meta": meta,
        "notes": notes,
    }
    if tracer is not None:
        from spans import summarize

        result["layers"] = summarize(tracer.spans, wall_s)
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    name, seed, batch, mode, spawned, run_id = sys.argv[1:7]
    out = main(name, int(seed), int(batch), mode, float(spawned), run_id)
    sys.stdout.write(json.dumps(out) + "\n")
