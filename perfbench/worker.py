"""One workload run in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per run, so every run pays its own
``import repro`` and set-up::

    python3 perfbench/worker.py --workload site_cache --seed 1 \\
        --horizon 50 --spawned-at <time.perf_counter() at spawn> [--trace]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this interpreter.  The clock is the system-wide monotonic clock,
so ``setup_s`` runs from interpreter start to the first simulated event.
The run phase is timed from the first simulated event to the horizon;
the drain and the checks after it are not timed.  ``--trace`` wraps the
kernel's entry points first (see ``spans.py``) and adds per-layer times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".perfbench_out"


def _import_repro_from_checkout():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"repro imported from {where}, not from {SRC}")
    return repro


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--horizon", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    _import_repro_from_checkout()
    from scenarios import WORKLOADS
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()

    w = WORKLOADS[args.workload](args.seed, args.horizon)
    t_build = time.perf_counter()
    w.build()
    plan_build_s = time.perf_counter() - t_build
    w.start_clients()
    wan0 = tracer.wan_bytes if tracer else 0
    t_first = time.perf_counter()
    w.run()
    t_horizon = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, failed = w.ops()
    wan_bytes = (tracer.wan_bytes - wan0) if tracer else 0

    failures = w.checks()
    out = {
        "workload": w.name, "seed": args.seed, "horizon_s": args.horizon,
        "traced": bool(args.trace),
        "setup_s": t_first - args.spawned_at,
        "plan_build_s": plan_build_s,
        "wall_s": t_horizon - t_first,
        "ok": ok, "failed": failed,
        "events": w.result.events,
        "peak_rss_mb": rss_mb,
        "disk_util": w.disk_utilization(),
        "model": w.model_metrics(),
        "exact": w.exact_counts(),
        "spec_sha256": w.spec_sha256(),
        "fingerprint": w.fingerprint(),
        "failures": failures,
    }
    if tracer is not None:
        out["trace"] = tracer.analyse(t_first, t_horizon)
        out["trace"]["wan_bytes"] = wan_bytes
        out["trace"]["spans_file"] = tracer.dump(
            os.path.join(OUT_DIR, f"spans-{w.name}"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
