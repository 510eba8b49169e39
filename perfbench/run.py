"""Scenario benchmark: the host cost of three declared workloads.

Run every workload, untraced and then traced, and print a table::

    python3 perfbench/run.py [--seed N] [--seconds S]

Run one workload, the interface BENCHMARK.json declares::

    python3 perfbench/run.py --workload site_cache --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` makes ``RUNS`` untraced runs and reports the end-to-end
metrics as medians over them.  ``--trace 1`` makes one untraced run and
one traced run and reports the per-layer metrics.  Each run is a fresh
interpreter (``worker.py``), started one at a time.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (scenario
runs made), ``failed`` (runs that failed a check) and ``metrics``.  The
exit code is non-zero when any correctness check fails.

``--seconds`` sizes the simulated horizon of each run so that the
measured run phases together take about that long on a 2-core x86 host
(Python 3.11); the horizon depends only on ``--seconds``, never on the
host, so the same arguments give the same inputs.  Result files,
manifests and span dumps go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"

WORKLOADS = ("site_cache", "geo_partition", "fluid_megascale")
DEFAULT_SEED = 2002
#: Untraced runs per ``--trace 0`` invocation; end-to-end values are
#: their medians.
RUNS = 3
#: Simulated seconds one host second covers, per workload, measured on a
#: 2-core x86 host with Python 3.11.  They size the work only.
SIM_S_PER_HOST_S = {"site_cache": 15.0, "geo_partition": 114.0,
                    "fluid_megascale": 880.0}
#: Wall-clock limit for one invocation, all of its worker processes
#: included.
DEADLINE_S = 170.0

with open(os.path.join(HERE, "metrics.json")) as _fh:
    CATALOG = json.load(_fh)


def horizon_s(workload: str, seconds: float) -> float:
    return round(SIM_S_PER_HOST_S[workload] * seconds / RUNS, 3)


class WorkerError(RuntimeError):
    """A worker process crashed or printed no result."""


def run_worker(workload: str, seed: int, horizon: float, traced: bool,
               deadline: float) -> dict:
    """One run in a fresh interpreter, started and awaited here; it is
    killed at ``deadline`` (a ``time.perf_counter()`` value)."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--horizon", repr(horizon)]
    if traced:
        cmd.append("--trace")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: run exceeded the {DEADLINE_S:g} s "
                          "deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = [ln for ln in proc.stderr.splitlines()
                if not ln.startswith("import time:")][-20:]
        raise WorkerError(f"{workload}: worker exited {proc.returncode}:\n"
                          + "\n".join(tail))
    result = json.loads(lines[-1])
    if traced:
        result["imports"] = import_times(proc.stderr)
    return result


def import_times(stderr: str) -> dict[str, float]:
    """Seconds per top-level package from ``-X importtime`` output.

    A package's time is the cumulative time of every import of it that is
    not nested in the same package: what it takes to import it, including
    the packages it imports first.  So numpy counts in numpy_s and also
    in scipy_s when scipy imports it first.  ``total`` sums the imports
    that are nested in nothing."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip().split(".")[0],
                     int(fields[1]) / 1e6))
    totals = {"total": 0.0, "scipy": 0.0, "networkx": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    # Children print before their parent, so walk backwards: each row's
    # parent is then the nearest shallower row already seen.
    for depth, top, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if parent is None:
            totals["total"] += cumulative
        if top in totals and parent != top:
            totals[top] += cumulative
        stack.append((depth, top))
    return totals


# -- metrics -------------------------------------------------------------------


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """Medians over the untraced runs; the op ratios are deterministic,
    so they come from the first run."""
    med = statistics.median
    ok, failed = runs[0]["ok"], runs[0]["failed"]
    done = max(ok + failed, 1)
    return {
        "wall_s": med(r["wall_s"] for r in runs),
        "ops_per_s": med(r["ok"] / r["wall_s"] for r in runs),
        "setup_s": med(r["setup_s"] for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "op_ok_ratio": ok / done,
        "op_fail_ratio": failed / done,
    }


def per_layer(untraced: list[dict], traced: dict) -> dict[str, float]:
    base = untraced[0]
    trace = traced["trace"]
    wall = trace["wall_s"]
    wall_untraced = statistics.median(r["wall_s"] for r in untraced)
    model = dict.fromkeys(("model.read_p50_ms", "model.read_p99_ms",
                           "model.write_p99_ms", "model.iter_p95_ms",
                           "model.fluid_latency_ms"), 0.0)
    model.update(base["model"])
    exact = base["exact"]
    out = {f"import.{k}_s": v for k, v in traced["imports"].items()}
    out.update({
        "plan.build_s": base["plan_build_s"],
        "sim.events": base["events"],
        "sim.events_per_op": base["events"] / max(base["ok"], 1),
        "sim.us_per_event": 1e6 * base["wall_s"] / base["events"],
        "cache.resumes": trace["resumes"]["cache"],
        "cache.read_hit_ratio": exact.get("cache.read_hit_ratio", 0.0),
        "cache.absorbed_blocks": exact.get("cache.absorbed_blocks", 0.0),
        "cache.destaged_blocks": exact.get("cache.destaged_blocks", 0.0),
        "hardware.resumes": trace["resumes"]["hardware"],
        "hardware.disk_ops": trace["calls"].get("hardware.disk", 0),
        "hardware.disk_util": base["disk_util"],
        "raid.calls": trace["calls"].get("raid", 0),
        "geo.pump_resumes": trace["pump_resumes"],
        "geo.pump_transfer_ratio": (trace["pump_transfers"]
                                    / trace["pump_resumes"]
                                    if trace["pump_resumes"] else 0.0),
        "geo.route_calls": trace["calls"].get("geo.route", 0),
        "geo.route_share": trace["route_s"] / wall,
        "geo.wan_bytes": trace["wan_bytes"],
        "geo.resynced_bytes": exact.get("geo.resynced_bytes", 0.0),
        "workloads.pulses": exact.get("workloads.pulses", 0.0),
        "trace.overhead": wall / wall_untraced,
        "trace.wall_s": wall,
    })
    for layer, seconds in trace["self_s"].items():
        out[f"{layer}.self_share"] = seconds / wall
    out.update(model)
    return out


def consistency_failures(runs: list[dict]) -> list[str]:
    """Every run of one spec must agree on fingerprint and exact counts."""
    failures = []
    first = runs[0]
    for r in runs[1:]:
        what = "traced" if r["traced"] else "untraced"
        for key in ("fingerprint", "events", "ok", "failed", "exact",
                    "model", "disk_util"):
            if r[key] != first[key]:
                failures.append(f"{what} run differs in {key}: "
                                f"{r[key]!r} != {first[key]!r}")
    return failures


# -- provenance ----------------------------------------------------------------


def _commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """Digest of every file under src/repro: identifies the code measured
    even where there is no commit."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(seed: int, seconds: float, runs: dict[str, list[dict]]) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {
            name: {"horizon_s": rs[0]["horizon_s"],
                   "spec_sha256": rs[0]["spec_sha256"],
                   "fingerprint": rs[0]["fingerprint"]}
            for name, rs in runs.items()},
    }


# -- running and reporting -----------------------------------------------------


def measure(workload: str, seed: int, seconds: float, untraced_runs: int,
            traced: bool) -> tuple[list[dict], dict | None, list[str]]:
    """Run one workload ``untraced_runs`` times, then traced if asked.

    Returns (untraced runs, traced run or None, failed checks)."""
    horizon = horizon_s(workload, seconds)
    deadline = time.perf_counter() + DEADLINE_S
    untraced = [run_worker(workload, seed, horizon, False, deadline)
                for _ in range(untraced_runs)]
    traced_run = (run_worker(workload, seed, horizon, True, deadline)
                  if traced else None)
    runs = untraced + ([traced_run] if traced else [])
    failures = [f"run {i}: {f}" for i, r in enumerate(runs)
                for f in r["failures"]]
    failures += consistency_failures(runs)
    if traced:
        shares = per_layer(untraced, traced_run)
        total = sum(v for k, v in shares.items() if k.endswith(".self_share"))
        if abs(total - 1.0) > 1e-9 or shares["sim.self_share"] < 0:
            failures.append(f"layer self shares sum to {total!r}, not 1, "
                            "or the kernel residual is negative")
    return untraced, traced_run, [f"{workload}: {f}" for f in failures]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CATALOG[section]}


#: Printed with the end-to-end metrics but not listed in BENCHMARK.json:
#: it is 0 on site_cache, and a metric that can be 0 has no relative
#: spread.
FAIL_RATIO_UNIT = {"op_fail_ratio": "fraction"}


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{workload:16s} {name:26s} {metrics[name]:>16.6g} {unit}")


def report_failures(failures: list[str]) -> None:
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)


def write_result(stem: str, doc: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def workload_main(workload: str, seed: int, seconds: float,
                  trace: int) -> int:
    """One workload; the last line is the JSON object BENCHMARK.json
    consumers read."""
    untraced, traced, failures = measure(
        workload, seed, seconds, 1 if trace else RUNS, bool(trace))
    runs = untraced + ([traced] if traced else [])
    if trace:
        units = _units("per_layer")
        metrics = per_layer(untraced, traced)
        print_metrics(workload, metrics, units)
    else:
        units = _units("end_to_end")
        metrics = end_to_end(untraced)
        print_metrics(workload, metrics, units | FAIL_RATIO_UNIT)
    report_failures(failures)
    man = manifest(seed, seconds, {workload: runs})
    summary = {
        "correct": not failures,
        "attempted": len(runs),
        # The checks compare the runs, so a failed check fails them all.
        "failed": len(runs) if failures else 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    write_result(f"result-{workload}-{seed}-trace{trace}",
                 {"manifest": man, "summary": summary, "runs": runs,
                  "failures": failures})
    print("manifest " + json.dumps(man, sort_keys=True))
    print(json.dumps(summary))
    return 0 if not failures else 1


def all_main(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, as one table."""
    failures: list[str] = []
    runs_by_workload: dict[str, list[dict]] = {}
    report: dict[str, dict] = {}
    for workload in WORKLOADS:
        untraced, traced, failed = measure(workload, seed, seconds, RUNS,
                                           True)
        failures += failed
        runs_by_workload[workload] = untraced + [traced]
        report[workload] = {"end_to_end": end_to_end(untraced),
                            "per_layer": per_layer(untraced, traced)}
        print(f"\n== {workload} (horizon {untraced[0]['horizon_s']:g} s "
              f"simulated, {RUNS} untraced runs + 1 traced)")
        print_metrics(workload, report[workload]["end_to_end"],
                      _units("end_to_end") | FAIL_RATIO_UNIT)
        print_metrics(workload, report[workload]["per_layer"],
                      _units("per_layer"))
    report_failures(failures)
    man = manifest(seed, seconds, runs_by_workload)
    write_result(f"result-all-{seed}", {"manifest": man, "report": report,
                                        "runs": runs_by_workload,
                                        "failures": failures})
    print("manifest " + json.dumps(man, sort_keys=True))
    print(json.dumps({"correct": not failures, "report": report}))
    return 0 if not failures else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, untraced and "
                         "traced)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    try:
        if args.workload is None:
            return all_main(args.seed, args.seconds)
        return workload_main(args.workload, args.seed, args.seconds,
                             args.trace)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
