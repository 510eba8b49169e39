"""Tests of the scenario benchmark itself (not of its timings).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.

The ``xfail(strict=True)`` tests reproduce a known defect of the
write-back cache: it has no admission backpressure, so once dirty and
replica blocks pin every slot, ``BlockCache.insert`` raises
``CapacityError`` inside ``CacheCluster._write``.  It is not a fault
exception, so it escapes ``sim.run`` and aborts the whole simulation.
The benchmark's workloads run below that point; these tests keep the
defect visible and fail (XPASS) once it is fixed, so they must then be
turned into plain tests.

A second strict xfail shows that geo_partition is not reproducible
across processes: ``NetStorageSystem._raw_run`` builds cache keys from
``id(self)``, and ``stable_hash`` of those keys places destaged blocks on
disk, so seek times, and on some seeds the event count, depend on memory
addresses.  That is why BENCHMARK.json does not list geo_partition; add
it back once this test passes.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import run
from repro.cache import CapacityError
from scenarios import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: A second seed, never used to tune the workloads.
HELD_OUT_SEED = 4242


def _run(workload):
    workload.setup()
    workload.run()
    return workload


@pytest.mark.xfail(raises=CapacityError, strict=True,
                   reason="write-back cache has no admission backpressure")
@pytest.mark.parametrize("clients,think_s", [(32, 0.0), (8, 0.05)],
                         ids=["32-clients-no-think", "8-clients-50ms-think"])
def test_site_cache_saturated_runs_to_horizon(clients, think_s):
    # Reads saturate the disks and starve destage until every cache slot
    # is pinned: 32 zero-think clients abort at t~2 s; 8 clients with a
    # 50 ms think time abort at t~8-13 s.
    w = WORKLOADS["site_cache"](1, 20.0, clients=clients, think_s=think_s)
    _run(w)
    assert w.sim.now == 20.0


@pytest.mark.xfail(raises=CapacityError, strict=True,
                   reason="write-back cache has no admission backpressure")
def test_geo_partition_all_async_small_cache_runs_to_horizon():
    # With every client async and 64 MiB per blade, the backlog held
    # during the partition floods the receiving site's cache on the heal.
    w = WORKLOADS["geo_partition"](1, 600.0, sync_odd_clients=False,
                                   cache_bytes_per_blade=64 << 20)
    _run(w)
    assert w.sim.now == 600.0


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="raw-I/O cache keys embed id(system)")
def test_geo_partition_same_seed_same_result_in_two_processes():
    deadline = time.perf_counter() + 120.0
    a, b = (run.run_worker("geo_partition", 1, 60.0, False, deadline)
            for _ in range(2))
    assert (a["fingerprint"], a["disk_util"]) == \
        (b["fingerprint"], b["disk_util"])


@pytest.mark.parametrize("name,horizon", [("site_cache", 10.0),
                                          ("geo_partition", 100.0),
                                          ("fluid_megascale", 600.0)])
def test_held_out_seed_passes_every_check(name, horizon):
    w = _run(WORKLOADS[name](HELD_OUT_SEED, horizon))
    assert w.checks() == []
    assert w.ops()[0] > 0


def test_same_seed_same_fingerprint_and_different_seed_differs():
    a = _run(WORKLOADS["site_cache"](7, 5.0))
    b = _run(WORKLOADS["site_cache"](7, 5.0))
    c = _run(WORKLOADS["site_cache"](8, 5.0))
    assert a.fingerprint() == b.fingerprint() != c.fingerprint()
    assert a.spec_sha256() == b.spec_sha256() != c.spec_sha256()


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        WORKLOADS["site_cache"](1, 5.0, clinets=4)


def test_import_times_parse_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |        350 | scipy",
        "import time:        10 |         10 | json",
        "import time:        40 |         40 | numpy.linalg",
        "an unrelated warning",
    ])
    times = run.import_times(stderr)
    assert times["scipy"] == pytest.approx(350e-6)
    assert times["numpy"] == pytest.approx(340e-6)
    assert times["networkx"] == 0.0
    assert times["total"] == pytest.approx(400e-6)


def test_benchmark_json_matches_catalog():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) <= set(run.WORKLOADS) and len(names) >= 2
    for section in ("end_to_end", "per_layer"):
        keys = ("name", "unit", "better") + (
            ("bound",) if section == "end_to_end" else ())
        assert bench[section] == [{k: m[k] for k in keys}
                                  for m in run.CATALOG[section]]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_fluid_conservation_check_catches_one_lost_op():
    w = _run(WORKLOADS["fluid_megascale"](1, 600.0))
    assert w.checks() == []
    w.built.streams[0].ops_completed -= 1.0
    failures = w.drain_and_check()
    assert len(failures) == 1 and "admitted" in failures[0]
