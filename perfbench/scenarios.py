"""The benchmark's three declared workloads.

Each workload turns ``(seed, horizon_s)`` into generator parameters and a
:class:`~repro.plan.ScenarioSpec`, builds it through the public planner
(``plan_storage`` -> ``Plan.build`` -> ``BuiltScenario.provision``),
creates its own files, drives its own clients, and after the horizon
drains and checks the outcome.  Nothing here reads the host clock: the
worker process times the phases from outside.

* ``site_cache`` -- one full-stack site whose data set is 4x its
  aggregate cache, so most reads miss and the read-miss and destage path
  (cache -> RAID -> disk) does the work.  Geo does none.
* ``geo_partition`` -- E17's three-site ring of system-backed sites with
  cost-model replica selection and post-heal reconciliation, under a
  partition and a blade crash.  The cache absorbs replica writes.
* ``fluid_megascale`` -- E15's two aggregate sites with 1.25M fluid
  clients each and a site loss.  Kernel, geo pump and WAN routing work;
  cache and RAID are bypassed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import repro.plan as plan_api
from repro import ScenarioSpec
from repro.fs import FilePolicy, ReplicationMode
from repro.plan import ClusterSpec, LinkSpec, SiteSpec, WorkloadSpec
from repro.sim import FAULT_EXCEPTIONS, Simulator
from repro.sim.units import gbps, gib, kib, mib

#: Conservation tolerance for fluid op accounting, as in the fluid
#: workload unit tests; at megascale volumes the rounding bound of the
#: float accumulators is added (see ``FluidMegascale.drain_and_check``).
OPS_TOL = 1e-6


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Workload:
    """One declared workload; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, horizon_s: float, **overrides) -> None:
        self.seed = seed
        self.horizon = horizon_s
        self.params = self.generator_params()
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ValueError(f"{self.name}: unknown parameters {unknown}")
        self.params.update(overrides)
        self.spec = self.make_spec()
        self.sim: Simulator | None = None
        self.built = None
        self.result = None

    # -- hooks -----------------------------------------------------------------

    def generator_params(self) -> dict:
        raise NotImplementedError

    def make_spec(self) -> ScenarioSpec:
        raise NotImplementedError

    def start_clients(self) -> None:
        """Create files and spawn clients on the provisioned scenario."""

    def drain_and_check(self) -> list[str]:
        """Post-horizon drain plus workload-specific checks (untimed)."""
        return []

    def ops(self) -> tuple[int | float, int | float]:
        """Modeled operations (completed ok, failed)."""
        return self.result.ok, self.result.failed

    def model_metrics(self) -> dict[str, float]:
        return {}

    def exact_counts(self) -> dict[str, float]:
        return {}

    # -- shared run steps ------------------------------------------------------

    def spec_sha256(self) -> str:
        return digest({"spec": self.spec.as_dict(), "params": self.params})

    def build(self) -> None:
        """Plan, build and provision the scenario."""
        self.sim = Simulator()
        self.built = plan_api.plan_storage(self.spec).build(
            self.sim).provision()

    def setup(self) -> None:
        """Everything before the first simulated event."""
        self.build()
        self.start_clients()

    def run(self) -> None:
        """Drive the scenario to its horizon."""
        self.result = self.built.run(self.horizon)

    def checks(self) -> list[str]:
        failures = []
        if self.sim.now != self.horizon:
            failures.append(f"stopped at t={self.sim.now}, horizon "
                            f"{self.horizon}")
        return failures + self.drain_and_check()

    def fingerprint(self) -> str:
        """The scenario fingerprint plus the benchmark clients' outcome."""
        return digest({"scenario": self.result.fingerprint,
                       "ops": list(self.ops()),
                       "model": self.model_metrics(),
                       "exact": self.exact_counts()})

    def cache_counts(self) -> dict[str, float]:
        """Cache block counters summed over every site's report."""
        reports = [s.report() for s in self.built.all_systems()]

        def total(*keys: str) -> float:
            return sum(r.get(k, 0.0) for r in reports for k in keys)

        hits = total("read.local_hit", "read.remote_hit")
        reads = hits + total("read.miss")
        return {
            "cache.read_hit_ratio": hits / reads if reads else 0.0,
            "cache.absorbed_blocks": total("write.absorbed"),
            "cache.destaged_blocks": total("destage.completed"),
        }

    def disk_utilization(self) -> float:
        disks = [d for s in self.built.all_systems() for d in s.pool.disks]
        if not disks:
            return 0.0
        return sum(d.mean_utilization() for d in disks) / len(disks)


class SiteCache(Workload):
    """Closed-loop clients on one site, data 4x the aggregate cache."""

    name = "site_cache"

    def generator_params(self) -> dict:
        return {"clients": 8, "think_s": 0.1, "read_fraction": 0.7,
                "min_blocks": 1, "max_blocks": 16, "block_bytes": kib(64),
                "files": 16, "file_bytes": mib(64)}

    def make_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name=self.name, seed=self.seed, horizon_s=self.horizon,
            cluster=ClusterSpec(blade_count=4, cache_bytes_per_blade=mib(64),
                                replication=2, disk_count=16,
                                disk_capacity=gib(1), data_per_stripe=4,
                                block_size=kib(64)),
            sites=(SiteSpec("site0"),),
            workload=WorkloadSpec(clients=0))

    def start_clients(self) -> None:
        p = self.params
        sim, system = self.sim, self.built.system
        paths = [f"/data/f{i:02d}" for i in range(p["files"])]
        for path in paths:
            system.create(path)
        file_blocks = p["file_bytes"] // p["block_bytes"]
        self.ok = self.failed = 0
        self.latency = {"read": [], "write": []}

        def client(rng: random.Random):
            while sim.now < self.horizon:
                op = "read" if rng.random() < p["read_fraction"] else "write"
                path = paths[rng.randrange(len(paths))]
                blocks = rng.randint(p["min_blocks"], p["max_blocks"])
                first = rng.randrange(file_blocks - blocks + 1)
                io = system.read if op == "read" else system.write
                t0 = sim.now
                try:
                    yield io(path, first * p["block_bytes"],
                             blocks * p["block_bytes"])
                    self.ok += 1
                    self.latency[op].append(sim.now - t0)
                except FAULT_EXCEPTIONS:
                    self.failed += 1
                yield sim.timeout(p["think_s"])

        for c in range(p["clients"]):
            sim.process(client(random.Random(f"{self.seed}/{self.name}/{c}")),
                        name=f"bench.client{c}")

    def ops(self):
        return self.ok, self.failed

    def drain_and_check(self) -> list[str]:
        lost = self.result.metrics["cache.lost_dirty_blocks"]
        return [f"cache lost {lost:g} dirty blocks"] if lost else []

    def model_metrics(self) -> dict[str, float]:
        return {
            "model.read_p50_ms": 1e3 * _percentile(self.latency["read"], 50),
            "model.read_p99_ms": 1e3 * _percentile(self.latency["read"], 99),
            "model.write_p99_ms": 1e3 * _percentile(self.latency["write"],
                                                    99),
        }

    def exact_counts(self) -> dict[str, float]:
        return self.cache_counts()


class GeoPartition(Workload):
    """E17's ring of system-backed sites under a partition and a crash."""

    name = "geo_partition"

    def generator_params(self) -> dict:
        # Odd-numbered clients replicate synchronously, even ones async.
        # 4 GiB per blade is the SystemConfig default.
        return {"clients": 6, "period_s": 5.0, "op_bytes": mib(1),
                "replication_sites": 1, "sync_odd_clients": True,
                "cache_bytes_per_blade": gib(4), "drain_s": 600.0}

    def make_spec(self) -> ScenarioSpec:
        h = self.horizon
        return ScenarioSpec(
            name=self.name, seed=self.seed, horizon_s=h,
            cluster=ClusterSpec(
                blade_count=4, disk_count=8,
                cache_bytes_per_blade=self.params["cache_bytes_per_blade"]),
            sites=(SiteSpec("a", (0.0, 0.0)), SiteSpec("b", (0.0, 400.0)),
                   SiteSpec("c", (3000.0, 1500.0))),
            links=(LinkSpec("a", "b", bandwidth=gbps(2.5)),
                   LinkSpec("b", "c", bandwidth=gbps(1.0)),
                   LinkSpec("a", "c", bandwidth=gbps(1.0))),
            workload=WorkloadSpec(clients=0),
            site_backing="system", selection="cost", reconcile=True,
            faults={"seed": self.seed, "faults": [
                {"kind": "partition", "target": "c|a,b",
                 "at": 0.3 * h, "duration": 0.2 * h},
                {"kind": "blade_crash", "target": "a.blade1",
                 "at": 0.6 * h, "duration": 0.1 * h},
            ]})

    def start_clients(self) -> None:
        p = self.params
        sim, center = self.sim, self.built.center
        names = [s.name for s in self.spec.sites]
        rng = random.Random(f"{self.seed}/{self.name}")
        self.ok = self.failed = 0
        self.latency: list[float] = []
        self.acked: dict[str, int] = {}
        for c in range(p["clients"]):
            path = f"/geo/c{c}"
            home = names[c % len(names)]
            at = names[(c + 1) % len(names)]
            sync = p["sync_odd_clients"] and c % 2 == 1
            mode = ReplicationMode.SYNC if sync else ReplicationMode.ASYNC
            center.create(path, home=home, policy=FilePolicy(
                replication_mode=mode,
                replication_sites=p["replication_sites"]))
            self.acked[path] = 0
            # Seeded start phase, so clients do not move in lock-step.
            sim.process(self._client(path, at, rng.uniform(0, p["period_s"])),
                        name=f"bench.geo{c}")

    def _client(self, path: str, at: str, phase: float):
        p = self.params
        sim, center = self.sim, self.built.center
        yield sim.timeout(phase)
        while sim.now < self.horizon:
            t0 = sim.now
            try:
                yield center.write(path, 0, p["op_bytes"])
                self.acked[path] += p["op_bytes"]
                yield center.read(path, 0, p["op_bytes"], at=at)
                self.ok += 1
                self.latency.append(sim.now - t0)
            except FAULT_EXCEPTIONS:
                self.failed += 1
            yield sim.timeout(p["period_s"])

    def ops(self):
        return self.ok, self.failed

    def drain_and_check(self) -> list[str]:
        sim, built = self.sim, self.built
        rep = built.replicator
        sim.run(until=self.horizon + self.params["drain_s"])
        built.reconciler.request_sweep()
        sim.run(until=sim.now + self.params["drain_s"])
        failures = []
        backlog = sum(rep.async_backlog.values())
        if backlog:
            failures.append(f"async backlog {backlog} B after drain")
        if rep.total_divergence():
            failures.append(f"divergence {rep.total_divergence()} B after "
                            "drain")
        if rep.orphans:
            failures.append(f"{len(rep.orphans)} orphan forks after drain")
        lost = sum(max(0, acked - rep.files[path].size)
                   for path, acked in self.acked.items())
        if lost:
            failures.append(f"{lost} acknowledged bytes missing at home")
        return failures

    def model_metrics(self) -> dict[str, float]:
        return {"model.iter_p95_ms": 1e3 * _percentile(self.latency, 95)}

    def exact_counts(self) -> dict[str, float]:
        counts = self.cache_counts()
        counts["geo.resynced_bytes"] = float(
            self.built.reconciler.summary()["resynced_bytes"])
        return counts


class FluidMegascale(Workload):
    """E15's million-client fluid scenario on two aggregate sites."""

    name = "fluid_megascale"

    def generator_params(self) -> dict:
        return {"clients_per_site": 1_250_000, "ops_per_client_s": 0.02,
                "op_bytes": 4096, "read_fraction": 0.75, "hit_ratio": 0.92,
                "pulse_s": 1.0, "admit_ops_s": 30_000.0}

    def make_spec(self) -> ScenarioSpec:
        p, h = self.params, self.horizon
        return ScenarioSpec(
            name=self.name, seed=self.seed, horizon_s=h,
            sites=(SiteSpec("alameda", (0.0, 0.0)),
                   SiteSpec("brookdale", (600.0, -450.0))),
            workload=WorkloadSpec(
                kind="fluid", clients=p["clients_per_site"],
                op_bytes=p["op_bytes"],
                ops_per_client_s=p["ops_per_client_s"],
                read_fraction=p["read_fraction"], hit_ratio=p["hit_ratio"],
                pulse_s=p["pulse_s"], admit_ops_s=p["admit_ops_s"],
                geo_mode="async", geo_sites=1),
            site_backing="aggregate",
            faults={"seed": self.seed, "faults": [
                {"kind": "site_loss", "target": "brookdale",
                 "at": 0.4 * h, "duration": 0.2 * h},
            ]})

    def drain_and_check(self) -> list[str]:
        failures = []
        for s in self.built.streams:
            # The accumulators are doubles summed once or twice per pulse
            # and per transfer: n additions of values up to ops_offered
            # round by at most n * eps * ops_offered (recursive summation
            # bound).  At 1e8 ops that exceeds the unit tests' 1e-6.
            tol = OPS_TOL + ((s.pulses + s.transfers_issued)
                             * sys.float_info.epsilon * s.ops_offered)
            offered = s.ops_admitted + s.backlog_ops
            if abs(s.ops_offered - offered) > tol:
                failures.append(f"{s.name}: offered {s.ops_offered} != "
                                f"admitted + backlog {offered}")
            accounted = s.ops_completed + s.ops_failed + s.ops_inflight
            if abs(s.ops_admitted - accounted) > tol:
                failures.append(f"{s.name}: admitted {s.ops_admitted} != "
                                f"completed + failed + in-flight "
                                f"{accounted}")
        return failures

    def model_metrics(self) -> dict[str, float]:
        streams = self.built.streams
        done = sum(s.ops_completed for s in streams)
        mean = sum(s.mean_latency_s() * s.ops_completed
                   for s in streams) / done if done else 0.0
        return {"model.fluid_latency_ms": round(1e3 * mean, 9)}

    def exact_counts(self) -> dict[str, float]:
        return {"workloads.pulses": float(
            sum(s.summary()["pulses"] for s in self.built.streams))}


WORKLOADS = {w.name: w for w in (SiteCache, GeoPartition, FluidMegascale)}
