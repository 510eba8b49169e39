"""Tests for replication statistics and cache backing-failure hardening."""

import random

import pytest

from repro.cache import CacheCluster
from repro.hardware import ControllerBlade, Disk, DiskFailedError
from repro.sim import (
    ReplicationSummary,
    Simulator,
    replicate,
    replicate_parallel,
    run_replications,
    summarize,
)
from repro.sim.replications import _t_ppf
from repro.sim.units import mib

#: Two-sided confidence levels; the quantile is taken at 0.5 + c / 2.
T_CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)
#: Student-t quantiles from scipy 1.17.1 (``scipy.stats.t.ppf``), one
#: tuple per degrees of freedom, in ``T_CONFIDENCES`` order.
T_REFERENCE = {
    1: (3.0776835371752544, 6.313751514675037, 12.706204736174694,
        63.656741162871526, 636.6192487687897),
    2: (1.8856180831641272, 2.9199855803537242, 4.302652729749462,
        9.924843200918287, 31.599054576445365),
    3: (1.637744353696209, 2.3533634348018233, 3.1824463052837078,
        5.840909309733355, 12.923978636687961),
    4: (1.533206274058944, 2.1318467863266495, 2.7764451051977934,
        4.604094871349992, 8.610301581379522),
    5: (1.4758840488244815, 2.0150483733330233, 2.5705818356363146,
        4.032142983555228, 6.868826625881276),
    6: (1.4397557472651483, 1.9431802805153042, 2.4469118511449786,
        3.7074280213248065, 5.95881617881889),
    7: (1.4149239276505086, 1.8945786050900062, 2.364624251592784,
        3.4994832973504924, 5.407882520861828),
    8: (1.3968153097438654, 1.8595480375308973, 2.306004135204166,
        3.355387331333395, 5.041305433373456),
    9: (1.3830287383966329, 1.833112932656237, 2.262157162798205,
        3.249835541592126, 4.780912585931217),
    10: (1.372183641110336, 1.8124611228116756, 2.228138851986274,
         3.16927267261695, 4.586893858702708),
    11: (1.3634303180205407, 1.7958848187040433, 2.200985160091639,
         3.1058065155392804, 4.436979338234516),
    12: (1.356217334023205, 1.782287555649319, 2.1788128296672284,
         3.0545395893929013, 4.3177912836062475),
    13: (1.3501712887800552, 1.7709333959868725, 2.1603686564627913,
         3.012275838716578, 4.22083172770718),
    14: (1.345030374454651, 1.761310135774891, 2.144786687917804,
         2.9768427343708344, 4.140454112738259),
    15: (1.3406056078504558, 1.753050355692572, 2.131449545559776,
         2.946712883475238, 4.072765195903846),
    16: (1.3367571673273153, 1.7458836762762495, 2.1199052992212546,
         2.9207816224251, 4.014996327184108),
    17: (1.3333793897216268, 1.7396067260750725, 2.1098155778333156,
         2.8982305196774183, 3.965126272119082),
    18: (1.3303909435699093, 1.7340636066175388, 2.1009220402410382,
         2.8784404727386077, 3.9216458250852084),
    19: (1.3277282090267986, 1.7291328115213682, 2.0930240544083087,
         2.8609346064649794, 3.883405852592131),
    20: (1.3253407069850465, 1.7247182429207866, 2.085963447265864,
         2.8453397097861077, 3.8495162749308744),
    21: (1.3231878738651728, 1.720742902811878, 2.0796138447276795,
         2.83135955802305, 3.8192771642745096),
    22: (1.321236741613362, 1.7171443743802424, 2.0738730679040254,
         2.8187560606001423, 3.792130671698437),
    23: (1.3194602398161621, 1.713871527747048, 2.0686576104190486,
         2.807335683769999, 3.7676268043118246),
    24: (1.3178359336731498, 1.710882079909428, 2.0638985616280245,
         2.796939504774456, 3.745398619290096),
    25: (1.31634507267387, 1.7081407612518986, 2.0595385527532972,
         2.78743581367697, 3.725143949728693),
    26: (1.3149718642705175, 1.7056179197592727, 2.0555294386428735,
         2.778714533329683, 3.7066117434809525),
    27: (1.3137029128292737, 1.7032884457221265, 2.0518305164802846,
         2.770682957122211, 3.6895917134592784),
    28: (1.3125267815926664, 1.7011309342659313, 2.0484071417952454,
         2.763262455461444, 3.6739064007013176),
    29: (1.311433647301551, 1.6991270265334972, 2.045229642132703,
         2.756385903670605, 3.6594050194663748),
    30: (1.3104150253913955, 1.697260886593957, 2.0422724563012378,
         2.7499956535672254, 3.6459586350420627),
    40: (1.3030770526071949, 1.683851013335652, 2.021075390306273,
         2.7044592674331622, 3.550965760863349),
    60: (1.295821093515731, 1.6706488649046363, 2.0002978220142604,
         2.6602830288550368, 3.460200469196392),
    120: (1.288646233656378, 1.6576508993552352, 1.9799304050824402,
          2.6174211451068654, 3.373453768562533),
    1000: (1.2823987214609247, 1.6463788172854643, 1.9623390808264083,
           2.580754698065951, 3.300282648423944),
    100000: (1.2815600314493614, 1.6448688647849696, 1.9599877075346095,
             2.575878469908375, 3.2906240314119137),
}


class TestReplicationStats:
    def test_summarize_known_values(self):
        s = summarize([10.0, 12.0, 11.0, 13.0, 9.0])
        assert s.mean == pytest.approx(11.0)
        assert s.n == 5
        assert s.low < 11.0 < s.high
        # t(0.975, 4) * sem, with sem = sqrt(2.5 / 5) and t from scipy.
        assert s.half_width == pytest.approx(1.9632431614775572, rel=1e-12)

    def test_single_replication_infinite_interval(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.half_width == float("inf")

    def test_identical_values_zero_width(self):
        s = summarize([7.0, 7.0, 7.0])
        assert s.half_width == 0.0

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert summarize(values, 0.99).half_width > \
            summarize(values, 0.90).half_width

    def test_replicate_runs_each_seed(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return float(seed)

        s = replicate(run, [1, 2, 3])
        assert seen == [1, 2, 3]
        assert s.mean == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, [])

    def test_str_format(self):
        assert "±" in str(ReplicationSummary(1.0, 0.1, 3, 0.95))


class TestStudentTQuantile:
    @pytest.mark.parametrize("df", sorted(T_REFERENCE))
    def test_matches_scipy_reference(self, df):
        for conf, want in zip(T_CONFIDENCES, T_REFERENCE[df]):
            got = _t_ppf(0.5 + conf / 2.0, df)
            assert abs(got - want) <= 1e-9 * want, (df, conf, got, want)

    @pytest.mark.parametrize("p", [0.5, 1.0, 0.25, 1.5, 0.0, -0.1])
    def test_p_outside_open_interval_raises(self, p):
        with pytest.raises(ValueError):
            _t_ppf(p, 5)


class TestCacheBackingFailures:
    def make_cluster(self, sim, disk):
        blades = [ControllerBlade(sim, i, cache_bytes=mib(1))
                  for i in range(2)]

        def backing_read(key, nbytes):
            return disk.read(0, nbytes)

        def backing_write(key, nbytes):
            return disk.write(0, nbytes)

        return CacheCluster(sim, blades, backing_read, backing_write,
                            replication=1)

    def test_miss_on_failed_backing_fails_cleanly(self):
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)
        disk.fail()
        caught = []

        def proc():
            try:
                yield cluster.read(0, ("v", 1))
            except DiskFailedError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]
        assert cluster.metrics.counter("read.backing_errors").value == 1

    def test_destage_to_failed_backing_requeues(self):
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)

        def proc():
            yield cluster.write(0, ("v", 1))
            disk.fail()
            result = yield cluster.destage(("v", 1))
            assert result is False
            # Block is still dirty, still queued, nothing was lost.
            assert cluster.directory.entry(("v", 1)).dirty
            assert ("v", 1) in cluster._dirty_pending
            disk.repair()
            result = yield cluster.destage(("v", 1))
            return result

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value is True
        assert cluster.metrics.counter("destage.errors").value == 1

    def test_write_path_unaffected_by_backing_failure(self):
        """Write-back absorbs writes even while the farm is down."""
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)
        disk.fail()

        def proc():
            got = yield cluster.write(0, ("v", 2))
            return got

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value == "cached"


def _replication_body(seed: int) -> float:
    """Module-level (hence picklable) body for the parallel runner tests."""
    rng = random.Random(seed)
    sim = Simulator()
    finish = []

    def proc():
        for _ in range(25):
            yield sim.timeout(rng.uniform(0.001, 0.01))
        finish.append(sim.now)

    sim.process(proc())
    sim.run()
    return finish[0]


def _exploding_body(seed: int) -> float:
    """Module-level body that fails for one seed (parallel error test)."""
    if seed == 3:
        raise ValueError(f"model blew up for seed {seed}")
    return float(seed)


class TestParallelReplications:
    def test_parallel_merge_identical_to_serial(self):
        seeds = list(range(1, 9))
        serial = run_replications(_replication_body, seeds, max_workers=1)
        fanned = run_replications(_replication_body, seeds, max_workers=4)
        assert fanned == serial  # same values, same (seed) order

    def test_replicate_parallel_summary_identical(self):
        seeds = [3, 1, 4, 1, 5]
        assert (replicate_parallel(_replication_body, seeds)
                == replicate(_replication_body, seeds))

    def test_model_error_propagates_from_parallel_run(self):
        # A genuine model error must surface, not trigger the serial
        # fallback (which would re-run the sweep and hide the traceback).
        with pytest.raises(ValueError, match="seed 3"):
            run_replications(_exploding_body, [1, 2, 3, 4], max_workers=2)

    def test_unpicklable_body_falls_back_to_serial(self):
        calls = []

        def local_body(seed):  # closure: not picklable for a process pool
            calls.append(seed)
            return float(seed)

        out = run_replications(local_body, [1, 2, 3], max_workers=2)
        assert out == [1.0, 2.0, 3.0]
        assert calls == [1, 2, 3]  # ran (serially) in seed order
