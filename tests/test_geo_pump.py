"""The async replication pump: event-driven pickup, no idle polling."""

from repro.fs import FilePolicy, ReplicationMode
from repro.geo import GeoReplicator, Site, WanNetwork
from repro.sim import Simulator
from repro.sim.units import gbps, mib

ASYNC1 = FilePolicy(replication_mode=ReplicationMode.ASYNC,
                    replication_sites=1)


def pair(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    return net, a, b


class TransferLog:
    """WAN observer recording when each transfer starts."""

    def __init__(self, sim):
        self.sim = sim
        self.starts: list[float] = []

    def transfer_started(self, src, dst, nbytes, hops):
        self.starts.append(self.sim.now)

    def transfer_completed(self, src, dst, nbytes, hops, start, end, ok):
        pass


def test_drained_pump_dispatches_nothing_while_quiet():
    sim = Simulator()
    net, a, _b = pair(sim)
    rep = GeoReplicator(sim, net)
    rep.register("/f", ASYNC1, a)

    def proc():
        yield rep.write("/f", mib(4))

    sim.process(proc())
    sim.run(until=0.1)
    assert rep.backlog_to("b") == 0  # drained (~15 ms of WAN time)
    before = sim.events_processed
    sim.run(until=2.0)
    assert sim.events_processed - before == 0
    assert rep.health().metrics["pumps_running"] == 0.0


def test_write_after_idleness_ships_at_its_ack_time():
    sim = Simulator()
    net, a, _b = pair(sim)
    rep = GeoReplicator(sim, net)
    rep.register("/f", ASYNC1, a)
    log = TransferLog(sim)
    net.observers.append(log)
    acks = []

    def proc():
        for _ in range(2):
            yield rep.write("/f", mib(1))
            acks.append(sim.now)
            yield sim.timeout(0.3)  # idle, well inside one second

    sim.process(proc())
    sim.run()
    assert len(log.starts) == 2
    assert log.starts == acks


def test_stalled_pump_backs_off_then_drains():
    sim = Simulator()
    net, a, _b = pair(sim)
    rep = GeoReplicator(sim, net)
    rep.register("/f", ASYNC1, a)
    net.link("a", "b").fail()

    def proc():
        yield rep.write("/f", mib(1))

    sim.process(proc())
    sim.run(until=1.0)
    # The route is cut: the debt stays owed while the pump backs off.
    assert rep.backlog_to("b") == mib(1)
    assert rep.health().metrics["pumps_running"] == 1.0
    net.link("a", "b").repair()
    sim.run(until=10.0)
    assert rep.async_backlog == {}
    assert rep.health().metrics["pumps_running"] == 0.0
    assert "b" in rep.files["/f"].copies


def test_failover_mid_chunk_does_not_resurrect_the_entry():
    """note_failover consumes the entry while a chunk is on the wire; the
    landing chunk must not recreate it (negative or otherwise), and the
    pump must go idle instead of shipping the bytes again."""
    sim = Simulator()
    net, a, _b = pair(sim)
    rep = GeoReplicator(sim, net)
    rep.register("/f", ASYNC1, a)
    log = TransferLog(sim)
    net.observers.append(log)

    def proc():
        yield rep.write("/f", mib(16))
        # The first 8 MiB chunk is now on the wire (~27 ms at 2.5 Gb/s).
        yield sim.timeout(0.005)
        assert len(log.starts) == 1
        rep.note_failover("/f", "a", "b")

    sim.process(proc())
    sim.run(until=5.0)
    assert rep.async_backlog == {}
    assert rep.orphans[("/f", "a")].nbytes == mib(16)
    assert len(log.starts) == 1
    assert rep.health().metrics["pumps_running"] == 0.0
    before = sim.events_processed
    sim.run(until=10.0)
    assert sim.events_processed == before
