"""Unit tests for sites and the WAN network."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import NoRouteError, Site, SiteFailedError, WanNetwork
from repro.sim import Simulator
from repro.sim.units import gbps, mb_per_s


def three_site_ring(sim):
    """Edmonton / Seattle / Boulder, roughly the paper's company map."""
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "edmonton", (0.0, 0.0)))
    b = net.add_site(Site(sim, "seattle", (0.0, 1000.0)))
    c = net.add_site(Site(sim, "boulder", (1400.0, 600.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(2.5))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


class TestSite:
    def test_local_io_cost(self):
        sim = Simulator()
        site = Site(sim, "s", storage_bandwidth=mb_per_s(100),
                    storage_latency=0.004)

        def proc():
            yield site.store_write(10**8)  # 1s of transfer
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(1.004)
        assert site.bytes_written == 10**8

    def test_failed_site_rejects_io(self):
        sim = Simulator()
        site = Site(sim, "s")
        site.fail()
        caught = []

        def proc():
            try:
                yield site.store_read(1000)
            except SiteFailedError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]
        site.repair()
        assert not site.failed

    def test_distance(self):
        sim = Simulator()
        a = Site(sim, "a", (0.0, 0.0))
        b = Site(sim, "b", (300.0, 400.0))
        assert a.distance_to(b) == pytest.approx(500.0)


class TestWanNetwork:
    def test_direct_route(self):
        sim = Simulator()
        net, a, b, _c = three_site_ring(sim)
        links = net.route(a, b)
        assert len(links) == 1
        assert links[0].distance_km == pytest.approx(1000.0)

    def test_rtt_scales_with_distance(self):
        sim = Simulator()
        net, a, b, c = three_site_ring(sim)
        assert net.rtt(a, c) > net.rtt(a, b)
        # 1000 km one-way ≈ 5ms propagation + equipment.
        assert net.rtt(a, b) == pytest.approx(2 * (1000 / 200_000 + 0.0002))

    def test_transfer_time(self):
        sim = Simulator()
        net, a, b, _c = three_site_ring(sim)

        def proc():
            yield net.transfer(a, b, gbps(2.5) * 2.0)  # 2s of link time
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(2.0, rel=0.02)

    def test_routing_around_failed_site(self):
        sim = Simulator()
        net, a, b, c = three_site_ring(sim)
        # Kill the direct a-c fibre's cheaper alternative: fail b.
        b.fail()
        links = net.route(a, c)
        assert len(links) == 1  # direct a<->c still works
        assert {links[0].a.name, links[0].b.name} == {"edmonton", "boulder"}

    def test_multihop_route_when_direct_missing(self):
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0, 0)))
        b = net.add_site(Site(sim, "b", (0, 500)))
        c = net.add_site(Site(sim, "c", (0, 1000)))
        net.connect(a, b)
        net.connect(b, c)
        assert len(net.route(a, c)) == 2

    def test_no_route_when_cut(self):
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0, 0)))
        b = net.add_site(Site(sim, "b", (0, 500)))
        c = net.add_site(Site(sim, "c", (0, 1000)))
        net.connect(a, b)
        net.connect(b, c)
        b.fail()
        with pytest.raises(NoRouteError):
            net.route(a, c)

    def test_failed_endpoint_rejected(self):
        sim = Simulator()
        net, a, b, _c = three_site_ring(sim)
        a.fail()
        with pytest.raises(NoRouteError):
            net.route(a, b)

    def test_duplicate_site_rejected(self):
        sim = Simulator()
        net = WanNetwork(sim)
        net.add_site(Site(sim, "a"))
        with pytest.raises(ValueError):
            net.add_site(Site(sim, "a"))

    def test_connect_requires_membership(self):
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a"))
        stranger = Site(sim, "x")
        with pytest.raises(ValueError):
            net.connect(a, stranger)

    def test_neighbors_by_distance_with_floor(self):
        sim = Simulator()
        net, a, b, c = three_site_ring(sim)
        near_first = net.neighbors_by_distance(a)
        assert [s.name for s in near_first] == ["seattle", "boulder"]
        far_only = net.neighbors_by_distance(a, min_distance_km=1200.0)
        assert [s.name for s in far_only] == ["boulder"]
        b.fail()
        assert all(s.name != "seattle"
                   for s in net.neighbors_by_distance(a))

    def test_link_lookup_either_order(self):
        sim = Simulator()
        net, a, b, _c = three_site_ring(sim)
        ab = net.link("edmonton", "seattle")
        assert net.link("seattle", "edmonton") is ab
        assert net.links[("edmonton", "seattle")] is ab
        assert sorted(net.links) == [("boulder", "edmonton"),
                                     ("boulder", "seattle"),
                                     ("edmonton", "seattle")]


def two_path_net(sim):
    """a -> c over a short path through b and a long one through d."""
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 500.0)))
    c = net.add_site(Site(sim, "c", (0.0, 1000.0)))
    d = net.add_site(Site(sim, "d", (900.0, 500.0)))
    for x, y in ((a, b), (b, c), (a, d), (d, c)):
        net.connect(x, y)
    return net, a, b, c, d


class TestRouteCache:
    """Routes are cached per (src, dst); every state transition and every
    new fibre must be seen by the next lookup."""

    def test_repeat_lookup_is_cached(self):
        sim = Simulator()
        net, a, _b, c, _d = two_path_net(sim)
        assert net.route(a, c) is net.route(a, c)

    def test_intermediate_link_down_reroutes_then_repair_restores(self):
        sim = Simulator()
        net, a, _b, c, _d = two_path_net(sim)
        short = net.route(a, c)
        assert short == (net.link("a", "b"), net.link("b", "c"))
        net.link("b", "c").fail()
        assert net.route(a, c) == (net.link("a", "d"), net.link("c", "d"))
        net.link("a", "d").fail()
        with pytest.raises(NoRouteError):
            net.route(a, c)
        net.link("a", "d").repair()
        net.link("b", "c").repair()
        assert net.route(a, c) == short

    def test_intermediate_site_down_reroutes_then_repair_restores(self):
        sim = Simulator()
        net, a, b, c, d = two_path_net(sim)
        short = net.route(a, c)
        b.fail()
        assert net.route(a, c) == (net.link("a", "d"), net.link("c", "d"))
        d.fail()
        with pytest.raises(NoRouteError):
            net.route(a, c)
        assert not net.reachable(a, c)
        b.repair()
        d.repair()
        assert net.route(a, c) == short

    def test_later_connect_is_seen(self):
        sim = Simulator()
        net, a, _b, c, _d = two_path_net(sim)
        assert len(net.route(a, c)) == 2
        direct = net.connect(a, c)
        assert net.route(a, c) == (direct,)
        assert net.route(c, a) == (direct,)


def _brute_force_latency(net, src, dst):
    """Cheapest simple path by enumerating every ordering of the live
    intermediate sites; None when no path survives."""
    if src == dst:
        return 0.0
    others = [s for s in net.sites if s not in (src, dst)
              and not net.sites[s].failed]
    best = None
    for k in range(len(others) + 1):
        for middle in permutations(others, k):
            names = (src, *middle, dst)
            total = 0.0
            for u, v in zip(names, names[1:]):
                link = net.links.get((u, v) if u <= v else (v, u))
                if link is None or link.failed:
                    break
                total += link.latency
            else:
                if best is None or total < best:
                    best = total
    return best


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_routes_match_brute_force(n, data):
    """Dijkstra over live links and sites finds a cheapest path whenever
    one exists, also after transitions invalidated a warm cache."""
    sim = Simulator()
    net = WanNetwork(sim)
    coords = st.tuples(st.integers(0, 3), st.integers(0, 3))
    sites = [net.add_site(Site(sim, f"s{i}", (100.0 * x, 100.0 * y)))
             for i, (x, y) in enumerate(data.draw(
                 st.lists(coords, min_size=n, max_size=n)))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in data.draw(st.lists(st.sampled_from(pairs), unique=True)):
        net.connect(sites[i], sites[j],
                    distance_km=data.draw(st.sampled_from([100.0, 250.0])))
    for rnd in range(2):
        for src in sites:
            for dst in sites:
                if src.failed or dst.failed:
                    continue
                expected = _brute_force_latency(net, src.name, dst.name)
                if expected is None:
                    with pytest.raises(NoRouteError):
                        net.route(src, dst)
                    continue
                links = net.route(src, dst)
                assert sum(link.latency for link in links) \
                    == pytest.approx(expected)
                here = src.name
                for link in links:  # a connected walk from src to dst
                    assert here in (link.a.name, link.b.name)
                    here = link.b.name if link.a.name == here else link.a.name
                assert here == dst.name
        for site in sites:
            if data.draw(st.booleans()):
                site.repair() if site.failed else site.fail()
        for link in net.links.values():
            if data.draw(st.booleans()):
                link.repair() if link.failed else link.fail()
