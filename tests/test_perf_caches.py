"""Perf-PR referee tests: the flow records and the integer-delay
contract must never change a modeled result.

:class:`repro.pcie.Fabric` keeps one record per flow — everything a TLP
from that initiator to that ``(host, addr, length)`` needs; these tests
pin its invalidation contract through the transactions themselves
(topology version, address-map version bumps, NTB LUT version bumps,
live link state, live ``faults`` and tracer) and prove byte-identical
telemetry with the records on versus ``REPRO_NO_ROUTE_CACHE=1``.
"""

import pytest

from repro.faults import FaultPointRegistry
from repro.memory import HostMemory
from repro.pcie import FabricFaultError
from repro.sim import Simulator, Tracer
from repro.sim.events import Timeout

from .test_pcie_fabric import build_two_host_cluster


# --- integer-delay contract (Timeout used to truncate silently) ----------

class TestIntegralDelays:
    def test_integral_float_delay_is_accepted(self):
        sim = Simulator(seed=0)
        ev = Timeout(sim, 5.0)
        assert ev.delay == 5
        sim.run()
        assert sim.now == 5

    def test_fractional_delay_raises_instead_of_truncating(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="non-integral delay"):
            Timeout(sim, 5.5)
        with pytest.raises(ValueError, match="non-integral delay"):
            sim.timeout(2.5)

    def test_fractional_succeed_delay_raises(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="non-integral delay"):
            sim.event().succeed(delay=0.5)

    def test_negative_succeed_delay_raises_and_leaves_it_pending(self):
        sim = Simulator(seed=0)
        ev = sim.event()
        with pytest.raises(ValueError, match="into the past"):
            ev.succeed(delay=-1)
        assert not ev.triggered

    def test_negative_delay_still_raises(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1)


# --- flow-record invalidation ---------------------------------------------

def _write_once(sim, fabric, host, addr, payload):
    def proc(sim):
        start = sim.now
        yield fabric.write(host.rc, host, addr, payload)
        return sim.now - start
    return sim.run(until=sim.process(proc(sim)))


def _read_once(sim, fabric, host, addr, length):
    def proc(sim):
        return (yield fabric.read(host.rc, host, addr, length))
    return sim.run(until=sim.process(proc(sim)))


def _warm(sim, fabric, host, addr, length):
    """One TLP of each kind: both tables hold the flow's record."""
    fabric.post_write(host.rc, host, addr, b"w" * length)
    sim.run()
    _write_once(sim, fabric, host, addr, b"w" * length)
    _read_once(sim, fabric, host, addr, length)


class TestRouteCacheInvalidation:
    def test_cache_hits_replay_ntb_counters(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        _write_once(sim, fabric, client, window, b"a" * 64)
        first = (ntb_b.translations, ntb_b.bytes_forwarded)
        assert first == (1, 64)
        # Every later TLP is a hit; the observable NTB counters must
        # advance exactly as the walk would have advanced them.
        _write_once(sim, fabric, client, window, b"b" * 64)
        fabric.post_write(client.rc, client, window, b"c" * 64)
        _read_once(sim, fabric, client, window, 64)     # built: walked
        _read_once(sim, fabric, client, window, 64)
        assert (ntb_b.translations, ntb_b.bytes_forwarded) == (5, 5 * 64)

    def test_link_down_reaches_cached_routes(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        _warm(sim, fabric, client, window, 32)
        counted = (ntb_b.translations, ntb_b.bytes_forwarded)
        ntb_b.set_link_state(False)
        # The live link is checked before the counters are replayed.
        ticket = fabric.post_write(client.rc, client, window, b"x" * 32)
        assert ticket.callbacks is None
        assert _write_once(sim, fabric, client, window, b"x" * 32) == 0
        with pytest.raises(FabricFaultError):
            _read_once(sim, fabric, client, window, 32)
        assert (fabric.dropped_writes, fabric.timed_out_reads) == (2, 1)
        assert (ntb_b.translations, ntb_b.bytes_forwarded) == counted
        assert devhost.memory.read(remote, 32) == b"w" * 32
        ntb_b.set_link_state(True)
        _write_once(sim, fabric, client, window, b"y" * 32)
        assert _read_once(sim, fabric, client, window, 32) == b"y" * 32

    def test_window_remap_invalidates_cached_route(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote_a = devhost.alloc_dma(4096)
        remote_b = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote_a, 4096)
        _warm(sim, fabric, client, window, 16)
        _write_once(sim, fabric, client, window, b"1" * 16)
        assert devhost.memory.read(remote_a, 16) == b"1" * 16
        # Remap the same local window to a different remote page: the
        # LUT version bump must defeat the flow's records.
        ntb_b.unmap_window(window)
        window2 = ntb_b.map_window(devhost, remote_b, 4096)
        assert window2 == window  # same local address, new target
        assert _read_once(sim, fabric, client, window, 16) == bytes(16)
        fabric.post_write(client.rc, client, window, b"2" * 16)
        sim.run()
        assert devhost.memory.read(remote_b, 16) == b"2" * 16
        assert devhost.memory.read(remote_a, 16) == b"1" * 16

    def test_address_map_change_invalidates_cached_route(self):
        sim, cluster, fabric, devhost, client, *_ = \
            build_two_host_cluster()
        alias = 0xdead_0000
        first = HostMemory(sim, 4096, base=alias, name="first")
        second = HostMemory(sim, 4096, base=alias, name="second")
        mapping = client.addr_map.add(alias, 4096, first, label="alias")
        _warm(sim, fabric, client, alias, 64)
        # The same address now means other memory: the map's version
        # bump must defeat the flow's records.
        client.addr_map.remove(mapping)
        client.addr_map.add(alias, 4096, second, label="alias")
        assert _read_once(sim, fabric, client, alias, 64) == bytes(64)
        fabric.post_write(client.rc, client, alias, b"2" * 64)
        _write_once(sim, fabric, client, alias + 64, b"3" * 64)
        assert second.read(alias, 128) == b"2" * 64 + b"3" * 64
        assert first.read(alias, 128) == b"w" * 64 + bytes(64)

    def test_connect_after_traffic_opens_the_shorter_path(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        window = ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)
        _warm(sim, fabric, client, window, 64)
        around = _write_once(sim, fabric, client, window, b"a" * 64)
        old = [link.resource(a, b) for link, a, b in cluster.links_on(
            cluster.path(client.rc, devhost.rc))]
        # A cable between the root complexes: no switch chip on the way.
        direct = cluster.connect(client.rc, devhost.rc, bandwidth=7.0)
        arrivals = []
        tlp = fabric.post_write(client.rc, client, window, b"b" * 64)
        tlp.callbacks.append(lambda _ev: arrivals.append(sim.now))
        assert direct.resource(client.rc, devhost.rc).count == 1
        assert [res.count for res in old] == [0] * 4
        start = sim.now
        sim.run()
        # three chips at >= 100 ns each no longer crossed
        assert arrivals[0] - start <= around - 300
        assert _write_once(sim, fabric, client, window, b"c" * 64) \
            <= around - 300
        start = sim.now
        _read_once(sim, fabric, client, window, 64)
        assert sim.now - start <= 2 * (around - 300)

    def test_cold_address_shares_the_warm_route_and_still_walks(self):
        """A new address on a known route copies the route (one entry
        per route, the same hold plans) — and still walks, so the NTB
        counts its translation."""
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        window = ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)
        _warm(sim, fabric, client, window, 64)
        routes = dict(fabric._routes)
        translations = ntb_b.translations
        _write_once(sim, fabric, client, window + 64, b"a" * 64)
        assert _read_once(sim, fabric, client, window + 64, 64) == b"a" * 64
        assert fabric._routes == routes and len(routes) == 2
        assert ntb_b.translations == translations + 2
        writes, reads = fabric._flows
        for table in (writes, reads):
            warm, cold = (table[(client.rc, client, addr, 64)]
                          for addr in (window, window + 64))
            assert cold is not warm and cold.plan is warm.plan
            assert cold.res.addr == warm.res.addr + 64

    def test_connect_after_a_warm_route_rederives_it_for_a_cold_address(
            self):
        """The route table is validated by the cluster's generation too: after
        ``connect()``, a TLP to an address never seen before takes the
        new, shorter path, not the route derived before the cable."""
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        window = ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)
        _warm(sim, fabric, client, window, 64)
        around = _write_once(sim, fabric, client, window, b"a" * 64)
        start = sim.now
        _read_once(sim, fabric, client, window, 64)
        read_around = sim.now - start
        cluster.connect(client.rc, devhost.rc, bandwidth=7.0)
        # three chips at >= 100 ns each no longer crossed
        assert _write_once(sim, fabric, client, window + 64, b"b" * 64) \
            <= around - 300
        start = sim.now
        _read_once(sim, fabric, client, window + 128, 64)
        assert sim.now - start <= read_around - 600

    def test_a_cold_address_copies_only_inside_the_window_walked(self):
        """A record covers the LUT window its walk crossed, not the NTB
        BAR: the next window of the BAR, to a page elsewhere, walks."""
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        near, _gap, far = (devhost.alloc_dma(4096) for _ in range(3))
        first = ntb_b.map_window(devhost, near, 4096)
        second = ntb_b.map_window(devhost, far, 4096)
        assert second == first + 4096
        _warm(sim, fabric, client, first, 64)
        _write_once(sim, fabric, client, first + 1024, b"a" * 64)
        _write_once(sim, fabric, client, second, b"b" * 64)
        assert devhost.memory.read(near + 1024, 64) == b"a" * 64
        assert devhost.memory.read(far, 64) == b"b" * 64
        assert _read_once(sim, fabric, client, second + 64, 64) == bytes(64)
        (walked,) = fabric._walked[0].values()
        assert [fabric.resolve(client, flow.lo, 64).addr
                for flow in walked] == [near, far]

    def test_faults_attached_after_warm_up_are_drawn_for(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        window = ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)
        _warm(sim, fabric, client, window, 64)
        delivered = _write_once(sim, fabric, client, window, b"a" * 64)
        fabric.faults = faults = FaultPointRegistry(sim)
        faults.register("link:client")
        faults.set_delay("link:client", 10_000)
        assert _write_once(sim, fabric, client, window, b"b" * 64) \
            >= delivered + 10_000 - 200     # chip jitter
        faults.set_drop("link:client", 1.0)
        assert fabric.post_write(client.rc, client, window,
                                 b"c" * 64).callbacks is None
        with pytest.raises(FabricFaultError):
            _read_once(sim, fabric, client, window, 64)
        assert faults.injected == {"tlp-drop": 2}
        faults.set_drop("link:client", 0.0)
        faults.set_link("link:client", False)
        assert _write_once(sim, fabric, client, window, b"d" * 64) == 0
        assert (fabric.dropped_writes, fabric.timed_out_reads) == (2, 1)

    def test_tracer_attached_after_warm_up_sees_the_next_delivery(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        window = ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)
        _warm(sim, fabric, client, window, 64)
        tracer = sim.probe.subscribe(Tracer(sim, categories={"pcie"}))
        fabric.post_write(client.rc, client, window, b"a" * 64)
        sim.run()
        _write_once(sim, fabric, client, window, b"b" * 64)
        _read_once(sim, fabric, client, window, 64)
        assert [r.message for r in tracer.records] == [
            "write-delivered", "write-delivered", "read-complete"]


# --- byte-identical telemetry with the cache disabled --------------------

class TestNoRouteCacheEscapeHatch:
    @pytest.mark.parametrize("scenario", ["ours-remote", "chaos"])
    def test_exports_identical_with_and_without_cache(self, scenario,
                                                      monkeypatch):
        from repro.run import RunSpec, run

        def exports():
            done = run(RunSpec(
                scenario, iodepth=4, ios=60, seed=13, observe={"spans"},
                faults="random" if scenario == "chaos" else "none"))
            return done.perfetto_json(), done.prometheus_text()

        cached = exports()
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
        uncached = exports()
        assert cached == uncached

    def test_env_var_disables_the_cache(self, monkeypatch):
        def flows():
            sim, cluster, fabric, devhost, client, *_ = \
                build_two_host_cluster()
            _warm(sim, fabric, client, client.alloc_dma(4096), 64)
            return [len(table) for table in fabric._flows] \
                + [len(fabric._routes)]

        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
        assert flows() == [0, 0, 0]
        monkeypatch.delenv("REPRO_NO_ROUTE_CACHE")
        assert flows() == [1, 1, 2]
