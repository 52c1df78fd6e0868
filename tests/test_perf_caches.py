"""Perf-PR referee tests: the route cache, the owned sleep timers and
the integer-delay contract must never change a modeled result.

The route cache in :class:`repro.pcie.Fabric` memoises ``resolve()``;
these tests pin its invalidation contract (address-map version bumps,
NTB LUT version bumps, live link state) and prove byte-identical
telemetry with the cache on versus ``REPRO_NO_ROUTE_CACHE=1``.
"""

import pytest

from repro.pcie import NtbLinkDown
from repro.sim import Interrupt, Simulator
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
        with pytest.raises(ValueError, match="non-integral delay"):
            sim.sleep(2.5)

    def test_fractional_succeed_delay_raises(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="non-integral delay"):
            sim.event().succeed(delay=0.5)

    def test_negative_delay_still_raises(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1)


# --- sim.sleep: every sleeper owns its timer -----------------------------

class TestPooledSleep:
    """``sim.sleep`` is ``sim.timeout`` on the queue.  (The name is from
    when sleeps came off a free list; what makes them cheap now is in
    TestOwnedTimers.)"""

    def test_sleep_times_match_timeout(self):
        def run(factory_name):
            sim = Simulator(seed=3)
            marks = []

            def proc(sim):
                factory = getattr(sim, factory_name)
                for delay in (5, 0, 17, 123, 1):
                    yield factory(delay)
                    marks.append(sim.now)

            sim.process(proc(sim))
            sim.run()
            return marks, sim.events_processed

        assert run("sleep") == run("timeout")


class TestOwnedTimers:
    def test_a_process_sleeps_on_its_own_timer_every_time(self):
        sim = Simulator(seed=3)
        seen = {"a": [], "b": []}

        def proc(tag, delay):
            for _ in range(16):
                ev = sim.sleep(delay)
                seen[tag].append(ev)
                yield ev

        sim.process(proc("a", 10))
        sim.process(proc("b", 7))
        sim.run()
        assert sim.now == 160
        assert all(ev is seen["a"][0] for ev in seen["a"])
        assert all(ev is seen["b"][0] for ev in seen["b"])
        assert seen["a"][0] is not seen["b"][0]

    def test_sleep_after_interrupt_leaves_the_stale_arming_inert(self):
        """Interrupted at 40 out of a sleep due at 100, the victim sleeps
        twice more before 100 — its timer is still on the queue, so both
        are fresh events — and once after: its own timer again.  The
        stale entry fires at 100 and wakes nobody."""
        def run(factory_name):
            sim = Simulator(seed=3)
            trace, events = [], []

            def victim():
                factory = getattr(sim, factory_name)
                for delay in (100, 30, 50, 5):
                    ev = factory(delay)
                    events.append(ev)
                    try:
                        yield ev
                        trace.append((sim.now, "victim"))
                    except Interrupt:
                        trace.append((sim.now, "victim interrupted"))

            def attacker(proc):
                yield sim.timeout(40)
                proc.interrupt()
                yield sim.timeout(60)
                trace.append((sim.now, "attacker"))

            sim.process(attacker(sim.process(victim())))
            sim.run()
            return trace, sim.events_processed, events

        trace, processed, events = run("sleep")
        assert trace == [(40, "victim interrupted"), (70, "victim"),
                         (100, "attacker"), (120, "victim"), (125, "victim")]
        assert (trace, processed) == run("timeout")[:2]
        own, second, third, last = events
        assert second is not own and third is not own and last is own
        assert type(second) is type(third) is Timeout

    def test_unyielded_sleeps_do_not_share_the_timer(self):
        """Sleeps armed in a row with callbacks and never yielded (the
        reference ``_occupy`` generator does this): each fires once."""
        sim = Simulator(seed=3)
        fired = []

        def proc():
            for delay in (30, 10, 20):
                sim.sleep(delay).callbacks.append(
                    lambda _ev, delay=delay: fired.append((sim.now, delay)))
            yield sim.sleep(5)
            fired.append((sim.now, "proc"))

        sim.process(proc())
        sim.run()
        assert fired == [(5, "proc"), (10, 10), (20, 20), (30, 30)]

    def test_sleep_outside_a_process_is_a_plain_timeout(self):
        sim = Simulator(seed=3)
        ev = sim.sleep(5)
        assert type(ev) is Timeout and sim.sleep(5) is not ev
        with pytest.raises(ValueError, match="non-integral delay"):
            sim.sleep(2.5)
        with pytest.raises(ValueError, match="negative"):
            sim.sleep(-1)
        sim.run()
        assert sim.now == 5 and ev.processed

    def test_sleep_in_a_process_validates_like_timeout(self):
        sim = Simulator(seed=3)
        seen = []

        def proc():
            for bad in (2.5, -1):
                try:
                    yield sim.sleep(bad)
                except ValueError as exc:
                    seen.append(str(exc))
            yield sim.sleep(4.0)            # integral float: accepted
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        rejected_fraction, rejected_negative, woke_at = seen
        assert "non-integral" in rejected_fraction
        assert "negative" in rejected_negative
        assert woke_at == 4


# --- route-cache invalidation -------------------------------------------

def _write_once(sim, fabric, host, addr, payload):
    def proc(sim):
        yield from fabric.write(host.rc, host, addr, payload)
    sim.process(proc(sim))
    sim.run()


class TestRouteCacheInvalidation:
    def test_cache_hits_replay_ntb_counters(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        _write_once(sim, fabric, client, window, b"a" * 64)
        first = (ntb_b.translations, ntb_b.bytes_forwarded)
        _write_once(sim, fabric, client, window, b"b" * 64)
        # The second resolve is a cache hit; the observable NTB counters
        # must advance exactly as the uncached walk would have.
        assert ntb_b.translations == 2 * first[0]
        assert ntb_b.bytes_forwarded == 2 * first[1]

    def test_link_down_reaches_cached_routes(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        _write_once(sim, fabric, client, window, b"x" * 32)  # warm cache
        ntb_b.set_link_state(False)
        with pytest.raises(NtbLinkDown):
            fabric.resolve(client, window, 32)
        ntb_b.set_link_state(True)
        before = devhost.memory.read(remote, 32)
        _write_once(sim, fabric, client, window, b"y" * 32)
        assert devhost.memory.read(remote, 32) == b"y" * 32 != before

    def test_window_remap_invalidates_cached_route(self):
        sim, cluster, fabric, devhost, client, *_, ntb_b = \
            build_two_host_cluster()
        remote_a = devhost.alloc_dma(4096)
        remote_b = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote_a, 4096)
        _write_once(sim, fabric, client, window, b"1" * 16)
        assert devhost.memory.read(remote_a, 16) == b"1" * 16
        # Remap the same local window to a different remote page: the
        # LUT version bump must defeat the cached resolution.
        ntb_b.unmap_window(window)
        window2 = ntb_b.map_window(devhost, remote_b, 4096)
        assert window2 == window  # same local address, new target
        _write_once(sim, fabric, client, window, b"2" * 16)
        assert devhost.memory.read(remote_b, 16) == b"2" * 16
        assert devhost.memory.read(remote_a, 16) == b"1" * 16

    def test_address_map_change_invalidates_cached_route(self):
        sim, cluster, fabric, devhost, client, *_ = \
            build_two_host_cluster()
        local = client.alloc_dma(4096)
        res1 = fabric.resolve(client, local, 64)
        version = client.addr_map.version
        # Any map mutation bumps the version and must defeat cached hits.
        scratch = client.addr_map.add(0xdead_0000, 4096, client.memory,
                                      label="scratch")
        assert client.addr_map.version > version
        res2 = fabric.resolve(client, local, 64)
        assert res2.addr == res1.addr and res2.host is res1.host
        client.addr_map.remove(scratch)
        res3 = fabric.resolve(client, local, 64)
        assert res3.addr == res1.addr


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
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
        sim, cluster, fabric, *_ = build_two_host_cluster()
        assert fabric._route_cache is None
        monkeypatch.delenv("REPRO_NO_ROUTE_CACHE")
        sim, cluster, fabric, *_ = build_two_host_cluster()
        assert fabric._route_cache == {}
