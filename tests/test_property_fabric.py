"""Property-based tests for PCIe fabric invariants."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import PcieConfig
from repro.memory import HostMemory
from repro.pcie import (Cluster, Fabric, FabricFaultError, NtbFunction,
                        completion_cost, read_request_cost, write_cost)
from repro.sim import Simulator
from repro.units import MiB


def build_pair(seed):
    """Two hosts over an NTB path (adapter-switch-adapter)."""
    sim = Simulator(seed=seed)
    cfg = PcieConfig()
    cluster = Cluster(sim, cfg)
    a = cluster.add_host("a", dram_size=64 * MiB)
    b = cluster.add_host("b", dram_size=64 * MiB)
    ad_a = cluster.add_switch("a.ad", host=a)
    ad_b = cluster.add_switch("b.ad", host=b)
    x = cluster.add_switch("x")
    cluster.connect(a.rc, ad_a)
    cluster.connect(b.rc, ad_b)
    cluster.connect(ad_a, x)
    cluster.connect(ad_b, x)
    fabric = Fabric(sim, cluster, cfg)
    ntb_a = NtbFunction(sim, "ntb-a", aperture=16 * MiB)
    ntb_a.install(a, ad_a, fabric)
    ntb_b = NtbFunction(sim, "ntb-b", aperture=16 * MiB)
    ntb_b.install(b, ad_b, fabric)
    return sim, cluster, fabric, a, b, ntb_a, ntb_b


class TestPostedOrderingProperty:
    @given(st.lists(st.tuples(st.integers(0, 63),    # slot
                              st.integers(1, 64),    # size
                              st.integers(0, 400)),  # gap ns
                    min_size=2, max_size=25),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_flow_posted_writes_never_reorder(self, ops, seed):
        """Any sequence of posted writes from one initiator to one
        remote host is delivered in submission order, regardless of
        sizes, gaps and per-chip jitter."""
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(seed)
        region = b.alloc_dma(64 * 128)
        window = ntb_a.map_window(b, region, 64 * 128)
        deliveries = []
        original = b.memory.write

        def spy(addr, data):
            deliveries.append((sim.now, bytes(data)[:4]))
            original(addr, data)

        b.memory.write = spy

        def proc(sim):
            for i, (slot, size, gap) in enumerate(ops):
                payload = i.to_bytes(4, "little") + bytes(size)
                fabric.post_write(a.rc, a, window + slot * 64, payload)
                if gap:
                    yield sim.timeout(gap)

        sim.process(proc(sim))
        sim.run()
        assert len(deliveries) == len(ops)
        times = [t for t, _ in deliveries]
        order = [int.from_bytes(tag, "little") for _, tag in deliveries]
        assert order == list(range(len(ops)))
        assert times == sorted(times)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_read_your_writes_across_ntb(self, seed):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(seed)
        region = b.alloc_dma(4096)
        window = ntb_a.map_window(b, region, 4096)
        out = {}

        def proc(sim):
            yield fabric.write(a.rc, a, window, b"fence-me")
            data = yield fabric.read(a.rc, a, window, 8)
            out["data"] = data

        sim.process(proc(sim))
        sim.run()
        assert out["data"] == b"fence-me"


class TestLatencyProperties:
    @given(st.integers(1, 16))
    @settings(max_examples=8, deadline=None)
    def test_reads_cost_more_than_writes_of_same_size(self, pages):
        """Non-posted reads pay a round trip; posted writes one way."""
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(11)
        nbytes = pages * 256
        region = b.alloc_dma(max(nbytes, 4096))
        window = ntb_a.map_window(b, region, max(nbytes, 4096))
        out = {}

        def proc(sim):
            start = sim.now
            yield fabric.write(a.rc, a, window, b"w" * nbytes)
            out["write"] = sim.now - start
            start = sim.now
            yield fabric.read(a.rc, a, window, nbytes)
            out["read"] = sim.now - start

        sim.process(proc(sim))
        sim.run()
        assert out["read"] > out["write"]

    def test_local_resolution_has_no_crossings(self):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(12)
        addr = a.alloc_dma(4096)
        res = fabric.resolve(a, addr, 64)
        assert res.crossings == 0
        assert res.host is a

    def test_window_resolution_counts_one_crossing(self):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(13)
        region = b.alloc_dma(4096)
        window = ntb_a.map_window(b, region, 4096)
        res = fabric.resolve(a, window, 64)
        assert res.crossings == 1
        assert res.host is b
        assert res.addr == region


class TestWireCostProperties:
    @given(st.integers(1, 1 << 20), st.integers(1, 1 << 20))
    @settings(max_examples=60, deadline=None)
    def test_wire_cost_monotone_in_payload(self, x, y):
        cfg = PcieConfig()
        small, big = min(x, y), max(x, y)
        assert write_cost(small, cfg).bytes_on_wire <= \
            write_cost(big, cfg).bytes_on_wire
        assert completion_cost(small, cfg).bytes_on_wire <= \
            completion_cost(big, cfg).bytes_on_wire
        assert read_request_cost(small, cfg).packets <= \
            read_request_cost(big, cfg).packets

    @given(st.integers(1, 1 << 18))
    @settings(max_examples=60, deadline=None)
    def test_packet_counts_match_chunking(self, size):
        cfg = PcieConfig()
        w = write_cost(size, cfg)
        assert (w.packets - 1) * cfg.max_payload_size < size
        assert size <= w.packets * cfg.max_payload_size


# --- flow records against the un-memoised twin -----------------------------

ALIAS = 0xdead_0000                 # an address whose mapping is swapped
#: target -> TLP size: few flows, so that most TLPs find a record
SIZES = {"window": 64, "window+": 512, "local": 64, "alias": 4}
TARGETS = st.sampled_from(sorted(SIZES))
OPS = st.one_of(
    st.tuples(st.just("post"), TARGETS, st.integers(0, 300)),
    st.tuples(st.sampled_from(["write", "read"]), TARGETS),
    st.tuples(st.just("link"), st.booleans()),
    st.tuples(st.sampled_from(["remap", "alias", "bump", "connect"])))


#: every kind of TLP on every target (so: over every record) ...
ROUND = [op for target in sorted(SIZES)
         for op in (("post", target, 0), ("write", target),
                    ("read", target), ("post", target, 100))]
#: ... before and after everything that can make a record stale.
EVERY_GUARD = ROUND + [
    op for change in (("remap",), ("alias",), ("bump",), ("connect",),
                      ("link", False), ("link", True), ("connect",),
                      ("remap",), ("connect",))
    for op in [change] + ROUND]


def run_script(ops, seed, memo, monkeypatch):
    """Play ``ops`` from host a on a fresh pair; everything observable."""
    if memo:
        monkeypatch.delenv("REPRO_NO_ROUTE_CACHE", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
    sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(seed)
    regions = [b.alloc_dma(4096), b.alloc_dma(4096)]
    window = ntb_a.map_window(b, regions[0], 4096)
    aliased = [HostMemory(sim, 4096, base=ALIAS, name=f"alias{i}")
               for i in range(2)]
    mapping = a.addr_map.add(ALIAS, 4096, aliased[0], label="alias")
    addrs = {"window": window, "window+": window + 512,
             "local": a.alloc_dma(4096), "alias": ALIAS}
    shortcuts = [(cluster.nodes["a.ad"], cluster.nodes["b.ad"]),
                 (a.rc, cluster.nodes["x"]), (a.rc, b.rc)]
    log = []

    def spy(memory):
        original = memory.write

        def write(addr, data):
            log.append((sim.now, "w:" + memory.name, addr, bytes(data)))
            original(addr, data)
        memory.write = write

    for memory in (a.memory, b.memory, *aliased):
        spy(memory)

    def proc(sim):
        nonlocal window, mapping
        for i, (kind, *args) in enumerate(ops):
            if kind in ("post", "write", "read"):
                addr, size = addrs[args[0]], SIZES[args[0]]
                payload = bytes([i + 1]) * size
                if kind == "post":
                    fabric.post_write(a.rc, a, addr, payload)
                    if args[1]:
                        yield sim.timeout(args[1])
                elif kind == "write":
                    yield fabric.write(a.rc, a, addr, payload)
                else:
                    try:
                        data = yield fabric.read(a.rc, a, addr, size)
                        log.append((sim.now, "r", addr, data))
                    except FabricFaultError as lost:
                        log.append((sim.now, "timeout", addr,
                                    lost.point.encode()))
            elif kind == "link":
                ntb_a.set_link_state(args[0])
            elif kind == "remap":       # same window, the other page
                ntb_a.unmap_window(window)
                regions.reverse()
                assert ntb_a.map_window(b, regions[0], 4096) == window
            elif kind == "alias":       # same address, the other memory
                a.addr_map.remove(mapping)
                aliased.reverse()
                mapping = a.addr_map.add(ALIAS, 4096, aliased[0],
                                         label="alias")
            elif kind == "bump":        # a version bump that moves nothing
                a.addr_map.remove(a.addr_map.add(
                    0xbeef_0000, 4096, a.memory, label="scratch"))
            elif shortcuts:
                cluster.connect(*shortcuts.pop(0))

    sim.process(proc(sim))
    sim.run()
    return (log,
            [(fn.translations, fn.bytes_forwarded) for fn in (ntb_a, ntb_b)],
            (fabric.posted_writes, fabric.posted_bytes, fabric.reads,
             fabric.dropped_writes, fabric.timed_out_reads),
            sim.events_processed, sim.now)


class TestFlowRecordsAgainstTheWalk:
    @given(st.lists(OPS, min_size=20, max_size=60),
           st.integers(0, 2**31 - 1))
    @example(EVERY_GUARD, 5)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_interleaving_matches_the_unmemoised_twin(
            self, monkeypatch, ops, seed):
        """Writes and reads between window remaps, link flips,
        address-map changes and new cables: a fabric that keeps flow
        records delivers what one that walks for every TLP delivers —
        payloads, instants, NTB counters, drops, event count."""
        assert run_script(ops, seed, True, monkeypatch) \
            == run_script(ops, seed, False, monkeypatch)
