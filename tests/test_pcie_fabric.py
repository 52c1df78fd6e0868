"""Integration tests for the PCIe fabric: routing, NTB windows, posted
ordering, and contention."""

import ast
import gc
import pathlib
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.config import PcieConfig
from repro.faults import FaultPointRegistry
from repro.pcie import (AddressError, Bar, Cluster, Fabric, FabricFaultError,
                        NtbError, NtbFunction, PCIeFunction, TopologyError)
from repro.sim import HoldPlan, Interrupt, Process, Simulator, Tracer
from repro.sim.resources import Hold
from repro.units import MiB

from .hostcost import c_called, cost


class ScratchFunction(PCIeFunction):
    """A device with a 4 KiB register BAR backed by plain bytes."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.add_bar(0, 4096)
        self.backing = bytearray(4096)
        self.write_log = []

    def mmio_read(self, bar, offset, length):
        return bytes(self.backing[offset: offset + length])

    def mmio_write(self, bar, offset, data):
        self.backing[offset: offset + len(data)] = data
        self.write_log.append((self.sim.now, offset, bytes(data)))


def build_two_host_cluster(seed=21):
    """Fig. 9b-style layout: devicehost has an NVMe-like endpoint; both
    hosts have NTB adapter chips cabled to a cluster switch."""
    sim = Simulator(seed=seed)
    cfg = PcieConfig()
    cluster = Cluster(sim, cfg)

    devhost = cluster.add_host("devhost", dram_size=64 * MiB)
    client = cluster.add_host("client", dram_size=64 * MiB)

    # device endpoint in devhost
    dev_node = cluster.add_endpoint("devhost.dev", host=devhost)
    cluster.connect(devhost.rc, dev_node, bandwidth=3.2)

    # NTB adapters (switch chips) + cluster switch
    adapter_a = cluster.add_switch("devhost.ntb-adapter", host=devhost)
    adapter_b = cluster.add_switch("client.ntb-adapter", host=client)
    xswitch = cluster.add_switch("cluster-switch")
    cluster.connect(devhost.rc, adapter_a, bandwidth=7.0)
    cluster.connect(client.rc, adapter_b, bandwidth=7.0)
    cluster.connect(adapter_a, xswitch, bandwidth=7.0)
    cluster.connect(adapter_b, xswitch, bandwidth=7.0)

    fabric = Fabric(sim, cluster, cfg)

    scratch = ScratchFunction(sim, "scratch")
    scratch.install(devhost, dev_node, fabric)

    ntb_a = NtbFunction(sim, "ntb-a", aperture=16 * MiB)
    ntb_a.install(devhost, adapter_a, fabric)
    ntb_b = NtbFunction(sim, "ntb-b", aperture=16 * MiB)
    ntb_b.install(client, adapter_b, fabric)

    return sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b


@pytest.fixture()
def env():
    return build_two_host_cluster()


class TestLocalTransactions:
    def test_cpu_reads_local_dram(self, env):
        sim, cluster, fabric, devhost, *_ = env
        addr = devhost.alloc_dma(4096)
        devhost.memory.write(addr, b"\x5a" * 64)

        def proc(sim):
            data = yield fabric.read(devhost.rc, devhost, addr, 64)
            return (sim.now, data)

        p = sim.process(proc(sim))
        sim.run()
        elapsed, data = p.value
        assert data == b"\x5a" * 64
        assert elapsed >= 90  # at least the DRAM service time

    def test_cpu_mmio_write_reaches_device(self, env):
        sim, cluster, fabric, devhost, client, scratch, *_ = env
        bar = scratch.bars[0]
        fabric.post_write(devhost.rc, devhost, bar.base + 0x10, b"\x01\x02")
        sim.run()
        assert scratch.backing[0x10:0x12] == b"\x01\x02"
        (when, offset, data), = scratch.write_log
        # one RC traversal + device write service + serialization
        assert 150 <= when <= 400
        assert offset == 0x10

    def test_cpu_mmio_read_round_trip(self, env):
        sim, cluster, fabric, devhost, client, scratch, *_ = env
        scratch.backing[0:4] = b"\xaa\xbb\xcc\xdd"
        bar = scratch.bars[0]

        def proc(sim):
            data = yield fabric.read(devhost.rc, devhost, bar.base, 4)
            return (sim.now, data)

        p = sim.process(proc(sim))
        sim.run()
        elapsed, data = p.value
        assert data == b"\xaa\xbb\xcc\xdd"
        # round trip: 2 RC traversals + device read service
        assert elapsed >= 2 * 150 + 120

    def test_unmapped_address_raises(self, env):
        sim, cluster, fabric, devhost, *_ = env

        def proc(sim):
            yield fabric.read(devhost.rc, devhost, 0xDEAD_0000_0000, 4)

        p = sim.process(proc(sim))
        with pytest.raises(AddressError):
            sim.run()

    def test_device_dma_to_host_dram(self, env):
        sim, cluster, fabric, devhost, client, scratch, *_ = env
        addr = devhost.alloc_dma(4096)

        def proc(sim):
            yield scratch.dma_write(addr, b"device-data")
            data = yield scratch.dma_read(addr, 11)
            return data

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == b"device-data"


class TestNtbWindows:
    def test_window_write_lands_in_remote_dram(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        # client maps a window to devhost DRAM through its adapter NTB
        remote = devhost.alloc_dma(8192)
        local_addr = ntb_b.map_window(devhost, remote, 8192, label="seg")

        def proc(sim):
            yield fabric.write(client.rc, client, local_addr + 0x20,
                               b"over-the-ntb")

        sim.process(proc(sim))
        sim.run()
        assert devhost.memory.read(remote + 0x20, 12) == b"over-the-ntb"

    def test_remote_write_slower_than_local(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        local = client.alloc_dma(4096)

        def timed_write(sim, host, addr, results, tag):
            start = sim.now
            yield fabric.write(host.rc, host, addr, b"x" * 64)
            results[tag] = sim.now - start

        results = {}
        sim.process(timed_write(sim, client, local, results, "local"))
        sim.run()
        sim.process(timed_write(sim, client, window, results, "remote"))
        sim.run()
        # remote crosses 3 switch chips (>=300ns) + translation + remote RC
        assert results["remote"] >= results["local"] + 300

    def test_remote_read_round_trip_counts_chips_twice(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        devhost.memory.write(remote, b"R" * 512)
        window = ntb_b.map_window(devhost, remote, 4096)
        local = client.alloc_dma(4096)
        client.memory.write(local, b"L" * 512)

        def timed_read(sim, addr, results, tag):
            start = sim.now
            data = yield fabric.read(client.rc, client, addr, 512)
            results[tag] = (sim.now - start, data)

        results = {}
        sim.process(timed_read(sim, local, results, "local"))
        sim.run()
        sim.process(timed_read(sim, window, results, "remote"))
        sim.run()
        t_local, d_local = results["local"]
        t_remote, d_remote = results["remote"]
        assert d_remote == b"R" * 512
        assert d_local == b"L" * 512
        # 3 chips each way at >=100ns -> at least 600ns extra
        assert t_remote >= t_local + 600

    def test_window_to_remote_device_bar(self, env):
        """Mapping the *device BAR* through the NTB (paper: clients map
        doorbell registers of the remote NVMe)."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        bar = scratch.bars[0]
        window = ntb_b.map_window(devhost, bar.base, 4096, label="dev-bar")

        def proc(sim):
            yield fabric.write(client.rc, client, window + 0x40,
                               b"\x99")

        sim.process(proc(sim))
        sim.run()
        assert scratch.backing[0x40] == 0x99

    def test_access_outside_window_raises(self, env):
        """A read whose address misses every LUT window is a fault at
        that NTB: it fails after the completion timeout."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        ntb_b.map_window(devhost, remote, 4096)
        # aperture is mapped, but only [window, +4096) has a LUT entry
        unmapped = ntb_b.bars[0].base + 8 * MiB

        def proc(sim):
            yield fabric.read(client.rc, client, unmapped, 8)

        sim.process(proc(sim))
        with pytest.raises(FabricFaultError, match="ntb-b"):
            sim.run()
        assert sim.now == fabric.config.completion_timeout_ns
        assert fabric.timed_out_reads == 1 and fabric.reads == 0

    def test_late_write_into_an_unmapped_window_is_dropped(self, env):
        """A posted write into a window its owner has unmapped (a DMA
        landing after a shutdown) vanishes at that NTB, counted and
        reported; an address no map routes still raises."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        done = []

        class Log:
            def on_tlp_done(self, fabric, read, addr, size, res, lost_at):
                done.append((read, addr, size, res, lost_at))

        sim.probe.subscribe(Log())
        fabric.post_write(client.rc, client, window, b"a" * 64)
        sim.run()
        ntb_b.unmap_window(window)
        assert fabric.post_write(client.rc, client, window,
                                 b"b" * 64).callbacks is None
        sim.run()
        assert devhost.memory.read(remote, 64) == b"a" * 64
        assert fabric.dropped_writes == 1 and fabric.posted_writes == 1
        assert done[-1] == (False, window, 64, None, "ntb-b")
        with pytest.raises(AddressError):
            fabric.post_write(client.rc, client, 1 << 60, b"x")

    def test_unmap_window(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        assert ntb_b.window_count() == 1
        ntb_b.unmap_window(window)
        assert ntb_b.window_count() == 0
        with pytest.raises(NtbError):
            ntb_b.unmap_window(window)

    def test_window_to_own_host_rejected(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        with pytest.raises(NtbError):
            ntb_b.map_window(client, client.memory.base, 4096)


class TestPostedOrdering:
    def test_sqe_before_doorbell_invariant(self, env):
        """Two posted writes from the same initiator to the same host must
        arrive in submission order, despite per-chip latency jitter."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        bar_window = ntb_b.map_window(devhost, scratch.bars[0].base, 4096)
        arrivals = []

        orig_write = devhost.memory.write

        def spy(addr, data):
            arrivals.append(("sqe", sim.now))
            orig_write(addr, data)

        devhost.memory.write = spy
        orig_mmio = scratch.mmio_write

        def spy_mmio(bar, offset, data):
            arrivals.append(("doorbell", sim.now))
            orig_mmio(bar, offset, data)

        scratch.mmio_write = spy_mmio

        def proc(sim):
            for _ in range(50):
                fabric.post_write(client.rc, client, window, b"\x11" * 64)
                fabric.post_write(client.rc, client, bar_window, b"\x01")
                yield sim.timeout(100)

        sim.process(proc(sim))
        sim.run()
        assert len(arrivals) == 100
        for i in range(0, 100, 2):
            assert arrivals[i][0] == "sqe"
            assert arrivals[i + 1][0] == "doorbell"
            assert arrivals[i][1] <= arrivals[i + 1][1]


class TestContention:
    def test_link_serialises_concurrent_bulk_transfers(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(2 * 64 * 1024)
        window = ntb_b.map_window(devhost, remote, 2 * 64 * 1024)
        done = {}

        def writer(sim, tag, offset):
            start = sim.now
            yield fabric.write(client.rc, client, window + offset,
                               b"z" * 64 * 1024)
            done[tag] = sim.now - start

        sim.process(writer(sim, "a", 0))
        sim.process(writer(sim, "b", 64 * 1024))
        sim.run()
        # 64KiB at 7 B/ns ~ 9.4us serialization; the second transfer must
        # queue behind the first on the shared links.
        assert done["b"] >= done["a"] + 8_000

    def test_sequential_writes_do_not_queue(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(64 * 1024)
        window = ntb_b.map_window(devhost, remote, 64 * 1024)
        durations = []

        def proc(sim):
            for _ in range(2):
                start = sim.now
                yield fabric.write(client.rc, client, window,
                                   b"z" * 4096)
                durations.append(sim.now - start)

        sim.process(proc(sim))
        sim.run()
        assert abs(durations[0] - durations[1]) < 200  # only chip jitter


class TestOccupancyEventBudget:
    """Every link between the two root complexes runs at 7 B/ns, so a
    TLP's holds all expire together: one release timer, which the
    occupying process also rides instead of pushing its own."""

    def _window(self, devhost, ntb_b):
        return ntb_b.map_window(devhost, devhost.alloc_dma(4096), 4096)

    @staticmethod
    def _held(cluster, client, devhost):
        """Units held on each link of the client -> device-host path."""
        path = cluster.path(client.rc, devhost.rc)
        return [link.resource(a, b).count
                for link, a, b in cluster.links_on(path)]

    def test_a_flow_hit_is_one_subscript(self, env):
        """Budget: a warmed TLP's probe, ``Fabric._flow`` on a hit, is
        its own frame and nothing else: the record is found by
        subscript, with no ``dict.get``, and the crossing's NTB counters
        are replayed inline (with ``dict.get``: 2 calls)."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        window = self._window(devhost, ntb_b)
        for _ in range(3):
            fabric.post_write(client.rc, client, window, b"q" * 64)
            sim.run()
        translations = ntb_b.translations
        empty = cost(lambda: None)
        c_calls = set()
        calls, _bytecodes = cost(
            lambda: fabric._flow(False, client.rc, client, window, 64),
            c_calls=c_calls)
        assert calls - empty[0] == 1
        assert not c_called(c_calls, dict, "get")
        assert ntb_b.translations == translations + 1

    def test_uncontended_occupy_schedules_one_timer(self, env):
        sim, cluster, fabric, devhost, client, *_ = env
        plan = fabric._hold_plan(cluster.path(client.rc, devhost.rc), 4096)
        fill = plan.hold()      # claims inline: the timer is the handle
        assert self._held(cluster, client, devhost) == [1] * 4
        sim.run()
        assert fill.processed and sim.events_processed == 1
        assert self._held(cluster, client, devhost) == [0] * 4

    def test_uncontended_post_write_schedules_timer_and_delivery(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        window = self._window(devhost, ntb_b)
        delivery = fabric.post_write(client.rc, client, window, b"q" * 64)
        sim.run()
        assert delivery.processed
        assert sim.events_processed == 2    # release timer + delivery
        assert self._held(cluster, client, devhost) == [0] * 4

    def test_queued_post_write_delivers_through_the_same_event(self, env):
        """The second write finds the links busy and queues for them
        from a boot event; its handle is still the delivery event, so a
        subscriber costs no queue entry either way."""
        def run(subscribe):
            sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = \
                build_two_host_cluster()
            window = self._window(devhost, ntb_b)
            fabric.post_write(client.rc, client, window, b"a" * 4096)
            queued = fabric.post_write(client.rc, client, window, b"b" * 64)
            seen = []
            if subscribe:
                queued.callbacks.append(lambda _ev: seen.append(sim.now))
            sim.run()
            assert self._held(cluster, client, devhost) == [0] * 4
            assert queued.processed
            return sim.now, sim.events_processed, seen

        now, events, seen = run(subscribe=True)
        assert seen == [now]
        assert run(subscribe=False) == (now, events, [])

    def test_queued_post_write_cost_from_issue_to_fill(self, env):
        """Budget: a posted write that finds its links busy, from issue
        to fill.  The TLP record is its own hold: it starts the walk
        itself and, filled, pushes its delivery straight from the last
        release timer (through a separate ``HoldPlan.hold``/``Hold`` and
        a hop from that hold's subscriber: 38 calls, 1,169 bytecodes).
        Its boot goes onto the URGENT lane and its delivery onto its
        instant's list inline (through ``Simulator._push``, ``Hold._start``
        and ``Fabric._arrival``: 33 calls, 1,048 bytecodes)."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        window = self._window(devhost, ntb_b)
        data = b"q" * 64
        for _ in range(3):
            fabric.post_write(client.rc, client, window, data)
            sim.run()
        (flow,) = fabric._flows[0].values()
        plan = flow.plan

        def issue_to_fill():
            fabric.post_write(client.rc, client, window, data)
            sim.run(until=sim.now + 2 * plan.fill)

        empty = cost(lambda: None)
        for _ in range(4):          # warm, then measure the fourth
            assert plan.take() is not None      # every link busy
            before = sim.events_processed
            calls, bytecodes = cost(issue_to_fill)
            # boot, the busy plan's release, the grant, the fill
            assert sim.events_processed - before == 4
            sim.run()               # and the delivery
            assert sim.events_processed - before == 5
        assert calls - empty[0] == 27
        assert bytecodes - empty[1] <= 990
        assert self._held(cluster, client, devhost) == [0] * 4

    @staticmethod
    def _calls(fn):
        """Python and C calls made by ``fn()`` — the unit of the ledger's
        ``host_calls_per_io``."""
        calls = [0]

        def profile(_frame, event, _arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        gc.collect()    # no finalizer of an earlier test's garbage in fn
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return calls[0] - 2     # fn itself, the closing setprofile

    def test_warmed_tlp_call_budget(self, env):
        """A TLP on a flow the fabric has seen makes one probe for its
        record and then only claims, draws and pushes (24 / 34 / 88
        calls before the record: six lookups and five helper frames).
        A read is a record walking from callbacks, not a coroutine in a
        process of its own (58 calls)."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        window = self._window(devhost, ntb_b)

        def post():
            fabric.post_write(client.rc, client, window, b"q" * 64)

        def deliver():
            fabric.post_write(client.rc, client, window, b"q" * 64)
            sim.run()

        def read():
            sim.run(until=fabric.read(client.rc, client, window, 64))

        for _ in range(3):
            deliver()
            read()
        assert self._calls(post) <= 9
        sim.run()
        assert self._calls(deliver) <= 19
        assert self._calls(read) <= 36
        assert self._held(cluster, client, devhost) == [0] * 4

    def test_cold_tlp_in_a_warmed_window_copies_its_record(self, env):
        """Budget: a TLP to an address its flow has not seen, inside the
        LUT window an earlier TLP walked, copies that record (its own
        :class:`Resolution`, the NTB counters replayed): 4 calls and
        ~160 bytecodes over a hit, where a walk and a build were 24 and
        ~420."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        remote = devhost.alloc_dma(4096)
        window = ntb_b.map_window(devhost, remote, 4096)
        data = b"q" * 64

        def post(offset):
            return lambda: fabric.post_write(client.rc, client,
                                             window + offset, data)

        for _ in range(3):
            post(0)()
            sim.run()
        translations = ntb_b.translations
        cold = cost(post(128))
        sim.run()
        hit = cost(post(128))
        sim.run()
        assert cold[0] - hit[0] == 4
        assert cold[1] - hit[1] <= 170
        assert ntb_b.translations == translations + 2
        assert devhost.memory.read(remote + 128, 64) == data


class TestPostWrites:
    """``post_writes`` is ``post_write`` per segment of its payload, in
    order, except that the members that must queue share one boot
    event."""

    SIZES = (4096, 4096, 64, 4096, 4096, 4096)

    def _run(self, burst, trace=True, link_up=True):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = \
            build_two_host_cluster()
        tracer = Tracer(sim, categories={"pcie"})
        if trace:
            sim.probe.subscribe(tracer)
        window = ntb_b.map_window(devhost, devhost.alloc_dma(32768), 32768)
        local = client.alloc_dma(4096)
        segments = [(window + 4096 * i, bytes([i + 1]) * size)
                    for i, size in enumerate(self.SIZES)]
        # another node, another size, between two runs to the first
        segments.insert(3, (local, b"L" * 512))
        ntb_b.set_link_state(link_up)
        if burst:
            fabric.post_writes(client.rc, client,
                               [(addr, len(data)) for addr, data in segments],
                               b"".join(data for _addr, data in segments))
        else:
            for addr, data in segments:
                fabric.post_write(client.rc, client, addr, data)
        sim.run()
        assert client.memory.read(local, 512) == b"L" * 512
        delivered = [(r.time_ns, r.payload["addr"], r.payload["size"])
                     for r in tracer.records
                     if r.message == "write-delivered"]
        return delivered, sim.events_processed, fabric

    def test_same_deliveries_as_single_posts_with_one_boot(self):
        single, single_events, _f = self._run(burst=False)
        burst, burst_events, fabric = self._run(burst=True)
        assert burst == single
        # one delivery per segment, each with its own size
        assert sorted(size for _t, _a, size in burst) \
            == sorted(self.SIZES + (512,))
        assert fabric.posted_writes == 7
        # The first window segment finds the links free and the local
        # one crosses none: the other five queue, on one boot, not five.
        assert single_events - burst_events == 4

    def test_event_count_does_not_depend_on_tracing(self):
        _d, traced, _f = self._run(burst=True, trace=True)
        delivered, untraced, _f = self._run(burst=True, trace=False)
        assert delivered == [] and traced == untraced

    def test_dropped_members_do_not_break_the_burst(self):
        delivered, _events, fabric = self._run(burst=True, link_up=False)
        assert fabric.dropped_writes == 6 and fabric.posted_writes == 1
        assert [size for _t, _a, size in delivered] == [512]

    def test_a_follower_behind_a_queued_member_takes_nothing(self):
        """Budget: one follower's issue in a queued 16-segment burst.
        Its predecessor queued on the same plan, so its take must fail:
        it joins the burst's boot with no ``HoldPlan.take`` and no
        ``Simulator._push`` (7 calls, 201 bytecodes with the take and
        ``Hold._start``)."""
        sim, cluster, fabric, devhost, client, *_s, ntb_b = \
            build_two_host_cluster()
        remote = devhost.alloc_dma(65536)
        window = ntb_b.map_window(devhost, remote, 65536)
        segments = [(window + 4096 * i, 4096) for i in range(16)]
        data = bytes(range(256)) * 256
        for _ in range(3):          # a record for every segment
            fabric.post_writes(client.rc, client, segments, b"w" * 65536)
            sim.run()
        plan = fabric._flows[0][(client.rc, client, window, 4096)].plan
        assert plan.take() is not None          # every link busy
        members = [fabric.post_write(client.rc, client, window,
                                     data[:4096], None, 4096)]
        empty = cost(lambda: members.append(None))
        members.pop()
        for i, (addr, size) in enumerate(segments[1:], 1):
            piece = data[4096 * i: 4096 * (i + 1)]
            codes = set()
            calls, bytecodes = cost(lambda: members.append(
                fabric.post_write(client.rc, client, addr, piece,
                                  members[-1], size)), codes)
        assert HoldPlan.take.__code__ not in codes
        assert Simulator._push.__code__ not in codes
        assert calls - empty[0] == 4
        assert bytecodes - empty[1] <= 178
        boot = members[0].boot
        assert boot is not None and len(boot.callbacks) == 16
        assert all(tlp.boot is boot and tlp.plan is plan
                   for tlp in members)
        sim.run()
        assert devhost.memory.read(remote, 65536) == data

    #: where a differential burst member goes, in the client's space:
    #: a window into device-host DRAM, one onto the device's BAR (a
    #: longer path over the same links), client DRAM (no link: inline)
    DESTINATIONS = ("dram", "bar", "local")

    BURSTS = st.lists(st.tuples(
        st.integers(0, 400),
        st.lists(st.tuples(st.sampled_from(DESTINATIONS),
                           st.sampled_from((64, 512, 4096))),
                 min_size=1, max_size=8)), min_size=1, max_size=5)

    @staticmethod
    def _play(bursts, drop, burst):
        """Issue each ``(start, [(destination, size), ...])`` at its
        start, as one ``post_writes`` or as single ``post_write``
        calls; ``drop``: the device host's link drops that share of
        TLPs.  Returns each ``tlp_done`` with its instant and the bytes
        it left at the target, the event count and the boots the
        single calls made beyond one per burst."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = \
            build_two_host_cluster()
        faults = FaultPointRegistry(sim)
        for name in ("link:client", "link:devhost"):
            faults.register(name)
        faults.set_drop("link:devhost", drop)
        fabric.faults = faults
        bases = {
            "dram": ntb_b.map_window(devhost, devhost.alloc_dma(65536),
                                     65536),
            "bar": ntb_b.map_window(devhost, scratch.bars[0].base, 4096),
            "local": client.alloc_dma(65536)}
        seen = []

        class Log:
            def on_tlp_done(self, fabric, read, addr, size, res, lost_at):
                if res is None:
                    landed = None
                elif res.kind == "mem":
                    landed = res.memory.read(res.addr, size)
                else:
                    landed = bytes(scratch.backing[res.offset:
                                                   res.offset + size])
                seen.append((sim.now, addr, size, lost_at, landed))

        sim.probe.subscribe(Log())
        merged = [0]

        def issue(tag, start, members):
            yield sim.timeout(start)
            segments = []
            for i, (where, size) in enumerate(members):
                slot = (4096 - size) if where == "bar" else 4096 * i
                segments.append((bases[where] + slot, size))
            data = b"".join(bytes([16 * tag + i + 1]) * size
                            for i, (_w, size) in enumerate(members))
            if burst:
                fabric.post_writes(client.rc, client, segments, data)
                return
            offset = boots = 0
            for addr, size in segments:
                tlp = fabric.post_write(client.rc, client, addr,
                                        data[offset: offset + size])
                offset += size
                boots += getattr(tlp, "boot", None) is not None
            merged[0] += max(boots - 1, 0)

        for tag, (start, members) in enumerate(bursts):
            sim.process(issue(tag, start, members))
        sim.run()
        return seen, sim.events_processed, merged[0]

    @settings(max_examples=60, deadline=None)
    @given(bursts=BURSTS, drop=st.sampled_from((0.0, 0.3)))
    @example(bursts=[(0, [("dram", 4096)]),
                     (0, [("dram", 4096), ("local", 64), ("bar", 64),
                          ("dram", 4096), ("dram", 4096)])], drop=0.0)
    @example(bursts=[(0, [("bar", 4096)] * 2),
                     (0, [("bar", 4096), ("dram", 512), ("bar", 512),
                          ("dram", 512), ("bar", 4096)] * 2)], drop=0.3)
    @example(bursts=[(0, [("bar", 512), ("bar", 512)]),
                     (273, [("bar", 64), ("dram", 512)])], drop=0.0)
    def test_a_burst_delivers_as_single_posts_do(self, bursts, drop):
        """A burst mixing plans, inline members between queued ones and
        members dropped mid-burst: every delivery at the instant, with
        the bytes and the ``tlp_done`` that single ``post_write`` calls
        give, and the same events but for the boots the burst shares.
        A follower skips its take only behind a member queued on the
        same plan; keyed on the burst having a boot, a member behind an
        inline one (or one queued elsewhere) would queue needlessly."""
        single, single_events, merged = self._play(bursts, drop, False)
        burst, burst_events, _m = self._play(bursts, drop, True)
        assert burst == single
        assert burst_events == single_events - merged


class TestInterruptedLinkWaiter:
    """A process interrupted while it queues for a link must leave the
    FIFO (``Hold.cancel``): at 8585d81 its dead request was granted the
    link and kept it forever."""

    def test_later_reader_still_gets_the_device_link(self, env):
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        window = ntb_b.map_window(devhost, scratch.bars[0].base, 4096)
        (link, _a, _b), = cluster.links_on((scratch.node, devhost.rc))
        uplink = link.resource(scratch.node, devhost.rc)
        done = {}

        def reader(tag, start):
            yield sim.timeout(start)
            try:
                yield fabric.read(client.rc, client, window, 4096)
                done[tag] = sim.now
            except Interrupt:
                done[tag] = "interrupted"

        sim.process(reader("a", 0))
        b = sim.process(reader("b", 10))
        sim.process(reader("c", 100_000))
        # B's completion leg queues behind A's on the device's uplink.
        while not uplink.queued:
            sim.step()
        assert uplink.count == 1 and "a" not in done
        b.interrupt()
        sim.run()
        assert done["b"] == "interrupted"
        assert done["a"] < 100_000 < done["c"] < 110_000
        for path in (cluster.path(client.rc, scratch.node),
                     cluster.path(scratch.node, client.rc)):
            assert [(link.resource(a, b).count, link.resource(a, b).queued)
                    for link, a, b in cluster.links_on(path)] \
                == [(0, 0)] * 5

    def test_interrupting_a_process_on_a_queued_write_keeps_the_walk(
            self, env):
        """A queued posted write is a :class:`Hold` subclass, which
        ``Process._detach`` cancels: interrupting a process parked on its
        delivery must not cancel the TLP's walk (a posted write's
        ``cancel`` does nothing).  The write still takes its links and
        is delivered."""
        sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = env
        buf = devhost.alloc_dma(8192)
        window = ntb_b.map_window(devhost, buf, 8192)
        fabric.post_write(client.rc, client, window, b"a" * 4096)
        queued = fabric.post_write(client.rc, client, window + 4096,
                                   b"b" * 64)
        assert isinstance(queued, Hold) and type(queued) is not Hold
        seen = []

        def waiter():
            try:
                yield queued
                seen.append("delivered")
            except Interrupt:
                seen.append(sim.now)

        proc = sim.process(waiter())
        sim.step()                  # the write's boot: it queues
        sim.step()                  # the waiter parks on the delivery
        assert proc._target is queued
        path = cluster.path(client.rc, devhost.rc)
        assert sorted(link.resource(a, b).queued
                      for link, a, b in cluster.links_on(path)) == [0, 0, 0, 1]
        proc.interrupt()
        sim.run()
        assert seen == [0] and queued.processed
        assert devhost.memory.read(buf + 4096, 64) == b"b" * 64
        assert [(link.resource(a, b).count, link.resource(a, b).queued)
                for link, a, b in cluster.links_on(path)] == [(0, 0)] * 4


def test_resource_internals_stay_inside_the_kernel():
    """Link occupancy goes through take/give and HoldPlan: no module
    outside repro/sim reaches into another object's Resource state."""
    root = pathlib.Path(repro.__file__).parent
    pokes = re.compile(r"(?<!\bself)\._(holders|waiting|free)\b")
    assert [str(path) for path in sorted(root.rglob("*.py"))
            if "sim" not in path.relative_to(root).parts[:1]
            and pokes.search(path.read_text())] == []


def test_no_timing_domain_machinery_left():
    """One event loop, one fabric model (docs/performance.md, "Why
    there is no sharded loop"): nothing in the package tags processes
    with a timing domain or routes a transaction around a boundary."""
    root = pathlib.Path(repro.__file__).parent
    tokens = re.compile(r"shard|_frozen|node_domain|sim\._domain",
                        re.IGNORECASE)
    assert [str(path) for path in sorted(root.rglob("*.py"))
            if tokens.search(path.read_text())] == []
    assert "domain" not in Process.__slots__


def test_no_sleep_pool_left():
    """Every timer has one owner (docs/performance.md, "Every sleeper
    owns its timer"): no shared free list of timer events, and so no
    recycling branch in the run loops, anywhere in the package."""
    root = pathlib.Path(repro.__file__).parent
    tokens = re.compile(r"PooledTimeout|_timeout_pool")
    assert [str(path) for path in sorted(root.rglob("*.py"))
            if tokens.search(path.read_text())] == []


def test_no_process_or_generator_occupancy_in_the_fabric():
    """A TLP is a record, not a coroutine (docs/performance.md, "Order
    preservation"): nothing under ``repro/pcie`` spawns a process, and
    links are claimed through a :class:`~repro.sim.HoldPlan` only — no
    per-link ``request()``/``release()``/``acquire()`` for a generator
    to yield on, none of the three occupancy routines the plan
    replaced.  The InfiniBand wire (``repro/rdma``) holds its
    directions the same way ("One way to hold a link")."""
    root = pathlib.Path(repro.__file__).parent
    claims = r"\.request\(|\.release\(|\.acquire\("
    tokens = {"pcie": re.compile(r"\bProcess\b|\.process\(|" + claims
                                 + r"|yield from self\._\w*(occupy|hold)"
                                 r"|\b_occupy\b|_try_hold|_queued_write"),
              "rdma": re.compile(claims)}
    assert [str(path) for package, pattern in tokens.items()
            for path in sorted((root / package).rglob("*.py"))
            if pattern.search(path.read_text())] == []


def test_a_transaction_derives_nothing_its_flow_record_holds():
    """One probe per TLP (docs/performance.md, "One flow record per
    TLP"): walking the address maps, finding the path, planning the
    holds and splitting the hop latency belong to the record's builder;
    the bodies a TLP runs through call none of them."""
    derivations = {"resolve", "_walk", "path", "hop_plan", "links_on",
                   "hop_latency", "_hold_plan", "_build_flow"}
    per_tlp = {"post_write", "post_writes", "write", "read", "_held",
               "_deliver"}
    source = pathlib.Path(repro.__file__).parent / "pcie" / "fabric.py"
    bodies = [node for node in ast.walk(ast.parse(source.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name in per_tlp]
    assert {node.name for node in bodies} == per_tlp
    assert [(body.name, call.func.attr) for body in bodies
            for call in ast.walk(body)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in derivations] == []


def test_ring_mechanics_live_in_the_queue_pair_core():
    """How the host side of an NVMe ring works — doorbell offsets, tail
    advance, the phase-tagged consume — is written once, in
    ``repro/driver/qpair.py`` (DESIGN.md).  Outside it and ``repro/nvme``
    (which defines the primitives), only two functions of the
    distributed client may touch them: the deliberate ``_poll_remote``
    ablation (CQ read across the NTB) and the tenant-encoded
    shared-window doorbell."""
    root = pathlib.Path(repro.__file__).parent
    tokens = re.compile(r"sq_doorbell_offset\(|cq_doorbell_offset\("
                        r"|\.consume\(\)|\.advance_tail\(\)"
                        r"|\[14\] *& *1|consumer_phase\(")
    allowed = {"driver/qpair.py": None,
               "driver/client.py": {"_poll_remote",
                                    "_ring_shared_sq_doorbell"}}
    strays = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        if rel.startswith("nvme/") or not tokens.search(text):
            continue
        functions = allowed.get(rel, set())
        if functions is None:
            continue
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name in functions]
        strays += [f"{rel}:{number}"
                   for number, line in enumerate(text.splitlines(), 1)
                   if tokens.search(line)
                   and not any(a <= number <= b for a, b in spans)]
    assert strays == []


def test_a_commands_lifecycle_lives_in_the_queue_pair_core():
    """What happens to a command between its cid and its verdict is
    written once, in ``repro/driver/qpair.py`` (DESIGN.md): only there
    are the ``STATUS_HOST_*`` verdicts assigned, and under ``driver/``
    and ``nvmeof/`` only there is the recovery policy read, a 16-bit
    cid counter kept, or a ``timeout``/``retry`` recovery emitted.  The
    multipath layer takes its path-failure set from the core."""
    root = pathlib.Path(repro.__file__).parent
    verdicts = re.compile(r"^\s*STATUS_HOST_\w+ *=", re.M)
    lifecycle = re.compile(r"command_timeout_ns|max_retries"
                           r"|retry_backoff_ns|% *0x10000"
                           r"|\"(timeout|retry)\"")
    strays = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "driver/qpair.py":
            continue
        text = path.read_text()
        if verdicts.search(text):
            strays.append(f"{rel}: assigns STATUS_HOST_*")
        if rel.startswith(("driver/", "nvmeof/")):
            strays += [f"{rel}:{number}"
                       for number, line in enumerate(text.splitlines(), 1)
                       if lifecycle.search(line)]
    assert strays == []
    volume = (root / "cluster" / "volume.py").read_text()
    assert "from ..driver.qpair import HOST_PATH_STATUSES" in volume
    assert "from ..driver.client import" not in volume


def test_observers_and_faults_are_wired_in_the_rig_builder():
    """Who watches or perturbs a cluster is decided in one place
    (DESIGN.md): hubs, sanitizers, fault registries, injectors and
    random plans are created — and another object's ``faults``
    retrofitted — only by ``scenarios/rig.py`` and the run module.  Elsewhere only their defining modules and the deliberate
    bug rigs of ``sanitizer/fixtures.py`` may name them; and under
    ``scenarios/`` a manager and a client are each constructed once."""
    root = pathlib.Path(repro.__file__).parent
    tokens = re.compile(
        r"\b(Telemetry|ShareSan|FaultPointRegistry|FaultInjector)\("
        r"|FaultPlan\.random\("
        r"|^\s*(?!self\.\w+ *=)[\w.\[\]]+\.(faults|tracer) *= ", re.M)
    allowed = {"scenarios/rig.py", "run.py", "sanitizer/fixtures.py",
               "telemetry/hub.py", "sanitizer/sanitizer.py",
               "faults/registry.py", "faults/injector.py", "faults/plan.py"}
    strays = [path.relative_to(root).as_posix()
              for path in sorted(root.rglob("*.py"))
              if tokens.search(path.read_text())]
    assert sorted(set(strays) - allowed) == []
    assert {"scenarios/rig.py", "run.py"} <= set(strays)
    bring_up = "".join(path.read_text() for path in
                       sorted((root / "scenarios").glob("*.py")))
    assert bring_up.count("NvmeManager(") == 1
    assert bring_up.count("DistributedNvmeClient(") == 1
    # One seam (repro/sim/probe.py), not a hook per watcher: no NULL
    # object or per-watcher wrapper is left, only the builder and the
    # observers themselves subscribe, and the model's packages do not
    # know the observers exist.
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted(root.rglob("*.py"))}
    retired = re.compile(r"NULL_TRACER|NULL_TELEMETRY|NULL_SANITIZER"
                         r"|_span_mark|\.on_issue\b")
    assert [rel for rel, text in sources.items()
            if retired.search(text)] == []
    subscribers = {rel for rel, text in sources.items()
                   if "probe.subscribe(" in text}
    assert subscribers <= {"scenarios/rig.py", "run.py", "sim/trace.py",
                           "telemetry/hub.py", "sanitizer/sanitizer.py",
                           "sanitizer/fixtures.py"}
    assert "scenarios/rig.py" in subscribers
    watchers = re.compile(r"^\s*(from|import)\s+(repro|\.+)\.?"
                          r"(telemetry|sanitizer)\b", re.M)
    assert watchers.search("from ..sanitizer.hooks import NULL_SANITIZER")
    assert [rel for rel, text in sources.items()
            if rel.split("/")[0] in ("nvme", "pcie", "driver", "memory")
            and watchers.search(text)] == []


def test_one_fetch_arbitration_path():
    """QoS is a policy, not a mode (docs/qos.md): every shared SQ
    fetches through an arbiter, so no master switch, arbiter-less branch
    or doorbell-batching knob is left, and the policy names are spelled
    in ``qos/arbiter.py`` alone — no other module keeps a list of them
    or compares against one."""
    from repro.qos.arbiter import POLICIES
    root = pathlib.Path(repro.__file__).parent
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted(root.rglob("*.py"))}
    retired = re.compile(r"qos\.enabled|arbiter is None|doorbell_batch_ns")
    assert [rel for rel, text in sources.items()
            if retired.search(text)] == []
    spelled = []
    for rel, text in sources.items():
        if rel == "qos/arbiter.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                names, most = node.elts, 1
            elif isinstance(node, ast.Dict):
                names, most = node.keys, 1
            elif isinstance(node, ast.Compare):
                names, most = [node.left, *node.comparators], 0
            else:
                continue
            if sum(isinstance(name, ast.Constant) and name.value in POLICIES
                   for name in names) > most:
                spelled.append(f"{rel}:{node.lineno}")
    assert spelled == []


class TestTopologyValidation:
    def test_duplicate_host_rejected(self, env):
        sim, cluster, *_ = env
        with pytest.raises(TopologyError):
            cluster.add_host("devhost")

    def test_duplicate_connection_rejected(self, env):
        sim, cluster, fabric, devhost, client, *_ = env
        a = cluster.nodes["devhost.ntb-adapter"]
        with pytest.raises(TopologyError):
            cluster.connect(devhost.rc, a)

    def test_no_path_raises(self, env):
        sim, cluster, *_ = env
        isolated = cluster.add_endpoint("isolated")
        with pytest.raises(TopologyError):
            cluster.path(cluster.hosts["client"].rc, isolated)

    def test_path_is_memoised_and_symmetric(self, env):
        sim, cluster, fabric, devhost, client, *_ = env
        p1 = cluster.path(client.rc, devhost.rc)
        p2 = cluster.path(devhost.rc, client.rc)
        assert p1 == tuple(reversed(p2))
        assert cluster.path(client.rc, devhost.rc) is p1  # cached

    def test_install_twice_rejected(self, env):
        sim, cluster, fabric, devhost, client, scratch, *_ = env
        with pytest.raises(RuntimeError):
            scratch.install(devhost, scratch.node, fabric)
