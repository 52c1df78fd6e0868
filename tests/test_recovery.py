"""Recovery is the queue-pair core's, so every stack has it.

Every stack runs its commands through
:meth:`repro.driver.qpair.Commands.execute`: the timeout, the CQ resync,
the retry under a fresh cid and the ``STATUS_HOST_*`` verdicts that the
distributed client's chaos suite exercises (tests/test_faults_chaos.py)
hold for the local drivers and the NVMe-oF initiator too, once a config
turns them on — and cost nothing measurable while it does not.
"""

import dataclasses

import pytest

from repro.config import ReliabilityConfig, SimulationConfig
from repro.driver import (STATUS_HOST_TIMEOUT, BlockRequest,
                          SpdkLocalDriver, StockNvmeDriver)
from repro.driver.qpair import Commands, QueuePair
from repro.nvmeof import NvmeofInitiator, SpdkTarget
from repro.pcie.fabric import DROPPED
from repro.scenarios.testbed import LocalTestbed, RdmaTestbed
from repro.telemetry import Telemetry

from .hostcost import calls, cost
from .test_determinism import GOLDEN_RIGS, run_chaos

RECOVERY = ReliabilityConfig(command_timeout_ns=200_000, max_retries=2,
                             retry_backoff_ns=50_000)
BOUND_NS = 50_000_000


def _config(reliability):
    return dataclasses.replace(SimulationConfig(), reliability=reliability)


def local_driver(cls, reliability=None):
    bed = LocalTestbed(config=_config(reliability or ReliabilityConfig()),
                       seed=33)
    drv = cls(bed.sim, bed.fabric, bed.host, bed.nvme.bars[0].base,
              bed.config)
    bed.sim.run(until=bed.sim.process(drv.start()))
    return bed, drv


def nvmeof_stack(reliability=None):
    bed = RdmaTestbed(config=_config(reliability or ReliabilityConfig()),
                      seed=81)
    target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                        bed.nvme.bars[0].base, bed.target_nic, bed.config)
    bed.sim.run(until=bed.sim.process(target.start()))
    initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                bed.initiator_nic, bed.config)
    bed.sim.run(until=bed.sim.process(initiator.connect(target)))
    return bed, target, initiator


def bounded(sim, done):
    """Run until ``done`` or a generous horizon; a wedged stack shows as
    an untriggered event instead of a hang."""
    sim.run(until=sim.any_of((done, sim.timeout(BOUND_NS))))
    assert done.triggered, "the request never completed"
    return done.value


def lose_cqe_writes(bed, qp, count=1):
    """The next ``count`` CQE writes into ``qp``'s CQ never land (the
    controller's producer still advances, as on a lossy link)."""
    real = bed.fabric.write
    lo = qp.cq.base_addr
    hi = lo + qp.cq.entries * 16
    lost = []

    def write(initiator, host, addr, data, step=None):
        if len(lost) < count and lo <= addr < hi:
            lost.append(addr)
            return DROPPED      # already processed: instant, event-free
        return real(initiator, host, addr, data, step)

    bed.fabric.write = write
    return lost


def lose_capsules(bed, target, count):
    """The next ``count`` capsule placements into the target's receive
    buffers are dropped on the fabric: each SEND completes in error at
    both ends and the target never sees a command."""
    buffers = {wr.addr for conn in target.connections
               for wr in conn.qp.recv_queue}
    real = bed.fabric.write
    lost = []

    def write(initiator, host, addr, data, step=None):
        if len(lost) < count and addr in buffers:
            lost.append(addr)
            return DROPPED
        return real(initiator, host, addr, data, step)

    bed.fabric.write = write
    return lost


class TestLocalDriverRecovery:
    @pytest.mark.parametrize("cls", [StockNvmeDriver, SpdkLocalDriver],
                             ids=["stock", "spdk-local"])
    def test_a_lost_cqe_is_recovered_not_wedged(self, cls):
        bed, drv = local_driver(cls, RECOVERY)
        qp = drv._qp
        payload = bytes(range(256)) * 16
        lost = lose_cqe_writes(bed, qp)
        write = bounded(bed.sim, drv.submit(
            BlockRequest("write", lba=64, data=payload)))
        assert lost and write.ok
        # The first attempt's completion fell in the hole: it timed out
        # and was retried under a fresh cid, whose completion the next
        # timeout's resync found beyond the hole.
        assert (qp.timeouts, qp.retries, qp.stale) == (1, 1, 0)
        read = bounded(bed.sim, drv.submit(
            BlockRequest("read", lba=64, nblocks=8)))
        assert read.ok and read.result == payload
        assert qp.inflight == {} and qp.space.waiting == 0

    def test_a_timed_out_commands_span_binding_is_dropped(self):
        """The hub keys a ``timeout`` from the command core, so a local
        leg's retired cid leaves the span table like a client's does."""
        bed, drv = local_driver(SpdkLocalDriver, RECOVERY)
        tele = Telemetry(bed.sim).attach(devices=[drv],
                                         controllers=[bed.nvme])
        lose_cqe_writes(bed, drv._qp)
        req = bounded(bed.sim, drv.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        assert req.ok and drv._qp.timeouts == 1
        assert tele.spans._active == {}

    def test_recovery_off_still_waits_for_the_device(self):
        """``command_timeout_ns == 0`` (every calibrated rig): no timer
        is armed, so a lost completion is waited for, not retried."""
        bed, drv = local_driver(SpdkLocalDriver)
        lose_cqe_writes(bed, drv._qp)
        done = drv.submit(BlockRequest("read", lba=0, nblocks=8))
        bed.sim.run(until=bed.sim.timeout(5_000_000))
        assert not done.triggered
        assert drv._qp.timeouts == 0 and len(drv._qp.inflight) == 1


class TestInitiatorRecovery:
    def test_an_unanswered_capsule_ends_in_host_timeout(self):
        bed, target, initiator = nvmeof_stack(RECOVERY)
        # A target that never answers: no attempt's capsule lands.
        lost = lose_capsules(bed, target, RECOVERY.max_retries + 1)
        req = bounded(bed.sim, initiator.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        cmds = initiator.commands
        assert req.status == STATUS_HOST_TIMEOUT
        assert (cmds.timeouts, cmds.retries) \
            == (RECOVERY.max_retries + 1, RECOVERY.max_retries)
        assert cmds.inflight == {}
        assert len(initiator._slots) == initiator.queue_depth
        assert len(lost) == RECOVERY.max_retries + 1
        assert target.commands_served == 0

    def test_a_dropped_capsule_is_not_replayed(self):
        """The capsule's placement into a receive buffer is dropped: the
        buffer still holds the capsule it carried one lap of buffers ago
        (the 7th write, to LBA 0), and a SUCCESS receive completion used
        to make the target run it again over the 70th write's data."""
        bed, target, initiator = nvmeof_stack(RECOVERY)
        for i in range(70):
            req = bounded(bed.sim, initiator.submit(
                BlockRequest("write", lba=0, data=bytes([i]) * 4096)))
            assert req.ok
        served = target.commands_served
        lost = lose_capsules(bed, target, 1)
        req = bounded(bed.sim, initiator.submit(
            BlockRequest("write", lba=800, data=b"\xcc" * 4096)))
        assert lost and req.ok
        assert initiator.commands.timeouts == 1
        assert target.commands_served == served + 1
        namespace = bed.nvme.namespaces[1]
        assert namespace.read_blocks(0, 8) == bytes([69]) * 4096
        assert namespace.read_blocks(800, 8) == b"\xcc" * 4096

    @pytest.mark.xfail(strict=True, reason=(
        "the target posts the RDMA_WRITE push and the response back to "
        "back and _Connection._sent looks only at pull completions, so a "
        "push dropped on the fabric is still answered with status 0"))
    def test_a_dropped_read_push_is_not_acknowledged(self):
        """A READ never completes with status 0 and bytes other than the
        medium's: here the target's data push into the initiator host is
        dropped after the block was rewritten."""
        bed, target, initiator = nvmeof_stack()
        for op, data in (("write", b"\xaa"), ("read", None),
                         ("write", b"\xbb")):
            req = bounded(bed.sim, initiator.submit(BlockRequest(
                op, lba=0, nblocks=8, data=data and data * 4096)))
            assert req.ok
        real = bed.fabric.write
        lost = []

        def write(requester, host, addr, data, step=None):
            if not lost and host is bed.initiator_host and len(data) == 4096:
                lost.append(addr)
                return DROPPED
            return real(requester, host, addr, data, step)

        bed.fabric.write = write
        req = bounded(bed.sim, initiator.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        assert lost
        assert not req.ok \
            or req.result == bed.nvme.namespaces[1].read_blocks(0, 8)

    def test_a_late_response_is_counted_stale_and_completes_nothing(self):
        """A timeout below the fabric round trip retires the cid while
        the target still serves it; its response arrives for nobody."""
        bed, target, initiator = nvmeof_stack(ReliabilityConfig(
            command_timeout_ns=5_000, max_retries=0))
        cmds = initiator.commands
        req = bounded(bed.sim, initiator.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        assert req.status == STATUS_HOST_TIMEOUT and cmds.stale == 0
        bed.sim.run(until=bed.sim.timeout(1_000_000))
        assert target.commands_served == 1
        assert cmds.stale == 1 and cmds.inflight == {}
        assert initiator.completed == 1 and initiator.errors == 1


class TestRecoveryOffCost:
    """The move into the core is free while recovery is off: exact host
    calls of one warmed 4 KiB read, at most the count each stack had
    when the ceilings were last taken (CPython 3.11)."""

    CALLS = {"stock": 288, "spdk-local": 271, "nvmeof": 698}

    @staticmethod
    def _one_read(sim, dev, i):
        return lambda: sim.run(until=dev.submit(
            BlockRequest("read", lba=8 * i, nblocks=8)))

    def _calls(self, sim, dev):
        for i in range(3):
            self._one_read(sim, dev, i)()
        return cost(self._one_read(sim, dev, 3))[0]

    @pytest.mark.parametrize("stack", ["stock", "spdk-local", "nvmeof"])
    def test_one_io_within_two_calls(self, stack):
        if stack == "nvmeof":
            bed, _target, dev = nvmeof_stack()
        else:
            bed, dev = local_driver({"stock": StockNvmeDriver,
                                     "spdk-local": SpdkLocalDriver}[stack])
        assert self._calls(bed.sim, dev) <= self.CALLS[stack]


class TestChaosCost:
    """Host calls of the one run that takes the recovery paths under
    load (heartbeats, leases, timeouts, retries, CQ resyncs): the chaos
    golden (``run_chaos``: three clients x 150 randrw at seed 321 under
    a fixed fault plan), rig build included.  The count is exact for a
    tree and an interpreter (CPython 3.11); the ceiling is the count
    when it was last taken plus 1 %, the slack of CI's ledger gate.  No
    ledger rig runs with recovery on, so nothing else counts these
    calls (docs/performance.md, "Benchmarking").  The two recovery
    paths themselves get no slack: 1 % is 7,845 calls, while one more
    call in ``Commands._resubmit`` is 455 over the run and in
    ``QueuePair.resync`` 6."""

    CALLS = 784_582
    SLACK = 0.01
    #: calls made directly in each recovery path over the run
    RECOVERY = {"Commands._resubmit": 479, "QueuePair.resync": 446}

    @pytest.fixture(scope="class")
    def counted(self):
        # a few I/Os first, so no first-run cost (an import, a cache
        # fill) lands in the count, whatever ran before in the process
        run_chaos(4)
        rigs = []
        paths = {Commands._resubmit.__code__: "Commands._resubmit",
                 QueuePair.resync.__code__: "QueuePair.resync"}
        inside = dict.fromkeys(paths, 0)
        total = calls(lambda: rigs.append(run_chaos()), inside)
        return rigs[0], total, {paths[code]: n
                                for code, n in inside.items()}

    def test_calls_within_one_percent(self, counted):
        scn, total, _ = counted
        assert (sum(c.completed for c in scn.clients),
                sum(int(c.latencies.values().sum()) for c in scn.clients),
                scn.sim.now, scn.sim.events_processed) \
            == GOLDEN_RIGS["chaos"]
        assert total <= int(self.CALLS * (1 + self.SLACK)), total

    def test_recovery_paths_exactly(self, counted):
        _, _, paths = counted
        assert all(paths[name] <= self.RECOVERY[name]
                   for name in self.RECOVERY), paths
