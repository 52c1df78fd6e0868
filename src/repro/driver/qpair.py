"""The host side of one NVMe queue pair, written once: a command's
lifecycle and the ring mechanics.

The paper's premise (Sec. II and V, quoted in ``nvme/queues.py``) is
that a queue pair is memory plus doorbells and may live anywhere the
controller can DMA to, so the driver stacks Fig. 10 compares differ in
*placement* and in their cost tables only.  :class:`Commands` is the
ring-less half — cids, waiters, the lifecycle (:meth:`~Commands.execute`:
admission, timeout, CQ resync, fresh-cid retry, ``STATUS_HOST_*``
verdict) — on which the NVMe-oF initiator runs alone (its ``issue``
SENDs a capsule).  :class:`QueuePair` adds the rings: SQE store + SQ
tail ring in one function, pop/drain, lost-CQE resync, and the poll and
interrupt notice loops.  A stack supplies SQ memory with a
``write(offset, raw)`` (a :class:`~repro.sisci.RemoteSegment` across the
NTB, a :class:`LocalRing` in this CPU's DRAM), its BAR and a CQ in this
CPU's memory.  The manager's demux has no SQ (``sq=None``, own
``sink``); the device-side-CQ ablation has no local CQ (``cq=None``); a
shared-QP tenant rings through its own ``ring`` step and reads a
doorbell-less mailbox (``cq_bell=False``).
"""

from __future__ import annotations

import typing as t

from ..config import ReliabilityConfig
from ..nvme import (CompletionEntry, CompletionQueueState, IoOpcode,
                    SubmissionEntry, SubmissionQueueState,
                    cq_doorbell_offset, sq_doorbell_offset)
from ..sim import Event, Interrupt, Signal, Simulator

#: block-layer op -> NVMe I/O opcode, for every stack
IO_OPCODES = {"read": IoOpcode.READ, "write": IoOpcode.WRITE,
              "flush": IoOpcode.FLUSH, "compare": IoOpcode.COMPARE,
              "write_zeroes": IoOpcode.WRITE_ZEROES}

# Vendor-specific completion statuses (SCT 7) synthesised by the *host*
# side when the device never answered; they never collide with statuses
# a controller can return.
STATUS_HOST_TIMEOUT = 0x7_01    # command timed out after all retries
STATUS_HOST_SHUTDOWN = 0x7_02   # stack shut down with the I/O in flight
STATUS_HOST_CRASHED = 0x7_03    # stack was killed with the I/O in flight

#: the complete host-side set: one of these means "the *path* died",
#: never "the device answered" — multipath layers key failover on it.
HOST_PATH_STATUSES = frozenset({STATUS_HOST_TIMEOUT,
                                STATUS_HOST_SHUTDOWN,
                                STATUS_HOST_CRASHED})

_unpack = CompletionEntry.unpack


def io_sqe(request, nsid: int = 1) -> SubmissionEntry:
    """The NVMe command for a block request; PRPs are left to the stack
    (they point into *its* buffer staging)."""
    sqe = SubmissionEntry(opcode=IO_OPCODES[request.op], nsid=nsid)
    if request.op != "flush":
        sqe.slba = request.lba
        sqe.nlb = request.nblocks - 1
    return sqe


def usable_depth(queue_depth: int, entries: int) -> int:
    """An N-entry ring holds N-1 commands (tail + 1 == head means full),
    so a block-layer depth beyond that would overflow the SQ."""
    return min(queue_depth, entries - 1)


class LocalRing:
    """SQ memory in this CPU's own DRAM: the plain-store twin of
    :meth:`RemoteSegment.write <repro.sisci.RemoteSegment.write>`."""

    def __init__(self, memory, base: int) -> None:
        self.memory = memory
        self.base = base

    def write(self, offset: int, raw: bytes) -> None:
        self.memory.write(self.base + offset, raw)


class Commands:
    """Every command a stack runs, from cid to verdict.  A command is
    whatever the transport's ``issue(command, request)`` sends (an SQE,
    a staged capsule) and gets only its ``cid`` here.  Every controller
    numbers its qids from 1, so a watcher names a command ``(ctrl, qid,
    cid)``; ``complete_delay`` is charged on the waiter's trigger."""

    sq: SubmissionQueueState | None = None
    qid: int | None = None
    ring: t.Callable | None = None

    def __init__(self, sim: Simulator,
                 reliability: ReliabilityConfig | None = None, *,
                 cid_base: int = 0, cid_span: int = 0x10000,
                 complete_delay: int = 0, name: str = "",
                 ctrl=None) -> None:
        self.sim = sim
        self.probe = sim.probe
        self.reliability = reliability or ReliabilityConfig()
        self.ctrl = ctrl
        self.name = name
        self.complete_delay = complete_delay
        #: cid -> waiter of every command submitted and not yet completed
        self.inflight: dict[int, Event] = {}
        #: recovery counts; ``stale``: completions for a retired cid
        self.stale = self.timeouts = self.retries = 0
        #: fired per completion and by fail_all(): admission re-checks
        self.space = Signal(sim)
        #: admission clamp on outstanding commands (docs/qos.md), and
        #: how many commands it ever held
        self.window: int | None = None
        self.throttled = 0
        #: nonzero once closed: the status every later command ends with
        self.closed = 0
        self._cid = 0
        self._cid_base = cid_base
        self._cid_span = cid_span

    def next_cid(self) -> int:
        self._cid = (self._cid + 1) % self._cid_span
        return self._cid_base | self._cid

    def submit(self, command, request=None) -> Event:
        """Issue ``command`` under a fresh cid; the returned event
        triggers with its CQE.  ``request`` is the block request it
        serves, for whoever watches :meth:`issue`."""
        # hot-path: next_cid() inlined
        self._cid = cid = (self._cid + 1) % self._cid_span
        command.cid = cid = self._cid_base | cid
        done = Event(self.sim)
        self.inflight[cid] = done
        self.issue(command, request)
        return done

    def execute(self, command, request=None) -> t.Generator:
        """Run ``command`` to its verdict; returns the CQE.  Admission
        in order — closed, clamp, full SQ — then the attempt.  With
        ``command_timeout_ns`` set, an unanswered attempt has the CQ
        resynced, else its cid is retired (a late CQE is stale: a request
        completes once) and, after a linear backoff, it is retried under
        a fresh cid, ``max_retries`` times before STATUS_HOST_TIMEOUT.
        The same budget bounds a wait on a clogged SQ."""
        rel = self.reliability
        timeout = rel.command_timeout_ns
        sq = self.sq
        attempt = 0
        parked = False
        while True:
            if self.closed:
                cqe = CompletionEntry(status=self.closed)
                break
            if self.window is not None and self._clamp_holds():
                # Gated on this very guard, so a fire resumes only a
                # command that can move on; counted throttled once.
                if not parked:
                    parked = True
                    self.throttled += 1
                yield self.space.wait(self._clamp_holds)
                continue
            # sq.is_full(), inlined: every command passes here
            if sq is not None and (sq.tail + 1) % sq.entries == sq.head:
                if timeout <= 0:
                    # Nothing can be lost: the ring is legitimately full
                    # (queue depth above a shared slot window).
                    yield self.space.wait(self._full_sq_holds)
                    continue
                # Maybe clogged by lost completions: recover what landed
                # beyond CQ holes before calling fullness a fault.
                self.resync()
                if sq.is_full():
                    if self.ring is not None:
                        # A tenant's window fills in healthy operation:
                        # give in-flight commands one timeout period.
                        space = self.space.wait()
                        expiry = self.sim.timeout(timeout)
                        outcome = yield self.sim.any_of((space, expiry))
                        if space in outcome:
                            continue
                    if attempt >= rel.max_retries:
                        cqe = CompletionEntry(status=STATUS_HOST_TIMEOUT)
                        break
                    attempt += 1
                    yield self.sim.timeout(rel.retry_backoff_ns * attempt)
                    continue
            done = self.submit(command, request)
            if timeout <= 0:
                cqe = yield done
                break
            expiry = self.sim.timeout(timeout)
            outcome = yield self.sim.any_of((done, expiry))
            if done in outcome:
                cqe = outcome[done]
                break
            if self.resync() and done.triggered:
                cqe = done.value
                break
            cid = command.cid
            self.inflight.pop(cid, None)
            self.timeouts += 1
            for f in self.probe.recovery:
                f(self, "timeout", client=self.name, cid=cid,
                  attempt=attempt)
            if attempt >= rel.max_retries:
                cqe = CompletionEntry(cid=cid, status=STATUS_HOST_TIMEOUT)
                break
            attempt += 1
            self.retries += 1
            for f in self.probe.recovery:
                f(self, "retry", client=self.name, cid=cid,
                  attempt=attempt)
            yield self.sim.timeout(rel.retry_backoff_ns * attempt)
        return cqe

    # Guards of the plain ``space`` waits (Signal.wait): False once a
    # wake-up would take the command anywhere else.

    def _clamp_holds(self) -> bool:
        window = self.window
        return (not self.closed and window is not None
                and len(self.inflight) >= window)

    def _full_sq_holds(self) -> bool:
        return (not self.closed and not self._clamp_holds()
                and self.sq.is_full())

    def complete(self, cqe: CompletionEntry) -> None:
        """Free the SQ slots the controller fetched (a shared SQ reports
        the window-relative head), re-check admission, wake the waiter
        — or count the completion stale if a timeout retired its cid."""
        sq = self.sq
        if sq is not None:
            sq.head = cqe.sq_head
        self.space.fire()
        done = self.inflight.pop(cqe.cid, None)
        if done is not None:
            done.succeed(cqe, self.complete_delay)
        else:
            self.stale += 1
        for f in self.probe.cqe_seen:
            f(self, cqe, done)

    def resync(self) -> int:
        return 0                        # no CQ, nothing to recover

    def fail_all(self, status: int) -> None:
        """Close: complete every in-flight command with a synthetic
        host-side CQE (in cid order, for a deterministic wake order),
        end every later one with ``status``, re-check admission."""
        self.closed = status
        waiters = sorted(self.inflight.items())
        self.inflight.clear()           # in place: owners alias the map
        for cid, done in waiters:
            done.succeed(CompletionEntry(cid=cid, status=status))
        self.space.fire()


class QueuePair(Commands):
    """Host-side state and mechanics of one SQ/CQ pair.  ``sink``
    receives every CQE :meth:`drain` consumes (default: :meth:`complete`);
    ``ring(request)``, when given, replaces the SQ tail doorbell.  Who
    merely watches subscribes to the probe's ``sqe_issued`` /
    ``doorbell_rung`` / ``cqe_seen``."""

    def __init__(self, sim: Simulator, fabric, host, bar: int,
                 sq: SubmissionQueueState | None, sq_mem,
                 cq: CompletionQueueState | None, *, first_slot: int = 0,
                 ring: t.Callable | None = None, cq_bell: bool = True,
                 sink: t.Callable[[CompletionEntry], None] | None = None,
                 **core) -> None:
        Commands.__init__(self, sim, **core)
        self.sq = sq
        self.sq_mem = sq_mem
        self.cq = cq
        self.qid = (sq or cq).qid
        self.first_slot = first_slot
        self.ring = ring
        self.cq_bell = cq_bell
        self.sink = sink or self.complete
        self.running = True
        self.memory = host.memory
        self._read = host.memory.read
        # Doorbells are posted stores from this CPU into the BAR.
        self._post = fabric.post_write
        self._host = host
        self._bar = bar

    @classmethod
    def local(cls, sim: Simulator, fabric, host, bar: int, qid: int,
              entries: int, sq_addr: int, cq_addr: int,
              **kwargs) -> "QueuePair":
        """Both rings in the driving CPU's own DRAM."""
        return cls(sim, fabric, host, bar,
                   SubmissionQueueState(qid=qid, base_addr=sq_addr,
                                        entries=entries, cqid=qid,
                                        probe=sim.probe),
                   LocalRing(host.memory, sq_addr),
                   CompletionQueueState(qid=qid, base_addr=cq_addr,
                                        entries=entries, probe=sim.probe),
                   **kwargs)

    # -- submission --------------------------------------------------------

    def issue(self, sqe: SubmissionEntry, request=None) -> None:
        """SQE store, then the SQ tail doorbell behind it (PCIe posted
        ordering keeps them in program order) — one function, so
        ``doorbell-after-sq-write`` guards every stack here.  The cid is
        the caller's: the NVMe-oF target passes its initiator's through."""
        sq = self.sq
        slot = sq.advance_tail()
        store = self.sq_mem.write((self.first_slot + slot) * 64, sqe.pack())
        for f in self.probe.sqe_issued:
            f(self, sqe, slot, store, request)
        if self.ring is None:
            ring = self._post(self._host.rc, self._host,
                              self._bar + sq_doorbell_offset(sq.qid),
                              sq.tail.to_bytes(4, "little"))
            for f in self.probe.doorbell_rung:
                f(self, ring, request)
        else:
            self.ring(request)

    # -- completion --------------------------------------------------------

    def pop(self) -> CompletionEntry | None:
        """Consume one ready CQE and acknowledge it (a CQ head ring per
        entry); None when the head entry is not ready.  For consumers
        that handle each completion where they stand: the synchronous
        admin queue, the NVMe-oF target."""
        cq = self.cq
        raw = self._read(cq.base_addr + cq.head * 16, 16)
        if raw[14] & 1 != cq.phase:
            return None
        cq.consume()
        cqe = _unpack(raw)
        self.sq.head = cqe.sq_head
        self.ring_cq()
        return cqe

    def drain(self) -> int:
        """Consume every ready CQE into the sink, then ring the CQ head
        doorbell once; returns how many."""
        # hot-path: the phase tag is tested straight off the raw bytes
        # (dw3 low bit lives at byte 14 of the 16-byte entry) so the
        # common miss costs no CompletionEntry unpack.
        cq = self.cq
        read = self._read
        sink = self.sink
        base = cq.base_addr
        drained = 0
        while True:
            raw = read(base + cq.head * 16, 16)
            if raw[14] & 1 != cq.phase:
                break
            cq.consume()
            sink(_unpack(raw))
            drained += 1
        if drained:
            self.ring_cq()
        return drained

    def ring_cq(self) -> None:
        """CQ head doorbell.  A mailbox ring has none: whoever forwards
        into it acknowledges the real CQ on the tenant's behalf."""
        if self.cq_bell:
            self._post(self._host.rc, self._host,
                       self._bar + cq_doorbell_offset(self.cq.qid),
                       self.cq.head.to_bytes(4, "little"))

    def resync(self) -> int:
        """Skip CQ slots whose CQE writes were lost on the fabric
        (docs/fault_injection.md, "CQ resync"): scan one lap ahead for
        entries bearing the phase tag the producer stamped this lap,
        hand them to the sink in order, stamp the skipped holes with
        this lap's tag (left alone they would read as fresh one lap
        later), advance past the gap and ring the CQ doorbell.  The
        holes' own cids are left to their timeouts.  Returns how many
        completions were recovered; none without a CQ in this CPU's
        memory."""
        cq = self.cq
        if cq is None:
            return 0
        entries, head, phase = cq.entries, cq.head, cq.phase
        tags = [phase if head + i < entries else phase ^ 1
                for i in range(entries)]
        hits: dict[int, bytes] = {}
        for i in range(entries):
            raw = self._read(cq.base_addr + (head + i) % entries * 16, 16)
            if raw[14] & 1 == tags[i]:
                hits[i] = raw
        if not hits:
            return 0
        span = max(hits) + 1
        for i in range(span):
            slot = cq.consume()         # flips phase at the wrap for us
            if i in hits:
                self.sink(_unpack(hits[i]))
            else:
                self.memory.write(cq.slot_addr(slot),
                                  CompletionEntry(phase=tags[i]).pack())
        self.ring_cq()
        for f in self.probe.recovery:
            f(self, "cq-resync", client=self.name, recovered=len(hits),
              skipped=span - len(hits))
        return len(hits)

    # -- noticing a completion ---------------------------------------------

    def watch(self):
        """Watchpoint over CQ memory (caller unwatches)."""
        return self.memory.watch(self.cq.base_addr, self.cq.entries * 16)

    def poll(self, stream: str, interval_ns: int) -> t.Generator:
        """Busy-poll CQ memory (no interrupts, paper Sec. V): the CPU
        notices a CQE write at its next poll iteration, a draw from the
        seeded ``stream`` uniform in [0, ``interval_ns``]."""
        # hot-path: the draw is RngRegistry.uniform_ns against the
        # pre-resolved batch (a zero interval never draws, exactly as
        # uniform_ns short-circuits when low == high).
        sim = self.sim
        jitter = (sim.rng.integers(stream, 0, interval_ns + 1)
                  if interval_ns else None)
        wp = self.watch()
        wait = wp.signal.wait
        try:
            while self.running:
                # drain() stops at a miss and nothing lands before the
                # wait is armed, so no re-check is needed.
                self.drain()
                yield wait()
                if interval_ns:
                    try:
                        delay = jitter.buf[jitter.pos]
                        jitter.pos += 1
                    except IndexError:
                        delay = jitter.refill()
                    if delay:
                        yield sim.sleep(delay)
        except Interrupt:
            return  # the owner's shutdown/crash stopped the poller
        finally:
            self.memory.unwatch(wp)

    def on_interrupt(self, mailbox: int, irq_ns: int) -> t.Generator:
        """Interrupt-driven completion: sleep until the MSI-X write
        lands in ``mailbox``, pay IRQ latency, then drain.  A completion
        that raced the drain re-fires the watchpoint."""
        sim = self.sim
        wp = self.memory.watch(mailbox, 4)
        wait = wp.signal.wait
        try:
            while self.running:
                yield wait()
                yield sim.sleep(irq_ns)
                self.drain()
        except Interrupt:
            return  # the owner's shutdown/crash stopped the handler
        finally:
            self.memory.unwatch(wp)
