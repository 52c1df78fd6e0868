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
from ..sim import Event, Signal, Simulator
from ..sim.events import _PENDING
from ..sim.resources import Record
from .blockdev import RequestRecord

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
    # hot-path: one per request; positional, with SLBA in cdw10/11 and
    # the 0-based NLB in cdw12 (what the slba/nlb setters store), since
    # keyword construction and the setters cost more than the rest
    op = request.op
    if op == "flush":
        return SubmissionEntry(IO_OPCODES[op], 0, nsid)
    lba = request.lba
    return SubmissionEntry(IO_OPCODES[op], 0, nsid, 0, 0, 0,
                           lba & 0xFFFF_FFFF, (lba >> 32) & 0xFFFF_FFFF,
                           (request.nblocks - 1) & 0xFFFF)


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

    def submit(self, command, request=None, step=None) -> Event:
        """Issue ``command`` under a fresh cid; the returned event
        triggers with its CQE and runs ``step`` when given.  ``request``
        is the block request it serves, for whoever watches
        :meth:`issue`."""
        # hot-path: next_cid() inlined
        self._cid = cid = (self._cid + 1) % self._cid_span
        command.cid = cid = self._cid_base | cid
        done = Event(self.sim)
        if step:
            done.callbacks = [step]
        self.inflight[cid] = done
        self.issue(command, request)
        return done

    def execute(self, record: CommandRecord) -> None:
        """Run ``record.command`` to its verdict and hand the CQE to
        ``record._answered`` — a step of the request's record, walked
        from callbacks.  Admission in order — closed, clamp, full SQ —
        then the attempt.  With ``command_timeout_ns`` set, an
        unanswered attempt has the CQ resynced, else its cid is retired
        (a late CQE is stale: a request completes once) and, after a
        linear backoff, it is retried under a fresh cid,
        ``max_retries`` times before STATUS_HOST_TIMEOUT.  The same
        budget bounds a wait on a clogged SQ."""
        record.attempt = 0
        record.parked = False
        self._admit(record)

    def _admit(self, record: CommandRecord) -> None:
        """Admission, then the attempt; every wait on the way comes
        back here through the record's ``_admit`` step."""
        # hot-path
        if self.closed:
            record._answered(CompletionEntry(status=self.closed))
            return
        if self.window is not None and self._clamp_holds():
            # Gated on this very guard, so a fire resumes only a
            # command that can move on; counted throttled once.
            if not record.parked:
                record.parked = True
                self.throttled += 1
            self.space.wait(self._clamp_holds, record._admit)
            return
        timeout = self.reliability.command_timeout_ns
        sq = self.sq
        # sq.is_full(), inlined: every command passes here
        if sq is not None and (sq.tail + 1) % sq.entries == sq.head:
            if timeout <= 0:
                # Nothing can be lost: the ring is legitimately full
                # (queue depth above a shared slot window).
                self.space.wait(self._full_sq_holds, record._admit)
                return
            # Maybe clogged by lost completions: recover what landed
            # beyond CQ holes before calling fullness a fault.
            self.resync()
            if sq.is_full():
                if self.ring is not None:
                    # A tenant's window fills in healthy operation:
                    # give in-flight commands one timeout period.
                    record.pending = space = self.space.wait()
                    self.sim.any_of((space, self.sim.timeout(timeout))
                                    ).callbacks.append(record._spaced)
                    return
                self._clogged(record)
                return
        if timeout <= 0:
            self.submit(record.command, record.request, record._reply)
            return
        record.pending = done = self.submit(record.command, record.request)
        self.sim.any_of((done, self.sim.timeout(timeout))
                        ).callbacks.append(record._raced)

    def _clogged(self, record: CommandRecord) -> None:
        """The SQ stayed full: back off and look again, within the
        retry budget."""
        attempt = record.attempt
        if attempt >= self.reliability.max_retries:
            record._answered(CompletionEntry(status=STATUS_HOST_TIMEOUT))
            return
        record.attempt = attempt = attempt + 1
        record._arm(self.reliability.retry_backoff_ns * attempt,
                    record._admit)

    def _resubmit(self, record: CommandRecord, outcome: dict) -> None:
        """The attempt raced its timeout: answered, recovered by a CQ
        resync, or retired and — within the budget, after the backoff
        — tried again under a fresh cid."""
        done, record.pending = record.pending, None
        if done in outcome:
            record._answered(outcome[done])
            return
        if self.resync() and done.triggered:
            record._answered(done.value)
            return
        cid = record.command.cid
        self.inflight.pop(cid, None)
        self.timeouts += 1
        attempt = record.attempt
        for f in self.probe.recovery:
            f(self, "timeout", client=self.name, cid=cid, attempt=attempt)
        rel = self.reliability
        if attempt >= rel.max_retries:
            record._answered(CompletionEntry(cid=cid,
                                             status=STATUS_HOST_TIMEOUT))
            return
        record.attempt = attempt = attempt + 1
        self.retries += 1
        for f in self.probe.recovery:
            f(self, "retry", client=self.name, cid=cid, attempt=attempt)
        record._arm(rel.retry_backoff_ns * attempt, record._admit)

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


class CommandRecord(RequestRecord):
    """The request record of a stack that runs NVMe commands: its steps
    stage a ``command`` for the stack's :class:`Commands` (``queue``),
    :meth:`Commands.execute` walks it to a verdict from this record's
    callbacks, and ``_answered(cqe)`` takes the stack's steps up again
    (``cqe`` is the slot to keep the verdict in)."""

    __slots__ = ("queue", "command", "cqe", "attempt", "parked", "pending")

    def _admit(self, _event: Event | None) -> None:
        # hot-path
        self.queue._admit(self)

    def _reply(self, done: Event) -> None:
        # hot-path
        self._answered(done._value)

    def _spaced(self, outcome: Event) -> None:
        """A full tenant window raced one timeout period: freed slots
        go back to admission, else the SQ counts as clogged."""
        space, self.pending = self.pending, None
        if space in outcome._value:
            self.queue._admit(self)
        else:
            self.queue._clogged(self)

    def _raced(self, outcome: Event) -> None:
        self.queue._resubmit(self, outcome._value)

    def _answered(self, cqe: CompletionEntry) -> None:
        """The stack's step once the command has its verdict."""
        raise NotImplementedError


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
        ordering keeps them in program order) — one function for every
        stack, checked by ``tests/test_ordering_and_integrity.py``.
        The cid is the one :meth:`submit` gave the command."""
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
        admin queue, the NVMe-oF target's CQ loop."""
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
        (docs/fault_injection.md, "Recovery machinery"): scan one lap
        ahead for entries bearing the phase tag the producer stamped this
        lap, hand them to the sink in order, stamp the skipped holes with
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

    def poll(self, stream: str, interval_ns: int) -> _Poll:
        """Busy-poll CQ memory (no interrupts, paper Sec. V): the CPU
        notices a CQE write at its next poll iteration, a draw from the
        seeded ``stream`` uniform in [0, ``interval_ns``].  Returns the
        started loop (a record; ``interrupt()`` stops it)."""
        return _Poll(self, stream, interval_ns)

    def on_interrupt(self, mailbox: int, irq_ns: int) -> _Irq:
        """Interrupt-driven completion: sleep until the MSI-X write
        lands in ``mailbox``, pay IRQ latency, then drain.  A completion
        that raced the drain re-fires the watchpoint.  Returns the
        started loop (a record; ``interrupt()`` stops it)."""
        return _Irq(self, mailbox, irq_ns)


class _Notice(Record):
    """A queue pair's completion-notice loop, walked from callbacks: it
    boots on the URGENT lane, watches memory, and while the pair is
    ``running`` waits for a write, pays the notice delay on its owned
    timer and drains.  It unwatches and ends (:meth:`_stop`) once
    ``running`` is found False, or after :meth:`interrupt` (the owner's
    shutdown or crash), which leaves the wait at once and stops from an
    URGENT kick, where :meth:`Process.interrupt` delivers."""

    __slots__ = ("qp", "wp", "waiting")

    def __init__(self, qp: QueuePair) -> None:
        self.qp = qp
        self.waiting = None
        Record.__init__(self, qp.sim, self._start)

    def _start(self, _boot: Event) -> None:
        raise NotImplementedError

    def _wait(self) -> None:
        """Park on the next write to the watched memory."""
        # hot-path
        self.waiting = self.wp.signal.wait(None, self._woken)

    def _woken(self, _wake: Event) -> None:
        raise NotImplementedError

    def _stop(self, _kick: Event | None = None) -> None:
        if self._value is _PENDING:
            self.qp.memory.unwatch(self.wp)
            self._end()

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self) -> None:
        """Stop the loop: leave the wait or the delay now, unwatch from
        an URGENT kick at this instant."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already terminated")
        waiting = self.waiting
        if waiting is not None and waiting.callbacks:
            waiting.callbacks = []
        self._kick(self._stop)


class _Poll(_Notice):
    """:meth:`QueuePair.poll`: drain, wait, the jitter draw."""

    __slots__ = ("stream", "interval", "jitter")

    def __init__(self, qp: QueuePair, stream: str, interval_ns: int) -> None:
        self.stream = stream
        self.interval = interval_ns
        _Notice.__init__(self, qp)

    def _start(self, _boot: Event) -> None:
        # hot-path: the draw is RngRegistry.uniform_ns against the
        # pre-resolved batch (a zero interval never draws, exactly as
        # uniform_ns short-circuits when low == high).
        interval = self.interval
        self.jitter = (self.sim.rng.integers(self.stream, 0, interval + 1)
                       if interval else None)
        self.wp = self.qp.watch()
        self._loop(None)

    def _loop(self, _timer: Event | None) -> None:
        # hot-path
        qp = self.qp
        if not qp.running:
            self._stop()
            return
        # drain() stops at a miss and nothing lands before the wait is
        # armed, so no re-check is needed.
        qp.drain()
        self._wait()

    def _woken(self, _wake: Event) -> None:
        # hot-path
        if self.interval:
            jitter = self.jitter
            try:
                delay = jitter.buf[jitter.pos]
                jitter.pos += 1
            except IndexError:
                delay = jitter.refill()
            if delay:
                self.waiting = self._timer
                self._arm(delay, self._loop)
                return
        self._loop(None)


class _Irq(_Notice):
    """:meth:`QueuePair.on_interrupt`: wait, IRQ latency, drain."""

    __slots__ = ("mailbox", "irq_ns")

    def __init__(self, qp: QueuePair, mailbox: int, irq_ns: int) -> None:
        self.mailbox = mailbox
        self.irq_ns = irq_ns
        _Notice.__init__(self, qp)

    def _start(self, _boot: Event) -> None:
        self.wp = self.qp.memory.watch(self.mailbox, 4)
        self._loop()

    def _loop(self) -> None:
        # hot-path
        if self.qp.running:
            self._wait()
        else:
            self._stop()

    def _woken(self, _wake: Event) -> None:
        # hot-path
        self.waiting = self._timer
        self._arm(self.irq_ns, self._drain)

    def _drain(self, _timer: Event) -> None:
        # hot-path
        self.qp.drain()
        self._loop()
