"""The host side of one NVMe queue pair: ring mechanics, written once.

The paper's premise (Sec. II and V, quoted in ``nvme/queues.py``) is
that a queue pair is memory plus doorbells and may live anywhere the
controller can DMA to.  So the driver stacks Fig. 10 compares differ in
*placement* and in their cost tables, not in how a ring works.  How a
ring works is this module: fresh cid + waiter (:meth:`QueuePair.submit`),
SQE store and SQ tail ring in one function (:meth:`~QueuePair.issue`),
:meth:`~QueuePair.pop` / :meth:`~QueuePair.drain`, lost-CQE
:meth:`~QueuePair.resync`, :meth:`~QueuePair.fail_all`, and the two ways
a CPU notices a completion (:meth:`~QueuePair.poll`,
:meth:`~QueuePair.on_interrupt`).

A stack supplies only placement: an object whose ``write(offset, raw)``
reaches SQ memory (a :class:`~repro.sisci.RemoteSegment` across the NTB,
a :class:`LocalRing` in this CPU's DRAM), the BAR address its doorbell
stores go to (local or NTB-mapped) and a CQ state whose ``base_addr`` is
the ring's address in this CPU's memory.  Either half may be missing:
the manager's demux worker consumes a shared CQ it never submits to
(``sq=None`` and its own ``sink``); a shared-QP tenant produces into a
slot window and rings a tenant-encoded doorbell itself
(``sq_bell=False``) while its "CQ" is a doorbell-less mailbox
(``cq_bell=False``).  The NVMe-oF initiator has no ring at all — its
command travels as a capsule — and shares only :func:`io_sqe`.
"""

from __future__ import annotations

import typing as t

from ..nvme import (CompletionEntry, CompletionQueueState, IoOpcode,
                    SubmissionEntry, SubmissionQueueState,
                    cq_doorbell_offset, sq_doorbell_offset)
from ..sim import Event, Interrupt, Simulator

#: block-layer op -> NVMe I/O opcode, for every stack
IO_OPCODES = {"read": IoOpcode.READ, "write": IoOpcode.WRITE,
              "flush": IoOpcode.FLUSH, "compare": IoOpcode.COMPARE,
              "write_zeroes": IoOpcode.WRITE_ZEROES}

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


class QueuePair:
    """Host-side state and mechanics of one SQ/CQ pair (module docstring).

    ``sink`` receives every CQE :meth:`drain` consumes; the default,
    :meth:`complete`, wakes the waiter :meth:`submit` registered
    (``complete_delay`` ns later, for stacks that charge completion
    processing on the trigger).  ``on_cqe(cqe)`` tells the owning
    stack a completion is about to be delivered (flow control); who
    merely *watches* stores and completions subscribes to the probe's
    ``sqe_issued`` / ``doorbell_rung`` / ``cqe_seen``.  ``ctrl`` is the
    controller the pair's commands go to: every controller numbers its
    qids from 1, so a watcher names a command ``(ctrl, qid, cid)``.
    """

    def __init__(self, sim: Simulator, fabric, host, bar: int,
                 sq: SubmissionQueueState | None, sq_mem,
                 cq: CompletionQueueState, *, first_slot: int = 0,
                 sq_bell: bool = True, cq_bell: bool = True,
                 cid_base: int = 0, cid_span: int = 0x10000,
                 complete_delay: int = 0,
                 sink: t.Callable[[CompletionEntry], None] | None = None,
                 on_cqe: t.Callable[[CompletionEntry], None] | None = None,
                 name: str = "", ctrl=None) -> None:
        self.sim = sim
        self.probe = sim.probe
        self.ctrl = ctrl
        self.sq = sq
        self.sq_mem = sq_mem
        self.cq = cq
        self.first_slot = first_slot
        self.sq_bell = sq_bell
        self.cq_bell = cq_bell
        self.complete_delay = complete_delay
        self.sink = sink or self.complete
        self.on_cqe = on_cqe
        self.name = name
        #: cid -> waiter of every command submitted and not yet completed
        self.inflight: dict[int, Event] = {}
        #: completions whose cid had no waiter (retired by a timeout)
        self.stale = 0
        self.running = True
        self.memory = host.memory
        self._read = host.memory.read
        # Doorbells are posted stores from this CPU into the BAR.
        self._post = fabric.post_write
        self._host = host
        self._bar = bar
        self._cid = 0
        self._cid_base = cid_base
        self._cid_span = cid_span

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

    def next_cid(self) -> int:
        self._cid = (self._cid + 1) % self._cid_span
        return self._cid_base | self._cid

    def submit(self, sqe: SubmissionEntry, request=None) -> Event:
        """Issue ``sqe`` under a fresh cid; the returned event triggers
        with its CQE.  ``request`` is the block request it serves, for
        whoever watches :meth:`issue`."""
        sqe.cid = cid = self.next_cid()
        done = Event(self.sim)
        self.inflight[cid] = done
        self.issue(sqe, request)
        return done

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
        if self.sq_bell:
            ring = self._post(self._host.rc, self._host,
                              self._bar + sq_doorbell_offset(sq.qid),
                              sq.tail.to_bytes(4, "little"))
            for f in self.probe.doorbell_rung:
                f(self, ring, request)

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

    def complete(self, cqe: CompletionEntry) -> None:
        """Default sink: free the SQ slots the controller has fetched
        (on a shared SQ it reports the *window-relative* head, which is
        exactly what a window-sized ring models), then wake the waiter."""
        self.sq.head = cqe.sq_head
        if self.on_cqe is not None:
            self.on_cqe(cqe)
        done = self.inflight.pop(cqe.cid, None)
        if done is not None:
            done.succeed(cqe, self.complete_delay)
        else:
            # The cid was retired (its submitter timed out and moved on
            # to a fresh one): drop the completion.
            self.stale += 1
        for f in self.probe.cqe_seen:
            f(self, cqe, done)

    def ring_cq(self) -> None:
        """CQ head doorbell.  A mailbox ring has none: whoever forwards
        into it acknowledges the real CQ on the tenant's behalf."""
        if self.cq_bell:
            self._post(self._host.rc, self._host,
                       self._bar + cq_doorbell_offset(self.cq.qid),
                       self.cq.head.to_bytes(4, "little"))

    def resync(self) -> int:
        """Skip CQ slots whose CQE writes were lost on the fabric.

        The controller's producer advances (and flips phase at the
        wrap) even when the posted CQE write is dropped, so an outage
        leaves *holes*: the consumer waits forever at a slot whose
        entry never arrived while valid entries sit further ahead.
        Scan one lap forward for entries carrying the phase tag the
        producer would have stamped there this lap — those are
        delivered completions beyond holes.  Hand them to the sink in
        order, advance the consumer past the gap, and ring the CQ
        doorbell.  Stale ring content still carries the *previous*
        lap's tag, so the scan cannot mistake it for a fresh entry —
        provided a skipped hole is stamped with this lap's: left alone
        it keeps the previous lap's tag, which is the next lap's too,
        and a later scan wrapping onto it would take it for fresh.
        The holes' own cids are recovered by their owners' timeouts.
        Returns the number of recovered completions.
        """
        cq = self.cq
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

    def fail_all(self, status: int) -> None:
        """Complete every in-flight command with a synthetic host-side
        CQE; sorted by cid for deterministic wake order."""
        waiters = sorted(self.inflight.items())
        self.inflight.clear()           # in place: owners alias the map
        for cid, done in waiters:
            done.succeed(CompletionEntry(cid=cid, status=status))

    # -- noticing a completion ---------------------------------------------

    def watch(self):
        """Watchpoint over CQ memory (caller unwatches)."""
        return self.memory.watch(self.cq.base_addr, self.cq.entries * 16)

    def poll(self, stream: str, interval_ns: int) -> t.Generator:
        """Busy-poll CQ memory (no interrupts, paper Sec. V): the CPU
        notices a CQE write at its next poll iteration, a draw from the
        seeded ``stream`` uniform in [0, ``interval_ns``]."""
        # hot-path: the draw mirrors RngRegistry.uniform_ns against a
        # pre-resolved stream (a zero interval never draws, exactly as
        # uniform_ns short-circuits when low == high).
        sim = self.sim
        jitter = sim.rng.stream(stream) if interval_ns else None
        wp = self.watch()
        wait = wp.signal.wait
        try:
            while self.running:
                # drain() stops at a miss and nothing lands before the
                # wait is armed, so no re-check is needed.
                self.drain()
                yield wait()
                if interval_ns:
                    delay = int(jitter.integers(0, interval_ns + 1))
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
