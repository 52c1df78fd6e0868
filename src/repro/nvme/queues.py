"""Ring-buffer state for submission and completion queues.

These helpers hold only *indices and metadata* — the entries themselves
always live in (possibly remote) host memory and are moved by fabric DMA,
which is the paper's whole point: "queues are implemented as ring buffers
and can be allocated anywhere in physical memory, entirely at the
discretion of the NVMe controller's driver" (Sec. II).

Both the controller model and the drivers share these index mechanics;
phase-tag handling for CQs follows NVMe 1.3 §4.1.  Every method that
moves an index first emits ``ring_step`` on the probe its creator
handed in (staticcheck rule ``sanitizer-hook``), so the observer sees
the state the protocol mandates *before* it changes.
"""

from __future__ import annotations

import dataclasses

from ..sim.probe import Probe
from .constants import CQE_SIZE, SQE_SIZE


class QueueError(Exception):
    pass


@dataclasses.dataclass(slots=True)
class SubmissionQueueState:
    """Driver- or controller-side view of one SQ ring."""

    qid: int
    base_addr: int          # address in the *owner's* address space
    entries: int
    cqid: int = 0
    head: int = 0           # consumer index (controller side)
    tail: int = 0           # producer index (driver side)
    #: the creator's probe (a ring state has no simulator of its own)
    probe: Probe = dataclasses.field(kw_only=True, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise QueueError("queue must have at least 2 entries")

    @property
    def entry_size(self) -> int:
        return SQE_SIZE

    def slot_addr(self, index: int) -> int:
        if not 0 <= index < self.entries:
            raise QueueError(f"SQ{self.qid}: slot {index} out of range")
        return self.base_addr + index * SQE_SIZE

    def is_full(self) -> bool:
        """Ring full when advancing tail would collide with head."""
        return (self.tail + 1) % self.entries == self.head

    def is_empty(self) -> bool:
        return self.tail == self.head

    def occupancy(self) -> int:
        return (self.tail - self.head) % self.entries

    def advance_tail(self) -> int:
        if self.is_full():
            raise QueueError(f"SQ{self.qid} overflow")
        for f in self.probe.ring_step:
            f(self, "sq-advance")
        slot = self.tail
        self.tail = (self.tail + 1) % self.entries
        return slot

    def advance_head(self) -> int:
        if self.is_empty():
            raise QueueError(f"SQ{self.qid} underflow")
        for f in self.probe.ring_step:
            f(self, "sq-fetch")
        slot = self.head
        self.head = (self.head + 1) % self.entries
        return slot


#: Hard cap on windows per shared SQ — matches the 4 tenant bits carved
#: out of the 16-bit CID space (driver.metadata.MAX_TENANTS).
MAX_SQ_WINDOWS = 16


@dataclasses.dataclass(slots=True)
class SqWindowState:
    """Controller-side view of one tenant's slot window in a *shared* SQ.

    A shared SQ (docs/queue_sharing.md) partitions one ring into fixed
    windows; each window is an independent sub-ring with its own
    producer tail (rung through a tenant-encoded doorbell value) and
    consumer head.  ``start`` is the window's first slot in the parent
    ring; ``head``/``db_tail`` are window-relative.
    """

    index: int              # window (== tenant) index within the SQ
    start: int              # first parent-ring slot of this window
    entries: int
    head: int = 0           # consumer index (controller side)
    db_tail: int = 0        # producer tail from the tenant's doorbell
    ready_at: int = 0       # sim time the head entry became fetchable
    #: the creator's probe (a ring state has no simulator of its own)
    probe: Probe = dataclasses.field(kw_only=True, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise QueueError("window must have at least 2 entries")

    def is_empty(self) -> bool:
        return self.head == self.db_tail

    def occupancy(self) -> int:
        return (self.db_tail - self.head) % self.entries

    def slot_addr(self, base_addr: int) -> int:
        """Parent-ring address of the current head entry."""
        return base_addr + (self.start + self.head) * SQE_SIZE

    def advance_head(self) -> int:
        if self.is_empty():
            raise QueueError(f"window {self.index} underflow")
        for f in self.probe.ring_step:
            f(self, "window-fetch")
        slot = self.head
        self.head = (self.head + 1) % self.entries
        return slot


@dataclasses.dataclass(slots=True)
class CompletionQueueState:
    """Driver- or controller-side view of one CQ ring.

    The *controller* toggles ``phase`` each ring wrap when producing; the
    *driver* tracks the phase it expects and consumes entries whose phase
    tag matches — no head/tail exchange needed on the fast path.
    """

    qid: int
    base_addr: int
    entries: int
    head: int = 0           # consumer index (driver side)
    tail: int = 0           # producer index (controller side)
    phase: int = 1          # current producer phase tag (starts at 1)
    interrupt_vector: int | None = None
    #: the creator's probe (a ring state has no simulator of its own)
    probe: Probe = dataclasses.field(kw_only=True, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise QueueError("queue must have at least 2 entries")

    @property
    def entry_size(self) -> int:
        return CQE_SIZE

    def slot_addr(self, index: int) -> int:
        if not 0 <= index < self.entries:
            raise QueueError(f"CQ{self.qid}: slot {index} out of range")
        return self.base_addr + index * CQE_SIZE

    # -- producer (controller) ------------------------------------------------

    def produce_slot(self) -> tuple[int, int]:
        """Claim the next producer slot; returns (index, phase-tag)."""
        for f in self.probe.ring_step:
            f(self, "cq-produce")
        slot = self.tail
        phase = self.phase
        self.tail = (self.tail + 1) % self.entries
        if self.tail == 0:
            self.phase ^= 1
        return slot, phase

    # -- consumer (driver) -------------------------------------------------------

    def consumer_phase(self) -> int:
        """Phase tag a valid entry at the current head must carry."""
        return self.phase

    def consume(self) -> int:
        """Advance the consumer index; returns the consumed slot.

        The driver-side state uses ``phase`` as the *expected* tag; it
        flips when the head wraps.
        """
        for f in self.probe.ring_step:
            f(self, "cq-consume")
        slot = self.head
        self.head = (self.head + 1) % self.entries
        if self.head == 0:
            self.phase ^= 1
        return slot
