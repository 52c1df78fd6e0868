"""Hypothesis stateful machines for core data structures."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.memory import OutOfSpace, RangeAllocator
from repro.nvme import CompletionQueueState, QueueError, SubmissionQueueState
from repro.sim import Probe


class AllocatorMachine(RuleBasedStateMachine):
    """RangeAllocator must never hand out overlapping ranges and must
    restore full capacity when everything is freed."""

    def __init__(self):
        super().__init__()
        self.alloc = RangeAllocator(0x10_000, 0x10_000)
        self.live: dict[int, int] = {}

    @rule(size=st.integers(1, 0x2000),
          alignment=st.sampled_from([1, 8, 64, 4096]))
    def allocate(self, size, alignment):
        try:
            addr = self.alloc.alloc(size, alignment)
        except OutOfSpace:
            return
        assert addr % alignment == 0
        assert 0x10_000 <= addr and addr + size <= 0x20_000
        for other, other_size in self.live.items():
            assert addr + size <= other or other + other_size <= addr, \
                "overlapping allocation"
        self.live[addr] = size

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_one(self, data):
        addr = data.draw(st.sampled_from(sorted(self.live)))
        self.alloc.free(addr)
        del self.live[addr]

    @invariant()
    def accounting_consistent(self):
        assert self.alloc.allocated_bytes == sum(self.live.values())
        assert self.alloc.free_bytes == 0x10_000 - sum(self.live.values())

    def teardown(self):
        for addr in list(self.live):
            self.alloc.free(addr)
        assert self.alloc.free_bytes == 0x10_000
        assert self.alloc.alloc(0x10_000) == 0x10_000


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = settings(max_examples=30,
                                         stateful_step_count=40,
                                         deadline=None)


class QueuePairMachine(RuleBasedStateMachine):
    """Producer/consumer on an SQ + CQ pair mirrors a simple model:
    occupancy is bounded, phases always agree, slots advance mod N."""

    ENTRIES = 8

    def __init__(self):
        super().__init__()
        self.sq = SubmissionQueueState(qid=1, base_addr=0x1000,
                                       entries=self.ENTRIES,
                                       probe=Probe())
        self.cq_prod = CompletionQueueState(qid=1, base_addr=0x2000,
                                            entries=self.ENTRIES,
                                            probe=Probe())
        self.cq_cons = CompletionQueueState(qid=1, base_addr=0x2000,
                                            entries=self.ENTRIES,
                                            probe=Probe())
        self.submitted = 0
        self.fetched = 0
        self.completed = 0
        self.reaped = 0

    @precondition(lambda self: not self.sq.is_full())
    @rule()
    def submit(self):
        slot = self.sq.advance_tail()
        assert slot == (self.submitted % self.ENTRIES)
        self.submitted += 1

    @precondition(lambda self: not self.sq.is_empty())
    @rule()
    def fetch(self):
        slot = self.sq.advance_head()
        assert slot == (self.fetched % self.ENTRIES)
        self.fetched += 1

    # CQ can hold at most ENTRIES-1 un-reaped completions before the
    # producer would overwrite unconsumed entries.
    @precondition(lambda self: (self.completed < self.fetched
                                and self.completed - self.reaped
                                < self.ENTRIES - 1))
    @rule()
    def complete(self):
        slot, phase = self.cq_prod.produce_slot()
        assert slot == (self.completed % self.ENTRIES)
        # Consumer must expect exactly this phase when it reaps it.
        self.completed += 1
        self._pending_phase = phase

    @precondition(lambda self: self.reaped < self.completed)
    @rule()
    def reap(self):
        expected = self.cq_cons.consumer_phase()
        slot = self.cq_cons.consume()
        assert slot == (self.reaped % self.ENTRIES)
        # Recompute what the producer stamped on that slot.
        wraps = self.reaped // self.ENTRIES
        produced_phase = 1 ^ (wraps & 1)
        assert expected == produced_phase, \
            "consumer phase diverged from producer phase"
        self.reaped += 1

    @invariant()
    def occupancy_bounds(self):
        assert 0 <= self.sq.occupancy() <= self.ENTRIES - 1
        assert self.sq.occupancy() == self.submitted - self.fetched
        assert 0 <= self.completed - self.reaped <= self.ENTRIES - 1


TestQueuePairMachine = QueuePairMachine.TestCase
TestQueuePairMachine.settings = settings(max_examples=40,
                                         stateful_step_count=60,
                                         deadline=None)
