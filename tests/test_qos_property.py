"""Property-based invariants of the shared-SQ fetch arbiters.

The arbiters (docs/qos.md) are pure index bookkeeping over the shared
ring's tenant windows, so they can be driven directly with fake windows
and arbitrary hypothesis-generated backlogs — no simulator needed.  The
invariants:

* **work conservation** — whenever any window is backlogged, ``select``
  grants (never returns None) and never picks an empty window;
* **weight-proportional shares** — under sustained all-window backlog,
  DRR serves window ``i`` in proportion to its weight, within one
  quantum's tolerance (the classic DRR fairness bound);
* **bounded neighbour delay** — between two consecutive grants to any
  backlogged window, DRR grants each neighbour at most one quantum's
  worth of service;
* **fifo = global arrival order** — the fifo arbiter replays doorbell
  stamps in non-decreasing order (window index breaks ties);
* **strict priority** — the strict arbiter never serves a backlogged
  tier while a higher tier is backlogged;
* **same grants as the reference** — every policy's ``select`` (which
  reads ``head == db_tail`` inline) grants what the ``is_empty()``-
  calling ``select`` it replaced grants, over any doorbell / fetch /
  refund sequence; and ``off`` grants what the shared-SQ worker's own
  round-robin loop granted before it became a policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QosConfig
from repro.qos import (POLICIES, Arbiter, DrrArbiter, FifoArbiter,
                       RoundRobinArbiter, StrictArbiter, make_arbiter)

MAX_WIN = 6


class FakeWindow:
    """Just enough of SqWindowState for an arbiter: index + emptiness,
    which ``select`` reads as ``head == db_tail``."""

    head = 0

    def __init__(self, index, backlog=0):
        self.index = index
        self.backlog = backlog

    @property
    def db_tail(self):
        return self.backlog

    def is_empty(self):
        return self.backlog == 0


def make_windows(backlogs):
    return [FakeWindow(i, b) for i, b in enumerate(backlogs)]


def drain_one(arb, windows):
    """One grant cycle; returns the served window (asserting sanity)."""
    win = arb.select(windows)
    if win is None:
        assert all(w.is_empty() for w in windows), \
            "select returned None with backlogged windows"
        return None
    assert not win.is_empty(), "granted a fetch from an empty window"
    win.backlog -= 1
    arb.on_fetch(win)
    return win


def play(arb, nwin, ops):
    """Drive ``arb`` through ``ops`` — ``("ring", window, n)`` rings n
    entries, ``("fetch", ok)`` grants one fetch that lands or is lost
    (then refunded and retried) — returning the grant order and the
    arbiter's grant counts."""
    windows = make_windows([0] * nwin)
    grants = []
    for now, op in enumerate(ops):
        if op[0] == "ring":
            win = windows[op[1] % nwin]
            win.backlog += op[2]
            arb.on_doorbell(win, op[2], now // 3)
            continue
        win = arb.select(windows)
        grants.append(None if win is None else win.index)
        if win is None:
            continue
        if op[1]:
            win.backlog -= 1
            arb.on_fetch(win)
        else:
            arb.refund(win)     # the fetch was lost: retried
    return grants, arb.grant_counts


ops_st = st.lists(st.one_of(
    st.tuples(st.just("ring"), st.integers(0, MAX_WIN - 1),
              st.integers(1, 5)),
    st.tuples(st.just("fetch"), st.booleans())), max_size=120)

backlogs_st = st.lists(st.integers(min_value=0, max_value=40),
                       min_size=2, max_size=MAX_WIN)
weights_st = st.lists(st.integers(min_value=1, max_value=8),
                      min_size=MAX_WIN, max_size=MAX_WIN)
quantum_st = st.integers(min_value=1, max_value=8)


class TestWorkConservation:
    @given(backlogs=backlogs_st, quantum=quantum_st,
           weights=weights_st)
    @settings(max_examples=200, deadline=None)
    def test_drr_drains_any_backlog(self, backlogs, quantum, weights):
        windows = make_windows(backlogs)
        arb = DrrArbiter(len(windows), quantum,
                         tuple(weights[:len(windows)]))
        grants = 0
        while any(not w.is_empty() for w in windows):
            assert drain_one(arb, windows) is not None
            grants += 1
            assert grants <= sum(backlogs), "arbiter looped past drain"
        assert grants == sum(backlogs)
        assert arb.select(windows) is None
        assert arb.grant_counts == [b for b in backlogs]

    @given(backlogs=backlogs_st, quantum=quantum_st,
           weights=weights_st)
    @settings(max_examples=100, deadline=None)
    def test_every_policy_never_grants_empty(self, backlogs, quantum,
                                             weights):
        for policy in POLICIES:
            qos = QosConfig(policy=policy, quantum=quantum,
                            weights=tuple(weights))
            windows = make_windows(list(backlogs))
            arb = make_arbiter(qos, len(windows))
            for t_ns, win in enumerate(windows):
                if win.backlog:
                    arb.on_doorbell(win, win.backlog, t_ns)
            while any(not w.is_empty() for w in windows):
                assert drain_one(arb, windows) is not None
            assert arb.select(windows) is None

    @given(events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=MAX_WIN - 1),
                  st.integers(min_value=1, max_value=8),
                  st.booleans()),
        min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_drr_interleaved_arrivals_and_grants(self, events):
        """Arbitrary doorbell/grant interleavings: the arbiter always
        serves a backlogged window and drains everything rung."""
        windows = make_windows([0] * MAX_WIN)
        arb = DrrArbiter(MAX_WIN, 4, ())
        rung = 0
        for t_ns, (idx, added, grant_now) in enumerate(events):
            windows[idx].backlog += added
            arb.on_doorbell(windows[idx], added, t_ns)
            rung += added
            if grant_now:
                assert drain_one(arb, windows) is not None
        drained = sum(arb.grant_counts)
        while any(not w.is_empty() for w in windows):
            assert drain_one(arb, windows) is not None
            drained += 1
        assert drained == rung


class TestFairness:
    @given(weights=weights_st, quantum=quantum_st,
           rounds=st.integers(min_value=3, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_drr_shares_are_weight_proportional(self, weights, quantum,
                                                rounds):
        """Under sustained backlog every window's per-weight service
        stays within one quantum of every other's."""
        nwin = MAX_WIN
        windows = make_windows([10 ** 9] * nwin)
        arb = DrrArbiter(nwin, quantum, tuple(weights))
        total = rounds * quantum * sum(weights)
        for _ in range(total):
            drain_one(arb, windows)
        per_weight = [arb.grant_counts[i] / weights[i]
                      for i in range(nwin)]
        spread = max(per_weight) - min(per_weight)
        assert spread <= quantum, (
            f"service spread {spread} exceeds one quantum ({quantum}): "
            f"{arb.grant_counts} vs weights {weights}")

    @given(weights=weights_st, quantum=quantum_st)
    @settings(max_examples=100, deadline=None)
    def test_drr_neighbour_delay_bounded_by_quantum(self, weights,
                                                    quantum):
        """Between two grants to window 0, any single neighbour gets at
        most quantum * weight grants — a burst cannot park the pointer."""
        nwin = 4
        windows = make_windows([10 ** 9] * nwin)
        arb = DrrArbiter(nwin, quantum, tuple(weights[:nwin]))
        since: list[int] = [0] * nwin
        for _ in range(quantum * sum(weights[:nwin]) * 10):
            win = drain_one(arb, windows)
            if win.index == 0:
                since = [0] * nwin
            else:
                since[win.index] += 1
                assert since[win.index] <= \
                    quantum * max(1, weights[win.index]), (
                        f"window {win.index} got {since[win.index]} "
                        f"consecutive grants while 0 was backlogged")

    def test_drr_refund_restores_credit(self):
        windows = make_windows([5, 5])
        arb = DrrArbiter(2, 1, ())
        first = arb.select(windows)
        assert first is not None
        arb.refund(first)
        # The retried fetch must be able to serve the same window
        # immediately — the lost grant's credit came back.
        again = arb.select(windows)
        assert again is first

    def test_idle_window_banks_no_credit(self):
        """A window that idles through many rotations restarts with a
        fresh quantum, not accumulated credit (classic DRR rule)."""
        windows = make_windows([10 ** 6, 0])
        arb = DrrArbiter(2, 2, ())
        for _ in range(50):
            assert drain_one(arb, windows).index == 0
        windows[1].backlog = 10 ** 6
        burst = 0
        while drain_one(arb, windows).index == 1:
            burst += 1
        assert burst <= 2 * arb.quantum


class TestFifoOrder:
    @given(events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=1, max_value=4)),
        min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_serves_in_global_arrival_order(self, events):
        windows = make_windows([0] * 4)
        arb = FifoArbiter(4)
        expected = []
        for t_ns, (idx, added) in enumerate(events):
            windows[idx].backlog += added
            arb.on_doorbell(windows[idx], added, t_ns)
            expected.extend([(t_ns, idx)] * added)
        expected.sort()   # arrival stamp, window index breaking ties
        served = []
        while any(not w.is_empty() for w in windows):
            win = drain_one(arb, windows)
            served.append(win.index)
        assert served == [idx for _, idx in expected]


class TestStrictPriority:
    @given(backlogs=st.lists(st.integers(min_value=0, max_value=20),
                             min_size=3, max_size=3),
           weights=st.lists(st.integers(min_value=1, max_value=4),
                            min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_higher_tier_always_first(self, backlogs, weights):
        windows = make_windows(list(backlogs))
        arb = StrictArbiter(3, tuple(weights))
        while any(not w.is_empty() for w in windows):
            win = drain_one(arb, windows)
            top = max(weights[w.index] for w in windows
                      if not w.is_empty() or w is win)
            assert weights[win.index] == top, (
                f"served tier {weights[win.index]} while tier {top} "
                f"was backlogged")


class _FifoReference(FifoArbiter):
    def select(self, windows):
        best = None
        best_stamp = 0
        for win in windows:
            if win.is_empty():
                continue
            stamps = self._stamps[win.index]
            # A missing stamp can only mean the entry predates arbiter
            # attach; treat it as infinitely old.
            stamp = stamps[0] if stamps else -1
            if best is None or stamp < best_stamp:
                best = win
                best_stamp = stamp
        return best


class _DrrReference(DrrArbiter):
    def select(self, windows):
        nwin = self.nwin
        deficit = self._deficit
        for _ in range(nwin + 1):
            idx = self._rr
            win = windows[idx]
            if not win.is_empty() and deficit[idx] >= 1:
                deficit[idx] -= 1
                return win
            if win.is_empty():
                deficit[idx] = 0
            self._rr = idx = (idx + 1) % nwin
            if not windows[idx].is_empty():
                deficit[idx] += self.quantum * self._weight(idx)
        return None


class _StrictReference(StrictArbiter):
    def select(self, windows):
        best_prio = None
        for win in windows:
            if win.is_empty():
                continue
            prio = self._weight(win.index)
            if best_prio is None or prio > best_prio:
                best_prio = prio
        if best_prio is None:
            return None
        nwin = self.nwin
        start = self._rr.get(best_prio, 0)
        for off in range(nwin):
            win = windows[(start + off) % nwin]
            if not win.is_empty() and self._weight(win.index) == best_prio:
                self._rr[best_prio] = (win.index + 1) % nwin
                return win
        return None


class TestMatchesIsEmptyReference:
    """The ``select`` bodies above are the ones at 83442b1, verbatim."""

    @staticmethod
    def _pair(policy, nwin, quantum, weights):
        weights = tuple(weights[:nwin - 1])     # the last one weighs 1
        if policy == "fifo":
            return FifoArbiter(nwin), _FifoReference(nwin)
        if policy == "wfq":
            return (DrrArbiter(nwin, quantum, weights),
                    _DrrReference(nwin, quantum, weights))
        return (StrictArbiter(nwin, weights),
                _StrictReference(nwin, weights))

    @pytest.mark.parametrize("policy", ["fifo", "wfq", "strict"])
    @given(nwin=st.integers(2, MAX_WIN), quantum=quantum_st,
           weights=weights_st, ops=ops_st)
    @settings(max_examples=150, deadline=None)
    def test_same_grant_sequence(self, policy, nwin, quantum, weights, ops):
        new, reference = self._pair(policy, nwin, quantum, weights)
        assert play(new, nwin, ops) == play(reference, nwin, ops)


class _InlineRoundRobin(Arbiter):
    """The shared-SQ worker's own grant loop from before round-robin
    became the ``off`` policy (it ran when no arbiter was configured;
    the base class adds nothing to it but the grant counts)."""

    def __init__(self, nwin):
        super().__init__(nwin)
        self.rr = 0

    def select(self, windows):
        for off in range(self.nwin):
            cand = windows[(self.rr + off) % self.nwin]
            if not cand.is_empty():
                self.rr = (self.rr + off + 1) % self.nwin
                return cand
        return None


class TestOffIsTheInlineRoundRobin:
    @given(nwin=st.integers(2, MAX_WIN), ops=ops_st)
    @settings(max_examples=200, deadline=None)
    def test_same_grant_sequence(self, nwin, ops):
        arb = make_arbiter(QosConfig(policy="off"), nwin)
        assert play(arb, nwin, ops) == play(_InlineRoundRobin(nwin), nwin,
                                            ops)


class TestFactory:
    def test_policies_map_to_classes(self):
        assert QosConfig().policy == "off"
        classes = {"off": RoundRobinArbiter, "fifo": FifoArbiter,
                   "wfq": DrrArbiter, "strict": StrictArbiter}
        assert set(POLICIES) == set(classes)
        for policy, cls in classes.items():
            arb = make_arbiter(QosConfig(policy=policy), 4)
            assert type(arb) is cls and arb.policy == policy
        assert [p for p, cls in POLICIES.items() if not cls.isolates] \
            == ["fifo"]

    def test_bad_policy_rejected_by_config(self):
        with pytest.raises(ValueError):
            QosConfig(policy="edf")
        with pytest.raises(ValueError):
            QosConfig(quantum=0)
        with pytest.raises(ValueError):
            QosConfig(throttle_window=-1)
