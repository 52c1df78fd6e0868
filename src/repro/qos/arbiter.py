"""Fetch arbitration for shared (windowed) submission queues.

The shared-SQ fetch loop (docs/queue_sharing.md) is the single point where
one tenant's backlog can delay every co-tenant: the controller fetches
one SQE per grant, and *which window gets the grant* is the whole QoS
policy.  Every shared SQ fetches through one :class:`Arbiter`; which
one is ``QosConfig.policy``, a key of :data:`POLICIES`:

``off``
    The NVMe spec's mandatory round-robin: one SQE from the next
    backlogged window after the previous winner.  No weights, no
    stamps — and it isolates, because a deep backlog buys its tenant
    one fetch per turn like everyone else.

``fifo``
    Global arrival order across windows.  The controller fetches the
    oldest rung entry anywhere in the ring, exactly what a naive shared
    queue would do — and exactly why a tenant that rings 60 entries at
    once makes every later arrival wait behind all 60.  This is the
    *baseline that fails to isolate*, kept so the benchmark curve is
    non-vacuous.

``wfq``
    Deficit round-robin (Shreedhar & Varghese).  Each time the
    round-robin pointer lands on a backlogged window it earns
    ``quantum * weight`` grant credits; one credit buys one SQE fetch.
    Service converges to weight-proportional shares regardless of
    backlog depth, and a window's burst can delay a neighbour by at
    most one quantum.

``strict``
    Strict priority by weight: the highest-weight backlogged tier is
    always served first, round-robin inside the tier.  Starves low
    tiers under sustained high-tier load — intentionally; it is the
    "platinum tenant" policy.

Arbiters are pure index bookkeeping — no RNG, no sim time dependence
beyond the stamps handed in — so identical doorbell sequences produce
identical grant sequences (the determinism discipline of the repo).
"""

from __future__ import annotations

import collections
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover
    from ..config import QosConfig
    from ..nvme.queues import SqWindowState


class Arbiter:
    """Base class: grant decisions over a shared SQ's windows."""

    #: policy label used in metrics/exports (the :data:`POLICIES` key)
    policy = ""
    #: whether the policy protects bystanders from a noisy neighbour
    #: (``repro run noisy --check`` expects the others to leak)
    isolates = True
    #: per-window weights (the weighted policies set their own);
    #: windows beyond the tuple weigh 1
    weights: tuple[int, ...] = ()

    def __init__(self, nwin: int) -> None:
        self.nwin = nwin
        #: grants per window, for telemetry (read-only outside)
        self.grant_counts = [0] * nwin

    @classmethod
    def from_config(cls, qos: "QosConfig", nwin: int) -> "Arbiter":
        return cls(nwin)

    def _weight(self, index: int) -> int:
        if index < len(self.weights):
            return max(1, self.weights[index])
        return 1

    def on_doorbell(self, win: "SqWindowState", added: int,
                    now: int) -> None:
        """``added`` new entries rung into ``win`` at sim time ``now``."""

    def select(self, windows: list["SqWindowState"]
               ) -> "SqWindowState | None":
        """Pick the window to grant the next fetch to, or None if all
        windows are empty.  May consume policy credit; a failed fetch
        must be handed back via :meth:`refund`."""
        raise NotImplementedError

    def on_fetch(self, win: "SqWindowState") -> None:
        """The granted fetch succeeded and ``win``'s head advanced."""
        self.grant_counts[win.index] += 1

    def refund(self, win: "SqWindowState") -> None:
        """The granted fetch was lost in the fabric; the slot will be
        retried.  Restore any credit :meth:`select` consumed."""


class RoundRobinArbiter(Arbiter):
    """Round-robin over the backlogged windows of one priority tier;
    with every window in tier 0 it is the NVMe spec's arbitration."""

    policy = "off"

    def __init__(self, nwin: int,
                 tiers: tuple[int, ...] | None = None) -> None:
        super().__init__(nwin)
        #: each window's priority tier
        self._tiers = tiers or (0,) * nwin
        #: tier -> the window index its next scan starts at
        self._rr = dict.fromkeys(self._tiers, 0)

    def select(self, windows, tier=0):
        # hot-path: one call per fetch; ``head == db_tail`` is is_empty()
        nwin = self.nwin
        tiers = self._tiers
        start = self._rr[tier]
        for off in range(nwin):
            win = windows[(start + off) % nwin]
            if win.head != win.db_tail and tiers[win.index] == tier:
                self._rr[tier] = (win.index + 1) % nwin
                return win
        return None


class FifoArbiter(Arbiter):
    """Global arrival order: serve the oldest rung entry anywhere.

    Ties (entries rung at the same instant, e.g. one doorbell covering
    several slots) break by window index, matching the deterministic
    ordering discipline everywhere else in the repo.
    """

    policy = "fifo"
    isolates = False

    def __init__(self, nwin: int) -> None:
        super().__init__(nwin)
        #: per-window arrival stamps, one per not-yet-fetched entry
        self._stamps: list[collections.deque[int]] = \
            [collections.deque() for _ in range(nwin)]

    def on_doorbell(self, win: "SqWindowState", added: int,
                    now: int) -> None:
        stamps = self._stamps[win.index]
        for _ in range(added):
            stamps.append(now)

    def select(self, windows):
        best = None
        best_stamp = 0
        for win in windows:
            if win.head == win.db_tail:
                continue
            stamps = self._stamps[win.index]
            # A missing stamp can only mean the entry predates arbiter
            # attach; treat it as infinitely old.
            stamp = stamps[0] if stamps else -1
            if best is None or stamp < best_stamp:
                best = win
                best_stamp = stamp
        return best

    def on_fetch(self, win):
        super().on_fetch(win)
        stamps = self._stamps[win.index]
        if stamps:
            stamps.popleft()


class DrrArbiter(Arbiter):
    """Deficit round-robin with per-window weights.

    Credit (``deficit``) is refilled by ``quantum * weight`` only when
    the pointer *arrives at* a backlogged window — never while parked on
    one — so a single window can never accumulate unbounded credit and
    the scan below terminates in at most ``nwin + 1`` steps whenever any
    window is backlogged (work conservation).  An idle window's credit
    resets to zero, the classic DRR rule that stops an idle tenant from
    banking service.
    """

    policy = "wfq"

    def __init__(self, nwin: int, quantum: int,
                 weights: tuple[int, ...]) -> None:
        super().__init__(nwin)
        self.quantum = quantum
        self.weights = weights
        self._deficit = [0] * nwin
        #: credit a window earns per visit: ``quantum * weight``
        self._refill = [quantum * self._weight(i) for i in range(nwin)]
        self._rr = 0

    @classmethod
    def from_config(cls, qos, nwin):
        return cls(nwin, qos.quantum, qos.weights)

    def select(self, windows):
        # hot-path: one call per fetch; ``head == db_tail`` is is_empty()
        nwin = self.nwin
        deficit = self._deficit
        for _ in range(nwin + 1):
            idx = self._rr
            win = windows[idx]
            if win.head == win.db_tail:
                deficit[idx] = 0
            elif deficit[idx] >= 1:
                deficit[idx] -= 1
                return win
            self._rr = idx = (idx + 1) % nwin
            win = windows[idx]
            if win.head != win.db_tail:
                deficit[idx] += self._refill[idx]
        return None

    def refund(self, win):
        self._deficit[win.index] += 1


class StrictArbiter(RoundRobinArbiter):
    """Strict priority by weight, round-robin within a priority tier."""

    policy = "strict"

    def __init__(self, nwin: int, weights: tuple[int, ...]) -> None:
        self.weights = weights
        super().__init__(nwin, tuple(self._weight(i) for i in range(nwin)))

    @classmethod
    def from_config(cls, qos, nwin):
        return cls(nwin, qos.weights)

    def select(self, windows):
        tiers = self._tiers
        top = None
        for win in windows:
            if win.head != win.db_tail \
                    and (top is None or tiers[win.index] > top):
                top = tiers[win.index]
        return None if top is None else super().select(windows, top)


#: policy name -> arbiter: the one list of policies (config validation,
#: the CLI's choices and ``--check``'s expectations all read it)
POLICIES: dict[str, type[Arbiter]] = {
    cls.policy: cls for cls in (RoundRobinArbiter, FifoArbiter,
                                DrrArbiter, StrictArbiter)}


def make_arbiter(qos: "QosConfig", nwin: int) -> Arbiter:
    """Build the arbiter for one shared SQ from the scenario config."""
    return POLICIES[qos.policy].from_config(qos, nwin)
