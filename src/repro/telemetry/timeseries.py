"""Sim-clock-driven time-series sampling over the telemetry hub.

PR 3's telemetry produces *end-of-run* snapshots; this module adds the
time axis: a :class:`TelemetrySampler` is a simulation loop that
ticks at a configurable interval and snapshots live component state
(IOPS, in-flight per QP, controller queue occupancy, fabric bytes,
live paths, windowed latency quantiles) into ring-buffered
:class:`TimeSeries`.

Determinism contract (the sampling-interval contract the tests pin):

* the sampler is a record that ticks on its owned timer (the queue
  entry a ``sim.timeout`` would be), so it *does* add
  entries to the event queue — but its tick body only **reads**
  component state: it never mutates model state, never draws from any
  RNG stream, and never blocks another process.  Relative order of all
  model events is unchanged (a sampler push takes its own FIFO position
  in its instant and moves no model event past another), so every
  modeled result — latency series, completion
  order, exported spans — is **bit-identical** with sampling on or
  off (``tests/test_slo.py`` asserts this);
* two runs with the same seed and the same sampling interval produce
  byte-identical JSONL/Perfetto/Prometheus exports;
* sampling at a different interval changes *which instants* are
  observed, never what the model did.

A live sampler keeps the event queue non-empty forever; runs that
drain the queue (plain ``sim.run()``) must :meth:`~TelemetrySampler.stop`
it first.  ``sim.run(until=...)`` deadline/event runs need no special
care.
"""

from __future__ import annotations

import collections
import json
import typing as t

from ..sim import Event
from ..sim.resources import Record
from .metrics import _LabelKey, _label_key

if t.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: default sampling interval: 1 ms of simulated time
DEFAULT_INTERVAL_NS = 1_000_000
#: default ring capacity per series (points beyond it evict the oldest)
DEFAULT_CAPACITY = 4096


class TimeSeries:
    """One named, labelled series of ``(t_ns, value)`` samples in a
    bounded ring buffer."""

    __slots__ = ("name", "labels", "_points")

    def __init__(self, name: str, labels: _LabelKey,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.labels = labels
        self._points: collections.deque[tuple[int, t.Any]] = \
            collections.deque(maxlen=capacity)

    def append(self, t_ns: int, value: t.Any) -> None:
        self._points.append((t_ns, value))

    def points(self) -> list[tuple[int, t.Any]]:
        return list(self._points)

    def values(self) -> list[t.Any]:
        return [v for _t, v in self._points]

    def __len__(self) -> int:
        return len(self._points)

    @property
    def last(self) -> tuple[int, t.Any] | None:
        return self._points[-1] if self._points else None


class SeriesBank:
    """All series of one sampler, keyed by ``(name, labels)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._series: dict[tuple[str, _LabelKey], TimeSeries] = {}

    def series(self, name: str, **labels: t.Any) -> TimeSeries:
        """The series for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        ts = self._series.get(key)
        if ts is None:
            ts = TimeSeries(name, key[1], self.capacity)
            self._series[key] = ts
        return ts

    def get(self, name: str, **labels: t.Any) -> TimeSeries | None:
        return self._series.get((name, _label_key(labels)))

    def all_series(self) -> list[TimeSeries]:
        """Every series, sorted by (name, labels) — deterministic."""
        return [self._series[key] for key in sorted(self._series)]

    def __len__(self) -> int:
        return len(self._series)

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per sample.

        Lines are ordered by (series name, labels, time); keys are
        sorted and numbers render via ``json`` defaults, so identical
        runs serialise byte-identically.
        """
        lines = []
        for ts in self.all_series():
            labels = dict(ts.labels)
            for t_ns, value in ts.points():
                lines.append(json.dumps(
                    {"name": ts.name, "labels": labels,
                     "t_ns": t_ns, "value": value},
                    sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


class _Ticks(Record):
    """The sampler's tick loop, walked from its owned timer: a sample at
    boot, then one every interval.  :meth:`stop` ends it where
    interrupting the loop's process did: the armed timer fires into
    nothing, and a kick on this instant's URGENT lane queues the end."""

    __slots__ = ("sampler",)

    def __init__(self, sampler: "TelemetrySampler") -> None:
        self.sampler = sampler
        Record.__init__(self, sampler.sim, self._tick)

    def _tick(self, _timer: Event) -> None:
        sampler = self.sampler
        sampler.sample_once()
        self._arm(sampler.interval_ns, self._tick)

    def stop(self) -> None:
        timer = self._timer
        if timer.callbacks:
            timer.callbacks = []
        self._kick(self._stopped)

    def _stopped(self, _kick: Event) -> None:
        self.succeed()


class TelemetrySampler:
    """A sim loop that snapshots registered sources every tick.

    Sources are callables ``fn(bank, now_ns)`` that read component
    state and append to series; the telemetry hub installs the default
    set (:meth:`~repro.telemetry.hub.Telemetry.enable_sampler`) and the
    SLO engine rides along as one more source.
    """

    def __init__(self, sim: "Simulator",
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.sim = sim
        self.bank = SeriesBank(capacity)
        self.ticks = 0
        self._sources: list[t.Callable[[SeriesBank, int], None]] = []
        self._proc: t.Any = None
        self.set_interval(interval_ns)

    def set_interval(self, interval_ns: int) -> None:
        """Set the tick cadence; one that already produced (or is about
        to produce) samples at another cadence cannot be re-timed."""
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive: {interval_ns}")
        if (self._proc is not None or self.ticks) \
                and interval_ns != self.interval_ns:
            raise ValueError(
                f"sampler already started at {self.interval_ns} ns; "
                f"cannot re-time it to {interval_ns} ns")
        self.interval_ns = interval_ns

    # -- wiring ------------------------------------------------------------

    def add_source(self, fn: t.Callable[[SeriesBank, int], None]) -> None:
        self._sources.append(fn)

    @property
    def running(self) -> bool:
        return self._proc is not None and not self._proc.triggered

    def start(self) -> None:
        """Start ticking (first sample at the current sim time)."""
        if self.running:
            return
        self._proc = _Ticks(self)

    def stop(self, final_sample: bool = True) -> None:
        """Stop the tick loop (so queue-draining runs terminate);
        optionally take one last sample at the stop instant."""
        if self.running:
            self._proc.stop()
        self._proc = None
        if final_sample:
            self.sample_once()

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> None:
        """Run every source once at the current sim time (read-only)."""
        now = self.sim.now
        for fn in self._sources:
            fn(self.bank, now)
        self.ticks += 1
