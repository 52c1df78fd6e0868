"""Layered metrics registry: counters, gauges and summaries.

Deterministic by construction: every value is derived from simulation
state (integer sim-time, component accounting counters, seeded RNG
draws already made by the model) — the registry itself never reads
wall-clock time or draws randomness.  Histogram-style instruments are
backed by :class:`~repro.sim.stats.LatencyRecorder` and summarised with
:class:`~repro.sim.stats.BoxplotStats`, the exact classes the
benchmarks use, so benchmark output and telemetry agree by
construction.

Naming follows Prometheus conventions: ``repro_<layer>_<what>_<unit>``
with ``_total`` for counters; label sets distinguish series within a
family (e.g. ``repro_fabric_tlps_total{kind="posted"}``).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..sim.stats import BoxplotStats, LatencyRecorder

#: Instrument kinds (Prometheus ``# TYPE`` names).
COUNTER = "counter"
GAUGE = "gauge"
SUMMARY = "summary"
HISTOGRAM = "histogram"

LabelDict = t.Mapping[str, t.Any]
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: LabelDict) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclasses.dataclass
class MetricFamily:
    """One named metric and all its labelled series."""

    name: str
    kind: str
    help: str = ""
    unit: str = ""
    #: label-key -> int/float (counter, gauge) or LatencyRecorder /
    #: BoxplotStats (summary)
    series: dict[_LabelKey, t.Any] = dataclasses.field(default_factory=dict)

    def samples(self) -> list[tuple[_LabelKey, t.Any]]:
        return sorted(self.series.items())


class MetricsError(Exception):
    pass


class MetricsRegistry:
    """All instruments of one simulation, keyed by family name."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # -- family management -------------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                unit: str) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name=name, kind=kind, help=help, unit=unit)
            self._families[name] = fam
        elif fam.kind != kind:
            raise MetricsError(
                f"metric {name!r} is a {fam.kind}, not a {kind}")
        else:
            if help and not fam.help:
                fam.help = help
            if unit and not fam.unit:
                fam.unit = unit
        return fam

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str, **labels: t.Any) -> t.Any:
        """Current value of one series (None when absent)."""
        fam = self._families.get(name)
        if fam is None:
            return None
        return fam.series.get(_label_key(labels))

    # -- instruments -------------------------------------------------------

    def counter_add(self, name: str, value: int = 1, help: str = "",
                    **labels: t.Any) -> None:
        """Add to a monotonic counter series (creating it at 0)."""
        if value < 0:
            raise MetricsError(f"counter {name} decremented by {value}")
        fam = self._family(name, COUNTER, help, "")
        key = _label_key(labels)
        fam.series[key] = fam.series.get(key, 0) + value

    def counter_set(self, name: str, value: int, help: str = "",
                    **labels: t.Any) -> None:
        """Set a counter series to an externally-accumulated total
        (component accounting ints collected at snapshot time)."""
        fam = self._family(name, COUNTER, help, "")
        fam.series[_label_key(labels)] = value

    def gauge_set(self, name: str, value: float, help: str = "",
                  **labels: t.Any) -> None:
        fam = self._family(name, GAUGE, help, "")
        fam.series[_label_key(labels)] = value

    def recorder(self, name: str, help: str = "",
                 **labels: t.Any) -> LatencyRecorder:
        """The recorder behind one summary series — :meth:`observe`, bound:
        a per-I/O site keeps it, so family and label key are built once."""
        fam = self._family(name, SUMMARY, help, "ns")
        key = _label_key(labels)
        rec = fam.series.get(key)
        if rec is None or not isinstance(rec, LatencyRecorder):
            rec = LatencyRecorder(name)
            fam.series[key] = rec
        return rec

    def observe(self, name: str, value_ns: int, help: str = "",
                **labels: t.Any) -> None:
        """Record one observation into a summary series (integer ns)."""
        self.recorder(name, help, **labels).record(value_ns)

    def summary_set(self, name: str, stats: BoxplotStats, help: str = "",
                    **labels: t.Any) -> None:
        """Publish a precomputed summary (e.g. a benchmark recorder's
        :class:`BoxplotStats`) as a series."""
        fam = self._family(name, SUMMARY, help, "ns")
        fam.series[_label_key(labels)] = stats

    def histogram_set(self, name: str, hist: t.Any, help: str = "",
                      **labels: t.Any) -> None:
        """Publish a :class:`~repro.telemetry.hist.LogHistogram` as a
        classic Prometheus histogram series (set-style: collect() may
        repeat without double counting)."""
        fam = self._family(name, HISTOGRAM, help, "ns")
        fam.series[_label_key(labels)] = hist

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        """Plain-data view: family -> {kind, help, series: [...]}.
        Summary series are resolved to :class:`BoxplotStats`."""
        out: dict[str, dict[str, t.Any]] = {}
        for fam in self.families():
            series = []
            for key, value in fam.samples():
                if isinstance(value, LatencyRecorder):
                    value = value.summary()
                series.append({"labels": dict(key), "value": value})
            out[fam.name] = {"kind": fam.kind, "help": fam.help,
                             "unit": fam.unit, "series": series}
        return out
