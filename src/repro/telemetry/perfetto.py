"""Chrome/Perfetto trace-event JSON export for span timelines.

Emits the legacy Chrome ``traceEvents`` JSON that Perfetto
(https://ui.perfetto.dev) loads directly:

* one *process* per block device (``pid`` = stable device index, named
  via an ``M`` metadata event);
* one *thread* per NVMe queue pair (``tid`` = qid; qid -1 — spans that
  never reached a queue — lands on tid 0);
* one enclosing ``X`` (complete) slice per I/O span, labelled
  ``<op> <bytes>B``;
* one nested ``X`` slice per stage between consecutive boundaries —
  canonical stage names for clean spans, ``-> <boundary>`` labels for
  irregular ones (retries, faults), so chaos runs stay inspectable;
  a clean span's inner mark (``arb-granted``, inside ``fetch``) is an
  instant ``i`` event on its thread.

Timestamps are microseconds (the trace-event convention); simulation
integer nanoseconds convert exactly to thousandths.  Output is fully
deterministic — keys sorted, spans in creation order — so two
identical runs serialise byte-identically.
"""

from __future__ import annotations

import json
import typing as t

from .spans import BOUNDARIES, INNER_MARKS, STAGES, IoSpan

if t.TYPE_CHECKING:  # pragma: no cover
    from .timeseries import SeriesBank

#: dedicated pid for sampled counter tracks — far above the device
#: pids (0..n_devices-1) so span processes never collide with it.
COUNTER_PID = 9999

#: boundary -> canonical stage name that *ends* at it
_STAGE_ENDING_AT = dict(zip(BOUNDARIES + ("end",), STAGES))


def _us(ns: int) -> float:
    """Exact microsecond value for an integer-ns timestamp."""
    return ns / 1000.0


def span_events(span: IoSpan, pid: int) -> list[dict[str, t.Any]]:
    """Trace events for one finished span."""
    tid = span.qid if span.qid >= 0 else 0
    events: list[dict[str, t.Any]] = [{
        "name": f"{span.op} {span.nbytes}B",
        "cat": "io",
        "ph": "X",
        "ts": _us(span.start_ns),
        "dur": _us(span.end_ns - span.start_ns),
        "pid": pid,
        "tid": tid,
        "args": {"index": span.index, "lba": span.lba,
                 "qid": span.qid, "cid": span.cid,
                 "clean": span.clean},
    }]
    clean = span.clean
    bounds = span.boundaries()
    if clean:
        # an inner mark is an instant inside its stage, not a boundary
        for name, at in bounds:
            if name in INNER_MARKS:
                events.append({"name": name, "cat": "mark", "ph": "i",
                               "s": "t", "ts": _us(at), "pid": pid,
                               "tid": tid, "args": {"index": span.index}})
        bounds = [b for b in bounds if b[0] not in INNER_MARKS]
    for i in range(len(bounds) - 1):
        _from_name, t0 = bounds[i]
        to_name, t1 = bounds[i + 1]
        name = (_STAGE_ENDING_AT[to_name] if clean
                else f"-> {to_name}")
        events.append({
            "name": name,
            "cat": "stage",
            "ph": "X",
            "ts": _us(t0),
            "dur": _us(t1 - t0),
            "pid": pid,
            "tid": tid,
            "args": {"index": span.index},
        })
    return events


def counter_events(bank: "SeriesBank") -> list[dict[str, t.Any]]:
    """Counter-track (``"ph": "C"``) events for every sampled series.

    Each series becomes one counter track on the dedicated
    :data:`COUNTER_PID` process, named ``<series>{k=v,...}``; Perfetto
    renders these as stacked value-over-time tracks alongside the span
    timelines.  Non-numeric samples are skipped (counter tracks only
    plot numbers).
    """
    events: list[dict[str, t.Any]] = []
    for ts in bank.all_series():
        label = ts.name
        if ts.labels:
            label += "{" + ",".join(f"{k}={v}" for k, v in ts.labels) + "}"
        for t_ns, value in ts.points():
            if not isinstance(value, (int, float)):
                continue
            events.append({
                "name": label,
                "cat": "counter",
                "ph": "C",
                "ts": _us(t_ns),
                "pid": COUNTER_PID,
                "tid": 0,
                "args": {"value": value},
            })
    return events


def spans_to_perfetto(spans: t.Sequence[IoSpan],
                      bank: "SeriesBank | None" = None) -> str:
    """Serialise finished spans (plus, optionally, a sampler's series
    as counter tracks) as a Chrome trace-event JSON document."""
    devices: list[str] = []
    pids: dict[str, int] = {}
    events: list[dict[str, t.Any]] = []
    for span in spans:
        if not span.finished:
            continue
        pid = pids.get(span.device)
        if pid is None:
            pid = len(devices)
            pids[span.device] = pid
            devices.append(span.device)
        events.extend(span_events(span, pid))
    meta = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": device},
    } for device, pid in sorted(pids.items(), key=lambda kv: kv[1])]
    if bank is not None and len(bank):
        meta.append({
            "name": "process_name", "ph": "M", "pid": COUNTER_PID,
            "tid": 0, "args": {"name": "telemetry counters"},
        })
        events.extend(counter_events(bank))
    doc = {
        "displayTimeUnit": "ns",
        "traceEvents": meta + events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
