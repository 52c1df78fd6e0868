#!/usr/bin/env python3
"""Performance ledger: one workload per process, every metric by name.

    python3 benchmarks/ledger/run.py --workload multihost-4-randread \
        --seed 404 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones (and runs the extra telemetry pass that needs).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed output check
exits non-zero and prints no metrics.  README.md explains the protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import typing as t

from floor import drive, highest_percentile, piecewise_floor
from hostsplit import PACKAGES, profiled, rollup
from manifest import manifest

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
# ``repro`` and ``rigs`` (which needs it) are imported inside functions:
# main() puts src/ on sys.path first, and times the import.

#: timed repeats per run, started at even intervals over ``--seconds``;
#: a machine too slow for that stops at the window's end, not below R_MIN
R_MIN, R_MAX = 5, 12
#: the run's other work goes in the gaps after these repeats (both below
#: R_MAX; the profiled pass below R_MIN, so it always runs)
PROFILE_AFTER, PROBE_AFTER = 4, 8
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import repro.scenarios, repro.workloads, repro.telemetry, "
                "repro.qos; print(time.perf_counter() - t)")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget for the timed repeats "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="also write the full record (manifest, every "
                             "metric, harness spans) to this JSON file")
    return parser.parse_args(argv)


class Spans:
    """Harness spans, kept in memory and written at exit: one run id,
    every span a child of the run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[dict] = []

    def timed(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.records.append({"run": self.run_id, "parent": "run",
                                 "name": name, "start_s": start,
                                 "end_s": time.perf_counter()})

    def durations(self, name: str) -> list[float]:
        return [r["end_s"] - r["start_s"] for r in self.records
                if r["name"] == name]


def probe_import() -> float:
    """Seconds a fresh interpreter takes to import the packages the
    workloads use (interpreter start-up itself not included)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


@dataclasses.dataclass
class Pass:
    """One build-drive-collect cycle over a workload."""

    outcome: t.Any                 # rigs.Outcome
    times: list[float]             # host seconds per slice
    events: list[int]              # events per slice
    build_s: float
    cpu_s: float
    inspected: t.Any = None

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def one_pass(workload, seed: int, spans: Spans, telemetry: bool = False,
             run=drive, inspect=None) -> Pass:
    """Build a fresh rig, drive it in slices, collect.  ``run`` replaces
    the plain sliced drive (the profiled pass); ``inspect`` reads what it
    needs from the live rig before it is dropped."""
    # The previous rig is cyclic garbage by now: collect it here, or its
    # suspended generators get finalised inside this pass's timed region.
    gc.collect()
    rig = spans.timed("build", workload.build, seed, telemetry)
    build_s = spans.durations("build")[-1]
    gc.collect()
    legs = workload.start(rig)
    cpu = time.process_time()
    times, events = spans.timed("run", run, legs, workload.slice_ns)
    cpu = time.process_time() - cpu
    outcome = spans.timed("collect", workload.collect, rig)
    return Pass(outcome, times, events, build_s, cpu,
                inspect(rig, outcome) if inspect else None)


def model_counts(workload, rig, outcome) -> dict[str, float]:
    """Modeled per-layer numbers of one telemetry-on pass: stage means
    from the spans, the rest from the components' own accounting."""
    from repro.telemetry import BOUNDARIES, STAGES
    from rigs import CheckError

    names = {device.name for device in workload.span_devices(rig)}
    spans = [span for hub in rig.hubs for span in hub.spans.finished()
             if span.device in names]
    stage_ns = dict.fromkeys(STAGES, 0)
    for span in spans:
        # Not IoSpan.stage_durations(): QoS runs stamp an extra
        # ``arb-granted`` mark, which belongs inside the fetch stage.
        marks = [(name, at) for name, at in span.marks if name in BOUNDARIES]
        if tuple(name for name, _at in marks) != BOUNDARIES:
            raise CheckError(f"span {span.index} on {span.device} left "
                             f"the canonical path: {span.marks}")
        edges = [span.start_ns, *(at for _name, at in marks), span.end_ns]
        for stage, begin, end in zip(STAGES, edges, edges[1:]):
            stage_ns[stage] += end - begin
    latency_ns = sum(span.duration_ns for span in spans)
    if not spans or sum(stage_ns.values()) != latency_ns:
        raise CheckError(f"stage durations sum to {sum(stage_ns.values())} "
                         f"ns over {len(spans)} spans, latency to "
                         f"{latency_ns} ns")
    out = {f"stage.{stage}.mean_us": ns / len(spans) / 1e3
           for stage, ns in stage_ns.items()}

    ios = outcome.ios
    fabrics = [bed.fabric for bed in rig.beds]
    ctrls = [bed.nvme for bed in rig.beds]
    ntbs = [ntb for bed in rig.beds for ntb in getattr(bed, "ntbs", ())]
    arbiters = [sq.arbiter for ctrl in ctrls for sq in ctrl.sqs.values()
                if sq.arbiter is not None]
    out.update({
        "pcie.tlps_per_io":
            sum(f.posted_writes + f.reads for f in fabrics) / ios,
        "pcie.bytes_per_io":
            sum(f.posted_bytes + f.read_bytes for f in fabrics) / ios,
        "pcie.ntb_translations_per_io":
            sum(ntb.translations for ntb in ntbs) / ios,
        "nvme.sqe_fetches_per_io": sum(c.fetches for c in ctrls) / ios,
        "nvme.fetch_retries": sum(c.fetch_retries for c in ctrls),
        "nvme.media_accesses_per_io":
            sum(c.media.reads + c.media.writes for c in ctrls) / ios,
        "driver.retries":
            sum(getattr(d, "retries", 0) for d in rig.devices),
        "driver.timeouts":
            sum(getattr(d, "timeouts", 0) for d in rig.devices),
        "qos.grants": sum(sum(a.grant_counts) for a in arbiters),
    })
    return out


def fidelity(report) -> dict[str, float]:
    """``model.*``: Fig. 10 minima and their distance from the paper."""
    from repro.analysis import PAPER_CLAIMS
    out = {}
    for op, stats in (("read", report.read_stats),
                      ("write", report.write_stats)):
        for path, summary in stats.items():
            out[f"model.{path}.{op}_min_us"] = summary.minimum / 1e3
    deltas = report.deltas_us()
    for claim, value in deltas.items():
        out[f"model.delta.{claim.removesuffix('-delta')}_us"] = value
    out["model.paper_err_us"] = max(
        abs(value - PAPER_CLAIMS[claim].paper_value_us)
        for claim, value in deltas.items())
    return out


def measure(workload, seed: int, seconds: float, trace: bool,
            spans: Spans) -> dict:
    """Every pass over one workload; returns all metrics and diagnostics.
    Raises ``CheckError`` if any output check fails."""
    import numpy as np
    from rigs import CheckError

    # -- timed repeats (tracing off), spread over the window ---------------
    # Interference on this kind of box comes in phases of tens of seconds
    # that slow everything by a third; twelve back-to-back repeats fit
    # inside one.  So the repeats start at even intervals over
    # ``seconds``, with the run's other work (import probes, the profiled
    # pass) done in the gaps instead of after them, and sleep in between.
    imports = [probe_import()]
    table: dict = {}

    def profiled_drive(legs, slice_ns):
        result, stats = profiled(lambda: drive(legs, slice_ns))
        table.update(stats)
        return result

    repeats: list[Pass] = []
    start = time.perf_counter()
    while len(repeats) < R_MAX and (
            len(repeats) < R_MIN or time.perf_counter() - start < seconds):
        time.sleep(max(0.0, start + len(repeats) * seconds / R_MAX
                       - time.perf_counter()))
        repeats.append(one_pass(workload, seed, spans))
        if len(repeats) == PROFILE_AFTER:
            profile_pass = one_pass(workload, seed, spans,
                                    run=profiled_drive)
        elif len(repeats) == PROBE_AFTER:
            imports.append(probe_import())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    imports.append(probe_import())
    outcome = repeats[0].outcome
    passes = repeats + [profile_pass]
    try:
        floor_s = piecewise_floor([r.times for r in repeats],
                                  [r.events for r in repeats])
    except ValueError as exc:
        raise CheckError(f"repeats are not comparable: {exc}") from None

    # -- the profiled pass: exact host-work count, split by package --------
    rows = rollup(table)
    calls = sum(entry[1] for entry in table.values())
    self_s = sum(entry[2] for entry in table.values())
    if sum(row[0] for row in rows.values()) != calls or \
            abs(sum(row[1] for row in rows.values()) - self_s) > 1e-6:
        raise CheckError("package rows do not sum to the profiled total")

    # -- telemetry pass: modeled split (per-layer runs only) ---------------
    if trace:
        telemetry_pass = one_pass(
            workload, seed, spans, telemetry=True,
            inspect=lambda rig, out: model_counts(workload, rig, out))
        passes.append(telemetry_pass)

    # -- output checks ------------------------------------------------------
    for index, one in enumerate(passes):
        got = one.outcome
        if got.digest != outcome.digest:
            raise CheckError(f"pass {index} digest {got.digest} differs "
                             f"from pass 0 {outcome.digest}")
        if got.failed or got.ios != got.attempted:
            raise CheckError(f"pass {index}: {got.failed} of "
                             f"{got.attempted} I/Os failed, {got.ios} ok")
    workload.verify(seed, outcome)
    latencies = outcome.latencies_ns
    tail = highest_percentile(len(latencies))
    if tail is None or tail < 99.0:
        raise CheckError(f"{len(latencies)} latency samples cannot carry "
                         f"a p99 (fewer than 10 beyond it)")

    # -- metrics ------------------------------------------------------------
    events = outcome.digest[3]
    walls = [r.wall_s for r in repeats]
    builds = [r.build_s for r in repeats]
    end_to_end = {
        "host_floor_s": floor_s,
        "host_calls_per_io": calls / outcome.ios,
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "peak_rss_mib": peak_rss_mib,
        "sim_p50_us": float(np.percentile(latencies, 50)) / 1e3,
        "sim_p99_us": float(np.percentile(latencies, 99)) / 1e3,
        "sim_kiops": outcome.sim_kiops,
    }
    per_layer: dict[str, float] = {}
    if trace:
        details = outcome.details
        for package in PACKAGES:
            per_layer[f"host.{package}.calls"] = rows[package][0]
            per_layer[f"host.{package}.self_share"] = rows[package][1] / self_s
        per_layer.update(telemetry_pass.inspected)
        per_layer.update({
            "sim.events_per_io": events / outcome.ios,
            "sim.host_ns_per_event": floor_s * 1e9 / events,
            "qos.throttles_applied": details.get("throttles_applied", 0),
            "workloads.capped_arrivals": details.get("capped_arrivals", 0),
            "workloads.max_backlog_us":
                details.get("max_backlog_ns", 0) / 1e3,
            "phase.import_s": sum(spans.durations("import")),
            "phase.build_s": sum(spans.durations("build")),
            "phase.run_s": sum(spans.durations("run")),
            "phase.collect_s": sum(spans.durations("collect")),
            "host.wall_median_s": statistics.median(walls),
            "host.wall_min_s": min(walls),
            "host.cpu_min_s": min(r.cpu_s for r in repeats),
            "host.slices": len(repeats[0].times),
            "host.repeats": len(repeats),
            "trace.overhead_x": profile_pass.wall_s / floor_s,
            "trace.telemetry_x": telemetry_pass.wall_s / min(walls),
        })
        if "report" in details:
            per_layer.update(fidelity(details["report"]))
    return {
        "end_to_end": end_to_end, "per_layer": per_layer,
        "attempted": sum(one.outcome.attempted for one in passes),
        "failed": sum(one.outcome.failed for one in passes),
        "samples": {"sim_latency_n": len(latencies),
                    "import_probe_s": imports, "build_s": builds,
                    "repeat_wall_s": walls,
                    "digest": list(outcome.digest),
                    "readback_extents":
                        outcome.details.get("readback_extents")},
    }


#: per-layer metrics only ``fig10-qd1`` has; elsewhere they print as 0
FIG10_ONLY = "model."


def declared(contract: dict, kind: str, metrics: dict) -> dict:
    """``metrics`` as the contract's ``kind`` section wants them printed:
    exactly the declared names, each ``{"value", "unit"}``.  A missing
    :data:`FIG10_ONLY` metric reads 0 (not measured on this workload);
    anything else missing or undeclared is an error."""
    out = {}
    for spec in contract[kind]:
        name = spec["name"]
        if name not in metrics and not name.startswith(FIG10_ONLY):
            raise SystemExit(f"declared metric {name} was not measured")
        out[name] = {"value": metrics.get(name, 0.0), "unit": spec["unit"]}
    undeclared = set(metrics) - set(out)
    if undeclared:
        raise SystemExit(f"measured but not declared in BENCHMARK.json: "
                         f"{sorted(undeclared)}")
    return out


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """The whole set: each workload in its own fresh process."""
    worst = 0
    for name in names:
        command = [sys.executable, str(LEDGER / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.out is not None:
            command += ["--out", str(args.out.with_name(
                f"{args.out.stem}-{name}{args.out.suffix}"))]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if "PYTHONHASHSEED" not in os.environ:
        # Fixed string hashes for every run; exec keeps it one process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; pick one of {names}",
              file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else contract["run_seconds"])

    sys.path.insert(0, str(ROOT / "src"))
    spans = Spans(f"{args.workload}-{args.seed}-{os.getpid()}")

    def imports():
        import repro.qos
        import repro.scenarios
        import repro.telemetry
        import repro.workloads
        import rigs
        return rigs

    rigs = spans.timed("import", imports)
    workload = rigs.WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, seconds, bool(args.trace),
                         spans)
    except rigs.CheckError as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}",
              file=sys.stderr)
        return 1

    record = {
        "manifest": manifest(ROOT, workload, args.seed, seconds,
                             {"R_MIN": R_MIN, "R_MAX": R_MAX}),
        "samples": result["samples"],
        "end_to_end": declared(contract, "end_to_end", result["end_to_end"]),
    }
    if args.trace:
        record["per_layer"] = declared(contract, "per_layer",
                                       result["per_layer"])
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    print("samples " + json.dumps(record["samples"]))
    for kind in ("end_to_end", "per_layer"):
        for name, entry in record.get(kind, {}).items():
            print(f"{args.workload:22s} {name:36s} "
                  f"{entry['value']:>16.6f} {entry['unit']}")
    if args.out is not None:
        record["spans"] = spans.records
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": True, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["per_layer" if args.trace else "end_to_end"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
