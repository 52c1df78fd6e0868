"""Command-line interface.

Examples::

    python -m repro list
    python -m repro run ours-remote --rw randread --bs 4k --ios 2000
    python -m repro run multihost --clients 8 --iodepth 4 --ios 300
    python -m repro run cluster --faults kill --observe spans,slo --check
    python -m repro run noisy --observe slo --check
    python -m repro fig10 --ios 800
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import typing as t

from .analysis import Fig10Report, format_table, render_boxplots
from .qos.arbiter import POLICIES
from .run import FAULTS, OBSERVERS, SCENARIOS, Run, RunSpec, run
from .scenarios import FIG10_SCENARIOS, build_fig10_scenario
from .sim import BoxplotStats
from .units import parse_size
from .workloads import FioJob, run_fio


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [*SCENARIOS.items(),
            ("selftest", "ShareSan fixture pack: every detector must fire")]
    print(format_table(["scenario", "description"], rows,
                       title="Available scenarios"))
    return 0


def _selftest(seed: int) -> int:
    from .sanitizer import selftest
    ok = True
    for detector, res in selftest(seed=seed).items():
        ok = ok and res["ok"]
        print(f"  {detector}: {'ok' if res['ok'] else 'FAILED'} "
              f"(fired {', '.join(res['fired']) or 'nothing'})")
    print(f"selftest: {'all detectors fire' if ok else 'FAILED'}")
    return 0 if ok else 1


def _spec(args: argparse.Namespace) -> RunSpec:
    """The run spec a ``repro run`` command line spells: every flag
    named like a spec field *is* that field, so none can be dropped."""
    fields = {field.name for field in dataclasses.fields(RunSpec)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    given["bs"] = parse_size(args.bs)
    observe = given["observe"] = frozenset(
        filter(None, args.observe.split(",")))
    # the throttle acts on SLO alerts; on the noisy rig every isolating
    # policy arms it, the rig's own included (fifo, the baseline that
    # leaks, never throttles)
    given["throttle"] = (args.scenario == "noisy" and args.throttle
                         and "slo" in observe
                         and (args.policy is None
                              or POLICIES[args.policy].isolates))
    return RunSpec(**given)


def _failed_checks(done: Run) -> list[str]:
    """What ``--check`` gates, by what the run observed."""
    spec, failed = done.spec, []
    if "sanitize" in spec.observe and not done.sanitizer.clean:
        failed.append(f"ShareSan reported "
                      f"{len(done.sanitizer.findings)} finding(s)")
    if "slo" not in spec.observe:
        return failed
    if spec.faults == "kill" and not done.report["alerts"]:
        failed.append("device kill produced no burn-rate alert")
    if spec.scenario != "noisy":
        return failed
    alerting = [t for t in done.bystanders if done.tenant_alerts(t)]
    if not POLICIES[done.policy].isolates:
        # fifo is the baseline that demonstrably fails to isolate — the
        # check is non-vacuous only if it does fail.
        if not alerting:
            failed.append(f"{done.policy} isolated the bystanders "
                          f"(expected the noisy neighbour to leak)")
        return failed
    if alerting:
        failed.append(f"bystander alerts under {done.policy}: {alerting}")
    if not all(done.report["tenants"][t]["met"] for t in done.bystanders):
        failed.append(f"bystander SLO missed under {done.policy}")
    if not done.tenant_alerts(done.aggressor):
        failed.append("aggressor fired no alert")
    return failed


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario == "selftest":
        plain = build_parser().parse_args(
            ["run", "selftest", "--seed", str(args.seed)])
        if args != plain:
            raise ValueError("selftest takes no flag but --seed")
        return _selftest(args.seed)
    spec = _spec(args)
    if args.check and not spec.observe & {"slo", "sanitize"}:
        raise ValueError("--check gates what 'slo' or 'sanitize' "
                         "observe: add one to --observe")
    print(f"running {spec.scenario} (seed={spec.seed} observe="
          f"{','.join(sorted(spec.observe)) or '-'} "
          f"faults={spec.faults}) ...")
    done = run(spec)
    summary = done.summary()

    rows = []
    for tenant, entry in summary["tenants"].items():
        rows.append([" ".join(filter(None, (tenant, entry.get("role")))),
                     str(entry.get("completed", "-")),
                     str(entry.get("errors", "-")),
                     f"{entry.get('iops', 0) / 1e3:.1f}",
                     f"{entry.get('p99_ns', 0) / 1e3:.2f}",
                     {True: "yes", False: "NO"}.get(entry.get("met"), "-"),
                     str(entry.get("alerts", "-"))])
    print(format_table(["tenant", "I/Os", "errors", "kIOPS",
                        "p99 (us)", "slo met", "alerts"], rows))
    if len(done.results) == 1 and done.results[0] is not None:
        result = done.results[0]
        print(f"  {result.bandwidth_bytes_per_s / 1e9:.2f} GB/s")
        for rec in (result.read_latencies, result.write_latencies):
            if len(rec):
                print(f"  {rec.summary()}")
    if done.killed:
        print(f"  killed {done.killed} at t={done.kill_at_ns} ns "
              f"(victim tenants: {', '.join(done.victims) or 'none'})")
    for alert in done.report.get("alerts", []):
        resolved = alert["resolved_at_ns"]
        print(f"  alert {alert['tenant']}: fired@{alert['fired_at_ns']} "
              + (f"resolved@{resolved}" if resolved is not None
                 else "(active)"))
    if done.throttle_report.get("enabled"):
        print(f"  throttle: {done.throttle_report}")

    exports: dict[str, str] = {}
    if done.telemetry is not None:
        exports["metrics.prom"] = done.prometheus_text()
        exports["summary.json"] = json.dumps(summary, indent=2,
                                             sort_keys=True) + "\n"
    if "spans" in spec.observe:
        exports["trace.json"] = done.perfetto_json()
    if "slo" in spec.observe:
        exports["timeseries.jsonl"] = done.timeseries_jsonl()
        exports["slo-report.json"] = done.slo_report_json()
    if "sanitize" in spec.observe:
        from .sanitizer import render_json, render_text
        report = done.sanitizer_report()
        exports["sharesan.json"] = render_json(report) + "\n"
        print(render_text(report))
    out_dir = pathlib.Path(args.out_dir)
    for suffix, text in exports.items():
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{spec.scenario}-{suffix}"
        path.write_text(text)
        print(f"  wrote {path} ({path.stat().st_size} bytes)")

    failed = _failed_checks(done) if args.check else []
    for line in failed:
        print(f"CHECK FAILED: {line}")
    return 1 if failed else 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    reads: dict[str, BoxplotStats] = {}
    writes: dict[str, BoxplotStats] = {}
    for i, name in enumerate(FIG10_SCENARIOS):
        for op, store in (("randread", reads), ("randwrite", writes)):
            print(f"  {name} {op} ...", file=sys.stderr)
            scenario = build_fig10_scenario(name, seed=args.seed + i)
            result = run_fio(scenario.device,
                             FioJob(rw=op, bs=4096, iodepth=1,
                                    total_ios=args.ios,
                                    ramp_ios=min(args.ios // 10, 100)))
            rec = (result.read_latencies if op == "randread"
                   else result.write_latencies)
            store[name] = BoxplotStats.from_values(rec.values(),
                                                   name=name)
    report = Fig10Report(reads, writes)
    print(report.to_table())
    print("\nREAD:")
    print(render_boxplots([reads[n] for n in FIG10_SCENARIOS]))
    print("\nWRITE:")
    print(render_boxplots([writes[n] for n in FIG10_SCENARIOS]))
    print()
    print(report.delta_table())
    ok = report.shape_ok()
    print(f"\nshape matches the paper: {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Host Sharing of a "
                    "Single-Function NVMe Device in a PCIe Cluster' "
                    "(SC 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios") \
       .set_defaults(func=_cmd_list)

    d = RunSpec()                 # flag defaults are the spec's
    cmd = sub.add_parser(
        "run", help="run a scenario: one job per tenant, optionally "
                    "observed (--observe) and perturbed (--faults)")
    cmd.add_argument("scenario", nargs="?", default=d.scenario,
                     choices=[*SCENARIOS, "selftest"])
    cmd.add_argument("--rw", default=d.rw,
                     choices=["randread", "randwrite", "randrw", "read",
                              "write"])
    cmd.add_argument("--bs", default="4k")
    cmd.add_argument("--iodepth", type=int, default=d.iodepth)
    cmd.add_argument("--ios", type=int, default=d.ios,
                     help="I/Os per tenant")
    cmd.add_argument("--seed", type=int, default=d.seed)
    cmd.add_argument("--clients", type=int, default=None,
                     help="override the scenario's client count")
    cmd.add_argument("--devices", type=int, default=d.devices,
                     help="cluster: shared NVMe devices")
    cmd.add_argument("--width", type=int, default=d.width,
                     help="cluster: member devices per volume")
    cmd.add_argument("--replicas", type=int, default=d.replicas,
                     help="cluster: copies of each chunk (2 = a kill "
                          "becomes a failover latency spike, not an "
                          "error burn)")
    cmd.add_argument("--observe", default="", metavar="A,B",
                     help=f"comma-separated subset of "
                          f"{','.join(OBSERVERS)}")
    cmd.add_argument("--faults", default=d.faults, choices=FAULTS,
                     help="chaos/cluster: seeded random plan, or stall "
                          "the last device for good at 1 ms")
    cmd.add_argument("--horizon-ns", type=int, default=None,
                     help="drive horizon (noisy: arrival horizon), "
                          "simulated ns")
    cmd.add_argument("--interval-ns", type=int, default=None,
                     help="slo: sampling interval, simulated ns")
    cmd.add_argument("--policy", default=d.policy, choices=POLICIES,
                     help="shared-SQ arbitration policy of any NTB rig "
                          "(default: wfq on noisy, off elsewhere; a rig "
                          "with no shared SQ refuses one)")
    cmd.add_argument("--no-throttle", dest="throttle",
                     action="store_false",
                     help="noisy: disable burn-rate admission throttling "
                          "(armed with --observe slo under every policy "
                          "but fifo)")
    cmd.add_argument("--bystanders", type=int, default=d.bystanders)
    cmd.add_argument("--aggressor-iops", type=float,
                     default=d.aggressor_iops)
    cmd.add_argument("--bystander-iops", type=float,
                     default=d.bystander_iops)
    cmd.add_argument("--out-dir", default="repro-out",
                     help="directory for what the observers export")
    cmd.add_argument("--check", action="store_true",
                     help="exit non-zero on a ShareSan finding, a kill "
                          "that fired no alert, off/wfq/strict failing "
                          "to isolate (or fifo visibly isolating)")
    cmd.set_defaults(func=_cmd_run)

    fig10 = sub.add_parser("fig10",
                           help="regenerate the Fig. 10 comparison")
    fig10.add_argument("--ios", type=int, default=800)
    fig10.add_argument("--seed", type=int, default=42)
    fig10.set_defaults(func=_cmd_fig10)
    return parser


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad values are a usage error (exit 2, one line), not a
        # traceback: the spec, the builders and the jobs all validate
        # with ValueError.
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
