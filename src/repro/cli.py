"""Command-line interface.

Examples::

    python -m repro list
    python -m repro run --scenario ours-remote --rw randread --bs 4k \
        --iodepth 1 --ios 2000
    python -m repro fig10 --ios 800
    python -m repro multihost --clients 8 --iodepth 4 --ios 300
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from .analysis import Fig10Report, format_table, render_boxplots
from .scenarios import (FIG10_SCENARIOS, build_fig10_scenario, cluster,
                        multihost)
from .sim import BoxplotStats
from .units import parse_size
from .workloads import FioJob, run_fio, run_fio_many


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        ["local-linux", "stock Linux driver, local NVMe (Fig. 9a)"],
        ["nvmeof-remote", "kernel initiator -> RDMA -> SPDK target"],
        ["ours-local", "distributed driver, client in the device host"],
        ["ours-remote", "distributed driver, client across the NTB"],
    ]
    print(format_table(["scenario", "description"], rows,
                       title="Available scenarios"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = build_fig10_scenario(args.scenario, seed=args.seed)
    job = FioJob(name="cli", rw=args.rw, bs=parse_size(args.bs),
                 iodepth=args.iodepth, total_ios=args.ios,
                 ramp_ios=min(args.ios // 10, 100))
    print(f"running {args.rw} bs={args.bs} iodepth={args.iodepth} "
          f"ios={args.ios} on {args.scenario} ...")
    result = run_fio(scenario.device, job)
    print(f"  {result.ios} I/Os, {result.iops / 1e3:.1f} kIOPS, "
          f"{result.bandwidth_bytes_per_s / 1e9:.2f} GB/s, "
          f"{result.errors} errors")
    for rec in (result.read_latencies, result.write_latencies):
        if len(rec):
            print(f"  {rec.summary()}")
    return 0


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


def _cmd_multihost(args: argparse.Namespace) -> int:
    scenario = multihost(args.clients, seed=args.seed,
                         queue_depth=args.iodepth)
    jobs = [(client, FioJob(name=f"h{i}", rw=args.rw,
                            bs=parse_size(args.bs),
                            iodepth=args.iodepth, total_ios=args.ios,
                            region_lbas=1 << 20))
            for i, client in enumerate(scenario.clients)]
    results = run_fio_many(jobs)
    rows = []
    total = 0.0
    for result in results:
        op = "read" if "read" in args.rw else "write"
        stats = result.summary(op)
        rows.append([result.device_name, f"{result.iops / 1e3:.1f}",
                     f"{stats.median / 1e3:.2f}"])
        total += result.iops
    rows.append(["TOTAL", f"{total / 1e3:.1f}", ""])
    print(format_table(["host", "kIOPS", "median lat (us)"], rows,
                       title=f"{args.clients} clients sharing one NVMe"))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    scenario = cluster(n_clients=args.clients, n_devices=args.devices,
                       width=args.width, replicas=args.replicas,
                       seed=args.seed, queue_depth=args.iodepth)
    jobs = [(vol, FioJob(name=f"v{i}", rw=args.rw,
                         bs=parse_size(args.bs),
                         iodepth=args.iodepth, total_ios=args.ios,
                         region_lbas=min(1 << 20,
                                         vol.capacity_lbas)))
            for i, vol in enumerate(scenario.volumes)]
    results = run_fio_many(jobs)
    rows = []
    total = 0.0
    for vol, result in zip(scenario.volumes, results):
        rows.append([result.device_name,
                     "+".join(str(d) for d in vol.layout.devices),
                     f"{result.iops / 1e3:.1f}",
                     f"{result.errors}"])
        total += result.iops
    rows.append(["TOTAL", "", f"{total / 1e3:.1f}", ""])
    print(format_table(["volume", "devices", "kIOPS", "errors"], rows,
                       title=f"{args.clients} clients on "
                             f"{args.devices} shared NVMe devices "
                             f"(width={args.width} "
                             f"replicas={args.replicas})"))
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    # Imported lazily so plain simulation commands never pay for the
    # exporter stack.
    import pathlib

    from .telemetry import run_scenario

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"running {args.scenario} with telemetry "
          f"(ios={args.ios} seed={args.seed}) ...")
    tr = run_scenario(args.scenario, ios=args.ios, seed=args.seed,
                      iodepth=args.iodepth, bs=parse_size(args.bs))
    trace_path = out_dir / f"{args.scenario}-trace.json"
    prom_path = out_dir / f"{args.scenario}-metrics.prom"
    trace_path.write_text(tr.perfetto_json())
    prom_path.write_text(tr.prometheus_text())
    spans = tr.telemetry.spans.finished()
    clean = sum(1 for s in spans if s.clean)
    total_ios = sum(r.ios for r in tr.results)
    errors = sum(r.errors for r in tr.results)
    print(f"  {total_ios} I/Os, {errors} errors; "
          f"{len(spans)} spans recorded ({clean} clean)")
    print(f"  wrote {trace_path} "
          f"({trace_path.stat().st_size} bytes)")
    print(f"  wrote {prom_path} "
          f"({prom_path.stat().st_size} bytes)")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    # Lazy import, like _cmd_telemetry: plain simulation commands
    # never pay for the exporter stack.
    import pathlib

    from .telemetry import run_slo

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kill = not args.no_kill
    print(f"running SLO chaos run ({args.clients} clients x "
          f"{args.devices} devices, ios={args.ios} seed={args.seed}, "
          f"kill={'on' if kill else 'off'}) ...")
    run = run_slo(n_clients=args.clients, n_devices=args.devices,
                  ios=args.ios, seed=args.seed, iodepth=args.iodepth,
                  bs=parse_size(args.bs), width=args.width,
                  replicas=args.replicas, interval_ns=args.interval_ns,
                  kill=kill)
    series_path = out_dir / "slo-timeseries.jsonl"
    report_path = out_dir / "slo-report.json"
    trace_path = out_dir / "slo-trace.json"
    prom_path = out_dir / "slo-metrics.prom"
    series_path.write_text(run.timeseries_jsonl())
    report_path.write_text(run.slo_report_json())
    trace_path.write_text(run.perfetto_json())
    prom_path.write_text(run.prometheus_text())

    if run.killed:
        print(f"  killed {run.killed} at t={run.kill_at_ns} ns "
              f"(victim tenants: {', '.join(run.victims) or 'none'})")
    report = run.report
    rows = []
    for tenant, info in sorted(report["tenants"].items()):
        alerts = info["alerts"]
        fired = "; ".join(
            f"fired@{a['fired_at_ns']}"
            + (f" resolved@{a['resolved_at_ns']}"
               if a["resolved_at_ns"] is not None else " (active)")
            for a in alerts) or "-"
        rows.append([tenant, f"{info['compliance']:.4f}",
                     "yes" if info["met"] else "NO", fired])
    spec = report["spec"]
    print(format_table(
        ["tenant", "compliance", "met", "burn-rate alerts"], rows,
        title=f"SLO '{spec['name']}': {spec['target']:.0%} within "
              f"{spec['objective_ns']} ns"))
    for path in (series_path, report_path, trace_path, prom_path):
        print(f"  wrote {path} ({path.stat().st_size} bytes)")
    if args.check and kill and not report["alerts"]:
        print("CHECK FAILED: device kill produced no burn-rate alert")
        return 1
    return 0


def _cmd_qos(args: argparse.Namespace) -> int:
    # Lazy import: pulls in the scenario builders + telemetry stack.
    import json
    import pathlib

    from .qos import run_qos

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    throttle = args.throttle and args.policy in ("wfq", "strict")
    print(f"running noisy-neighbour QoS run (policy={args.policy} "
          f"throttle={'on' if throttle else 'off'} "
          f"bystanders={args.bystanders} seed={args.seed}) ...")
    run = run_qos(args.policy, throttle=throttle,
                  n_bystanders=args.bystanders, seed=args.seed,
                  aggressor_iops=args.aggressor_iops,
                  bystander_iops=args.bystander_iops,
                  horizon_ns=args.horizon_ns)
    summary = run.summary()
    summary_path = out_dir / "qos-summary.json"
    series_path = out_dir / "qos-timeseries.jsonl"
    report_path = out_dir / "qos-report.json"
    prom_path = out_dir / "qos-metrics.prom"
    summary_path.write_text(json.dumps(summary, indent=2,
                                       sort_keys=True) + "\n")
    series_path.write_text(run.timeseries_jsonl())
    report_path.write_text(run.slo_report_json())
    prom_path.write_text(run.prometheus_text())

    rows = []
    for tenant in run.tenants:
        entry = summary["tenants"][tenant]
        rows.append([tenant, entry["role"],
                     f"{entry.get('offered_iops', 0):.0f}",
                     f"{entry.get('p99_ns', 0):.0f}",
                     "yes" if entry["met"] else "NO",
                     str(entry["alerts"])])
    print(format_table(
        ["tenant", "role", "offered iops", "p99 ns", "slo met",
         "alerts"], rows,
        title=f"policy={args.policy} throttle="
              f"{'on' if throttle else 'off'}"))
    if run.throttled:
        print(f"  throttle: {run.throttle_report}")
    for path in (summary_path, series_path, report_path, prom_path):
        print(f"  wrote {path} ({path.stat().st_size} bytes)")

    if args.check:
        bystander_alerts = [t for t in run.bystanders
                            if run.tenant_alerts(t)]
        bystanders_met = all(run.report["tenants"][t]["met"]
                             for t in run.bystanders)
        if args.policy in ("wfq", "strict"):
            # Isolation policies must protect the bystanders and still
            # call out the aggressor.
            if bystander_alerts:
                print(f"CHECK FAILED: bystander alerts under "
                      f"{args.policy}: {bystander_alerts}")
                return 1
            if not bystanders_met:
                print(f"CHECK FAILED: bystander SLO missed under "
                      f"{args.policy}")
                return 1
            if not run.tenant_alerts(run.aggressor):
                print("CHECK FAILED: aggressor fired no alert")
                return 1
        else:
            # fifo/off are the baselines that demonstrably fail to
            # isolate — the check is non-vacuous only if they do fail.
            if not bystander_alerts:
                print(f"CHECK FAILED: {args.policy} isolated the "
                      f"bystanders (expected the noisy neighbour to "
                      f"leak through)")
                return 1
    return 0


def _cmd_staticcheck(args: argparse.Namespace) -> int:
    # Imported lazily: the checker is a dev tool and pulls in nothing
    # the simulation needs.
    from .staticcheck import main as staticcheck_main
    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.json:
        argv += ["--format", "json"]
    if args.jobs:
        argv += ["--jobs", str(args.jobs)]
    if args.stats:
        argv += ["--stats"]
    return staticcheck_main(argv)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # Imported lazily like telemetry: plain simulation commands never
    # pay for the sanitizer stack.
    import pathlib

    from .sanitizer import render_json, render_text, run_scenario

    if args.scenario == "selftest":
        from .sanitizer import selftest
        results = selftest(seed=args.seed)
        ok = True
        for detector, res in results.items():
            state = "ok" if res["ok"] else "FAILED"
            ok = ok and res["ok"]
            print(f"  {detector}: {state} "
                  f"(fired {', '.join(res['fired']) or 'nothing'})")
        print(f"selftest: {'all detectors fire' if ok else 'FAILED'}")
        return 0 if ok else 1

    print(f"running {args.scenario} under sharesan "
          f"(ios={args.ios} seed={args.seed}) ...", file=sys.stderr)
    run = run_scenario(args.scenario, ios=args.ios, seed=args.seed,
                       iodepth=args.iodepth, clients=args.clients)
    report = run.report()
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_json(report) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    print(render_text(report))
    if args.check and not run.clean:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Host Sharing of a "
                    "Single-Function NVMe Device in a PCIe Cluster' "
                    "(SC 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios") \
       .set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one fio job on a scenario")
    run.add_argument("--scenario", choices=FIG10_SCENARIOS,
                     default="ours-remote")
    run.add_argument("--rw", default="randread",
                     choices=["randread", "randwrite", "randrw", "read",
                              "write"])
    run.add_argument("--bs", default="4k")
    run.add_argument("--iodepth", type=int, default=1)
    run.add_argument("--ios", type=int, default=1000)
    run.add_argument("--seed", type=int, default=42)
    run.set_defaults(func=_cmd_run)

    fig10 = sub.add_parser("fig10",
                           help="regenerate the Fig. 10 comparison")
    fig10.add_argument("--ios", type=int, default=800)
    fig10.add_argument("--seed", type=int, default=42)
    fig10.set_defaults(func=_cmd_fig10)

    mh = sub.add_parser("multihost",
                        help="N hosts sharing one controller")
    mh.add_argument("--clients", type=int, default=4)
    mh.add_argument("--rw", default="randread",
                    choices=["randread", "randwrite"])
    mh.add_argument("--bs", default="4k")
    mh.add_argument("--iodepth", type=int, default=4)
    mh.add_argument("--ios", type=int, default=300)
    mh.add_argument("--seed", type=int, default=42)
    mh.set_defaults(func=_cmd_multihost)

    cl = sub.add_parser(
        "cluster",
        help="M clients on N shared devices with striped/replicated "
             "volumes (ANA-style multipath)")
    cl.add_argument("--clients", type=int, default=8)
    cl.add_argument("--devices", type=int, default=2)
    cl.add_argument("--width", type=int, default=1,
                    help="member devices per volume")
    cl.add_argument("--replicas", type=int, default=1,
                    help="copies of each chunk (<= width)")
    cl.add_argument("--rw", default="randread",
                    choices=["randread", "randwrite", "randrw"])
    cl.add_argument("--bs", default="4k")
    cl.add_argument("--iodepth", type=int, default=4)
    cl.add_argument("--ios", type=int, default=300)
    cl.add_argument("--seed", type=int, default=42)
    cl.set_defaults(func=_cmd_cluster)

    tele = sub.add_parser(
        "telemetry",
        help="run a scenario with spans/metrics on and export "
             "Perfetto JSON + Prometheus text")
    tele.add_argument("--scenario", default="ours-remote",
                      choices=list(FIG10_SCENARIOS) + ["chaos"])
    tele.add_argument("--ios", type=int, default=200)
    tele.add_argument("--bs", default="4k")
    tele.add_argument("--iodepth", type=int, default=4)
    tele.add_argument("--seed", type=int, default=7)
    tele.add_argument("--out-dir", default="telemetry-out",
                      help="directory for the exported files")
    tele.set_defaults(func=_cmd_telemetry)

    slo = sub.add_parser(
        "slo",
        help="device-kill chaos run under SLO watch: per-tenant "
             "latency histograms, time series and burn-rate alerts")
    slo.add_argument("--clients", type=int, default=4)
    slo.add_argument("--devices", type=int, default=2)
    slo.add_argument("--width", type=int, default=1,
                     help="member devices per volume")
    slo.add_argument("--replicas", type=int, default=1,
                     help="copies of each chunk (2 = kill becomes a "
                          "failover latency spike, not an error burn)")
    slo.add_argument("--ios", type=int, default=400,
                     help="I/Os per tenant")
    slo.add_argument("--bs", default="4k")
    slo.add_argument("--iodepth", type=int, default=4)
    slo.add_argument("--seed", type=int, default=7)
    slo.add_argument("--interval-ns", type=int, default=200_000,
                     help="sampling interval (simulated ns)")
    slo.add_argument("--no-kill", action="store_true",
                     help="skip the device kill (healthy baseline)")
    slo.add_argument("--out-dir", default="slo-out",
                     help="directory for the exported files")
    slo.add_argument("--check", action="store_true",
                     help="exit non-zero if the kill fired no alert")
    slo.set_defaults(func=_cmd_slo)

    qos = sub.add_parser(
        "qos",
        help="open-loop noisy-neighbour run with per-tenant QoS at "
             "the shared-SQ arbitration point")
    qos.add_argument("--policy", default="wfq",
                     choices=["off", "fifo", "wfq", "strict"])
    qos.add_argument("--no-throttle", dest="throttle",
                     action="store_false",
                     help="disable burn-rate admission throttling "
                          "(wfq/strict only; fifo/off never throttle)")
    qos.add_argument("--bystanders", type=int, default=3)
    qos.add_argument("--aggressor-iops", type=float, default=1_000_000.0)
    qos.add_argument("--bystander-iops", type=float, default=50_000.0)
    qos.add_argument("--horizon-ns", type=int, default=8_000_000,
                     help="open-loop arrival horizon (simulated ns)")
    qos.add_argument("--seed", type=int, default=7)
    qos.add_argument("--out-dir", default="qos-out",
                     help="directory for the exported files")
    qos.add_argument("--check", action="store_true",
                     help="exit non-zero unless wfq/strict isolate the "
                          "bystanders (and fifo/off visibly don't)")
    qos.set_defaults(func=_cmd_qos)

    sc = sub.add_parser("staticcheck",
                        help="run the AST invariant checker "
                             "(determinism, posted writes, units)")
    sc.add_argument("paths", nargs="*", default=["src"])
    sc.add_argument("--select", help="comma-separated rule names")
    sc.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sc.add_argument("--jobs", type=int, default=0,
                    help="scan files with N worker processes")
    sc.add_argument("--stats", action="store_true",
                    help="print findings-per-rule and timing summary")
    sc.set_defaults(func=_cmd_staticcheck)

    san = sub.add_parser(
        "sanitize",
        help="run a scenario under ShareSan (ownership/race checks) "
             "or the detector selftest")
    san.add_argument("scenario",
                     choices=["scale-out", "chaos", "multihost",
                              "selftest"])
    san.add_argument("--ios", type=int, default=50,
                     help="I/Os per client")
    san.add_argument("--iodepth", type=int, default=4)
    san.add_argument("--seed", type=int, default=7)
    san.add_argument("--clients", type=int, default=None,
                     help="override the scenario's client count")
    san.add_argument("--check", action="store_true",
                     help="exit non-zero if any finding was reported")
    san.add_argument("--json", metavar="PATH",
                     help="also write the full report as JSON")
    san.set_defaults(func=_cmd_sanitize)
    return parser


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
