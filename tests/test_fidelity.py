"""The paper in one table: every claim the model is held to, as data.

Each :class:`Row` names a claim, where it comes from (the paper's
section and value, or :data:`ABLATION`), the experiment that measures it
and its band: a Python expression over that experiment's measured
values, the assertion exactly as it reads.  An experiment is a seeded
run on the scenario builders, cached so the rows that read it share one
run; each one also renders the EXPERIMENTS.md table it owns, between
``<!-- fidelity:NAME -->`` and ``<!-- /fidelity:NAME -->``.

Modeled output is seeded and machine-independent, so those tables are
checked exactly (:func:`test_experiments_md_is_current`), and one
command rewrites them (``PYTHONPATH=src`` in a checkout not installed)::

    python tests/test_fidelity.py
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import pathlib
import re
import typing as t

import numpy as np
import pytest

from repro.analysis import PAPER_CLAIMS, Fig10Report
from repro.config import SimulationConfig, replace
from repro.driver import (BlockRequest, DistributedNvmeClient, NvmeManager,
                          SpdkLocalDriver)
from repro.scenarios import (CHAOS_RELIABILITY, FIG10_SCENARIOS,
                             build_fig10_scenario, chaos_cluster,
                             local_linux, multihost, nvmeof_remote,
                             ours_local, ours_remote)
from repro.scenarios.testbed import LocalTestbed, PcieTestbed
from repro.telemetry import STAGES
from repro.units import KiB
from repro.workloads import (PROFILES, FioJob, ZipfianAccess, fio_generator,
                             run_fio, run_fio_many, run_pattern)

DOC = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
ABLATION = "ablation, not a paper claim"

#: name -> cached run returning (measured values, EXPERIMENTS.md table)
EXPERIMENTS: dict[str, t.Callable[[], tuple[dict[str, t.Any], str]]] = {}


def experiment(fn):
    EXPERIMENTS[fn.__name__] = functools.cache(fn)
    return EXPERIMENTS[fn.__name__]


def _md(headers: t.Sequence[str], rows: t.Iterable[t.Sequence]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _us(ns: float) -> str:
    return f"{ns / 1e3:.2f}"


def _qd1(device, op: str, ios: int, ramp: int, **job):
    """One QD1 4 KiB random fio job's summary for ``op``."""
    result = run_fio(device, FioJob(rw="rand" + op, bs=4096, iodepth=1,
                                    total_ios=ios, ramp_ios=ramp, **job))
    return result.summary(op)


def _ntb_client(bed: PcieTestbed, node: int = 1, **client):
    """Start a manager on host 0 of ``bed`` and one client on ``node``."""
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    return _start(bed, DistributedNvmeClient(
        bed.sim, bed.smartio, bed.node(node), bed.nvme_device_id,
        bed.config, **client))


def _start(bed, device):
    bed.sim.run(until=bed.sim.process(device.start()))
    return device


# -- Fig. 10 and the Sec. VI minimum-latency deltas --------------------------

def _four_stacks(op: str, seed: int, ios: int, ramp: int, **job):
    """``_qd1`` on each Fig. 10 stack, seeds ``seed``, ``seed + 1``, ..."""
    return {name: _qd1(build_fig10_scenario(name, seed=seed + i).device,
                       op, ios, ramp, **job)
            for i, name in enumerate(FIG10_SCENARIOS)}


@experiment
def fig10():
    """4 KiB random I/O at QD1 on the four driver stacks."""
    report = Fig10Report(*(_four_stacks(op, seed, 400, 50, name=f"fig10-{op}")
                           for op, seed in (("read", 1000), ("write", 2000))))
    table = _md(["scenario", "op", "n", "min (µs)", "median (µs)",
                 "p99 (µs)"],
                [[name, op, s.count, _us(s.minimum), _us(s.median),
                  _us(s.p99)]
                 for name in FIG10_SCENARIOS
                 for op, s in (("read", report.read_stats[name]),
                               ("write", report.write_stats[name]))])
    return {"report": report}, table


@experiment
def deltas():
    """The four minima of Sec. VI's text, on a larger sample."""
    delta = Fig10Report(*(_four_stacks(op, 300, 600, 100)
                          for op in ("read", "write"))).deltas_us()
    table = _md(["claim", "paper (µs)", "measured (µs)", "band"],
                [[c.name, c.paper_value_us, f"{delta[key]:.2f}",
                  f"[{c.lo_us}, {c.hi_us}]"]
                 for key, c in PAPER_CLAIMS.items()])
    return {"delta": delta}, table


# -- Sec. VI: 31 hosts, queue placement (Fig. 8), switch chips ---------------

@experiment
def hosts():
    """1..31 hosts share one controller, 4 KiB randread at QD2 each."""
    agg, lat, ran = {}, {}, {}
    for n in (1, 2, 4, 8, 16, 31):
        scenario = multihost(n, seed=400 + n, queue_depth=2)
        results = run_fio_many([
            (client, FioJob(name=f"mh{i}", rw="randread", bs=4096,
                            iodepth=2, total_ios=100,
                            region_lbas=1 << 20))
            for i, client in enumerate(scenario.clients)])
        agg[n] = sum(r.iops for r in results)
        ran[n] = len(results)
        lat[n] = sum(r.summary("read").median for r in results) / n
    table = _md(["clients", "aggregate kIOPS", "per-client kIOPS",
                 "median lat (µs)"],
                [[n, f"{agg[n] / 1e3:.1f}", f"{agg[n] / n / 1e3:.1f}",
                  _us(lat[n])] for n in agg])
    return {"agg": agg, "ran": ran}, table


@experiment
def fig8():
    """Queue memory placement for a remote client, 4 KiB QD1."""
    placements = {"paper": ("device", "client"),
                  "sq-client": ("client", "client"),
                  "cq-device": ("device", "device")}
    med = {}
    for i, (label, (sq, cq)) in enumerate(placements.items()):
        for op in ("read", "write"):
            device = ours_remote(seed=500 + i, sq_placement=sq,
                                 cq_placement=cq).device
            med[label, op] = _qd1(device, op, 300, 50).median
    table = _md(["placement", "SQ", "CQ", "read med (µs)",
                 "write med (µs)"],
                [[label, sq, cq, _us(med[label, "read"]),
                  _us(med[label, "write"])]
                 for label, (sq, cq) in placements.items()])
    return {"med": med}, table


@experiment
def hops():
    """0..4 extra switch chips between the client and the cluster
    switch; the fitted slope is ns of median QD1 read per chip."""
    chips = (0, 1, 2, 3, 4)
    stats = [_qd1(_ntb_client(PcieTestbed(n_hosts=2, extra_path_chips=c,
                                          seed=600 + c)),
                  "read", 300, 50) for c in chips]
    meds = [float(s.median) for s in stats]
    slope = float(np.polyfit(np.array(chips, dtype=float), meds, 1)[0])
    table = _md(["extra chips", "min (µs)", "median (µs)"],
                [[c, _us(s.minimum), _us(s.median)]
                 for c, s in zip(chips, stats)])
    return {"meds": meds, "slope": slope}, \
        table + f"\n\nFitted cost per extra chip: {slope:.0f} ns."


# -- Ablations: depth, block size, data path, completion path ---------------

@experiment
def qd():
    """Queue-depth sweep, 4 KiB randread, NTB driver vs NVMe-oF."""
    depths = (1, 2, 4, 8, 16, 32)
    iops: dict[str, dict[int, float]] = {"ours": {}, "nvmeof": {}}
    med: dict[str, dict[int, float]] = {"ours": {}, "nvmeof": {}}
    for side, build, base in (("ours", ours_remote, 700),
                              ("nvmeof", nvmeof_remote, 720)):
        for i, depth in enumerate(depths):
            device = build(seed=base + i, queue_depth=max(depth, 2)).device
            result = run_fio(device, FioJob(
                rw="randread", bs=4096, iodepth=depth, total_ios=400,
                ramp_ios=64, region_lbas=1 << 20))
            iops[side][depth] = result.iops
            med[side][depth] = result.summary("read").median
    table = _md(["QD", "ours kIOPS", "ours med (µs)", "nvmeof kIOPS",
                 "nvmeof med (µs)"],
                [[d, f"{iops['ours'][d] / 1e3:.1f}", _us(med["ours"][d]),
                  f"{iops['nvmeof'][d] / 1e3:.1f}", _us(med["nvmeof"][d])]
                 for d in depths])
    return {"iops": iops, "med": med}, table


@experiment
def blocksize():
    """Block-size sweep, randread at QD16, ~1 MiB per cell and at least
    160 I/Os."""
    sizes = (512, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB)
    bw: dict[str, dict[int, float]] = {"ours": {}, "nvmeof": {}}
    for side, build, base in (("ours", ours_remote, 800),
                              ("nvmeof", nvmeof_remote, 820)):
        for i, bs in enumerate(sizes):
            device = build(seed=base + i, queue_depth=16).device
            bw[side][bs] = run_fio(device, FioJob(
                rw="randread", bs=bs, iodepth=16,
                total_ios=max(160, (1 << 20) // bs), ramp_ios=16,
                region_lbas=1 << 21)).bandwidth_bytes_per_s
    table = _md(["bs", "ours GB/s", "nvmeof GB/s", "ratio"],
                [[f"{bs // KiB} KiB" if bs >= KiB else f"{bs} B",
                  f"{bw['ours'][bs] / 1e9:.2f}",
                  f"{bw['nvmeof'][bs] / 1e9:.2f}",
                  f"{bw['ours'][bs] / bw['nvmeof'][bs]:.2f}×"]
                 for bs in sizes])
    return {"bw": bw}, table


@experiment
def bounce():
    """The paper's bounce buffer vs per-request IOMMU mapping, remote
    client at QD1 (seeds 900.. in table order)."""
    med = {}
    seed = 900
    for bs in (4 * KiB, 32 * KiB, 128 * KiB):
        for op in ("read", "write"):
            for path in ("bounce", "iommu"):
                device = ours_remote(seed=seed, data_path=path).device
                result = run_fio(device, FioJob(
                    rw="rand" + op, bs=bs, iodepth=1,
                    total_ios=max(50, 200 // (bs // (4 * KiB))),
                    ramp_ios=20))
                med[bs, op, path] = float(result.summary(op).median)
                seed += 1
    table = _md(["bs", "op", "bounce med (µs)", "iommu med (µs)",
                 "bounce − iommu (µs)"],
                [[f"{bs // KiB} KiB", op, _us(bounce), _us(iommu),
                  f"{(bounce - iommu) / 1e3:+.2f}"]
                 for (bs, op), (bounce, iommu) in {
                     (bs, op): (med[bs, op, "bounce"], med[bs, op, "iommu"])
                     for bs, op, _path in med}.items()])
    return {"med": med}, table


@experiment
def polling():
    """Local 4 KiB QD1 randread: interrupts vs polling, against the
    interrupt-free polling floors."""
    spdk_bed = LocalTestbed(seed=952)
    config = SimulationConfig()
    tuned = replace(config, host=replace(
        config.host, dist_submit_ns=config.host.nvme_submit_ns,
        dist_complete_ns=200, iommu_map_ns=0, iommu_unmap_ns=0))
    devices = {
        "stock (interrupts)": local_linux(seed=950).device,
        "ours (polling + bounce)": ours_local(seed=951).device,
        "spdk (polling floor)": _start(spdk_bed, SpdkLocalDriver(
            spdk_bed.sim, spdk_bed.fabric, spdk_bed.host,
            spdk_bed.nvme.bars[0].base, spdk_bed.config)),
        "ours (tuned polling floor)": ours_local(
            config=tuned, seed=953, data_path="iommu").device,
    }
    stats = {label: run_fio(device, FioJob(rw="randread", total_ios=300,
                                           ramp_ios=50)).summary("read")
             for label, device in devices.items()}
    table = _md(["configuration", "min (µs)", "median (µs)", "p99 (µs)"],
                [[label, _us(s.minimum), _us(s.median), _us(s.p99)]
                 for label, s in stats.items()])
    return dict(zip(("stock", "naive", "spdk", "tuned"),
                    (s.median for s in stats.values()))), table


@experiment
def breakdown():
    """Span stages of 200 sequential remote 4 KiB reads (Figs. 2/3)."""
    scenario = ours_remote(seed=980, telemetry=True)
    done = []

    def flow(sim):
        for i in range(200):
            req = yield scenario.device.submit(
                BlockRequest("read", lba=i * 8, nblocks=8))
            done.append(req.ok)

    scenario.sim.run(until=scenario.sim.process(flow(scenario.sim)))
    spans = scenario.telemetry.spans.clean_spans()
    stages = [span.stage_durations() for span in spans]
    med = {name: float(np.median([s[name] for s in stages]))
           for name in STAGES}
    total = float(np.median([span.duration_ns for span in spans]))
    table = _md(["stage", "median (µs)", "share"],
                [[name, _us(med[name]), f"{100 * med[name] / total:.0f}%"]
                 for name in STAGES] + [["TOTAL", _us(total), "100%"]])
    return {"ok": all(done) and len(spans) == len(done),
            "exact": all(sum(s.values()) == span.duration_ns
                         for s, span in zip(stages, spans)),
            "med": med, "total": total}, table


@experiment
def remote_irq():
    """Remote completions: CQ polling vs NTB-forwarded MSI-X."""
    stats = {(mode, op): _qd1(_ntb_client(
                 PcieTestbed(n_hosts=2, seed=990 + i),
                 completion_mode=mode), op, 300, 50)
             for i, mode in enumerate(("poll", "interrupt"))
             for op in ("read", "write")}
    gap = {op: stats["interrupt", op].median - stats["poll", op].median
           for op in ("read", "write")}
    table = _md(["completion mode", "op", "min (µs)", "median (µs)",
                 "p99 (µs)"],
                [[mode, op, _us(s.minimum), _us(s.median), _us(s.p99)]
                 for (mode, op), s in stats.items()])
    return {"gap": gap}, table


# -- Beyond the idle cluster: neighbours, profiles, degraded links ----------

@experiment
def under_load():
    """Remote QD1 4 KiB reads beside a 128 KiB QD16 bulk reader."""
    stats = {}
    for label, seed in (("idle", 1040), ("loaded", 1041)):
        bed = PcieTestbed(n_hosts=3, seed=seed)
        client = _ntb_client(bed, slot_index=1, name="latency")
        if label == "loaded":
            bulk = _start(bed, DistributedNvmeClient(
                bed.sim, bed.smartio, bed.node(2), bed.nvme_device_id,
                bed.config, slot_index=2, queue_depth=16, name="bulk"))
            bed.sim.process(fio_generator(bulk, FioJob(
                name="bulk", rw="read", bs=128 * KiB, iodepth=16,
                total_ios=100_000, region_lbas=1 << 21)))
        stats[label] = _qd1(client, "read", 200, 50, name="lat")
    table = _md(["condition", "min (µs)", "median (µs)", "p99 (µs)"],
                [[label, _us(s.minimum), _us(s.median), _us(s.p99)]
                 for label, s in stats.items()])
    return stats, table


@experiment
def profiles():
    """fio-style application profiles at 8-way concurrency."""
    runs = (("oltp", 250, ZipfianAccess(region_lbas=1 << 21, alpha=1.2)),
            ("webserver", 200, ZipfianAccess(region_lbas=1 << 22,
                                             alpha=1.1)),
            ("backup", 60, None))
    out = {}
    for side, build, base in (("ours", ours_remote, 1100),
                              ("nvmeof", nvmeof_remote, 1120)):
        for i, (name, ios, access) in enumerate(runs):
            out[side, name] = run_pattern(
                build(seed=base + i, queue_depth=16).device,
                PROFILES[name], total_ios=ios, access=access,
                concurrency=8)
    med = {key: r.latencies.summary().median for key, r in out.items()}
    table = _md(["profile", "ours kIOPS", "ours med (µs)", "nvmeof kIOPS",
                 "nvmeof med (µs)", "latency ratio"],
                [[name, f"{out['ours', name].iops / 1e3:.1f}",
                  f"{med['ours', name] / 1e3:.1f}",
                  f"{out['nvmeof', name].iops / 1e3:.1f}",
                  f"{med['nvmeof', name] / 1e3:.1f}",
                  f"{med['nvmeof', name] / med['ours', name]:.2f}×"]
                 for name, _ios, _access in runs])
    return {"med": med,
            "errors": sum(r.errors for r in out.values())}, table


@experiment
def degraded():
    """The client's link fault point: extra per-TLP delay at QD1, TLP
    loss at QD4 (2 ms command timeout)."""

    def degraded_run(seed, *, delay_ns=0, drop=0.0, iodepth=1):
        rig = chaos_cluster(n_clients=1, seed=seed,
                            reliability=CHAOS_RELIABILITY)
        point = rig.link_points()[1]            # the client's adapter
        rig.registry.set_delay(point, delay_ns)
        rig.registry.set_drop(point, drop)
        proc = rig.sim.process(fio_generator(rig.clients[0], FioJob(
            rw="randread", bs=4096, iodepth=iodepth, total_ios=200,
            ramp_ios=50)))
        # the job's end, or a 2 s horizon that catches a wedge
        rig.sim.run(until=rig.sim.any_of(
            [proc, rig.sim.timeout(2_000_000_000)]))
        assert proc.triggered, "degraded-link workload wedged"
        return rig.clients[0], proc.value

    delays = (0, 500, 1_000, 2_000, 4_000)
    drops = (0.0, 0.01, 0.05)
    meds = [float(degraded_run(700, delay_ns=delay)[1].summary("read")
                  .median) for delay in delays]
    kiops, lost, timeouts, retries = {}, {}, {}, {}
    for drop in drops:
        client, res = degraded_run(701, drop=drop, iodepth=4)
        kiops[drop] = res.ios / (res.elapsed_ns / 1e9) / 1e3
        lost[drop] = res.errors
        timeouts[drop], retries[drop] = client.timeouts, client.retries
    table = _md(["extra delay (ns/TLP)", "median (µs)"],
                [[d, _us(m)] for d, m in zip(delays, meds)])
    table += "\n\n" + _md(
        ["drop prob", "kIOPS", "timeouts", "retries", "lost I/Os"],
        [[f"{p:.0%}", f"{kiops[p]:.1f}", timeouts[p], retries[p], lost[p]]
         for p in drops])
    return {"meds": meds, "delays": delays, "kiops": kiops, "lost": lost,
            "timeouts": timeouts}, table


# -- The table --------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Row:
    experiment: str     # a key of EXPERIMENTS
    claim: str
    source: str         # the paper's section and value, or ABLATION
    band: str           # a Python expression over the measured values


ROWS = [
    Row("fig10", "NVMe-oF's delta dwarfs ours; ours-local sits above "
        "stock; NVMe-oF is slowest (Fig10Report.shape_ok)",
        "Fig. 10", "report.shape_ok()"),
    Row("fig10", "every minimum-latency delta inside its PAPER_CLAIMS band",
        "Fig. 10, Sec. VI text", "all(report.check_claims().values())"),
    *(Row("deltas", claim.name,
          f"Sec. VI text: {claim.paper_value_us} µs",
          f"PAPER_CLAIMS[{key!r}].check(delta[{key!r}])")
      for key, claim in PAPER_CLAIMS.items()),
    Row("hosts", "31 hosts share the controller, one private QP each",
        "Sec. VI: up to 31 hosts", "ran[31] == 31"),
    Row("hosts", "aggregate scales with hosts before the device saturates",
        "Sec. VI: up to 31 hosts", "agg[2] > 1.8 * agg[1]"),
    Row("hosts", "aggregate scales with hosts before the device saturates",
        "Sec. VI: up to 31 hosts", "agg[4] > 3.0 * agg[1]"),
    Row("hosts", "the device, not the fabric, caps 31 hosts",
        "Sec. VI: up to 31 hosts", "agg[31] < 1.3 * agg[16]"),
    Row("hosts", "the device, not the fabric, caps 31 hosts",
        "Sec. VI: up to 31 hosts", "agg[31] < 8 * agg[1]"),
    Row("hosts", "the device's media ceiling at 31 hosts",
        "Sec. VI: up to 31 hosts", "350_000 < agg[31] < 800_000"),
    Row("fig8", "a client-side SQ adds a cross-NTB fetch round trip",
        "Fig. 8, Sec. V", "med['sq-client', 'read'] > med['paper', 'read'] "
        "+ 500"),
    Row("fig8", "a device-side CQ makes the CPU poll across the NTB",
        "Fig. 8, Sec. V", "med['cq-device', 'read'] > med['paper', 'read'] "
        "+ 500"),
    Row("fig8", "a client-side SQ costs writes too",
        "Fig. 8, Sec. V", "med['sq-client', 'write'] > med['paper', "
        "'write'] + 500"),
    Row("hops", "each added chip costs the QD1 read path twice 100-150 ns",
        "Sec. VI: 100-150 ns per chip per direction", "150 <= slope <= 400"),
    Row("hops", "medians rise strictly with every added chip",
        "Sec. VI: 100-150 ns per chip per direction",
        "all(a < b for a, b in zip(meds, meds[1:]))"),
    Row("qd", "at QD1 the NTB driver is clearly faster than NVMe-oF",
        "Sec. VI: QD1 isolates network latency",
        "med['ours'][1] < med['nvmeof'][1] - 3_000"),
    Row("qd", "the NTB driver pipelines with depth", ABLATION,
        "iops['ours'][16] > 5 * iops['ours'][1]"),
    Row("qd", "NVMe-oF pipelines with depth", ABLATION,
        "iops['nvmeof'][16] > 5 * iops['nvmeof'][1]"),
    Row("qd", "the NTB driver reaches the media ceiling", ABLATION,
        "iops['ours'][32] > 550_000"),
    Row("qd", "NVMe-oF stops at the target's per-core command rate",
        ABLATION, "250_000 < iops['nvmeof'][32] < iops['ours'][32]"),
    Row("qd", "NTB latency stays flat below the ceiling", ABLATION,
        "med['ours'][4] < med['ours'][1] + 1_000"),
    Row("qd", "NVMe-oF latency stays flat below the ceiling", ABLATION,
        "med['nvmeof'][4] < med['nvmeof'][1] + 1_500"),
    Row("blocksize", "small blocks: per-command cost, the NTB driver wins",
        "Sec. VI: RDMA throughput comparable to local PCIe",
        "bw['ours'][4096] > 1.15 * bw['nvmeof'][4096]"),
    Row("blocksize", "large blocks: NVMe-oF is comparable",
        "Sec. VI: RDMA throughput comparable to local PCIe",
        "bw['nvmeof'][131072] > 0.75 * bw['ours'][131072]"),
    Row("blocksize", "large blocks reach the media ceiling (ours)",
        ABLATION, "bw['ours'][131072] > 1.5e9"),
    Row("blocksize", "large blocks reach the media ceiling (NVMe-oF)",
        ABLATION, "bw['nvmeof'][131072] > 1.3e9"),
    Row("bounce", "at 4 KiB the bounce copy is as cheap as map + unmap",
        "Sec. V: bounce buffer, IOMMU as future work",
        "med[4096, 'read', 'bounce'] <= med[4096, 'read', 'iommu'] + 300"),
    Row("bounce", "at 128 KiB the IOMMU path wins reads",
        "Sec. V: bounce buffer, IOMMU as future work",
        "med[131072, 'read', 'iommu'] < med[131072, 'read', 'bounce'] "
        "- 10_000"),
    Row("bounce", "at 128 KiB the IOMMU path wins writes",
        "Sec. V: bounce buffer, IOMMU as future work",
        "med[131072, 'write', 'iommu'] < med[131072, 'write', 'bounce'] "
        "- 10_000"),
    Row("polling", "the naive distributed driver has a higher baseline",
        "Sec. VI: ours-local above stock", "naive > stock"),
    Row("polling", "the SPDK polling floor beats interrupts", ABLATION,
        "spdk < stock - 800"),
    Row("polling", "a tuned distributed driver beats interrupts", ABLATION,
        "tuned < stock - 800"),
    Row("breakdown", "every read completes, its stages sum exactly",
        "Figs. 2/3", "ok and exact"),
    Row("breakdown", "media and the data/CQE return dominate", "Figs. 2/3",
        "med['media'] + med['cq-ntb-write'] > 0.5 * total"),
    Row("breakdown", "submission software and NTB flight are small",
        "Figs. 2/3", "med['submit'] + med['sq-ntb-write'] "
        "+ med['doorbell'] < 0.3 * total"),
    Row("remote_irq", "forwarded MSI-X costs reads about the IRQ latency",
        "Sec. V: the client polls, no remote interrupts",
        "700 < gap['read'] < 3_500"),
    Row("remote_irq", "forwarded MSI-X costs writes about the IRQ latency",
        "Sec. V: the client polls, no remote interrupts",
        "700 < gap['write'] < 3_500"),
    Row("under_load", "a bulk neighbour's media queueing hurts", ABLATION,
        "loaded.median > idle.median + 3_000"),
    Row("under_load", "the p99 under load stays bounded", ABLATION,
        "loaded.p99 < 25 * idle.p99"),
    Row("profiles", "every profile I/O completes", "Sec. VIII future work",
        "errors == 0"),
    Row("profiles", "OLTP keeps the NTB latency win",
        "Sec. VIII future work",
        "med['nvmeof', 'oltp'] > 1.15 * med['ours', 'oltp']"),
    Row("profiles", "the webserver keeps the NTB latency win",
        "Sec. VIII future work",
        "med['nvmeof', 'webserver'] > 1.15 * med['ours', 'webserver']"),
    Row("profiles", "the bandwidth-bound backup stream narrows the gap",
        "Sec. VIII future work",
        "med['nvmeof', 'backup'] / med['ours', 'backup'] "
        "< med['nvmeof', 'oltp'] / med['ours', 'oltp']"),
    Row("degraded", "link delay raises the median strictly", ABLATION,
        "all(a < b for a, b in zip(meds, meds[1:]))"),
    Row("degraded", "a QD1 read crosses the slow link about twice",
        ABLATION, "meds[-1] - meds[0] >= 1.9 * delays[-1]"),
    Row("degraded", "TLP loss never loses an I/O", ABLATION,
        "all(n == 0 for n in lost.values())"),
    Row("degraded", "5 % loss hits the command timeout", ABLATION,
        "timeouts[0.05] > 0"),
    Row("degraded", "and costs throughput", ABLATION,
        "kiops[0.05] < kiops[0.0]"),
]


@pytest.mark.parametrize("row", ROWS, ids=[
    f"{name}-{k}" for name, rows in itertools.groupby(
        ROWS, lambda row: row.experiment) for k, _row in enumerate(rows)])
def test_row(row: Row) -> None:
    values, _table = EXPERIMENTS[row.experiment]()
    assert eval(row.band, {"PAPER_CLAIMS": PAPER_CLAIMS, **values}), (
        f"{row.claim} ({row.source}): {row.band} fails on {values}")


def rows_table() -> str:
    return _md(["claim", "source", "experiment", "band"],
               [[row.claim, row.source, f"`{row.experiment}`",
                 f"`{row.band}`"] for row in ROWS])


_BLOCK = re.compile(r"(<!-- fidelity:(\w+) -->\n).*?(<!-- /fidelity:\2 -->)",
                    re.S)


def render(text: str) -> str:
    """``text`` with every marked block regenerated."""
    return _BLOCK.sub(lambda m: m[1] + (
        rows_table() if m[2] == "rows" else EXPERIMENTS[m[2]]()[1])
        + "\n" + m[3],
        text)


def test_experiments_md_is_current() -> None:
    text = DOC.read_text()
    assert {m[2] for m in _BLOCK.finditer(text)} == {"rows", *EXPERIMENTS}
    assert render(text) == text, \
        "EXPERIMENTS.md is stale: run python tests/test_fidelity.py"


if __name__ == "__main__":
    DOC.write_text(render(DOC.read_text()))
