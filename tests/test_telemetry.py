"""Telemetry: spans, metrics registry, exporters, determinism.

Covers the ISSUE 3 acceptance criteria: clean spans decompose the
end-to-end latency into the seven canonical stages *exactly*; metrics
and exporters are deterministic (two identical chaos runs serialise
byte-identically); and enabling telemetry does not perturb simulated
timing at all.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro import scenarios
from repro.driver import BlockRequest
from repro.run import RunSpec, run
from repro.scenarios import build_fig10_scenario, ours_remote
from repro.sim import Simulator, Tracer
from repro.telemetry import (BOUNDARIES, STAGES, IoSpan, MetricsError,
                             MetricsRegistry, SpanRecorder,
                             registry_to_prometheus, spans_to_perfetto)
from repro.workloads import FioJob, run_fio


def make_clean_span(start=1000, step=100):
    span = IoSpan(0, "dev0", "read", lba=8, nbytes=4096, start_ns=start)
    ts = start
    for name in BOUNDARIES:
        ts += step
        span.mark(name, ts)
    span.end_ns = ts + step
    return span


def _us_of(ns):
    return ns / 1000.0


class TestIoSpan:
    def test_clean_span_stage_sums_exactly(self):
        span = make_clean_span()
        assert span.clean
        stages = span.stage_durations()
        assert tuple(stages) == STAGES
        assert sum(stages.values()) == span.duration_ns == 700

    def test_boundaries_include_start_and_end(self):
        span = make_clean_span()
        names = [n for n, _t in span.boundaries()]
        assert names == ["start", *BOUNDARIES, "end"]

    def test_unfinished_span(self):
        span = IoSpan(0, "d", "read", 0, 4096, start_ns=5)
        assert not span.finished
        with pytest.raises(ValueError):
            span.duration_ns
        assert [n for n, _t in span.boundaries()] == ["start"]

    def test_duplicate_mark_makes_span_unclean(self):
        span = make_clean_span()
        span.mark("fetched", span.end_ns)   # retry stamped a boundary
        assert span.finished and not span.clean
        assert span.stage_durations() is None

    def test_arb_granted_is_an_inner_mark_of_fetch(self):
        """A shared SQ's span stamps ``arb-granted`` between
        ``doorbell-delivered`` and ``fetched``: it stays clean, and the
        mark splits no stage."""
        span = make_clean_span()
        plain = span.stage_durations()
        span.marks.insert(3, ("arb-granted", span.marks[2][1] + 40))
        assert span.clean
        assert span.stage_durations() == plain
        span.marks.append(span.marks.pop(3))    # after cqe-delivered
        assert not span.clean and span.stage_durations() is None

    def test_as_dict_round_trips_marks(self):
        span = make_clean_span()
        d = span.as_dict()
        assert d["device"] == "dev0" and d["op"] == "read"
        assert d["marks"] == span.marks and d["marks"] is not span.marks


class TestSpanRecorder:
    def test_begin_finish_and_queries(self):
        rec = SpanRecorder()
        a = rec.begin("d", "read", 0, 4096, start_ns=10)
        b = rec.begin("d", "write", 8, 4096, start_ns=20)
        a.end_ns = 50
        assert rec.finished() == [a]
        assert rec.clean_spans() == []      # no boundary marks
        assert b.index == a.index + 1

    def test_bind_mark_unbind(self):
        rec = SpanRecorder()
        span = rec.begin("d", "read", 0, 4096, start_ns=0)
        other = rec.begin("d", "read", 8, 4096, start_ns=0)
        rec.bind(ctrl="nvme0", qid=3, cid=7, span=span)
        # every controller numbers its qids from 1: same (qid, cid),
        # another command
        rec.bind("nvme1", 3, 7, other)
        assert (span.qid, span.cid) == (3, 7)
        rec.mark_cmd("nvme0", 3, 7, "fetched", 42)
        assert span.marks == [("fetched", 42)] and other.marks == []
        rec.unbind("nvme0", 3, 7)
        rec.mark_cmd("nvme0", 3, 7, "media-done", 50)     # silent no-op
        rec.unbind("nvme0", 3, 7)                 # tolerant double-unbind
        assert span.marks == [("fetched", 42)]
        assert rec.active("nvme1", 3, 7) is other

    def test_mark_cmd_miss_is_silent(self):
        SpanRecorder().mark_cmd("nvme0", 1, 2, "fetched", 9)

    def test_clear(self):
        rec = SpanRecorder()
        span = rec.begin("d", "read", 0, 4096, start_ns=0)
        rec.bind("nvme0", 1, 1, span)
        rec.clear()
        assert rec.spans == []
        next_span = rec.begin("d", "read", 0, 4096, start_ns=0)
        assert next_span.index == 0


class TestMetricsRegistry:
    def test_counter_add_and_get(self):
        m = MetricsRegistry()
        m.counter_add("c_total", 2, kind="x")
        m.counter_add("c_total", 3, kind="x")
        m.counter_add("c_total", 1, kind="y")
        assert m.get("c_total", kind="x") == 5
        assert m.get("c_total", kind="y") == 1
        assert m.get("c_total", kind="z") is None
        assert m.get("absent") is None

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter_add("c_total", -1)

    def test_kind_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter_add("x_total")
        with pytest.raises(MetricsError):
            m.gauge_set("x_total", 1)

    def test_label_order_is_canonical(self):
        m = MetricsRegistry()
        m.counter_add("c_total", 1, a="1", b="2")
        m.counter_add("c_total", 1, b="2", a="1")
        assert m.get("c_total", b="2", a="1") == 2

    def test_observe_snapshots_to_boxplot(self):
        m = MetricsRegistry()
        for v in (100, 200, 300):
            m.observe("lat_ns", v, device="d0")
        snap = m.snapshot()["lat_ns"]
        assert snap["kind"] == "summary"
        (series,) = snap["series"]
        assert series["labels"] == {"device": "d0"}
        assert series["value"].count == 3
        assert series["value"].median == 200

    def test_families_sorted(self):
        m = MetricsRegistry()
        m.gauge_set("zz", 1)
        m.gauge_set("aa", 2)
        assert [f.name for f in m.families()] == ["aa", "zz"]


class TestExporters:
    def test_perfetto_clean_span_structure(self):
        doc = json.loads(spans_to_perfetto([make_clean_span()]))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "dev0"
        slices = [e for e in events if e["ph"] == "X"]
        outer = [e for e in slices if e["cat"] == "io"]
        stages = [e for e in slices if e["cat"] == "stage"]
        assert len(outer) == 1 and len(stages) == len(STAGES)
        assert [e["name"] for e in stages] == list(STAGES)
        assert sum(e["dur"] for e in stages) == outer[0]["dur"]

    def test_perfetto_inner_mark_is_an_instant(self):
        span = make_clean_span()
        span.marks.insert(3, ("arb-granted", span.marks[2][1] + 40))
        events = json.loads(spans_to_perfetto([span]))["traceEvents"]
        stages = [e for e in events if e.get("cat") == "stage"]
        assert [e["name"] for e in stages] == list(STAGES)
        assert sum(e["dur"] for e in stages) == _us_of(span.duration_ns)
        mark, = [e for e in events if e.get("cat") == "mark"]
        assert (mark["name"], mark["ph"], mark["ts"]) == (
            "arb-granted", "i", _us_of(span.marks[3][1]))

    def test_perfetto_unclean_span_uses_arrow_labels(self):
        span = make_clean_span()
        span.mark("fetched", span.end_ns)
        doc = json.loads(spans_to_perfetto([span]))
        names = [e["name"] for e in doc["traceEvents"]
                 if e.get("cat") == "stage"]
        assert names[0] == "-> sqe-issued"
        assert names[-1] == "-> end"

    def test_perfetto_skips_unfinished_spans(self):
        span = IoSpan(0, "d", "read", 0, 4096, start_ns=0)
        doc = json.loads(spans_to_perfetto([span]))
        assert doc["traceEvents"] == []

    def test_prometheus_rendering(self):
        m = MetricsRegistry()
        m.counter_add("repro_x_total", 3, help="things", kind="posted")
        m.gauge_set("repro_depth", 2.5)
        m.observe("repro_lat_ns", 1000, device="d0")
        m.observe("repro_lat_ns", 3000, device="d0")
        text = registry_to_prometheus(m)
        assert "# HELP repro_x_total things\n" in text
        assert "# TYPE repro_x_total counter\n" in text
        assert 'repro_x_total{kind="posted"} 3\n' in text
        assert "repro_depth 2.5\n" in text
        assert ('repro_lat_ns{device="d0",quantile="0.5"} 2000'
                in text)
        assert 'repro_lat_ns_sum{device="d0"} 4000\n' in text
        assert 'repro_lat_ns_count{device="d0"} 2\n' in text

    def test_prometheus_empty_summary_is_all_zero(self):
        m = MetricsRegistry()
        from repro.sim import BoxplotStats
        m.summary_set("repro_lat_ns", BoxplotStats.from_values([]))
        text = registry_to_prometheus(m)
        assert 'repro_lat_ns{quantile="0.99"} 0\n' in text
        assert "repro_lat_ns_count 0\n" in text

    def test_prometheus_label_values_are_escaped(self):
        # Satellite regression: backslash, double quote and newline in
        # label values must escape per the text exposition format.
        m = MetricsRegistry()
        m.counter_set("repro_x_total", 1, path='C:\\dev\\"nvme"\n0')
        text = registry_to_prometheus(m)
        assert ('repro_x_total{path="C:\\\\dev\\\\\\"nvme\\"\\n0"} 1'
                in text)
        assert "\n0" not in text.split("repro_x_total{")[1]

    def test_prometheus_classic_histogram_rendering(self):
        from repro.telemetry import LogHistogram
        m = MetricsRegistry()
        hist = LogHistogram()
        for v in (10, 10, 50, 1000):
            hist.record(v)
        m.histogram_set("repro_hist_ns", hist, help="latency",
                        tenant="h1")
        text = registry_to_prometheus(m)
        assert "# TYPE repro_hist_ns histogram\n" in text
        # Cumulative buckets at the occupied log-bucket upper bounds
        # (the le label renders last, like summary quantile labels).
        assert 'repro_hist_ns_bucket{tenant="h1",le="10"} 2\n' in text
        assert 'repro_hist_ns_bucket{tenant="h1",le="50"} 3\n' in text
        upper = hist.bucket_upper(hist.bucket_index(1000))
        assert (f'repro_hist_ns_bucket{{tenant="h1",le="{upper}"}} 4\n'
                in text)
        assert 'repro_hist_ns_bucket{tenant="h1",le="+Inf"} 4\n' in text
        assert 'repro_hist_ns_sum{tenant="h1"} 1070\n' in text
        assert 'repro_hist_ns_count{tenant="h1"} 4\n' in text


class TestInstrumentedScenarios:
    def test_remote_reads_decompose_exactly(self):
        scenario = ours_remote(seed=21, telemetry=True)
        tele = scenario.telemetry

        def flow(sim):
            for i in range(30):
                req = yield scenario.device.submit(
                    BlockRequest("read", lba=i * 8, nblocks=8))
                assert req.ok

        scenario.sim.run(until=scenario.sim.process(flow(scenario.sim)))
        spans = tele.spans.clean_spans()
        assert len(spans) == 30
        for span in spans:
            stages = span.stage_durations()
            assert sum(stages.values()) == span.duration_ns
            assert all(v >= 0 for v in stages.values())
            assert span.qid == scenario.device.qid

    def test_cluster_path_spans_are_clean(self):
        """Both controllers number their qids from 1, so a command is
        named by its controller too: in a fault-free cluster run (no
        span touched by recovery) every path client's span follows the
        canonical path exactly once."""
        done = run(RunSpec("cluster", clients=8, devices=2, iodepth=4,
                           ios=200, observe={"spans"}))
        paths = {path.name for path in done.rig.subclients}
        spans = [s for s in done.telemetry.spans.spans if s.device in paths]
        assert len(spans) == 1600
        assert all(span.clean for span in spans)
        assert done.telemetry.spans._active == {}

    def test_shared_sq_spans_are_clean(self):
        """On the noisy rig every SQE goes through the shared SQ's
        arbiter, so every span carries ``arb-granted``; in a fault-free
        run each one is clean and its stages sum to its duration."""
        done = run(RunSpec("noisy", observe={"spans"}, seed=7,
                           horizon_ns=1_000_000))
        spans = done.telemetry.spans.finished()
        assert len(spans) == len(done.telemetry.spans.spans) == 1066
        assert all("arb-granted" in dict(span.marks) for span in spans)
        assert done.telemetry.spans.clean_spans() == spans
        for span in spans:
            assert sum(span.stage_durations().values()) == span.duration_ns

    def test_telemetry_does_not_perturb_timing(self):
        # The acceptance criterion: runs with telemetry off must be
        # bit-identical to the seed behaviour — and since spans ride on
        # existing events (no queue entries, no RNG draws), runs with
        # telemetry ON must produce identical latencies too.
        job = FioJob(name="t", rw="randread", bs=4096, iodepth=4,
                     total_ios=120)
        lats = {}
        for on in (False, True):
            scenario = build_fig10_scenario("ours-remote", seed=33,
                                            telemetry=on)
            result = run_fio(scenario.device, job)
            lats[on] = (result.read_latencies.values().tolist(),
                        scenario.sim.now)
        assert lats[False] == lats[True]

    def test_local_baseline_decomposes_with_no_ntb_leg(self):
        """The local stack submits through the same queue-pair core, so
        its spans carry the same marks: Fig. 10's local leg decomposes
        into the same seven stages, the SQE store being a plain local
        one (docs/observability.md has the two columns side by side)."""
        job = FioJob(name="t", rw="randread", bs=4096, iodepth=1,
                     total_ios=60)
        runs = {}
        for on in (False, True):
            scenario = build_fig10_scenario("local-linux", seed=404,
                                            telemetry=on)
            result = run_fio(scenario.device, job)
            runs[on] = (result.read_latencies.values().tolist(),
                        scenario.sim.now, scenario.sim.events_processed)
        assert runs[False] == runs[True]
        spans = scenario.telemetry.spans.clean_spans()
        assert len(spans) == 60
        for span in spans:
            stages = span.stage_durations()
            assert sum(stages.values()) == span.duration_ns
            assert stages["sq-ntb-write"] == 0
            assert min(stages.values()) >= 0 < stages["doorbell"]
        assert scenario.telemetry.spans._active == {}

    def test_span_durations_match_recorder_exactly(self):
        scenario = build_fig10_scenario("ours-remote", seed=8,
                                        telemetry=True)
        result = run_fio(scenario.device,
                         FioJob(name="x", rw="randread", bs=4096,
                                iodepth=2, total_ios=80))
        spans = scenario.telemetry.spans.clean_spans()
        assert len(spans) == 80
        recorded = collections.Counter(
            result.read_latencies.values().tolist())
        assert recorded == collections.Counter(
            s.duration_ns for s in spans)

    def test_metrics_snapshot_contents(self):
        scenario = build_fig10_scenario("ours-remote", seed=8,
                                        telemetry=True)
        run_fio(scenario.device,
                FioJob(name="x", rw="randread", bs=4096, iodepth=1,
                       total_ios=40))
        m = scenario.telemetry.collect()
        dev = scenario.device.name
        assert m.get("repro_io_completed_total", device=dev) == 40
        assert m.get("repro_fabric_tlps_total", kind="posted") > 0
        assert m.get("repro_fabric_tlps_total", kind="nonposted") > 0
        assert m.get("repro_nvme_commands_completed_total",
                     ctrl=scenario.testbed.nvme.name) >= 40
        assert m.get("repro_nvme_sq_depth",
                     ctrl=scenario.testbed.nvme.name,
                     qid=scenario.device.qid) == 0
        # The manager served this client's create-qp RPC.
        rec = m.get("repro_manager_rpc_latency_ns", op="create-qp")
        assert rec is not None and len(rec) == 1
        ntb_name = scenario.testbed.ntbs[1].name
        assert m.get("repro_ntb_link_up", adapter=ntb_name) == 1
        assert m.get("repro_ntb_bytes_total", adapter=ntb_name) > 0

    @pytest.mark.parametrize("build", [
        lambda: scenarios.ours_local(seed=8, telemetry=True),
        lambda: scenarios.ours_remote(seed=8, telemetry=True),
        lambda: scenarios.multihost(2, seed=8, telemetry=True),
        lambda: scenarios.scale_out_cluster(2, seed=8, telemetry=True),
        lambda: scenarios.noisy_neighbor(1, seed=8),
        lambda: scenarios.chaos_cluster(2, seed=8, telemetry=True),
        lambda: scenarios.cluster(2, seed=8, telemetry=True),
        lambda: scenarios.cluster_scale_out(2, 2, seed=8, telemetry=True),
    ], ids=["ours-local", "ours-remote", "multihost", "scale-out", "noisy",
            "chaos", "cluster", "cluster-scale-out"])
    def test_every_ntb_rig_exports_its_adapters(self, build):
        # multihost() used to build its hub without ``ntbs=``, so it,
        # scale_out_cluster, noisy_neighbor and every QoS export carried
        # no repro_ntb_* series at all.
        rig = build()
        run_fio(rig.clients[-1], FioJob(rw="randread", total_ios=5))
        m = rig.telemetry.collect()
        for ntb in rig.testbed.ntbs:
            assert m.get("repro_ntb_link_up", adapter=ntb.name) == 1
        remote = rig.testbed.ntbs[-1].name
        assert "repro_ntb_" in rig.telemetry.prometheus_text()
        if rig.label != "ours-local":       # its I/O never leaves host0
            assert m.get("repro_ntb_bytes_total", adapter=remote) > 0


class TestChaosDeterminism:
    def test_chaos_exports_are_byte_identical(self):
        runs = [run(RunSpec("chaos", rw="randrw", iodepth=4, ios=40,
                            seed=11, clients=2, faults="random",
                            observe={"spans"}))
                for _ in range(2)]
        a, b = runs
        assert a.perfetto_json() == b.perfetto_json()
        assert a.prometheus_text() == b.prometheus_text()
        assert [r.ios for r in a.results] == [r.ios for r in b.results]
        # The chaos run actually exercised the faults path.
        text = a.prometheus_text()
        assert "repro_faults_injected_total" in text


class TestCollectIdempotency:
    def test_double_collect_is_idempotent(self):
        # Satellite regression: collect() must be safe to call ad hoc
        # and repeatedly — every collector uses set-style instruments
        # (counter_set/gauge_set/summary_set), never counter_add, so a
        # second scrape with no sim progress changes nothing.
        scenario = build_fig10_scenario("ours-remote", seed=8,
                                        telemetry=True)
        run_fio(scenario.device,
                FioJob(name="x", rw="randread", bs=4096, iodepth=2,
                       total_ios=60))
        tele = scenario.telemetry
        first = registry_to_prometheus(tele.collect())
        second = registry_to_prometheus(tele.collect())
        assert first == second


class TestClusterMetricsContract:
    """Exact family names and label sets for a 2-device cluster —
    exporter output is contract-tested, not just smoke-tested."""

    def _collect(self):
        from repro.scenarios import cluster
        from repro.workloads import run_fio_many
        sc = cluster(n_clients=2, n_devices=2, seed=5, telemetry=True)
        run_fio_many([(vol, FioJob(name=f"v{i}", rw="randread",
                                   bs=4096, iodepth=2, total_ios=30))
                      for i, vol in enumerate(sc.volumes)])
        return sc, sc.telemetry.collect()

    def test_volume_families_and_label_sets(self):
        sc, m = self._collect()
        snap = m.snapshot()
        volume_families = {
            "repro_cluster_failovers_total": "counter",
            "repro_cluster_path_errors_total": "counter",
            "repro_cluster_degraded_writes_total": "counter",
            "repro_cluster_paths_live": "gauge",
            "repro_cluster_paths": "gauge",
        }
        for family, kind in volume_families.items():
            assert family in snap, family
            assert snap[family]["kind"] == kind
            series = snap[family]["series"]
            # One series per volume, labelled by volume name only.
            assert [s["labels"] for s in series] == [
                {"volume": "vol0"}, {"volume": "vol1"}]
        # Healthy run: every configured path is live, none demoted.
        for sample in snap["repro_cluster_paths_live"]["series"]:
            assert sample["value"] == 1
        for sample in snap["repro_cluster_paths"]["series"]:
            assert sample["value"] == 1

    def test_manager_families_carry_device_id_labels(self):
        sc, m = self._collect()
        snap = m.snapshot()
        device_ids = sorted(str(d) for d in sc.managers)
        assert len(device_ids) == 2
        for family in ("repro_manager_rpcs_total",
                       "repro_manager_queues_in_use",
                       "repro_manager_leases_reclaimed_total",
                       "repro_manager_admission_rejections_total",
                       "repro_qp_cqes_forwarded_total",
                       "repro_qp_cqes_orphaned_total"):
            assert family in snap, family
            labels = [s["labels"] for s in snap[family]["series"]]
            # Multi-manager hubs must disambiguate by device_id.
            assert sorted(l["device_id"] for l in labels) == device_ids
            assert all(set(l) == {"device_id"} for l in labels)
        # Shared-QP gauges only exist when admission actually shared a
        # queue pair (2 tenants on 2 devices get exclusive QPs); when
        # present they must carry both qid and device_id.
        for family in ("repro_qp_tenants", "repro_qp_windows_free"):
            for sample in snap.get(family, {}).get("series", ()):
                assert set(sample["labels"]) == {"device_id", "qid"}

    def test_single_manager_hub_stays_unlabeled(self):
        # The historical contract: one manager -> no device_id label.
        tr = run(RunSpec("chaos", ios=20, seed=11, clients=2,
                         observe={"spans"}))
        snap = tr.telemetry.collect().snapshot()
        labels = [s["labels"]
                  for s in snap["repro_manager_rpcs_total"]["series"]]
        assert labels == [{}]


class TestTracerSatellite:
    def test_emit_copies_payload(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        payload = {"qid": 1}
        tracer.emit("nvme", "fetch", **payload)
        payload["qid"] = 99
        assert tracer.records[0].payload == {"qid": 1}

    def test_emit_copies_caller_dict_mutation(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        state = {"head": 0}
        tracer.emit("q", "state", **state)
        state["head"] = 7
        tracer.emit("q", "state", **state)
        assert [r.payload["head"] for r in tracer.records] == [0, 7]

    def test_as_tuple_is_stable_and_hashable(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        tracer.emit("nvme", "fetch", b=2, a=1)
        rec = tracer.records[0]
        assert rec.as_tuple() == (0, "nvme", "fetch",
                                  (("a", 1), ("b", 2)))
        assert hash(rec.as_tuple())
