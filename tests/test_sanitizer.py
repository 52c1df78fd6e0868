"""ShareSan: off by default, detector fixtures, zero perturbation.

Three properties make the sanitizer trustworthy enough to leave wired
into every hot path:

* **off by default** — every instrumented object emits on its
  simulator's probe, whose subscriber tuples are empty until a
  ShareSan is created, so an un-sanitized run pays an empty ``for``;
* **each detector provably fires** — the fixture pack plants one
  intentional bug per detector and must trip exactly that detector,
  or the sanitizer is theatre;
* **zero perturbation** — a sanitized run is bit-identical to the same
  run without the sanitizer (trace log and per-client results), on the
  full shared-QP cluster and under chaos injection alike.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SimulationConfig
from repro.sanitizer import (DETECTORS, FIXTURES, ShareSan, build_report,
                             render_json, render_text, selftest)
from repro.faults import FaultPlan
from repro.scenarios import chaos_cluster, scale_out_cluster
from repro.sim import Simulator
from repro.workloads import FioJob, fio_generator


class TestNullObjectDefaults:
    """Sanitizer off: nobody subscribed, no hooks, no cost."""

    def test_instrumented_objects_default_to_null(self):
        from repro.memory.physmem import HostMemory
        from repro.pcie.ntb import NtbFunction
        from repro.sim.probe import EVENTS

        sim = Simulator(seed=1)
        assert HostMemory(sim, 1 << 20).probe is sim.probe
        assert NtbFunction(sim, "ntb0", aperture=1 << 20).probe \
            is sim.probe
        assert all(getattr(sim.probe, event) == () for event in EVENTS)

    def test_sharesan_starts_clean_and_enabled(self):
        sim = Simulator(seed=1)
        san = ShareSan(sim)
        assert sim.probe.ring_step == (san.on_ring_step,)
        assert sim.probe.mem_event == (san.on_mem_event,)
        assert san.clean
        assert san.detectors_fired() == set()


class TestDetectorFixtures:
    """Each seeded bug trips its own detector — and only its own."""

    def test_fixture_pack_covers_every_detector(self):
        assert set(FIXTURES) == set(DETECTORS)

    @pytest.mark.parametrize("detector", sorted(FIXTURES))
    def test_fixture_fires_exactly_its_detector(self, detector):
        san = FIXTURES[detector]()
        assert san.detectors_fired() == {detector}
        assert not san.clean
        assert all(f.detector == detector for f in san.findings)

    def test_selftest_reports_every_detector_ok(self):
        results = selftest()
        assert set(results) == set(DETECTORS)
        assert all(entry["ok"] for entry in results.values())


class TestZeroPerturbation:
    """Sanitized runs are bit-identical to unsanitized ones."""

    def _scale_out(self, sanitizer: bool):
        scn = scale_out_cluster(64, seed=909, queue_depth=4,
                                telemetry=True, sanitizer=sanitizer)
        procs = [scn.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", iodepth=2,
                           total_ios=8, seed_stream=f"fio{i}")))
            for i, client in enumerate(scn.clients)]
        scn.sim.run(until=scn.sim.timeout(200_000_000))
        assert all(p.triggered for p in procs)
        results = [(p.value.ios, p.value.errors) for p in procs]
        tele = scn.telemetry
        assert tele is not None
        # Every exported telemetry byte doubles as the trace here: the
        # shared-QP scenario has no tracer, but the Perfetto stream
        # encodes per-span timing, so any perturbation shows up.
        return scn, (tele.prometheus_text(), tele.perfetto_json()), results

    def test_scale_out_cluster_is_clean_and_bit_identical(self):
        scn_on, bytes_on, results_on = self._scale_out(True)
        assert scn_on.sanitizer is not None
        assert scn_on.sanitizer.clean, scn_on.sanitizer.findings
        # The shared-QP machinery was actually exercised and watched.
        assert scn_on.sanitizer.stats.get("cqes_forwarded", 0) > 0
        _scn_off, bytes_off, results_off = self._scale_out(False)
        assert bytes_on == bytes_off
        assert results_on == results_off

    def _chaos(self, sanitizer: bool):
        plan = FaultPlan.kill("host2-nvme", at_ns=1_000_000)
        scn = chaos_cluster(n_clients=3, plan=plan, seed=77,
                            sanitizer=sanitizer)
        scn.injector.start()
        procs = [scn.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=60, seed_stream=f"fio{i}")))
            for i, client in enumerate(scn.clients)]
        scn.sim.run(until=scn.sim.timeout(100_000_000))
        assert all(p.triggered for p in procs)
        results = [(p.value.ios, p.value.errors) for p in procs]
        return scn, scn.trace_log(), results

    def test_chaos_kill_is_clean_and_bit_identical(self):
        scn_on, trace_on, results_on = self._chaos(True)
        assert scn_on.sanitizer is not None
        assert scn_on.sanitizer.clean, scn_on.sanitizer.findings
        _scn_off, trace_off, results_off = self._chaos(False)
        assert trace_on == trace_off
        assert results_on == results_off


class TestReport:
    """build_report/render round-trips for humans and CI artifacts."""

    def test_dirty_report_renders_findings(self):
        san = FIXTURES["stale-doorbell"]()
        report = build_report(san, scenario="fixture", seed=71)
        assert report["clean"] is False
        assert report["scenario"] == "fixture"
        parsed = json.loads(render_json(report))
        assert parsed["findings"][0]["detector"] == "stale-doorbell"
        text = render_text(report)
        assert "FINDINGS" in text and "stale-doorbell" in text

    def test_clean_report_says_so(self):
        san = ShareSan(Simulator(seed=4))
        text = render_text(build_report(san, scenario="empty", seed=4))
        assert "clean" in text

    def test_run_scenario_multihost_smoke(self):
        from repro.run import RunSpec, run
        done = run(RunSpec("multihost", rw="randrw", iodepth=4, ios=5,
                           clients=2, seed=11, observe={"sanitize"}))
        assert done.sanitizer.clean, done.sanitizer.findings
        report = done.sanitizer_report()
        assert report["scenario"] == "multihost"
        assert report["ios"] == 10          # 2 clients x 5 ios, no errors
        assert report["errors"] == 0


class TestScenarioWiring:
    """Builders create, attach and return the sanitizer on request."""

    def test_scale_out_threads_sanitizer_through(self):
        scn = scale_out_cluster(40, seed=5, sanitizer=True)
        assert isinstance(scn.sanitizer, ShareSan)
        # Every host memory reports to the probe it subscribed to.
        for host in scn.testbed.hosts:
            assert host.memory.probe.mem_event \
                == (scn.sanitizer.on_mem_event,)

    def test_sanitizer_off_leaves_null_objects(self):
        scn = scale_out_cluster(40, seed=5, sanitizer=False)
        assert scn.sanitizer is None
        for host in scn.testbed.hosts:
            assert host.memory.probe.mem_event == ()

    def test_chaos_cluster_threads_sanitizer_through(self):
        scn = chaos_cluster(n_clients=2, seed=9, sanitizer=True)
        assert isinstance(scn.sanitizer, ShareSan)

    def test_config_is_untouched_by_sanitized_builders(self):
        cfg = SimulationConfig()
        scale_out_cluster(32, config=cfg, seed=5, sanitizer=True)
        assert cfg == SimulationConfig()


class TestTranslationCount:
    """ShareSan's ``ntb_translations`` is every NTB crossing, whether the
    fabric walked the path or replayed a flow record (it used to count
    the walks only: 165 of 1,527 here)."""

    @pytest.mark.parametrize("cache", ["1", "0"], ids=["cached", "walked"])
    def test_it_equals_the_ntbs_own_counts(self, cache, monkeypatch):
        from repro.scenarios import build_fig10_scenario
        from repro.workloads import run_fio
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1" if cache == "0"
                           else "0")
        rig = build_fig10_scenario("ours-remote", seed=405, sanitizer=True)
        run_fio(rig.device, FioJob(rw="randread", total_ios=300))
        ntbs = [ntb.translations for ntb in rig.testbed.ntbs]
        assert ntbs == [600, 927]
        assert rig.sanitizer.stats["ntb_translations"] == sum(ntbs)
