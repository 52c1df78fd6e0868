"""Time-series telemetry, latency histograms, SLO burn-rate engine.

Covers the ISSUE 8 acceptance criteria: deterministic log-bucketed
histograms with bounded relative error; a sim-clock sampler that
perturbs modeled timing not at all; multi-window burn-rate alerting
whose device-kill alert fires inside the kill window; and byte-identical
exports across identical runs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos import AdmissionThrottle
from repro.qos.runner import QOS_SLO
from repro.scenarios import noisy_neighbor
from repro.sim import Interrupt, Simulator
from repro.telemetry import (HistogramError, LatencyHistograms,
                             LogHistogram, SeriesBank, SloEngine, SloSpec,
                             Telemetry, TelemetrySampler)
from repro.telemetry.hist import QUANTILES
from repro.run import RunSpec, run
from repro.workloads import OpenLoopJob, open_loop_generator

from .hostcost import cost


# --- histograms ----------------------------------------------------------

class TestLogHistogram:
    def test_small_values_are_exact(self):
        h = LogHistogram()
        for v in range(128):
            assert h.bucket_index(v) == v
            assert h.bucket_upper(v) == v

    def test_bucket_upper_inverts_bucket_index(self):
        h = LogHistogram()
        for v in [128, 129, 255, 256, 1000, 4096, 10**6, 10**9, 10**12]:
            idx = h.bucket_index(v)
            upper = h.bucket_upper(idx)
            assert upper >= v
            assert h.bucket_index(upper) == idx
            # The next value after the bucket's upper bound starts a
            # new bucket.
            assert h.bucket_index(upper + 1) == idx + 1

    def test_relative_error_bound(self):
        h = LogHistogram()
        for v in [130, 999, 12_345, 7_654_321, 10**10 + 7]:
            upper = h.bucket_upper(h.bucket_index(v))
            assert (upper - v) / v <= 2 / 128

    def test_negative_value_rejected(self):
        with pytest.raises(HistogramError):
            LogHistogram().record(-1)

    def test_quantiles_match_nearest_rank_exactly(self):
        # Deterministic value set; small values are bucket-exact, so
        # quantiles must equal the true nearest-rank sample.
        values = [(i * 37) % 100 for i in range(1000)]
        h = LogHistogram()
        for v in values:
            h.record(v)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99, 0.999, 1.0):
            rank = max(1, -(-int(q * 1_000_000) * len(ordered)
                            // 1_000_000))
            assert h.quantile(q) == ordered[rank - 1], q

    def test_quantile_empty_and_clamping(self):
        h = LogHistogram()
        assert h.quantile(0.99) == 0
        h.record(7)
        assert h.quantile(-1.0) == 7
        assert h.quantile(2.0) == 7

    def test_merge_and_diff(self):
        a, b = LogHistogram(), LogHistogram()
        for v in (5, 500, 50_000):
            a.record(v)
        for v in (5, 900):
            b.record(v)
        a.merge(b)
        assert a.count == 5 and a.total == 5 + 500 + 50_000 + 5 + 900
        snap = a.copy()
        a.record(12)
        window = a.diff(snap)
        assert window.count == 1
        assert window.quantile(1.0) == 12

    def test_diff_rejects_non_ancestor(self):
        a, b = LogHistogram(), LogHistogram()
        b.record(5)
        with pytest.raises(HistogramError):
            a.diff(b)

    def test_sub_bits_mismatch_rejected(self):
        with pytest.raises(HistogramError):
            LogHistogram(7).merge(LogHistogram(8))

    @given(values=st.lists(st.one_of(st.none(), st.integers(0, 5_000_000)),
                           max_size=80),
           limit=st.integers(0, 5_000_000))
    @settings(max_examples=100, deadline=None)
    def test_cut_is_diff_against_the_copy_at_the_previous_cut(self, values,
                                                              limit):
        """``cut`` / ``window_quantiles`` / ``rank_to`` read the buckets
        touched since the last cut; ``copy`` / ``diff`` / ``quantile`` /
        ``rank_le`` read them all and say the same (None = a cut)."""
        hist = LogHistogram()
        snap = hist.copy()
        for value in values + [None]:
            if value is not None:
                hist.record(value)
                continue
            assert hist.rank_to(limit) == hist.rank_le(limit)   # window open
            reference = hist.diff(snap)
            snap = hist.copy()
            window = hist.cut()
            assert window == reference.buckets()
            if window:
                assert hist.window_quantiles(window) == [
                    reference.quantile(q) for q, _label in QUANTILES]
            assert hist.rank_to(limit) == hist.rank_le(limit)
            assert hist.cut() == []


class TestLatencyHistograms:
    def test_errors_burn_separately_from_latency(self):
        hists = LatencyHistograms()
        hists.record_io("h1", "read", "d0", 100)
        hists.record_io("h1", "read", "d0", 200)
        hists.record_io("h1", "read", "d0", 5, ok=False)
        key = ("h1", "read", "d0")
        assert hists.totals(key) == (2, 1)
        # The failed request's latency never lands in the histogram.
        assert hists.hist(*key).count == 2
        assert hists.errors(*key) == 1

    def test_keys_sorted_union(self):
        hists = LatencyHistograms()
        hists.record_io("b", "read", "d0", 1)
        hists.record_io("a", "write", "d1", 1, ok=False)
        assert hists.keys() == [("a", "write", "d1"), ("b", "read", "d0")]


# --- time series ---------------------------------------------------------

class TestSeriesBank:
    def test_ring_capacity_evicts_oldest(self):
        bank = SeriesBank(capacity=3)
        ts = bank.series("x", host="h")
        for i in range(5):
            ts.append(i, i * 10)
        assert ts.points() == [(2, 20), (3, 30), (4, 40)]

    def test_jsonl_is_sorted_and_deterministic(self):
        bank = SeriesBank()
        bank.series("b").append(5, 1)
        bank.series("a", z="2", y="1").append(3, 0.5)
        lines = bank.to_jsonl().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["name"] for d in docs] == ["a", "b"]
        assert docs[0]["labels"] == {"y": "1", "z": "2"}
        assert bank.to_jsonl() == bank.to_jsonl()

    def test_get_without_create(self):
        bank = SeriesBank()
        assert bank.get("missing") is None
        bank.series("x")
        assert bank.get("x") is not None and len(bank) == 1


class TestTelemetrySampler:
    def test_ticks_at_interval_and_stops(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=100)
        seen = []
        sampler.add_source(lambda bank, now: seen.append(now))
        sampler.start()
        sim.run(until=sim.timeout(450))
        assert seen == [0, 100, 200, 300, 400]
        sampler.stop()                     # final sample at stop time
        assert seen[-1] == 450
        # The tick process is gone: a queue-draining run terminates.
        sim.run()
        assert seen[-1] == 450

    def test_start_is_idempotent(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=100)
        ticks = []
        sampler.add_source(lambda bank, now: ticks.append(now))
        sampler.start()
        sampler.start()
        sim.run(until=sim.timeout(250))
        assert ticks == [0, 100, 200]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(Simulator(), interval_ns=0)


# --- the sampler's and the throttle's loops are records ------------------

def reference_sampler_start(self):
    """``TelemetrySampler.start``, its loop a process."""
    def loop():
        try:
            while True:
                self.sample_once()
                yield self.sim.sleep(self.interval_ns)
        except Interrupt:
            return
    if not self.running:
        self._proc = self.sim.process(loop())


def reference_sampler_stop(self, final_sample=True):
    if self._proc is not None and self._proc.is_alive:
        self._proc.interrupt()
    self._proc = None
    if final_sample:
        self.sample_once()


def reference_throttle_start(self):
    """``AdmissionThrottle.start``, its loop a process."""
    def watch():
        while self._running:
            yield self.sim.sleep(self.qos.throttle_check_interval_ns)
            if not self._running:
                return
            self._check()
    if self.enabled and not self._running:
        self._running = True
        self.sim.process(watch())


class TestLoopsAreRecords:
    """Neither loop resumes a process per tick: each is a record on its
    owned timer.  Against the generator loops they replaced, on the
    noisy rig with every hook on, stopped mid-run, run on, started
    again: the same samples, check instants, clamps, latencies and
    events."""

    @staticmethod
    def play(seed):
        sc = noisy_neighbor(n_bystanders=2, throttle_window=1, seed=seed)
        tele = sc.telemetry
        tele.enable_histograms()
        sampler = tele.enable_sampler(interval_ns=20_000, start=False)
        admission = AdmissionThrottle(sc.sim, sc.testbed.config.qos,
                                      tele.enable_slo(QOS_SLO))
        admission.attach(sc.clients)
        sim = sc.sim
        checks, check = [], admission._check

        def logged_check():
            checks.append(sim.now)
            check()
        admission._check = logged_check
        procs = [sim.process(open_loop_generator(device, OpenLoopJob(
            name=f"t{i}", rate_iops=800_000.0 if i == 0 else 100_000.0,
            total_arrivals=None, runtime_ns=900_000, inflight_cap=16)))
            for i, device in enumerate(sc.clients)]
        start = sim.now      # the throttle checks every 200 us
        for after, hooks in ((0, "start"), (450_000, "stop"),
                             (550_000, "start")):
            sim.run(until=start + after)
            for hook in (sampler, admission):
                getattr(hook, hooks)()
        sim.run(until=sim.all_of(procs))
        sampler.stop()
        admission.stop()
        sim.run(until=sim.now + 300_000)
        return (sim.events_processed, sampler.ticks, checks,
                tele.timeseries_jsonl(), admission.report(),
                admission.throttles_applied,
                [proc.value.latencies.values().tolist() for proc in procs])

    def test_same_ticks_clamps_and_events(self, monkeypatch):
        ours = self.play(seed=5)
        assert ours[5] > 0              # the clamp was applied
        monkeypatch.setattr(TelemetrySampler, "start",
                            reference_sampler_start)
        monkeypatch.setattr(TelemetrySampler, "stop", reference_sampler_stop)
        monkeypatch.setattr(AdmissionThrottle, "start",
                            reference_throttle_start)
        assert self.play(seed=5) == ours


# --- SLO engine ----------------------------------------------------------

def _engine(**kw):
    defaults = dict(name="slo", objective_ns=100, target=0.9,
                    fast_window_ns=100, slow_window_ns=300,
                    burn_threshold=2.0)
    defaults.update(kw)
    hists = LatencyHistograms()
    return SloEngine(SloSpec(**defaults), hists), hists


class TestSloEngine:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(target=1.0)
        with pytest.raises(ValueError):
            SloSpec(fast_window_ns=10, slow_window_ns=5)
        with pytest.raises(ValueError):
            SloSpec(objective_ns=0)

    def test_healthy_traffic_never_alerts(self):
        engine, hists = _engine()
        bank = SeriesBank()
        for tick in range(10):
            hists.record_io("h1", "read", "d0", 50)
            engine.sample(bank, tick * 100)
        assert engine.alerts == []
        assert engine.compliance("h1") == 1.0
        assert bank.get("slo_burn_fast", slo="slo",
                        tenant="h1").values()[-1] == 0.0

    def test_burn_fires_and_resolves_with_sim_timestamps(self):
        engine, hists = _engine()
        bank = SeriesBank()
        # 5 good ticks, then 5 all-error ticks, then silence.
        now = 0
        for _ in range(5):
            hists.record_io("h1", "read", "d0", 50)
            engine.sample(bank, now)
            now += 100
        for _ in range(5):
            hists.record_io("h1", "read", "d0", 50, ok=False)
            engine.sample(bank, now)
            now += 100
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.tenant == "h1"
        # Errors start at t=500; the slow window (300 ns) fills with
        # bad traffic within a few ticks — burn 10 >> threshold 2.
        assert 500 <= alert.fired_at_ns <= 800
        assert alert.active
        # Quiet ticks: the windows slide past the burst and the alert
        # resolves.
        for _ in range(6):
            engine.sample(bank, now)
            now += 100
        assert not alert.active
        assert alert.resolved_at_ns is not None

    def test_error_burns_budget_even_when_fast(self):
        engine, hists = _engine()
        bank = SeriesBank()
        hists.record_io("h1", "read", "d0", 1, ok=False)   # fast failure
        engine.sample(bank, 0)
        hists.record_io("h1", "read", "d0", 1, ok=False)
        engine.sample(bank, 100)
        assert engine.compliance("h1") == 0.0

    def test_slow_request_is_bad(self):
        engine, hists = _engine()
        bank = SeriesBank()
        hists.record_io("h1", "read", "d0", 99)     # within objective
        hists.record_io("h1", "read", "d0", 5000)   # blown objective
        engine.sample(bank, 0)
        assert engine.compliance("h1") == 0.5

    def test_report_round_trips_to_json(self):
        engine, hists = _engine()
        hists.record_io("h1", "read", "d0", 50)
        engine.sample(SeriesBank(), 0)
        doc = json.loads(json.dumps(engine.report()))
        assert doc["tenants"]["h1"]["met"] is True
        assert doc["spec"]["target"] == 0.9


HIST_KEYS = [("h1", "read", "d0"), ("h1", "write", "d0"),
             ("h2", "read", "d0"), ("h2", "read", "d1")]


class TestTouchedBucketWindows:
    """The sampler's per-tick sources read only what a tick changed;
    what they export is what the snapshot-diff reference computes."""

    @given(steps=st.lists(st.one_of(
        st.just(("tick",)),
        st.tuples(st.just("io"), st.sampled_from(HIST_KEYS),
                  st.integers(0, 400_000), st.booleans())), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_ticks_match_the_snapshot_diff_reference(self, steps):
        tele = Telemetry(Simulator())
        hists = tele.enable_histograms()
        engine = tele.enable_slo(SloSpec(objective_ns=100_000))
        bank = tele.sampler.bank
        snaps, expected, now = {}, {}, 0
        for step in steps + [("tick",)]:
            if step[0] == "io":
                hists.record_io(*step[1], step[2], ok=step[3])
                continue
            now += 100
            counters = {}
            for key in hists.keys():
                hist = hists.hist(*key)
                good, total = counters.get(key[0], (0, 0))
                counters[key[0]] = (
                    good + (hist.rank_le(100_000) if hist else 0),
                    total + sum(hists.totals(key)))
                if hist is None:
                    continue            # errors only: no latency series
                window = hist.diff(snaps[key]) if key in snaps else hist
                assert sorted(hist.recent.items()) == window.buckets()
                if window.count:        # an empty window emits nothing
                    for q, label in QUANTILES:
                        expected.setdefault((label, key), []).append(
                            (now, window.quantile(q)))
                snaps[key] = hist.copy()
            assert engine._tenant_counters() == counters    # window open
            tele._sample_hists(bank, now)
            assert engine._tenant_counters() == counters    # and cut
            engine.sample(bank, now)
            for tenant, (good, total) in counters.items():
                assert engine._tenants[tenant].samples[-1] == (
                    now, good, total)
        for (label, (tenant, op, device)), points in expected.items():
            assert bank.get(f"latency_{label}_ns", tenant=tenant, op=op,
                            device=device).points() == points
        assert sum(ts.name.startswith("latency_")
                   for ts in bank.all_series()) == len(expected)

    @staticmethod
    def _scan_burn(samples, now, window_ns, budget):
        """``_window_burn`` as it was at 83442b1: the baseline found by
        scanning the tenant's whole history from its oldest sample."""
        cutoff = now - window_ns
        base = samples[0]
        for sample in samples:
            if sample[0] > cutoff:
                break
            base = sample
        last = samples[-1]
        good = last[1] - base[1]
        total = last[2] - base[2]
        if total <= 0:
            return 0.0, 0
        return ((total - good) / total) / budget, total

    def test_burn_windows_cost_the_same_at_tick_50_and_tick_5000(self):
        """The window baselines move forward with the clock: a tick does
        not re-read the (up to 4096-sample) history, and what it reports
        is what the scan reports — also once the history evicts."""
        engine, hists = _engine(fast_window_ns=700, slow_window_ns=450_000)
        spec = engine.spec
        bank = SeriesBank()
        calls = {}
        for tick in range(5001):
            now = tick * 100
            hists.record_io("h1", "read", "d0", 50 if tick % 7 else 5000,
                            ok=tick % 11 != 0)
            if tick in (50, 5000):
                calls[tick] = cost(lambda: engine.sample(bank, now))[0]
            else:
                engine.sample(bank, now)
            samples = engine._tenants["h1"].samples
            for name, window_ns in (("slo_burn_fast", spec.fast_window_ns),
                                    ("slo_burn_slow", spec.slow_window_ns)):
                burn, _n = self._scan_burn(samples, now, window_ns,
                                           spec.budget)
                assert bank.get(name, slo="slo", tenant="h1").last == (
                    now, round(burn, 6)), (tick, name)
        assert len(samples) == 4096         # the history did evict
        assert calls[50] == calls[5000]
        report = engine.report()["tenants"]["h1"]
        assert (report["good"], report["total"]) == samples[-1][1:]
        assert report["alerts"]


# --- the acceptance story ------------------------------------------------

KILL_WINDOW_NS = 3_000_000     # alert must fire within 3 ms of the kill


def kill_run(observe=("spans", "slo"), **shape):
    """Four tenants, the last device stalled for good 1 ms in, watched
    for 6 ms (docs/observability.md)."""
    return run(RunSpec("cluster", clients=4, rw="randrw", iodepth=4,
                       ios=400, seed=7, faults="kill", observe=observe,
                       **shape))


@pytest.fixture(scope="module")
def slo_run():
    """Default (width-1) run: the kill becomes a sustained error burn."""
    return kill_run()


@pytest.fixture(scope="module")
def slo_run_replicated():
    """Replicated run: the kill becomes a failover latency spike."""
    return kill_run(devices=3, width=2, replicas=2)


def _p99_peaks(run):
    """Tenant -> peak of its windowed p99 series (max over devices)."""
    peaks = {}
    for ts in run.telemetry.sampler.bank.all_series():
        if ts.name != "latency_p99_ns":
            continue
        tenant = dict(ts.labels)["tenant"]
        peaks[tenant] = max(peaks.get(tenant, 0), max(ts.values()))
    return peaks


class TestDeviceKillAcceptance:
    def test_victims_alert_inside_kill_window(self, slo_run):
        report = slo_run.report
        assert slo_run.killed == "ctrl:nvme1"
        assert report["alerts"], "device kill fired no burn-rate alert"
        for alert in report["alerts"]:
            assert slo_run.kill_at_ns < alert["fired_at_ns"] \
                <= slo_run.kill_at_ns + KILL_WINDOW_NS

    def test_victim_and_bystander_tenant_split(self, slo_run):
        report = slo_run.report
        alerted = {a["tenant"] for a in report["alerts"]}
        assert alerted == set(slo_run.victims)
        for tenant, info in report["tenants"].items():
            if tenant in alerted:
                assert not info["met"]
                assert info["alerts"]
            else:
                assert info["met"]
                assert info["compliance"] == 1.0
                assert not info["alerts"]

    def test_replicated_victim_p99_series_spikes(self, slo_run_replicated):
        # With replicas=2 a victim's reads fail over and its writes
        # degrade: slow *successes* that blow the latency objective and
        # spike the windowed p99 series, while bystanders stay calm.
        run = slo_run_replicated
        objective = run.report["spec"]["objective_ns"]
        assert run.victims
        peaks = _p99_peaks(run)
        for tenant, peak in peaks.items():
            if tenant in run.victims:
                assert peak > objective, (tenant, peak)
            else:
                assert peak <= objective, (tenant, peak)

    def test_replicated_victims_stay_errorfree_but_degraded(
            self, slo_run_replicated):
        run = slo_run_replicated
        report = run.report
        # Failover kept every request succeeding (no NO_PATH burn)...
        for tenant, info in report["tenants"].items():
            assert info["good"] <= info["total"]
            if tenant not in run.victims:
                assert info["compliance"] == 1.0
        # ...but victim writes landed on fewer replicas than configured.
        m = run.telemetry.metrics
        degraded = sum(
            m.get("repro_cluster_degraded_writes_total", volume=v) or 0
            for v in ("vol0", "vol1", "vol2", "vol3"))
        assert degraded > 0

    def test_timeline_has_live_path_drop(self, slo_run):
        bank = slo_run.telemetry.sampler.bank
        drops = [ts for ts in bank.all_series()
                 if ts.name == "cluster_paths_live"
                 and ts.values()[0] == 1 and ts.values()[-1] == 0]
        # Width-1 volumes on the killed device lose their only path.
        assert len(drops) == 2

    def test_exports_are_byte_identical_across_runs(self, slo_run):
        again = kill_run()
        assert slo_run.timeseries_jsonl() == again.timeseries_jsonl()
        assert slo_run.slo_report_json() == again.slo_report_json()
        assert slo_run.prometheus_text() == again.prometheus_text()
        assert slo_run.perfetto_json() == again.perfetto_json()

    def test_perfetto_export_has_counter_tracks(self, slo_run):
        doc = json.loads(slo_run.perfetto_json())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert any(n.startswith("slo_burn_fast") for n in names)
        meta = [e for e in doc["traceEvents"]
                if e["ph"] == "M" and e["pid"] == counters[0]["pid"]]
        assert meta and meta[0]["args"]["name"] == "telemetry counters"

    def test_prometheus_export_has_tenant_histograms(self, slo_run):
        text = slo_run.prometheus_text()
        assert "# TYPE repro_io_latency_hist_ns histogram" in text
        assert 'tenant="host2"' in text
        assert 'le="+Inf"' in text
        assert "repro_io_tenant_errors_total" in text


class TestZeroPerturbation:
    def test_instrumentation_leaves_model_bit_identical(self):
        # The tentpole determinism contract: the sampler adds timeout
        # events but only ever *reads* state, ShareSan and the span
        # marks likewise — so a run is I/O for I/O the same run with
        # every observer on, whatever the rig and whatever goes wrong.
        def model(done):
            devices = done.rig.clients
            return ([dev.latencies.values().tolist() for dev in devices],
                    [dev.completed for dev in devices],
                    [dev.errors for dev in devices], done.rig.sim.now)

        for spec in (
                RunSpec("cluster", clients=4, rw="randrw", iodepth=4,
                        ios=400, seed=7, faults="kill"),
                RunSpec("chaos", clients=3, rw="randrw", iodepth=4,
                        ios=200, seed=42, faults="random"),
                RunSpec("noisy", seed=7, horizon_ns=1_000_000)):
            watched = run(dataclasses.replace(
                spec, observe={"spans", "slo", "sanitize"}))
            assert model(run(spec)) == model(watched), spec.scenario
            assert watched.sanitizer.clean, watched.sanitizer.findings
            assert watched.telemetry.sampler.ticks > 2
            if spec.faults != "none":       # the faults did bite
                assert sum(path.timeouts
                           for path in watched.rig.subclients) > 0


class TestSamplerInterval:
    def test_interval_reaches_the_sampler_through_the_spec(self):
        # At 65c7b56 enable_slo created the sampler at the hub's 1 ms
        # and the later enable_sampler(interval_ns=...) returned it
        # unchanged: every interval gave the same 1 ms time series.
        def ticks(interval_ns):
            done = run(RunSpec("cluster", clients=2, rw="randrw",
                               iodepth=4, ios=100, seed=7,
                               observe={"slo"}, horizon_ns=2_000_000,
                               interval_ns=interval_ns))
            sampler = done.telemetry.sampler
            assert sampler.interval_ns == interval_ns
            return sampler.ticks

        assert ticks(200_000) == 11 and ticks(50_000) == 41

    def test_call_order_cannot_matter(self):
        from repro.telemetry import Telemetry
        tele = Telemetry(Simulator(seed=1))
        tele.enable_slo()
        sampler = tele.enable_sampler(interval_ns=250_000)
        assert sampler.interval_ns == 250_000
        tele.enable_sampler()                       # no opinion: fine
        with pytest.raises(ValueError, match="already started"):
            tele.enable_sampler(interval_ns=100_000)
