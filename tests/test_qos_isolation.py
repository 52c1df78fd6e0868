"""Noisy-neighbour isolation regression (docs/qos.md).

One aggressor floods its window of a single shared QP while three
bystanders offer a modest open-loop rate.  The claims under test:

* ``wfq`` + admission throttling keep every bystander 100 %
  SLO-compliant and fire burn-rate alerts for the aggressor *only*,
  with the throttle clamping the aggressor alone;
* ``fifo`` demonstrably fails the same test — every bystander breaches
  the SLO and alerts — so the isolation claim is non-vacuous;
* the whole story replays bit-identically under ShareSan.

The bystanders' tail latency quantifies it (within 1.5x their solo p99
under wfq+throttle, beyond 5x under fifo): those are rows of the
fidelity table's ``qos`` experiment, whose runs, made once per session,
are the fixtures here.
"""

import re
import types

import pytest

from repro.config import QosConfig
from repro.qos import AdmissionThrottle, run_qos
from repro.run import RunSpec
from repro.run import run as run_spec
from repro.scenarios import cluster

from .test_fidelity import qos_runs

SEED = 7


@pytest.fixture(scope="module", autouse=True)
def _release_runs():
    """The runs keep their rigs: every full collection of the rest of
    the session would walk them."""
    yield
    qos_runs.cache_clear()


@pytest.fixture(scope="module")
def fifo():
    return qos_runs()["fifo"]


@pytest.fixture(scope="module")
def wfq():
    return qos_runs()["wfq"]


@pytest.fixture(scope="module")
def wfq_throttle():
    return qos_runs()["wfq+throttle"]


class TestWfqThrottleIsolates:
    def test_bystanders_fully_compliant(self, wfq_throttle):
        for tenant in wfq_throttle.bystanders:
            info = wfq_throttle.report["tenants"][tenant]
            assert info["met"], f"{tenant} missed the SLO"
            assert info["compliance"] == 1.0, (
                f"{tenant} not 100% compliant: {info['compliance']}")

    def test_only_aggressor_alerts(self, wfq, wfq_throttle):
        for run in (wfq, wfq_throttle):
            assert run.tenant_alerts(run.aggressor), \
                "aggressor fired no burn-rate alert"
            for tenant in run.bystanders:
                assert not run.tenant_alerts(tenant), \
                    f"bystander {tenant} alerted under {run.policy}"

    def test_throttle_clamps_only_the_aggressor(self, wfq_throttle):
        report = wfq_throttle.throttle_report
        assert report["enabled"]
        assert report["throttles_applied"] >= 1
        assert report["clamped"] == [wfq_throttle.aggressor]

    def test_throttled_counts_submissions_not_wakeups(self, wfq_throttle):
        """Every completion wakes the whole parked herd; a submission
        that loses the re-check and parks again is still one throttled
        submission, so the counter cannot exceed the I/Os issued."""
        counts = {tenant: int(float(value)) for tenant, value in re.findall(
            r'^repro_client_throttled_total\{[^}]*tenant="([^"]+)"\} (\S+)$',
            wfq_throttle.prometheus_text(), re.M)}
        assert set(counts) == {wfq_throttle.aggressor}
        assert 0 < counts[wfq_throttle.aggressor] \
            <= wfq_throttle.results[0].issued

    def test_aggressor_throughput_actually_cut(self, wfq,
                                               wfq_throttle):
        """The clamp is real: the throttled aggressor lands far fewer
        I/Os per second than the unthrottled wfq run."""
        free = wfq.results[0]
        clamped = wfq_throttle.results[0]
        assert free is not None and clamped is not None
        assert clamped.achieved_iops < 0.7 * free.achieved_iops


class TestFifoFailsToIsolate:
    """The inverse assertions — without them the wfq test would pass
    vacuously on a workload too gentle to hurt anyone."""

    def test_every_bystander_breaches_and_alerts(self, fifo):
        for tenant in fifo.bystanders:
            info = fifo.report["tenants"][tenant]
            assert not info["met"], (
                f"{tenant} met the SLO under fifo — the aggressor "
                f"isn't aggressive enough to make the test meaningful")
            assert fifo.tenant_alerts(tenant), \
                f"bystander {tenant} fired no alert under fifo"


class TestIsolationRatios:
    def test_all_traffic_served(self, fifo, wfq, wfq_throttle):
        """Isolation is not starvation: every issued I/O completes,
        error-free, under every policy."""
        for run in (fifo, wfq, wfq_throttle):
            for result in run.results:
                assert result is not None
                assert result.completed == result.issued
                assert result.errors == 0


class TestPolicyOnAnyRig:
    """``policy=`` and the throttle are the rig's QoS config, not the
    noisy rig's privilege."""

    def test_scale_out_arbitrates_under_the_named_policy(self):
        done = run_spec(RunSpec("scale-out", clients=40, ios=10,
                                policy="wfq", observe={"spans"}))
        grants = re.findall(r'^repro_qos_grants_total\{.*policy="(\w+)".*'
                            r'\} (\d+)$', done.prometheus_text(), re.M)
        assert {policy for policy, _n in grants} == {"wfq"}
        # 27 private queue pairs, then 13 tenants on the shared reserve
        assert sum(int(n) for _policy, n in grants) == 13 * 10

    @pytest.mark.parametrize("spec", [
        RunSpec("multihost", policy="wfq"),         # 4 private QPs
        RunSpec("ours-remote", policy="off"),
    ], ids=["multihost", "ours-remote"])
    def test_a_rig_without_a_shared_sq_refuses_a_policy(self, spec):
        with pytest.raises(ValueError, match="built none"):
            run_spec(spec)

    def test_throttle_clamps_every_path_of_a_tenant(self):
        """A cluster host reaches each member of its volume through a
        path client of its own; the clamp covers all of them."""
        rig = cluster(n_clients=2, n_devices=2, width=2, seed=3)

        class OneTenantAlerts:
            def alerts_for(self, tenant):
                return [types.SimpleNamespace(active=tenant == "host2")]

        throttle = AdmissionThrottle(rig.sim, QosConfig(throttle_window=2),
                                     OneTenantAlerts())
        throttle.attach(rig.subclients)
        assert {tenant: len(paths)
                for tenant, paths in throttle.clients.items()} \
            == {"host2": 2, "host3": 2}
        throttle.start()
        rig.sim.run(until=rig.sim.timeout(300_000))
        throttle.stop()
        assert throttle.report()["clamped"] == ["host2"]
        assert [path.qos_window for path in rig.subclients] \
            == [2, 2, None, None]


class TestShareSanReplay:
    def test_sanitized_run_bit_identical_and_clean(self):
        def digest():
            run = run_qos("wfq", throttle=True, seed=SEED,
                          horizon_ns=2_000_000, sanitizer=True)
            return (run.prometheus_text(), run.timeseries_jsonl(),
                    run.slo_report_json())

        first = digest()
        assert first == digest()

    def test_sanitizer_reports_no_findings(self):
        from repro.scenarios import noisy_neighbor
        from repro.workloads import OpenLoopJob, run_open_loop_many

        sc = noisy_neighbor(policy="wfq", seed=SEED, sanitizer=True)
        jobs = [OpenLoopJob(name=f"t{i}", rate_iops=30_000.0,
                            total_arrivals=40)
                for i in range(len(sc.clients))]
        run_open_loop_many(list(zip(sc.clients, jobs)))
        assert sc.sanitizer is not None
        assert sc.sanitizer.findings == []
