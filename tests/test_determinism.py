"""End-to-end determinism: identical seeds must give bit-identical
results, independent of object identities (``id()`` ordering) and
process state.  Guards the reproducibility claim in EXPERIMENTS.md."""

import numpy as np

from repro.config import DEFAULT_CONFIG, QosConfig, replace
from repro.faults import FaultEvent, FaultPlan
from repro.scenarios import (FIG10_SCENARIOS, build_fig10_scenario,
                             chaos_cluster, cluster, multihost,
                             nvmeof_remote, ours_local, ours_remote,
                             scale_out_cluster)
from repro.sim import Tracer
from repro.sim.rng import RngRegistry
from repro.workloads import FioJob, fio_generator, run_fio, run_fio_many


class TestScenarioDeterminism:
    def test_ours_remote_identical_latency_series(self):
        def run(seed):
            scenario = ours_remote(seed=seed)
            result = run_fio(scenario.device,
                             FioJob(rw="randrw", total_ios=150))
            return (result.read_latencies.values().tolist(),
                    result.write_latencies.values().tolist())

        assert run(1234) == run(1234)
        assert run(1234) != run(1235)

    def test_nvmeof_identical_latency_series(self):
        def run(seed):
            scenario = nvmeof_remote(seed=seed)
            result = run_fio(scenario.device,
                             FioJob(rw="randread", total_ios=100))
            return result.read_latencies.values().tolist()

        assert run(77) == run(77)

    def test_multihost_contention_is_deterministic(self):
        """Contention paths (shared links, media channels, canonical
        lock ordering) must not depend on object ids."""

        def run():
            scenario = multihost(3, seed=555, queue_depth=4)
            jobs = [(c, FioJob(name=f"j{i}", rw="randread", iodepth=4,
                               total_ios=120, region_lbas=1 << 20))
                    for i, c in enumerate(scenario.clients)]
            results = run_fio_many(jobs)
            return [r.read_latencies.values().tolist() for r in results]

        first = run()
        second = run()
        assert first == second


class TestSharedQpDeterminism:
    """The 64-client shared-QP scale-out replays bit-identically — the
    arbitration order on the shared SQs, the mailbox demux, and every
    exported telemetry byte are functions of the seed alone."""

    def _run(self):
        scn = scale_out_cluster(64, seed=909, queue_depth=4,
                                telemetry=True)
        jobs = [(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=10, seed_stream=f"fio{i}"))
                for i, c in enumerate(scn.clients)]
        results = run_fio_many(jobs)
        assert all(r.ios == 10 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        return tele.prometheus_text(), tele.perfetto_json()

    def test_telemetry_bytes_identical_across_runs(self):
        first = self._run()
        second = self._run()
        assert first == second
        assert "repro_qp_tenants" in first[0]

    def test_route_cache_off_changes_nothing(self, monkeypatch):
        """The route cache is a pure-perf memo: disabling it must not
        perturb a single exported byte (see tests/test_perf_caches.py
        for the private-QP equivalent)."""
        baseline = self._run()
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
        assert self._run() == baseline


class TestQosDeterminism:
    """Every shared SQ fetches through an arbiter: the default config is
    the ``off`` policy to the byte, and a weighted, throttled run is a
    pure function of the seed."""

    def _digest(self, config=None, seed=606):
        scn = multihost(4, config=config, seed=seed, queue_depth=4,
                        sharing="force", telemetry=True)
        jobs = [(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=15, seed_stream=f"fio{i}"))
                for i, c in enumerate(scn.clients)]
        results = run_fio_many(jobs)
        assert all(r.ios == 15 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        series = [r.read_latencies.values().tolist() for r in results]
        return (tele.prometheus_text(), tele.perfetto_json()), series

    def test_default_config_is_the_off_policy(self):
        """Round-robin is a policy, not the absence of one: the default
        config and ``policy="off"`` (whatever the weighted policies'
        knobs say) export the same bytes, grants included."""
        off = replace(DEFAULT_CONFIG, qos=QosConfig(
            policy="off", quantum=9, weights=(3, 1)))
        baseline_bytes, baseline_series = self._digest()
        off_bytes, off_series = self._digest(config=off)
        assert off_bytes == baseline_bytes
        assert off_series == baseline_series
        assert 'repro_qos_grants_total{ctrl="nvme0",policy="off"' \
            in baseline_bytes[0]

    def test_enabled_qos_run_is_seed_deterministic(self):
        from repro.qos import run_qos

        def digest(seed):
            run = run_qos("wfq", throttle=True, seed=seed,
                          horizon_ns=2_000_000)
            return (run.prometheus_text(), run.timeseries_jsonl(),
                    run.slo_report_json(), run.perfetto_json())

        first = digest(31)
        assert first == digest(31)
        assert "repro_qos_grants_total" in first[0]
        assert digest(32) != first


class TestClusterDeterminism:
    """Multi-device cluster runs fall under the same bit-identical
    discipline: placement, striping, multipath retries and every
    exported telemetry byte are functions of the seed alone."""

    def _digest(self, seed=777, sanitizer=False):
        scn = cluster(n_clients=8, n_devices=2, width=2, replicas=2,
                      seed=seed, queue_depth=4, telemetry=True,
                      sanitizer=sanitizer)
        jobs = [(vol, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                             total_ios=12, seed_stream=f"fio{i}"))
                for i, vol in enumerate(scn.volumes)]
        results = run_fio_many(jobs)
        assert all(r.ios == 12 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        series = [r.read_latencies.values().tolist() for r in results]
        return (tele.prometheus_text(), tele.perfetto_json()), series

    def test_cluster_digest_identical_across_runs(self):
        first_bytes, first_series = self._digest()
        second_bytes, second_series = self._digest()
        assert first_bytes == second_bytes
        assert first_series == second_series
        assert "repro_cluster_paths_live" in first_bytes[0]
        assert self._digest(seed=778)[1] != first_series

    def test_sanitizer_is_zero_perturbation_on_cluster(self):
        on_bytes, on_series = self._digest(sanitizer=True)
        off_bytes, off_series = self._digest(sanitizer=False)
        assert on_bytes == off_bytes
        assert on_series == off_series

    KILL = FaultPlan((FaultEvent(150_000, "ctrl_stall", "ctrl:nvme1",
                                 duration_ns=0),))

    def _chaos_trace(self, seed):
        scn = cluster(n_clients=3, n_devices=2, width=2, replicas=2,
                      seed=seed, queue_depth=4, faults=True,
                      plan=self.KILL)
        scn.injector.start()
        procs = [scn.sim.process(fio_generator(
            vol, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                        total_ios=80, seed_stream=f"fio{i}")))
            for i, vol in enumerate(scn.volumes)]
        scn.sim.run(until=scn.sim.timeout(500_000_000))
        assert all(p.triggered for p in procs)
        return scn.trace_log()

    def test_device_kill_replay_is_bit_identical(self):
        first = self._chaos_trace(881)
        assert first == self._chaos_trace(881)
        assert any(r[1] == "cluster" for r in first)    # failover seen
        assert first != self._chaos_trace(882)


class TestChaosDeterminism:
    """A ``(seed, plan)`` pair fully determines a chaos run — faults,
    retries, lease reclaims, everything in the trace."""

    PLAN = FaultPlan((
        FaultEvent(200_000, "link_down", "link:host2",
                   duration_ns=500_000),
        FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
                   duration_ns=800_000),
    ))

    def _trace(self, seed):
        sc = chaos_cluster(n_clients=3, plan=self.PLAN, seed=seed)
        sc.injector.start()
        procs = [sc.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=150, seed_stream=f"fio{i}")))
            for i, client in enumerate(sc.clients)]
        sc.sim.run(until=sc.sim.timeout(100_000_000))
        assert all(p.triggered for p in procs)
        return sc.trace_log()

    def test_same_seed_and_plan_replay_bit_identical(self):
        first = self._trace(321)
        second = self._trace(321)
        assert first == second
        assert any(r[1] == "fault" for r in first)      # faults fired
        assert first != self._trace(322)

    def test_random_plan_schedule_depends_only_on_seed(self):
        def make(seed):
            return FaultPlan.random(
                RngRegistry(seed), "chaos", horizon_ns=5_000_000,
                link_points=["link:a", "link:b"],
                ctrl_points=["ctrl:n"], client_points=["client:c"],
                n_events=12, kill_at_most=1)

        assert make(11) == make(11)
        assert make(11) != make(12)


#: (I/Os, sum of latency ns, sum of sim.now) at commit b92ccd6
GOLDEN_FIG10 = (480, 7624426, 25172929)
GOLDEN_MH4_RANDREAD = (400, 18059860, 3139478)
GOLDEN_MH4_RW64K = (128, 70511577, 5498250)
GOLDEN_NOISY = (1711, 3842353994, 9530779)
#: (ns after the first delivery, 4-KiB page index) per data TLP of two
#: overlapping 64 KiB reads, in delivery order, at commit b92ccd6
GOLDEN_TRAIN = [
    (0, 0), (1437, 1), (2817, 2), (4248, 3), (5686, 4),
    (7098, 5), (8431, 6), (9882, 7), (11303, 8), (12678, 9),
    (14128, 10), (15483, 11), (16909, 12), (18322, 13), (19770, 14),
    (21166, 15), (22578, 33), (23989, 34), (25409, 35), (26778, 36),
    (28215, 37), (29593, 38), (31059, 39), (32475, 40), (33809, 41),
    (35258, 42), (36651, 43), (38122, 44), (39477, 45), (40917, 46),
    (42276, 47), (43705, 48),
]
#: ``sim.events_processed`` of the same pinned runs at commit 816cc9c.
#: Unlike the constants above these *may* move — but only in a change
#: that says so: an optimisation that drops events edits them in its own
#: diff, and any other change must reproduce them, so an accidental
#: reordering or extra event in the fabric's one write path and one
#: read path fails here, not only in the benchmark ledger.
#:
#: The two runs with 64 KiB reads changed when the controller's data
#: DMA became one ``Fabric.post_writes`` burst whose queued members
#: share a boot event (n queued members: n boots -> 1):
#:
#: * ``mh4-rw64k``: 96 reads of 16 segments each; in 95 every segment
#:   queues (-15 each), in the first one segment 0 finds the links free
#:   (-14): 21245 - 95 * 15 - 14 = 19806.
#: * ``train``: the first read's segment 0 goes inline (-14), the second
#:   read queues whole (-15): 674 - 29 = 645.
#:
#: ``fig10`` moved when the InfiniBand wire began holding its directions
#: through a ``HoldPlan``: the grant event of each uncontended transfer
#: is gone, 2.5 transfers per NVMe-oF I/O over its 120 I/Os:
#: 24493 - 300 = 24193.
#:
#: ``noisy`` moved when an open-loop completion became a callback on the
#: block layer's done event: the per-arrival completer process and its
#: two events (boot, end) are gone, over its 1711 arrivals:
#: 85801 - 2 * 1711 = 82379.
#:
#: All five moved when ends nobody observes stopped being queued (rule
#: 1): every admin command's end (``Record._end``), the second,
#: hand-pushed end event of every RDMA remote stage, and the end of the
#: controller's enable delay (``_enable``, now a detached process), one
#: per controller brought up:
#:
#: * ``fig10``: 28 admin commands and 8 enables over the eight legs'
#:   bring-ups, and 300 remote stages on the two NVMe-oF legs (3 WQEs
#:   per read, 2 per write, 60 I/Os each): 24193 - 28 - 8 - 300 = 23857.
#: * ``mh4-randread``, ``mh4-rw64k``: 10 admin commands and 1 enable
#:   each: 18812 - 11 = 18801, 19806 - 11 = 19795.
#: * ``noisy``: 4 admin commands, 1 enable: 82379 - 5 = 82374.
#: * ``train``: 4 admin commands, 1 enable: 645 - 5 = 640.
GOLDEN_EVENTS = {"fig10": 23857, "mh4-randread": 18801, "mh4-rw64k": 19795,
                 "noisy": 82374, "train": 640}
#: (I/Os, sum of latency ns, sim.now, events_processed) of one run per
#: cluster bring-up that had no value golden, at commit 65c7b56 — taken
#: before the four bring-up bodies became one (with the hooks each of
#: them wires switched on, so a changed attach order shows here).  The
#: event counts fell by the ends of the admin commands and of each
#: controller's enable delay (as for ``GOLDEN_EVENTS``): chaos
#: 58754 - 8 - 1 = 58745, cluster-kill (two controllers)
#: 64246 - 36 - 2 = 64208, scale-out 40673 - 62 - 1 = 40610,
#: multihost-device-host 7055 - 8 - 1 = 7046, ours-local
#: 3724 - 4 - 1 = 3719, ours-remote 4560 - 4 - 1 = 4555.
GOLDEN_RIGS = {
    "chaos": (450, 32592763, 402446776, 58745),
    "cluster-kill": (480, 311705306, 56001746, 64208),
    "scale-out": (640, 189175012, 6852208, 40610),
    "multihost-device-host": (150, 2744057, 2688964, 7046),
    "ours-local": (100, 1462228, 2588877, 3719),
    "ours-remote": (100, 1636023, 2641068, 4555),
}
#: a link cut, TLP drops and a controller stall
CHAOS_PLAN = FaultPlan((
    FaultEvent(200_000, "link_down", "link:host2", duration_ns=500_000),
    FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
               duration_ns=800_000),
    FaultEvent(900_000, "ctrl_stall", "ctrl:nvme0", duration_ns=300_000)))


def run_chaos(ios: int = 150):
    """``GOLDEN_RIGS["chaos"]``'s run: :data:`CHAOS_PLAN` against three
    clients x ``ios`` randrw at seed 321, recovery on.  Returns the
    rig."""
    scn = chaos_cluster(3, plan=CHAOS_PLAN, seed=321)
    scn.injector.start()
    for i, client in enumerate(scn.clients):
        scn.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=ios, seed_stream=f"fio{i}")))
    scn.sim.run(until=scn.sim.timeout(400_000_000))
    return scn


class TestGoldenModeledOutput:
    """Run-vs-run digests cannot see a kernel or fabric change that
    shifts *every* run the same way.  These constants were captured at
    commit b92ccd6 (before link holds became counted and callback-less
    events were dropped): a host-time optimisation must reproduce them
    to the nanosecond — only event counts may move (see
    docs/performance.md, "Order preservation")."""

    @staticmethod
    def _sums(sims, devices):
        """(I/Os, sum of latency ns, sum of sim.now) — the ledger
        digest without its event count."""
        return (sum(dev.completed for dev in devices),
                sum(int(dev.latencies.values().sum()) for dev in devices),
                sum(sim.now for sim in sims))

    def _multihost(self, rws, bs, ios):
        scn = multihost(len(rws), seed=404, queue_depth=16)
        results = run_fio_many([
            (client, FioJob(name=f"mh{i}", rw=rw, bs=bs, iodepth=8,
                            total_ios=ios, region_lbas=1 << 20))
            for i, (client, rw) in enumerate(zip(scn.clients, rws))])
        assert all(r.errors == 0 for r in results)
        return self._sums([scn.sim], scn.clients), scn.sim.events_processed

    def test_fig10_legs(self):
        legs = [(op, name) for op in ("read", "write")
                for name in FIG10_SCENARIOS]
        scns = [build_fig10_scenario(name, seed=404 + i)
                for i, (_op, name) in enumerate(legs)]
        for (op, _name), scn in zip(legs, scns):
            run_fio(scn.device, FioJob(rw=f"rand{op}", total_ios=60))
        assert self._sums([s.sim for s in scns],
                          [s.device for s in scns]) == GOLDEN_FIG10
        assert sum(s.sim.events_processed for s in scns) \
            == GOLDEN_EVENTS["fig10"]

    def test_multihost_randread(self):
        assert self._multihost(("randread",) * 4, 4096, 100) \
            == (GOLDEN_MH4_RANDREAD, GOLDEN_EVENTS["mh4-randread"])

    def test_multihost_rw64k(self):
        assert self._multihost(("randread",) * 3 + ("randwrite",),
                               65536, 32) \
            == (GOLDEN_MH4_RW64K, GOLDEN_EVENTS["mh4-rw64k"])

    def test_noisy_neighbour(self):
        from repro.qos import run_qos
        run = run_qos("wfq", throttle=True, seed=31, horizon_ns=1_500_000)
        lat = [r.latencies.values() for r in run.results]
        assert (sum(len(v) for v in lat), sum(int(v.sum()) for v in lat),
                run.telemetry.sim.now) == GOLDEN_NOISY
        assert run.telemetry.sim.events_processed == GOLDEN_EVENTS["noisy"]

    def test_contended_tlp_train_delivery_trace(self):
        """Two 64 KiB reads in flight at once: each is a train of 16
        4-KiB posted writes issued at one instant (``post_writes``), so
        all but the first TLP queue for the device's uplink (the
        contended branch of ``post_write``) and the second train queues
        behind the first.
        Delivery instants *and* order are pinned."""
        scn = ours_remote(seed=404)
        tracer = Tracer(scn.sim, categories={"pcie"})
        scn.sim.probe.subscribe(tracer)
        run_fio(scn.device, FioJob(rw="read", bs=65536, iodepth=2,
                                   total_ios=2))
        train = [(r.time_ns, r.payload["final"]) for r in tracer.records
                 if r.message == "write-delivered"
                 and r.payload["size"] == 4096]
        assert len(train) == 32
        base_t, base_a = train[0]
        assert [(when - base_t, (final - base_a) // 4096)
                for when, final in train] == GOLDEN_TRAIN
        assert scn.sim.events_processed == GOLDEN_EVENTS["train"]

    @staticmethod
    def _rig_sums(sim, devices):
        return (sum(dev.completed for dev in devices),
                sum(int(dev.latencies.values().sum()) for dev in devices),
                sim.now, sim.events_processed)

    def test_chaos_cluster_fixed_plan(self):
        """:func:`run_chaos`, the run whose calls
        tests/test_recovery.py::TestChaosCost pins."""
        scn = run_chaos()
        assert self._rig_sums(scn.sim, scn.clients) == GOLDEN_RIGS["chaos"]
        assert len(scn.trace_log()) == 16661
        assert (sum(c.retries for c in scn.clients),
                sum(c.timeouts for c in scn.clients)) == (5, 5)

    def test_cluster_device_kill(self):
        scn = cluster(n_clients=8, n_devices=2, width=2, replicas=2,
                      seed=777, faults=True, telemetry=True)
        scn.injector.plan = FaultPlan((FaultEvent(
            300_000, "ctrl_stall", scn.ctrl_points()[-1], duration_ns=0),))
        scn.injector.start()
        for i, vol in enumerate(scn.volumes):
            scn.sim.process(fio_generator(
                vol, FioJob(name=f"v{i}", rw="randrw", iodepth=4,
                            total_ios=60, seed_stream=f"fio{i}")))
        scn.sim.run(until=scn.sim.timeout(50_000_000))
        assert self._rig_sums(scn.sim, scn.volumes) \
            == GOLDEN_RIGS["cluster-kill"]
        assert len(scn.trace_log()) == 15721
        assert sum(vol.errors for vol in scn.volumes) == 0

    def test_scale_out_under_sharesan(self):
        scn = scale_out_cluster(64, seed=909, queue_depth=4,
                                telemetry=True, sanitizer=True)
        run_fio_many([(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                                 total_ios=10, seed_stream=f"fio{i}"))
                      for i, c in enumerate(scn.clients)])
        assert self._rig_sums(scn.sim, scn.clients) \
            == GOLDEN_RIGS["scale-out"]
        assert scn.sanitizer.clean, scn.sanitizer.findings

    def test_multihost_with_device_host_client(self):
        scn = multihost(3, seed=5, include_device_host=True,
                        telemetry=True)
        run_fio_many([(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                                 total_ios=50))
                      for i, c in enumerate(scn.clients)])
        assert self._rig_sums(scn.sim, scn.clients) \
            == GOLDEN_RIGS["multihost-device-host"]

    def test_ours_local_and_remote_with_telemetry(self):
        for build in (ours_local, ours_remote):
            scn = build(seed=5, telemetry=True)
            run_fio(scn.device, FioJob(rw="randrw", iodepth=4,
                                       total_ios=100))
            assert self._rig_sums(scn.sim, [scn.device]) \
                == GOLDEN_RIGS[scn.label]


class TestNoUnobservedEnd:
    """Tripwire for ``Record._end``: the loops and commands nobody waits
    on end on the spot instead of queueing an event no one observes.
    Four Fig. 10 legs and a shared-QP multihost rig run a few I/Os and
    are torn down — every notice loop interrupted, the initiator's
    reaping stopped, every controller reset, so that each fetch loop
    ends — with every run driven through ``Simulator.step()``, and each
    event dispatched with no callback is counted by class."""

    #: what ends on the spot (``_RemoteStage._timer``: the owned timer
    #: of a remote stage, once pushed as a second, empty end)
    ENDED_ON_THE_SPOT = {"AdminCommand", "_Fetch", "_SharedFetch",
                         "_Poll", "_Irq", "_Responses",
                         "_RemoteStage._timer"}
    #: what may still be dispatched with no callback, and why
    PINNED = {
        "_RemoteStage": "a remote stage's end is the QP's chain event: "
                        "the next stage may subscribe until it is "
                        "dispatched, so it is always queued",
    }

    @staticmethod
    def _drive(monkeypatch):
        """Patch the kernel and the record factories; returns the count
        of empty dispatches by class and the records started."""
        from repro.driver.qpair import QueuePair
        from repro.nvme import controller
        from repro.nvmeof import initiator
        from repro.rdma import nic
        from repro.sim import Event, Simulator

        empty = {}
        started = []
        timers = set()

        def run(sim, until=None):
            if isinstance(until, Event):
                if not until.processed:
                    until.callbacks.append(lambda _event: None)
                while not until.processed:
                    sim.step()
                return until.value
            while sim.peek() is not None and sim.peek() <= until:
                sim.step()
            sim._now = until

        def process(event, dispatch=Event._process):
            if not event.callbacks:
                kind = ("_RemoteStage._timer" if id(event) in timers
                        else type(event).__name__)
                empty[kind] = empty.get(kind, 0) + 1
            dispatch(event)

        def kept(factory):
            def start(*args):
                record = factory(*args)
                started.append(record)
                return record
            return start

        def stage(*args, factory=nic._RemoteStage):
            record = factory(*args)
            timers.add(id(record._timer))   # kept alive by the record
            started.append(record)
            return record

        monkeypatch.setattr(Simulator, "run", run)
        monkeypatch.setattr(Event, "_process", process)
        for owner, name in ((controller, "_Fetch"),
                            (controller, "_SharedFetch"),
                            (controller, "AdminCommand"),
                            (initiator, "_Responses"),
                            (QueuePair, "poll"),
                            (QueuePair, "on_interrupt")):
            monkeypatch.setattr(owner, name, kept(getattr(owner, name)))
        monkeypatch.setattr(nic, "_RemoteStage", stage)
        return empty, started

    @staticmethod
    def _teardown(rig, started):
        from repro.nvme.constants import REG_CC
        for record in started:
            if record.processed:
                continue
            if hasattr(record, "interrupt"):            # a notice loop
                record.interrupt()
            elif hasattr(record, "initiator"):          # no disconnect
                record.initiator._running = False
                record.initiator.qp.recv_cq.signal.fire()
        for ctrl in rig.controllers:
            ctrl.mmio_write(ctrl.bars[0], REG_CC, bytes(4))
        rig.sim.run(until=rig.sim.now + 100_000)

    def test_no_loop_or_command_end_is_queued_unobserved(self, monkeypatch):
        empty, started = self._drive(monkeypatch)
        for name in FIG10_SCENARIOS:
            rig = build_fig10_scenario(name, seed=404)
            rig.sim.run(until=rig.sim.process(fio_generator(
                rig.device, FioJob(rw="randrw", total_ios=8))))
            self._teardown(rig, started)
        rig = multihost(2, seed=404, sharing="force")
        rig.sim.run(until=rig.sim.all_of([rig.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", total_ios=8)))
            for i, client in enumerate(rig.clients)]))
        self._teardown(rig, started)
        kinds = {type(record).__name__ for record in started}
        assert kinds >= {"AdminCommand", "_Fetch", "_SharedFetch", "_Poll",
                         "_Irq", "_Responses"}
        assert all(record.processed for record in started)
        assert not self.ENDED_ON_THE_SPOT & set(empty), empty
        assert set(empty) <= set(self.PINNED), empty


def _sha(value) -> str:
    """sha256 of a text export, or of the canonical JSON of plain data."""
    import hashlib
    import json
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: What each *watcher* reported, taken at commit 21feada — before the
#: tracer, the span recorder and ShareSan moved onto one probe seam.
#: The modeled goldens above cannot see a watcher that records the
#: right run wrongly; these pin the records themselves.
GOLDEN_OBSERVERS = {
    # (a) every trace category of two chaos runs
    "trace/chaos-random": "9c044f2be1829250",
    "trace/chaos-fixed": "9c1d8753fb960d84",
    # (b) every export of one fully observed noisy run
    # every span of this run is on a shared SQ and now counts as clean
    # (``arb-granted`` is an inner mark of the fetch stage): its stage
    # slices carry the canonical names and the mark is an instant event,
    # where they were ``-> <boundary>`` slices; spans, events and the
    # other exports unchanged
    "noisy/perfetto": "831f68c6f775fe1a",
    "noisy/prometheus": "a9d6f85c1ce215a1",
    "noisy/timeseries": "39d2ca507e8b4b41",
    "noisy/slo": "e598f390bdddc6ae",
    # ShareSan's ``ntb_translations`` counts every crossing since flow
    # records stopped hiding theirs (5,526 -> 17,055 here, 784 ->
    # 45,764 below); nothing else in either report moved
    "noisy/sanitizer": "8d8fbb39e4554e19",
    # (c) ShareSan's report beyond 31 hosts
    "scale-out/sanitizer": "1167686adc77049e",
    # (d) finished spans (index, op, start, end, marks) per Fig. 10 leg
    "spans/local-linux": "b6bf1c6b563c5531",
    "spans/nvmeof-remote": "2587458be8b6066e",
    "spans/ours-local": "a40c39c053027d27",
    "spans/ours-remote": "96ad272793780c95",
    # (e) what every seeded-bug fixture makes ShareSan say
    "fixtures": "b588fefdf2f47818",
}


class TestGoldenObservers:
    def test_chaos_random_plan_trace(self):
        from repro.run import RunSpec, run
        done = run(RunSpec("chaos", faults="random", clients=3,
                           rw="randrw", iodepth=4, ios=200, seed=11))
        assert _sha(done.rig.trace_log()) \
            == GOLDEN_OBSERVERS["trace/chaos-random"]

    def test_chaos_fixed_plan_trace(self):
        plan = FaultPlan((
            FaultEvent(200_000, "link_down", "link:host2",
                       duration_ns=500_000),
            FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
                       duration_ns=800_000),
            FaultEvent(900_000, "ctrl_stall", "ctrl:nvme0",
                       duration_ns=300_000)))
        scn = chaos_cluster(3, plan=plan, seed=321)
        scn.injector.start()
        for i, client in enumerate(scn.clients):
            scn.sim.process(fio_generator(
                client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                               total_ios=150, seed_stream=f"fio{i}")))
        scn.sim.run(until=scn.sim.timeout(400_000_000))
        assert _sha(scn.trace_log()) == GOLDEN_OBSERVERS["trace/chaos-fixed"]

    def test_noisy_run_every_export(self):
        from repro.run import RunSpec, run
        done = run(RunSpec("noisy", observe={"spans", "slo", "sanitize"},
                           throttle=True, seed=7))
        got = {"noisy/perfetto": done.perfetto_json(),
               "noisy/prometheus": done.prometheus_text(),
               "noisy/timeseries": done.timeseries_jsonl(),
               "noisy/slo": done.slo_report_json(),
               "noisy/sanitizer": done.sanitizer_report()}
        assert {key: _sha(value) for key, value in got.items()} \
            == {key: GOLDEN_OBSERVERS[key] for key in got}

    def test_scale_out_sanitizer_report(self):
        from repro.run import RunSpec, run
        done = run(RunSpec("scale-out", observe={"sanitize"}, seed=7,
                           ios=50))
        assert _sha(done.sanitizer_report()) \
            == GOLDEN_OBSERVERS["scale-out/sanitizer"]

    def test_fig10_leg_span_tables(self):
        got = {}
        for i, name in enumerate(FIG10_SCENARIOS):
            scn = build_fig10_scenario(name, seed=404 + i, telemetry=True)
            run_fio(scn.device, FioJob(rw="randrw", total_ios=60))
            spans = scn.telemetry.spans.finished()
            assert len(spans) == 60
            for span in spans:
                stages = span.stage_durations()
                assert stages is None \
                    or sum(stages.values()) == span.duration_ns
            got[f"spans/{name}"] = _sha(
                [(s.index, s.op, s.start_ns, s.end_ns, s.marks)
                 for s in spans])
        assert got == {key: GOLDEN_OBSERVERS[key] for key in got}

    def test_seeded_bug_fixture_findings(self):
        from repro.sanitizer import FIXTURES
        findings = {name: [f.as_dict() for f in fixture().findings]
                    for name, fixture in FIXTURES.items()}
        assert all(findings.values())
        assert _sha(findings) == GOLDEN_OBSERVERS["fixtures"]
