"""Chaos suite: seeded fault plans against a live multi-client cluster.

Each test drives the full stack — fio workloads over distributed-driver
clients sharing one controller — while the
:class:`~repro.faults.FaultInjector` flips link, controller, and client
fault points, and asserts the recovery invariants end to end:

* every block request completes **exactly once** — a lost completion
  would hang its fio worker past the horizon, and a duplicated one
  would double-trigger the request's ``Event`` (which raises);
* survivors of a client kill keep making progress and finish clean;
* the manager's liveness lease reclaims a dead client's queue pairs
  within the lease window, and queue-id accounting stays consistent;
* a ``(seed, plan)`` pair replays bit-identically.

Chaos clusters run heartbeat/lease processes forever, so every run is
bounded by an explicit horizon — never ``sim.run()`` to exhaustion.
"""

import pytest

import repro.run as run_mod
from repro.driver import (STATUS_HOST_CRASHED, STATUS_HOST_SHUTDOWN,
                          AdminError, BlockRequest, ClientError,
                          DistributedNvmeClient)
from repro.driver import metadata as meta
from repro.faults import FaultEvent, FaultPlan
from repro.nvme import AdminOpcode
from repro.run import RunSpec
from repro.scenarios import CHAOS_RELIABILITY, chaos_cluster
from repro.workloads import FioJob, fio_generator

HORIZON_NS = 500_000_000


def run_chaos(plan, seed=11, n_clients=4, total_ios=300, iodepth=4,
              settle_ns=5_000_000, **cluster_kwargs):
    """Start the cluster + injector + one fio job per client; run to a
    horizon and return (scenario, per-client FioResult list)."""
    sc = chaos_cluster(n_clients=n_clients, plan=plan, seed=seed,
                       **cluster_kwargs)
    sc.injector.start()
    procs = []
    for i, client in enumerate(sc.clients):
        job = FioJob(name=f"j{i}", rw="randrw", bs=4096, iodepth=iodepth,
                     total_ios=total_ios, seed_stream=f"fio{i}")
        procs.append(sc.sim.process(fio_generator(client, job)))
    sc.sim.run(until=sc.sim.timeout(HORIZON_NS))
    assert all(p.triggered for p in procs), "a fio worker deadlocked"
    # Let the lease watchdog observe any heartbeat that stopped near the
    # end of the workload.
    sc.sim.run(until=sc.sim.timeout(settle_ns))
    return sc, [p.value for p in procs]


def total_qids(manager):
    return manager.queues_in_use + len(manager._free_qids)


class TestKillOneOfFour:
    """The acceptance scenario: kill 1 of 4 clients mid-workload."""

    PLAN = FaultPlan.kill("host2-nvme", at_ns=1_000_000)

    def test_survivors_finish_and_lease_reclaims(self):
        sc, results = run_chaos(self.PLAN, seed=11)
        victim = sc.clients[1]
        baseline = total_qids(sc.manager)

        for client, result in zip(sc.clients, results):
            # exactly-once: every submitted I/O either completed OK or
            # surfaced as an error — none vanished, none doubled.
            assert result.ios + result.errors == 300
            assert not client._inflight
            if client is not victim:
                assert result.errors == 0 and result.ios == 300

        assert victim.crashed
        # Post-kill submissions fail fast with the host-side status.
        assert results[1].errors > 0

        # The manager noticed the dead heartbeat and reclaimed the QP.
        assert sc.manager.leases_reclaimed == 1
        assert sc.manager.queues_in_use == 3
        assert total_qids(sc.manager) == baseline

    def test_reclaim_happens_within_lease_window(self):
        sc, _results = run_chaos(self.PLAN, seed=11)
        rel = CHAOS_RELIABILITY
        crashed = [r.time_ns for r in sc.tracer.records
                   if r.message == "client-crashed"]
        reclaimed = [r.time_ns for r in sc.tracer.records
                     if r.message == "lease-reclaim"]
        assert len(crashed) == 1 and len(reclaimed) == 1
        # The watchdog needs one interval to notice the last beat, the
        # lease to expire, and one more check interval to act on it.
        bound = (rel.heartbeat_interval_ns + rel.lease_timeout_ns
                 + 2 * rel.lease_check_interval_ns)
        assert 0 < reclaimed[0] - crashed[0] <= bound

    def test_reclaimed_slot_and_heartbeat_are_cleared(self):
        sc, _results = run_chaos(self.PLAN, seed=11)
        seg = sc.manager.metadata_segment
        slot = sc.clients[1].slot_index
        raw = seg.read(meta.slot_offset(slot), meta.SLOT_SIZE)
        assert meta.unpack_slot(raw)["status"] == meta.SLOT_FREE
        hb = seg.read(meta.heartbeat_offset(slot), meta.HEARTBEAT_SIZE)
        assert hb == bytes(meta.HEARTBEAT_SIZE)

    def test_replays_bit_identical(self):
        def one_run():
            sc, results = run_chaos(self.PLAN, seed=11)
            return (sc.trace_log(),
                    [(r.ios, r.errors) for r in results])

        first = one_run()
        second = one_run()
        assert first == second
        assert len(first[0]) > 0

    def test_different_seed_changes_the_schedule(self):
        # The victim dies at the same plan time, but the interleaving
        # around it (what raced the kill) is seed-dependent.
        sc_a, _ = run_chaos(self.PLAN, seed=11)
        sc_b, _ = run_chaos(self.PLAN, seed=12)
        assert sc_a.trace_log() != sc_b.trace_log()


class TestKillSharedCoTenant:
    """Queue-sharing chaos: kill 1 of 3 co-tenants of one shared SQ
    mid-I/O.  The lease reclaim must free only the dead tenant's slot
    window — the shared QP itself and the co-tenants' windows survive,
    and the survivors finish with zero timeouts."""

    PLAN = FaultPlan.kill("host2-nvme", at_ns=1_000_000)

    def _run(self, seed=11):
        return run_chaos(self.PLAN, seed=seed, n_clients=3,
                         sharing="force")

    def test_reclaim_frees_only_the_dead_window(self):
        sc, results = self._run()
        victim = sc.clients[1]
        survivors = [c for c in sc.clients if c is not victim]
        assert all(c._shared for c in sc.clients)
        assert len(sc.manager.shared_qps) == 1
        qp = next(iter(sc.manager.shared_qps.values()))

        for client, result in zip(sc.clients, results):
            assert result.ios + result.errors == 300   # exactly-once
            assert not client._inflight
        assert victim.crashed and results[1].errors > 0

        # The lease reclaimed the tenancy, not the queue pair: the
        # shared QP is still up, hosting the two survivors.
        assert sc.manager.leases_reclaimed == 1
        assert sc.manager.queues_in_use == 1
        assert qp.tenants[victim._tenant] is None
        for c in survivors:
            ten = qp.tenants[c._tenant]
            assert ten is not None and ten.slot == c.slot_index
        assert qp.free_windows == qp.nwindows - 2
        assert not qp.draining        # the dead window fully drained

    def test_survivors_unperturbed(self):
        sc, results = self._run()
        victim = sc.clients[1]
        for client, result in zip(sc.clients, results):
            if client is victim:
                continue
            assert result.ios == 300 and result.errors == 0
            assert client.timeouts == 0

    def test_replays_bit_identical(self):
        def one_run():
            sc, results = self._run()
            return (sc.trace_log(),
                    [(r.ios, r.errors) for r in results])

        first = one_run()
        assert first == one_run()
        assert len(first[0]) > 0


class TestLinkFaults:
    def test_short_flap_recovers_without_fencing(self):
        """An outage shorter than the lease: timeouts and retries, but
        the client is never fenced and every I/O eventually lands."""
        plan = FaultPlan.link_flap("host2", at_ns=200_000,
                                   duration_ns=500_000)
        sc, results = run_chaos(plan, seed=7)
        assert sc.testbed.fabric.dropped_writes > 0   # the fault bit
        for result in results:
            assert result.ios == 300 and result.errors == 0
        assert sc.manager.leases_reclaimed == 0
        assert sc.manager.queues_in_use == 4
        assert sc.clients[1].timeouts > 0
        assert sc.clients[1].retries > 0

    def test_long_outage_fences_the_client(self):
        """An outage longer than the lease: the manager must treat the
        unreachable client as dead and reclaim its queue pair, while
        the survivors never notice."""
        plan = FaultPlan.link_flap("host2", at_ns=500_000,
                                   duration_ns=3_000_000)
        sc, results = run_chaos(plan, seed=7)
        assert sc.manager.leases_reclaimed == 1
        assert sc.manager.queues_in_use == 3
        for i, result in enumerate(results):
            assert result.ios + result.errors == 300
            if i != 1:
                assert result.errors == 0
        assert results[1].errors > 0    # fenced mid-run

    def test_tlp_drops_rescued_by_cq_resync(self):
        """Random CQE drops leave phase holes in the completion ring;
        the client-side resync must skip them so nothing wedges."""
        plan = FaultPlan((
            FaultEvent(100_000, "tlp_drop", "link:host3",
                       probability=0.2, duration_ns=1_000_000),))
        sc, results = run_chaos(plan, seed=7)
        for result in results:
            assert result.ios == 300 and result.errors == 0
        resyncs = [r for r in sc.tracer.records
                   if r.message == "cq-resync"]
        assert resyncs, "drops never exercised the resync path"
        assert sc.clients[2].stale_completions > 0

    def test_skipped_holes_do_not_come_back_as_completions(self):
        """A hole the resync skipped keeps the previous lap's phase tag,
        which is the next lap's too: unless it is stamped consumed, the
        consumer takes it for a fresh entry one lap later (and a scan
        that wraps onto it jumps the head a whole lap).  Every stale
        completion must be the late CQE of a cid a timeout retired."""
        plan = FaultPlan((
            FaultEvent(100_000, "tlp_drop", "link:host3",
                       probability=0.3, duration_ns=3_000_000),))
        sc, results = run_chaos(plan, seed=7)
        for result in results:
            assert result.ios == 300 and result.errors == 0
        client = sc.clients[2]
        assert any(r.message == "cq-resync" and r.payload["skipped"]
                   for r in sc.tracer.records)
        assert client.stale_completions <= client.timeouts

    def test_tlp_delay_slows_but_never_fails(self):
        plan = FaultPlan((
            FaultEvent(100_000, "tlp_delay", "link:host4",
                       delay_ns=2_000, duration_ns=2_000_000),))
        sc, results = run_chaos(plan, seed=7)
        for result in results:
            assert result.ios == 300 and result.errors == 0
        assert sc.manager.leases_reclaimed == 0


class TestControllerFaults:
    def test_stall_and_abort_bounded_errors(self):
        plan = FaultPlan((
            FaultEvent(150_000, "ctrl_stall", "ctrl:nvme0",
                       duration_ns=300_000),
            FaultEvent(100_000, "ctrl_abort", "ctrl:nvme0",
                       probability=0.05, duration_ns=1_000_000),))
        sc, results = run_chaos(plan, seed=7)
        total_errors = sum(r.errors for r in results)
        assert 0 < total_errors < 100   # a few aborts, not a collapse
        for result in results:
            assert result.ios + result.errors == 300
        assert sc.manager.leases_reclaimed == 0


class TestRandomPlanChaos:
    """Property-style: a seeded random plan must never violate the
    exactly-once / accounting invariants, whatever it injects."""

    @pytest.mark.parametrize("seed", [3, 21])
    def test_invariants_hold_under_random_plans(self, seed):
        sc0 = chaos_cluster(n_clients=3, seed=seed)
        baseline = total_qids(sc0.manager)
        plan = FaultPlan.random(
            sc0.sim.rng, "chaos-plan", horizon_ns=3_000_000,
            link_points=sc0.link_points()[1:],   # spare the device host
            ctrl_points=[sc0.ctrl_point],
            client_points=sc0.client_points(),
            n_events=6, max_outage_ns=400_000,
            max_drop_probability=0.1, kill_at_most=1)
        del sc0

        def one_run():
            sc, results = run_chaos(plan, seed=seed, n_clients=3,
                                    total_ios=200)
            for client, result in zip(sc.clients, results):
                assert result.ios + result.errors == 200
                assert not client._inflight
            # No queue id leaked or double-freed, whatever was injected.
            assert total_qids(sc.manager) == baseline
            kills = sum(1 for ev in plan.events
                        if ev.action == "kill_client")
            assert sc.manager.leases_reclaimed <= kills + 1
            return sc.trace_log(), [(r.ios, r.errors) for r in results]

        assert one_run() == one_run()


class FetchLedger:
    """Probe subscriber: every ``(ctrl, qid, cid)`` a controller fetched,
    and the ones it fetched again."""

    def __init__(self):
        self.fetched = set()
        self.twice = []

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at, wait_ns):
        key = (ctrl.name, qid, sqe.cid)
        if key in self.fetched:
            self.twice.append(key)
        self.fetched.add(key)


class TestNoCommandFetchedTwice:
    """A retry is a fresh command under a fresh cid, and no run here
    wraps a cid counter or re-creates a queue, so a ``(ctrl, qid, cid)``
    fetched twice is a command the controller executed twice — ShareSan
    reports it as a double completion.

    Seed 11 is ROADMAP open item (a): host2's SQE stores into slots 8/9
    of its SQ land inside a ``link:host2`` outage and are lost; the
    commands time out and are retried under fresh cids at later slots;
    the retries' doorbell moves the tail past 8/9, and the controller
    fetches what those slots still hold — lap 0's cid 0x9 (READ) and
    0xa (WRITE), long completed — and executes them again.  A replayed
    WRITE puts whatever that bounce partition holds now on the medium.
    The CQ resync only delivers their CQEs."""

    @pytest.mark.parametrize("seed", [
        2,
        pytest.param(11, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP open item (a): a lost SQE store "
            "leaves the previous lap's command in its slot")),
    ])
    def test_random_plan_fetches_each_command_once(self, seed, monkeypatch):
        ledger = FetchLedger()
        build = run_mod._build

        def watched(spec):
            rig = build(spec)
            rig.sim.probe.subscribe(ledger)
            return rig

        monkeypatch.setattr(run_mod, "_build", watched)
        run_mod.run(RunSpec("chaos", faults="random", clients=3,
                            rw="randrw", iodepth=4, ios=200, seed=seed))
        assert ledger.fetched and ledger.twice == []


class TestCreateQpRollback:
    """Satellite regression: an SQ-create failure mid-RPC must delete
    the half-created CQ and return the qid to the free pool."""

    def test_admin_failure_rolls_back(self, monkeypatch):
        sc = chaos_cluster(n_clients=1, seed=5)
        manager, bed = sc.manager, sc.testbed
        free_before = sorted(manager._free_qids)
        cqs_before = set(bed.nvme.cqs)

        def failing_create_sq(qid, entries, addr, cqid):
            raise AdminError("injected SQ-create failure")
            yield   # pragma: no cover - make it a generator

        monkeypatch.setattr(manager.admin, "create_io_sq",
                            failing_create_sq)
        late = DistributedNvmeClient(
            sc.sim, bed.smartio, bed.node(1), bed.nvme_device_id,
            manager.config, slot_index=1, name="late-client")
        with pytest.raises(ClientError, match="manager refused"):
            sc.sim.run(until=sc.sim.process(late.start()))

        assert sorted(manager._free_qids) == free_before
        assert set(bed.nvme.cqs) == cqs_before       # CQ rolled back
        assert manager.queues_in_use == 1            # only client 0's

    def test_recreate_succeeds_after_rollback(self, monkeypatch):
        sc = chaos_cluster(n_clients=1, seed=5)
        manager, bed = sc.manager, sc.testbed
        real = manager.admin.create_io_sq
        fail_once = {"left": 1}

        def flaky_create_sq(qid, entries, addr, cqid):
            if fail_once["left"]:
                fail_once["left"] -= 1
                raise AdminError("injected")
            return (yield from real(qid, entries, addr, cqid))

        monkeypatch.setattr(manager.admin, "create_io_sq",
                            flaky_create_sq)
        late = DistributedNvmeClient(
            sc.sim, bed.smartio, bed.node(1), bed.nvme_device_id,
            manager.config, slot_index=1, name="late-client")
        with pytest.raises(ClientError):
            sc.sim.run(until=sc.sim.process(late.start()))
        retry = DistributedNvmeClient(
            sc.sim, bed.smartio, bed.node(1), bed.nvme_device_id,
            manager.config, slot_index=1, name="retry-client")
        sc.sim.run(until=sc.sim.process(retry.start()))
        assert retry.qid is not None
        assert manager.queues_in_use == 2


class AdminLog:
    """Probe subscriber: ``(opcode, qid)`` of every admin command
    issued, in issue order."""

    def __init__(self):
        self.commands = []

    def on_sqe_issued(self, qp, sqe, slot, store, request):
        if qp.sq.qid == 0:
            self.commands.append((sqe.opcode, sqe.cdw10 & 0xFFFF))


class TestQueueLifecycleIsSerialised:
    """Queue create and delete run under the manager's admin lock (paper
    Sec. IV): a client's RPC and the lease worker's reclaim can be in
    the manager at once, and the admin queue hands a completion to
    whichever waiter pops it first, so one lifecycle call's commands
    must run back to back, never interleaved with another's."""

    def test_concurrent_deletes_and_creates_run_one_after_another(self):
        sc = chaos_cluster(n_clients=2, seed=5)
        manager, sim, nvme = sc.manager, sc.sim, sc.testbed.nvme
        qids = [client.qid for client in sc.subclients]
        rings = {qid: (nvme.sqs[qid].state.entries,
                       nvme.cqs[qid].state.base_addr,
                       nvme.sqs[qid].state.base_addr) for qid in qids}
        log = sim.probe.subscribe(AdminLog())

        deletes = [sim.process(manager._delete_pairs([qid]))
                   for qid in qids]
        sim.run(until=sim.all_of(deletes))
        assert log.commands == [
            (op, qid) for qid in qids
            for op in (AdminOpcode.DELETE_IO_SQ, AdminOpcode.DELETE_IO_CQ)]
        assert not set(qids) & (set(nvme.sqs) | set(nvme.cqs))

        log.commands.clear()
        creates = [sim.process(manager._create_pair(qid, *rings[qid]))
                   for qid in qids]
        sim.run(until=sim.all_of(creates))
        assert [proc.value for proc in creates] == [True, True]
        assert log.commands == [
            (op, qid) for qid in qids
            for op in (AdminOpcode.CREATE_IO_CQ, AdminOpcode.CREATE_IO_SQ)]
        assert set(qids) <= set(nvme.sqs) & set(nvme.cqs)


class TestShutdownFailsInflight:
    """Satellite regression: orderly shutdown must stop the pollers and
    fail in-flight commands with a distinct host-side status instead of
    leaving their waiters hanging."""

    def _stuck_cluster(self):
        """One client whose controller is stalled so I/Os stay in
        flight indefinitely."""
        plan = FaultPlan((FaultEvent(0, "ctrl_stall", "ctrl:nvme0"),))
        sc = chaos_cluster(n_clients=1, plan=plan, seed=9)
        sc.injector.start()
        sc.sim.run(until=sc.sim.timeout(10_000))
        return sc

    def test_shutdown_releases_waiters_with_distinct_status(self):
        sc = self._stuck_cluster()
        client = sc.clients[0]
        done = [client.submit(BlockRequest("read", lba=i, nblocks=1))
                for i in range(3)]
        sc.sim.run(until=sc.sim.timeout(50_000))
        assert len(client._inflight) == 3
        assert not any(ev.triggered for ev in done)

        # The stall also freezes the admin queue, so the waiters must
        # be released at shutdown *entry*, before the DELETE_QP RPC.
        teardown = sc.sim.process(client.shutdown())
        sc.sim.run(until=sc.sim.timeout(10_000))
        for ev in done:
            assert ev.triggered
            assert ev.value.status == STATUS_HOST_SHUTDOWN
            assert not ev.value.ok
        assert not client._inflight
        assert client._notice is None and client._hb_proc is None

        sc.registry.resume("ctrl:nvme0")   # let the RPC drain
        sc.sim.run(until=teardown)
        assert client.qid is None
        assert sc.manager.queues_in_use == 0

    def test_crash_releases_waiters_and_fails_fast(self):
        sc = self._stuck_cluster()
        client = sc.clients[0]
        done = [client.submit(BlockRequest("read", lba=i, nblocks=1))
                for i in range(2)]
        sc.sim.run(until=sc.sim.timeout(50_000))

        client.crash()
        sc.sim.run(until=sc.sim.timeout(10_000))
        for ev in done:
            assert ev.triggered
            assert ev.value.status == STATUS_HOST_CRASHED
        # New submissions drain fast with the same status (workloads
        # finish instead of hanging on a dead host).
        late = client.submit(BlockRequest("read", lba=9, nblocks=1))
        sc.sim.run(until=sc.sim.timeout(10_000))
        assert late.triggered
        assert late.value.status == STATUS_HOST_CRASHED
        client.crash()   # idempotent
