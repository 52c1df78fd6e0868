"""The probe seam (``repro.sim.probe``): one table of events, observers
subscribe, nothing else is threaded through the model.

* every event of the table is emitted by the running stack and arrives
  with the documented arguments;
* nobody listening costs nothing: an unobserved I/O enters no frame of
  the probe, the telemetry or the sanitizer package;
* a stateless observer may subscribe late and hears every later event;
  ShareSan, which learns ring names and window ownership from bring-up,
  refuses a component that is already up.
"""

import dataclasses

import pytest

from .hostcost import cost
from repro.config import SimulationConfig
from repro.driver import BlockRequest, DistributedNvmeClient, NvmeManager
from repro.run import RunSpec, run
from repro.sanitizer import ShareSan
from repro.scenarios import (CHAOS_RELIABILITY, PcieTestbed,
                             build_fig10_scenario, multihost)
from repro.sim import Probe, Simulator, Tracer
from repro.sim.probe import EVENTS
from repro.workloads import FioJob, run_fio


class Recorder:
    """Hears every event; keeps ``(args, kwargs)`` per event."""

    def __init__(self):
        self.heard = {name: [] for name in EVENTS}


for _name in EVENTS:
    setattr(Recorder, f"on_{_name}",
            lambda self, *args, _name=_name, **detail:
            self.heard[_name].append((args, detail)))


def _read(bed, device, lba=0):
    return bed.sim.run(until=device.submit(
        BlockRequest("read", lba=lba, nblocks=8)))


@pytest.fixture(scope="module")
def heard():
    """One small cluster brought up by hand (the recorder has to be
    subscribed before anything starts) and pushed through a private
    client, a shared-QP tenant, a cable pull with recovery, and an
    orderly shutdown."""
    cfg = SimulationConfig()
    cfg = dataclasses.replace(
        cfg, reliability=CHAOS_RELIABILITY,
        sharing=dataclasses.replace(cfg.sharing, reserved_qps=1))
    bed = PcieTestbed(n_hosts=3, with_nvme=True, seed=5, config=cfg)
    rec = bed.sim.probe.subscribe(Recorder())
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    clients = []
    for host, sharing in ((1, "never"), (2, "force")):
        client = DistributedNvmeClient(
            bed.sim, bed.smartio, bed.node(host), bed.nvme_device_id,
            bed.config, slot_index=host - 1, name=f"host{host}-nvme",
            sharing=sharing)
        bed.sim.run(until=bed.sim.process(client.start()))
        assert _read(bed, client).ok
        clients.append(client)
    private, tenant = clients
    bed.ntbs[1].set_link_state(False)         # host1's cable
    assert not _read(bed, private, lba=8).ok  # timeouts, retries, give up
    bed.ntbs[1].set_link_state(True)
    bed.sim.run(until=bed.sim.process(tenant.shutdown()))
    return rec.heard


@pytest.mark.parametrize("event", EVENTS)
def test_every_event_is_emitted_with_its_documented_arguments(heard, event):
    calls = heard[event]
    assert calls, f"nothing emits {event}"
    names = [arg.strip() for arg in EVENTS[event].split(",")]
    fixed = [name for name in names if not name.startswith("*")]
    for args, detail in calls:
        if "*detail" in names:
            assert len(args) >= len(fixed) and not detail
        elif "**detail" in names:
            assert len(args) == len(fixed) and detail
        else:
            assert len(args) == len(fixed) and not detail


def test_the_hand_built_cluster_saw_every_flavour(heard):
    assert {what for (_m, what, *_r), _d in heard["lease_changed"]} \
        >= {"create-qp", "delete-qp", "granted", "released"}
    assert {what for (_c, what, *_r), _d in heard["lifecycle"]} \
        >= {"enabled", "queue-created", "manager-started",
            "client-started", "shared-qp-created", "shared-qp-joined",
            "client-shutdown"}
    assert {kind for (_w, kind, *_r), _d in heard["mem_event"]} \
        == {"read", "write", "translate", "pool", "alloc", "free"}
    assert {op for (_s, op), _d in heard["ring_step"]} \
        >= {"sq-advance", "window-fetch", "cq-produce", "cq-consume"}
    assert {action for (_s, action), _d in heard["recovery"]} \
        >= {"timeout", "retry"}
    lost = [args for args, _d in heard["tlp_done"] if args[5] is not None]
    assert lost and all(args[4] is None for args in lost)
    assert any(args[3] is not None for args, _d in heard["sqe_fetched"])
    assert any(args[4] is not None for args, _d in heard["cqe_routed"])


class TestSubscribe:
    def test_subscribe_binds_only_the_events_an_observer_defines(self):
        class Doorbells:
            def on_doorbell_landed(self, *args):
                pass

        probe = Probe()
        watcher = probe.subscribe(Doorbells())
        assert probe.doorbell_landed == (watcher.on_doorbell_landed,)
        assert all(getattr(probe, name) == () for name in EVENTS
                   if name != "doorbell_landed")

    def test_an_unknown_or_missing_event_is_refused(self):
        class Typo:
            def on_doorbel_landed(self, *args):
                pass

        with pytest.raises(ValueError, match="doorbel_landed"):
            Probe().subscribe(Typo())
        with pytest.raises(ValueError, match="nothing"):
            Probe().subscribe(object())


class TestZeroSubscribers:
    #: calls of the same warmed read at the parent commit (21feada),
    #: which still ran ``_span_mark``, the ``_media_access`` wrapper and
    #: ``_finish_local_write`` for nobody
    PARENT_CALLS = 653

    def test_unobserved_read_enters_no_observer_frame(self):
        rig = multihost(2, seed=404)
        device = rig.clients[0]

        def read():
            assert rig.sim.run(until=device.submit(
                BlockRequest("read", lba=8, nblocks=8))).ok

        for _ in range(5):
            read()
        files = set()
        calls, _bytecodes = cost(read, files)
        assert [name for name in sorted(files)
                if "sim/probe.py" in name or "/telemetry/" in name
                or "/sanitizer/" in name] == []
        assert any(name.endswith("nvme/controller.py") for name in files)
        assert calls <= 644 < self.PARENT_CALLS


class TestLateObservers:
    def test_a_tracer_subscribed_to_a_running_rig_hears_the_rest(self):
        rig = multihost(2, seed=7)
        run_fio(rig.clients[0], FioJob(rw="randread", total_ios=5))
        tracer = rig.sim.probe.subscribe(Tracer(rig.sim))
        run_fio(rig.clients[1], FioJob(rw="randread", total_ios=5))
        counts = {message: sum(r.message == message for r in tracer.records)
                  for message in ("fetched", "completed", "read-complete")}
        assert counts["fetched"] == counts["completed"] == 5
        assert counts["read-complete"] >= 5
        assert min(r.time_ns for r in tracer.records) > 0

    def test_a_late_sharesan_names_what_it_missed(self):
        rig = multihost(2, seed=7)
        with pytest.raises(ValueError) as refused:
            ShareSan(rig.sim).attach(controllers=rig.controllers,
                                     managers=rig.managers.values(),
                                     clients=rig.subclients)
        for name in ("nvme0", "manager:", "host1-nvme", "host2-nvme"):
            assert name in str(refused.value)
        # Before anything is up it is welcome.
        assert ShareSan(Simulator(seed=1)).attach().clean


class TestSanitizeOnFig10Rigs:
    @pytest.mark.parametrize("name", ["ours-local", "ours-remote"])
    def test_the_ntb_legs_run_clean_under_sharesan(self, name):
        done = run(RunSpec(name, rw="randrw", iodepth=4, ios=50, seed=3,
                           observe={"sanitize"}))
        assert done.sanitizer.clean, done.sanitizer.findings
        assert done.sanitizer.stats["submissions"] == 50

    @pytest.mark.parametrize("name", ["local-linux", "nvmeof-remote"])
    def test_the_baselines_say_why_not(self, name):
        with pytest.raises(ValueError, match="no queue, window or buffer"):
            RunSpec(name, observe={"sanitize"})
        with pytest.raises(ValueError, match="no queue, window or buffer"):
            build_fig10_scenario(name, sanitizer=True)
