"""Shared I/O queue pairs: admission policy, slot windows, demux.

Covers the queue-sharing design of docs/queue_sharing.md end to end:

* private-first admission — clients get private QPs until only the
  shared reserve remains, then become tenants of manager-hosted shared
  QPs (least-loaded placement, deterministic tie-break);
* the 32nd client is *admitted* under the default policy (the paper's
  hard 31-host limit becomes a capacity limit);
* a rejected admission (RPC_NO_QUEUES) rolls back any partially
  reserved slot window and is counted in the metrics registry;
* a released window's ring position is handed to the next tenant via
  the doorbell shadow, so window reuse never desynchronises head/tail.
"""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.driver import (BlockRequest, ClientError, DistributedNvmeClient,
                          NvmeManager)
from repro.driver import metadata as meta
from repro.scenarios import multihost, scale_out_cluster
from repro.scenarios.testbed import PcieTestbed
from repro.workloads import FioJob, run_fio_many


def sharing_config(reserved_qps=1, max_queue_pairs=None, sq_entries=None,
                   window_entries=None):
    cfg = SimulationConfig()
    share = dataclasses.replace(cfg.sharing, reserved_qps=reserved_qps)
    if sq_entries is not None:
        share = dataclasses.replace(share, sq_entries=sq_entries)
    if window_entries is not None:
        share = dataclasses.replace(share, window_entries=window_entries)
    cfg = dataclasses.replace(cfg, sharing=share)
    if max_queue_pairs is not None:
        cfg = dataclasses.replace(
            cfg, nvme=dataclasses.replace(cfg.nvme,
                                          max_queue_pairs=max_queue_pairs))
    return cfg


def make_cluster(n_hosts, config, seed=71):
    bed = PcieTestbed(n_hosts=n_hosts, with_nvme=True, seed=seed,
                      config=config)
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    return bed, manager


def start_client(bed, host_index, **kwargs):
    client = DistributedNvmeClient(bed.sim, bed.smartio,
                                   bed.node(host_index),
                                   bed.nvme_device_id, bed.config,
                                   slot_index=host_index - 1,
                                   name=f"host{host_index}-nvme", **kwargs)
    bed.sim.run(until=bed.sim.process(client.start()))
    return client


class TestAdmissionPolicy:
    def test_private_first_then_shared(self):
        """4 IO QPs, 1 reserved: clients 1-3 get private QPs, 4-6
        become tenants of one shared QP."""
        cfg = sharing_config(reserved_qps=1, max_queue_pairs=5)
        bed, manager = make_cluster(7, cfg)
        clients = [start_client(bed, i) for i in range(1, 7)]
        assert [c._shared for c in clients] == [False] * 3 + [True] * 3
        assert len(manager.shared_qps) == 1
        qp = next(iter(manager.shared_qps.values()))
        assert qp.tenant_count == 3
        # Tenants occupy distinct windows with disjoint slot ranges.
        windows = [(c._win_start, c.sq.entries) for c in clients
                   if c._shared]
        assert len({w for w, _ in windows}) == 3
        for start, length in windows:
            assert start + length <= qp.entries

    def test_least_loaded_placement(self):
        """A new tenant lands on the emptiest shared QP with a free
        window; equal load breaks ties toward the lowest qid."""
        cfg = sharing_config(reserved_qps=2, max_queue_pairs=3,
                             sq_entries=48, window_entries=16)
        bed, manager = make_cluster(8, cfg)
        # Fill QP A's 3 windows; the 4th tenant spawns QP B.
        t = [start_client(bed, i, sharing="force") for i in range(1, 5)]
        qid_a, qid_b = sorted(manager.shared_qps)
        assert [c.qid for c in t] == [qid_a, qid_a, qid_a, qid_b]
        # A tenant leaves A: now A has 2 tenants, B has 1.
        bed.sim.run(until=bed.sim.process(t[0].shutdown()))
        # Least-loaded: the next tenant goes to B despite A's free
        # window and lower qid...
        t5 = start_client(bed, 5, sharing="force")
        assert t5.qid == qid_b
        # ...and with the load tied at 2/2, the tie-break picks A.
        t6 = start_client(bed, 6, sharing="force")
        assert t6.qid == qid_a

    def test_32nd_client_admitted_by_default(self):
        """The acceptance criterion: the default policy admits the
        32nd client instead of answering RPC_NO_QUEUES."""
        scn = multihost(32, seed=17, queue_depth=4)
        assert len(scn.clients) == 32
        assert scn.manager.admission_rejections == 0
        shared = [c for c in scn.clients if c._shared]
        assert shared, "the overflow client must be a shared tenant"
        job = FioJob(rw="randread", bs=4096, iodepth=4, total_ios=40)
        results = run_fio_many([(c, job) for c in scn.clients])
        assert all(r.ios == 40 and r.errors == 0 for r in results)

    def test_sharing_never_refuses_beyond_reserve(self):
        """A sharing=never client hitting the reserve is refused."""
        cfg = sharing_config(reserved_qps=1, max_queue_pairs=3)
        bed, manager = make_cluster(4, cfg)
        start_client(bed, 1)   # takes the one non-reserved QP
        with pytest.raises(ClientError, match="refused"):
            start_client(bed, 2, sharing="never")

    def test_scale_out_64_clients(self):
        """64 clients on a 31-QP controller, every I/O completes."""
        scn = scale_out_cluster(64, seed=29, queue_depth=4)
        assert len(scn.clients) == 64
        assert scn.manager.admission_rejections == 0
        assert scn.testbed.nvme.io_queue_count <= 31
        job = FioJob(rw="randread", bs=4096, iodepth=4, total_ios=25)
        results = run_fio_many([(c, job) for c in scn.clients])
        assert all(r.ios == 25 and r.errors == 0 for r in results)
        assert sum(c.timeouts for c in scn.clients) == 0
        assert scn.manager.cqes_orphaned == 0


class TestRejectionRollback:
    """Satellite regression: RPC_NO_QUEUES must leave no partially
    reserved slot window behind and must be counted in telemetry."""

    def _raw_rpc(self, bed, node_index, slot, **fields):
        """Drive the mailbox slot protocol by hand (lets the test send
        requests a well-behaved client never would)."""
        node = bed.node(node_index)
        meta_node, meta_seg = bed.smartio.device_metadata(
            bed.nvme_device_id)
        conn = node.connect_segment(meta_node, meta_seg)
        offset = meta.slot_offset(slot)

        def rpc():
            yield conn.write_wait(
                offset, meta.pack_slot(meta.SLOT_REQUEST, **fields))
            while True:
                yield bed.sim.timeout(1_000)
                raw = yield conn.read(offset, meta.SLOT_SIZE)
                resp = meta.unpack_slot(raw)
                if resp["status"] == meta.SLOT_RESPONSE:
                    return resp

        return bed.sim.run(until=bed.sim.process(rpc()))

    def test_unreachable_mailbox_rolls_back_window(self):
        from repro.telemetry.hub import Telemetry

        cfg = sharing_config(reserved_qps=1, max_queue_pairs=5)
        bed, manager = make_cluster(4, cfg)
        tele = Telemetry(bed.sim).attach(managers=[manager])
        resp = self._raw_rpc(
            bed, 1, 0, op=meta.OP_CREATE_QP, entries=64,
            flags=meta.FLAG_SHARED,
            share_node=bed.node(1).node_id, share_seg=0xDEAD)  # no such
        assert resp["rpc_status"] == meta.RPC_NO_QUEUES
        assert manager.admission_rejections == 1
        # The window reserved before the connect attempt was rolled
        # back; the shared QP (if one was spun up) is fully free.
        for qp in manager.shared_qps.values():
            assert qp.free_windows == qp.nwindows
        assert not manager._slot_share
        text = tele.prometheus_text()
        assert "repro_manager_admission_rejections_total 1" in text
        # A later well-formed tenant is unaffected by the rollback.
        client = start_client(bed, 2, sharing="force")
        assert client._shared

    def test_capacity_exhausted_counts_rejections(self):
        """All windows taken and no reserve left: RPC_NO_QUEUES."""
        cfg = sharing_config(reserved_qps=1, max_queue_pairs=5,
                             sq_entries=32, window_entries=16)
        bed, manager = make_cluster(5, cfg)
        start_client(bed, 1, sharing="force")
        start_client(bed, 2, sharing="force")   # both windows taken
        with pytest.raises(ClientError, match="refused"):
            start_client(bed, 3, sharing="force")
        assert manager.admission_rejections == 1
        assert len(manager.shared_qps) == 1


class TestWindowHandoff:
    def _tenant_cluster(self):
        cfg = sharing_config(reserved_qps=1, max_queue_pairs=3)
        bed, manager = make_cluster(5, cfg)
        first = start_client(bed, 1, sharing="force")
        return bed, manager, first

    def _run_ios(self, bed, client, n):
        job = FioJob(rw="randread", bs=4096, iodepth=4, total_ios=n)
        [result] = run_fio_many([(client, job)])
        assert result.ios == n and result.errors == 0

    def test_shadow_handoff_on_reuse(self):
        """A departing tenant's window is reused by a successor whose
        ring starts at the shadowed tail — mid-window, not zero."""
        bed, manager, first = self._tenant_cluster()
        win_len = first.sq.entries
        self._run_ios(bed, first, 10)            # 10 % win_len != 0
        expect_tail = first.sq.tail
        assert expect_tail == 10 % win_len
        widx = first._tenant
        bed.sim.run(until=bed.sim.process(first.shutdown()))
        qp = next(iter(manager.shared_qps.values()))
        assert qp.tenants[widx] is None
        assert qp.win_next_tail[widx] == expect_tail

        second = start_client(bed, 2, sharing="force")
        assert second._tenant == widx            # same window reused
        assert second.sq.tail == expect_tail == second.sq.head
        self._run_ios(bed, second, 50)           # wraps the window

    def test_delete_frees_only_the_window(self):
        bed, manager, first = self._tenant_cluster()
        second = start_client(bed, 2, sharing="force")
        self._run_ios(bed, first, 5)
        bed.sim.run(until=bed.sim.process(second.shutdown()))
        assert len(manager.shared_qps) == 1      # QP survives
        assert manager.queues_in_use == 1
        self._run_ios(bed, first, 5)             # co-tenant unaffected

    def test_depth_beyond_the_window_waits_for_slots_in_order(self):
        """Queue depth above the slot window with recovery off: the
        overflow parks (gated on the ring being full) and each freed
        slot goes to the oldest parked submission; a clamp landing on
        top moves the parked to the clamp's wait, still in order."""
        bed, manager, client = self._tenant_cluster()
        assert bed.config.reliability.command_timeout_ns == 0
        usable = client.sq.entries - 1
        issued = []
        issue = client._qp.issue

        def recording_issue(sqe, span=None):
            issued.append(sqe.slba)
            issue(sqe, span)

        client._qp.issue = recording_issue
        n = usable + 12
        done = [client.submit(BlockRequest("read", lba=8 * i, nblocks=8))
                for i in range(n)]
        while len(issued) < usable + 2:
            bed.sim.step()
        client.set_qos_window(3)
        bed.sim.run(until=bed.sim.all_of(done))
        assert issued == [8 * i for i in range(n)]
        assert all(ev.value.ok for ev in done)
        assert 0 < client.throttled_ios <= 10
