"""ShareSan: a cross-host ownership/race sanitizer for shared device
memory (docs/sanitizer.md).

The paper's design point — many hosts driving one controller's queues,
doorbells and bounce buffers through NTB windows — means every access
to *simulated physical memory* has an implicit owner: the tenant whose
lease and slot window currently cover it.  ShareSan makes that
ownership explicit.  It maintains a map of regions and windows keyed by
(host slot, lease, QP-window epoch) and validates accesses at the
choke points every byte already flows through — the probe events
(:mod:`repro.sim.probe`) ``mem_event`` (``memory/physmem.py``
read/write, ``pcie/ntb.py`` translation, ``driver/dmapool.py``),
``ring_step`` (``nvme/queues.py``), the doorbell and SQE/CQE events,
and the manager's grant/revoke/handoff path (``lease_changed``,
``cqe_routed``).

Detectors (see docs/sanitizer.md for the catalog):

``foreign-window-write``
    a tenant submits into a shared-SQ window it does not own (use
    after handoff, or a quarantined window still draining a
    predecessor's commands);
``stale-doorbell``
    a doorbell rung for a window whose lease expired or was handed to
    a successor;
``cqe-misdelivery``
    the manager forwards a CQE to a tenant that did not issue the
    command (CID-namespace violation);
``double-completion``
    one command id delivered twice to the same client;
``phase-violation``
    a CQ ring's producer or consumer departs from the phase/position
    sequence the NVMe protocol mandates (shadowed per ring);
``dma-freed-buffer``
    a CPU store or device DMA lands in a ``dmapool`` allocation after
    it was freed.

Zero perturbation: ShareSan is pure observation — it adds no simulator
events, draws no random numbers and never touches simulated state, so
any run is bit-identical with the sanitizer on or off.  Off is the
default: nothing is subscribed to the probe.
"""

from __future__ import annotations

import dataclasses
import typing as t

DET_FOREIGN_WINDOW = "foreign-window-write"
DET_STALE_DOORBELL = "stale-doorbell"
DET_MISDELIVERY = "cqe-misdelivery"
DET_DOUBLE_COMPLETION = "double-completion"
DET_PHASE = "phase-violation"
DET_DMA_FREED = "dma-freed-buffer"

DETECTORS = (DET_FOREIGN_WINDOW, DET_STALE_DOORBELL, DET_MISDELIVERY,
             DET_DOUBLE_COMPLETION, DET_PHASE, DET_DMA_FREED)

#: Distinct findings kept verbatim; repeats of a signature only bump
#: its count, and wholly new signatures beyond the cap only bump
#: ``stats["findings_overflow"]`` (keeps a pathological run bounded).
MAX_FINDINGS = 256


@dataclasses.dataclass
class Finding:
    """One distinct ownership/race violation (repeats are counted)."""

    detector: str
    message: str
    time_ns: int
    actor: str = ""
    qid: int | None = None
    window: int | None = None
    epoch: int | None = None
    cid: int | None = None
    count: int = 1
    span: dict | None = None

    def as_dict(self) -> dict[str, t.Any]:
        out = {"detector": self.detector, "message": self.message,
               "time_ns": self.time_ns, "count": self.count}
        for key in ("actor", "qid", "window", "epoch", "cid", "span"):
            value = getattr(self, key)
            if value not in ("", None):
                out[key] = value
        return out


@dataclasses.dataclass
class _Window:
    """Ownership record of one shared-SQ slot window.

    ``epoch`` increments on every grant, so a finding names *which*
    tenancy of the window was violated; ``quarantined`` mirrors the
    manager's draining set (released with commands outstanding)."""

    qid: int
    index: int
    owner: int | None = None        # owning client's lease slot
    epoch: int = 0
    quarantined: bool = False
    grants: int = 0


@dataclasses.dataclass
class Region:
    """One tracked region of simulated physical memory."""

    host: str
    start: int
    end: int
    kind: str
    owner: str

    def as_dict(self) -> dict[str, t.Any]:
        return {"host": self.host, "start": self.start, "end": self.end,
                "kind": self.kind, "owner": self.owner}


class ShareSan:
    """The sanitizer hub: ownership map, detectors and counters.

    Creating one subscribes it to the simulator's probe; declare what
    it watches before that starts::

        san = ShareSan(sim).attach(managers=[manager],
                                   controllers=[bed.nvme])
        ...
        assert san.findings == []
    """

    def __init__(self, sim, telemetry=None) -> None:
        self.sim = sim
        self.telemetry = telemetry
        self.findings: list[Finding] = []
        self.stats: dict[str, int] = {}
        self.regions: list[Region] = []
        self._index: dict[tuple, Finding] = {}
        #: (qid, window index) -> ownership record
        self._windows: dict[tuple[int, int], _Window] = {}
        #: (qid, cid) -> (issuer slot, window epoch, already flagged as
        #: foreign at submit) for in-flight shared commands
        self._inflight: dict[tuple[int, int], tuple[int, int, bool]] = {}
        #: delivered command ids per client (cleared on cid reuse)
        self._completed: set[tuple[int, int]] = set()
        #: (actor, qid, window, epoch) whose submit already produced a
        #: foreign-window-write — the doorbell that follows it is the
        #: same root cause, not a second finding
        self._flagged: set[tuple[str, int, int, int]] = set()
        #: CQ ring shadows: id(state) -> [state, position, phase].  The
        #: state reference pins the object so ids cannot be recycled.
        self._cq_producers: dict[int, list] = {}
        self._cq_consumers: dict[int, list] = {}
        #: rings with a reported phase-violation: resync, don't cascade
        self._poisoned: set[int] = set()
        #: the ring states it was shown being created, id(state) ->
        #: (state, display name): only these are validated and counted
        self._rings: dict[int, tuple[t.Any, str]] = {}
        #: queue pair -> the started client that owns it
        self._owners: dict[t.Any, t.Any] = {}
        #: id(host memory) -> (memory, [(start, end, label), ...])
        self._hazards: dict[int, tuple[t.Any, list]] = {}
        #: id(pool) -> (pool, {cpu_addr: size})
        self._pools: dict[int, tuple[t.Any, dict[int, int]]] = {}
        sim.probe.subscribe(self)

    # -- wiring --------------------------------------------------------------

    def attach(self, managers=(), controllers=(), clients=(),
               telemetry=None):
        """Declare the components this run watches — before they start.

        Ring names, window ownership and memory regions are learnt from
        the ``lifecycle`` events of queue creation, ``manager.start()``
        and ``client.start()``; a component that is already up would be
        watched blind, so naming one raises instead of reporting a
        clean run that was never checked."""
        if telemetry is not None:
            self.telemetry = telemetry
        late = ([ctrl.name for ctrl in controllers if ctrl.sqs]
                + [f"manager:{mgr.device_id}" for mgr in managers
                   if mgr.admin is not None]
                + [client.name for client in clients if client._started])
        if late:
            raise ValueError(
                f"ShareSan attached after {', '.join(late)} started: their "
                f"rings, windows and regions were never seen")
        return self

    @property
    def clean(self) -> bool:
        return not self.findings

    def detectors_fired(self) -> set[str]:
        return {f.detector for f in self.findings}

    # -- reporting -----------------------------------------------------------

    def _bump(self, key: str, by: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + by

    def _span_context(self, ctrl, qid, cid) -> dict | None:
        if self.telemetry is None or qid is None or cid is None:
            return None
        span = self.telemetry.spans.active(ctrl, qid, cid)
        if span is None:
            return None
        return {"index": span.index, "device": span.device,
                "op": span.op, "lba": span.lba}

    def _report(self, detector: str, message: str, *, actor: str = "",
                qid: int | None = None, window: int | None = None,
                epoch: int | None = None, cid: int | None = None,
                ctrl: t.Any = None) -> None:
        key = (detector, actor, qid, window, epoch, cid)
        found = self._index.get(key)
        if found is not None:
            found.count += 1
            return
        if len(self.findings) >= MAX_FINDINGS:
            self._bump("findings_overflow")
            return
        found = Finding(detector=detector, message=message,
                        time_ns=self.sim.now, actor=actor, qid=qid,
                        window=window, epoch=epoch, cid=cid,
                        span=self._span_context(ctrl, qid, cid))
        self._index[key] = found
        self.findings.append(found)

    def _add_region(self, host: str, start: int, length: int, kind: str,
                    owner: str) -> None:
        self.regions.append(Region(host=host, start=start,
                                   end=start + length, kind=kind,
                                   owner=owner))

    def _track_ring(self, state, name: str) -> None:
        self._rings[id(state)] = (state, name)

    def _ring_name(self, state) -> str:
        return self._rings[id(state)][1]

    # -- physical memory ------------------------------------------------------

    def on_mem_event(self, where, kind: str, addr: int, length: int) -> None:
        if kind == "write":
            self._mem_write(where, addr, length)
        elif kind == "read":
            self._bump("mem_reads")
        elif kind == "translate":
            self._bump("ntb_translations")
        elif kind == "pool":
            self._pool_created(where)
        elif kind == "alloc":
            self._pool_alloc(where, addr, length)
        else:
            self._pool_free(where, addr)

    def _mem_write(self, memory, addr: int, length: int) -> None:
        self._bump("mem_writes")
        entry = self._hazards.get(id(memory))
        if entry is None:
            return
        end = addr + length
        for start, stop, label in entry[1]:
            if addr < stop and end > start:
                self._report(
                    DET_DMA_FREED,
                    f"{length}-byte write to {addr:#x} lands in freed "
                    f"{label} allocation [{start:#x}, {stop:#x})",
                    actor=label)
                return

    # -- dmapool lifecycle ----------------------------------------------------

    def _pool_created(self, pool) -> None:
        self._bump("pools")
        self._pools[id(pool)] = (pool, {})
        self._add_region(pool.host.name, pool.cpu_base, pool.size,
                         "dmapool", pool.name)

    def _pool_alloc(self, pool, cpu_addr: int, size: int) -> None:
        self._bump("pool_allocs")
        entry = self._pools.get(id(pool))
        if entry is None:
            self._pool_created(pool)
            entry = self._pools[id(pool)]
        entry[1][cpu_addr] = size
        hazards = self._hazards.get(id(pool.host.memory))
        if hazards is not None:
            end = cpu_addr + size
            hazards[1][:] = [h for h in hazards[1]
                             if not (cpu_addr < h[1] and end > h[0])]

    def _pool_free(self, pool, cpu_addr: int) -> None:
        self._bump("pool_frees")
        entry = self._pools.get(id(pool))
        size = entry[1].pop(cpu_addr, None) if entry is not None else None
        if size is None:
            # Unknown (or double) free: the allocator raises its own
            # ValueError; nothing to quarantine.
            return
        mem = pool.host.memory
        hazards = self._hazards.get(id(mem))
        if hazards is None:
            hazards = (mem, [])
            self._hazards[id(mem)] = hazards
        hazards[1].append((cpu_addr, cpu_addr + size, pool.name))

    # -- queue-ring transitions ----------------------------------------------

    _RING_STAT = {"sq-advance": "sq_submissions", "sq-fetch": "sq_fetches",
                  "window-fetch": "window_fetches",
                  "cq-produce": "cq_produced", "cq-consume": "cq_consumed"}

    def on_ring_step(self, state, op: str) -> None:
        if id(state) not in self._rings:
            return
        self._bump(self._RING_STAT[op])
        if op == "cq-produce":
            self._check_ring(state, self._cq_producers, "producer",
                             state.tail)
        elif op == "cq-consume":
            self._check_ring(state, self._cq_consumers, "consumer",
                             state.head)

    def _check_ring(self, state, shadows: dict[int, list], side: str,
                    position: int) -> None:
        """Verify-then-advance one side of a CQ ring against its shadow.

        The hook runs *before* the state mutates, so the shadow holds
        exactly the (position, phase) the protocol mandates now.  On a
        mismatch the ring is reported once, poisoned (downstream
        detectors skip it — one root cause, one finding) and the shadow
        resynchronised."""
        key = id(state)
        shadow = shadows.get(key)
        if shadow is None:
            shadows[key] = shadow = [state, position, state.phase]
        elif key not in self._poisoned and (shadow[1] != position
                                            or shadow[2] != state.phase):
            self._report(
                DET_PHASE,
                f"{self._ring_name(state)} {side} at "
                f"(slot {position}, phase {state.phase}); the protocol "
                f"mandates (slot {shadow[1]}, phase {shadow[2]})",
                actor=self._ring_name(state), qid=state.qid)
            self._poisoned.add(key)
        if key in self._poisoned:
            shadow[1], shadow[2] = position, state.phase
        next_pos = (position + 1) % state.entries
        shadow[1] = next_pos
        shadow[2] = state.phase ^ 1 if next_pos == 0 else state.phase

    # -- controller ----------------------------------------------------------

    def on_doorbell_landed(self, controller, qid: int, is_cq: bool,
                           value: int, ok: bool) -> None:
        self._bump("cq_doorbells" if is_cq else "sq_doorbells")

    def _queue_created(self, controller, kind: str, state, windows) -> None:
        self._bump("controller_queues")
        self._track_ring(state, f"nvme/{kind}{state.qid}")
        for win in windows or ():
            self._track_ring(win, f"nvme/sq{state.qid}/win{win.index}")
        entry_bytes = 64 if kind == "sq" else 16
        self._add_region(controller.host.name, state.base_addr,
                         state.entries * entry_bytes,
                         f"shared-{kind}-ring" if windows is not None
                         else f"{kind}-ring", "controller")

    # -- client --------------------------------------------------------------

    def _client_started(self, client) -> None:
        self._bump("clients")
        self._owners[client._qp] = client
        self._track_ring(client.sq, f"{client.name}/sq{client.qid}")
        self._track_ring(client.cq, f"{client.name}/cq{client.qid}")
        self._add_region(client.node.host.name,
                         client._cq_seg.phys_addr, client._cq_seg.size,
                         "shared-cq-mailbox" if client._shared
                         else "cq-ring", client.name)
        self._add_region(client.node.host.name,
                         client._bounce_seg.phys_addr,
                         client._bounce_seg.size, "bounce", client.name)

    def on_sqe_issued(self, qp, sqe, slot: int, store, request) -> None:
        client, cid = self._owners.get(qp), sqe.cid
        if client is None:
            return
        self._bump("submissions")
        self._completed.discard((id(client), cid))
        if not client._shared:
            return
        qid, widx = client.qid, client._tenant
        win = self._windows.get((qid, widx))
        if win is None:
            return
        foreign = win.quarantined or win.owner != client.slot_index
        if foreign:
            owner = ("quarantined (draining a predecessor)"
                     if win.quarantined and win.owner is None
                     else f"owned by slot {win.owner}"
                     if win.owner is not None else "released")
            self._report(
                DET_FOREIGN_WINDOW,
                f"{client.name} (slot {client.slot_index}) wrote SQE "
                f"{cid:#x} into window {widx} of shared qid {qid}, "
                f"which is {owner} at epoch {win.epoch}",
                actor=client.name, qid=qid, window=widx,
                epoch=win.epoch)
            self._flagged.add((client.name, qid, widx, win.epoch))
        self._inflight[(qid, cid)] = (client.slot_index, win.epoch,
                                      foreign)

    def on_doorbell_rung(self, qp, ticket, request) -> None:
        # Only a tenant's pair rings through its own ``ring`` step (a
        # private pair rings the SQ tail): windows exist on shared QPs
        # alone.
        client = self._owners.get(qp)
        if qp.ring is None or client is None:
            return
        self._bump("doorbells")
        win = self._windows.get((client.qid, client._tenant))
        if win is None or (not win.quarantined
                           and win.owner == client.slot_index):
            return
        if (client.name, client.qid, client._tenant,
                win.epoch) in self._flagged:
            return   # companion of an already-reported foreign write
        holder = ("expired" if win.owner is None
                  else f"granted to slot {win.owner}")
        self._report(
            DET_STALE_DOORBELL,
            f"{client.name} (slot {client.slot_index}) rang the shared "
            f"doorbell for window {win.index} of qid {client.qid}, but "
            f"its lease on the window is {holder} (epoch {win.epoch})",
            actor=client.name, qid=client.qid, window=win.index,
            epoch=win.epoch)

    def on_cqe_seen(self, qp, cqe, waiter) -> None:
        client = self._owners.get(qp)
        if client is None:
            return
        self._bump("dispatches")
        if id(client.cq) in self._poisoned:
            return   # the phase-violation already owns this ring
        key = (id(client), cqe.cid)
        if key in self._completed:
            self._report(
                DET_DOUBLE_COMPLETION,
                f"{client.name} received a second completion for cid "
                f"{cqe.cid:#x} (status {cqe.status:#x})",
                actor=client.name, qid=client.qid, cid=cqe.cid,
                ctrl=qp.ctrl)
        else:
            self._completed.add(key)

    # -- manager -------------------------------------------------------------

    def _manager_started(self, manager) -> None:
        self._bump("managers")
        seg = manager.metadata_segment
        self._add_region(manager.node.host.name, seg.phys_addr, seg.size,
                         "metadata", "manager")
        admin = manager.admin
        if admin is not None and hasattr(admin, "sq"):
            self._track_ring(admin.sq, "manager/adminsq")
            self._track_ring(admin.cq, "manager/admincq")

    def _shared_qp(self, manager, qp) -> None:
        self._bump("shared_qps")
        self._track_ring(qp.cq, f"manager/sharedcq{qp.qid}")
        for widx in range(qp.nwindows):
            self._windows[(qp.qid, widx)] = _Window(qid=qp.qid,
                                                    index=widx)
        self._add_region(manager.node.host.name, qp.sq_seg.phys_addr,
                         qp.sq_seg.size, "shared-sq-ring", "manager")
        self._add_region(manager.node.host.name, qp.cq_seg.phys_addr,
                         qp.cq_seg.size, "shared-cq-ring", "manager")

    def on_lease_changed(self, manager, what: str, slot, qid: int,
                         widx: int, since_ns: int) -> None:
        if what == "granted":
            self._bump("window_grants")
            win = self._windows.setdefault((qid, widx),
                                           _Window(qid=qid, index=widx))
            win.owner = slot
            win.epoch += 1
            win.grants += 1
            win.quarantined = False
            self._track_ring(manager.shared_qps[qid].tenants[widx].ring,
                             f"manager/qid{qid}/win{widx}")
        elif what == "released":
            self._bump("window_releases")
            win = self._windows.get((qid, widx))
            if win is not None:
                win.owner = None
                win.quarantined = widx in manager.shared_qps[qid].draining
        elif what == "drained":
            self._bump("windows_drained")
            win = self._windows.get((qid, widx))
            if win is not None:
                win.quarantined = False

    def on_cqe_routed(self, manager, qp, cqe, widx: int, slot) -> None:
        if slot is None:        # orphan: dead or unknown tenant, dropped
            self._bump("cqes_orphaned")
            self._inflight.pop((qp.qid, cqe.cid), None)
            return
        self._bump("cqes_forwarded")
        issued = self._inflight.pop((qp.qid, cqe.cid), None)
        if issued is None or issued[2]:
            return   # untracked, or the submit was already the finding
        issuer, epoch, _ = issued
        if issuer != slot:
            self._report(
                DET_MISDELIVERY,
                f"CQE for cid {cqe.cid:#x} (issued by slot {issuer} at "
                f"window epoch {epoch}) was forwarded to slot {slot} "
                f"in window {widx} of qid {qp.qid}",
                actor=f"slot{slot}", qid=qp.qid, window=widx,
                epoch=epoch, cid=cqe.cid, ctrl=qp.demux.ctrl)

    def on_recovery(self, source, action: str, **detail) -> None:
        if action == "lease-reclaim":
            self._bump("leases_revoked")

    _LIFECYCLE = {"queue-created": _queue_created,
                  "client-started": _client_started,
                  "manager-started": _manager_started,
                  "shared-qp-created": _shared_qp}

    def on_lifecycle(self, component, what: str, *detail) -> None:
        if what in self._LIFECYCLE:
            self._LIFECYCLE[what](self, component, *detail)
        elif what in ("client-shutdown", "client-crashed"):
            self._bump("clients_" + what.removeprefix("client-"))

    # -- summaries -----------------------------------------------------------

    def window_map(self) -> list[dict[str, t.Any]]:
        out = []
        for (qid, widx) in sorted(self._windows):
            win = self._windows[(qid, widx)]
            out.append({"qid": qid, "window": widx, "owner": win.owner,
                        "epoch": win.epoch, "grants": win.grants,
                        "quarantined": win.quarantined})
        return out
