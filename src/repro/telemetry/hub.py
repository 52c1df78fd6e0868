"""The telemetry hub: spans, metrics and what they are collected from.

A :class:`Telemetry` instance bundles the span recorder and the metrics
registry.  It has two sides:

* **push** — creating a hub subscribes it to the simulator's probe
  (:mod:`repro.sim.probe`); the ``on_<event>`` methods at the bottom of
  the class stamp span boundaries, record arbitration waits, RPC
  service times and per-tenant latency histograms.  Only components
  handed to :meth:`Telemetry.attach` are recorded;
* **pull** — ``telemetry.attach(fabric=..., controllers=[...],
  clients=[...], managers=[...], ntbs=[...], faults=...)`` also
  registers the components whose cheap always-on integer accounting
  (``fabric.posted_writes``, ``client.retries``, ...)
  :meth:`Telemetry.collect` scrapes into the registry on demand — so
  metrics add no per-I/O cost beyond the span marks.
"""

from __future__ import annotations

import typing as t

from ..sim.stats import iops as _iops
from .hist import QUANTILES, LatencyHistograms, LogHistogram
from .metrics import MetricsRegistry
from .perfetto import spans_to_perfetto
from .prometheus import registry_to_prometheus
from .slo import SloEngine, SloSpec
from .spans import IoSpan, SpanRecorder
from .timeseries import (DEFAULT_CAPACITY, DEFAULT_INTERVAL_NS, SeriesBank,
                         TelemetrySampler)

if t.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class Telemetry:
    """Spans + metrics + the component set they are collected from."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        #: per-(tenant, op, device) latency histograms — opt-in
        #: (:meth:`enable_histograms`), like everything time-series
        self.hists: LatencyHistograms | None = None
        #: windowed sampler over the attached components — opt-in
        self.sampler: TelemetrySampler | None = None
        #: SLO burn-rate engine riding on the sampler — opt-in
        self.slo: SloEngine | None = None
        self._fabric: t.Any = None
        self._ntbs: list[t.Any] = []
        self._controllers: list[t.Any] = []
        self._clients: list[t.Any] = []
        self._devices: list[t.Any] = []
        self._managers: list[t.Any] = []
        self._volumes: list[t.Any] = []
        self._faults: t.Any = None
        #: (name, kind) -> last cumulative count, for windowed rates
        self._rate_prev: dict[tuple[str, str], tuple[int, int]] = {}
        #: owner -> the sampler sources' series handles, bound on first use
        self._bound: dict[t.Any, t.Any] = {}
        #: every attached component: the push side records only these
        self._watched: set[t.Any] = set()
        sim.probe.subscribe(self)

    # -- wiring ------------------------------------------------------------

    def attach(self, fabric: t.Any = None,
               ntbs: t.Iterable[t.Any] = (),
               controllers: t.Iterable[t.Any] = (),
               clients: t.Iterable[t.Any] = (),
               devices: t.Iterable[t.Any] = (),
               managers: t.Iterable[t.Any] = (),
               volumes: t.Iterable[t.Any] = (),
               faults: t.Any = None) -> "Telemetry":
        """Register components for collection and for recording.
        Idempotent per component."""
        if fabric is not None:
            self._fabric = fabric
        if faults is not None:
            self._faults = faults
        for ntb in ntbs:
            self._add(self._ntbs, ntb)
        for ctrl in controllers:
            self._add(self._controllers, ctrl)
        for client in clients:
            self._add(self._clients, client)
            self._add(self._devices, client)   # clients are block devices
        for dev in devices:
            self._add(self._devices, dev)
        for mgr in managers:
            self._add(self._managers, mgr)
        for vol in volumes:
            self._add(self._volumes, vol)
            self._add(self._devices, vol)      # volumes are block devices
        return self

    def _add(self, bucket: list[t.Any], obj: t.Any) -> None:
        if obj not in bucket:
            bucket.append(obj)
        self._watched.add(obj)

    # -- time-series / SLO opt-ins -----------------------------------------

    def enable_histograms(self, sub_bits: int | None = None
                          ) -> LatencyHistograms:
        """Turn on per-(tenant, op, device) latency histograms."""
        if self.hists is None:
            self.hists = (LatencyHistograms(sub_bits)
                          if sub_bits is not None else LatencyHistograms())
        return self.hists

    def enable_sampler(self, interval_ns: int | None = None,
                       capacity: int = DEFAULT_CAPACITY,
                       start: bool = True) -> TelemetrySampler:
        """Turn on the windowed time-series sampler with the default
        source set (component gauges/rates plus, when histograms are
        enabled, windowed latency quantiles).  ``interval_ns`` (default
        1 ms) sticks even when ``enable_slo`` created the sampler first;
        re-timing one that already ticks raises.  ``start=True`` begins
        ticking immediately; remember :meth:`TelemetrySampler.stop`
        before a queue-draining ``sim.run()``."""
        if self.sampler is None:
            self.sampler = TelemetrySampler(
                self.sim, DEFAULT_INTERVAL_NS if interval_ns is None
                else interval_ns, capacity)
            self.sampler.add_source(self._sample_components)
            self.sampler.add_source(self._sample_hists)
        elif interval_ns is not None:
            self.sampler.set_interval(interval_ns)
        if start:
            self.sampler.start()
        return self.sampler

    def enable_slo(self, spec: SloSpec | None = None) -> SloEngine:
        """Turn on SLO burn-rate evaluation (implies histograms and the
        sampler — the engine is one more sampler source)."""
        if self.slo is None:
            hists = self.enable_histograms()
            sampler = self.enable_sampler(start=False)
            self.slo = SloEngine(spec or SloSpec(), hists)
            sampler.add_source(self.slo.sample)
        return self.slo

    # -- sampler sources ---------------------------------------------------

    def _windowed_rate(self, key: tuple[str, str], count: int,
                       now: int) -> float | None:
        """Per-second rate of a cumulative count since the last tick
        (None on the first tick — no window yet)."""
        prev = self._rate_prev.get(key)
        self._rate_prev[key] = (now, count)
        if prev is None or now <= prev[0]:
            return None
        return round((count - prev[1]) * 1e9 / (now - prev[0]), 3)

    def _sample_components(self, bank: SeriesBank, now: int) -> None:
        """Default source: gauges and windowed rates of the attached
        component set (pure reads — the determinism contract)."""
        bound = self._bound
        series = bank.series
        fabric = self._fabric
        if fabric is not None:
            if fabric not in bound:
                bound[fabric] = [series("fabric_bytes_total", kind=kind)
                                 for kind in ("posted", "nonposted")]
            for ts, total in zip(bound[fabric],
                                 (fabric.posted_bytes, fabric.read_bytes)):
                ts.append(now, total)
        for dev in self._devices:
            key = ("iops", dev.name)
            if dev not in bound:
                bound[dev] = series("io_completed_total", device=dev.name)
            bound[dev].append(now, dev.completed)
            rate = self._windowed_rate(key, dev.completed, now)
            if rate is not None:
                if key not in bound:
                    bound[key] = series("io_iops", device=dev.name)
                bound[key].append(now, rate)
        for client in self._clients:
            key = ("inflight", client)
            if key not in bound:
                bound[key] = series("client_inflight", client=client.name)
            bound[key].append(now, len(client._inflight))
        for ctrl in self._controllers:
            if ctrl not in bound:
                bound[ctrl] = [
                    series("nvme_queue_occupancy", ctrl=ctrl.name, queue=q)
                    for q in ("sq", "cq")]
            for ts, total in zip(bound[ctrl], ctrl.queue_occupancy()):
                ts.append(now, total)
        for vol in self._volumes:
            key = ("paths", vol)
            if key not in bound:
                bound[key] = [
                    series("cluster_paths_live", volume=vol.name),
                    *(series("cluster_path_health", volume=vol.name,
                             device_id=dev) for dev in vol.layout.devices)]
            for ts, value in zip(bound[key],
                                 (vol.live_paths, *vol.path_health())):
                ts.append(now, value)

    def _sample_hists(self, bank: SeriesBank, now: int) -> None:
        """Default source: windowed latency quantiles per histogram key
        (the buckets recorded into since the previous tick; empty
        windows emit nothing — there was no traffic to summarise)."""
        if self.hists is None:
            return
        bound = self._bound
        for key in self.hists.keys():
            hist = self.hists.hist(*key)
            window = hist.cut() if hist is not None else None
            if not window:
                continue
            if key not in bound:
                tenant, op, device = key
                bound[key] = [bank.series(f"latency_{label}_ns",
                                          tenant=tenant, op=op, device=device)
                              for _q, label in QUANTILES]
            for ts, value in zip(bound[key], hist.window_quantiles(window)):
                ts.append(now, value)

    # -- collection --------------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Scrape every attached component into the metrics registry."""
        m = self.metrics
        m.gauge_set("repro_sim_time_ns", self.sim.now,
                    help="current simulation time")
        if self._fabric is not None:
            self._collect_fabric(self._fabric)
        for ntb in self._ntbs:
            self._collect_ntb(ntb)
        for ctrl in self._controllers:
            self._collect_controller(ctrl)
        for dev in self._devices:
            self._collect_device(dev)
        for client in self._clients:
            self._collect_client(client)
        for mgr in self._managers:
            self._collect_manager(mgr)
        for vol in self._volumes:
            self._collect_volume(vol)
        if self._faults is not None:
            self._collect_faults(self._faults)
        if self.hists is not None:
            self._collect_hists(self.hists)
        return m

    def _collect_fabric(self, fabric: t.Any) -> None:
        m = self.metrics
        m.counter_set("repro_fabric_tlps_total", fabric.posted_writes,
                      help="transactions routed through the PCIe fabric",
                      kind="posted")
        m.counter_set("repro_fabric_tlps_total", fabric.reads,
                      kind="nonposted")
        m.counter_set("repro_fabric_bytes_total", fabric.posted_bytes,
                      help="payload bytes moved through the fabric",
                      kind="posted")
        m.counter_set("repro_fabric_bytes_total", fabric.read_bytes,
                      kind="nonposted")
        m.counter_set("repro_fabric_dropped_writes_total",
                      fabric.dropped_writes,
                      help="posted writes lost to injected faults")
        m.counter_set("repro_fabric_read_timeouts_total",
                      fabric.timed_out_reads,
                      help="non-posted reads that hit completion timeout")

    def _collect_ntb(self, ntb: t.Any) -> None:
        m = self.metrics
        m.counter_set("repro_ntb_translations_total", ntb.translations,
                      help="address translations through NTB LUT windows",
                      adapter=ntb.name)
        m.counter_set("repro_ntb_bytes_total", ntb.bytes_forwarded,
                      help="payload bytes crossing NTB windows",
                      adapter=ntb.name)
        m.gauge_set("repro_ntb_link_up", 1 if ntb.link_up else 0,
                    help="adapter cable state", adapter=ntb.name)
        m.counter_set("repro_ntb_link_transitions_total",
                      ntb.link_transitions,
                      help="cable down/up transitions", adapter=ntb.name)
        m.gauge_set("repro_ntb_windows", ntb.window_count(),
                    help="mapped LUT windows", adapter=ntb.name)

    def _collect_controller(self, ctrl: t.Any) -> None:
        m = self.metrics
        name = ctrl.name
        m.counter_set("repro_nvme_commands_completed_total",
                      ctrl.commands_completed,
                      help="commands completed by the controller",
                      ctrl=name)
        m.counter_set("repro_nvme_sqe_fetches_total", ctrl.fetches,
                      help="SQE fetch DMA reads issued", ctrl=name)
        m.counter_set("repro_nvme_fetch_retries_total",
                      ctrl.fetch_retries,
                      help="SQE fetches retried after fabric faults",
                      ctrl=name)
        m.counter_set("repro_nvme_bad_doorbells_total",
                      ctrl.bad_doorbells,
                      help="doorbell writes to dead or invalid queues",
                      ctrl=name)
        m.counter_set("repro_media_accesses_total", ctrl.media.reads,
                      help="media channel accesses", ctrl=name,
                      kind="read")
        m.counter_set("repro_media_accesses_total", ctrl.media.writes,
                      ctrl=name, kind="write")
        for qid in sorted(ctrl.sqs):
            sq = ctrl.sqs[qid]
            depth = (sq.db_tail - sq.state.head) % sq.state.entries
            m.gauge_set("repro_nvme_sq_depth",
                        depth, help="submission-queue backlog "
                        "(doorbell tail - fetch head)",
                        ctrl=name, qid=qid)
            # Fetch arbitration (docs/qos.md): a shared SQ's grants per
            # tenant window.
            for win in sq.windows or ():
                m.counter_set(
                    "repro_qos_grants_total",
                    sq.arbiter.grant_counts[win.index],
                    help="shared-SQ fetch grants per tenant window",
                    ctrl=name, qid=qid, window=win.index,
                    policy=sq.arbiter.policy)
        for qid in sorted(ctrl.cqs):
            cq = ctrl.cqs[qid]
            depth = (cq.state.tail - cq.db_head) % cq.state.entries
            m.gauge_set("repro_nvme_cq_depth",
                        depth, help="completion-queue entries not yet "
                        "acknowledged by the host", ctrl=name, qid=qid)

    def _collect_device(self, dev: t.Any) -> None:
        m = self.metrics
        m.counter_set("repro_io_completed_total", dev.completed,
                      help="block-layer requests completed",
                      device=dev.name)
        m.counter_set("repro_io_errors_total", dev.errors,
                      help="block-layer requests that failed",
                      device=dev.name)
        m.counter_set("repro_io_bytes_total", dev.bytes_moved,
                      help="payload bytes moved for successful I/O",
                      device=dev.name)
        if len(dev.latencies):
            m.summary_set("repro_io_latency_ns", dev.latencies.summary(),
                          help="block-layer end-to-end request latency",
                          device=dev.name)
        m.gauge_set("repro_io_iops", _iops(dev.completed, self.sim.now),
                    help="completed requests per simulated second",
                    device=dev.name)

    def _collect_client(self, client: t.Any) -> None:
        m = self.metrics
        name = client.name
        m.counter_set("repro_client_timeouts_total", client.timeouts,
                      help="commands that hit the client timeout",
                      client=name)
        m.counter_set("repro_client_retries_total", client.retries,
                      help="commands re-issued with a fresh cid",
                      client=name)
        m.counter_set("repro_client_stale_completions_total",
                      client.stale_completions,
                      help="late CQEs for already-retired cids",
                      client=name)
        m.gauge_set("repro_client_inflight", len(client._inflight),
                    help="commands awaiting completion", client=name)
        if client.qos_window is not None or client.throttled_ios:
            # Admission throttle (docs/qos.md); series appear only once
            # a clamp was ever applied, keeping qos-off exports
            # byte-identical.
            m.counter_set("repro_client_throttled_total",
                          client.throttled_ios,
                          help="submissions parked by the admission "
                          "throttle", client=name,
                          tenant=client.tenant)
            m.gauge_set("repro_client_qos_window",
                        client.qos_window if client.qos_window is not None
                        else 0,
                        help="current outstanding-command clamp "
                        "(0 = unthrottled)", client=name,
                        tenant=client.tenant)

    def _collect_manager(self, mgr: t.Any) -> None:
        m = self.metrics
        # Single-manager hubs keep the historical unlabeled series;
        # cluster hubs (several managers) label by device so the
        # per-backend series do not clobber each other.
        extra = ({"device_id": mgr.device_id}
                 if len(self._managers) > 1 else {})
        m.counter_set("repro_manager_rpcs_total", mgr.rpcs_served,
                      help="admin mailbox RPCs served", **extra)
        m.counter_set("repro_manager_leases_reclaimed_total",
                      mgr.leases_reclaimed,
                      help="dead clients reclaimed by the lease watchdog",
                      **extra)
        m.gauge_set("repro_manager_queues_in_use", mgr.queues_in_use,
                    help="I/O queue pairs currently allocated to clients",
                    **extra)
        m.counter_set("repro_manager_admission_rejections_total",
                      mgr.admission_rejections,
                      help="queue-pair requests refused with RPC_NO_QUEUES",
                      **extra)
        m.counter_set("repro_qp_cqes_forwarded_total", mgr.cqes_forwarded,
                      help="shared-CQ entries demuxed into tenant mailboxes",
                      **extra)
        m.counter_set("repro_qp_cqes_orphaned_total", mgr.cqes_orphaned,
                      help="shared-CQ entries for dead/unknown tenants",
                      **extra)
        for qid in sorted(mgr.shared_qps):
            qp = mgr.shared_qps[qid]
            m.gauge_set("repro_qp_tenants", qp.tenant_count,
                        help="tenants admitted onto a shared queue pair",
                        qid=qid, **extra)
            m.gauge_set("repro_qp_windows_free", qp.free_windows,
                        help="unreserved slot windows on a shared queue pair",
                        qid=qid, **extra)

    def _collect_volume(self, vol: t.Any) -> None:
        m = self.metrics
        name = vol.name
        m.counter_set("repro_cluster_failovers_total", vol.failovers,
                      help="reads redirected to a surviving replica",
                      volume=name)
        m.counter_set("repro_cluster_path_errors_total", vol.path_errors,
                      help="host-status failures observed on member paths",
                      volume=name)
        m.counter_set("repro_cluster_degraded_writes_total",
                      vol.degraded_writes,
                      help="writes that landed on fewer replicas than "
                      "configured", volume=name)
        m.gauge_set("repro_cluster_paths_live", vol.live_paths,
                    help="member paths in the ANA optimized state",
                    volume=name)
        m.gauge_set("repro_cluster_paths", vol.layout.width,
                    help="member paths configured", volume=name)

    def _collect_faults(self, faults: t.Any) -> None:
        m = self.metrics
        for kind in sorted(faults.injected):
            m.counter_set("repro_faults_injected_total",
                          faults.injected[kind],
                          help="fault decisions taken by the registry",
                          kind=kind)

    def _collect_hists(self, hists: LatencyHistograms) -> None:
        m = self.metrics
        for key in hists.keys():
            tenant, op, device = key
            hist = hists.hist(*key)
            if hist is not None:
                m.histogram_set("repro_io_latency_hist_ns", hist,
                                help="per-tenant end-to-end request "
                                "latency (log-bucketed)",
                                tenant=tenant, op=op, device=device)
            errors = hists.errors(*key)
            if errors:
                m.counter_set("repro_io_tenant_errors_total", errors,
                              help="failed requests per tenant/op/device",
                              tenant=tenant, op=op, device=device)

    # -- export ------------------------------------------------------------

    def perfetto_json(self) -> str:
        """Span timelines — plus sampled series as counter tracks when
        the sampler is on — as Chrome/Perfetto trace-event JSON."""
        bank = self.sampler.bank if self.sampler is not None else None
        return spans_to_perfetto(self.spans.spans, bank)

    def prometheus_text(self, collect: bool = True) -> str:
        """Metrics snapshot as Prometheus text exposition."""
        if collect:
            self.collect()
        return registry_to_prometheus(self.metrics)

    def timeseries_jsonl(self) -> str:
        """Sampled series as JSONL (one line per sample; empty string
        when the sampler was never enabled)."""
        if self.sampler is None:
            return ""
        return self.sampler.bank.to_jsonl()

    def slo_report_json(self) -> str:
        """The SLO engine's compliance report as pretty JSON (empty
        string when SLO evaluation was never enabled)."""
        if self.slo is None:
            return ""
        return self.slo.report_json()

    # -- probe events (docs/observability.md) ------------------------------
    #
    # The per-I/O handlers do their work in their own frame: they build
    # and index the span, stamp its marks (``span.marks.append``, read
    # ``sim._now``) and bump histogram buckets without calling the
    # recorder's, the span's or the histogram's methods, which stay for
    # every other caller.  A posted write's mark piggybacks on its
    # delivery event: no queue entry, no RNG draw.  A plain local store
    # (None) has landed already; a dropped write (``callbacks`` None)
    # never does.

    def on_io_submitted(self, device, request) -> None:
        # hot-path
        if device in self._watched:
            spans = self.spans
            request.span = span = IoSpan(
                spans._next_index, device.name, request.op, request.lba,
                request.nblocks * device.lba_bytes, request.submit_time)
            spans._next_index += 1
            spans.spans.append(span)

    def on_io_completed(self, device, request) -> None:
        # hot-path
        if request.span is not None:
            request.span.end_ns = request.complete_time
        hists = self.hists
        if hists is None or device not in self._watched:
            return
        key = (device.tenant, request.op, device.name)
        if request.status:
            errors = hists._errors
            errors[key] = errors.get(key, 0) + 1
            return
        hist = hists._hists.get(key)
        if hist is None:
            hist = hists._hists[key] = LogHistogram(hists.sub_bits)
        value = request.complete_time - request.submit_time
        # LogHistogram.record, its bucket_index inline
        if value < hist._n_sub:
            idx = value
        else:
            exp = value.bit_length() - hist.sub_bits
            idx = hist._n_sub + (exp - 1) * hist._half \
                + ((value >> exp) - hist._half)
        counts = hist.counts
        counts[idx] = counts.get(idx, 0) + 1
        recent = hist.recent
        recent[idx] = recent.get(idx, 0) + 1
        hist.count += 1
        hist.total += value

    def on_sqe_issued(self, qp, sqe, slot, store, request) -> None:
        # hot-path
        span = request.span if request is not None else None
        if span is None:
            return
        # Published under the on-the-wire identity so the controller's
        # events find it; dropped when the waiter is released (the
        # timeout path, which retires the cid instead: on_recovery).
        qid, cid = qp.sq.qid, sqe.cid
        span.qid = qid
        span.cid = cid
        key = (qp.ctrl, qid, cid)
        active = self.spans._active
        active[key] = span
        qp.inflight[cid].callbacks.append(
            lambda _ev: active.pop(key, None))
        sim = self.sim
        marks = span.marks
        marks.append(("sqe-issued", sim._now))
        if store is None:
            marks.append(("sqe-delivered", sim._now))
        elif store.callbacks is not None:
            store.callbacks.append(
                lambda _ev: marks.append(("sqe-delivered", sim._now)))

    def on_doorbell_rung(self, qp, ticket, request) -> None:
        # hot-path
        span = request.span if request is not None else None
        if span is None:
            return
        sim = self.sim
        marks = span.marks
        if ticket is None:
            marks.append(("doorbell-delivered", sim._now))
        elif ticket.callbacks is not None:
            ticket.callbacks.append(
                lambda _ev: marks.append(("doorbell-delivered", sim._now)))

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at,
                       wait_ns) -> None:
        # hot-path
        if ctrl not in self._watched:
            return
        if win is not None:
            try:
                arb_wait = self._bound["arb-wait", ctrl, qid]
            except KeyError:
                arb_wait = self._bound["arb-wait", ctrl, qid] = \
                    self.metrics.recorder(
                        "repro_nvme_arb_wait_ns",
                        help="time an SQE head waited for shared-SQ "
                        "arbitration before its fetch was granted",
                        ctrl=ctrl.name, qid=qid)
            arb_wait.record(wait_ns)
        span = self.spans._active.get((ctrl, qid, sqe.cid))
        if span is not None:
            if win is not None:
                span.marks.append(("arb-granted", granted_at))
            span.marks.append(("fetched", self.sim._now))

    def on_media_done(self, ctrl, qid, cid) -> None:
        # hot-path
        if ctrl in self._watched:
            span = self.spans._active.get((ctrl, qid, cid))
            if span is not None:
                span.marks.append(("media-done", self.sim._now))

    def on_cqe_posted(self, ctrl, qid, cid, status) -> None:
        # hot-path
        if ctrl in self._watched:
            span = self.spans._active.get((ctrl, qid, cid))
            if span is not None:
                span.marks.append(("cqe-delivered", self.sim._now))

    def on_recovery(self, source, action, **detail) -> None:
        if action == "timeout":         # source: the command core
            self.spans.unbind(source.ctrl, source.qid, detail["cid"])

    def on_lease_changed(self, manager, what, slot, qid, widx,
                         since_ns) -> None:
        if widx < 0 and manager in self._watched:      # an RPC, answered
            self.metrics.observe(
                "repro_manager_rpc_latency_ns", self.sim.now - since_ns,
                help="admin mailbox RPC service time", op=what)
