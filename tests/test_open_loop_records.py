"""The open-loop issuer is a record (``workloads/open_loop.py::Issue``):
each arrival is a step of its owned timer, no process resumes per
arrival, and the record runs its waiter inline at the end.

The generator it replaced — ``issue``, fed by ``open_loop_generator``
through the ``arrival_times`` / ``takewhile`` / ``islice`` chain — is
kept here as the reference (``ReferenceIssue``,
``reference_open_loop_generator``).  Both are driven through the same
random jobs (every arrival model, with and without a binding in-flight
cap, one or two tenants), random raw schedules (arrivals due at the
same instant, the cap at 1) and a trace replay, and must give the same
issue times, draws, results, per-request latencies and
``events_processed``.  The budget tests pin the exact calls of one
arrival step and of each telemetry hub handler on its hot branch."""

import dataclasses
import itertools
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .hostcost import cost
from repro.driver import BlockRequest
from repro.scenarios import local_linux, multihost
from repro.sim import Event, LatencyRecorder, Simulator
from repro.telemetry import LogHistogram, Telemetry
from repro.workloads import (BlockTrace, OpenLoopJob, OpenLoopResult,
                             TraceEntry, open_loop_generator, replay_trace)
from repro.workloads import open_loop, replay
from repro.workloads.open_loop import issue, peak_rate, rate_at

#: 20 examples in tier-1, 400 in CI (``REPRO_KERNEL_EXAMPLES=2000``)
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)


# -- the reference: the generators as they were ------------------------------

def reference_arrival_times(job, rng):
    """``arrival_times``: Lewis-Shedler thinning as a generator."""
    lam_max = peak_rate(job)
    mean_gap_ns: float = 1e9 / lam_max
    now = 0
    while True:
        gap = int(rng.exponential(mean_gap_ns))
        now += gap if gap > 0 else 1
        rate = rate_at(job, now)
        if rate >= lam_max:
            yield now
        elif rate > 0.0 and rng.random() < rate / lam_max:
            yield now


def ReferenceIssue(device, schedule, inflight_cap, result):
    """``issue``: the open-loop issue loop as a process body."""
    sim = device.sim
    lba_bytes = device.lba_bytes
    record_open = result.latencies.record
    record_service = result.service_latencies.record
    start = sim.now
    inflight = 0
    wake = None
    limit = inflight_cap

    def completed(scheduled_at, request, _done):
        nonlocal inflight, wake
        inflight -= 1
        if wake is not None and inflight < limit:
            wake.succeed()
            wake = None
        result.completed += 1
        if request.ok:
            record_open(sim.now - scheduled_at)
            record_service(request.latency_ns)
            result.bytes_moved += request.nblocks * lba_bytes
        else:
            result.errors += 1

    for offset_ns, make_request in schedule:
        target = start + offset_ns
        if sim.now < target:
            yield sim.timeout(target - sim.now)
        if inflight >= inflight_cap:
            result.capped_arrivals += 1
            wake = sim.event()
            yield wake
        if sim.now > target:
            result.max_backlog_ns = max(result.max_backlog_ns,
                                        sim.now - target)
        request = make_request()
        device.submit(request).callbacks.append(
            partial(completed, target, request))
        inflight += 1
        result.issued += 1
    if inflight:
        limit = 1
        wake = sim.event()
        yield wake
    result.elapsed_ns = sim.now - start
    return result


def reference_open_loop_generator(device, job):
    """``open_loop_generator`` feeding ``ReferenceIssue``."""
    if job.bs % device.lba_bytes:
        raise ValueError(f"bs {job.bs} not a multiple of the LBA size")
    lba_per_io = max(1, job.bs // device.lba_bytes)
    region = job.region_lbas or device.capacity_lbas
    region = min(region, device.capacity_lbas)
    max_slot = region // lba_per_io
    if max_slot < 1:
        raise ValueError("region smaller than one I/O")
    rng = device.sim.rng.stream(f"{job.seed_stream}:{job.name}:{device.name}")
    result = OpenLoopResult(job, device.name,
                            LatencyRecorder(f"{job.name}-open"),
                            LatencyRecorder(f"{job.name}-svc"))
    base_payload = bytes(rng.integers(0, 256, size=job.bs,
                                      dtype=np.uint8))

    def make_request():
        if job.rw == "randrw":
            write = rng.integers(0, 100) >= job.rwmixread
        else:
            write = job.rw == "randwrite"
        lba = int(rng.integers(0, max_slot)) * lba_per_io
        if write:
            payload = (result.issued.to_bytes(8, "little")
                       + lba.to_bytes(8, "little") + base_payload[16:])
            return BlockRequest("write", lba=lba, data=payload)
        return BlockRequest("read", lba=lba, nblocks=lba_per_io)

    arrivals = reference_arrival_times(job, rng)
    if job.runtime_ns is not None:
        arrivals = itertools.takewhile(
            lambda arrival_ns: arrival_ns <= job.runtime_ns, arrivals)
    if job.total_arrivals is not None:
        arrivals = itertools.islice(arrivals, job.total_arrivals)
    return (yield from ReferenceIssue(
        device, ((arrival_ns, make_request) for arrival_ns in arrivals),
        job.inflight_cap, result))


# -- driving both ------------------------------------------------------------

def _logged(device, log):
    """Log ``(sim time, op, lba, nblocks)`` of every submission."""
    submit = device.submit

    def logging_submit(request, step=None):
        log.append((device.sim.now, device.name, request.op, request.lba,
                    request.nblocks))
        return submit(request, step)
    device.submit = logging_submit


def _outcome(sim, results, log):
    fields = [(r.issued, r.completed, r.errors, r.bytes_moved, r.elapsed_ns,
               r.max_backlog_ns, r.capped_arrivals,
               r.latencies.values().tolist(),
               r.service_latencies.values().tolist()) for r in results]
    draws = {name: gen.bit_generator.state
             for name, gen in sorted(sim.rng._streams.items())}
    return log, fields, draws, sim.events_processed


def play_jobs(reference, tenants, jobs, seed):
    rig = (local_linux(seed=seed) if tenants == 1
           else multihost(tenants, seed=seed, queue_depth=8))
    sim = rig.sim
    devices = [rig.device] if tenants == 1 else rig.clients
    log = []
    for device in devices:
        _logged(device, log)
    body = (reference_open_loop_generator if reference
            else open_loop_generator)
    procs = [sim.process(body(device, job))
             for device, job in zip(devices, jobs)]
    sim.run(until=sim.all_of(procs))
    return _outcome(sim, [proc.value for proc in procs], log)


def play_schedule(reference, ops, cap, seed):
    rig = local_linux(seed=seed)
    sim, device = rig.sim, rig.device
    log = []
    _logged(device, log)

    def make(op, lba, nblocks):
        if op == "write":
            return BlockRequest("write", lba=lba,
                                data=bytes([lba & 0xFF]) * (nblocks * 512))
        return BlockRequest("read", lba=lba, nblocks=nblocks)

    offset, schedule = 0, []
    for gap, op, lba, nblocks in ops:
        offset += gap
        schedule.append((offset, partial(make, op, lba, nblocks)))
    result = OpenLoopResult(None, device.name, LatencyRecorder("s"),
                            LatencyRecorder("s-svc"))
    body = ReferenceIssue if reference else issue
    proc = sim.process(body(device, iter(schedule), cap, result))
    assert sim.run(until=proc) is result
    return _outcome(sim, [result], log)


JOBS = st.builds(
    lambda arrival, rw, rate, bound, cap: OpenLoopJob(
        name="j", rw=rw, arrival=arrival, rate_iops=rate,
        total_arrivals=bound if bound < 1000 else None,
        runtime_ns=None if bound < 1000 else bound,
        inflight_cap=cap, region_lbas=1 << 16, burst_period_ns=40_000,
        diurnal_period_ns=100_000),
    arrival=st.sampled_from(open_loop.ARRIVAL_MODELS),
    rw=st.sampled_from(("randread", "randwrite", "randrw")),
    rate=st.sampled_from((50_000.0, 400_000.0, 2_000_000.0)),
    bound=st.one_of(st.integers(0, 30), st.integers(1000, 120_000)),
    cap=st.sampled_from((1, 2, 4, 256)))

OPS = st.lists(st.tuples(st.sampled_from((0, 0, 1, 700, 9_000)),
                         st.sampled_from(("read", "write")),
                         st.integers(0, 1 << 12), st.sampled_from((1, 8))),
               max_size=24)


class TestTheRecordMatchesTheGenerator:
    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(tenants=st.sampled_from((1, 2)), jobs=st.lists(
        JOBS, min_size=2, max_size=2), seed=st.integers(1, 50))
    @example(tenants=1, jobs=[OpenLoopJob(
        name="j", rate_iops=2_000_000.0, total_arrivals=40,
        inflight_cap=2, region_lbas=1 << 16)] * 2, seed=3)
    @example(tenants=2, jobs=[OpenLoopJob(
        name="j", rw="randrw", arrival="bursty", rate_iops=400_000.0,
        total_arrivals=None, runtime_ns=100_000, inflight_cap=1,
        region_lbas=1 << 16, burst_period_ns=40_000)] * 2, seed=4)
    @example(tenants=1, jobs=[OpenLoopJob(
        name="j", total_arrivals=0, region_lbas=1 << 16)] * 2, seed=5)
    def test_jobs(self, tenants, jobs, seed):
        jobs = [dataclasses.replace(jobs[i], name=f"j{i}")
                for i in range(tenants)]
        assert play_jobs(False, tenants, jobs, seed) \
            == play_jobs(True, tenants, jobs, seed)

    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(ops=OPS, cap=st.sampled_from((1, 2, 3, 64)),
           seed=st.integers(1, 50))
    @example(ops=[(0, "read", 0, 8)] * 5 + [(1, "write", 8, 1)]
             + [(0, "read", 16, 1)] * 3, cap=1, seed=6)
    @example(ops=[], cap=1, seed=7)
    def test_schedules(self, ops, cap, seed):
        assert play_schedule(False, ops, cap, seed) \
            == play_schedule(True, ops, cap, seed)

    @pytest.mark.parametrize("cap", (None, 2))
    def test_a_trace_replay(self, monkeypatch, cap):
        trace = BlockTrace([TraceEntry(at, op, lba, 8) for at, op, lba in (
            (0, "read", 0), (0, "write", 64), (500, "read", 8),
            (500, "read", 16), (501, "write", 24), (20_000, "read", 64),
            (20_000, "read", 72), (20_000, "read", 80))])

        def replayed():
            rig = local_linux(seed=11)
            log = []
            _logged(rig.device, log)
            result = replay_trace(rig.device, trace, speedup=2.0,
                                  inflight_cap=cap)
            return _outcome(rig.sim, [result], log)

        ours = replayed()
        monkeypatch.setattr(replay, "issue", ReferenceIssue)
        assert ours == replayed()
        assert ours[1][0][0] == len(trace)


# -- budgets -----------------------------------------------------------------

def calls(fn):
    """Exact calls of ``fn()`` past its own frame (``cost`` less the
    cost of an empty call)."""
    return cost(fn)[0] - cost(lambda: None)[0]


class _Stub:
    """A component the hub watches: plain attributes, hashable."""

    def __init__(self, **fields):
        vars(self).update(fields)


class TestIssuerCost:
    def test_one_arrival_step(self):
        """One arrival of a Poisson job past ``step``'s frame: the
        queue's ``pop``/``heappop``, ``_process``, ``_arrived``,
        ``_request`` (the request's ``__init__`` and
        ``__post_init__``), the submission (a bare event here, born
        subscribed: no ``append``), ``_next``, ``draw`` and
        ``_arm`` with its ``heappush`` (numpy's draws are no calls to
        the profiler).  The generator took 22: ``_resume``, ``send``,
        its two generator frames, the arrival chain's three frames,
        ``rate_at``, ``sleep`` and three ``sim.now`` where the record
        has ``_arrived``, ``_next``, ``draw`` and ``_arm``."""
        sim = Simulator(seed=1)

        def submit(_request, step):
            done = Event(sim)
            done.callbacks = [step]
            return done

        device = _Stub(sim=sim, name="stub", lba_bytes=512,
                       capacity_lbas=1 << 20, submit=submit)
        proc = sim.process(open_loop_generator(device, OpenLoopJob(
            rate_iops=100_000.0, total_arrivals=None, runtime_ns=10 ** 9)))
        sim.step()                      # boot: the first arrival armed
        assert type(proc._target) is open_loop._JobIssue
        assert sim.peek() > 0
        sim.step()                      # warm: the first arrival issued
        assert calls(sim.step) == 13
        assert device.sim.events_processed == 3


class TestHubHandlerCost:
    """Each per-I/O handler on its hot branch: the handler's frame plus
    the stores it keeps — no recorder, span or histogram method, no
    ``Simulator.now`` property."""

    @pytest.fixture
    def hub(self):
        sim = Simulator(seed=1)
        hub = Telemetry(sim)
        hub.enable_histograms()
        self.ctrl = _Stub(name="nvme0")
        self.device = _Stub(name="dev", lba_bytes=512, tenant="t0")
        hub.attach(controllers=[self.ctrl], devices=[self.device])
        self.request = BlockRequest("read", lba=0, nblocks=8)
        self.request.submit_time = 0
        self.waiter = Event(sim)
        self.qp = _Stub(ctrl=self.ctrl, sq=_Stub(qid=1),
                        inflight={5: self.waiter})
        self.sqe = _Stub(cid=5)
        hub.on_io_submitted(self.device, self.request)
        return hub

    def test_io_submitted(self, hub):
        # the handler, IoSpan.__init__, spans.append
        assert calls(lambda: hub.on_io_submitted(
            self.device, self.request)) == 3

    def test_sqe_issued_and_doorbell(self, hub):
        store, ticket = Event(hub.sim), Event(hub.sim)
        # the handler, three appends: unbind, mark, delivery callback
        assert calls(lambda: hub.on_sqe_issued(
            self.qp, self.sqe, 0, store, self.request)) == 4
        # the handler, the delivery callback's append
        assert calls(lambda: hub.on_doorbell_rung(
            self.qp, ticket, self.request)) == 2
        marks = self.request.span.marks
        store.callbacks[0](store)
        ticket.callbacks[0](ticket)
        assert [name for name, _at in marks] == [
            "sqe-issued", "sqe-delivered", "doorbell-delivered"]

    def test_controller_marks(self, hub):
        hub.on_sqe_issued(self.qp, self.sqe, 0, None, self.request)
        win = _Stub()
        hub.on_sqe_fetched(self.ctrl, 1, self.sqe, win, 0, 10)   # binds
        # the handler, the arbitration wait's record, the lookup and
        # two appends
        assert calls(lambda: hub.on_sqe_fetched(
            self.ctrl, 1, self.sqe, win, 0, 10)) == 5
        # the handler, the lookup, the mark's append
        assert calls(lambda: hub.on_media_done(self.ctrl, 1, 5)) == 3
        assert calls(lambda: hub.on_cqe_posted(self.ctrl, 1, 5, 0)) == 3
        self.waiter.succeed()
        hub.sim.run()                   # the waiter's event unbinds
        assert hub.spans.active(self.ctrl, 1, 5) is None

    def test_io_completed(self, hub):
        self.request.complete_time = 5_000
        hub.on_io_completed(self.device, self.request)   # the histogram
        # the handler, the histogram lookup, bit_length, two bucket gets
        assert calls(lambda: hub.on_io_completed(
            self.device, self.request)) == 5
        reference = LogHistogram()
        for value in (5_000, 5_000, 0, 1, 127, 128, 129, 255, 256, 4_097,
                      10 ** 6, 10 ** 9 + 7, 2 ** 40 - 1):
            self.request.complete_time = value
            if value != 5_000:
                hub.on_io_completed(self.device, self.request)
            reference.record(value)
        hist = hub.hists.hist("t0", "read", "dev")
        assert (hist.counts, hist.recent, hist.count, hist.total) == (
            reference.counts, reference.recent, reference.count,
            reference.total)
        self.request.status = 1
        hub.on_io_completed(self.device, self.request)
        assert hub.hists.errors("t0", "read", "dev") == 1
