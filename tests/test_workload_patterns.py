"""The application profiles are fio jobs: a size mix (``bssplit``), zipf
hot blocks (``zipf``) and the :data:`~repro.workloads.PROFILES` presets
built from them, issued by fio's worker records.

The generator they replaced — ``pattern_generator`` with its
``MixedBlockProfile`` and ``ZipfianAccess`` samplers, one process per
concurrent I/O — is kept here as the reference (``ReferencePattern``).
Both are driven through the presets and random mixes, with zipf on and
off, at iodepth 1-8, and must give the same requests, per-request
latencies, results, ``events_processed`` and stream states.  The budget
test pins the exact calls of one mix worker step."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .hostcost import cost
from repro.driver import BlockDevice, BlockRequest
from repro.scenarios import local_linux, ours_remote
from repro.sim import Event, LatencyRecorder, Simulator
from repro.workloads import PROFILES, FioJob, run_fio
from repro.workloads import fio

#: 20 examples in tier-1, 400 in CI (``REPRO_KERNEL_EXAMPLES=2000``)
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)


class NullDevice(BlockDevice):
    """Completes every request after 100 ns, logging ``(op, lba,
    nblocks)``."""

    def __init__(self, sim):
        super().__init__(sim, "null", lba_bytes=512, capacity_lbas=1 << 24,
                         queue_depth=8)
        self.log = []

    def _driver_submit(self, request):
        self.log.append((request.op, request.lba, request.nblocks))
        yield self.sim.timeout(100)


def logged_run(job, seed=1):
    device = NullDevice(Simulator(seed=seed))
    result = run_fio(device, job)
    return result, device.log


def mix_job(*bssplit, **fields):
    return FioJob(rw="randrw", bssplit=bssplit, **fields)


class TestZipfianAccess:
    def test_skewed_popularity(self, monkeypatch):
        monkeypatch.setattr(fio, "ZIPF_SLOTS", 512)
        _result, log = logged_run(mix_job(
            (4096, 1.0, 1.0), zipf=1.3, region_lbas=8192 * 8,
            total_ios=4000, iodepth=8), seed=300)
        draws = np.array([lba for _op, lba, _n in log])
        _values, counts = np.unique(draws, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Top 10% of blocks get the majority of accesses.
        top = counts[: max(1, len(counts) // 10)].sum()
        assert top > 0.45 * counts.sum()
        # All draws are aligned and in range: the ranked hot set.
        assert (draws % 8 == 0).all()
        assert draws.max() < 512 * 8

    def test_every_size_is_aligned_to_itself(self):
        _result, log = logged_run(mix_job(
            (4096, 1.0, 0.5), (65536, 1.0, 0.5), zipf=1.1,
            region_lbas=1 << 16, total_ios=400, iodepth=4), seed=309)
        assert {n for _op, _lba, n in log} == {8, 128}
        assert all(lba % n == 0 and lba + n <= 1 << 16
                   for _op, lba, n in log)

    def test_region_too_small(self):
        with pytest.raises(ValueError, match="region smaller"):
            logged_run(mix_job((4096, 1.0, 1.0), zipf=1.2, region_lbas=4))


class TestProfiles:
    def test_presets_exist(self):
        assert set(PROFILES) == {"oltp", "webserver", "backup"}
        assert all(job.name == name and job.seed_stream == "pattern"
                   for name, job in PROFILES.items())

    def test_profile_sampler_respects_mix(self):
        result, log = logged_run(dataclasses.replace(
            PROFILES["webserver"], total_ios=3000, iodepth=8), seed=303)
        sizes = np.array([n * 512 for _op, _lba, n in log])
        reads = np.array([op == "read" for op, _lba, _n in log])
        assert 0.55 < np.mean(sizes == 4096) < 0.75
        assert np.mean(reads) > 0.95
        assert result.bytes_moved == sizes.sum()

    def test_oltp_mix(self):
        _result, log = logged_run(dataclasses.replace(
            PROFILES["oltp"], total_ios=2000, iodepth=8), seed=304)
        assert all(n == 16 for _op, _lba, n in log)
        assert 0.62 < np.mean([op == "read" for op, _l, _n in log]) < 0.78


class TestRunPattern:
    def test_oltp_on_remote_device(self):
        scenario = ours_remote(seed=305)
        result = run_fio(scenario.device, dataclasses.replace(
            PROFILES["oltp"], total_ios=200, iodepth=4,
            region_lbas=1 << 20))
        assert result.ios == 200
        assert result.errors == 0
        assert result.iops > 0
        assert len(result.all_latencies()) == 200

    def test_backup_profile_moves_big_blocks(self):
        scenario = ours_remote(seed=307)
        result = run_fio(scenario.device, dataclasses.replace(
            PROFILES["backup"], total_ios=40, iodepth=4))
        assert result.bytes_moved == 40 * 131072
        assert result.errors == 0

    def test_custom_profile(self):
        scenario = ours_remote(seed=308)
        result = run_fio(scenario.device,
                         mix_job((512, 1.0, 0.5), total_ios=60))
        assert result.ios == 60


# -- the reference: the generator as it was ----------------------------------

def ReferencePattern(device, job):
    """``pattern_generator``: ``job.iodepth`` processes, each resuming
    once per I/O, drawing through the profile's and the zipf access's
    ``rng.choice(p=)`` samplers."""
    sim = device.sim
    rng = sim.rng.stream(f"{job.seed_stream}:{job.name}:{device.name}")
    mix = job.bssplit
    sizes = np.array([m[0] for m in mix])
    weights = np.array([m[1] for m in mix], dtype=np.float64)
    weights /= weights.sum()
    read_fracs = np.array([m[2] for m in mix])

    def size_sampler():
        i = rng.choice(len(sizes), p=weights)
        is_read = rng.random() < read_fracs[i]
        return int(sizes[i]), bool(is_read)

    region = min(job.region_lbas or device.capacity_lbas,
                 device.capacity_lbas)
    latencies = LatencyRecorder(job.name)
    result = {"ios": 0, "bytes_moved": 0, "errors": 0}
    start = sim.now
    issued = {"n": 0}
    payload_cache = {}

    zipf_sample = None
    if job.zipf is not None:
        smallest = min(m[0] for m in mix) // device.lba_bytes
        slots = min(fio.ZIPF_SLOTS, region // smallest)
        ranks = np.arange(1, slots + 1, dtype=np.float64)
        pmf = ranks ** -job.zipf
        pmf /= pmf.sum()
        placement = rng.permutation(slots)

        def zipf_sample():
            rank = rng.choice(slots, p=pmf)
            return int(placement[rank]) * smallest

    def make_request():
        bs, is_read = size_sampler()
        lba_per_io = bs // device.lba_bytes
        if zipf_sample is not None:
            lba = zipf_sample()
            lba -= lba % lba_per_io
        else:
            max_slot = max(1, region // lba_per_io)
            lba = int(rng.integers(0, max_slot)) * lba_per_io
        if is_read:
            return BlockRequest("read", lba=lba, nblocks=lba_per_io)
        payload = payload_cache.get(bs)
        if payload is None:
            payload = bytes(rng.integers(0, 256, bs, dtype=np.uint8))
            payload_cache[bs] = payload
        return BlockRequest("write", lba=lba, data=payload)

    def worker(sim):
        while issued["n"] < job.total_ios:
            issued["n"] += 1
            request = make_request()
            completed = yield device.submit(request)
            if completed.ok:
                result["ios"] += 1
                latencies.record(completed.latency_ns)
                result["bytes_moved"] += request.nblocks * device.lba_bytes
            else:
                result["errors"] += 1

    workers = [sim.process(worker(sim)) for _ in range(job.iodepth)]
    yield sim.all_of(workers)
    return (result["ios"], result["errors"], result["bytes_moved"],
            sim.now - start, sorted(latencies.values().tolist()))


def fio_outcome(device, job):
    result = yield from fio.fio_generator(device, job)
    return (result.ios, result.errors, result.bytes_moved,
            result.elapsed_ns, sorted(result.all_latencies().tolist()))


def play(body, rig, job, seed):
    """One job on a fresh rig: its outcome, every request's submit and
    completion, the event count and every stream's state."""
    device = (ours_remote(seed=seed, queue_depth=16) if rig == "ours-remote"
              else local_linux(seed=seed)).device
    sim, log = device.sim, []
    submit = device.submit

    def logging_submit(request, step=None):
        log.append((sim.now, "submit", request.op, request.lba,
                    request.nblocks))
        done = submit(request, step)
        done.callbacks.insert(0, lambda _done: log.append(
            (sim.now, "done", request.lba, request.latency_ns)))
        return done
    device.submit = logging_submit
    outcome = sim.run(until=sim.process(body(device, job)))
    draws = {name: gen.bit_generator.state
             for name, gen in sorted(sim.rng._streams.items())}
    return outcome, log, sim.events_processed, draws


SIZES = st.sampled_from((512, 4096, 8192, 16384, 65536, 131072))
MIXES = st.lists(st.tuples(SIZES, st.floats(0.05, 1.0), st.sampled_from(
    (0.0, 0.05, 0.5, 0.7, 0.95, 1.0))), min_size=1, max_size=3)
JOBS = st.one_of(
    st.sampled_from(sorted(PROFILES)).map(PROFILES.get),
    st.builds(lambda mix, zipf, region: FioJob(
        name="mix", rw="randrw", bssplit=tuple(mix), zipf=zipf,
        region_lbas=region, seed_stream="pattern"),
        MIXES, st.sampled_from((None, 0.6, 1.2)),
        st.sampled_from((None, 1 << 12, 1 << 16))))


class TestTheWorkersMatchTheReference:
    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(job=JOBS, iodepth=st.integers(1, 8), ios=st.integers(1, 40),
           rig=st.sampled_from(("local-linux", "ours-remote")),
           seed=st.integers(1, 50))
    @example(job=PROFILES["oltp"], iodepth=8, ios=40, rig="ours-remote",
             seed=1100)
    @example(job=PROFILES["webserver"], iodepth=8, ios=40,
             rig="ours-remote", seed=1101)
    @example(job=PROFILES["backup"], iodepth=8, ios=12, rig="ours-remote",
             seed=1102)
    def test_same_job_as_the_reference(self, job, iodepth, ios, rig, seed):
        job = dataclasses.replace(job, iodepth=iodepth, total_ios=ios)
        assert play(fio_outcome, rig, job, seed) \
            == play(ReferencePattern, rig, job, seed)


# -- budget ------------------------------------------------------------------

class _Stub:
    """A device that completes each request in the instant it is
    submitted, with a bare event."""

    def __init__(self, sim):
        self.sim, self.name = sim, "stub"
        self.lba_bytes, self.capacity_lbas = 512, 1 << 20

    def submit(self, request, step=None):
        request.submit_time = request.complete_time = self.sim._now
        done = Event(self.sim)
        if step is not None:
            done.callbacks = [step]
        done.succeed(request)
        return done


def step_calls(job):
    """Exact calls of one completion step past ``sim.step``'s frame,
    once the job is warm."""
    sim = Simulator(seed=1)
    sim.process(fio.fio_generator(_Stub(sim), job))
    for _ in range(8):
        sim.step()
    return cost(sim.step)[0] - cost(lambda: None)[0]


class TestMixWorkerCost:
    def test_one_mix_step(self):
        """One read of a two-size zipf mix past ``step``'s frame: the
        queue's ``pop``/``heappop``, ``_process``, ``_completed`` (``ok``,
        ``latency_ns``, the recorder's ``record``), ``_next``
        (``should_stop``, ``pick_op``, ``pick_lba``), the request's
        ``__init__`` and ``__post_init__`` and the stub's ``submit`` (the
        event's ``__init__``, born subscribed, ``succeed``,
        ``heappush``).  The mix's picks add only their two
        ``bisect_right`` searches, for the size and the zipf rank, to
        the plain job's step (numpy's draws are no calls to the
        profiler)."""
        mix = step_calls(mix_job((4096, 1.0, 1.0), (8192, 1.0, 1.0),
                                 zipf=1.2, region_lbas=1 << 16,
                                 total_ios=10 ** 6))
        plain = step_calls(FioJob(rw="randread", region_lbas=1 << 16,
                                  total_ios=10 ** 6))
        assert (mix, plain) == (19, 17)
