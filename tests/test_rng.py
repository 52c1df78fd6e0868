"""Batched draws (:class:`repro.sim.BufferedDraw`) against the scalar
numpy draws they replace: every single-purpose stream on the per-I/O path
— media ``lognormal_ns``, SPDK ``uniform_ns`` jitter, the CQ poller's
jitter, a pure random fio job's LBAs — must serve the values, in the
order, that one ``Generator`` call per draw served, across batch
refills and across a hand-back to raw draws (:meth:`RngRegistry.release`).

The differentials shrink ``BufferedDraw.BATCH`` to a few values so a
handful of draws crosses several refills; ``test_real_batch_*`` cross the
real one.  Their size follows the kernel differential's: small here, large
in CI (``REPRO_KERNEL_EXAMPLES``).
"""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.driver.blockdev import BlockDevice
from repro.sim import BufferedDraw, Simulator
from repro.sim.rng import _name_key
from repro.workloads import FioJob, run_fio

from .test_qpair import Rig

#: examples per differential; CI's main job runs the marked tests with more
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)

differential = settings(max_examples=EXAMPLES, deadline=None, database=None,
                        derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])
batches = st.sampled_from([1, 2, 3, 5, 8, 256])


def scalar(seed, name):
    """The stream as the registry creates it, drawn one call at a time."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=_name_key(name)))


@contextlib.contextmanager
def batch_of(size):
    old = BufferedDraw.BATCH
    BufferedDraw.BATCH = size
    try:
        yield
    finally:
        BufferedDraw.BATCH = old


def scalar_lognormal(gen, median, sigma, cap):
    """``lognormal_ns`` as it drew before batching."""
    draw = float(gen.lognormal(mean=np.log(median), sigma=sigma))
    if cap is not None:
        draw = min(draw, cap)
    return max(0, round(draw))


class NullDevice(BlockDevice):
    """Completes every request after 100 ns, recording its LBA."""

    def __init__(self, sim):
        super().__init__(sim, "null", lba_bytes=512, capacity_lbas=1 << 24,
                         queue_depth=8)
        self.lbas = []

    def _driver_submit(self, request):
        self.lbas.append(request.lba)
        yield self.sim.sleep(100)


def scalar_fio_lbas(gen, job, max_slot, lba_per_io):
    """One job's payload draw, then one ``integers`` call per I/O."""
    gen.integers(0, 256, size=job.bs, dtype=np.uint8)
    return [int(gen.integers(0, max_slot)) * lba_per_io
            for _ in range(job.total_ios)]


@pytest.mark.kernel_differential
class TestBatchedEqualsScalar:
    @differential
    @given(seed=st.integers(0, 2**32 - 1), batch=batches,
           draws=st.lists(st.tuples(
               st.sampled_from([1_000, 8_000, 10_500, 68_000]),
               st.sampled_from([0.02, 0.05, 0.25]),
               st.one_of(st.none(), st.integers(1_000, 20_000))),
               max_size=24))
    def test_lognormal_ns(self, seed, batch, draws):
        with batch_of(batch):
            sim = Simulator(seed=seed)
            got = [sim.rng.lognormal_ns("media.read", *d) for d in draws]
        gen = scalar(seed, "media.read")
        assert got == [scalar_lognormal(gen, *d) for d in draws]

    @differential
    @given(seed=st.integers(0, 2**32 - 1), batch=batches,
           low=st.integers(0, 1_000), span=st.integers(1, 10**9),
           n=st.integers(0, 24))
    def test_uniform_ns(self, seed, batch, low, span, n):
        with batch_of(batch):
            sim = Simulator(seed=seed)
            got = [sim.rng.uniform_ns("spdk-recv-poll", low, low + span)
                   for _ in range(n)]
        gen = scalar(seed, "spdk-recv-poll")
        assert got == [int(gen.integers(low, low + span + 1))
                       for _ in range(n)]

    @differential
    @given(batch=batches, interval=st.integers(1, 3_000),
           n=st.integers(1, 12))
    def test_poller_jitter(self, batch, interval, n):
        """Each completion is noticed one jitter draw after its CQE
        lands (the Rig's simulator has seed 5)."""
        with batch_of(batch):
            rig = Rig(entries=4)
            rig.qp.poll("poll:test", interval)
            delays = []
            for cid in range(1, n + 1):
                done = rig.submit()
                rig.sim.run(until=rig.sim.timeout(1_000))
                landed = rig.sim.now
                rig.complete(cid)
                rig.sim.run(until=done)
                delays.append(rig.sim.now - landed)
        gen = scalar(5, "poll:test")
        assert delays == [int(gen.integers(0, interval + 1))
                          for _ in range(n)]

    @differential
    @given(seed=st.integers(0, 2**32 - 1), batch=batches,
           rw=st.sampled_from(["randread", "randwrite"]),
           blocks=st.sampled_from([1, 8, 128]),
           region=st.one_of(st.none(), st.integers(128, 1 << 20)),
           ios=st.tuples(st.integers(1, 12), st.integers(1, 12)))
    def test_fio_lbas(self, seed, batch, rw, blocks, region, ios):
        """Two jobs of one name in turn: the second draws its payload
        raw where the first job's single draws would have left the
        stream."""
        with batch_of(batch):
            sim = Simulator(seed=seed)
            device = NullDevice(sim)
            jobs = [FioJob(name="j", rw=rw, bs=512 * blocks, total_ios=n,
                           region_lbas=region) for n in ios]
            for job in jobs:
                run_fio(device, job)
        gen = scalar(seed, "fio:j:null")
        max_slot = min(region or device.capacity_lbas,
                       device.capacity_lbas) // blocks
        expected = [lba for job in jobs
                    for lba in scalar_fio_lbas(gen, job, max_slot, blocks)]
        assert device.lbas == expected


class TestRealBatch:
    def test_real_batch_uniform_and_lognormal(self):
        """600 draws cross the real batch twice."""
        sim = Simulator(seed=9)
        uniform = [sim.rng.uniform_ns("u", 100, 150) for _ in range(600)]
        lognormal = [sim.rng.lognormal_ns("m", 10_500, 0.05, cap=12_000)
                     for _ in range(600)]
        gen_u, gen_m = scalar(9, "u"), scalar(9, "m")
        assert uniform == [int(gen_u.integers(100, 151))
                           for _ in range(600)]
        assert lognormal == [scalar_lognormal(gen_m, 10_500, 0.05, 12_000)
                             for _ in range(600)]

    def test_release_continues_the_scalar_sequence(self):
        sim = Simulator(seed=4)
        served = [sim.rng.uniform_ns("s", 0, 999) for _ in range(300)]
        sim.rng.release("s")
        after = sim.rng.stream("s").integers(0, 1_000, size=10).tolist()
        gen = scalar(4, "s")
        assert served + after == gen.integers(0, 1_000, size=310).tolist()


class TestRegistryRefusesRawAccess:
    @pytest.mark.parametrize("batched", [
        lambda rng: rng.integers("s", 0, 10),
        lambda rng: rng.uniform_ns("s", 0, 10),
        lambda rng: rng.lognormal_ns("s", 1_000, 0.1),
    ], ids=["integers", "uniform_ns", "lognormal_ns"])
    def test_a_batched_stream_handed_out_raw_raises(self, batched):
        sim = Simulator(seed=1)
        batched(sim.rng)
        with pytest.raises(RuntimeError, match="served in batches"):
            sim.rng.stream("s")

    def test_a_batch_keeps_its_kind_and_bounds(self):
        sim = Simulator(seed=1)
        sim.rng.uniform_ns("s", 0, 9)
        with pytest.raises(ValueError, match="batched as"):
            sim.rng.uniform_ns("s", 0, 10)
        with pytest.raises(ValueError, match="batched as"):
            sim.rng.lognormal_ns("s", 1_000, 0.1)
        assert sim.rng.uniform_ns("s", 4, 4) == 4       # draws nothing
