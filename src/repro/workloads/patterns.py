"""Realistic workload patterns (the paper's future-work validation:
"performing experiments using our driver for more general use, such as
... realistic workloads").

Beyond fio's uniform-random synthetic load, these model the access
patterns real deployments put on shared block storage:

* :class:`ZipfianAccess` — skewed hot/cold block popularity (content
  stores, page caches under databases);
* :class:`BurstyArrivals` — ON/OFF traffic with think times instead of
  closed-loop saturation (interactive services);
* presets mirroring fio's classic profiles (``oltp``, ``webserver``,
  ``backup``) with mixed block sizes and read/write ratios.

All of it composes with any :class:`~repro.driver.blockdev.BlockDevice`.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from ..driver.blockdev import BlockDevice, BlockRequest
from ..sim import LatencyRecorder, Simulator


@dataclasses.dataclass(frozen=True)
class ZipfianAccess:
    """Zipf-distributed block popularity over a working set."""

    region_lbas: int
    alpha: float = 1.2
    hot_slots: int = 4096

    def sampler(self, rng: np.random.Generator,
                lba_per_io: int) -> t.Callable[[], int]:
        slots = min(self.hot_slots, self.region_lbas // lba_per_io)
        if slots < 1:
            raise ValueError("region too small for one I/O")
        # Precompute the pmf once (guides: vectorise, no per-op setup).
        ranks = np.arange(1, slots + 1, dtype=np.float64)
        pmf = ranks ** -self.alpha
        pmf /= pmf.sum()
        # Random permutation so "hot" blocks are scattered over the
        # region rather than clustered at LBA 0.
        placement = rng.permutation(slots)

        def sample() -> int:
            rank = rng.choice(slots, p=pmf)
            return int(placement[rank]) * lba_per_io

        return sample


@dataclasses.dataclass(frozen=True)
class BurstyArrivals:
    """ON/OFF arrival process: bursts of back-to-back I/Os separated by
    exponential think times."""

    burst_len_mean: float = 8.0
    think_time_mean_ns: float = 200_000.0

    def next_burst(self, rng: np.random.Generator) -> tuple[int, int]:
        burst = max(1, int(rng.geometric(1.0 / self.burst_len_mean)))
        think = int(rng.exponential(self.think_time_mean_ns))
        return burst, think


@dataclasses.dataclass(frozen=True)
class MixedBlockProfile:
    """A named profile: (bs, weight, read_fraction) triples."""

    name: str
    mix: tuple[tuple[int, float, float], ...]

    def sampler(self, rng: np.random.Generator
                ) -> t.Callable[[], tuple[int, bool]]:
        sizes = np.array([m[0] for m in self.mix])
        weights = np.array([m[1] for m in self.mix], dtype=np.float64)
        weights /= weights.sum()
        read_fracs = np.array([m[2] for m in self.mix])

        def sample() -> tuple[int, bool]:
            i = rng.choice(len(sizes), p=weights)
            is_read = rng.random() < read_fracs[i]
            return int(sizes[i]), bool(is_read)

        return sample


#: fio-style classic profiles.
PROFILES = {
    # OLTP: small random I/O, ~70/30 read/write
    "oltp": MixedBlockProfile("oltp", ((8192, 1.0, 0.7),)),
    # webserver: mostly reads, mixed sizes
    "webserver": MixedBlockProfile("webserver",
                                   ((4096, 0.65, 1.0),
                                    (16384, 0.25, 1.0),
                                    (65536, 0.10, 0.95))),
    # backup: large sequentialish writes
    "backup": MixedBlockProfile("backup", ((131072, 1.0, 0.05),)),
}


@dataclasses.dataclass
class PatternResult:
    name: str
    device_name: str
    ios: int
    bytes_moved: int
    elapsed_ns: int
    latencies: LatencyRecorder
    errors: int = 0

    @property
    def iops(self) -> float:
        return self.ios / (self.elapsed_ns / 1e9) if self.elapsed_ns else 0.0


def pattern_generator(device: BlockDevice, profile: MixedBlockProfile,
                      total_ios: int,
                      access: ZipfianAccess | None = None,
                      arrivals: BurstyArrivals | None = None,
                      concurrency: int = 4,
                      seed_stream: str = "pattern"
                      ) -> t.Generator[t.Any, t.Any, PatternResult]:
    """Run a profile against a device; returns a :class:`PatternResult`.

    ``concurrency`` bounds outstanding I/Os within a burst (open-loop
    up to that limit); with ``arrivals`` unset the load is closed-loop.
    """
    sim = device.sim
    rng = sim.rng.stream(f"{seed_stream}:{profile.name}:{device.name}")
    size_sampler = profile.sampler(rng)
    region = access.region_lbas if access else device.capacity_lbas
    region = min(region, device.capacity_lbas)

    result = PatternResult(profile.name, device.name, 0, 0, 0,
                           LatencyRecorder(profile.name))
    start = sim.now
    issued = {"n": 0}
    payload_cache: dict[int, bytes] = {}

    # Pre-bind the zipf sampler once (it precomputes a pmf); it samples
    # at the profile's smallest I/O granularity so every size stays
    # within the region.
    zipf_sample = None
    if access is not None:
        smallest_bs = min(m[0] for m in profile.mix)
        zipf_sample = access.sampler(rng,
                                     smallest_bs // device.lba_bytes)

    def make_request() -> BlockRequest:
        bs, is_read = size_sampler()
        lba_per_io = bs // device.lba_bytes
        if zipf_sample is not None:
            lba = zipf_sample()
            lba -= lba % lba_per_io            # align to this I/O's size
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

    def worker(sim: Simulator) -> t.Generator:
        while issued["n"] < total_ios:
            if arrivals is not None:
                burst, think = arrivals.next_burst(rng)
            else:
                burst, think = total_ios, 0
            for _ in range(burst):
                if issued["n"] >= total_ios:
                    break
                issued["n"] += 1
                request = make_request()
                completed = yield device.submit(request)
                if completed.ok:
                    result.ios += 1
                    result.latencies.record(completed.latency_ns)
                    if request.op != "flush":
                        result.bytes_moved += (request.nblocks
                                               * device.lba_bytes)
                else:
                    result.errors += 1
            if think and issued["n"] < total_ios:
                yield sim.timeout(think)

    workers = [sim.process(worker(sim)) for _ in range(concurrency)]
    yield sim.all_of(workers)
    result.elapsed_ns = sim.now - start
    return result


def run_pattern(device: BlockDevice, profile: MixedBlockProfile,
                total_ios: int, **kwargs) -> PatternResult:
    sim = device.sim
    proc = sim.process(pattern_generator(device, profile, total_ios,
                                         **kwargs))
    return sim.run(until=proc)
