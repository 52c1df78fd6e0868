"""Storage-medium timing models.

:class:`OptaneMedia` models the Intel P4800X the paper benchmarks with:
3D-XPoint has near-constant access time regardless of read/write mix and
no garbage-collection pauses — the paper picked it because "its latency
is very consistent".  :class:`NandMedia` is provided for ablations (what
the comparison would look like on a TLC flash drive, with its wide
read/program asymmetry).

Parallelism is modelled as a pool of channels (a counted Resource): the
per-command media time is constant, so the drive's max IOPS is
``channels / access_time`` — calibrated to the P4800X's ~550-600 kIOPS.
An access is a ``channels`` grant held for :meth:`Media.access_ns`, then
released and counted with :meth:`Media.finish` (the controller's
command record walks these steps from callbacks).
"""

from __future__ import annotations

from ..config import MediaConfig
from ..sim import Resource, Simulator


class Media:
    """Base latency model; subclasses provide per-op timing draws."""

    def __init__(self, sim: Simulator, config: MediaConfig,
                 name: str = "media") -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.channels = Resource(sim, capacity=config.channels)
        self.reads = 0
        self.writes = 0
        self.media_errors = 0

    def access_ns(self, kind: str, nbytes: int) -> int:
        """How long one access holds the channel it was granted (a
        ``channels`` request): a draw.  ``kind`` is "read", "write" or
        "flush"; anything else raises ValueError."""
        raise NotImplementedError

    def finish(self, kind: str) -> bool:
        """Count an access whose channel time is over (the caller has
        released the channel).  True on success, False on an (injected)
        uncorrectable media error — a failed access still occupied the
        channel for its full duration, as a real drive's internal
        retries would."""
        # hot-path
        cfg = self.config
        if kind == "read":
            self.reads += 1
            rate = cfg.read_error_rate
        elif kind == "write":
            self.writes += 1
            rate = cfg.write_error_rate
        else:
            return True
        if rate > 0.0 and float(
                self.sim.rng.stream(f"{self.name}.errors").random()) < rate:
            self.media_errors += 1
            return False
        return True


class OptaneMedia(Media):
    """3D-XPoint: consistent, symmetric, low latency."""

    def access_ns(self, kind: str, nbytes: int) -> int:
        # hot-path: once per command, at its channel grant
        cfg = self.config
        if kind == "read":
            base = self.sim.rng.lognormal_ns(
                f"{self.name}.read", cfg.read_median_ns, cfg.sigma,
                cap=cfg.read_cap_ns)
        elif kind == "write":
            base = self.sim.rng.lognormal_ns(
                f"{self.name}.write", cfg.write_median_ns, cfg.sigma,
                cap=cfg.write_cap_ns)
        elif kind == "flush":
            # Optane has no volatile write cache to speak of.
            return 500
        else:
            raise ValueError(f"unknown media access kind: {kind}")
        extra = max(0, nbytes - 4096)
        return base + round(extra * cfg.per_byte_ns)


#: NAND timing: reads ~70 us, programs ~600 us median, heavy-tailed.
NAND_CONFIG = MediaConfig(
    name="nand-tlc",
    read_median_ns=68_000,
    write_median_ns=420_000,
    sigma=0.25,
    read_cap_ns=400_000,
    write_cap_ns=3_000_000,
    per_byte_ns=1.0 / 1.8,
    channels=16,
    lba_bytes=512,
    capacity_lbas=1_875_000_000,
)


class NandMedia(Media):
    """TLC flash: asymmetric and jittery (for ablation experiments)."""

    def __init__(self, sim: Simulator, config: MediaConfig = NAND_CONFIG,
                 name: str = "nand") -> None:
        super().__init__(sim, config, name)

    def access_ns(self, kind: str, nbytes: int) -> int:
        cfg = self.config
        if kind == "read":
            base = self.sim.rng.lognormal_ns(
                f"{self.name}.read", cfg.read_median_ns, cfg.sigma,
                cap=cfg.read_cap_ns)
        elif kind == "write":
            base = self.sim.rng.lognormal_ns(
                f"{self.name}.write", cfg.write_median_ns, cfg.sigma,
                cap=cfg.write_cap_ns)
        elif kind == "flush":
            return 20_000
        else:
            raise ValueError(f"unknown media access kind: {kind}")
        extra = max(0, nbytes - 4096)
        return base + round(extra * cfg.per_byte_ns)
