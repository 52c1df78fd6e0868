"""Deterministic per-component random streams.

Every latency-jitter consumer (a switch chip, a media channel, a workload
generator) gets its *own* :class:`numpy.random.Generator`, derived from the
master seed and the component's name via ``SeedSequence.spawn``-style
hashing.  Adding a new component therefore never perturbs the stream of an
existing one, which keeps calibration stable as the model grows.

A stream with one kind of draw on the per-I/O path — a switch chip's
hop latency, a media channel's access time, a poller's jitter, a random
job's LBAs — is served in batches (:class:`BufferedDraw`): one numpy
call per :attr:`BufferedDraw.BATCH` draws instead of one per draw, with
the values and their order those single draws would have had.
"""

from __future__ import annotations

import math
import typing as t

import numpy as np


class BufferedDraw:
    """Batched draws from one stream: uniform integers in ``[lo, hi)``,
    or standard normals (``lo`` and ``hi`` None).

    ``gen.integers(lo, hi, size=N)`` and ``gen.standard_normal(N)``
    consume the underlying bit stream element-wise, so serving from a
    prefetched batch yields *bit-identical* values, in the same order,
    as the scalar calls it replaces — at a fraction of the per-draw
    cost.  One instance per stream is shared by every consumer of that
    stream, so the globally served sequence matches what per-call scalar
    draws in consumption order would produce.  The batch is converted
    to Python numbers up front: latencies must stay plain ``int`` (numpy
    scalars would leak into heap keys and exports).  A hot consumer
    reads ``buf[pos]`` and steps ``pos``; the ``IndexError`` past the
    batch's end is its cue to :meth:`refill`.  ``state`` is the bit
    generator's state before the current batch, for
    :meth:`RngRegistry.release`.
    """

    __slots__ = ("gen", "lo", "hi", "buf", "pos", "state")

    BATCH = 256

    def __init__(self, gen: np.random.Generator, lo: int | None,
                 hi: int | None) -> None:
        self.gen = gen
        self.lo = lo
        self.hi = hi              # exclusive, as numpy's integers()
        self.buf: list = []
        self.pos = 0
        self.state: dict | None = None

    def _fetch(self, n: int) -> np.ndarray:
        if self.hi is None:
            return self.gen.standard_normal(n)
        return self.gen.integers(self.lo, self.hi, size=n)

    def refill(self) -> t.Any:
        """Fetch the next batch and serve its first value."""
        self.state = self.gen.bit_generator.state
        self.buf = buf = self._fetch(self.BATCH).tolist()
        self.pos = 1
        return buf[0]


class RngRegistry:
    """Named, lazily created, independent random generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: streams served in batches; their generators are not handed out
        self._draws: dict[str, BufferedDraw] = {}
        #: median -> float(np.log(median)), lognormal_ns's mean
        self._logs: dict[float, float] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.
        A stream served in batches is refused: a raw draw would take
        values its batch already holds, out of order."""
        gen = self._streams.get(name)
        if gen is None:
            if name in self._draws:
                raise RuntimeError(
                    f"stream {name!r} is served in batches; draw through "
                    f"its BufferedDraw")
            seq = np.random.SeedSequence(entropy=self.seed,
                                         spawn_key=_name_key(name))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def integers(self, name: str, lo: int, hi: int) -> BufferedDraw:
        """Serve stream ``name`` in batches of uniform integers in
        ``[lo, hi)`` from now on (draws taken raw before stay taken)."""
        return self._batched(name, lo, hi)

    def _batched(self, name: str, lo: int | None,
                 hi: int | None) -> BufferedDraw:
        draw = self._draws.get(name)
        if draw is None:
            draw = BufferedDraw(self.stream(name), lo, hi)
            del self._streams[name]
            self._draws[name] = draw
        elif draw.lo != lo or draw.hi != hi:
            raise ValueError(
                f"stream {name!r} is batched as [{draw.lo}, {draw.hi}), "
                f"not [{lo}, {hi})")
        return draw

    def release(self, name: str) -> None:
        """Stop batching stream ``name``: its generator is handed out raw
        again, where single draws would have left it — rewound to before
        the current batch, then advanced past the values it served."""
        draw = self._draws.pop(name)
        if draw.state is not None:
            draw.gen.bit_generator.state = draw.state
            draw._fetch(draw.pos)
        self._streams[name] = draw.gen

    def uniform_ns(self, name: str, low: int, high: int) -> int:
        """Integer uniform draw in [low, high] from the named stream,
        which keeps those bounds from its first draw on (it is batched)."""
        # hot-path: the batch is read inline
        if high < low:
            raise ValueError("high < low")
        if high == low:
            return low
        draw = self._draws.get(name)
        if draw is None or draw.lo != low or draw.hi != high + 1:
            draw = self._batched(name, low, high + 1)
        try:
            value = draw.buf[draw.pos]
        except IndexError:
            return draw.refill()
        draw.pos += 1
        return value

    def bernoulli(self, name: str, p: float) -> bool:
        """One biased coin flip from the named stream.

        Degenerate probabilities short-circuit *without* consuming a
        draw, so plans with p=0 points leave every stream untouched.
        """
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return bool(self.stream(name).random() < p)

    def lognormal_ns(self, name: str, median: float, sigma: float,
                     cap: float | None = None) -> int:
        """Right-skewed latency draw with the given median (ns).

        Storage and software-path latencies are well described by a
        lognormal body; ``cap`` bounds pathological tails so short
        simulated runs stay representative of the paper's 60 s runs.
        The stream is batched as standard normals: ``exp(mean + sigma *
        z)`` with ``mean = float(np.log(median))`` is, bit for bit, what
        ``Generator.lognormal(mean, sigma)`` returns for the same ``z``.
        """
        # hot-path: the batch is read inline
        draw = self._draws.get(name)
        if draw is None or draw.hi is not None:
            draw = self._batched(name, None, None)
        try:
            z = draw.buf[draw.pos]
            draw.pos += 1
        except IndexError:
            z = draw.refill()
        mean = self._logs.get(median)
        if mean is None:
            mean = self._logs[median] = float(np.log(median))
        value = math.exp(mean + sigma * z)
        if cap is not None and value > cap:
            value = cap
        return max(0, round(value))


def _name_key(name: str) -> tuple[int, ...]:
    """Stable, platform-independent spawn key derived from a name."""
    # 4 x 32-bit words from a simple FNV-1a over UTF-8 bytes; this avoids
    # relying on PYTHONHASHSEED-dependent hash().
    data = name.encode("utf-8")
    words = []
    h = 0x811C9DC5
    for round_salt in (0x01, 0x9E, 0x3C, 0x75):
        h ^= round_salt
        for byte in data:
            h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
        words.append(h)
    return tuple(words)
