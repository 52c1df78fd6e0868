"""Mergeable log-bucketed latency histograms (HDR-style).

:class:`LogHistogram` stores integer-nanosecond observations in
*log-linear* buckets: values below ``2**sub_bits`` land in exact
single-value buckets, larger values in buckets whose relative width is
bounded by ``2 / 2**sub_bits`` (1.5625 % at the default ``sub_bits=7``).
Bucketing is pure integer arithmetic on the value's bit length, so two
runs that record the same values produce bit-identical histograms — no
floating point, no platform-dependent rounding.

Histograms are *mergeable* (:meth:`merge` adds counts) and
*subtractable* (:meth:`diff` against an earlier snapshot of the same
histogram yields the window in between) — the property the windowed
sampler (:mod:`.timeseries`) and the SLO burn-rate engine (:mod:`.slo`)
are built on: the hot path only ever increments a bucket counter, and
p50/p95/p99/p999 over any window fall out of snapshot differences at
sampling time.  The sampler's own tick-to-tick window needs no
snapshot: :meth:`cut`, :meth:`window_quantiles` and :meth:`rank_to`
read only the buckets recorded into since the last cut (``copy`` /
``diff`` / ``rank_le`` are the reference they are tested against).

Quantiles are deterministic by construction: :meth:`quantile` walks the
cumulative counts to the nearest-rank sample and returns that bucket's
exact integer upper bound.  The reported value therefore overstates the
true sample quantile by at most one bucket width (the documented
relative-error bound); it never understates it.

:class:`LatencyHistograms` keys one histogram per
``(tenant, op, device)`` and is what the telemetry hub exposes as
``Telemetry.hists``; per-command recording happens in the block layer
(:meth:`~repro.driver.blockdev.BlockDevice._completed`) with the tenant
label the driver client assigned.
"""

from __future__ import annotations

#: default sub-bucket resolution: 2**7 = 128 linear buckets per octave
#: below 128 ns, 64 per octave above -> <= 1.5625 % relative error.
DEFAULT_SUB_BITS = 7

#: exported quantiles: (fraction, series label)
QUANTILES: tuple[tuple[float, str], ...] = (
    (0.50, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p999"),
)
#: the same fractions in the micro-units :meth:`quantile` ranks by
_QUANTILE_MICROS = tuple(int(q * 1_000_000) for q, _label in QUANTILES)


class HistogramError(Exception):
    pass


class LogHistogram:
    """Sparse log-linear histogram of non-negative integer values."""

    __slots__ = ("sub_bits", "_n_sub", "_half", "counts", "count", "total",
                 "recent", "_ranks")

    def __init__(self, sub_bits: int = DEFAULT_SUB_BITS) -> None:
        if not 1 <= sub_bits <= 20:
            raise HistogramError(f"sub_bits {sub_bits} out of range")
        self.sub_bits = sub_bits
        self._n_sub = 1 << sub_bits
        self._half = self._n_sub >> 1
        #: bucket index -> observation count (sparse)
        self.counts: dict[int, int] = {}
        self.count = 0       # total observations
        self.total = 0       # exact integer sum of observed values
        #: bucket index -> count recorded since the last :meth:`cut`
        self.recent: dict[int, int] = {}
        #: bucket index -> observations at or below it, as of that cut
        self._ranks: dict[int, int] = {}

    # -- bucket arithmetic -------------------------------------------------

    def bucket_index(self, value: int) -> int:
        """Deterministic bucket index for an integer value."""
        if value < 0:
            raise HistogramError(f"negative value: {value}")
        if value < self._n_sub:
            return value
        exp = value.bit_length() - self.sub_bits
        return self._n_sub + (exp - 1) * self._half \
            + ((value >> exp) - self._half)

    def bucket_upper(self, index: int) -> int:
        """Largest value that maps to bucket ``index`` (exact inverse)."""
        if index < self._n_sub:
            return index
        exp = 1 + (index - self._n_sub) // self._half
        mantissa = self._half + (index - self._n_sub) % self._half
        return ((mantissa + 1) << exp) - 1

    # -- recording ---------------------------------------------------------

    def record(self, value_ns: int, count: int = 1) -> None:
        """Record ``count`` observations of an integer-ns value."""
        idx = self.bucket_index(value_ns)
        self.counts[idx] = self.counts.get(idx, 0) + count
        self.recent[idx] = self.recent.get(idx, 0) + count
        self.count += count
        self.total += value_ns * count

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def buckets(self) -> list[tuple[int, int]]:
        """Occupied ``(index, count)`` pairs in ascending index order."""
        return sorted(self.counts.items())

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile as the sample's bucket upper bound.

        Returns 0 for an empty histogram.  ``q`` is clamped to [0, 1];
        ``q == 0`` returns the smallest occupied bucket's upper bound.
        """
        if not self.count:
            return 0
        q = min(max(q, 0.0), 1.0)
        # Nearest-rank (1-based): ceil(q * count), at least 1.  The
        # fraction is quantised to micro-units first so the ceiling is
        # computed in exact integer arithmetic — 0.999 * 1000 must give
        # rank 999, not drift to 1000 through float representation.
        q_micro = int(q * 1_000_000)
        rank = max(1, (q_micro * self.count + 999_999) // 1_000_000)
        seen = 0
        for idx, cnt in self.buckets():
            seen += cnt
            if seen >= rank:
                return self.bucket_upper(idx)
        # Unreachable when counts are consistent; defensive:
        return self.bucket_upper(self.buckets()[-1][0])

    def rank_le(self, value: int) -> int:
        """Observations in buckets at or below ``value``'s bucket.

        Exact at bucket granularity: every recorded value shares its
        bucket, so the answer can overcount true ``<= value`` by at
        most the occupancy of ``value``'s own bucket.
        """
        limit = self.bucket_index(value)
        return sum(cnt for idx, cnt in self.counts.items() if idx <= limit)

    def cut(self) -> list[tuple[int, int]]:
        """Close the window open since the previous cut: its occupied
        ``(index, count)`` pairs, ascending — the buckets of ``diff``
        against a ``copy`` taken then, without reading any other."""
        window = sorted(self.recent.items())
        if window:
            self.recent = {}
            ranks = self._ranks
            for limit in ranks:
                for idx, cnt in window:
                    if idx > limit:
                        break
                    ranks[limit] += cnt
        return window

    def window_quantiles(self, window: list[tuple[int, int]]) -> list[int]:
        """:meth:`quantile` at each of :data:`QUANTILES` over a non-empty
        window of :meth:`cut`, in one pass over its buckets."""
        count = 0
        for _idx, cnt in window:
            count += cnt
        out, at, seen = [], 0, window[0][1]
        for q_micro in _QUANTILE_MICROS:
            rank = (q_micro * count + 999_999) // 1_000_000 or 1
            while seen < rank:
                at += 1
                seen += window[at][1]
            out.append(self.bucket_upper(window[at][0]))
        return out

    def rank_to(self, value: int) -> int:
        """:meth:`rank_le` as the rank at the last cut (kept by ``cut``;
        read in full on the first call) plus the open window's share."""
        limit = self.bucket_index(value)
        open_window = 0
        for idx, cnt in self.recent.items():
            if idx <= limit:
                open_window += cnt
        rank = self._ranks.get(limit)
        if rank is None:
            rank = self._ranks[limit] = self.rank_le(value) - open_window
        return rank + open_window

    # -- merge / diff ------------------------------------------------------

    def _check_compatible(self, other: "LogHistogram") -> None:
        if other.sub_bits != self.sub_bits:
            raise HistogramError(
                f"sub_bits mismatch: {self.sub_bits} vs {other.sub_bits}")

    def merge(self, other: "LogHistogram") -> None:
        """Add another histogram's counts into this one."""
        self._check_compatible(other)
        for idx, cnt in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + cnt
            self.recent[idx] = self.recent.get(idx, 0) + cnt
        self.count += other.count
        self.total += other.total

    def copy(self) -> "LogHistogram":
        dup = LogHistogram(self.sub_bits)
        dup.counts = dict(self.counts)
        dup.count = self.count
        dup.total = self.total
        return dup

    def diff(self, earlier: "LogHistogram") -> "LogHistogram":
        """The window between an earlier snapshot of *this* histogram
        and now (``self - earlier``).  Counts are monotone, so every
        per-bucket difference must be non-negative."""
        self._check_compatible(earlier)
        out = LogHistogram(self.sub_bits)
        for idx, prev in earlier.counts.items():
            if self.counts.get(idx, 0) < prev:
                raise HistogramError(
                    f"diff against a non-ancestor snapshot (bucket "
                    f"{idx}: {self.counts.get(idx, 0)} < {prev})")
        for idx, cnt in self.counts.items():
            delta = cnt - earlier.counts.get(idx, 0)
            if delta:
                out.counts[idx] = delta
        out.count = self.count - earlier.count
        out.total = self.total - earlier.total
        return out


#: histogram key: (tenant, op, device)
HistKey = tuple[str, str, str]


class LatencyHistograms:
    """Per-``(tenant, op, device)`` latency histograms plus error counts.

    Successful requests record their end-to-end latency; failed ones
    only bump the error counter (their latency is a property of the
    failure path, not of the service the tenant received).  The SLO
    engine counts an error as a burnt-budget event regardless of how
    fast it failed.
    """

    #: the bucket resolution of every histogram
    sub_bits = DEFAULT_SUB_BITS

    def __init__(self) -> None:
        self._hists: dict[HistKey, LogHistogram] = {}
        self._errors: dict[HistKey, int] = {}

    def record_io(self, tenant: str, op: str, device: str,
                  value_ns: int, ok: bool = True) -> None:
        """Record one completed request (hot path: dict lookup + int)."""
        key = (tenant, op, device)
        if not ok:
            self._errors[key] = self._errors.get(key, 0) + 1
            return
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LogHistogram(self.sub_bits)
        hist.record(value_ns)

    def keys(self) -> list[HistKey]:
        """Every key that recorded anything, sorted (deterministic)."""
        return sorted(set(self._hists) | set(self._errors))

    def hist(self, tenant: str, op: str, device: str
             ) -> LogHistogram | None:
        return self._hists.get((tenant, op, device))

    def errors(self, tenant: str, op: str, device: str) -> int:
        return self._errors.get((tenant, op, device), 0)

    def totals(self, key: HistKey) -> tuple[int, int]:
        """(successful observations, errors) for one key."""
        hist = self._hists.get(key)
        return (hist.count if hist is not None else 0,
                self._errors.get(key, 0))
