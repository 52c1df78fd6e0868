"""Unit tests for media timing models and the namespace store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MediaConfig
from repro.nvme import NandMedia, Namespace, NamespaceError, OptaneMedia
from repro.sim import Simulator


def access(media, kind, nbytes):
    """One media access from a process: the channel grant, the hold for
    ``access_ns`` and ``finish`` that a controller's command walks."""
    grant = media.channels.request()
    yield grant
    yield media.sim.sleep(media.access_ns(kind, nbytes))
    media.channels.release(grant)
    return media.finish(kind)


class TestOptaneMedia:
    def _run_accesses(self, kind, n=200, nbytes=4096):
        sim = Simulator(seed=4)
        media = OptaneMedia(sim, MediaConfig(), name="m")
        durations = []

        def proc(sim):
            for _ in range(n):
                start = sim.now
                yield from access(media, kind, nbytes)
                durations.append(sim.now - start)

        sim.process(proc(sim))
        sim.run()
        return np.array(durations)

    def test_read_latency_consistent(self):
        lat = self._run_accesses("read")
        assert 6_400 < np.median(lat) < 7_400
        # Optane consistency: tight distribution
        assert lat.max() <= 9_000
        assert lat.std() / lat.mean() < 0.1

    def test_write_latency(self):
        lat = self._run_accesses("write")
        assert 7_200 < np.median(lat) < 8_200
        assert lat.max() <= 10_500

    def test_large_access_pays_per_byte(self):
        small = self._run_accesses("read", n=50, nbytes=4096)
        big = self._run_accesses("read", n=50, nbytes=128 * 1024)
        # 124 KiB extra at 2.4 B/ns ~ 52 us
        assert np.median(big) > np.median(small) + 40_000

    def test_channels_bound_parallelism(self):
        sim = Simulator(seed=4)
        media = OptaneMedia(sim, MediaConfig(channels=2), name="m")
        finish = []

        def proc(sim, tag):
            yield from access(media, "read", 4096)
            finish.append((tag, sim.now))

        for tag in range(4):
            sim.process(proc(sim, tag))
        sim.run()
        times = sorted(t for _, t in finish)
        # third and fourth accesses must wait for a free channel
        assert times[2] >= times[0] + 6_400
        assert times[3] >= times[1] + 6_400

    def test_flush_fast(self):
        lat = self._run_accesses("flush", n=10)
        assert lat.max() < 2_000

    def test_invalid_kind(self):
        sim = Simulator(seed=4)
        media = OptaneMedia(sim, MediaConfig())

        def proc(sim):
            yield from access(media, "erase", 4096)

        p = sim.process(proc(sim))
        with pytest.raises(ValueError):
            sim.run()

    def test_counters(self):
        sim = Simulator(seed=4)
        media = OptaneMedia(sim, MediaConfig())

        def proc(sim):
            yield from access(media, "read", 4096)
            yield from access(media, "write", 4096)

        sim.process(proc(sim))
        sim.run()
        assert media.reads == 1 and media.writes == 1


class TestNandMedia:
    def test_asymmetric_and_slower_than_optane(self):
        sim = Simulator(seed=6)
        nand = NandMedia(sim)
        reads, writes = [], []

        def proc(sim):
            for _ in range(50):
                start = sim.now
                yield from access(nand, "read", 4096)
                reads.append(sim.now - start)
            for _ in range(50):
                start = sim.now
                yield from access(nand, "write", 4096)
                writes.append(sim.now - start)

        sim.process(proc(sim))
        sim.run()
        assert np.median(reads) > 30_000          # much slower than Optane
        assert np.median(writes) > 4 * np.median(reads)  # asymmetry


class TestNamespace:
    def test_roundtrip(self):
        ns = Namespace(1, capacity_lbas=1000, lba_bytes=512)
        payload = bytes(range(256)) * 4   # 1024 bytes = 2 LBAs
        ns.write_blocks(10, payload)
        assert ns.read_blocks(10, 2) == payload

    def test_unwritten_reads_zero(self):
        ns = Namespace(1, capacity_lbas=1000)
        assert ns.read_blocks(0, 4) == bytes(4 * 512)

    def test_partial_overlap(self):
        ns = Namespace(1, capacity_lbas=1000)
        ns.write_blocks(0, b"\xaa" * 512)
        ns.write_blocks(2, b"\xbb" * 512)
        data = ns.read_blocks(0, 3)
        assert data[:512] == b"\xaa" * 512
        assert data[512:1024] == bytes(512)
        assert data[1024:] == b"\xbb" * 512

    def test_range_validation(self):
        ns = Namespace(1, capacity_lbas=100)
        with pytest.raises(NamespaceError):
            ns.read_blocks(99, 2)
        with pytest.raises(NamespaceError):
            ns.read_blocks(0, 0)
        with pytest.raises(NamespaceError):
            ns.write_blocks(100, b"\x00" * 512)
        with pytest.raises(NamespaceError):
            ns.write_blocks(0, b"\x00" * 100)   # not LBA multiple

    def test_sparse_storage(self):
        ns = Namespace(1, capacity_lbas=1 << 30)   # 512 GiB logical
        ns.write_blocks(1 << 20, b"\x01" * 512)
        assert ns.written_bytes() <= 2 * 4096

    def test_identify(self):
        ns = Namespace(1, capacity_lbas=1000, lba_bytes=512)
        ident = ns.identify()
        assert ident.nsze == 1000
        assert ident.lba_bytes == 512

    def test_constructor_validation(self):
        with pytest.raises(NamespaceError):
            Namespace(0, 100)
        with pytest.raises(NamespaceError):
            Namespace(1, 100, lba_bytes=500)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_write_read_property(self, data):
        ns = Namespace(1, capacity_lbas=256, lba_bytes=512)
        shadow = bytearray(256 * 512)
        for _ in range(data.draw(st.integers(1, 8))):
            slba = data.draw(st.integers(0, 250))
            nblocks = data.draw(st.integers(1, min(6, 256 - slba)))
            payload = data.draw(st.binary(min_size=nblocks * 512,
                                          max_size=nblocks * 512))
            ns.write_blocks(slba, payload)
            shadow[slba * 512:(slba + nblocks) * 512] = payload
        assert ns.read_blocks(0, 256) == bytes(shadow)
