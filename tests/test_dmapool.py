"""DmaPool free/reuse lifecycle: double-free, use-after-free, reuse.

The pool is the memory every queue and bounce buffer is carved from, so
its lifecycle bugs are exactly the ones ShareSan's ``dma-freed-buffer``
detector exists for: a store landing in a freed allocation, the window
between free and reuse, and the hazard clearing on reuse.  The
allocator's own double-free diagnostics must survive the sanitizer
hooks unchanged (the hook observes, the allocator still raises).
"""

from __future__ import annotations

import pytest

from repro.driver.dmapool import DmaPool, local_pool
from repro.pcie.topology import Host
from repro.sanitizer import ShareSan
from repro.sim import Simulator


@pytest.fixture
def host():
    sim = Simulator(seed=3)
    return Host(sim, "h0", dram_size=1 << 24)


def test_alloc_returns_cpu_device_pair_with_constant_offset(host):
    pool = DmaPool(host, cpu_base=host.alloc_dma(1 << 16),
                   device_base=0x8000_0000, size=1 << 16, name="p")
    pairs = [pool.alloc(4096) for _ in range(3)]
    for cpu, dev in pairs:
        assert dev - cpu == pool.device_base - pool.cpu_base
        assert pool.to_device(cpu) == dev
    assert len({cpu for cpu, _ in pairs}) == 3


def test_to_device_rejects_foreign_address(host):
    pool = local_pool(host, 1 << 16)
    with pytest.raises(ValueError, match="outside the pool"):
        pool.to_device(pool.cpu_base - 8)


def test_double_free_raises_without_sanitizer(host):
    pool = local_pool(host, 1 << 16)
    cpu, _ = pool.alloc(4096)
    pool.free(cpu)
    with pytest.raises(ValueError, match="was not allocated here"):
        pool.free(cpu)


def test_double_free_still_raises_with_sanitizer(host):
    ShareSan(host.sim)
    pool = local_pool(host, 1 << 16)
    cpu, _ = pool.alloc(4096)
    pool.free(cpu)
    with pytest.raises(ValueError, match="was not allocated here"):
        pool.free(cpu)


def test_use_after_free_is_a_finding(host):
    san = ShareSan(host.sim)
    pool = local_pool(host, 1 << 16)
    cpu, _ = pool.alloc(4096)
    host.memory.write(cpu, b"live")          # in-lifetime store: fine
    assert san.clean
    pool.free(cpu)
    host.memory.write(cpu + 16, b"\xde\xad" * 8)
    assert san.detectors_fired() == {"dma-freed-buffer"}
    assert "freed" in san.findings[0].message


def test_reuse_clears_the_hazard(host):
    san = ShareSan(host.sim)
    pool = local_pool(host, 1 << 16)
    cpu, _ = pool.alloc(4096)
    pool.free(cpu)
    cpu2, _ = pool.alloc(4096)
    assert cpu2 == cpu                       # range allocator reuses
    host.memory.write(cpu2, b"fresh tenant") # no longer a hazard
    assert san.clean


def test_free_unknown_address_does_not_poison_hazards(host):
    san = ShareSan(host.sim)
    pool = local_pool(host, 1 << 16)
    cpu, _ = pool.alloc(4096)
    with pytest.raises(ValueError):
        pool.free(cpu + 64)                  # mid-allocation address
    host.memory.write(cpu, b"still live")
    assert san.clean


def test_pool_registers_a_region(host):
    san = ShareSan(host.sim)
    pool = local_pool(host, 1 << 16)
    regions = [r for r in san.regions if r.kind == "dmapool"]
    assert len(regions) == 1
    assert regions[0].start == pool.cpu_base
    assert regions[0].end == pool.cpu_base + pool.size
    assert regions[0].owner == pool.name
