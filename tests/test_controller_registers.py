"""Controller register-file details: masking, shutdown, partial reads."""

import pytest

from repro.nvme import MSIX_TABLE_OFFSET
from repro.nvme.constants import (CSTS_SHST_COMPLETE, REG_CC, REG_CSTS,
                                  REG_INTMC, REG_INTMS)
from repro.nvme.registers import RegisterFile

from .nvme_harness import BareMetalDriver, build_single_host


def booted(seed=520):
    sim, cluster, fabric, host, ctrl = build_single_host(seed=seed)
    drv = BareMetalDriver(sim, fabric, host, ctrl)

    def boot(sim):
        yield from drv.enable()

    sim.run(until=sim.process(boot(sim)))
    return sim, fabric, host, ctrl, drv


class TestRegisterFile:
    def test_partial_and_offset_reads(self):
        regs = RegisterFile(1024, 4)
        cap = int.from_bytes(regs.read(0x00, 8), "little")
        # byte-sliced read of the same register agrees
        lo = int.from_bytes(regs.read(0x00, 4), "little")
        hi = int.from_bytes(regs.read(0x04, 4), "little")
        assert (hi << 32) | lo == cap

    def test_reserved_region_reads_zero(self):
        regs = RegisterFile(1024, 4)
        assert regs.read(0x38, 16) == bytes(16)
        assert regs.read(0x100, 4) == bytes(4)

    def test_admin_queue_attribute_decoding(self):
        regs = RegisterFile(1024, 4)
        regs.aqa = ((31 << 16) | 63)
        assert regs.admin_sq_entries == 64
        assert regs.admin_cq_entries == 32


class TestShutdownAndMasking:
    def test_shutdown_notification_sets_shst(self):
        sim, fabric, host, ctrl, drv = booted()

        def flow(sim):
            cc = yield from drv.reg_read(REG_CC)
            drv.reg_write(REG_CC, cc | (0b01 << 14))   # SHN normal
            yield sim.timeout(5_000)
            csts = yield from drv.reg_read(REG_CSTS)
            return csts

        csts = sim.run(until=sim.process(flow(sim)))
        assert csts & CSTS_SHST_COMPLETE

    def test_intms_blocks_msix_and_intmc_unblocks(self):
        sim, fabric, host, ctrl, drv = booted(seed=521)

        def flow(sim):
            mailbox = host.alloc_dma(4096)
            drv.reg_write(MSIX_TABLE_OFFSET + 0, mailbox & 0xFFFF_FFFF)
            drv.reg_write(MSIX_TABLE_OFFSET + 8, 0xBEEF)
            drv.reg_write(MSIX_TABLE_OFFSET + 12, 0)   # unmask entry
            drv.reg_write(REG_INTMS, 1)                # mask vector 0
            yield sim.timeout(3_000)
            yield from drv.identify_controller()        # admin CQ: vec 0
            yield sim.timeout(5_000)
            masked_value = host.memory.read_u32(mailbox)
            drv.reg_write(REG_INTMC, 1)                # unmask
            yield sim.timeout(1_000)
            yield from drv.identify_controller()
            yield sim.timeout(5_000)
            unmasked_value = host.memory.read_u32(mailbox)
            return masked_value, unmasked_value

        masked, unmasked = sim.run(until=sim.process(flow(sim)))
        assert masked == 0          # interrupt suppressed while masked
        assert unmasked == 0xBEEF   # delivered after INTMC

    def test_msix_table_readback(self):
        sim, fabric, host, ctrl, drv = booted(seed=522)

        def flow(sim):
            drv.reg_write(MSIX_TABLE_OFFSET + 16, 0x1234_5678)  # vec 1
            drv.reg_write(MSIX_TABLE_OFFSET + 24, 0x42)
            yield sim.timeout(2_000)
            data = yield fabric.read(
                host.rc, host, ctrl.bars[0].base + MSIX_TABLE_OFFSET + 16,
                16)
            return data

        data = sim.run(until=sim.process(flow(sim)))
        assert int.from_bytes(data[0:8], "little") == 0x1234_5678
        assert int.from_bytes(data[8:12], "little") == 0x42
        assert int.from_bytes(data[12:16], "little") == 1   # still masked

    def test_doorbell_region_reads_zero(self):
        sim, fabric, host, ctrl, drv = booted(seed=523)

        def flow(sim):
            data = yield fabric.read(host.rc, host,
                                     ctrl.bars[0].base + 0x1000, 8)
            return data

        assert sim.run(until=sim.process(flow(sim))) == bytes(8)

    def test_disable_while_enabling_aborts(self):
        sim, cluster, fabric, host, ctrl = build_single_host(seed=524)
        drv = BareMetalDriver(sim, fabric, host, ctrl)

        def flow(sim):
            asq = host.alloc_dma(64 * 64)
            acq = host.alloc_dma(64 * 16)
            drv.reg_write(0x24, (63 << 16) | 63)
            drv.reg_write(0x28, asq, width=8)
            drv.reg_write(0x30, acq, width=8)
            drv.reg_write(REG_CC, 1)
            yield sim.timeout(100_000)     # enable still in flight
            drv.reg_write(REG_CC, 0)       # tear it back down
            yield sim.timeout(10_000_000)
            csts = yield from drv.reg_read(REG_CSTS)
            return csts

        csts = sim.run(until=sim.process(flow(sim)))
        assert not csts & 1
        assert not ctrl.sqs
