"""Layout of the manager's metadata segment (paper Sec. V).

"The manager also allocates a shared memory segment associated with the
controller with metadata about the manager, such as which host it runs
on.  This informs clients that the device is being managed and tells
them how to contact the manager."

The segment holds a header plus a mailbox of fixed-size RPC slots (one
per client node id) through which clients request I/O queue-pair
creation/deletion.  Clients write requests through their NTB mapping;
the manager polls locally via a watchpoint and writes responses in
place.  All of this is setup-path traffic.
"""

from __future__ import annotations

import struct

MAGIC = 0x4E564D45        # "NVME"
HEADER_SIZE = 64
SLOT_SIZE = 128
NSLOTS = 64

# Per-client liveness lease: each slot owner periodically posts a
# monotonically increasing counter into its heartbeat word; the manager
# reclaims the queue pairs of any owner whose counter stops advancing
# for ReliabilityConfig.lease_timeout_ns.  Heartbeats are plain posted
# stores — a dead or severed client simply stops writing.
HEARTBEAT_SIZE = 8
HEARTBEAT_OFFSET = HEADER_SIZE + NSLOTS * SLOT_SIZE

# --- shared queue pairs (docs/queue_sharing.md) ----------------------------
#
# CID namespacing: on a shared SQ every tenant owns a disjoint CID
# namespace so in-flight command ids never collide and a CQE can be
# demultiplexed to its issuing tenant without any extra state:
#
#     cid = (tenant_index << CID_TENANT_SHIFT) | (sequence & CID_SEQ_MASK)
#
# 4 tenant bits bound a shared QP at 16 tenants; 12 sequence bits leave
# 4096 ids per tenant, far above any window's in-flight bound.
CID_TENANT_SHIFT = 12
CID_SEQ_MASK = (1 << CID_TENANT_SHIFT) - 1
MAX_TENANTS = 1 << (16 - CID_TENANT_SHIFT)


def make_cid(tenant: int, seq: int) -> int:
    return (tenant << CID_TENANT_SHIFT) | (seq & CID_SEQ_MASK)


def cid_tenant(cid: int) -> int:
    return (cid >> CID_TENANT_SHIFT) & (MAX_TENANTS - 1)


# QP-share descriptors: one per possible I/O queue id, holding the
# window geometry plus a *per-tenant doorbell shadow* — the last window
# tail the tenant rang, posted by the tenant right after the doorbell.
# The manager reads a dead tenant's shadow (local memory) at reclaim
# time so the window's ring position can be handed to the next tenant
# admitted into it.
SHARE_DESC_COUNT = 32           # descriptors for qids 1..32
SHARE_HEADER_SIZE = 16          # qid, nwindows, window entries, bitmap
SHADOW_SIZE = 8
SHARE_DESC_SIZE = SHARE_HEADER_SIZE + MAX_TENANTS * SHADOW_SIZE
SHARE_OFFSET = HEARTBEAT_OFFSET + NSLOTS * HEARTBEAT_SIZE

SEGMENT_SIZE = SHARE_OFFSET + SHARE_DESC_COUNT * SHARE_DESC_SIZE

# Slot status values
SLOT_FREE = 0
SLOT_REQUEST = 1
SLOT_RESPONSE = 2

# RPC opcodes
OP_CREATE_QP = 1
OP_DELETE_QP = 2
#: what the probe's ``lease_changed`` calls an answered RPC
OP_NAMES = {OP_CREATE_QP: "create-qp", OP_DELETE_QP: "delete-qp"}

# RPC status
RPC_OK = 0
RPC_NO_QUEUES = 1
RPC_BAD_REQUEST = 2
RPC_ADMIN_FAILED = 3
#: Private QPs are exhausted down to the shared reserve: retry the
#: request with FLAG_SHARED to be placed on a shared queue pair.
RPC_USE_SHARED = 4

_HEADER = struct.Struct("<IIIIIIQ")      # magic, mgr node, device, nsid,
                                         # lba_bytes, nslots, capacity
_SLOT = struct.Struct("<IIIIQQIIIIIIII")  # status, op, qid, entries,
                                          # sq_addr, cq_addr, rpc_status,
                                          # flags, tenant, win_start,
                                          # win_len, share_node,
                                          # share_seg, win_tail
assert _SLOT.size <= SLOT_SIZE
assert _HEADER.size <= HEADER_SIZE

# Slot flags
FLAG_INTERRUPTS = 1 << 0   # create the CQ with IEN set, vector = qid
FLAG_SHARED = 1 << 1       # admit onto a shared QP; share_node/share_seg
                           # carry the tenant's completion-mailbox segment


def pack_header(manager_node_id: int, device_id: int, nsid: int,
                lba_bytes: int, capacity_lbas: int) -> bytes:
    return _HEADER.pack(MAGIC, manager_node_id, device_id, nsid,
                        lba_bytes, NSLOTS, capacity_lbas).ljust(
                            HEADER_SIZE, b"\x00")


def unpack_header(data: bytes) -> dict:
    magic, node, device, nsid, lba, nslots, capacity = _HEADER.unpack(
        data[:_HEADER.size])
    if magic != MAGIC:
        raise ValueError(f"bad metadata magic: {magic:#x}")
    return {"manager_node_id": node, "device_id": device, "nsid": nsid,
            "lba_bytes": lba, "nslots": nslots, "capacity_lbas": capacity}


def slot_offset(index: int) -> int:
    if not 0 <= index < NSLOTS:
        raise ValueError(f"slot index out of range: {index}")
    return HEADER_SIZE + index * SLOT_SIZE


def heartbeat_offset(index: int) -> int:
    if not 0 <= index < NSLOTS:
        raise ValueError(f"slot index out of range: {index}")
    return HEARTBEAT_OFFSET + index * HEARTBEAT_SIZE


def share_offset(qid: int) -> int:
    if not 1 <= qid <= SHARE_DESC_COUNT:
        raise ValueError(f"share descriptor qid out of range: {qid}")
    return SHARE_OFFSET + (qid - 1) * SHARE_DESC_SIZE


def shadow_offset(qid: int, tenant: int) -> int:
    if not 0 <= tenant < MAX_TENANTS:
        raise ValueError(f"tenant index out of range: {tenant}")
    return share_offset(qid) + SHARE_HEADER_SIZE + tenant * SHADOW_SIZE


_SHARE_HEADER = struct.Struct("<IIII")   # qid, nwindows, win entries,
                                         # tenant bitmap
assert _SHARE_HEADER.size <= SHARE_HEADER_SIZE


def pack_share(qid: int, nwindows: int, win_entries: int,
               tenant_bitmap: int) -> bytes:
    return _SHARE_HEADER.pack(qid, nwindows, win_entries,
                              tenant_bitmap).ljust(SHARE_HEADER_SIZE,
                                                   b"\x00")


def pack_slot(status: int, op: int = 0, qid: int = 0, entries: int = 0,
              sq_addr: int = 0, cq_addr: int = 0,
              rpc_status: int = 0, flags: int = 0, tenant: int = 0,
              win_start: int = 0, win_len: int = 0, share_node: int = 0,
              share_seg: int = 0, win_tail: int = 0) -> bytes:
    return _SLOT.pack(status, op, qid, entries, sq_addr, cq_addr,
                      rpc_status, flags, tenant, win_start, win_len,
                      share_node, share_seg,
                      win_tail).ljust(SLOT_SIZE, b"\x00")


def unpack_slot(data: bytes) -> dict:
    (status, op, qid, entries, sq_addr, cq_addr, rpc_status, flags,
     tenant, win_start, win_len, share_node, share_seg, win_tail) = \
        _SLOT.unpack(data[:_SLOT.size])
    return {"status": status, "op": op, "qid": qid, "entries": entries,
            "sq_addr": sq_addr, "cq_addr": cq_addr,
            "rpc_status": rpc_status, "flags": flags, "tenant": tenant,
            "win_start": win_start, "win_len": win_len,
            "share_node": share_node, "share_seg": share_seg,
            "win_tail": win_tail}
