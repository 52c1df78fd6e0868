"""Calibrated model parameters.

Every latency/bandwidth constant the simulation uses lives here, with the
source it was calibrated from.  The headline sources are:

* the paper itself (Sec. VI): 100-150 ns per PCIe switch chip per
  direction; NVMe-oF adds 7.7/7.5 us (read/write) minimum latency vs.
  local; the NTB driver adds ~1/~2 us;
* the SmartIO TOCS paper [5] for NTB path composition (host adapter +
  cluster switch + remote adapter);
* Intel P4800X public specs / common fio measurements for the media
  model (~8 us consistent media latency, 4 KiB QD1 end-to-end ~10-12 us
  through the stock kernel driver, 32 queue pairs);
* Guz et al. [8] and common nvme-rdma/SPDK measurements for the
  software-path and 100 Gb/s network constants.

All times are integer nanoseconds, all bandwidths bytes/ns (== GB/s).
Configs are plain frozen dataclasses so scenario builders can ``replace``
individual fields for ablations without mutating shared state.
"""

from __future__ import annotations

import dataclasses

from .qos.arbiter import POLICIES
from .units import gbit_per_s, gb_per_s


#: numbers that may be 0: the seed, sigma (no spread) and the counts
#: where 0 means none (no retry, shared reserve, clamp, in-capsule data)
_NONE_ALLOWED = frozenset({"sigma", "max_retries", "reserved_qps",
                           "throttle_window", "in_capsule_data_size",
                           "seed"})


def _check(config) -> None:
    """Refuse a config no run can honour, one rule per field kind (by
    name): times (``*_ns``) are integers >= 0 (a float would reach the
    event heap and make ``sim.now`` a float; ``per_byte_ns`` is a rate,
    ns per byte), rates (``*_rate``) in [0, 1], a ``*_min_ns`` is <= its
    ``*_max_ns``, the fields of :data:`_NONE_ALLOWED` are >= 0, and
    every other number — sizes, counts, bandwidths — is > 0."""
    for field in dataclasses.fields(config):
        name, value = field.name, getattr(config, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name.endswith("_rate"):
            ok, rule = 0 <= value <= 1, "in [0, 1]"
        elif name.endswith("_ns") or name in _NONE_ALLOWED:
            ok, rule = value >= 0, ">= 0"
        else:
            ok, rule = value > 0, "> 0"
        if name.endswith("_min_ns"):
            top = name[:-len("_min_ns")] + "_max_ns"
            ok, rule = ok and value <= getattr(config, top), \
                f">= 0 and <= {top}"
        if (name.endswith("_ns") and name != "per_byte_ns"
                and not isinstance(value, int)):
            ok, rule = False, "an integer (ns)"
        if not ok:
            raise ValueError(f"{type(config).__name__}.{name} must be "
                             f"{rule}, got {value!r}")


# ---------------------------------------------------------------------------
# PCIe fabric
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PcieConfig:
    """Transaction-level PCIe fabric parameters."""

    __post_init__ = _check

    #: Per-switch-chip forwarding delay, one direction (paper Sec. VI:
    #: "each PCIe switch chip in the path adds between 100 and 150
    #: nanoseconds delay (in one direction)").
    switch_latency_min_ns: int = 100
    switch_latency_max_ns: int = 150

    #: Root-complex / host-bridge traversal, one direction.  Intel server
    #: RCs measure ~250-350 ns for an MMIO round trip.
    root_complex_latency_ns: int = 150

    #: DRAM access at the completer for a non-posted read (row access +
    #: controller queueing).
    memory_read_latency_ns: int = 90
    #: Posted write absorption at the memory controller.
    memory_write_latency_ns: int = 40

    #: Device internal latency to answer a BAR read / absorb a BAR write.
    device_mmio_read_ns: int = 120
    device_mmio_write_ns: int = 50

    #: NTB address-translation lookup (LUT) per crossing, added on top of
    #: the NTB's switch-chip forwarding latency.
    ntb_translation_ns: int = 30

    #: Effective per-direction data bandwidth of a link (PCIe Gen3 x8
    #: ~7.9 GB/s raw; x4 ~3.9 GB/s; use an effective Gen3 x4 for the
    #: NVMe device link and x8 elsewhere, all set per-link in topology —
    #: this is only the default).
    default_link_bandwidth: float = gb_per_s(7.0)

    #: Max payload size per TLP; DMA bursts are chunked to this.
    max_payload_size: int = 256
    #: TLP header + framing overhead per packet on the wire.
    tlp_header_bytes: int = 26
    #: Completion header overhead for non-posted reads.
    cpl_header_bytes: int = 20
    #: Max read request size (a single MemRd can ask for this much).
    max_read_request_size: int = 512

    #: Non-posted completion timeout: how long an initiator waits for a
    #: read completion before reporting a failed transaction (PCIe spec
    #: range is 50 us - 50 ms; kept short so degraded-link simulations
    #: stay fast).  Only reachable when fault injection severs a path.
    completion_timeout_ns: int = 50_000


# ---------------------------------------------------------------------------
# NVMe device / media
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MediaConfig:
    """Storage-medium timing (defaults model an Intel Optane P4800X).

    The paper uses the P4800X precisely because "its latency is very
    consistent" — hence the tiny sigma and tight cap.
    """

    __post_init__ = _check

    name: str = "optane-p4800x"
    #: Median media access time for a 4 KiB read/write.
    read_median_ns: int = 6_900
    write_median_ns: int = 7_700
    #: Lognormal sigma — Optane is extremely consistent.
    sigma: float = 0.02
    #: Hard cap on a single access (keeps short runs representative).
    read_cap_ns: int = 9_000
    write_cap_ns: int = 10_500
    #: Additional per-byte time beyond the first 4 KiB of a request.
    per_byte_ns: float = 1.0 / gb_per_s(2.4)
    #: Number of independent internal channels (bounds parallel
    #: commands): the 4 KiB media bound is channels / read_median_ns,
    #: 724.6 kIOPS, above the P4800X's ~550-590 kIOPS spec
    #: (docs/calibration.md).
    channels: int = 5
    #: Block (LBA) size presented by the namespace.
    lba_bytes: int = 512
    #: Namespace capacity in LBAs (375 GB drive; the model stores written
    #: data sparsely so this can stay honest).
    capacity_lbas: int = 732_421_875
    #: Probability that a media access fails with an uncorrectable
    #: error (fault-injection hook; real drives are ~1e-17/bit, i.e. 0
    #: at simulation scale — raise it to exercise error paths).
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0


@dataclasses.dataclass(frozen=True)
class NvmeConfig:
    """NVMe controller model parameters."""

    __post_init__ = _check

    #: Max queue pairs the controller supports (P4800X: 32, one of which
    #: is the admin pair — hence the paper's "shared by up to 31 hosts").
    max_queue_pairs: int = 32
    #: Max entries per I/O queue (P4800X: 1024; admin queue 4096 cap).
    max_queue_entries: int = 1024
    #: Doorbell stride (CAP.DSTRD = 0 -> 4-byte stride).
    doorbell_stride: int = 4
    #: Controller-internal time from doorbell arrival to issuing the SQE
    #: fetch (doorbell processing, arbitration).
    doorbell_to_fetch_ns: int = 200
    #: Controller-internal command decode/setup after the SQE arrives.
    command_decode_ns: int = 250
    #: Controller-internal completion generation before the CQE write.
    completion_overhead_ns: int = 200
    #: Time for the controller to come ready after CC.EN (CSTS.RDY).
    enable_latency_ns: int = 2_000_000
    #: Admin command execution time (identify, queue create/delete).
    admin_command_ns: int = 50_000
    #: MSI-X interrupt: fixed cost of generating the interrupt message.
    interrupt_generation_ns: int = 100

    media: MediaConfig = dataclasses.field(default_factory=MediaConfig)


# ---------------------------------------------------------------------------
# Host software paths
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class HostSoftwareConfig:
    """CPU-side software costs, calibrated against fio-on-Linux numbers.

    The stock-kernel path (submission ~0.9 us + interrupt ~1.9 us +
    completion ~0.7 us on top of ~8 us media + PCIe transactions) lands
    4 KiB QD1 reads at ~11 us, matching public P4800X fio results.
    """

    __post_init__ = _check

    #: fio/blk-mq request construction down to driver entry.
    block_submit_ns: int = 450
    #: Stock kernel NVMe driver: build SQE + PRP, write SQ, ring doorbell.
    nvme_submit_ns: int = 300
    #: IRQ delivery + handler entry (stock driver completion path).
    interrupt_latency_ns: int = 1_200
    #: Driver completion processing + block-layer completion + wake fio.
    complete_ns: int = 450

    #: Our distributed driver is "naive" (paper Sec. VI): an unoptimised
    #: request path adds extra cost over the stock driver...
    dist_submit_ns: int = 1_400
    dist_complete_ns: int = 1_100
    #: ...and it polls CQ memory instead of taking interrupts.  The poll
    #: loop re-checks local memory at this interval; expected added
    #: latency is half of it.
    poll_interval_ns: int = 180
    #: memcpy throughput for the bounce-buffer copy (single-threaded
    #: kernel memcpy, ~6 GB/s including cache effects).
    memcpy_bandwidth: float = gb_per_s(6.0)
    #: Fixed memcpy call overhead.
    memcpy_overhead_ns: int = 80
    #: Per-request IOMMU map/unmap cost for the paper's proposed
    #: future-work alternative to the bounce buffer (IOTLB invalidation
    #: dominates the unmap).
    iommu_map_ns: int = 400
    iommu_unmap_ns: int = 900
    #: Client polling interval for manager-RPC responses (setup path).
    rpc_poll_ns: int = 3_000


# ---------------------------------------------------------------------------
# RDMA / InfiniBand network
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RdmaConfig:
    """ConnectX-5-class RDMA NIC + 100 Gb/s link model."""

    __post_init__ = _check

    #: One-way wire/PHY latency between the two hosts, including the
    #: IB switch (~130 ns cut-through) used in the testbed.
    wire_latency_ns: int = 450
    #: NIC processing, WQE fetch/doorbell to first byte on the wire.
    nic_tx_ns: int = 350
    #: NIC receive processing to CQE/data landed in host memory.
    nic_rx_ns: int = 350
    #: Data bandwidth (100 Gb/s minus protocol overhead ~= 11 GB/s).
    bandwidth: float = gbit_per_s(92)
    #: Doorbell MMIO write from CPU to NIC (posted, through local RC).
    doorbell_ns: int = 200
    #: Software verbs post_send/post_recv bookkeeping cost.
    post_wqe_ns: int = 150
    #: CQ poll cost (SPDK-style busy polling) per reap.
    cq_poll_ns: int = 120
    #: RDMA READ adds a full round trip initiated by the responder NIC.
    read_turnaround_ns: int = 300


@dataclasses.dataclass(frozen=True)
class NvmeofConfig:
    """NVMe-oF software-stack parameters (kernel initiator, SPDK target).

    Calibrated so the minimum-latency delta vs. local lands in the
    paper's 7.5-7.7 us band:  initiator kernel rdma path ~1.5 us/side +
    2 network one-ways (~1.15 us each) + target processing ~0.7 us +
    interrupt on the initiator ~1.9 us + capsule/data serialization.
    """

    __post_init__ = _check

    #: Kernel nvme-rdma initiator: encapsulate command, map data, post.
    initiator_submit_ns: int = 1_500
    #: Kernel initiator completion processing (after its IRQ; nvme-rdma
    #: reaps responses interrupt-driven).
    initiator_complete_ns: int = 1_000
    #: SPDK target: capsule decode + NVMe submission on the target side.
    target_process_ns: int = 450
    #: SPDK target completion handling: reap NVMe CQE, build response.
    target_complete_ns: int = 350
    #: SPDK poller granularity (busy poll; expected wait = half).
    target_poll_interval_ns: int = 150
    #: In-capsule data threshold: writes up to this size travel inside
    #: the command capsule (Linux/SPDK default 4 KiB for RDMA) —
    #: otherwise the target issues an RDMA READ to pull the data.
    in_capsule_data_size: int = 4096
    #: Command capsule size (64 B SQE + NVMe-oF header).
    capsule_bytes: int = 72


# ---------------------------------------------------------------------------
# Reliability / fault recovery
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReliabilityConfig:
    """Driver-side fault-recovery knobs (see docs/fault_injection.md).

    All recovery machinery defaults to *off* (the zero values below) so
    the calibrated fault-free benchmarks are bit-identical with or
    without this subsystem; chaos scenarios enable it explicitly.
    """

    __post_init__ = _check

    #: Every stack: time to wait for a command completion before
    #: aborting and retrying it.  0 disables command timeouts (wait
    #: forever, the paper's fault-free behaviour).  When enabling, keep
    #: this well above the p99 completion latency of the workload or
    #: healthy commands get duplicated by spurious retries.
    command_timeout_ns: int = 0
    #: Every stack: bounded retries after a command timeout before the
    #: request fails with ``STATUS_HOST_TIMEOUT``.
    max_retries: int = 3
    #: Every stack: additional backoff added to the timeout per retry
    #: (attempt ``n`` waits ``command_timeout_ns + n * retry_backoff_ns``).
    retry_backoff_ns: int = 100_000
    #: Client: interval between liveness heartbeat writes into the
    #: manager's metadata segment.  0 disables heartbeats (no lease is
    #: established, so the manager never reclaims this client).
    heartbeat_interval_ns: int = 0
    #: Manager: a client whose newest heartbeat is older than this is
    #: declared dead and its queue pairs are reclaimed.  0 disables the
    #: lease watchdog entirely.  Keep several heartbeat intervals wide
    #: or transient link loss triggers false reclaims.
    lease_timeout_ns: int = 0
    #: Manager: how often the lease watchdog scans the heartbeat table.
    lease_check_interval_ns: int = 250_000


# ---------------------------------------------------------------------------
# Shared I/O queue pairs (docs/queue_sharing.md)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QpSharingConfig:
    """Admission policy for multiplexing clients onto shared queue pairs.

    The device exposes ``NvmeConfig.max_queue_pairs - 1`` I/O queue
    pairs (31 on the P4800X), which caps a private-QP-per-host cluster
    at 31 clients.  Sharing breaks that limit: the manager reserves
    ``reserved_qps`` queue ids for *shared* queue pairs whose submission
    ring is split into fixed slot windows, one window per tenant.
    Admission is private-first — clients get a private QP while more
    than ``reserved_qps`` queue ids remain free — then least-loaded
    shared.
    """

    __post_init__ = _check

    #: Master switch.  Off restores the paper's strict 31-client limit
    #: (the 32nd client is refused with RPC_NO_QUEUES).
    enabled: bool = True
    #: Queue ids held back from private admission and used to create
    #: shared QPs on demand.  Also the maximum number of shared QPs.
    reserved_qps: int = 4
    #: Ring size of a shared submission queue (and its completion
    #: queue).  Must not exceed ``NvmeConfig.max_queue_entries``.
    sq_entries: int = 256
    #: Slot-window size per tenant; ``sq_entries // window_entries``
    #: windows exist per shared QP, capped by the 4-bit CID tenant
    #: namespace (16 tenants).
    window_entries: int = 16

    @property
    def windows_per_qp(self) -> int:
        return min(self.sq_entries // self.window_entries, 16)

    def capacity(self, io_queue_pairs: int) -> int:
        """Total admissible clients given the device's I/O QP count."""
        if not self.enabled:
            return io_queue_pairs
        reserve = min(self.reserved_qps, io_queue_pairs)
        return (io_queue_pairs - reserve
                + reserve * self.windows_per_qp)


# ---------------------------------------------------------------------------
# Per-tenant QoS at the shared-SQ arbitration point (docs/qos.md)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QosConfig:
    """Fetch arbitration + admission throttling for shared SQs.

    The defaults are the calibrated seed runs: every shared SQ fetches
    under the NVMe round-robin and nothing is throttled.
    """

    #: Arbitration policy applied at every shared-SQ fetch point, one
    #: of ``repro.qos.arbiter.POLICIES`` (docs/qos.md has the table);
    #: the default is the NVMe spec's round-robin.
    policy: str = "off"
    #: DRR quantum in SQEs credited each time the round-robin pointer
    #: reaches a backlogged window (multiplied by the window's weight).
    quantum: int = 4
    #: Per-window weights, indexed by window index; windows beyond the
    #: tuple weigh 1.  Only the weighted policies read them.
    weights: tuple[int, ...] = ()
    #: Admission throttling: when a tenant's burn-rate alert (see
    #: docs/observability.md) is active, clamp its driver-side window of
    #: outstanding commands to this many; 0 disables throttling.
    throttle_window: int = 0
    #: How often the throttle process re-reads the SLO engine's alerts.
    throttle_check_interval_ns: int = 200_000
    #: An alert must stay resolved this long before the clamp is lifted
    #: (prevents fire/resolve flapping from bouncing the window).
    throttle_cooldown_ns: int = 400_000

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown qos policy {self.policy!r}; "
                             f"pick one of {tuple(POLICIES)}")
        _check(self)


# ---------------------------------------------------------------------------
# Cluster / NTB scenario parameters
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Dolphin-style NTB cluster layout parameters.

    The remote path host->device crosses: local MXH932 adapter chip,
    MXS924 cluster switch chip, remote MXH932 adapter chip — i.e. three
    switch chips each direction (paper Fig. 9b), plus the remote host's
    root complex.
    """

    __post_init__ = _check

    #: NTB link bandwidth per direction (Gen3 x8 cabled, effective).
    ntb_link_bandwidth: float = gb_per_s(7.0)
    #: Per-host NTB BAR aperture for mapping remote segments.
    ntb_aperture_bytes: int = 1 << 30
    #: DMA bounce-buffer partition size per in-flight request.
    bounce_partition_bytes: int = 128 * 1024
    #: Number of bounce partitions (bounds requests in flight per queue).
    bounce_partitions: int = 64


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to scenario builders."""

    __post_init__ = _check

    pcie: PcieConfig = dataclasses.field(default_factory=PcieConfig)
    nvme: NvmeConfig = dataclasses.field(default_factory=NvmeConfig)
    host: HostSoftwareConfig = dataclasses.field(
        default_factory=HostSoftwareConfig)
    rdma: RdmaConfig = dataclasses.field(default_factory=RdmaConfig)
    nvmeof: NvmeofConfig = dataclasses.field(default_factory=NvmeofConfig)
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    reliability: ReliabilityConfig = dataclasses.field(
        default_factory=ReliabilityConfig)
    sharing: QpSharingConfig = dataclasses.field(
        default_factory=QpSharingConfig)
    qos: QosConfig = dataclasses.field(default_factory=QosConfig)
    seed: int = 42


DEFAULT_CONFIG = SimulationConfig()


def replace(config, **updates):
    """``dataclasses.replace`` re-export for scenario ablations."""
    return dataclasses.replace(config, **updates)
