"""Cluster topology: nodes, links and hosts.

The physical layout is a graph whose nodes are PCIe agents:

* ``rc`` — a host's root complex (also where CPU-originated transactions
  enter the fabric);
* ``switch`` — a PCIe switch chip (including NTB adapter cards and the
  Dolphin cluster switch, which *are* switch chips — each traversal
  costs the paper's 100-150 ns per direction);
* ``endpoint`` — a device function's attachment point.

Hosts own DRAM, an address map, and the set of functions installed in
them.  Path computation is a plain BFS over the (small) graph with
memoised results; we do not need networkx's generality on a ~10-node
graph and this keeps the hot path allocation-free.
"""

from __future__ import annotations

import typing as t

from ..config import PcieConfig
from ..memory import HostMemory, RangeAllocator
from ..sim import Resource, Simulator
from .address import AddressMap, Generation

if t.TYPE_CHECKING:  # pragma: no cover
    from .device import PCIeFunction


class TopologyError(Exception):
    pass


class Node:
    """A PCIe agent in the cluster graph."""

    __slots__ = ("name", "kind", "neighbors", "host")

    def __init__(self, name: str, kind: str,
                 host: "Host | None" = None) -> None:
        if kind not in ("rc", "switch", "endpoint"):
            raise ValueError(f"unknown node kind: {kind}")
        self.name = name
        self.kind = kind
        self.host = host
        self.neighbors: dict[Node, Link] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} ({self.kind})>"


class Link:
    """A full-duplex point-to-point link between two nodes.

    Each direction is an independent FIFO resource; holding it for the
    payload's serialization time models cut-through occupancy and gives
    natural queueing under contention.
    """

    __slots__ = ("a", "b", "bandwidth", "name", "_res")

    def __init__(self, sim: Simulator, a: Node, b: Node,
                 bandwidth: float, name: str = "") -> None:
        if bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.a = a
        self.b = b
        self.bandwidth = bandwidth
        self.name = name or f"{a.name}<->{b.name}"
        self._res = {(a, b): Resource(sim, 1), (b, a): Resource(sim, 1)}

    def resource(self, src: Node, dst: Node) -> Resource:
        try:
            return self._res[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"link {self.name} does not join {src.name}->{dst.name}"
            ) from None


class Host:
    """One computer system: RC + DRAM + devices + an address map."""

    #: where DRAM is mapped in every host's physical space
    DRAM_BASE = 0x0000_0000_1000_0000
    #: MMIO region for BAR assignment
    MMIO_BASE = 0x0000_00E0_0000_0000
    MMIO_LIMIT = 0x0000_00F0_0000_0000

    def __init__(self, sim: Simulator, name: str,
                 dram_size: int = 1 << 30,
                 generation: Generation | None = None) -> None:
        self.sim = sim
        self.name = name
        self.rc = Node(f"{name}.rc", "rc", host=self)
        self.memory = HostMemory(sim, dram_size, base=self.DRAM_BASE,
                                 name=f"{name}.dram")
        self.dram_alloc = RangeAllocator(self.DRAM_BASE, dram_size,
                                         name=f"{name}.dram-alloc")
        self.addr_map = AddressMap(name=f"{name}.addrmap",
                                   generation=generation)
        self.addr_map.add(self.DRAM_BASE, dram_size, self.memory,
                          label="dram")
        self._mmio_cursor = self.MMIO_BASE
        self.functions: list["PCIeFunction"] = []

    def alloc_dma(self, size: int, alignment: int = 4096) -> int:
        """Allocate DMA-able DRAM; returns a physical address."""
        return self.dram_alloc.alloc(size, alignment)

    def free_dma(self, addr: int) -> None:
        """Free an :meth:`alloc_dma` range.  It comes back zeroed, as
        ``dma_alloc_coherent`` memory does, so a ring built on it holds
        no stale entry: cleared in the store, with no probe event and no
        model time."""
        length = self.dram_alloc.free(addr)
        offset = addr - self.memory.base
        self.memory._bytes[offset: offset + length] = bytes(length)

    def assign_bar(self, size: int, target: t.Any, label: str) -> int:
        """Assign an MMIO range for a BAR (enumeration-time behaviour)."""
        base = self.addr_map.find_free(size, self._mmio_cursor,
                                       self.MMIO_LIMIT,
                                       alignment=max(0x1000, size))
        self.addr_map.add(base, size, target, label=label)
        self._mmio_cursor = base + size
        return base


class Cluster:
    """The whole PCIe network: hosts, external switches, and links."""

    def __init__(self, sim: Simulator, config: PcieConfig) -> None:
        self.sim = sim
        self.config = config
        self.hosts: dict[str, Host] = {}
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        #: bumped by :meth:`connect` and by every change to a host's
        #: address map, LUT or cable: the fabric's flow records and
        #: routes are stale once it differs from the value they saw.
        self.generation = Generation()
        self._paths: dict[tuple[Node, Node], tuple[Node, ...]] = {}

    # -- construction -----------------------------------------------------

    def add_host(self, name: str, dram_size: int = 1 << 30) -> Host:
        if name in self.hosts:
            raise TopologyError(f"duplicate host name: {name}")
        host = Host(self.sim, name, dram_size, self.generation)
        self.hosts[name] = host
        self._register(host.rc)
        return host

    def add_switch(self, name: str, host: Host | None = None) -> Node:
        node = Node(name, "switch", host=host)
        self._register(node)
        return node

    def add_endpoint(self, name: str, host: Host | None = None) -> Node:
        node = Node(name, "endpoint", host=host)
        self._register(node)
        return node

    def connect(self, a: Node, b: Node,
                bandwidth: float | None = None) -> Link:
        if b in a.neighbors:
            raise TopologyError(f"{a.name} and {b.name} already connected")
        link = Link(self.sim, a, b,
                    bandwidth or self.config.default_link_bandwidth)
        a.neighbors[b] = link
        b.neighbors[a] = link
        self.links.append(link)
        self.generation.bump()
        self._paths.clear()
        return link

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node

    # -- path computation ---------------------------------------------------

    def path(self, src: Node, dst: Node) -> tuple[Node, ...]:
        """Shortest node path from src to dst (inclusive), memoised."""
        if src is dst:
            return (src,)
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        # Plain BFS; the graph has ~a dozen nodes and results are memoised.
        from collections import deque

        prev: dict[Node, Node] = {src: src}
        queue: deque[Node] = deque([src])
        while queue and dst not in prev:
            node = queue.popleft()
            for neigh in node.neighbors:
                if neigh not in prev:
                    prev[neigh] = node
                    queue.append(neigh)
        if dst not in prev:
            raise TopologyError(f"no path {src.name} -> {dst.name}")
        chain = [dst]
        while chain[-1] is not src:
            chain.append(prev[chain[-1]])
        result = tuple(reversed(chain))
        self._paths[key] = result
        self._paths[(dst, src)] = tuple(chain)
        return result

    def hop_plan(self, path: tuple[Node, ...]) -> tuple:
        """One-way traversal latency of the intermediate nodes of a
        path, split as ``(fixed_ns, (BufferedDraw, ...))``: each switch
        chip draws uniformly from the paper's 100-150 ns band, root
        complexes add their fixed traversal cost; endpoint nodes at the
        extremes contribute nothing here (their service costs are
        accounted by the target handler).  The plan says which streams
        a traversal draws from, never *which value comes next* — every
        traversal still advances each stream once, so RNG consumption
        does not depend on who keeps the plan; a chip's stream is batched
        (:meth:`RngRegistry.integers`), one :class:`BufferedDraw` shared
        by every plan through it.  Mirrors :meth:`RngRegistry.uniform_ns`
        exactly (a degenerate lo==hi band folds into the fixed part with
        no draw, just as ``uniform_ns`` short-circuits without one)."""
        cfg = self.config
        lo, hi = cfg.switch_latency_min_ns, cfg.switch_latency_max_ns
        if hi < lo:
            raise ValueError("high < low")
        rng = self.sim.rng
        fixed = 0
        draws = []
        for node in path[1:-1]:
            if node.kind == "switch":
                if hi == lo:
                    fixed += lo
                else:
                    # Streams are keyed per (chip, initiator) so that a
                    # chip shared by flows from several hosts serves each
                    # flow from an independent stream: one host's draws
                    # do not depend on how its traffic interleaves with
                    # another's.
                    draws.append(rng.integers(
                        f"chip:{node.name}:from:{path[0].name}", lo, hi + 1))
            elif node.kind == "rc":
                fixed += cfg.root_complex_latency_ns
        # An RC at either extreme still forwards the transaction between
        # its CPU/DRAM side and the fabric.
        for node in (path[0], path[-1]):
            if node.kind == "rc" and len(path) > 1:
                fixed += cfg.root_complex_latency_ns
        return (fixed, tuple(draws))

    def links_on(self, path: tuple[Node, ...]) -> tuple[tuple[Link, Node, Node], ...]:
        return tuple((a.neighbors[b], a, b) for a, b in zip(path, path[1:]))
