"""Manager-side placement: choose members for new volumes.

The cluster keeps one :class:`NvmeManager` per shared controller; the
:class:`PlacementScheduler` sits beside them and answers one question —
*which devices should back the next volume?* — by picking the
least-loaded backends, where load is the fraction of a device's
capacity already promised to volumes.  Ties break on device id so the
answer is a pure function of the registration history (determinism
discipline: no RNG, no wallclock).

The scheduler is deliberately interface-shaped like a CXL-pool or
disaggregated-memory allocator would be (see PAPERS.md, "My CXL Pool
Obviates Your PCIe Switch"): backends register with a capacity, volumes
reserve slices, and nothing else about the fabric leaks in, so an
alternative placement policy slots in behind the same three calls.
"""

from __future__ import annotations

import dataclasses
import typing as t

from .layout import LayoutError, VolumeLayout


class PlacementError(Exception):
    pass


@dataclasses.dataclass
class Backend:
    """One shared device as the scheduler sees it."""

    device_id: int
    capacity_lbas: int
    allocated_lbas: int = 0
    volumes: int = 0

    @property
    def free_lbas(self) -> int:
        return self.capacity_lbas - self.allocated_lbas

    @property
    def load(self) -> float:
        return self.allocated_lbas / self.capacity_lbas


class PlacementScheduler:
    """Least-loaded placement over registered backends."""

    def __init__(self) -> None:
        self._backends: dict[int, Backend] = {}
        self.placements = 0
        self.rejections = 0

    def register(self, device_id: int, capacity_lbas: int) -> Backend:
        if device_id in self._backends:
            raise PlacementError(f"device {device_id} already registered")
        if capacity_lbas < 1:
            raise PlacementError("backend needs capacity >= 1 LBA")
        backend = Backend(device_id=device_id,
                          capacity_lbas=capacity_lbas)
        self._backends[device_id] = backend
        return backend

    @property
    def backends(self) -> tuple[Backend, ...]:
        return tuple(self._backends[d] for d in sorted(self._backends))

    def place(self, width: int, member_lbas: int) -> tuple[int, ...]:
        """Pick ``width`` devices for a volume needing ``member_lbas``
        on each member.  Least-loaded first; device-id tie-break."""
        if width < 1:
            raise PlacementError("width must be >= 1")
        fits = [b for b in self.backends if b.free_lbas >= member_lbas]
        if len(fits) < width:
            self.rejections += 1
            raise PlacementError(
                f"need {width} devices with {member_lbas} free LBAs, "
                f"only {len(fits)} of {len(self._backends)} qualify")
        fits.sort(key=lambda b: (b.load, b.device_id))
        chosen = fits[:width]
        for backend in chosen:
            backend.allocated_lbas += member_lbas
            backend.volumes += 1
        self.placements += 1
        return tuple(b.device_id for b in chosen)

    def release(self, layout: VolumeLayout) -> None:
        """Return a volume's reservations (volume deletion)."""
        for device_id in layout.devices:
            backend = self._backends.get(device_id)
            if backend is None:
                raise PlacementError(f"unknown device {device_id}")
            backend.allocated_lbas -= layout.member_lbas
            backend.volumes -= 1
            if backend.allocated_lbas < 0 or backend.volumes < 0:
                raise PlacementError(
                    f"device {device_id} released below zero")


class ClusterCoordinator:
    """Registry of shared controllers + volume creation.

    One coordinator per cluster.  ``add_backend`` is called once per
    (manager, controller) pair as the scenario builder brings devices
    up; ``create_volume`` runs the scheduler and returns the immutable
    :class:`VolumeLayout` a :class:`~repro.cluster.volume.ClusterVolume`
    is built from.
    """

    def __init__(self) -> None:
        self.scheduler = PlacementScheduler()
        self._managers: dict[int, t.Any] = {}
        self._layouts: dict[str, VolumeLayout] = {}

    def add_backend(self, device_id: int, manager: t.Any,
                    capacity_lbas: int | None = None) -> None:
        """Register a started manager; capacity defaults to what its
        IDENTIFY reported (``manager.capacity_lbas``)."""
        if capacity_lbas is None:
            capacity_lbas = manager.capacity_lbas
        self.scheduler.register(device_id, capacity_lbas)
        self._managers[device_id] = manager

    def create_volume(self, name: str, capacity_lbas: int,
                      width: int = 1, replicas: int = 1,
                      stripe_lbas: int = 256) -> VolumeLayout:
        if name in self._layouts:
            raise PlacementError(f"volume {name!r} already exists")
        # Probe geometry on placeholder members to learn the per-member
        # footprint, then ask the scheduler for real devices.
        try:
            probe = VolumeLayout(name=name,
                                 devices=tuple(range(width)),
                                 stripe_lbas=stripe_lbas,
                                 capacity_lbas=capacity_lbas,
                                 replicas=replicas)
        except LayoutError as exc:
            raise PlacementError(str(exc)) from exc
        devices = self.scheduler.place(width, probe.member_lbas)
        layout = dataclasses.replace(probe, devices=devices)
        self._layouts[name] = layout
        return layout
