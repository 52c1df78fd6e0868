"""Volume layout: chunked striping with optional replicas.

A :class:`VolumeLayout` is the pure address math of the cluster block
store — it never touches a device.  A volume of ``capacity_lbas``
logical blocks is cut into chunks of ``stripe_lbas`` and laid out
RAID-0-style across ``width`` member devices; with ``replicas = R > 1``
every chunk is stored R times, on R *distinct* members, which is what
gives the ANA-style multipath view its surviving paths.

Placement of chunk ``c`` (``row = c // W``, primary member
``d0 = c % W``):

* replica ``r`` lives on member ``(d0 + r) % W``;
* at member-local LBA ``(row * R + r) * stripe_lbas + within``.

Member-local rows interleave the R replica sequences: row ``k`` of a
member holds replica ``k % R`` of some chunk.  The map
``(member, local LBA) <-> (logical LBA, replica)`` is therefore a
bijection over the member space actually used — no two chunk copies
overlap and no member LBA below the high-water row is wasted — which
``tests/test_cluster_property.py`` asserts over randomized geometries.
With ``R == 1`` this is plain RAID-0: chunk ``c`` at member ``c % W``,
member-local LBA ``(c // W) * stripe_lbas + within`` — the one striping
layer of the repo (``examples/striped_remote_devices.py``).
"""

from __future__ import annotations

import dataclasses


class LayoutError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class Extent:
    """One chunk-aligned piece of a logical request.

    ``targets[r]`` is the ``(member_index, member_lba)`` address of
    replica ``r``; reads use the first healthy target, writes go to
    every healthy target.  Offsets are in blocks — the layout does not
    know the volume's block size.
    """

    offset_blocks: int         # offset of this piece in the request
    nblocks: int
    targets: tuple[tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class VolumeLayout:
    """Immutable geometry of one cluster volume."""

    name: str
    devices: tuple[int, ...]   # SmartIO device ids, one per member slot
    stripe_lbas: int
    capacity_lbas: int         # logical (usable) capacity
    replicas: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise LayoutError("a volume needs at least one member")
        if len(set(self.devices)) != len(self.devices):
            raise LayoutError("volume members must be distinct devices")
        if self.stripe_lbas < 1:
            raise LayoutError("stripe size must be >= 1 LBA")
        if self.capacity_lbas < 1:
            raise LayoutError("capacity must be >= 1 LBA")
        if not 1 <= self.replicas <= len(self.devices):
            raise LayoutError(
                f"{self.replicas} replicas need at least that many "
                f"members (have {len(self.devices)})")

    # -- geometry ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.devices)

    @property
    def nchunks(self) -> int:
        return -(-self.capacity_lbas // self.stripe_lbas)

    @property
    def rows(self) -> int:
        """Stripe rows (each row holds one chunk per member)."""
        return -(-self.nchunks // self.width)

    @property
    def member_lbas(self) -> int:
        """Member-local LBAs a device must provide for this volume."""
        return self.rows * self.replicas * self.stripe_lbas

    # -- forward map ------------------------------------------------------

    def locate(self, lba: int, replica: int = 0) -> tuple[int, int]:
        """Logical LBA -> ``(member_index, member_lba)`` of one replica."""
        if not 0 <= lba < self.capacity_lbas:
            raise LayoutError(f"LBA {lba} outside volume "
                              f"[0, {self.capacity_lbas})")
        if not 0 <= replica < self.replicas:
            raise LayoutError(f"replica {replica} out of range")
        chunk, within = divmod(lba, self.stripe_lbas)
        row, d0 = divmod(chunk, self.width)
        member = (d0 + replica) % self.width
        member_lba = ((row * self.replicas + replica) * self.stripe_lbas
                      + within)
        return member, member_lba

    def inverse(self, member: int, member_lba: int) -> tuple[int, int]:
        """``(member_index, member_lba)`` -> ``(logical LBA, replica)``.

        Raises :class:`LayoutError` for addresses outside the space the
        volume actually occupies (past the last row, or in the unused
        tail of a partial final row).
        """
        if not 0 <= member < self.width:
            raise LayoutError(f"member {member} out of range")
        if not 0 <= member_lba < self.member_lbas:
            raise LayoutError(f"member LBA {member_lba} outside the "
                              f"volume's {self.member_lbas}-LBA footprint")
        k, within = divmod(member_lba, self.stripe_lbas)
        row, replica = divmod(k, self.replicas)
        d0 = (member - replica) % self.width
        chunk = row * self.width + d0
        lba = chunk * self.stripe_lbas + within
        if lba >= self.capacity_lbas:
            raise LayoutError(
                f"member {member} LBA {member_lba} is in the unused "
                f"tail of the final stripe row")
        return lba, replica

    # -- request splitting ------------------------------------------------

    def split(self, lba: int, nblocks: int) -> list[Extent]:
        """Cut ``[lba, lba + nblocks)`` at chunk boundaries.

        Every extent lies inside one chunk, so each of its replica
        targets is a single contiguous member-local range.
        """
        if nblocks < 1:
            raise LayoutError("split needs nblocks >= 1")
        if lba < 0 or lba + nblocks > self.capacity_lbas:
            raise LayoutError(
                f"extent [{lba}, {lba + nblocks}) outside volume "
                f"[0, {self.capacity_lbas})")
        out: list[Extent] = []
        offset = 0
        while nblocks > 0:
            within = lba % self.stripe_lbas
            run = min(nblocks, self.stripe_lbas - within)
            targets = tuple(self.locate(lba, replica=r)
                            for r in range(self.replicas))
            out.append(Extent(offset_blocks=offset, nblocks=run,
                              targets=targets))
            lba += run
            nblocks -= run
            offset += run
        return out
