#!/usr/bin/env python3
"""Composing multiple shared NVMe devices: RAID-0 across the cluster.

The SmartIO lineage the paper builds on (device lending, Sec. VII) lets
one host borrow devices installed anywhere in the cluster.  Here a
client host obtains queue pairs on TWO NVMe controllers — each living
in a different cluster host — and stripes across them for additive
bandwidth, all without the data ever passing through another host's CPU.
The stripe is a cluster volume with one copy per chunk
(``VolumeLayout(replicas=1)``, docs/cluster.md).

Run:  python examples/striped_remote_devices.py
"""

from repro import BlockRequest, FioJob, run_fio
from repro.scenarios import cluster
from repro.units import KiB


def main() -> None:
    print("Building a 3-host cluster: NVMe in host0, NVMe in host1, "
          "client in host2 ...")
    rig = cluster(n_clients=1, n_devices=2, width=2, stripe_lbas=64,
                  seed=99)
    md = rig.volumes[0]
    for path in md.paths:
        print(f"  acquired queue pair qid={path.qid} on device "
              f"{path.device_id} ({path.name})")
    print(f"  striped device: {md.name}, "
          f"{md.capacity_lbas * md.lba_bytes / 2**20:.0f} MiB logical, "
          f"{md.layout.stripe_lbas}-LBA chunks over "
          f"{md.layout.width} members")

    # Integrity across the stripe boundary.
    payload = bytes((i * 23) % 256 for i in range(128 * 1024))

    def check(sim):
        req = yield md.submit(BlockRequest("write", lba=60, data=payload))
        assert req.ok
        req = yield md.submit(BlockRequest("read", lba=60, nblocks=256))
        assert req.ok and req.result == payload
        return True

    assert rig.sim.run(until=rig.sim.process(check(rig.sim)))
    print("  stripe-spanning write/read verified bit-exact")

    print("\nSequential 128 KiB reads, QD=8:")
    single = run_fio(md.paths[0],
                     FioJob(rw="read", bs=128 * KiB, iodepth=8,
                            total_ios=80, region_lbas=1 << 19))
    striped = run_fio(md, FioJob(rw="read", bs=128 * KiB, iodepth=8,
                                 total_ios=80, region_lbas=1 << 19))
    print(f"  one remote device : "
          f"{single.bandwidth_bytes_per_s / 1e9:.2f} GB/s")
    print(f"  striped x2        : "
          f"{striped.bandwidth_bytes_per_s / 1e9:.2f} GB/s "
          f"({striped.bandwidth_bytes_per_s / single.bandwidth_bytes_per_s:.2f}x)")
    print("\nTwo single-function devices in different hosts, one block "
          "device on a third\nhost — composition the paper calls "
          "'software-enabled MR-IOV'.")


if __name__ == "__main__":
    main()
