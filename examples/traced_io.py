#!/usr/bin/env python3
"""Trace one remote I/O through every layer and print its timeline.

Shows the event-level anatomy behind the latency numbers: the SQE/
doorbell posted writes crossing the NTB, the controller's local fetch,
the media access, the data and CQE coming back, and the client's poll —
the walkthrough of docs/io_walkthrough.md, generated live.

Run:  python examples/traced_io.py
"""

from repro.analysis import events_from_trace, render_timeline
from repro.driver import BlockRequest, DistributedNvmeClient, NvmeManager
from repro.scenarios.testbed import PcieTestbed
from repro.sim import Tracer


def main() -> None:
    bed = PcieTestbed(n_hosts=2, with_nvme=True, seed=5)
    tracer = Tracer(bed.sim)
    bed.sim.probe.subscribe(tracer)

    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    client = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                   bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(client.start()))

    # Warm one I/O so steady-state, then trace the second one.
    def warm(sim):
        req = yield client.submit(BlockRequest("read", lba=0, nblocks=8))
        assert req.ok

    bed.sim.run(until=bed.sim.process(warm(bed.sim)))
    tracer.clear()

    start = bed.sim.now
    out = {}

    def traced(sim):
        req = yield client.submit(BlockRequest("read", lba=64,
                                               nblocks=8))
        out["latency"] = req.latency_ns
        return req

    bed.sim.run(until=bed.sim.process(traced(bed.sim)))

    print("One remote 4 KiB read through the distributed driver "
          f"(total {out['latency'] / 1000:.2f} us):\n")
    events = events_from_trace(tracer.records, qid=client.qid)
    print(render_timeline(events, origin_ns=start, max_events=30))
    print("\nKey: the controller fetches the SQE from *its own* host's "
          "memory (the\nSQ was placed device-side), so no non-posted "
          "read ever crosses the NTB\non the command path.")


if __name__ == "__main__":
    main()
