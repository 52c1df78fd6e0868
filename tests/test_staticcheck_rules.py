"""Per-rule fixture tests: one failing and one passing fixture each.

Fixtures are materialised under a ``repro/...`` relative path in a tmp
tree because several rules scope themselves by module path (e.g.
``no-nonposted-hotpath`` only looks at ``repro/driver/``).
"""

from __future__ import annotations

import textwrap

from repro.staticcheck import check_file, get_rule


def run_rule(tmp_path, rule_name, source, rel="repro/driver/fake.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return check_file(path, [get_rule(rule_name)])


# --- no-wallclock --------------------------------------------------------

def test_wallclock_flags_time_time(tmp_path):
    findings = run_rule(tmp_path, "no-wallclock", """
        import time
        def stamp():
            return time.time()
    """)
    assert [f.rule for f in findings] == ["no-wallclock"]
    assert "Simulator.now" in findings[0].message


def test_wallclock_flags_from_import_and_datetime(tmp_path):
    findings = run_rule(tmp_path, "no-wallclock", """
        from time import perf_counter
        from datetime import datetime
        def stamp():
            return perf_counter(), datetime.now()
    """)
    assert len(findings) == 2


def test_wallclock_passes_sim_now(tmp_path):
    findings = run_rule(tmp_path, "no-wallclock", """
        def stamp(sim):
            return sim.now          # simulated clock, not the host's
    """)
    assert findings == []


# --- seeded-rng-only -----------------------------------------------------

def test_rng_flags_bare_random(tmp_path):
    findings = run_rule(tmp_path, "seeded-rng-only", """
        import random
        def jitter():
            return random.random()
    """)
    assert [f.rule for f in findings] == ["seeded-rng-only"]


def test_rng_flags_numpy_default_rng_and_from_import(tmp_path):
    findings = run_rule(tmp_path, "seeded-rng-only", """
        import numpy as np
        from random import choice
        def jitter():
            return np.random.default_rng().integers(0, 4)
    """)
    assert len(findings) == 2


def test_rng_passes_registry_streams_and_annotations(tmp_path):
    findings = run_rule(tmp_path, "seeded-rng-only", """
        import numpy as np
        def jitter(sim) -> int:
            gen: np.random.Generator = sim.rng.stream("x")
            return int(gen.integers(0, 4))
    """)
    assert findings == []


def test_rng_exempts_the_registry_module(tmp_path):
    findings = run_rule(tmp_path, "seeded-rng-only", """
        import numpy as np
        def make(seed):
            return np.random.default_rng(np.random.SeedSequence(seed))
    """, rel="repro/sim/rng.py")
    assert findings == []


# --- no-nonposted-hotpath ------------------------------------------------

HOTPATH_READ = """
    class Driver:
        def _driver_submit(self, request):
            yield from self._prepare()

        def _prepare(self):
            raw = yield from self._meta_conn.read(0, 16)
            return raw
"""


def test_nonposted_flags_read_reachable_from_submit(tmp_path):
    findings = run_rule(tmp_path, "no-nonposted-hotpath", HOTPATH_READ,
                        rel="repro/driver/client.py")
    assert [f.rule for f in findings] == ["no-nonposted-hotpath"]
    assert "via _driver_submit" in findings[0].message
    assert "Fig. 8" in findings[0].message


def test_nonposted_is_scoped_to_driver_modules(tmp_path):
    findings = run_rule(tmp_path, "no-nonposted-hotpath", HOTPATH_READ,
                        rel="repro/nvme/controller.py")
    assert findings == []


def test_nonposted_passes_control_path_reads_and_posted_writes(tmp_path):
    findings = run_rule(tmp_path, "no-nonposted-hotpath", """
        class Driver:
            def start(self):
                # bootstrap (control path): non-posted reads are fine
                raw = yield from self._meta_conn.read(0, 16)
                return raw

            def _driver_submit(self, request):
                self._sq_conn.write(0, request.pack())
                yield self.sim.timeout(100)
    """, rel="repro/driver/client.py")
    assert findings == []


def test_nonposted_flags_reg_read_in_poller(tmp_path):
    findings = run_rule(tmp_path, "no-nonposted-hotpath", """
        class Driver:
            def _poller(self):
                while True:
                    status = yield from self._reg_read(0x1C)
    """, rel="repro/driver/stock.py")
    assert len(findings) == 1


RECORD_STEP_READ = """
    class _ClientRequest(CommandRecord):
        def _staging(self, part):
            self.part = part._value
            self._stage()

        def _stage(self):
            self.header = self._meta_conn.read(0, 16)
"""


def test_nonposted_flags_read_in_a_record_step(tmp_path):
    """A request record's steps are the data path whatever their names:
    every method of a ``*Record`` class is an entry point."""
    findings = run_rule(tmp_path, "no-nonposted-hotpath", RECORD_STEP_READ,
                        rel="repro/driver/client.py")
    assert [f.rule for f in findings] == ["no-nonposted-hotpath"]
    assert "self._meta_conn.read()" in findings[0].message
    assert "hot-path method _stage" in findings[0].message


def test_nonposted_same_steps_outside_a_record_pass(tmp_path):
    """Without the record base the same names are no entry points (the
    control path keeps its reads)."""
    findings = run_rule(tmp_path, "no-nonposted-hotpath",
                        RECORD_STEP_READ.replace("(CommandRecord)", ""),
                        rel="repro/driver/client.py")
    assert findings == []


# --- doorbell-after-sq-write ---------------------------------------------

def test_doorbell_flags_ring_before_sq_write(tmp_path):
    findings = run_rule(tmp_path, "doorbell-after-sq-write", """
        class Driver:
            def submit(self, sqe):
                self.fabric.post_write(
                    self.host.rc, self.host,
                    self.bar + sq_doorbell_offset(self.qid), b"tail")
                self.host.memory.write(self.sq.slot_addr(0), sqe.pack())
    """)
    assert [f.rule for f in findings] == ["doorbell-after-sq-write"]
    assert "stale SQE" in findings[0].message


def test_doorbell_passes_write_then_ring(tmp_path):
    findings = run_rule(tmp_path, "doorbell-after-sq-write", """
        class Driver:
            def submit(self, sqe):
                self.host.memory.write(self.sq.slot_addr(0), sqe.pack())
                self.fabric.post_write(
                    self.host.rc, self.host,
                    self.bar + sq_doorbell_offset(self.qid), b"tail")
    """)
    assert findings == []


def test_doorbell_reg_write_carrying_ring_is_not_its_own_write(tmp_path):
    findings = run_rule(tmp_path, "doorbell-after-sq-write", """
        class Driver:
            def submit(self, sqe):
                self._reg_write(
                    sq_doorbell_offset(0), self.sq.tail)
                self.host.memory.write(self.sq.slot_addr(0), sqe.pack())
    """)
    assert len(findings) == 1


def test_doorbell_flags_cq_ring_before_consume(tmp_path):
    findings = run_rule(tmp_path, "doorbell-after-sq-write", """
        class Driver:
            def _drain(self):
                self.fabric.post_write(
                    self.host.rc, self.host,
                    self.bar + cq_doorbell_offset(1), b"head")
                self.cq.consume()
    """)
    assert len(findings) == 1


def test_doorbell_cq_ring_helper_without_consume_is_fine(tmp_path):
    findings = run_rule(tmp_path, "doorbell-after-sq-write", """
        class Driver:
            def _ring_cq_doorbell(self):
                self.fabric.post_write(
                    self.host.rc, self.host,
                    self.bar + cq_doorbell_offset(1), b"head")
    """)
    assert findings == []


# --- units-discipline ----------------------------------------------------

def test_units_flags_float_ns_kwarg_timeout_and_bs_string(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        def setup(sim, Job):
            job = Job(delay_ns=2.5, bs="4k")
            yield sim.timeout(1.5)
    """)
    assert len(findings) == 3
    assert any("parse_size" in f.message for f in findings)


def test_units_flags_division_bound_to_ns_name(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        def budget(cfg):
            slack_ns = cfg.total_ns / 2
            return slack_ns
    """)
    assert len(findings) == 1


def test_units_flags_float_into_record_and_observe(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        def snapshot(rec, metrics, lat):
            rec.record(lat / 2)
            metrics.observe("repro_io_latency_ns", lat * 1.5,
                            device="d0")
    """)
    assert len(findings) == 2
    assert any("record()" in f.message for f in findings)
    assert any("observe()" in f.message for f in findings)


def test_units_passes_integer_record_and_observe(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        def snapshot(rec, metrics, lat):
            rec.record(round(lat / 2))
            metrics.observe("repro_io_latency_ns", int(lat),
                            device="d0")
    """)
    assert findings == []


def test_units_flags_float_into_record_io(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        def snapshot(hists, lat):
            hists.record_io("host1", "read", "nvme0", lat / 2)
            hists.record_io("host1", "read", "nvme0", round(lat / 2))
    """)
    assert len(findings) == 1
    assert "record_io()" in findings[0].message


def test_units_passes_integer_ns_and_declared_rates(tmp_path):
    findings = run_rule(tmp_path, "units-discipline", """
        from repro.units import us

        def setup(sim, Job):
            per_byte_ns = 1.0 / 2.4          # rate: ns per byte
            rate_ns: float = 0.5             # declared-float contract
            job = Job(delay_ns=us(2.5), per_byte_ns=1.0 / 1.8)
            yield sim.timeout(us(1.5))
    """)
    assert findings == []


# --- sim-process-yields --------------------------------------------------

def test_process_flags_yieldless_method(tmp_path):
    findings = run_rule(tmp_path, "sim-process-yields", """
        class Driver:
            def start(self, sim):
                sim.process(self._poller())

            def _poller(self):
                self.drained = 0
    """)
    assert [f.rule for f in findings] == ["sim-process-yields"]
    assert "_poller" in findings[0].message


def test_process_passes_generators_and_factories(tmp_path):
    findings = run_rule(tmp_path, "sim-process-yields", """
        def worker(sim):
            yield sim.timeout(100)

        class Driver:
            def start(self, sim):
                sim.process(self._poller())
                sim.process(self._factory())
                sim.process(worker(sim))

            def _poller(self):
                while True:
                    yield self.sim.timeout(10)

            def _factory(self):
                return make_generator_elsewhere()
    """)
    assert findings == []


# --- hotpath-alloc -------------------------------------------------------

def test_hotpath_alloc_flags_dataclass_and_comprehensions(tmp_path):
    findings = run_rule(tmp_path, "hotpath-alloc", """
        import dataclasses

        @dataclasses.dataclass
        class Entry:
            addr: int

        class Router:
            def resolve(self, addr):
                # hot-path
                hops = [n for n in self.nodes]
                return Entry(addr=addr)
    """)
    assert [f.rule for f in findings] == ["hotpath-alloc", "hotpath-alloc"]
    messages = " ".join(f.message for f in findings)
    assert "list comprehension" in messages
    assert "Entry" in messages


def test_hotpath_alloc_ignores_unmarked_functions(tmp_path):
    findings = run_rule(tmp_path, "hotpath-alloc", """
        import dataclasses

        @dataclasses.dataclass
        class Entry:
            addr: int

        class Router:
            def _build_plan(self, addrs):
                # cold: runs once per topology change
                return {a: Entry(addr=a) for a in addrs}

            def resolve(self, addr):
                # hot-path
                return self._plan[addr]
    """)
    assert findings == []


def test_hotpath_alloc_marker_binds_to_innermost_function(tmp_path):
    findings = run_rule(tmp_path, "hotpath-alloc", """
        class Router:
            def outer(self):
                extents = [b for b in self.blocks]

                def inner(x):
                    # hot-path
                    return x + 1
                return inner
    """)
    # The marker inside ``inner`` must not drag ``outer`` (and its
    # comprehension) into the contract.
    assert findings == []


def test_hotpath_alloc_respects_suppression(tmp_path):
    findings = run_rule(tmp_path, "hotpath-alloc", """
        import dataclasses

        @dataclasses.dataclass
        class Entry:
            addr: int

        class Router:
            def resolve(self, addr):
                # hot-path
                cached = self._cache.get(addr)
                if cached is not None:
                    return cached
                # staticcheck: ignore[hotpath-alloc] miss path, built once
                entry = Entry(addr=addr)
                self._cache[addr] = entry
                return entry
    """)
    assert findings == []


# --- lease-guard ---------------------------------------------------------

def test_lease_guard_flags_unlocked_queue_lifecycle(tmp_path):
    findings = run_rule(tmp_path, "lease-guard", """
        class NvmeManager:
            def _grant(self, qid, entries):
                yield from self.admin.create_io_cq(qid, entries, 0)
                yield from self.admin.create_io_sq(qid, entries, 0, qid)
    """, rel="repro/driver/manager.py")
    assert [f.rule for f in findings] == ["lease-guard", "lease-guard"]
    assert "_admin_lock" in findings[0].message


def test_lease_guard_passes_locked_calls(tmp_path):
    findings = run_rule(tmp_path, "lease-guard", """
        class NvmeManager:
            def _grant(self, qid, entries):
                lock = self._admin_lock.request()
                yield lock
                try:
                    yield from self.admin.create_io_cq(qid, entries, 0)
                    yield from self.admin.create_io_sq(qid, entries, 0,
                                                       qid)
                finally:
                    self._admin_lock.release(lock)
    """, rel="repro/driver/manager.py")
    assert findings == []


def test_lease_guard_scoped_to_the_manager(tmp_path):
    # The same unlocked call outside repro/driver/manager.py is not the
    # manager's admin path and stays out of scope.
    findings = run_rule(tmp_path, "lease-guard", """
        class Harness:
            def bootstrap(self, qid):
                yield from self.admin.create_io_cq(qid, 64, 0)
    """, rel="repro/driver/helper.py")
    assert findings == []


# --- window-epoch --------------------------------------------------------

def test_window_epoch_flags_blind_tenancy_change(tmp_path):
    findings = run_rule(tmp_path, "window-epoch", """
        def admit(qp, widx, tenant):
            qp.tenants[widx] = tenant
            return widx
    """, rel="repro/driver/manager.py")
    assert [f.rule for f in findings] == ["window-epoch"]
    assert "win_next_tail" in findings[0].message


def test_window_epoch_passes_with_handoff_state(tmp_path):
    findings = run_rule(tmp_path, "window-epoch", """
        def admit(qp, widx, tenant):
            if widx in qp.draining:
                return None
            qp.tenants[widx] = tenant
            return qp.win_next_tail[widx]
    """, rel="repro/driver/manager.py")
    assert findings == []


def test_window_epoch_scoped_to_the_driver(tmp_path):
    findings = run_rule(tmp_path, "window-epoch", """
        def admit(qp, widx, tenant):
            qp.tenants[widx] = tenant
    """, rel="repro/scenarios/fake.py")
    assert findings == []


# --- sanitizer-hook ------------------------------------------------------

def test_sanitizer_hook_flags_unhooked_ring_mutation(tmp_path):
    findings = run_rule(tmp_path, "sanitizer-hook", """
        class Ring:
            def advance_head(self):
                slot = self.head
                self.head = (self.head + 1) % self.entries
                return slot
    """, rel="repro/nvme/queues.py")
    assert [f.rule for f in findings] == ["sanitizer-hook"]
    assert "ShareSan" in findings[0].message


def test_sanitizer_hook_passes_hooked_mutation(tmp_path):
    findings = run_rule(tmp_path, "sanitizer-hook", """
        class Ring:
            def advance_head(self):
                for f in self.probe.ring_step:
                    f(self, "sq-fetch")
                slot = self.head
                self.head = (self.head + 1) % self.entries
                return slot
    """, rel="repro/nvme/queues.py")
    assert findings == []


def test_sanitizer_hook_wants_an_emit_not_a_mention(tmp_path):
    # Naming the probe (or the retired NULL-object guard) is not
    # emitting on it.
    findings = run_rule(tmp_path, "sanitizer-hook", """
        class Ring:
            def consume(self):
                probe = self.probe
                san = self.sanitizer
                self.head = (self.head + 1) % self.entries
    """, rel="repro/nvme/queues.py")
    assert [f.rule for f in findings] == ["sanitizer-hook"]


def test_sanitizer_hook_covers_extent_stores_and_suppression(tmp_path):
    flagged = run_rule(tmp_path, "sanitizer-hook", """
        class Mem:
            def poke(self, index, data):
                self._extents[index] = data
    """, rel="repro/memory/physmem.py")
    assert [f.rule for f in flagged] == ["sanitizer-hook"]
    # the paged store's slice store is a backing-store store too
    flagged = run_rule(tmp_path, "sanitizer-hook", """
        class Mem:
            def poke(self, offset, data):
                self._bytes[offset: offset + len(data)] = data
    """, rel="repro/memory/physmem.py")
    assert [f.rule for f in flagged] == ["sanitizer-hook"]
    suppressed = run_rule(tmp_path, "sanitizer-hook", """
        class Mem:
            def poke(self, index, data):
                # staticcheck: ignore[sanitizer-hook] debug backdoor
                self._extents[index] = data
    """, rel="repro/memory/physmem.py")
    assert suppressed == []


def test_sanitizer_hook_scoped_to_choke_points(tmp_path):
    # Ring-index mutation outside physmem/queues (e.g. the client's SQ
    # head reclaim) is out of scope by design.
    findings = run_rule(tmp_path, "sanitizer-hook", """
        class Client:
            def _dispatch(self, cqe):
                self.head = cqe.sq_head
    """, rel="repro/driver/client.py")
    assert findings == []
