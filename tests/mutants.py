"""Mutants: defects that a named test selection must catch.

Each :class:`Mutant` is one edit of one file of the checkout (a module
under ``src/repro/``; a few edit a generated doc table): its ``old``
text, which must appear exactly once, becomes ``new``.  The runner
copies the checkout to a temporary directory, applies the edit there and
runs the entry's pytest selection in the copy, with ``PYTHONPATH`` at
the copy's ``src/``.  The mutant is *caught* when that run fails (pytest
exit 1); a selection that passes, a collection or usage error, a
time-out and an ``old`` text that is missing or appears twice are all
reported as not caught.

``kind`` says what a catch proves:

* ``killed`` -- a test of the model fails.  An entry naming a ``rule``
  stands for a static rule that was retired, or for the half of one
  (docs/static_analysis.md, "Retired rules"): its test asserts the
  property the rule guarded.
* ``rule-only`` -- tier-1 passes on the mutant and only ``rule`` flags
  it: the selection is the static checker's live-tree test, and the
  runner also requires ``rule`` itself among the findings.  Every kept
  rule but the two determinism conventions (``no-wallclock``,
  ``seeded-rng-only``) has one.

Tier-1 (``tests/test_mutants.py``) checks only that every ``old`` text
is still there; CI runs every mutant on each Python it tests::

    python -m pytest -q -m mutants tests/test_mutants.py
    python -m tests.mutants [ID ...]      # the same, with a report
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: seconds one selection may run before the mutant counts as not caught
TIMEOUT_S = 600

#: the selection of every ``rule-only`` entry
LIVE_TREE = ("tests/test_staticcheck.py::test_live_tree_is_clean",)


@dataclasses.dataclass(frozen=True)
class Mutant:
    id: str
    path: str                   #: from the checkout's root
    old: str
    new: str
    selection: tuple[str, ...]  #: pytest arguments that must fail
    kind: str = "killed"        #: ``killed`` or ``rule-only``
    rule: str | None = None     #: the static rule this mutant judges

    def mutate(self, source: str) -> str:
        found = source.count(self.old)
        if found != 1:
            raise ValueError(f"{self.id}: old text appears {found} times "
                             f"in {self.path}, not once")
        return source.replace(self.old, self.new)


MUTANTS: tuple[Mutant, ...] = (
    # -- sim-process-yields -------------------------------------------------
    Mutant("process-body-without-yield", "src/repro/nvme/controller.py",
           "        yield self.sim.timeout(self.config.enable_latency_ns)\n",
           "        self.sim.timeout(self.config.enable_latency_ns)\n",
           ("tests/test_adminq.py::TestAdminQueues::test_enable_disable_cycle",),
           rule="sim-process-yields"),
    Mutant("fault-plan-without-yield", "src/repro/faults/injector.py",
           "                yield self.sim.timeout(due - self.sim.now)\n",
           "                self.sim.timeout(due - self.sim.now)\n",
           ("tests/test_faults_unit.py::TestInjector"
            "::test_plan_times_are_relative_to_start",),
           rule="sim-process-yields"),
    # -- units-discipline ---------------------------------------------------
    Mutant("fractional-timeout", "src/repro/nvme/controller.py",
           "        yield self.sim.timeout(self.config.enable_latency_ns)\n",
           "        yield self.sim.timeout(self.config.enable_latency_ns / 3)\n",
           ("tests/test_adminq.py::TestAdminQueues::test_enable_disable_cycle",),
           rule="units-discipline"),
    Mutant("float-ns-keyword", "src/repro/scenarios/rig.py",
           "    lease_check_interval_ns=250_000,\n",
           "    lease_check_interval_ns=2.5e5,\n",
           LIVE_TREE, kind="rule-only", rule="units-discipline"),
    # -- doorbell-after-sq-write --------------------------------------------
    Mutant("doorbell-before-sqe-store", "src/repro/driver/qpair.py",
           "        store = self.sq_mem.write((self.first_slot + slot) * 64, sqe.pack())\n"
           "        for f in self.probe.sqe_issued:\n"
           "            f(self, sqe, slot, store, request)\n"
           "        if self.ring is None:\n"
           "            ring = self._post(self._host.rc, self._host,\n"
           "                              self._bar + sq_doorbell_offset(sq.qid),\n"
           "                              sq.tail.to_bytes(4, \"little\"))\n",
           "        if self.ring is None:\n"
           "            ring = self._post(self._host.rc, self._host,\n"
           "                              self._bar + sq_doorbell_offset(sq.qid),\n"
           "                              sq.tail.to_bytes(4, \"little\"))\n"
           "        store = self.sq_mem.write((self.first_slot + slot) * 64, sqe.pack())\n"
           "        for f in self.probe.sqe_issued:\n"
           "            f(self, sqe, slot, store, request)\n"
           "        if self.ring is None:\n",
           ("tests/test_ordering_and_integrity.py::TestControllerOrdering"
            "::test_sq_doorbell_lands_after_the_sqes_it_covers",),
           rule="doorbell-after-sq-write"),
    Mutant("cq-doorbell-before-consume", "src/repro/driver/client.py",
           "                if raw[14] & 1 == cq.phase:\n"
           "                    cq.consume()\n"
           "                    self._qp.complete(CompletionEntry.unpack(raw))\n"
           "                    # The pair holds no remote CQ: ring its head here.\n"
           "                    self.node.fabric.post_write(\n"
           "                        self.node.host.rc, self.node.host,\n"
           "                        self._bar + cq_doorbell_offset(cq.qid),\n"
           "                        cq.head.to_bytes(4, \"little\"))\n",
           "                if raw[14] & 1 == cq.phase:\n"
           "                    # The pair holds no remote CQ: ring its head here.\n"
           "                    self.node.fabric.post_write(\n"
           "                        self.node.host.rc, self.node.host,\n"
           "                        self._bar + cq_doorbell_offset(cq.qid),\n"
           "                        cq.head.to_bytes(4, \"little\"))\n"
           "                    cq.consume()\n"
           "                    self._qp.complete(CompletionEntry.unpack(raw))\n",
           LIVE_TREE, kind="rule-only", rule="doorbell-after-sq-write"),
    # -- lease-guard --------------------------------------------------------
    Mutant("create-pair-without-admin-lock", "src/repro/driver/manager.py",
           "        lock = self._admin_lock.request()\n"
           "        yield lock\n"
           "        try:\n"
           "            cq_created = False\n"
           "            try:\n"
           "                yield from self.admin.create_io_cq(qid, entries, cq_addr,\n"
           "                                                   **cq)\n"
           "                cq_created = True\n"
           "                yield from self.admin.create_io_sq(qid, entries, sq_addr,\n"
           "                                                   cqid=qid, **sq)\n"
           "            except AdminError:\n"
           "                if cq_created:\n"
           "                    try:\n"
           "                        yield from self.admin.delete_io_cq(qid)\n"
           "                    except AdminError:\n"
           "                        pass   # controller lost it already\n"
           "                self._free_qids.append(qid)\n"
           "                return False\n"
           "        finally:\n"
           "            self._admin_lock.release(lock)\n"
           "        return True\n",
           "        try:\n"
           "            cq_created = False\n"
           "            try:\n"
           "                yield from self.admin.create_io_cq(qid, entries, cq_addr,\n"
           "                                                   **cq)\n"
           "                cq_created = True\n"
           "                yield from self.admin.create_io_sq(qid, entries, sq_addr,\n"
           "                                                   cqid=qid, **sq)\n"
           "            except AdminError:\n"
           "                if cq_created:\n"
           "                    try:\n"
           "                        yield from self.admin.delete_io_cq(qid)\n"
           "                    except AdminError:\n"
           "                        pass   # controller lost it already\n"
           "                self._free_qids.append(qid)\n"
           "                return False\n"
           "        finally:\n"
           "            pass\n"
           "        return True\n",
           ("tests/test_faults_chaos.py::TestQueueLifecycleIsSerialised",),
           rule="lease-guard"),
    Mutant("delete-pairs-without-admin-lock", "src/repro/driver/manager.py",
           "        lock = self._admin_lock.request()\n"
           "        yield lock\n"
           "        try:\n"
           "            for qid in qids:\n"
           "                try:\n"
           "                    yield from self.admin.delete_io_sq(qid)\n"
           "                    yield from self.admin.delete_io_cq(qid)\n"
           "                except AdminError:\n"
           "                    if not forgive:\n"
           "                        raise\n"
           "                self._free_qids.append(qid)\n"
           "        finally:\n"
           "            self._admin_lock.release(lock)\n",
           "        try:\n"
           "            for qid in qids:\n"
           "                try:\n"
           "                    yield from self.admin.delete_io_sq(qid)\n"
           "                    yield from self.admin.delete_io_cq(qid)\n"
           "                except AdminError:\n"
           "                    if not forgive:\n"
           "                        raise\n"
           "                self._free_qids.append(qid)\n"
           "        finally:\n"
           "            pass\n",
           ("tests/test_faults_chaos.py::TestQueueLifecycleIsSerialised",),
           rule="lease-guard"),
    # -- hotpath-alloc ------------------------------------------------------
    Mutant("comprehension-on-a-hot-path", "src/repro/rdma/verbs.py",
           "        mr = self._regions.get(rkey)\n",
           "        mr = {key: mr for key, mr in self._regions.items()}.get(rkey)\n",
           LIVE_TREE, kind="rule-only", rule="hotpath-alloc"),
    # -- window-epoch -------------------------------------------------------
    Mutant("window-granted-at-ring-start", "src/repro/driver/manager.py",
           "        win_tail = qp.win_next_tail[widx]\n",
           "        win_tail = 0\n",
           ("tests/test_qp_sharing.py::TestWindowHandoff"
            "::test_shadow_handoff_on_reuse",),
           rule="window-epoch"),
    Mutant("window-released-without-handoff", "src/repro/driver/manager.py",
           "        qp.win_next_tail[widx] = shadow\n"
           "        if ten is not None and ten.mailbox is not None:\n"
           "            ten.mailbox.disconnect()\n"
           "        qp.tenants[widx] = None\n"
           "        if qp.win_completed[widx] < shadow:\n"
           "            # Commands are still outstanding in the window: quarantine\n"
           "            # it until the absolute completion count (counted over the\n"
           "            # CQEs we drop as orphans) catches up with the departed\n"
           "            # tenant's absolute submission count.\n"
           "            qp.draining[widx] = shadow\n",
           "        if ten is not None and ten.mailbox is not None:\n"
           "            ten.mailbox.disconnect()\n"
           "        qp.tenants[widx] = None\n",
           ("tests/test_qp_sharing.py::TestWindowHandoff"
            "::test_shadow_handoff_on_reuse",),
           rule="window-epoch"),
    # -- sanitizer-hook -----------------------------------------------------
    Mutant("unseen-memory-write", "src/repro/memory/physmem.py",
           "        for f in self.probe.mem_event:\n"
           "            f(self, \"write\", addr, length)\n",
           "",
           ("tests/test_probe.py::test_the_hand_built_cluster_saw_every_flavour",),
           rule="sanitizer-hook"),
    Mutant("unseen-cq-consume", "src/repro/nvme/queues.py",
           "        for f in self.probe.ring_step:\n"
           "            f(self, \"cq-consume\")\n",
           "",
           ("tests/test_probe.py::test_the_hand_built_cluster_saw_every_flavour",),
           rule="sanitizer-hook"),
    # -- no-nonposted-hotpath -----------------------------------------------
    Mutant("nonposted-read-on-cancel", "src/repro/driver/blockdev.py",
           "        \"\"\"Nothing to cancel: the request goes on without the waiter.\"\"\"\n",
           "        \"\"\"Nothing to cancel: the request goes on without the waiter.\"\"\"\n"
           "        self.device._cq_conn.read(0, 16)\n",
           LIVE_TREE, kind="rule-only", rule="no-nonposted-hotpath"),
    # -- open-loop issuer, telemetry hub and tick loops as records --------
    Mutant("cap-wait-run-inline", "src/repro/workloads/open_loop.py",
           "            self._arm(0, self._arrived)\n",
           "            self._arrived(None)\n",
           ("tests/test_open_loop_records.py::TestTheRecordMatchesTheGenerator::test_jobs",)),
    Mutant("due-arrival-armed", "src/repro/workloads/open_loop.py",
           "            if now < target:\n",
           "            if now < target or (now == target and _timer is None):\n",
           ("tests/test_open_loop_records.py::TestTheRecordMatchesTheGenerator::test_schedules",)),
    Mutant("histogram-method-back-in-a-handler", "src/repro/telemetry/hub.py",
           "        # LogHistogram.record, its bucket_index inline\n"
           "        if value < hist._n_sub:\n"
           "            idx = value\n"
           "        else:\n"
           "            exp = value.bit_length() - hist.sub_bits\n"
           "            idx = hist._n_sub + (exp - 1) * hist._half \\\n"
           "                + ((value >> exp) - hist._half)\n"
           "        counts = hist.counts\n"
           "        counts[idx] = counts.get(idx, 0) + 1\n"
           "        recent = hist.recent\n"
           "        recent[idx] = recent.get(idx, 0) + 1\n"
           "        hist.count += 1\n"
           "        hist.total += value\n",
           "        hist.record(value)\n",
           ("tests/test_open_loop_records.py::TestHubHandlerCost::test_io_completed",)),
    Mutant("span-method-back-in-a-handler", "src/repro/telemetry/hub.py",
           "            spans = self.spans\n"
           "            request.span = span = IoSpan(\n"
           "                spans._next_index, device.name, request.op, request.lba,\n"
           "                request.nblocks * device.lba_bytes, request.submit_time)\n"
           "            spans._next_index += 1\n"
           "            spans.spans.append(span)\n",
           "            request.span = self.spans.begin(\n"
           "                device.name, request.op, request.lba,\n"
           "                request.nblocks * device.lba_bytes, request.submit_time)\n",
           ("tests/test_open_loop_records.py::TestHubHandlerCost::test_io_submitted",)),
    Mutant("arb-granted-unclean-again", "src/repro/telemetry/spans.py",
           '    BOUNDARIES, BOUNDARIES[:3] + ("arb-granted",) + BOUNDARIES[3:])\n',
           "    BOUNDARIES,)\n",
           ("tests/test_telemetry.py::TestInstrumentedScenarios"
            "::test_shared_sq_spans_are_clean",)),
    Mutant("sim-now-back-in-a-handler", "src/repro/telemetry/hub.py",
           '                span.marks.append(("media-done", self.sim._now))\n',
           '                span.marks.append(("media-done", self.sim.now))\n',
           ("tests/test_open_loop_records.py::TestHubHandlerCost::test_controller_marks",)),
    Mutant("sampler-ends-on-the-spot", "src/repro/telemetry/timeseries.py",
           "        self._kick(self._stopped)\n",
           "        self.succeed()\n",
           ("tests/test_slo.py::TestLoopsAreRecords",)),
    Mutant("throttle-checks-after-stop", "src/repro/qos/throttle.py",
           "        if not self.throttle._running:\n"
           "            self.succeed()\n"
           "            return\n"
           "        self.throttle._check()\n",
           "        self.throttle._check()\n"
           "        if not self.throttle._running:\n"
           "            self.succeed()\n"
           "            return\n",
           ("tests/test_slo.py::TestLoopsAreRecords",)),
    # -- generated doc tables and cited headings ---------------------------
    Mutant("config-default-moved", "src/repro/config.py",
           "    memory_read_latency_ns: int = 90\n",
           "    memory_read_latency_ns: int = 95\n",
           ("tests/test_docs.py",)),
    Mutant("calibration-table-digit", "docs/calibration.md",
           "| `memory_read_latency_ns` | 90 ns |",
           "| `memory_read_latency_ns` | 91 ns |",
           ("tests/test_docs.py",)),
    Mutant("stage-table-digit", "docs/observability.md",
           "| `fetch` | 876 | 876 | 876 |",
           "| `fetch` | 876 | 877 | 876 |",
           ("tests/test_docs.py",)),
    Mutant("probe-table-argument", "docs/observability.md",
           "| `doorbell_landed` | `ctrl, qid, is_cq, value, ok` |",
           "| `doorbell_landed` | `ctrl, qid, is_cq, value` |",
           ("tests/test_docs.py",)),
    Mutant("cited-heading-renamed", "docs/fault_injection.md",
           "## Recovery machinery\n",
           "## Recovery\n",
           ("tests/test_docs.py",)),
    Mutant("experiments-table-digit", "EXPERIMENTS.md",
           "| ours-remote | read | 350 | 14.18 | 14.54 | 14.87 |",
           "| ours-remote | read | 350 | 14.18 | 14.55 | 14.87 |",
           ("tests/test_fidelity.py::test_experiments_md_is_current",)),
    # -- client shutdown gives back what start took ------------------------
    Mutant("freed-dma-not-zeroed", "src/repro/pcie/topology.py",
           "        self.memory._bytes[offset: offset + length] = bytes(length)\n",
           "",
           ("tests/test_driver_distributed.py::TestClientLifecycleLoop",)),
    Mutant("shutdown-keeps-its-segments", "src/repro/driver/client.py",
           "            if seg is not None:\n"
           "                seg.remove()\n",
           "            if seg is not None:\n"
           "                pass\n",
           ("tests/test_driver_distributed.py::TestClientLifecycleLoop",)),
    # -- a flow record covers the NTB window its walk proved ---------------
    Mutant("extent-ignores-the-lut-window", "src/repro/pcie/fabric.py",
           "                    lo = max(lo, start - shift)\n"
           "                    hi = min(hi, start + window.size - shift)\n",
           "",
           ("tests/test_property_fabric.py::TestFlowRecordsAgainstTheWalk",)),
    Mutant("extent-ignores-the-mapping", "src/repro/pcie/fabric.py",
           "            lo = max(lo, mapping.base - shift)\n"
           "            hi = min(hi, mapping.base + mapping.size - shift)\n",
           "",
           ("tests/test_property_fabric.py::TestFlowRecordsAgainstTheWalk",)),
    Mutant("extent-outlives-a-bump", "src/repro/pcie/fabric.py",
           "        for table in (*self._flows, *self._walked):\n",
           "        for table in self._flows:\n",
           ("tests/test_property_fabric.py::TestFlowRecordsAgainstTheWalk",)),
    # -- a PRP list page decoded in bulk ------------------------------------
    Mutant("prp-entry-alignment-unchecked", "src/repro/nvme/prp.py",
           "    if 0 in data_ptrs or any(map(page_size.__rmod__, data_ptrs)):\n",
           "    if 0 in data_ptrs:\n",
           ("tests/test_prp_crosscheck.py::TestBulkDecodeMatchesReference",)),
    Mutant("prp-last-entry-unpatched", "src/repro/nvme/prp.py",
           "    segs[-1] = (data_ptrs[-1], remaining - (needed - 1) * page_size)\n",
           "",
           ("tests/test_prp_crosscheck.py::TestBulkDecodeMatchesReference",)),
    Mutant("prp-chained-remaining-off-by-a-page", "src/repro/nvme/prp.py",
           "        return list_addr, remaining - (per_page - 1) * page_size\n",
           "        return list_addr, remaining - per_page * page_size\n",
           ("tests/test_prp_crosscheck.py::TestBulkDecodeMatchesReference",)),
    # -- application profiles as fio jobs -----------------------------------
    Mutant("zipf-permutation-dropped", "src/repro/workloads/fio.py",
           "            self.placement = self.rng.permutation(slots).tolist()\n",
           "            self.placement = list(range(slots))\n",
           ("tests/test_workload_patterns.py::TestTheWorkersMatchTheReference",)),
    Mutant("mix-payloads-drawn-up-front", "src/repro/workloads/fio.py",
           "        self.payloads: dict[int, bytes] = {}\n",
           "        self.payloads = {bs: bytes(self.rng.integers(\n"
           "            0, 256, size=bs, dtype=np.uint8)) for bs, _w, _s in mix}\n",
           ("tests/test_workload_patterns.py::TestTheWorkersMatchTheReference",)),
    # -- a burst follower behind a queued member skips the take ------------
    Mutant("follower-skip-keyed-on-the-boot", "src/repro/pcie/fabric.py",
           "        elif (boot is None or after.plan is not plan) \\\n",
           "        elif boot is None \\\n",
           ("tests/test_pcie_fabric.py::TestPostWrites::test_a_burst_delivers_as_single_posts_do",)),
    Mutant("follower-skip-behind-any-plan", "src/repro/pcie/fabric.py",
           "        elif (boot is None or after.plan is not plan) \\\n",
           "        elif (boot is None or after.plan is None) \\\n",
           ("tests/test_pcie_fabric.py::TestPostWrites::test_a_burst_delivers_as_single_posts_do",)),
)


@dataclasses.dataclass(frozen=True)
class Outcome:
    caught: bool
    report: str


def run(mutant: Mutant, timeout: float = TIMEOUT_S) -> Outcome:
    """Apply ``mutant`` to a copy of the checkout and run its selection."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".benchmarks"))
        target = copy / mutant.path
        try:
            target.write_text(mutant.mutate(target.read_text()))
        except ValueError as exc:
            return Outcome(False, str(exc))
        if mutant.kind == "rule-only":
            from repro.staticcheck import run as check
            findings, _ = check([target], select=[mutant.rule])
            if not findings:
                return Outcome(False, f"{mutant.id}: {mutant.rule} does "
                                      f"not flag the mutant")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", *mutant.selection]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return Outcome(False, f"{mutant.id}: selection timed out "
                                  f"after {timeout} s")
    tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-15:])
    if proc.returncode == 1:
        return Outcome(True, f"{mutant.id}: caught\n{tail}")
    verdict = ("selection passed" if proc.returncode == 0
               else f"pytest exit {proc.returncode}")
    return Outcome(False, f"{mutant.id}: {verdict}\n{tail}")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    missed = 0
    for mutant in chosen:
        outcome = run(mutant)
        missed += not outcome.caught
        print(("CAUGHT  " if outcome.caught else "MISSED  ") + mutant.id)
        if not outcome.caught:
            print(outcome.report)
    print(f"{len(chosen) - missed} of {len(chosen)} mutant(s) caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main(sys.argv[1:]))
