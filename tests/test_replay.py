"""Tests for block-trace record and replay."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenarios import cluster, local_linux, nvmeof_remote, \
    ours_remote
from repro.workloads import (TRACE_OPS, BlockTrace, FioJob,
                             RecordingDevice, TraceEntry, TraceError,
                             replay_trace, run_fio)

GOOD = {"arrival_ns": 0, "op": "read", "lba": 0, "nblocks": 8}

#: one malformed record each, and a fragment of the error it must raise
MALFORMED = [
    ({"arrival_ns": 0, "op": "trim", "lba": 0, "nblocks": 8},
     "unknown op"),
    ({"arrival_ns": 0, "op": "read", "lba": -1, "nblocks": 8}, "lba"),
    ({"arrival_ns": 0, "op": "read", "lba": 0, "nblocks": 0}, "nblocks"),
    ({"arrival_ns": 0.5, "op": "read", "lba": 0, "nblocks": 8},
     "integer"),
    ({"arrival_ns": 0, "op": "read", "lba": True, "nblocks": 8},
     "integer"),
    ({"arrival_ns": 0, "op": "read", "lba": 0}, "missing"),
    ({"arrival_ns": 0, "op": "read", "lba": 0, "nblocks": 8,
      "extra": 1}, "unknown field"),
]


class TestBlockTrace:
    def test_ordering_enforced(self):
        trace = BlockTrace()
        trace.append(TraceEntry(100, "read", 0, 8))
        with pytest.raises(ValueError):
            trace.append(TraceEntry(50, "read", 8, 8))

    def test_scaled(self):
        trace = BlockTrace([TraceEntry(1000, "read", 0, 8),
                            TraceEntry(2000, "write", 8, 8)])
        fast = trace.scaled(0.5)
        assert [e.arrival_ns for e in fast.entries] == [500, 1000]
        assert trace.duration_ns == 2000
        with pytest.raises(ValueError):
            trace.scaled(0)


class TestSerialization:
    """Trace <-> portable form: exact round-trip, strict parsing."""

    TRACE = BlockTrace([TraceEntry(0, "read", 40, 8),
                        TraceEntry(1500, "write", 0, 16),
                        TraceEntry(1500, "read", 1 << 30, 1)])

    def test_jsonl_round_trip_is_exact(self):
        text = self.TRACE.to_jsonl()
        assert text.count("\n") == 3
        back = BlockTrace.from_jsonl(text)
        assert back.entries == self.TRACE.entries
        # Canonical serialization: one stable byte form per trace.
        assert back.to_jsonl() == text

    def test_dict_round_trip_is_exact(self):
        back = BlockTrace.from_dicts(self.TRACE.as_dicts())
        assert back.entries == self.TRACE.entries

    def test_blank_lines_tolerated(self):
        text = "\n" + self.TRACE.to_jsonl().replace("\n", "\n\n")
        assert BlockTrace.from_jsonl(text).entries == self.TRACE.entries

    @pytest.mark.parametrize("record, fragment", MALFORMED)
    def test_malformed_record_rejected_with_its_number(self, record,
                                                       fragment):
        with pytest.raises(TraceError, match="record 2") as err:
            BlockTrace.from_dicts([GOOD, record])
        assert fragment in str(err.value)

    def test_out_of_order_arrivals_rejected(self):
        records = [{"arrival_ns": 100, "op": "read", "lba": 0,
                    "nblocks": 8},
                   {"arrival_ns": 50, "op": "read", "lba": 8,
                    "nblocks": 8}]
        with pytest.raises(TraceError, match="record 2"):
            BlockTrace.from_dicts(records)

    def test_invalid_json_line_numbered(self):
        text = self.TRACE.to_jsonl() + "{not json\n"
        with pytest.raises(TraceError, match="line 4"):
            BlockTrace.from_jsonl(text)

    def test_non_object_line_rejected(self):
        with pytest.raises(TraceError, match="record 1"):
            BlockTrace.from_jsonl("[1, 2, 3]\n")


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers()
               | st.floats() | st.text(max_size=8))
    return st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8)


@st.composite
def _jsonl(draw):
    """A valid trace of up to 8 records, then up to two corruptions: a
    field dropped, a field (or ``extra``) set to any JSON value, or a
    junk line spliced in."""
    arrivals = sorted(draw(st.lists(
        st.integers(0, 5_000) | st.just((1 << 64) - 1), max_size=8)))
    records = [{"arrival_ns": arrival,
                "op": draw(st.sampled_from(TRACE_OPS)),
                "lba": draw(st.integers(0, 64)),
                "nblocks": draw(st.integers(1, 9))}
               for arrival in arrivals]
    junk = (_json_values() | st.sampled_from(
        [-1, 0, 1 << 40, 1 << 64, 10**400, 0.5, True, "trim"]))
    lines: list[str | dict] = list(records)
    for _ in range(draw(st.integers(0, 2))):
        if records and draw(st.booleans()):
            record = records[draw(st.integers(0, len(records) - 1))]
            field = draw(st.sampled_from(TraceEntry.FIELDS + ("extra",)))
            if draw(st.booleans()):
                record.pop(field, None)
            else:
                record[field] = draw(junk)
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(
                st.text(max_size=40) | junk.map(json.dumps)))
    return "\n".join(line if isinstance(line, str) else json.dumps(line)
                     for line in lines)


def _seeded(test):
    """Run the fuzz on the malformed records above and on the inputs
    that used to escape as something other than a TraceError."""
    good = json.dumps(GOOD)
    escapes = ["[" * 100_000,
               good.replace('"arrival_ns": 0', '"arrival_ns": ' + "9" * 5_000),
               json.dumps({**GOOD, "arrival_ns": 10**400}),
               json.dumps({**GOOD, "arrival_ns": 1, "lba": 1 << 40})]
    for text in [json.dumps(record) for record, _ in MALFORMED] + escapes:
        test = example(text=good + "\n" + text)(test)
    return test


class TestTraceBoundary:
    """A JSONL trace is untrusted input: whatever a line holds, parsing
    ends in a trace or in a :class:`TraceError` naming the line or
    record — never in a traceback from deeper down."""

    LINE = json.dumps(GOOD)

    def test_deep_nesting_is_a_trace_error(self):
        with pytest.raises(TraceError, match="line 2"):
            BlockTrace.from_jsonl(self.LINE + "\n" + "[" * 100_000)

    def test_oversized_integer_literal_is_a_trace_error(self):
        line = self.LINE.replace('"arrival_ns": 0', '"arrival_ns": '
                                 + "9" * 5_000)
        with pytest.raises(TraceError, match="line 2"):
            BlockTrace.from_jsonl(self.LINE + "\n" + line)

    @pytest.mark.parametrize("field", ["arrival_ns", "lba", "nblocks"])
    def test_integer_fields_fit_in_64_bits(self, field):
        """10**400 used to parse, then overflow a float in
        ``replay_trace(..., speedup=2.0)`` and ``BlockTrace.scaled``."""
        edge = BlockTrace.from_dicts([{**GOOD, field: (1 << 64) - 1}])
        assert getattr(edge.entries[0], field) == (1 << 64) - 1
        for value in (1 << 64, 10**400):
            text = self.LINE + "\n" + json.dumps({**GOOD, field: value})
            with pytest.raises(TraceError, match="record 2.*64 bits"):
                BlockTrace.from_jsonl(text)

    def test_extent_past_the_device_fails_before_any_issue(self):
        device = ours_remote(seed=431).device
        trace = BlockTrace([TraceEntry(0, "read", 0, 8),
                            TraceEntry(10, "write", 8, 8),
                            TraceEntry(20, "read",
                                       device.capacity_lbas + 5, 1)])
        now = device.sim.now
        with pytest.raises(TraceError, match="record 3"):
            replay_trace(device, trace)
        assert device.completed == 0
        assert device.sim.now == now

    @settings(max_examples=40, deadline=None)
    @given(text=_jsonl() | st.text())
    @_seeded
    def test_any_input_is_a_trace_or_a_trace_error(self, text):
        try:
            trace = BlockTrace.from_jsonl(text)
        except TraceError as exc:
            assert re.match(r"(line|record) \d+: ", str(exc))
            return
        if len(trace) > 8 or any(e.nblocks > 8 for e in trace.entries):
            return
        for speedup in (0.5, 1.0, 3.0):
            device = ours_remote(seed=432).device
            if any(e.lba + e.nblocks > device.capacity_lbas
                   for e in trace.entries):
                with pytest.raises(TraceError, match="beyond the end"):
                    replay_trace(device, trace, speedup=speedup)
                continue
            result = replay_trace(device, trace, speedup=speedup)
            assert result.issued == result.completed == len(trace)
            assert result.errors == 0


class TestRecording:
    def test_recording_passes_through_and_captures(self):
        scenario = local_linux(seed=400)
        recorder = RecordingDevice(scenario.device)
        result = run_fio(recorder, FioJob(rw="randrw", total_ios=80))
        assert result.ios == 80
        assert len(recorder.trace) == 80
        # entries ordered and within the run duration
        arrivals = [e.arrival_ns for e in recorder.trace.entries]
        assert arrivals == sorted(arrivals)
        assert all(e.op in ("read", "write")
                   for e in recorder.trace.entries)

    def test_recorded_data_path_intact(self):
        scenario = local_linux(seed=401)
        recorder = RecordingDevice(scenario.device)
        from repro.driver import BlockRequest

        def flow(sim):
            req = yield recorder.submit(BlockRequest("write", lba=3,
                                                     data=b"r" * 512))
            assert req.ok
            req = yield recorder.submit(BlockRequest("read", lba=3,
                                                     nblocks=1))
            return req

        req = scenario.sim.run(
            until=scenario.sim.process(flow(scenario.sim)))
        assert req.result == b"r" * 512


class TestReplay:
    def _record(self, seed=402, ios=60):
        scenario = local_linux(seed=seed)
        recorder = RecordingDevice(scenario.device)
        run_fio(recorder, FioJob(rw="randread", total_ios=ios,
                                 region_lbas=1 << 20))
        return recorder.trace

    def test_replay_completes_all(self):
        trace = self._record()
        scenario = ours_remote(seed=403)
        result = replay_trace(scenario.device, trace)
        assert result.issued == 60
        assert result.completed == 60
        assert result.errors == 0
        assert len(result.latencies) == 60

    def test_open_loop_exposes_slower_transport(self):
        """Under the identical offered load, the slower transport shows
        higher per-I/O latency — the closed-loop flattery is gone."""
        trace = self._record(ios=80)
        fast = replay_trace(ours_remote(seed=404).device, trace)
        slow = replay_trace(nvmeof_remote(seed=404).device, trace)
        assert slow.latencies.summary().median > \
            fast.latencies.summary().median + 4_000

    def test_replay_onto_cluster_volume(self):
        """A recorded trace replays against a striped multi-device
        volume: same I/O stream, every request lands and completes."""
        trace = self._record(ios=60)
        scn = cluster(n_clients=1, n_devices=2, width=2, replicas=2,
                      seed=410, queue_depth=16)
        volume = scn.volumes[0]
        result = replay_trace(volume, trace)
        assert result.issued == 60
        assert result.completed == 60
        assert result.errors == 0
        # The stripe actually spread the stream over both members.
        moved = [path.bytes_moved for path in volume.paths]
        assert all(b > 0 for b in moved)

    def test_round_tripped_trace_replays_identically(self):
        """Serialization is semantically lossless: the wire-format
        round trip drives the exact same simulation."""
        trace = self._record(ios=50)
        back = BlockTrace.from_jsonl(trace.to_jsonl())
        a = replay_trace(ours_remote(seed=411).device, trace)
        b = replay_trace(ours_remote(seed=411).device, back)
        assert a.latencies.values().tolist() == \
            b.latencies.values().tolist()

    def test_compressed_trace_builds_queueing_delay(self):
        """Compressing arrivals far below the device's service rate
        forces queueing, visible as tag-wait time inside the latency."""
        trace = self._record(ios=80)
        relaxed = replay_trace(ours_remote(seed=405).device, trace)
        crushed = replay_trace(ours_remote(seed=406,
                                           queue_depth=4).device,
                               trace.scaled(0.002))
        assert crushed.latencies.summary().median > \
            2 * relaxed.latencies.summary().median
        assert crushed.elapsed_ns < relaxed.elapsed_ns


class TestRateScaledReplay:
    """``speedup`` / ``inflight_cap`` replay modes."""

    def _record(self, seed=420, ios=60):
        scenario = local_linux(seed=seed)
        recorder = RecordingDevice(scenario.device)
        run_fio(recorder, FioJob(rw="randread", total_ios=ios,
                                 region_lbas=1 << 20))
        return recorder.trace

    def test_speedup_matches_prescaled_trace(self):
        """``speedup=2`` is exactly ``trace.scaled(0.5)`` (halving is
        float-exact, so the two schedules are identical)."""
        trace = self._record()
        a = replay_trace(ours_remote(seed=421).device, trace, speedup=2.0)
        b = replay_trace(ours_remote(seed=421).device, trace.scaled(0.5))
        assert a.latencies.values().tolist() == \
            b.latencies.values().tolist()
        assert a.elapsed_ns == b.elapsed_ns

    def test_speedup_compresses_offered_load(self):
        trace = self._record(ios=80)
        base = replay_trace(ours_remote(seed=422).device, trace)
        fast = replay_trace(ours_remote(seed=423).device, trace,
                            speedup=50.0)
        assert fast.elapsed_ns < base.elapsed_ns
        assert fast.completed == base.completed == 80
        with pytest.raises(ValueError):
            replay_trace(ours_remote(seed=424).device, trace, speedup=0)

    def test_inflight_cap_bounds_outstanding(self):
        """A cap of 1 serializes the compressed stream: every request
        waits for its predecessor, so the run takes longer than the
        uncapped replay of the same schedule."""
        trace = self._record(ios=40)
        uncapped = replay_trace(ours_remote(seed=425).device,
                                trace.scaled(0.001))
        capped = replay_trace(ours_remote(seed=426).device,
                              trace.scaled(0.001), inflight_cap=1)
        assert capped.completed == uncapped.completed == 40
        assert capped.elapsed_ns > uncapped.elapsed_ns
        with pytest.raises(ValueError):
            replay_trace(ours_remote(seed=427).device, trace,
                         inflight_cap=0)

    def test_open_loop_latency_charges_backlog(self):
        """Latency runs from the *scheduled* arrival, so cap-induced
        software backlog inflates ``latencies`` instead of hiding in a
        stalled issuer; ``service_latencies`` of the same replay run
        from the submission and do not see it."""
        trace = self._record(ios=40)
        replay = replay_trace(ours_remote(seed=428).device,
                              trace.scaled(0.001), inflight_cap=1)
        assert replay.max_backlog_ns > 0
        assert replay.latencies.summary().median > \
            replay.service_latencies.summary().median

    def test_uncapped_latency_is_the_service_latency(self):
        """With no cap delaying an issue, every request is submitted at
        its scheduled arrival: the two recorders agree to the ns."""
        trace = self._record(ios=40)
        device = ours_remote(seed=430).device
        replay = replay_trace(device, trace, speedup=3.0)
        assert replay.max_backlog_ns == replay.capped_arrivals == 0
        assert replay.latencies.values().tolist() == \
            replay.service_latencies.values().tolist()
        assert replay.bytes_moved == device.lba_bytes * sum(
            e.nblocks for e in trace.entries)

    def test_constructor_bypass_rejected_at_replay(self):
        """A trace built by handing an out-of-order list straight to
        the constructor (bypassing ``append``) fails loudly at replay
        with the record number, not silently reordered."""
        trace = BlockTrace([TraceEntry(100, "read", 0, 8),
                            TraceEntry(50, "read", 8, 8)])
        with pytest.raises(TraceError, match="record 2"):
            replay_trace(local_linux(seed=429).device, trace)
        with pytest.raises(TraceError, match="record 2"):
            trace.validate_order()
