"""Framework tests: runner, suppressions, output, CLI.

Also the acceptance checks from the issue: the live tree is clean, and
deliberately inserting an unseeded ``random.random()`` or a non-posted
read into the distributed client's submit path makes the checker fail.
"""

from __future__ import annotations

import io
import json
import pathlib
import textwrap

import pytest

import repro
from repro.cli import main as cli_main
from repro.staticcheck import all_rules, check_file, get_rule
from repro.staticcheck.runner import main as sc_main
from repro.staticcheck.runner import run

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent
CLIENT_PY = PACKAGE_DIR / "driver" / "client.py"
QPAIR_PY = PACKAGE_DIR / "driver" / "qpair.py"


def write_fixture(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


# --- registry ------------------------------------------------------------

def test_at_least_six_rules_registered():
    names = {rule.name for rule in all_rules()}
    assert names >= {
        "no-wallclock", "seeded-rng-only", "no-nonposted-hotpath",
        "doorbell-after-sq-write", "units-discipline", "hotpath-alloc",
    }
    assert len(names) >= 6


def test_unknown_rule_name_raises():
    try:
        get_rule("definitely-not-a-rule")
    except KeyError as exc:
        assert "known:" in str(exc)
    else:
        raise AssertionError("expected KeyError")


# --- the live tree -------------------------------------------------------

def test_live_tree_is_clean():
    findings, nfiles = run([PACKAGE_DIR])
    assert nfiles > 50
    assert findings == []


def test_inserting_unseeded_random_in_submit_path_fails(tmp_path):
    source = CLIENT_PY.read_text()
    anchor = "self.device._parts.get(self._staging)"
    assert anchor in source
    mutated = source.replace(
        anchor,
        "import random\n        jitter = random.random()\n        "
        + anchor)
    path = write_fixture(tmp_path, "repro/driver/client.py", mutated)
    findings, _ = run([path])
    assert any(f.rule == "seeded-rng-only" for f in findings)
    assert sc_main([str(path)], out=io.StringIO()) == 1


def test_inserting_nonposted_read_in_submit_path_fails(tmp_path):
    # A step of the client's request record: a root of its own, however
    # it is named (docs/static_analysis.md).
    source = CLIENT_PY.read_text()
    anchor = "self.device._parts.get(self._staging)"
    assert anchor in source
    mutated = source.replace(
        anchor,
        "stale = self.device._meta_conn.read(0, 16)\n        "
        + anchor)
    path = write_fixture(tmp_path, "repro/driver/client.py", mutated)
    findings, _ = run([path])
    assert any(f.rule == "no-nonposted-hotpath" for f in findings)


def test_doorbell_swap_in_submit_path_fails(tmp_path):
    # Every stack's SQE store and SQ doorbell are one function of the
    # queue-pair core, so that is where the rule has to bite.
    source = QPAIR_PY.read_text()
    store = ("store = self.sq_mem.write((self.first_slot + slot) * 64, "
             "sqe.pack())")
    assert store in source
    # Move the SQE store after the doorbell ring: classic stale-fetch bug.
    mutated = source.replace("        " + store + "\n", "")
    mutated = mutated.replace(
        "                              sq.tail.to_bytes(4, \"little\"))",
        "                              sq.tail.to_bytes(4, \"little\"))\n"
        "            " + store)
    assert mutated.count(store) == 1 and mutated != source
    path = write_fixture(tmp_path, "repro/driver/qpair.py", mutated)
    findings, _ = run([path])
    assert any(f.rule == "doorbell-after-sq-write" for f in findings)


@pytest.mark.parametrize("anchor", [
    "        slot = sq.advance_tail()\n",       # issue (via submit)
    "        drained = 0\n",                    # drain
])
def test_nonposted_read_in_the_queue_pair_core_fails(tmp_path, anchor):
    source = QPAIR_PY.read_text()
    assert source.count(anchor) == 1
    mutated = source.replace(
        anchor, anchor + "        self._cq_conn.read(0, 16)\n")
    path = write_fixture(tmp_path, "repro/driver/qpair.py", mutated)
    findings, _ = run([path])
    assert any(f.rule == "no-nonposted-hotpath" for f in findings)


# --- suppressions --------------------------------------------------------

def test_same_line_suppression(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()  # staticcheck: ignore[no-wallclock] fixture
    """)
    assert check_file(path, [get_rule("no-wallclock")]) == []


def test_previous_comment_line_suppression(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            # staticcheck: ignore[no-wallclock] fixture justification
            return time.time()
    """)
    assert check_file(path, [get_rule("no-wallclock")]) == []


def test_suppression_for_other_rule_does_not_silence(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()  # staticcheck: ignore[units-discipline]
    """)
    assert len(check_file(path, [get_rule("no-wallclock")])) == 1


# --- runner / output -----------------------------------------------------

def test_select_limits_rules(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def setup(Job):
            Job(delay_ns=1.5)
            return time.time()
    """)
    findings, _ = run([path], select=["units-discipline"])
    assert {f.rule for f in findings} == {"units-discipline"}


def test_parse_error_is_reported_not_raised(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", "def broken(:\n")
    findings = check_file(path, all_rules())
    assert [f.rule for f in findings] == ["parse-error"]


def test_json_output_and_exit_codes(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()
    """)
    out = io.StringIO()
    assert sc_main([str(path), "--format", "json"], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "no-wallclock"
    assert payload["findings"][0]["fingerprint"]

    clean = write_fixture(tmp_path, "repro/sim/clean.py",
                          "def f(sim):\n    return sim.now\n")
    assert sc_main([str(clean)], out=io.StringIO()) == 0
    assert sc_main([str(tmp_path / "missing.py")],
                   out=io.StringIO()) == 2
    assert sc_main([str(clean), "--select", "no-such-rule"],
                   out=io.StringIO()) == 2


def test_list_rules_output():
    out = io.StringIO()
    assert sc_main(["--list-rules"], out=out) == 0
    assert "no-nonposted-hotpath" in out.getvalue()


# --- CLI integration -----------------------------------------------------

def test_cli_staticcheck_subcommand(tmp_path, capsys):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()
    """)
    assert cli_main(["staticcheck", str(path)]) == 1
    captured = capsys.readouterr()
    assert "no-wallclock" in captured.out
    assert cli_main(["staticcheck", str(PACKAGE_DIR / "sim")]) == 0


def test_multiple_pragmas_on_one_line(tmp_path):
    # Two violations on one line, silenced by two separate markers —
    # the second pragma must not be swallowed by the first.
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp(Job):
            return Job(delay_ns=1.5), time.time()  # staticcheck: ignore[units-discipline] fixture # staticcheck: ignore[no-wallclock] fixture
    """)
    rules = [get_rule("units-discipline"), get_rule("no-wallclock")]
    # Each rule alone would flag the line ...
    unsuppressed = write_fixture(tmp_path, "repro/sim/y.py", """
        import time
        def stamp(Job):
            return Job(delay_ns=1.5), time.time()
    """)
    assert {f.rule for f in check_file(unsuppressed, rules)} == {
        "units-discipline", "no-wallclock"}
    # ... and both pragmas together silence both.
    assert check_file(path, rules) == []


def test_multiple_pragmas_mixed_with_comma_list(tmp_path):
    from repro.staticcheck.suppress import Suppressions
    sup = Suppressions(
        ["x = f()  # staticcheck: ignore[rule-a, rule-b] one "
         "# staticcheck: ignore[rule-c] two"])
    assert sup.matches("rule-a", 1)
    assert sup.matches("rule-b", 1)
    assert sup.matches("rule-c", 1)
    assert not sup.matches("rule-d", 1)
    assert set(sup.mentioned) == {"rule-a", "rule-b", "rule-c"}


def test_a_pragma_naming_no_rule_is_a_finding(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        x = 1  # staticcheck: ignore[no-such-rule] typo
        # staticcheck: ignore[no-wallclock, lease-guard] retired rule
        y = time.time()
    """)
    findings = check_file(path, all_rules())
    assert [(f.rule, f.line) for f in findings] == [
        ("unknown-rule", 3), ("unknown-rule", 4)]
    assert "no-such-rule" in findings[0].message
    assert "lease-guard" in findings[1].message
    assert sc_main([str(path)], out=io.StringIO()) == 1


# --- stats ----------------------------------------------------------------

def test_stats_text_output(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()
    """)
    out = io.StringIO()
    assert sc_main([str(path), "--stats"], out=out) == 1
    text = out.getvalue()
    assert "stats: 1 file(s) in" in text
    assert "no-wallclock 1" in text


def test_stats_json_output(tmp_path):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()
    """)
    out = io.StringIO()
    assert sc_main([str(path), "--format", "json", "--stats"],
                   out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["stats"]["files_scanned"] == 1
    assert payload["stats"]["findings_per_rule"] == {"no-wallclock": 1}
    assert payload["stats"]["scan_time_ms"] >= 0


def test_cli_staticcheck_stats_passthrough(tmp_path, capsys):
    path = write_fixture(tmp_path, "repro/sim/x.py", """
        import time
        def stamp():
            return time.time()
    """)
    assert cli_main(["staticcheck", str(path), "--stats"]) == 1
    captured = capsys.readouterr()
    assert "no-wallclock" in captured.out
    assert "stats:" in captured.out
