"""Builtin-to-caller attribution on a hand-made pstats table."""

from hostsplit import PACKAGES, owner, rollup

SIM = ("/ck/src/repro/sim/core.py", 183, "run")
FABRIC = ("/ck/src/repro/pcie/fabric.py", 400, "post")
CONFIG = ("/ck/src/repro/config.py", 10, "replace")
SCENARIO = ("/ck/src/repro/scenarios/builders.py", 5, "multihost")
HARNESS = ("/ck/benchmarks/ledger/floor.py", 30, "drive")
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
LEN = ("~", 0, "<built-in method builtins.len>")
NUMPY = ("/usr/lib/python3/site-packages/numpy/core/fromnumeric.py", 70,
         "_wrapreduction")
REDUCE = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")


def entry(calls, self_s, callers=None):
    # pstats: (primitive calls, calls, self s, cumulative s, callers)
    return (calls, calls, self_s, self_s, callers or {})


def test_owner_maps_files_to_rows():
    assert owner(SIM) == "sim"
    assert owner(FABRIC) == "pcie"
    assert owner(CONFIG) == "other"        # repro, but not a layer
    assert owner(SCENARIO) == "other"
    assert owner(HARNESS) is None
    assert owner(HEAPPOP) is None
    assert owner(("C:\\ck\\src\\repro\\nvme\\queues.py", 1, "f")) == "nvme"


def test_builtins_are_charged_to_the_calling_package():
    stats = {
        HARNESS: entry(1, 0.5),
        SIM: entry(10, 2.0, {HARNESS: (10, 10, 2.0, 2.0)}),
        FABRIC: entry(4, 1.0, {SIM: (4, 4, 1.0, 1.0)}),
        HEAPPOP: entry(30, 0.3, {SIM: (30, 30, 0.3, 0.3)}),
        # one builtin shared by two packages and the harness
        LEN: entry(12, 0.12, {SIM: (5, 5, 0.05, 0.05),
                              FABRIC: (6, 6, 0.06, 0.06),
                              HARNESS: (1, 1, 0.01, 0.01)}),
    }
    rows = rollup(stats)
    assert rows["sim"] == [10 + 30 + 5, 2.0 + 0.3 + 0.05]
    assert rows["pcie"][0] == 4 + 6
    assert abs(rows["pcie"][1] - 1.06) < 1e-12
    # the harness and what only it called land in "other"
    assert rows["other"][0] == 1 + 1
    assert abs(rows["other"][1] - 0.51) < 1e-12


def test_foreign_code_called_by_foreign_code_lands_in_other():
    stats = {
        SIM: entry(1, 1.0),
        NUMPY: entry(3, 0.3, {SIM: (3, 3, 0.3, 0.3)}),
        REDUCE: entry(3, 0.6, {NUMPY: (3, 3, 0.6, 0.6)}),
    }
    rows = rollup(stats)
    assert rows["sim"] == [1 + 3, 1.3]
    assert rows["other"] == [3, 0.6]


def test_rows_sum_to_the_table_total_even_with_missing_callers():
    # the root of a profile has no caller entry; recursion can leave a
    # callee with more calls than its callers account for
    stats = {
        HEAPPOP: entry(7, 0.7, {SIM: (5, 5, 0.5, 0.5)}),
        SIM: entry(2, 0.2),
        CONFIG: entry(1, 0.1),
    }
    rows = rollup(stats)
    assert set(rows) == set(PACKAGES)
    assert sum(row[0] for row in rows.values()) == 10
    assert abs(sum(row[1] for row in rows.values()) - 1.0) < 1e-12
    assert rows["sim"][0] == 7
    assert rows["other"][0] == 3
