"""BENCHMARK.json against the benchmark contract and against the code
that prints the metrics."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import run
from hostsplit import PACKAGES

ROOT = pathlib.Path(__file__).resolve().parents[3]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_command():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_driver_budget():
    # 4 + 22 x workloads runs must end within 3420 s.  A run is the window
    # the repeats, probes and profiled pass are spread over, plus start-up,
    # the last repeat, the final probe and the untimed checks after it.
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 6) <= 3420


def test_workloads():
    workloads = CONTRACT["workloads"]
    assert len(workloads) == 4
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_specs():
    end_to_end, per_layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for spec in end_to_end:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in per_layer:
        assert set(spec) == {"name", "unit", "better"}
    for spec in end_to_end + per_layer:
        assert NAME.fullmatch(spec["name"]), spec
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    names = [w["name"] for w in CONTRACT["workloads"]] + \
        [spec["name"] for spec in end_to_end + per_layer]
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_metric_has_the_largest_bound():
    setup = next(s for s in CONTRACT["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in CONTRACT["end_to_end"])


def test_host_split_declares_both_rows_of_every_package():
    declared = {spec["name"] for spec in CONTRACT["per_layer"]}
    for package in PACKAGES:
        assert f"host.{package}.calls" in declared
        assert f"host.{package}.self_share" in declared


def test_declared_prints_exactly_the_declared_names():
    contract = {"end_to_end": [{"name": "a", "unit": "s"},
                               {"name": "b", "unit": "ms"}],
                "per_layer": [{"name": "a", "unit": "s"},
                              {"name": "model.x_us", "unit": "us"}]}
    assert run.declared(contract, "end_to_end", {"b": 2.0, "a": 1.0}) \
        == {"a": {"value": 1.0, "unit": "s"},
            "b": {"value": 2.0, "unit": "ms"}}
    with pytest.raises(SystemExit, match="not measured"):
        run.declared(contract, "end_to_end", {"a": 1.0})
    with pytest.raises(SystemExit, match="not declared"):
        run.declared(contract, "end_to_end", {"a": 1, "b": 2, "c": 3})
    # only the Fig. 10 fidelity figures may be absent; they read 0
    assert run.declared(contract, "per_layer", {"a": 1.0})["model.x_us"] \
        == {"value": 0.0, "unit": "us"}


def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files it must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(tmp_path, "--workload", "fig10-qd1", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_unknown_workload_is_refused():
    done = run_command(ROOT, "--workload", "nope")
    assert done.returncode == 2 and "unknown workload" in done.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_prints_every_declared_metric(trace):
    """The real command on its quickest workload (minimum repeats)."""
    done = run_command(ROOT, "--workload", "multihost-4-randread",
                       "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [s["name"] for s in CONTRACT[kind]]
    for spec in CONTRACT[kind]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
        return
    shares = sum(values[f"host.{p}.self_share"] for p in PACKAGES)
    assert abs(shares - 1.0) < 1e-9
    calls = sum(values[f"host.{p}.calls"] for p in PACKAGES)
    assert calls == int(calls) > 0
    # hooks are off on this workload: not one call into them
    assert values["host.telemetry.calls"] == 0
    assert values["host.qos.calls"] == 0
    assert values["host.sim.calls"] > values["host.pcie.calls"] > 0
    assert sum(value for name, value in values.items()
               if name.startswith("stage.")) > 0
