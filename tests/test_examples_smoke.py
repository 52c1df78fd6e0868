"""Smoke tests: every example must run to completion and produce its
headline output (keeps the documented entry points from rotting)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "latency: min=" in out
        assert "kIOPS" in out

    def test_queue_placement_tuning(self, capsys):
        out = run_example("queue_placement_tuning", capsys)
        assert "device-side" in out
        assert "paper default" in out

    def test_cluster_kv_store(self, capsys):
        out = run_example("cluster_kv_store", capsys)
        assert "records written by 4 hosts" in out

    def test_striped_remote_devices(self, capsys):
        out = run_example("striped_remote_devices", capsys)
        assert "striped x2" in out
        assert "verified bit-exact" in out

    def test_traced_io(self, capsys):
        out = run_example("traced_io", capsys)
        assert "SQE fetched" in out
        assert "CQE posted" in out

    @pytest.mark.slow
    def test_multi_host_sharing(self, capsys):
        out = run_example("multi_host_sharing", capsys)
        assert "cross-host reads verified" in out
