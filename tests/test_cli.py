"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "ours-remote"
        assert args.rw == "randread"
        assert args.iodepth == 1

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_three_subcommands(self):
        assert "{list,run,fig10}" in build_parser().format_help()

    def test_bad_rw_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rw", "trim"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("local-linux", "nvmeof-remote", "ours-local",
                     "ours-remote"):
            assert name in out

    def test_run(self, capsys):
        rc = main(["run", "ours-local", "--ios", "120", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kIOPS" in out
        assert "med=" in out

    def test_run_write_mode(self, capsys):
        rc = main(["run", "local-linux", "--rw", "randwrite", "--ios",
                   "100", "--bs", "8k"])
        assert rc == 0
        assert "j0-write" in capsys.readouterr().out

    def test_multihost(self, capsys):
        rc = main(["run", "multihost", "--clients", "2", "--ios", "60",
                   "--iodepth", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "host1" in out and "host2" in out
        assert "kIOPS" in out

    def test_observers_and_faults_compose(self, capsys, tmp_path):
        rc = main(["run", "cluster", "--clients", "2", "--rw", "randrw",
                   "--iodepth", "4", "--ios", "400", "--seed", "7",
                   "--faults", "kill", "--observe", "spans,slo,sanitize",
                   "--check", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "killed ctrl:nvme1" in out and "clean" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cluster-metrics.prom", "cluster-sharesan.json",
            "cluster-slo-report.json", "cluster-summary.json",
            "cluster-timeseries.jsonl", "cluster-trace.json"]

    def test_selftest_is_a_scenario(self, capsys):
        assert main(["run", "selftest"]) == 0
        assert "all detectors fire" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--bs", "garbage"],
        ["run", "--bs", "1000"],
        ["run", "--iodepth", "0"],
        ["run", "cluster", "--width", "3"],
        ["run", "cluster", "--devices", "0"],
        ["run", "noisy", "--bystanders", "0"],
        ["run", "noisy", "--bystanders", "20"],
        ["run", "multihost", "--clients", "0"],
        # a flag that means nothing to the scenario is not dropped
        ["run", "multihost", "--devices", "3"],
        ["run", "ours-remote", "--faults", "kill"],
        ["run", "selftest", "--ios", "5"],
        ["run", "chaos", "--observe", "spans,bogus"],
        ["run", "multihost", "--check"],
    ], ids=" ".join)
    def test_bad_value_is_a_usage_error_not_a_traceback(self, argv,
                                                        capsys):
        """Configs are a trust boundary: exit 2 and one line."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_fig10_small(self, capsys):
        rc = main(["fig10", "--ios", "150"])
        out = capsys.readouterr().out
        assert "minimum-latency delta" in out
        assert rc == 0, out
