"""Tests for scenario builders and analysis tables (the paper's
acceptance criteria are the rows of tests/test_fidelity.py)."""

import numpy as np
import pytest

from repro.analysis import Fig10Report, format_table, render_boxplots
from repro.scenarios import FIG10_SCENARIOS, build_fig10_scenario, multihost
from repro.sim import BoxplotStats


class TestBuilders:
    def test_all_fig10_scenarios_build(self):
        for name in FIG10_SCENARIOS:
            scenario = build_fig10_scenario(name, seed=1)
            assert scenario.label == name
            assert scenario.device.capacity_lbas > 0

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build_fig10_scenario("bogus")

    def test_multihost_counts(self):
        scenario = multihost(3, seed=2)
        assert len(scenario.clients) == 3
        assert scenario.testbed.nvme.io_queue_count == 3

    def test_multihost_too_many(self):
        # With sharing refused, the paper's hard 31-client limit holds.
        with pytest.raises(ValueError):
            multihost(32, sharing="never")
        # With the default sharing policy the limit is the shared-QP
        # capacity instead.
        from repro.config import SimulationConfig

        cap = SimulationConfig().sharing.capacity(31)
        with pytest.raises(ValueError):
            multihost(cap + 1)

    def test_multihost_including_device_host(self):
        scenario = multihost(2, seed=3, include_device_host=True)
        assert scenario.clients[0].node.host is scenario.testbed.hosts[0]


class TestAnalysis:
    def _stats(self, name, values):
        return BoxplotStats.from_values(np.array(values), name=name)

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        assert "T" in out and "333" in out
        assert out.count("|") >= 3

    def test_render_boxplots(self):
        stats = [self._stats("one", [1000, 2000, 3000]),
                 self._stats("two", [2000, 4000, 9000])]
        art = render_boxplots(stats, width=60)
        assert "one" in art and "two" in art
        assert "#" in art and "|" in art
        assert "(us)" in art

    def test_render_empty_rejected(self):
        with pytest.raises(ValueError):
            render_boxplots([])

    def _fake_report(self, nvmeof_min=19600, ours_local_min=13000,
                     ours_remote_min=14100, stock_min=11900):
        def mk(name, minimum):
            vals = np.linspace(minimum, minimum + 800, 50)
            return BoxplotStats.from_values(vals.astype(int), name=name)

        reads = {"local-linux": mk("local-linux", stock_min),
                 "nvmeof-remote": mk("nvmeof-remote", nvmeof_min),
                 "ours-local": mk("ours-local", ours_local_min),
                 "ours-remote": mk("ours-remote", ours_remote_min)}
        writes = {"local-linux": mk("local-linux", stock_min + 1500),
                  "nvmeof-remote": mk("nvmeof-remote", nvmeof_min + 1400),
                  "ours-local": mk("ours-local", ours_local_min + 1300),
                  "ours-remote": mk("ours-remote",
                                    ours_remote_min + 2200)}
        return Fig10Report(reads, writes)

    def test_fig10_report_deltas_and_shape(self):
        report = self._fake_report()
        deltas = report.deltas_us()
        assert deltas["nvmeof-read-delta"] == pytest.approx(7.7)
        assert deltas["ours-read-delta"] == pytest.approx(1.1)
        assert deltas["ours-write-delta"] == pytest.approx(2.0)
        assert report.shape_ok()
        assert all(report.check_claims().values())

    def test_fig10_report_detects_broken_shape(self):
        report = self._fake_report(nvmeof_min=12500)  # too fast
        assert not report.shape_ok()

    def test_fig10_tables_render(self):
        report = self._fake_report()
        assert "scenario" in report.to_table()
        assert "paper (us)" in report.delta_table()
