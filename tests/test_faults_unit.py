"""Unit tests for the fault-injection subsystem itself: plan
validation/expansion, registry state machine, and injector scheduling
(no NVMe stack involved)."""

import pytest

from repro.faults import (FaultError, FaultEvent, FaultInjector,
                          FaultPlan, FaultPointRegistry)
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


class TestFaultEvent:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(0, "meteor_strike", "link:host1")

    def test_rejects_negative_times_and_bad_probability(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, "link_down", "link:host1")
        with pytest.raises(ValueError):
            FaultEvent(0, "link_down", "link:host1", duration_ns=-5)
        with pytest.raises(ValueError):
            FaultEvent(0, "tlp_drop", "link:host1", probability=1.5)

    def test_revert_event_inverse_actions(self):
        down = FaultEvent(100, "link_down", "link:h", duration_ns=50)
        up = down.revert_event()
        assert up == FaultEvent(150, "link_up", "link:h")

        stall = FaultEvent(10, "ctrl_stall", "ctrl:n", duration_ns=5)
        assert stall.revert_event().action == "ctrl_resume"

        drop = FaultEvent(0, "tlp_drop", "link:h", probability=0.3,
                          duration_ns=9)
        revert = drop.revert_event()
        assert revert.action == "tlp_drop"
        assert revert.probability == 0.0     # reverts to "no drops"

    def test_no_revert_for_permanent_or_kill(self):
        assert FaultEvent(0, "link_down", "link:h").revert_event() is None
        assert FaultEvent(0, "kill_client", "client:c",
                          duration_ns=99).revert_event() is None


class TestFaultPlan:
    def test_expanded_includes_reverts_sorted_stably(self):
        plan = FaultPlan((
            FaultEvent(300, "link_down", "link:a", duration_ns=100),
            FaultEvent(100, "ctrl_stall", "ctrl:n", duration_ns=300),
        ))
        times = [(ev.at_ns, ev.action) for ev in plan.expanded()]
        # Ties broken by plan position: link_down's revert was listed
        # first, so it fires first at t=400.
        assert times == [(100, "ctrl_stall"), (300, "link_down"),
                         (400, "link_up"), (400, "ctrl_resume")]

    def test_dict_roundtrip(self):
        plan = FaultPlan((
            FaultEvent(5, "tlp_delay", "link:a", delay_ns=7,
                       duration_ns=3),
            FaultEvent(9, "kill_client", "client:c"),
        ))
        assert FaultPlan.from_dicts(plan.as_dicts()) == plan

    def test_merged_and_targets(self):
        a = FaultPlan.link_flap("h1", at_ns=10, duration_ns=5)
        b = FaultPlan.kill("c1", at_ns=3)
        merged = a.merged(b)
        assert [ev.at_ns for ev in merged.events] == [3, 10]
        assert merged.targets() == ["client:c1", "link:h1"]

    def test_random_is_a_pure_function_of_seed(self):
        def make(seed):
            return FaultPlan.random(
                RngRegistry(seed), "chaos", horizon_ns=1_000_000,
                link_points=["link:a", "link:b"],
                ctrl_points=["ctrl:n"],
                client_points=["client:c1", "client:c2"],
                n_events=10, kill_at_most=2)

        assert make(42) == make(42)
        assert make(42) != make(43)

    def test_random_respects_bounds(self):
        plan = FaultPlan.random(
            RngRegistry(7), "chaos", horizon_ns=500_000,
            link_points=["link:a"], client_points=["client:c1"],
            n_events=20, max_outage_ns=1_000,
            max_drop_probability=0.02, kill_at_most=1)
        kills = [ev for ev in plan.events if ev.action == "kill_client"]
        assert len(kills) <= 1
        for ev in plan.events:
            assert 0 <= ev.at_ns < 500_000
            assert ev.probability <= 0.02
            if ev.action != "kill_client":
                assert ev.duration_ns < 1_000
        assert [ev.at_ns for ev in plan.events] == sorted(
            ev.at_ns for ev in plan.events)

    def test_random_with_no_points_is_empty(self):
        assert len(FaultPlan.random(RngRegistry(1), "s", 1000)) == 0


class TestRegistry:
    def make(self):
        sim = Simulator(seed=99)
        reg = FaultPointRegistry(sim)
        reg.register("link:a")
        reg.register("ctrl:n")
        return sim, reg

    def test_lookup_unknown_point_fails_with_roster(self):
        _, reg = self.make()
        with pytest.raises(FaultError, match="link:a"):
            reg.lookup("link:zzz")

    def test_link_state_and_blocked_query(self):
        _, reg = self.make()
        assert reg.link_blocked("a", "b") is None
        reg.set_link("link:a", False)
        assert reg.link_blocked("b", "a") == "link:a"
        reg.set_link("link:a", True)
        assert reg.link_blocked("a") is None

    def test_drop_degenerate_probabilities_are_deterministic(self):
        sim, reg = self.make()
        reg.set_drop("link:a", 1.0)
        assert reg.tlp_dropped(sim.rng, "a") == "link:a"
        reg.set_drop("link:a", 0.0)
        assert reg.tlp_dropped(sim.rng, "a") is None
        # unknown hosts never drop
        assert reg.tlp_dropped(sim.rng, "nobody") is None

    def test_delay_sums_across_points(self):
        _, reg = self.make()
        reg.register("link:b")
        reg.set_delay("link:a", 100)
        reg.set_delay("link:b", 50)
        assert reg.tlp_delay_ns("a", "b") == 150
        assert reg.tlp_delay_ns("a") == 100

    def test_mutator_validation(self):
        _, reg = self.make()
        with pytest.raises(FaultError):
            reg.set_drop("link:a", 1.5)
        with pytest.raises(FaultError):
            reg.set_delay("link:a", -1)
        with pytest.raises(FaultError):
            reg.set_abort("ctrl:n", -0.1)

    def test_stall_barrier_blocks_until_resume(self):
        """``stalled`` hands a waiter the event the lift fires; asked
        again then, it says the point is clear."""
        sim, reg = self.make()
        log = []

        def worker():
            while (clear := reg.stalled("ctrl:n")) is not None:
                yield clear
            log.append(sim.now)

        reg.stall("ctrl:n")
        reg.stall("ctrl:n")      # idempotent
        sim.process(worker())

        def unstall():
            yield sim.timeout(500)
            reg.resume("ctrl:n")

        sim.process(unstall())
        sim.run(until=sim.timeout(1_000))
        assert log == [500]
        # Not stalled: the barrier is a no-op.
        sim.process(worker())
        sim.run(until=sim.timeout(1_100))
        assert len(log) == 2


class TestInjector:
    def test_plan_times_are_relative_to_start(self):
        sim = Simulator(seed=1)
        reg = FaultPointRegistry(sim)
        reg.register("link:a")
        plan = FaultPlan.link_flap("a", at_ns=100, duration_ns=50)
        inj = FaultInjector(sim, reg, plan)

        def late_start():
            yield sim.timeout(10_000)   # "bring-up" consumed sim time
            inj.start()

        sim.process(late_start())
        sim.run(until=sim.timeout(10_120))
        assert not reg.lookup("link:a").link_up      # down at +100
        sim.run(until=sim.timeout(100))
        assert reg.lookup("link:a").link_up          # back up at +150
        assert [ev.action for ev in inj.applied] == ["link_down",
                                                     "link_up"]

    def test_unknown_target_fails_before_any_time_passes(self):
        sim = Simulator(seed=1)
        reg = FaultPointRegistry(sim)
        plan = FaultPlan.kill("ghost", at_ns=5)
        inj = FaultInjector(sim, reg, plan)
        with pytest.raises(FaultError):
            inj.start()

    def test_kill_requires_crash_capable_object(self):
        sim = Simulator(seed=1)
        reg = FaultPointRegistry(sim)
        reg.register("client:c")     # no object behind it
        inj = FaultInjector(sim, reg, FaultPlan.kill("c", at_ns=0))
        inj.start()
        with pytest.raises(FaultError, match="crash-capable"):
            sim.run(until=sim.timeout(10))

    def test_start_is_idempotent(self):
        sim = Simulator(seed=1)
        reg = FaultPointRegistry(sim)
        reg.register("link:a")
        inj = FaultInjector(sim, reg,
                            FaultPlan.link_flap("a", at_ns=0,
                                                duration_ns=10))
        assert inj.start() is inj.start()
        sim.run(until=sim.timeout(100))
        assert inj.stats.get("link_down") == 1
