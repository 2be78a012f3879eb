"""Tests for the discrete-event scheduling engine."""

import pytest

from repro.sim.engine import EventDrivenEngine, SimulationError


class TestBasicScheduling:
    def test_single_task(self):
        engine = EventDrivenEngine()
        engine.add_task("only", 2.0)
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(2.0)
        assert schedule.task("only").start == 0.0

    def test_independent_tasks_without_resources_run_in_parallel(self):
        engine = EventDrivenEngine()
        engine.add_task("a", 3.0)
        engine.add_task("b", 5.0)
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(5.0)
        assert schedule.task("a").start == 0.0
        assert schedule.task("b").start == 0.0

    def test_empty_graph(self):
        assert EventDrivenEngine().run().makespan == 0.0

    def test_zero_duration_task(self):
        engine = EventDrivenEngine()
        engine.add_task("noop", 0.0)
        assert engine.run().makespan == 0.0


class TestDependencies:
    def test_chain_is_serialised(self):
        engine = EventDrivenEngine()
        a = engine.add_task("a", 1.0)
        b = engine.add_task("b", 2.0, deps=(a,))
        engine.add_task("c", 3.0, deps=(b,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(6.0)
        assert schedule.task("b").start == pytest.approx(1.0)
        assert schedule.task("c").start == pytest.approx(3.0)

    def test_fan_in_waits_for_slowest_dependency(self):
        engine = EventDrivenEngine()
        fast = engine.add_task("fast", 1.0)
        slow = engine.add_task("slow", 4.0)
        engine.add_task("join", 1.0, deps=(fast, slow))
        schedule = engine.run()
        assert schedule.task("join").start == pytest.approx(4.0)
        assert schedule.makespan == pytest.approx(5.0)

    def test_fan_out_runs_children_concurrently(self):
        engine = EventDrivenEngine()
        root = engine.add_task("root", 1.0)
        engine.add_task("left", 2.0, deps=(root,))
        engine.add_task("right", 3.0, deps=(root,))
        schedule = engine.run()
        assert schedule.task("left").start == pytest.approx(1.0)
        assert schedule.task("right").start == pytest.approx(1.0)
        assert schedule.makespan == pytest.approx(4.0)

    def test_unknown_dependency_rejected(self):
        engine = EventDrivenEngine()
        other_engine = EventDrivenEngine()
        foreign = other_engine.add_task("foreign", 1.0)
        with pytest.raises(SimulationError):
            engine.add_task("bad", 1.0, deps=(foreign,))


class TestResources:
    def test_shared_resource_serialises_tasks(self):
        engine = EventDrivenEngine()
        link = engine.resource("link")
        engine.add_task("a", 2.0, resources=(link,))
        engine.add_task("b", 3.0, resources=(link,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(5.0)

    def test_distinct_resources_do_not_interfere(self):
        engine = EventDrivenEngine()
        engine.add_task("a", 2.0, resources=(engine.resource("r1"),))
        engine.add_task("b", 3.0, resources=(engine.resource("r2"),))
        assert engine.run().makespan == pytest.approx(3.0)

    def test_resource_registry_returns_same_object(self):
        engine = EventDrivenEngine()
        assert engine.resource("pu") is engine.resource("pu")

    def test_task_claiming_two_resources_blocks_both(self):
        engine = EventDrivenEngine()
        r1, r2 = engine.resource("r1"), engine.resource("r2")
        engine.add_task("both", 5.0, resources=(r1, r2))
        engine.add_task("on_r1", 1.0, resources=(r1,))
        engine.add_task("on_r2", 1.0, resources=(r2,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(6.0)

    def test_resource_plus_dependency(self):
        engine = EventDrivenEngine()
        link = engine.resource("link")
        a = engine.add_task("a", 2.0, resources=(link,))
        engine.add_task("b", 1.0, resources=(link,), deps=(a,))
        engine.add_task("c", 4.0, resources=(link,))
        schedule = engine.run()
        # All three share the link: total busy time is 7 regardless of order.
        assert schedule.makespan == pytest.approx(7.0)


class TestValidationAndReporting:
    def test_duplicate_task_names_rejected(self):
        engine = EventDrivenEngine()
        engine.add_task("x", 1.0)
        with pytest.raises(ValueError):
            engine.add_task("x", 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EventDrivenEngine().add_task("bad", -1.0)

    def test_missing_task_lookup_raises(self):
        engine = EventDrivenEngine()
        engine.add_task("x", 1.0)
        schedule = engine.run()
        with pytest.raises(KeyError):
            schedule.task("y")

    def test_tags_preserved_and_queryable(self):
        engine = EventDrivenEngine()
        engine.add_task("a", 1.0, tags={"phase": "forward"})
        engine.add_task("b", 2.0, tags={"phase": "forward"})
        engine.add_task("c", 4.0, tags={"phase": "backward"})
        schedule = engine.run()
        assert len(schedule.by_tag("phase", "forward")) == 2
        assert schedule.total_duration_by_tag("phase", "forward") == pytest.approx(3.0)
        assert schedule.total_duration_by_tag("phase", "backward") == pytest.approx(4.0)

    def test_scheduled_task_duration(self):
        engine = EventDrivenEngine()
        engine.add_task("a", 2.5)
        task = engine.run().task("a")
        assert task.duration == pytest.approx(2.5)


class TestRepeatedRuns:
    def test_second_run_returns_the_same_schedule(self):
        """Resource availability and task times must not leak from one
        run into the next (a shared-resource chain once doubled)."""
        engine = EventDrivenEngine()
        link = engine.resource("link")
        first = engine.add_task("first", 1.0, resources=(link,))
        engine.add_task("second", 2.0, resources=(link,), deps=(first,))
        once = engine.run()
        twice = engine.run()
        assert once.makespan == twice.makespan == 3.0
        assert once == twice
        assert link.available_at == 3.0

    def test_tasks_added_between_runs_are_scheduled_fresh(self):
        engine = EventDrivenEngine()
        pu = engine.resource("pu")
        a = engine.add_task("a", 1.0, resources=(pu,))
        assert engine.run().makespan == 1.0
        engine.add_task("b", 2.0, resources=(pu,), deps=(a,))
        schedule = engine.run()
        assert schedule.task("b").start == 1.0
        assert schedule.makespan == 3.0


class TestLargerGraphs:
    def test_diamond_with_resources(self):
        engine = EventDrivenEngine()
        pu = engine.resource("pu")
        source = engine.add_task("source", 1.0, resources=(pu,))
        left = engine.add_task("left", 2.0, resources=(pu,), deps=(source,))
        right = engine.add_task("right", 2.0, resources=(pu,), deps=(source,))
        engine.add_task("sink", 1.0, resources=(pu,), deps=(left, right))
        schedule = engine.run()
        # Everything shares one resource: 1 + 2 + 2 + 1.
        assert schedule.makespan == pytest.approx(6.0)

    def test_hundreds_of_tasks(self):
        engine = EventDrivenEngine()
        previous = None
        for index in range(500):
            deps = (previous,) if previous is not None else ()
            previous = engine.add_task(f"t{index}", 0.01, deps=deps)
        assert engine.run().makespan == pytest.approx(5.0)
