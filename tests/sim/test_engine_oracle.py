"""The indexed event engine against the dict-based reference scheduler.

``oracle_engine.OracleEngine`` is the scheduler the engine replaced: it
keys dependency maps by task object, rescans dependency end times when a
task becomes ready and queues ready tasks by ``(ready time, counter)``.
On random DAGs -- shared and multi-resource tasks, zero durations, many
equal-time ties -- every task's start and end must match it exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_engine import OracleEngine, OracleError
from repro.sim.engine import EventDrivenEngine, SimulationError

# Few distinct values (zeros and small dyadic steps) force equal-time
# completions, so the FIFO tie order is exercised on almost every graph.
tie_heavy_durations = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
any_durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def task_graphs(draw):
    """``[(duration, deps, resources)]``: each task may depend on any
    earlier tasks (duplicates allowed) and hold up to three of a few
    shared resources."""
    durations = draw(st.sampled_from([tie_heavy_durations, any_durations]))
    num_tasks = draw(st.integers(min_value=1, max_value=40))
    num_resources = draw(st.integers(min_value=0, max_value=4))
    graph = []
    for index in range(num_tasks):
        deps = (
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=index - 1), max_size=4
                )
            )
            if index
            else []
        )
        resources = (
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_resources - 1),
                    max_size=3,
                    unique=True,
                )
            )
            if num_resources
            else []
        )
        graph.append((draw(durations), deps, resources))
    return graph


def _build(engine, graph):
    tasks = []
    for index, (duration, deps, resources) in enumerate(graph):
        tasks.append(
            engine.add_task(
                f"t{index}",
                duration,
                resources=tuple(engine.resource(f"r{r}") for r in resources),
                deps=tuple(tasks[d] for d in deps),
            )
        )
    return tasks


def _oracle_times(graph):
    oracle = OracleEngine()
    _build(oracle, graph)
    return oracle.run()


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(task_graphs())
    def test_every_start_and_end_equals_the_oracle(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        expected = _oracle_times(graph)
        assert [task.name for task in schedule.tasks] == list(expected)
        for task in schedule.tasks:
            assert (task.start, task.end) == expected[task.name]

    @settings(max_examples=50, deadline=None)
    @given(task_graphs())
    def test_rerun_reproduces_the_oracle(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        engine.run()
        schedule = engine.run()
        expected = _oracle_times(graph)
        for task in schedule.tasks:
            assert (task.start, task.end) == expected[task.name]


class TestErrorsMatchTheOracle:
    @pytest.mark.parametrize(
        "engine_type, error", [(EventDrivenEngine, SimulationError), (OracleEngine, OracleError)]
    )
    def test_foreign_task_with_colliding_index_is_rejected(self, engine_type, error):
        engine = engine_type()
        engine.add_task("local", 1.0)
        foreign = engine_type().add_task("foreign", 1.0)  # index 0, like "local"
        with pytest.raises(error, match="unknown task 'foreign'"):
            engine.add_task("bad", 1.0, deps=(foreign,))

    @pytest.mark.parametrize("engine_type", [EventDrivenEngine, OracleEngine])
    def test_duplicate_names_and_negative_durations_raise(self, engine_type):
        engine = engine_type()
        engine.add_task("x", 1.0)
        with pytest.raises(ValueError, match="duplicate task name"):
            engine.add_task("x", 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            engine.add_task("y", -1.0)

    @pytest.mark.parametrize(
        "engine_type, error", [(EventDrivenEngine, SimulationError), (OracleEngine, OracleError)]
    )
    def test_rewired_cycle_raises_naming_the_unscheduled_tasks(self, engine_type, error):
        engine = engine_type()
        engine.add_task("root", 1.0)
        a = engine.add_task("a", 1.0)
        b = engine.add_task("b", 1.0, deps=(a,))
        a.deps = (b,)
        with pytest.raises(error, match=r"cycle; unscheduled tasks: \['a', 'b'\]"):
            engine.run()

    def test_nan_duration_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventDrivenEngine().add_task("nan", float("nan"))
