"""A small discrete-event scheduling engine.

The HyPar evaluation is an event-driven simulation (Section 6.1): the
execution of one training step is a directed acyclic graph of tasks
(compute passes, local-memory streaming, tensor exchanges) competing for
resources (the accelerators' processing units and the interconnect links at
each hierarchy level).  This module provides the generic machinery --
resources, tasks with dependencies, and an event queue that advances
simulated time -- and :mod:`repro.sim.training` builds the training-step
task graph on top of it.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List


class SimulationError(RuntimeError):
    """Raised when the task graph cannot be scheduled (cycles, missing deps)."""


class Resource:
    """A serially reusable resource (a PU, a link, a DRAM channel).

    ``available_at`` tracks the simulated time at which the resource becomes
    free; tasks claiming the resource execute back to back in the order the
    engine starts them.  Create resources through
    :meth:`EventDrivenEngine.resource`: every run starts by resetting the
    registry's resources to free at time zero.  A plain ``__slots__`` class
    (identity-hashed, like the registry entries they are): simulations
    create one task graph per sweep point, so attribute access and
    allocation are on the hot path.
    """

    __slots__ = ("name", "available_at")

    def __init__(self, name: str, available_at: float = 0.0) -> None:
        self.name = name
        self.available_at = available_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource(name={self.name!r}, available_at={self.available_at!r})"


class Task:
    """One unit of simulated work.

    Attributes
    ----------
    name:
        Unique task name (used in schedules and error messages).
    duration:
        Simulated execution time in seconds.
    resources:
        Resources the task occupies for its whole duration.
    deps:
        Tasks that must complete before this one may start.
    tags:
        Free-form key/value metadata (layer, phase, level, energy, ...)
        carried through to the schedule for reporting.
    start, end:
        Simulated times set by the most recent :meth:`EventDrivenEngine.run`.
    index:
        Position of the task in its engine (``-1`` until added); the
        engine's per-run state is kept in flat lists indexed by it.
    """

    __slots__ = (
        "name", "duration", "resources", "deps", "tags", "start", "end", "index"
    )

    def __init__(
        self,
        name: str,
        duration: float,
        resources: tuple[Resource, ...] = (),
        deps: tuple["Task", ...] = (),
        tags: dict | None = None,
        start: float | None = None,
        end: float | None = None,
        index: int = -1,
    ) -> None:
        self.name = name
        self.duration = duration
        self.resources = resources
        self.deps = deps
        self.tags = {} if tags is None else tags
        self.start = start
        self.end = end
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task(name={self.name!r}, duration={self.duration!r})"


@dataclasses.dataclass(frozen=True, slots=True)
class ScheduledTask:
    """Immutable record of one task's placement in the final schedule."""

    name: str
    start: float
    end: float
    tags: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


_new_record = object.__new__
_set_record_name = ScheduledTask.name.__set__
_set_record_start = ScheduledTask.start.__set__
_set_record_end = ScheduledTask.end.__set__
_set_record_tags = ScheduledTask.tags.__set__


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Result of running the engine: per-task timings and the makespan."""

    tasks: tuple[ScheduledTask, ...]

    @property
    def makespan(self) -> float:
        """Completion time of the last task (the simulated step latency)."""
        return max((task.end for task in self.tasks), default=0.0)

    def by_tag(self, key: str, value) -> list[ScheduledTask]:
        """All scheduled tasks whose ``tags[key]`` equals ``value``."""
        return [task for task in self.tasks if task.tags.get(key) == value]

    def total_duration_by_tag(self, key: str, value) -> float:
        """Summed durations of the tasks selected by :meth:`by_tag`."""
        return sum(task.duration for task in self.by_tag(key, value))

    def task(self, name: str) -> ScheduledTask:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"no task named {name!r} in schedule")


class EventDrivenEngine:
    """Event-driven scheduler for a static task graph.

    Tasks are added with :meth:`add_task`; :meth:`run` then advances
    simulated time with an event queue: a task becomes *ready* when all its
    dependencies have completed, starts as soon as all its resources are
    free, and occupies those resources until it finishes.  Ready tasks
    contend for resources in the order they became ready (FIFO), which makes
    the schedule deterministic.
    """

    def __init__(self) -> None:
        self._tasks: List[Task] = []
        self._names: set[str] = set()
        self._resources: Dict[str, Resource] = {}

    # ------------------------------------------------------------------
    # Graph construction.
    # ------------------------------------------------------------------

    def resource(self, name: str) -> Resource:
        """Get or create the named resource."""
        if name not in self._resources:
            self._resources[name] = Resource(name)
        return self._resources[name]

    def add_task(
        self,
        name: str,
        duration: float,
        resources: Iterable[Resource] = (),
        deps: Iterable[Task] = (),
        tags: dict | None = None,
    ) -> Task:
        """Add one task to the graph and return its handle.

        Dependencies must be tasks of this engine; since they must exist
        before their dependants, the graph is acyclic by construction.
        """
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"task {name!r}: duration must be non-negative")
        names = self._names
        if name in names:
            raise ValueError(f"duplicate task name {name!r}")
        tasks = self._tasks
        deps = tuple(deps)
        for dep in deps:
            # A task is known iff it sits at its own index: a foreign
            # task's index points past the list or at a different task.
            try:
                known = tasks[dep.index] is dep
            except IndexError:
                known = False
            if not known:
                raise SimulationError(
                    f"task {name!r} depends on unknown task {dep.name!r}"
                )
        task = Task(
            name,
            float(duration),
            tuple(resources),
            deps,
            dict(tags) if tags else {},
            index=len(tasks),
        )
        tasks.append(task)
        names.add(name)
        return task

    def add_microbatched_task(
        self,
        name: str,
        duration: float,
        chunks: int,
        resources: Iterable[Resource] = (),
        deps: Iterable[Task] = (),
        tags: dict | None = None,
    ) -> tuple[Task, Task]:
        """Split one task into ``chunks`` equal sequential micro-tasks.

        This is the engine-level primitive behind micro-batched pipeline
        transfers: the chunks chain on each other (and serialise on their
        resources), so the resource is occupied for the full ``duration``,
        but a downstream consumer that can proceed after the *first*
        micro-batch depends on the returned ``first`` task and overlaps
        the remaining ``chunks - 1`` chunks.  Returns ``(first, last)``;
        with ``chunks <= 1`` the task is added unsplit and returned as
        both.
        """
        if chunks <= 1:
            task = self.add_task(name, duration, resources, deps, tags)
            return task, task
        resources = tuple(resources)
        first: Task | None = None
        last: Task | None = None
        for index in range(chunks):
            task = self.add_task(
                f"{name}/mb{index}",
                duration / chunks,
                resources,
                deps if last is None else (last,),
                tags,
            )
            if first is None:
                first = task
            last = task
        return first, last

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self) -> Schedule:
        """Schedule every task and return the resulting :class:`Schedule`.

        Each run starts from scratch (registry resources free at time zero,
        task times cleared), so calling it again returns the same schedule.
        """
        tasks = self._tasks
        for resource in self._resources.values():
            resource.available_at = 0.0
        # Flat per-run state indexed by ``Task.index``.
        pending: List[int] = []
        dependants: List[List[int]] = [[] for _ in tasks]
        for index, task in enumerate(tasks):
            task.start = task.end = None
            deps = task.deps
            pending.append(len(deps))
            for dep in deps:
                dependants[dep.index].append(index)
        records: list = [None] * len(tasks)

        # Completion events pop in nondecreasing time (a task never ends
        # before the event that readied it), so the dependency completing
        # last has the latest end: a task becomes ready exactly when its
        # last dependency's completion event pops, at that event's time.
        # Every task made ready by one event therefore shares one ready
        # time, and starting them in the order they became ready is the
        # FIFO order of a (ready time, arrival) queue.  Resources serialise
        # work by bumping ``available_at``, so tasks start eagerly.
        heappush = heapq.heappush
        heappop = heapq.heappop
        completions: List[tuple[float, int, int]] = []
        started = 0
        ready_time = 0.0
        ready = [index for index, count in enumerate(pending) if not count]
        while True:
            for index in ready:
                task = tasks[index]
                start = ready_time
                resources = task.resources
                for resource in resources:
                    if resource.available_at > start:
                        start = resource.available_at
                end = start + task.duration
                for resource in resources:
                    resource.available_at = end
                task.start = start
                task.end = end
                # Frozen-dataclass construction costs a setattr call per
                # field; filling the slots directly is the same record.
                record = _new_record(ScheduledTask)
                _set_record_name(record, task.name)
                _set_record_start(record, start)
                _set_record_end(record, end)
                _set_record_tags(record, task.tags)
                records[index] = record
                heappush(completions, (end, started, index))
                started += 1
            if not completions:
                break
            ready_time, _, finished = heappop(completions)
            ready.clear()
            for dependant in dependants[finished]:
                pending[dependant] -= 1
                if not pending[dependant]:
                    ready.append(dependant)

        if started != len(tasks):
            # Only reachable when ``deps`` were rewired after add_task.
            unscheduled = [t.name for t in tasks if t.end is None]
            raise SimulationError(
                f"task graph contains a dependency cycle; unscheduled tasks: {unscheduled}"
            )
        return Schedule(tasks=tuple(records))
