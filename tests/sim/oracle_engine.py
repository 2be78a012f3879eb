"""Reference scheduler: the dict-based event loop the engine replaced.

This is the pre-index ``EventDrivenEngine`` kept verbatim in behaviour as
the named oracle of ``tests/sim/test_engine_oracle.py``: it keys its
dependency maps by ``Task`` object, rescans every dependency's end time
when a task becomes ready, and pops ready tasks from a heap ordered by
``(ready time, push counter)``.  The production engine must reproduce its
schedules start for start and end for end.  Build graphs through
:meth:`OracleEngine.add_task` and run each engine once.
"""

from __future__ import annotations

import heapq
import itertools


class OracleError(RuntimeError):
    """The oracle's counterpart of ``repro.sim.engine.SimulationError``."""


class OracleResource:
    __slots__ = ("name", "available_at")

    def __init__(self, name: str) -> None:
        self.name = name
        self.available_at = 0.0


class OracleTask:
    __slots__ = ("name", "duration", "resources", "deps", "start", "end")

    def __init__(self, name, duration, resources, deps) -> None:
        self.name = name
        self.duration = duration
        self.resources = resources
        self.deps = deps
        self.start = None
        self.end = None


class OracleEngine:
    def __init__(self) -> None:
        self.tasks: list[OracleTask] = []
        self._task_set: set[OracleTask] = set()
        self._names: set[str] = set()
        self._resources: dict[str, OracleResource] = {}
        self._counter = itertools.count()

    def resource(self, name: str) -> OracleResource:
        if name not in self._resources:
            self._resources[name] = OracleResource(name)
        return self._resources[name]

    def add_task(self, name, duration, resources=(), deps=()) -> OracleTask:
        if duration < 0:
            raise ValueError(f"task {name!r}: duration must be non-negative")
        if name in self._names:
            raise ValueError(f"duplicate task name {name!r}")
        task = OracleTask(name, float(duration), tuple(resources), tuple(deps))
        for dep in task.deps:
            if dep not in self._task_set:
                raise OracleError(f"task {name!r} depends on unknown task {dep.name!r}")
        self.tasks.append(task)
        self._task_set.add(task)
        self._names.add(name)
        return task

    def run(self) -> dict[str, tuple[float, float]]:
        """``{name: (start, end)}`` of every task."""
        remaining_deps = {task: len(task.deps) for task in self.tasks}
        dependants = {task: [] for task in self.tasks}
        for task in self.tasks:
            for dep in task.deps:
                dependants[dep].append(task)

        ready_queue = []
        for task in self.tasks:
            if remaining_deps[task] == 0:
                heapq.heappush(ready_queue, (0.0, next(self._counter), task))

        completion_events = []
        completed = 0
        while ready_queue or completion_events:
            while ready_queue:
                ready_time, _, task = heapq.heappop(ready_queue)
                start = ready_time
                for resource in task.resources:
                    start = max(start, resource.available_at)
                task.start = start
                task.end = start + task.duration
                for resource in task.resources:
                    resource.available_at = task.end
                heapq.heappush(completion_events, (task.end, next(self._counter), task))

            if not completion_events:
                break
            _, _, finished = heapq.heappop(completion_events)
            completed += 1
            for dependant in dependants[finished]:
                remaining_deps[dependant] -= 1
                if remaining_deps[dependant] == 0:
                    ready_at = max(dep.end for dep in dependant.deps if dep.end is not None)
                    heapq.heappush(ready_queue, (ready_at, next(self._counter), dependant))

        if completed != len(self.tasks):
            unscheduled = [t.name for t in self.tasks if t.end is None]
            raise OracleError(
                f"task graph contains a dependency cycle; unscheduled tasks: {unscheduled}"
            )
        return {task.name: (task.start, task.end) for task in self.tasks}
