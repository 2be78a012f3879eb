#!/usr/bin/env python
"""Fail when search/sweep benchmarks regress against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_search_performance.py \
        benchmarks/bench_sweep_throughput.py --benchmark-only \
        --benchmark-json=bench_current.json
    python scripts/check_bench_regression.py BENCH_search.json bench_current.json

Compares the mean latency of every benchmark present in both files and
exits non-zero when any regresses by more than the threshold (20% by
default, overridable with ``--threshold``).  Also re-checks the recorded
speedup extra-info values against their acceptance floors --
``speedup_vs_reference`` >= 20x (the vectorized engine over the object
path), ``warm_vs_cold_speedup`` >= 10x (the service's warm requests over
a cold CLI run), ``deep_dp_speedup`` >= 10x (the memoized chain DP
over the cold layer loop on the 1024-block transformer) and
``deep_compile_speedup`` >= 10x (the grouped table compile over the
per-layer reference on the same transformer) -- so none can silently
fall below its bar even if it stays self-consistent between runs.  Recorded slowdowns are held under ceilings the same way:
``network_vs_analytic_slowdown`` <= 2.8x (the network engine over the
analytic engine on one AlexNet step, 16 accelerators, H tree).

Both sides accept either the full ``pytest-benchmark`` JSON format or the
slim summary baseline written by ``scripts/slim_bench_baseline.py`` (the
committed ``BENCH_search.json`` is the latter: per-benchmark
mean/stddev/rounds plus ``extra_info``, without the raw samples).

Absolute latencies are machine-specific: the committed baseline is only
meaningful on hardware comparable to the machine that produced it.  On a
different machine, regenerate the baseline once (the pytest command above
with ``--benchmark-json=BENCH_search.json``) and compare subsequent runs
against that.  The ``speedup_vs_reference`` floor is self-relative (both
paths run in the same process) and holds on any machine, as does the
``network_vs_analytic_slowdown`` ceiling.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Acceptance floors for speedups recorded in ``benchmark.extra_info``:
#: the vectorized-vs-object-path ratio of bench_sweep_throughput.py and
#: the warm-service-vs-cold-CLI ratio of bench_service_throughput.py.
#: Whenever the committed baseline records one of these keys, the current
#: run must record it too and clear the floor.
SPEEDUP_FLOORS = {
    "speedup_vs_reference": 20.0,
    "warm_vs_cold_speedup": 10.0,
    # Block-repetition memoized chain DP over the gpt_s --layers 1024
    # deep transformer vs the cold NumPy layer loop
    # (bench_search_performance.py::test_deep_transformer_dp_memoized).
    "deep_dp_speedup": 10.0,
    # Grouped hierarchical table compile plus level_communication on the
    # gpt_s --layers 1024 transformer vs the per-layer reference compile
    # (bench_search_performance.py::test_deep_table_compile).
    "deep_compile_speedup": 10.0,
    # Compiled (numba) kernels vs the NumPy oracle, measured in-process
    # by bench_search_performance.py on machines with numba installed:
    # the DAG cut-vertex DP (test_dag_dp_compiled) and the hierarchical
    # level scorer (test_hierarchical_scoring_compiled).  These benches
    # skip without numba -- a baseline regenerated on a numba-less
    # machine omits them -- so the floors are also enforced on
    # current-run-only benchmarks (see below).
    "dag_compiled_speedup": 2.0,
    "hier_compiled_speedup": 2.0,
    "hier_parallel_speedup": 2.0,
}

#: Ceilings for slowdowns recorded in ``benchmark.extra_info``, enforced
#: exactly like the floors (baseline-recorded keys must be present; a
#: current-only benchmark is checked too).
SLOWDOWN_CEILINGS = {
    # One AlexNet step (16 accelerators, H tree) on the network engine
    # over the analytic engine, both timed in-process by
    # bench_network_sim.py::test_network_step_alexnet.  Self-relative, so
    # it holds on any machine; it keeps the per-task event-engine and
    # route-resolution savings from eroding.
    "network_vs_analytic_slowdown": 2.8,
}


def limit_of(key: str) -> tuple[str, float]:
    """``("floor", bound)`` or ``("ceiling", bound)`` of a recorded key."""
    if key in SPEEDUP_FLOORS:
        return "floor", SPEEDUP_FLOORS[key]
    return "ceiling", SLOWDOWN_CEILINGS[key]


def limit_failure(key: str, value: float) -> str | None:
    """Why a recorded ``extra_info`` value breaks its floor or ceiling."""
    kind, bound = limit_of(key)
    if kind == "floor" and value < bound:
        return f"{key} fell to {value:.1f}x (floor {bound:.0f}x)"
    if kind == "ceiling" and value > bound:
        return f"{key} rose to {value:.2f}x (ceiling {bound:.1f}x)"
    return None


def load_benchmarks(path: str, role: str) -> dict[str, dict]:
    """Benchmarks keyed by fullname, from either supported format.

    The full pytest-benchmark payload and the slim summary baseline both
    carry ``benchmarks`` entries with ``fullname``, ``stats.mean`` and
    ``extra_info``, so a single mapping serves both; the ``format`` marker
    merely distinguishes them for error messages.

    A missing, empty or unparseable file -- typically the *current*
    results file when the benchmark run died before ``--benchmark-json``
    wrote anything -- exits non-zero with a message saying so, instead of
    a traceback.
    """
    try:
        with open(path) as handle:
            content = handle.read()
    except OSError as error:
        raise SystemExit(
            f"error: cannot read the {role} results file {path!r} ({error}); "
            "did the benchmark run fail before writing it?"
        )
    if not content.strip():
        raise SystemExit(
            f"error: the {role} results file {path!r} is empty; the benchmark "
            "run was interrupted before pytest-benchmark wrote its JSON"
        )
    try:
        payload = json.loads(content)
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"error: the {role} results file {path!r} is not valid JSON "
            f"({error}); the benchmark run may have been interrupted mid-write"
        )
    benchmarks = payload.get("benchmarks") if isinstance(payload, dict) else None
    if benchmarks is None:
        raise SystemExit(
            f"error: {path} is neither a pytest-benchmark JSON nor a "
            "summary baseline (no 'benchmarks' key)"
        )
    if not benchmarks:
        raise SystemExit(
            f"error: the {role} results file {path!r} contains no benchmarks; "
            "run the benchmark set named in the baseline"
        )
    return {bench["fullname"]: bench for bench in benchmarks}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (BENCH_search.json)")
    parser.add_argument("current", help="freshly produced --benchmark-json output")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated relative mean-latency regression (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline, role="baseline")
    current = load_benchmarks(args.current, role="current")
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: the two benchmark files have no benchmarks in common")
        return 2

    failures: list[str] = []
    for name in shared:
        base_mean = baseline[name]["stats"]["mean"]
        new_mean = current[name]["stats"]["mean"]
        ratio = new_mean / base_mean if base_mean > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: mean {base_mean * 1e3:.3f} ms -> {new_mean * 1e3:.3f} ms "
                f"({ratio:.2f}x, limit {1.0 + args.threshold:.2f}x)"
            )
        print(f"{status:>10}  {name}: {base_mean * 1e3:.3f} ms -> {new_mean * 1e3:.3f} ms ({ratio:.2f}x)")

        # The baseline defines which benchmarks must carry a measured
        # ratio: dropping the extra_info in a refactor must not silently
        # disable the floor or ceiling check.
        for key in (*SPEEDUP_FLOORS, *SLOWDOWN_CEILINGS):
            if baseline[name].get("extra_info", {}).get(key) is None:
                continue
            value = current[name].get("extra_info", {}).get(key)
            if value is None:
                failures.append(
                    f"{name}: baseline records {key} but the current run "
                    f"does not — the {limit_of(key)[0]} check was skipped"
                )
            elif (failure := limit_failure(key, value)) is not None:
                failures.append(f"{name}: {failure}")

    # Benchmarks only the current run recorded (e.g. the numba-gated
    # compiled-kernel benches on a machine whose committed baseline was
    # regenerated without numba) have no latency baseline, but their
    # self-relative floors and ceilings still bind.
    for name in sorted(set(current) - set(baseline)):
        for key in (*SPEEDUP_FLOORS, *SLOWDOWN_CEILINGS):
            value = current[name].get("extra_info", {}).get(key)
            if value is None:
                continue
            failure = limit_failure(key, value)
            if failure is not None:
                failures.append(f"{name}: {failure}")
            else:
                kind, bound = limit_of(key)
                print(f"        ok  {name}: {key} {value:.1f}x ({kind} {bound:g}x)")

    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"   missing  {name}: present in baseline but not in current run")
        failures.append(
            f"{name}: present in baseline but missing from the current run "
            "(run the full benchmark set named in the baseline)"
        )

    if failures:
        print("\nbenchmark regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbenchmark regression check passed ({len(shared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
