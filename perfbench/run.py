"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric.  Earlier lines of standard output
report the simulated-statistics digest, the output checks and the raw
counters read from the program; the last line is the result object.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

import common

#: Seconds one worker process may run before it is killed.
WORKER_TIMEOUT = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _worker(env: dict, workload: str, args, probe: bool) -> tuple[float, dict]:
    """Start one worker; return (seconds from spawn to ``ready``, its result)."""
    command = [
        sys.executable,
        str(common.ROOT / "perfbench" / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ] + (["--probe"] if probe else [])
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up: {first!r}")
        output = process.stdout.read()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return setup, json.loads(output.strip().splitlines()[-1])


def _probes(env: dict, workload: str, args, count: int) -> tuple[list, list]:
    """Set-up and ``import repro`` seconds of ``count`` probe workers, each
    at the reference host's speed as the probe measured it right after."""
    setups, imports = [], []
    for _ in range(count):
        setup, probe = _worker(env, workload, args, probe=True)
        setups.append(setup / probe["slowdown"])
        imports.append(probe["import_s"] / probe["slowdown"])
    return setups, imports


def run_closed_loop(args, env: dict) -> dict:
    # Probes on both sides of the measured worker, so a slow spell of the
    # host does not fall on every set-up of the run.
    half = common.SETUP_REPEATS // 2
    setups, imports = _probes(env, args.workload, args, half)
    setup, result = _worker(env, args.workload, args, probe=False)
    after_setups, after_imports = _probes(env, args.workload, args, half)
    result["setups"] = setups + [setup / result["slowdown"]] + after_setups
    if args.trace:
        imports += [result["import_s"] / result["slowdown"]] + after_imports
        result["layer_metrics"]["import.repro_s"] = (common.median(imports), "s")
    return result


def run_serve(args, env: dict) -> dict:
    import serve

    result = serve.run(args.seed, args.seconds, bool(args.trace), env)
    if args.trace:
        # The daemon's own import is not visible from outside; a probe
        # worker times the same ``import repro`` in a fresh interpreter.
        _, imports = _probes(env, "deep_plan", args, common.SETUP_REPEATS)
        result["layer_metrics"]["import.repro_s"] = (common.median(imports), "s")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    env = child_env()

    if args.workload == "serve_mix":
        result = run_serve(args, env)
    else:
        result = run_closed_loop(args, env)

    attempted, failed = result["attempted"], result["failed"]
    print(f"digest: sha256:{result['digest']}")
    print(f"checks: {json.dumps(result['checks'])} attempted={attempted} failed={failed} "
          f"error_ratio={failed / attempted}")
    print(f"counters: {json.dumps(result['counters'], sort_keys=True)}")
    print(
        f"host: slowdown {result['slowdown']:.4f} against the reference host; "
        "every host time below is divided by it"
    )
    if "requests" in result:
        print(f"requests: {json.dumps(result['requests'], sort_keys=True)}")
    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {
            "setup_s": (common.median(result["setups"]), "s"),
            **result["metrics"],
            "success_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
