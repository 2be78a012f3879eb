"""Shared pieces of the benchmark: constants, seeded inputs, statistics.

Nothing here imports :mod:`repro`; the orchestrator (``run.py``) uses
this module before any program code is loaded, and the worker and the
load generator draw their inputs from the same functions, so one seed
always yields one input set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans and raw counters of traced runs land here (ignored by git).
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("zoo_sweep", "deep_plan", "serve_mix")

#: The paper's ten networks plus the two branching zoo models.
ZOO_MODELS = (
    "SFC",
    "SCONV",
    "Lenet-c",
    "Cifar-c",
    "AlexNet",
    "VGG-A",
    "VGG-B",
    "VGG-C",
    "VGG-D",
    "VGG-E",
    "ResNet-S",
    "Inception-S",
)
BATCH_SIZES = (64, 128, 256, 512)
ZOO_ARRAYS = (4, 16, 64)
TOPOLOGIES = ("htree", "torus")
STRATEGY_SPACES = ("dp,mp", "dp,mp,pp")
SIM_ENGINES = ("analytic", "network")

#: deep_plan: every plan runs on the paper's 16-accelerator H tree.
DEEP_ACCELERATORS = 16
DEEP_FAMILIES = ("gpt_s", "bert_s", "gpt_r")
#: Depth strata (blocks), log-spaced over 16..256; one plan per family and
#: stratum keeps every seed's depth mix the same.  The seed moves each depth
#: inside the middle fifth of its stratum, so a percentile over these few
#: plans does not swing with the draw.
DEEP_STRATA = 12
DEEP_JITTER = 0.2
DEEP_MIN_BLOCKS = 16
DEEP_MAX_BLOCKS = 256
#: Plans of at least this many blocks form deep_plan's "heavy" class.
DEEP_HEAVY_BLOCKS = 64

#: serve_mix: the open-loop probe keeps at most this many keep-alive
#: connections; the measured closed loop has one caller.
SERVE_CONNECTIONS = 2
#: Requests drawn for the caller (more than a run gets through) and the
#: prefix every run completes, which the digest and the replay cover.
SERVE_REQUESTS = 40_000
SERVE_PREFIX = 600
#: Arrival rate (req/s) of the open-loop probe of traced runs.
OPEN_RATE = 30.0
#: Zipf exponent over the request catalogue: about 75% of requests hit the
#: response cache once it holds the 256 hottest entries.
ZIPF_EXPONENT = 0.9
#: Response-cache capacity of a default ``hypar serve`` (``--cache-size``).
SERVE_CACHE_SIZE = 256
#: Arrays the catalogue asks for (misses take 2-80 ms).
SERVE_ARRAYS = (4, 16)

#: Latency limit (ms) an operation of the heavy class must meet to count
#: towards ``heavy_goodput_per_s``.
GOODPUT_LIMIT_MS = {"zoo_sweep": 250.0, "deep_plan": 2500.0, "serve_mix": 250.0}

#: Fresh set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Seconds :func:`calibrate` takes on the reference host.  Every host time
#: is reported at that speed: divided by the run's median calibration time
#: over this.  The shared host's speed drifts by a fifth from minute to
#: minute, and the calibration, taken between operations of the same run,
#: follows the drift closely.
CALIBRATION_NOMINAL_S = 0.012


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------


def zoo_grid(seed: int) -> list[dict]:
    """The zoo_sweep grid: every model x array x topology x strategy space x
    engine, with one seed-drawn batch size per (model, array, strategy
    space), so each compiled table serves its topology and engine variants.
    """
    rng = random.Random(f"zoo_sweep:{seed}")
    batch = {
        (model, n, strategies): rng.choice(BATCH_SIZES)
        for model in ZOO_MODELS
        for n in ZOO_ARRAYS
        for strategies in STRATEGY_SPACES
    }
    return [
        {
            "model": model,
            "batch_size": batch[model, n, strategies],
            "num_accelerators": n,
            "topology": topology,
            "strategies": strategies,
            "sim_engine": engine,
        }
        for model in ZOO_MODELS
        for n in ZOO_ARRAYS
        for topology in TOPOLOGIES
        for strategies in STRATEGY_SPACES
        for engine in SIM_ENGINES
    ]


def deep_plans(seed: int) -> list[dict]:
    """The deep_plan sequence: one plan per family and depth stratum."""
    rng = random.Random(f"deep_plan:{seed}")
    ratio = DEEP_MAX_BLOCKS / DEEP_MIN_BLOCKS
    plans = []
    for family in DEEP_FAMILIES:
        for stratum in range(DEEP_STRATA):
            position = (stratum + 0.5 + DEEP_JITTER * (rng.random() - 0.5)) / DEEP_STRATA
            blocks = round(DEEP_MIN_BLOCKS * ratio**position)
            plans.append(
                {
                    "model": f"{family}-{min(blocks, DEEP_MAX_BLOCKS)}",
                    "batch_size": rng.choice(BATCH_SIZES),
                }
            )
    rng.shuffle(plans)
    return plans


def serve_catalogue() -> list[tuple[str, dict]]:
    """Every distinct request serve_mix may send, in a fixed order."""
    models = ZOO_MODELS + ("gpt_s-4", "gpt_s-8", "bert_s-4", "bert_s-8", "gpt_r-4", "gpt_r-8")
    catalogue: list[tuple[str, dict]] = []
    for model in models:
        for n in SERVE_ARRAYS:
            for batch in BATCH_SIZES:
                for strategies in STRATEGY_SPACES:
                    catalogue.append(
                        (
                            "/partition",
                            {
                                "model": model,
                                "num_accelerators": n,
                                "batch_size": batch,
                                "strategies": strategies,
                            },
                        )
                    )
                catalogue.append(
                    ("/simulate", {"model": model, "num_accelerators": n, "batch_size": batch})
                )
                catalogue.append(
                    (
                        "/simulate",
                        {
                            "model": model,
                            "num_accelerators": n,
                            "batch_size": batch,
                            "topology": "torus",
                            "sim_engine": "network",
                        },
                    )
                )
    for preset in ("spot", "rack", "diurnal"):
        for model in ("SFC", "Lenet-c", "Cifar-c", "AlexNet"):
            for trace_seed in range(4):
                catalogue.append(
                    (
                        "/replan",
                        {"model": model, "preset": preset, "seed": trace_seed, "num_nodes": 16},
                    )
                )
    return catalogue


def serve_schedule(seed: int, seconds: float) -> dict:
    """Catalogue ranks, the cache prefill, the caller's request sequence and
    the open-loop probe's arrival schedule.

    Ranks cycle through the catalogue's groups (one per model, plus the
    ``/replan`` group) in a fixed order, and the seed draws which entry of
    the group takes each rank.  Every seed therefore sends the same mix of
    models at every popularity, and ``/replan`` gets about 3% of requests.
    The caller runs through its sequence until its time is up; the
    sequence is longer than any run gets through.  The probe sends exactly
    ``OPEN_RATE * seconds / 4`` requests at uniformly spread random times
    (a Poisson process conditioned on its count).
    """
    rng = random.Random(f"serve_mix:{seed}")
    catalogue = serve_catalogue()
    groups: dict[str, list[int]] = {}
    for entry, (path, payload) in enumerate(catalogue):
        groups.setdefault(path if path == "/replan" else payload["model"], []).append(entry)
    for members in groups.values():
        rng.shuffle(members)
    ranked = []
    while len(ranked) < len(catalogue):
        for members in groups.values():
            if members:
                ranked.append(members.pop())
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked)))
    )

    def draw(count: int) -> list[int]:
        return [
            ranked[rank]
            for rank in rng.choices(range(len(ranked)), cum_weights=cumulative, k=count)
        ]

    duration = seconds / 4.0
    count = max(1, round(OPEN_RATE * duration))
    offsets = sorted(rng.uniform(0.0, duration) for _ in range(count))
    # Hottest last, so the LRU holds exactly the top ranks when timing starts.
    prefill = [ranked[rank] for rank in reversed(range(SERVE_CACHE_SIZE))]
    return {
        "catalogue": catalogue,
        "prefill": prefill,
        "requests": draw(SERVE_REQUESTS),
        "open_loop": list(zip(offsets, draw(count))),
    }


# ----------------------------------------------------------------------
# Host speed.
# ----------------------------------------------------------------------

#: The CPU the measured process (worker or daemon) is pinned to.  Its work
#: runs on one CPU anyway (the interpreter lock), and pinning lets the
#: calibration, taken on the same CPU, measure the speed the work actually
#: gets; the CPUs of a shared host drift apart.
BENCH_CPU = max(os.sched_getaffinity(0))

_MATRIX = []


def calibrate() -> float:
    """Seconds one run of a fixed Python and NumPy kernel takes right now."""
    import numpy

    if not _MATRIX:
        _MATRIX.append(numpy.random.default_rng(0).random((200, 200)))
    matrix = _MATRIX[0]
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    for _ in range(20):
        matrix.dot(matrix[:, :20])
    return time.perf_counter() - start


def slowdown(samples) -> float:
    """How much slower than the reference host this run's host ran."""
    return median(samples) / CALIBRATION_NOMINAL_S


TIME_UNITS = {"s", "ms", "us"}


def at_reference_speed(metrics: dict, slowdown: float) -> dict:
    """``name -> (value, unit)`` with every time divided by ``slowdown``."""
    return {
        name: (value / slowdown if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in metrics.items()
    }


# ----------------------------------------------------------------------
# Statistics and digests.
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``; 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50.0)


def digest(records) -> str:
    """SHA-256 of the canonical JSON of ``records`` (floats written exactly)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def latency_metrics(light_ms, heavy_ms, limit_ms: float, seconds: float) -> dict:
    """The per-class latency and goodput end-to-end metrics."""
    return {
        "light_latency_ms_p50": (median(light_ms), "ms"),
        "light_latency_ms_p90": (percentile(light_ms, 90.0), "ms"),
        "heavy_latency_ms_p50": (median(heavy_ms), "ms"),
        "heavy_latency_ms_p90": (percentile(heavy_ms, 90.0), "ms"),
        "heavy_goodput_per_s": (
            sum(1 for value in heavy_ms if value <= limit_ms) / seconds,
            "1/s",
        ),
    }
