"""serve_mix: one closed-loop HTTP caller against a ``hypar serve`` daemon.

The daemon runs with default settings in its own process.  The response
cache is first filled with the 256 hottest catalogue entries (untimed),
so the caller works against a full LRU.  The caller sends its next
request as soon as the previous reply is in; since requests reach the
daemon strictly in order, a replica of the 256-entry LRU tells each reply
apart as a cache hit (the *light* class) or a miss that compiles,
searches, simulates, inserts and evicts (the *heavy* class).  A traced
run adds an open-loop probe (Poisson arrivals at a fixed rate over two
connections, each request timed from when it was due) and replays the
prefill and the caller's first requests in-process through
``HyParService.handle``: untraced, traced and untraced again.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import OrderedDict

import common
import tracing

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Seconds the daemon gets to bind its port, and to shut down.
DAEMON_TIMEOUT = 30.0
CHECKS_PER_KIND = 4
#: Calibration samples taken right after each daemon's set-up; the set-up
#: is scaled by the host speed they measure.
PROBE_CALIBRATIONS = 5
#: The closed loop runs in slices of this many seconds, with this many
#: calibration samples before each.
SLICE_SECONDS = 1.0
SLICE_CALIBRATIONS = 3


def _calibrate(samples: int) -> list[float]:
    return [common.calibrate() for _ in range(samples)]


def _key(path: str, payload: dict) -> str:
    return path + json.dumps(payload, sort_keys=True)


class Daemon:
    """One ``hypar serve --port 0`` process; ``setup_s`` is spawn to first 200."""

    def __init__(self, env: dict) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=common.ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stderr.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"hypar serve did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            deadline = start + DAEMON_TIMEOUT
            while True:
                try:
                    status, _ = self.get("/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("hypar serve never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DAEMON_TIMEOUT)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def healthz(self) -> dict:
        status, body = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the daemon")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=DAEMON_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()


class Outcome:
    """One request as the generator saw it (times are ``perf_counter``)."""

    __slots__ = ("index", "due", "woke", "sent", "done", "status", "body")

    def __init__(self, index: int, due: float | None) -> None:
        self.index = index
        self.due = due
        self.woke = None
        self.sent = self.done = 0.0
        self.status = 0
        self.body = b""

    @property
    def latency_ms(self) -> float:
        """From when the request was due (paced) or sent (closed loop)."""
        return (self.done - (self.sent if self.due is None else self.due)) * 1e3


def _send_all(
    port: int,
    requests: list[tuple[float, str, bytes]],
    connections: int,
    paced: bool,
    budget: float | None = None,
) -> tuple[float, list[Outcome]]:
    """Send ``(offset, path, body)`` requests over ``connections`` callers.

    Paced (open loop), each request waits until its offset from the start;
    a request whose connection is still busy goes out late, and that wait
    counts in its latency.  Unpaced (closed loop), each caller sends its
    next request when the previous reply is in, and stops taking requests
    once ``budget`` seconds have passed.  Returns
    the seconds from the start to the last reply, and the outcomes in order.
    """
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter()

    def next_index() -> int | None:
        with lock:
            index = next(cursor, None)
            if budget is not None and time.perf_counter() - start >= budget:
                return None
            return index

    def connection_loop() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        try:
            while (index := next_index()) is not None:
                offset, path, body = requests[index]
                outcome = Outcome(index, start + offset if paced else None)
                if paced and outcome.due > time.perf_counter():
                    time.sleep(outcome.due - time.perf_counter())
                    outcome.woke = time.perf_counter()
                outcome.sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", path, body, {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    outcome.body = response.read()
                    outcome.status = response.status
                except (OSError, http.client.HTTPException) as error:
                    print(f"serve_mix: {path}: {error!r}", file=sys.stderr)
                    connection.close()
                outcome.done = time.perf_counter()
                with lock:
                    outcomes.append(outcome)
        finally:
            connection.close()

    threads = [threading.Thread(target=connection_loop) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda outcome: outcome.index)
    return max(outcome.done for outcome in outcomes) - start, outcomes


def _closed_loop(
    port: int, requests: list, budget: float, calibration: list
) -> tuple[float, list[Outcome]]:
    """The caller's closed loop, cut into slices with calibration between.

    Between slices the caller is idle, so the calibration samples the CPU
    the daemon runs on without competing with it.  Returns the seconds
    spent sending (calibration excluded) and the outcomes in order.
    """
    outcomes: list[Outcome] = []
    elapsed = 0.0
    while elapsed < budget or len(outcomes) < common.SERVE_PREFIX:
        calibration += _calibrate(SLICE_CALIBRATIONS)
        seconds, part = _send_all(
            port, requests[len(outcomes) :], 1, paced=False, budget=SLICE_SECONDS
        )
        for outcome in part:
            outcome.index += len(outcomes)
        outcomes += part
        elapsed += seconds
    return elapsed, outcomes


def _hits(prefill: list[int], entries: list[int]) -> list[bool]:
    """Whether each request hits a default 256-entry LRU warmed by ``prefill``."""
    lru: OrderedDict[int, None] = OrderedDict((entry, None) for entry in prefill)
    hits = []
    for entry in entries:
        hits.append(entry in lru)
        lru[entry] = None
        lru.move_to_end(entry)
        if len(lru) > common.SERVE_CACHE_SIZE:
            lru.popitem(last=False)
    return hits


def _cache_delta(before: dict, after: dict) -> dict:
    delta = {
        key: after["result_cache"][key] - before["result_cache"][key]
        for key in ("hits", "misses", "coalesced", "evictions")
    }
    lookups = delta["hits"] + delta["misses"] + delta["coalesced"]
    delta["hit_ratio"] = (delta["hits"] + delta["coalesced"]) / lookups if lookups else 0.0
    return delta


def _replay(sequence: list[tuple[str, bytes]], tracer=None) -> list[float]:
    """Every request through a fresh in-process ``HyParService.handle``."""
    from repro.service import HyParService
    from repro.sweep import clear_caches

    clear_caches()
    seconds = []
    with HyParService() as service:
        for index, (path, body) in enumerate(sequence):
            start = time.perf_counter()
            with tracing.operation(tracer, index, "service.handle"):
                service.handle("POST", path, body)
            seconds.append(time.perf_counter() - start)
    return seconds


def _summary(path: str, body: dict):
    """The simulated statistics of one response, for the digest."""
    if path == "/partition":
        return [
            [level["assignment"] for level in body["levels"]],
            body["total_communication_bytes"],
        ]
    if path == "/simulate":
        return body["row"]
    return body["totals"]


def _check(path: str, payload: dict, body: dict) -> bool:
    """A /partition or /simulate response against the library oracle."""
    from repro.core.hierarchical import HierarchicalPartitioner
    from repro.nn.model_zoo import get_model
    from repro.sweep import SweepPoint, evaluate_point

    if path == "/partition":
        partitioner = HierarchicalPartitioner(
            num_levels=payload["num_accelerators"].bit_length() - 1,
            strategies=payload["strategies"],
        )
        result = partitioner.partition(get_model(payload["model"]), payload["batch_size"])
        return (
            [[choice.short for choice in level] for level in result.assignment.levels]
            == [level["assignment"] for level in body["levels"]]
            and result.total_communication_bytes == body["total_communication_bytes"]
        )
    record = evaluate_point(SweepPoint.single(**payload))
    return json.loads(json.dumps(record.to_row())) == body["row"]


def _requests(catalogue, bodies, entries, offsets=None) -> list[tuple[float, str, bytes]]:
    return [
        (0.0 if offsets is None else offsets[i], catalogue[entry][0], bodies[entry])
        for i, entry in enumerate(entries)
    ]


def run(seed: int, seconds: float, trace: bool, env: dict) -> dict:
    # The generator and every daemon it starts share one CPU: a reply then
    # hands over to the caller without waking another virtual CPU, whose
    # wake-up time on a shared host varies far more than the work does,
    # and the calibration measures the CPU the daemon runs on.
    os.sched_setaffinity(0, {common.BENCH_CPU})
    schedule = common.serve_schedule(seed, seconds)
    catalogue = schedule["catalogue"]
    bodies = [json.dumps(payload).encode() for _, payload in catalogue]
    setups: list[float] = []
    calibration: list[float] = []
    open_loop = None
    daemon = None
    half = common.SETUP_REPEATS // 2
    try:
        # Set-up probes on both sides of the measured daemon (see run.py).
        for _ in range(half + 1):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(env)
            setups.append(daemon.setup_s / common.slowdown(_calibrate(PROBE_CALIBRATIONS)))
        _, prefill = _send_all(
            daemon.port, _requests(catalogue, bodies, schedule["prefill"]), 1, paced=False
        )
        before = daemon.healthz()
        elapsed, outcomes = _closed_loop(
            daemon.port, _requests(catalogue, bodies, schedule["requests"]), seconds, calibration
        )
        after = daemon.healthz()
        peak_rss_mb = daemon.peak_rss_mb()
        if trace:
            offsets, entries = zip(*schedule["open_loop"])
            _, open_loop = _send_all(
                daemon.port,
                _requests(catalogue, bodies, entries, offsets),
                common.SERVE_CONNECTIONS,
                paced=True,
            )
        for _ in range(half):
            daemon.stop()
            daemon = Daemon(env)
            setups.append(daemon.setup_s / common.slowdown(_calibrate(PROBE_CALIBRATIONS)))
    finally:
        if daemon is not None:
            daemon.stop()

    # Everything below runs after the daemon is gone.
    from repro.core import kernels
    from repro.nn.model_zoo import get_model

    layers = {}
    for _, payload in catalogue:
        if payload["model"] not in layers:
            layers[payload["model"]] = len(get_model(payload["model"]))

    # Every reply to one entry must be the same bytes; the digest covers
    # the prefill and the caller's prefix, which every run sends.
    requests = schedule["requests"][: len(outcomes)]
    responses: dict[int, bytes] = {}
    attempted = failed = mismatched = 0
    sent = list(zip(schedule["prefill"], prefill)) + list(zip(requests, outcomes))
    if open_loop is not None:
        sent += [(schedule["open_loop"][o.index][1], o) for o in open_loop]
    for entry, outcome in sent:
        attempted += 1
        if outcome.status != 200:
            failed += 1
        elif responses.setdefault(entry, outcome.body) != outcome.body:
            mismatched += 1
    digested = set(schedule["prefill"]) | set(schedule["requests"][: common.SERVE_PREFIX])

    slowdown = common.slowdown(calibration)
    hits = _hits(schedule["prefill"], requests)
    latencies: dict[str, list[float]] = {"light": [], "heavy": []}
    layer_count = 0
    for entry, outcome, hit in zip(requests, outcomes, hits):
        if outcome.status == 200:
            latencies["light" if hit else "heavy"].append(outcome.latency_ms / slowdown)
            layer_count += layers[catalogue[entry][1]["model"]]
    busy = elapsed / slowdown

    rng = random.Random(f"checks:{seed}")
    checked = failed_checks = 0
    for kind in ("/partition", "/simulate"):
        candidates = sorted(entry for entry in digested if catalogue[entry][0] == kind)
        for entry in rng.sample(candidates, min(CHECKS_PER_KIND, len(candidates))):
            path, payload = catalogue[entry]
            checked += 1
            try:
                passed = _check(path, payload, json.loads(responses[entry]))
            except Exception as error:  # noqa: BLE001 - counted, reported
                print(f"serve_mix: check of {path}: {error!r}", file=sys.stderr)
                passed = False
            failed_checks += not passed

    delta = _cache_delta(before, after)
    result = {
        "setups": setups,
        "slowdown": slowdown,
        "metrics": {
            "ops_per_s": ((len(latencies["light"]) + len(latencies["heavy"])) / busy, "1/s"),
            "layers_per_s": (layer_count / busy, "1/s"),
            **common.latency_metrics(
                latencies["light"],
                latencies["heavy"],
                common.GOODPUT_LIMIT_MS["serve_mix"],
                busy,
            ),
        },
        "attempted": attempted,
        "failed": failed + mismatched + failed_checks,
        "checks": {"run": checked, "failed": failed_checks, "mismatched": mismatched},
        "digest": common.digest(
            [
                [
                    _key(*catalogue[entry]),
                    _summary(catalogue[entry][0], json.loads(responses[entry])),
                ]
                for entry in sorted(digested)
                if entry in responses
            ]
        ),
        "peak_rss_mb": peak_rss_mb,
        # The light/heavy split rests on the LRU replica; its hit count
        # must match the daemon's.
        "requests": {"sent": len(outcomes), "hits_predicted": sum(hits), "result_cache": delta},
        "counters": {
            "healthz": {key: after[key] for key in ("result_cache", "table_cache", "backends")},
            "dispatch_counts": kernels.dispatch_counts(),
            "numba_available": kernels.NUMBA_AVAILABLE,
        },
    }
    if trace:
        result["layer_metrics"] = common.at_reference_speed(
            _traced(seed, schedule, bodies, outcomes, delta, open_loop, layers), slowdown
        )
    return result


def _traced(
    seed: int,
    schedule: dict,
    bodies: list,
    outcomes: list,
    delta: dict,
    open_loop: list,
    layers: dict,
) -> dict:
    from repro.core import kernels
    from repro.nn.model_zoo import get_model
    from repro.sweep import shared_table_cache

    catalogue = schedule["catalogue"]
    entries = list(schedule["prefill"]) + schedule["requests"][: common.SERVE_PREFIX]
    sequence = [(catalogue[entry][0], bodies[entry]) for entry in entries]
    # Untraced replays on both sides of the traced one; the faster one is
    # the baseline for the overhead and supplies the handle times.
    before = _replay(sequence)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_seconds = sum(_replay(sequence, tracer))
    finally:
        tracer.restore()
    table_cache = shared_table_cache().stats()
    handled = min(before, _replay(sequence), key=sum)
    tracer.write(
        common.OUT_DIR / f"trace-serve_mix-seed{seed}.json",
        {"table_cache": table_cache, "dispatch_counts": kernels.dispatch_counts()},
    )

    measured = len(schedule["prefill"])
    handle_ms = [seconds * 1e3 for seconds in handled[measured:]]
    # The caller meets the cache in the replay's order, so each reply
    # pairs with the same request's handle time.
    http_self_ms = [
        outcome.latency_ms - handle
        for outcome, handle in zip(outcomes, handle_ms)
        if outcome.status == 200
    ]
    open_ms = [outcome.latency_ms for outcome in open_loop]
    periodic = {name: tracing.periodic_layers(get_model(name)) for name in layers}
    models = [catalogue[entry][1]["model"] for entry in entries[measured:]]
    return tracing.layer_metrics(
        tracer,
        {
            "costs.table_cache.hit_ratio": table_cache["hit_rate"],
            "service.handle.ms_p50": common.median(handle_ms),
            "service.handle.ms_p99": common.percentile(handle_ms, 99.0),
            "service.http_self.ms_p50": common.median(http_self_ms),
            "service.open_loop.ms_p50": common.median(open_ms),
            "service.open_loop.ms_p90": common.percentile(open_ms, 90.0),
            "service.queue_wait.ms_p99": common.percentile(
                [(outcome.sent - outcome.due) * 1e3 for outcome in open_loop], 99.0
            ),
            "service.result_cache.hit_ratio": delta["hit_ratio"],
            "service.result_cache.evictions": delta["evictions"],
            "service.result_cache.coalesced": delta["coalesced"],
            "loadgen.late_ms_p99": common.percentile(
                [(outcome.woke - outcome.due) * 1e3 for outcome in open_loop if outcome.woke],
                99.0,
            ),
            "mix.periodic_layer_share": sum(periodic[name] for name in models)
            / sum(layers[name] for name in models),
            "kernels.dispatches": sum(kernels.dispatch_counts().values()),
            "kernels.numba_available": int(kernels.NUMBA_AVAILABLE),
            "trace.overhead_pct": (traced_seconds / sum(handled) - 1) * 100,
        },
    )
