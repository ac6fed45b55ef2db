"""Runs the ``service-http`` workload.

A run is :data:`STREAMS` streams, one after another.  Each stream starts a
real ``python -m repro.service`` daemon (one worker, a fresh
``--cache-dir``), times it from launch to its first answered analysis
(``setup_s``), and drives it over HTTP with an open-loop generator: a
dispatcher thread releases each request at its due time and at most
``nproc`` sender threads, one connection each, post them.  The generator
runs on one CPU and the daemon and its worker on another (see
:data:`GENERATOR_CPU`).  Latency is timed from the due time, so a stalled
daemon also delays every request queued behind it.  The generator's own
lateness (due time to release) is reported; above :data:`LAG_LIMIT_MS` at
p95 the run is invalid and no result is printed.  Every figure is the
median over the streams of that stream's figure, so a slow spell of the
host moves at most some of them.

Each stream runs open-loop at two rates, ``low`` then ``high``, with the
same number of requests at each, and ends with a closed-loop ``capacity``
phase.  The rates and the request mix are assumed, not taken from measured
traffic; the reasoning is next to each constant.  Each request is either a
miss -- a task set no daemon has seen, so it is parsed, fingerprinted,
analysed in the pool and written to the result cache -- or a hit, a repeat
of an earlier miss, which the daemon answers from its result cache.
Utilisation and bus policy (FP/RR/TDMA) vary per task set, and half the
requests carry a generous ``deadline_ms`` so the degradation-ladder path
runs next to the plain one.

The gate reads the capacity phase: wall milliseconds per miss and per hit
while both connections are kept busy (``cold_ms``, ``warm_ms``).  They are
throughput figures, like the sweeps' milliseconds per sample.  The
open-loop latency percentiles are printed but not gated: they follow the
host's load.  Over ten runs with ten seeds on a 2-CPU VM, the low-rate
miss p50 spread 0.25 (quartile distance over median), the closed-loop
milliseconds per miss 0.09.

Checks: every response is 200/ok and not degraded; every hit body equals
its miss body apart from ``id`` and ``cache``; a sample of misses equals
``analyze_taskset`` computed here; and ``/stats`` shows that each miss ran
exactly one analysis, cold (no warm-seed hit, no warm start, no resident
task set).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchtrace
from common import (
    BenchError,
    child_env,
    median,
    peak_children_rss_mb,
    percentile,
    remaining_s,
    spread,
    stop_group,
    work_dir,
)

#: Fresh daemons per run; their medians are the run's figures.
STREAMS = 6
#: Light load.  A miss costs the daemon and its worker about 15-20 ms and a
#: hit about 5 ms on a 2-CPU VM, so at 8 requests per second, half of them
#: misses, the daemon is busy about a tenth of the time and latency is close
#: to service time.
LOW_RATE = 8.0
#: Share of a stream's time at the low rate; the high phase sends as many
#: requests, faster.
LOW_SHARE = 0.6
#: The high rate is set per stream from its low phase: what the daemon's
#: workers could serve if every request were a miss, ``WORKERS`` over the
#: low-rate miss p50.  Half the requests are cheap hits, so the daemon stays
#: below saturation and the rate shows queueing without a growing backlog.
WORKERS = 1
#: Closed-loop phase ending each stream: never-seen task sets sent as fast as
#: the connections allow, then each of them again from the result cache.
#: Three whole policy x utilisation cycles, so every seed asks for the same
#: mix of work, and the same task sets in every stream of a run.
CAPACITY_MISSES = 3 * 3 * 7
CAPACITY_REPEATS = 3
#: Requests alternate miss, hit: half the traffic repeats earlier work, so
#: both the analysis path and the result-cache path carry equal load.
#: A hit repeats a miss at least this many requests earlier (1 s at the low
#: rate), long after that miss was answered, so it is never coalesced.
HIT_GAP = 8
DEADLINE_MS = 10_000.0
UTILIZATIONS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
#: Miss p95 a rate must meet, without a growing backlog, to count for max_rate_rps.
LATENCY_LIMIT_MS = 100.0
LAG_LIMIT_MS = 25.0
REFERENCE_CHECKS = 20
#: Open connections, at most one per CPU.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: The generator runs on the first CPU of the benchmark's mask, the daemon
#: and its worker on the last, so the client's own work is not part of the
#: service's latency and the daemon-worker path stays on one CPU.  (Left
#: unpinned on a 2-CPU VM, the low-rate miss p50 was 9-39% higher in each
#: of six back-to-back pairs of runs.)  With one CPU they share it.
GENERATOR_CPU = min(os.sched_getaffinity(0))
DAEMON_CPU = max(os.sched_getaffinity(0))
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
#: Requests still queued this close to the run's time limit are not sent.
STOP_MARGIN_S = 45.0
#: /stats counters fixed by the request stream alone, so equal on every run of a seed.
STREAM_COUNTERS = (
    "analyses",
    "outer_iterations",
    "inner_iterations",
    "result_cache_hits",
    "result_cache_misses",
    "result_cache_stores",
    "warm_seed_stores",
    "ladder_tier_runs",
)
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


@dataclass
class Request:
    index: int
    phase: str
    target: int  # the miss this request repeats (its own index for a miss)
    body: bytes
    due: float = 0.0  # monotonic due time, set when the stream runs
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    response: Dict = field(default_factory=dict)
    depth: int = 0  # requests waiting for a connection when this one was released

    @property
    def is_miss(self) -> bool:
        return self.target == self.index


@dataclass
class Stream:
    setup: bytes  # the first request, a miss, timed as set-up
    requests: List[Request]
    #: request index of a miss -> its ``repro-taskset`` JSON text
    tasksets: Dict[int, str]


class Inputs:
    """Task sets and requests of every stream: a pure function of seed and length.

    The mix is fixed by position so that every seed sends the same number of
    misses and hits with the same spread of bus policies, utilisations and
    deadlines; the seed draws the task sets and which earlier miss each hit
    repeats.  In the open-loop phases even slots are misses, odd slots hits
    (a miss while no earlier miss is :data:`HIT_GAP` back), and every other
    request of each kind has a deadline.  The capacity phase sends
    :data:`CAPACITY_MISSES` misses, then :data:`CAPACITY_REPEATS` rounds of
    hits on them.  Each stream has a daemon of its own, so the capacity task
    sets, the same in every stream, are never-seen in each; no other task
    set appears in two streams.
    """

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        sys.path.insert(0, str(root / "src"))
        from repro.experiments.config import default_platform  # noqa: PLC0415
        from repro.generation.taskset_gen import generate_taskset  # noqa: PLC0415
        from repro.model.platform import BusPolicy  # noqa: PLC0415
        from repro.serialization import taskset_to_json  # noqa: PLC0415

        self._generate = generate_taskset
        self._to_json = taskset_to_json
        self._platforms = [
            default_platform().with_bus_policy(policy)
            for policy in (BusPolicy.FP, BusPolicy.RR, BusPolicy.TDMA)
        ]
        self._rng = random.Random(seed)
        self._misses = 0
        per_phase = max(2 * HIT_GAP, int(LOW_RATE * seconds * LOW_SHARE / STREAMS))
        capacity = [self._new(position) for position in range(CAPACITY_MISSES)]
        self.streams = [self._stream(per_phase, capacity) for _ in range(STREAMS)]

    def _stream(self, per_phase: int, capacity: List[str]) -> Stream:
        setup = self._body("setup", self._new(), True)
        requests: List[Request] = []
        tasksets: Dict[int, str] = {}
        for index in range(2 * per_phase):
            eligible = [r.index for r in requests if r.is_miss and r.index <= index - HIT_GAP]
            if index % 2 and eligible:
                target = self._rng.choice(eligible)
            else:
                target = index
                tasksets[index] = self._new()
            body = self._body(f"r{index}", tasksets[target], (index // 2) % 2 == 0)
            phase = "low" if index < per_phase else "high"
            requests.append(Request(index, phase, target, body))
        first = len(requests)
        for index, taskset in enumerate(capacity, first):
            tasksets[index] = taskset
            requests.append(Request(index, "capacity", index, self._body(f"r{index}", tasksets[index], index % 2 == 0)))
        for k in range(CAPACITY_MISSES * CAPACITY_REPEATS):
            index, target = len(requests), first + k % CAPACITY_MISSES
            body = self._body(f"r{index}", tasksets[target], target % 2 == 0)
            requests.append(Request(index, "capacity", target, body))
        return Stream(setup, requests, tasksets)

    def _new(self, position: Optional[int] = None) -> str:
        """A never-seen task set; ``position`` picks its place in the policy x utilisation cycle."""
        if position is None:
            position = self._misses
            self._misses += 1
        platform = self._platforms[position % len(self._platforms)]
        utilization = UTILIZATIONS[(position // len(self._platforms)) % len(UTILIZATIONS)]
        taskset = self._generate(random.Random(self._rng.getrandbits(64)), platform, utilization)
        return self._to_json(taskset, platform, indent=None)

    @staticmethod
    def _body(request_id: str, taskset: str, deadline: bool) -> bytes:
        extra = f', "deadline_ms": {DEADLINE_MS!r}' if deadline else ""
        return f'{{"id": "{request_id}", "taskset": {taskset}{extra}}}'.encode("utf-8")


def post(port: int, body: bytes) -> Tuple[int, Dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", "/analyze", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get(port: int, path: str) -> Dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class Daemon:
    """One daemon process with its own cache directory; a context manager."""

    def __init__(self, root: Path, scratch: Path, name: str, trace_dir: Optional[Path] = None):
        self.cache_dir = scratch / f"cache-{name}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        # Affinity is per thread on Linux and a child inherits its parent
        # thread's mask: launch from the daemon CPU, then return.
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {DAEMON_CPU})
        self.launched = time.monotonic()
        try:
            self.process = self._launch(root, trace_dir)
        finally:
            os.sched_setaffinity(0, own)
        self.port = self._wait_listening()

    def _launch(self, root: Path, trace_dir: Optional[Path]) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--port", "0", "--workers", str(WORKERS),
                "--cache-dir", str(self.cache_dir),
            ],
            env=child_env(root, trace_dir),
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )

    def _wait_listening(self) -> int:
        lines: "queue.Queue[str]" = queue.Queue()

        def pump() -> None:
            for line in self.process.stdout:
                lines.put(line)

        threading.Thread(target=pump, daemon=True).start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=0.5)
            except queue.Empty:
                if self.process.poll() is not None:
                    break
                continue
            match = LISTENING.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise BenchError("service daemon did not start listening")

    def first_answer(self, body: bytes) -> Tuple[float, float, int, Dict]:
        """Send the first analysis.

        Returns seconds from launch to the answer, the request's own
        round-trip seconds, and the answer.
        """
        sent = time.monotonic()
        status, response = post(self.port, body)
        done = time.monotonic()
        return done - self.launched, done - sent, status, response

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                stop_group(self.process)
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def drive(port: int, requests: List[Request], rate: float) -> List[float]:
    """Release ``requests`` at ``rate`` per second; return the generator lags (s)."""
    ready: "queue.Queue[Optional[Request]]" = queue.Queue()

    def sender() -> None:
        while True:
            request = ready.get()
            if request is None:
                return
            request.sent = time.monotonic()
            if remaining_s() < STOP_MARGIN_S:
                request.status, request.response = 0, {"status": "not sent: run time limit"}
                continue
            try:
                request.status, request.response = post(port, request.body)
            except (OSError, http.client.HTTPException, ValueError) as error:
                request.status, request.response = 0, {"status": f"transport: {error}"}
            request.done = time.monotonic()

    senders = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in senders:
        thread.start()
    start = time.monotonic() + 0.05
    lags = []
    try:
        for k, request in enumerate(requests):
            request.due = start + k / rate
            pause = request.due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            lags.append(time.monotonic() - request.due)
            request.depth = ready.qsize()
            ready.put(request)
    finally:
        for _ in senders:
            ready.put(None)
        for thread in senders:
            thread.join()
    return lags


def saturate(port: int, requests: List[Request]) -> float:
    """Send ``requests`` closed-loop, each as soon as a connection is free; return wall seconds."""
    pending: "queue.Queue[Request]" = queue.Queue()
    for request in requests:
        pending.put(request)

    def sender() -> None:
        while True:
            try:
                request = pending.get_nowait()
            except queue.Empty:
                return
            request.due = request.sent = time.monotonic()
            try:
                request.status, request.response = post(port, request.body)
            except (OSError, http.client.HTTPException, ValueError) as error:
                request.status, request.response = 0, {"status": f"transport: {error}"}
            request.done = time.monotonic()

    senders = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    started = time.monotonic()
    for thread in senders:
        thread.start()
    for thread in senders:
        thread.join()
    return time.monotonic() - started


def body_without(response: Dict, keys=("id", "cache")) -> Dict:
    return {k: v for k, v in response.items() if k not in keys}


def check(stream: Stream, stats: Dict, references: int) -> List[str]:
    from repro.analysis import AnalysisConfig, analyze_taskset  # noqa: PLC0415
    from repro.serialization import taskset_from_json  # noqa: PLC0415
    from repro.service.protocol import ok_response  # noqa: PLC0415

    problems = []
    requests = stream.requests
    for request in requests:
        response = request.response
        if request.status != 200 or response.get("status") != "ok" or "degraded" in response:
            problems.append(f"r{request.index}: HTTP {request.status} {response.get('status')}")
    by_miss = {r.index: r for r in requests if r.is_miss}
    for request in requests:
        if not request.is_miss and request.status == 200:
            if body_without(request.response) != body_without(by_miss[request.target].response):
                problems.append(f"r{request.index}: hit body differs from its miss r{request.target}")
    misses = sorted(by_miss)
    for index in misses[:: max(1, len(misses) // references)]:
        taskset, platform = taskset_from_json(stream.tasksets[index])
        expected = json.loads(json.dumps(ok_response("", analyze_taskset(taskset, platform, AnalysisConfig()))))
        if body_without(by_miss[index].response) != body_without(expected):
            problems.append(f"r{index}: miss body differs from analyze_taskset")
    outcomes = [r.response.get("cache", "miss") for r in requests]
    perf = stats["perf"]
    cold_misses = outcomes.count("miss") + 1  # the set-up request is a miss too
    if perf["analyses"] != cold_misses:
        problems.append(f"/stats analyses {perf['analyses']} != {cold_misses} misses")
    for counter in ("warm_seed_hits", "warm_starts", "resident_table_hits"):
        if perf[counter]:
            problems.append(f"misses were not cold: /stats {counter} = {perf[counter]}")
    if perf["result_cache_hits"] != outcomes.count("hit"):
        problems.append(f"/stats result_cache_hits {perf['result_cache_hits']} != {outcomes.count('hit')} hits")
    return problems


def latencies_ms(requests: List[Request], phase: str, outcome: str) -> List[float]:
    return [
        1000.0 * (r.done - r.due)
        for r in requests
        if r.phase == phase and r.response.get("cache", "miss") == outcome and r.status == 200
    ]


def backlog_grows(requests: List[Request], phase: str) -> bool:
    depths = [r.depth for r in requests if r.phase == phase]
    third = max(1, len(depths) // 3)
    first, last = depths[:third], depths[-third:]
    return sum(last) / len(last) > sum(first) / len(first) + 1.0


def run_stream(root: Path, stream: Stream, name: str, trace_dir: Optional[Path]) -> Dict:
    """One fresh daemon: its set-up time, the low and the high phase, then capacity."""
    low = [r for r in stream.requests if r.phase == "low"]
    high = [r for r in stream.requests if r.phase == "high"]
    with Daemon(root, work_dir(root), name, trace_dir) as daemon:
        setup_s, round_trip, status, response = daemon.first_answer(stream.setup)
        lags = drive(daemon.port, low, LOW_RATE)
        low_misses_ms = latencies_ms(low, "low", "miss")
        if not low_misses_ms:
            raise BenchError("the low-rate phase produced no miss")
        high_rate = max(LOW_RATE, 1000.0 * WORKERS / percentile(low_misses_ms, 0.5))
        lags += drive(daemon.port, high, high_rate)
        capacity = [r for r in stream.requests if r.phase == "capacity"]
        misses = [r for r in capacity if r.is_miss]
        hits = [r for r in capacity if not r.is_miss]
        capacity_ms = {
            "miss": 1000.0 * saturate(daemon.port, misses) / len(misses),
            "hit": 1000.0 * saturate(daemon.port, hits) / len(hits),
        }
        stats = get(daemon.port, "/stats")
    problems = []
    if status != 200 or response.get("status") != "ok":
        problems.append(f"set-up request: HTTP {status} {response.get('status')}")
    return {
        "stream": stream,
        "setup_s": setup_s,
        "setup_round_trip_s": round_trip,
        "rates": {"low": LOW_RATE, "high": high_rate},
        "capacity_ms": capacity_ms,
        "lags": lags,
        "stats": stats,
        "problems": problems,
    }


def run_streams(root: Path, inputs: Inputs, trace_dir: Optional[Path]) -> List[Dict]:
    """Every stream of ``inputs``, then the checks; the generator runs on its CPU."""
    os.sched_setaffinity(0, {GENERATOR_CPU})
    # The generator's own heap is fixed from here on; keep the collector from
    # pausing the sender threads to scan it while requests are timed.
    gc.collect()
    gc.freeze()
    runs = []
    for n, stream in enumerate(inputs.streams):
        stream_dir = None
        if trace_dir is not None:
            stream_dir = trace_dir / f"stream{n}"
            stream_dir.mkdir()
        runs.append(run_stream(root, stream, f"{n}-{os.getpid()}", stream_dir))
    lags = [lag for run in runs for lag in run["lags"]]
    if 1000.0 * percentile(lags, 0.95) > LAG_LIMIT_MS:
        raise BenchError(
            f"invalid run: generator p95 lag {1000.0 * percentile(lags, 0.95):.1f} ms "
            f"exceeds {LAG_LIMIT_MS:g} ms"
        )
    for run in runs:
        run["problems"] += check(run["stream"], run["stats"], max(1, REFERENCE_CHECKS // STREAMS))
    return runs


def stream_figures(run: Dict) -> Dict[str, float]:
    """Latency percentiles per phase and outcome, and the highest rate met."""
    requests = run["stream"].requests
    figures = {}
    max_rate = 0.0
    for phase, rate in run["rates"].items():
        for outcome in ("miss", "hit"):
            values = latencies_ms(requests, phase, outcome)
            for share in (0.25, 0.5, 0.95) if values else ():
                figures[f"{outcome}_p{int(100 * share)}_ms.{phase}"] = percentile(values, share)
        met = figures.get(f"miss_p95_ms.{phase}", float("inf")) <= LATENCY_LIMIT_MS
        if met and not backlog_grows(requests, phase):
            max_rate = max(max_rate, rate)
    figures["max_rate_rps"] = max_rate
    figures["high_rate_rps"] = run["rates"]["high"]
    for outcome, value in run["capacity_ms"].items():
        figures[f"{outcome}_ms.capacity"] = value
    return figures


def combined_figures(runs: List[Dict]) -> Dict[str, float]:
    """Each figure as the median over the streams that have it."""
    per_stream = [stream_figures(run) for run in runs]
    names = sorted({name for figures in per_stream for name in figures})
    return {
        name: median([figures[name] for figures in per_stream if name in figures])
        for name in names
    }


def tally(runs: List[Dict]) -> Tuple[int, int]:
    """Attempted and failed operations: requests plus set-up answers.

    A failed check that no single request owns fails the whole stream.
    """
    attempted = failed = 0
    for run in runs:
        requests = run["stream"].requests
        stream_attempted = len(requests) + 1
        stream_failed = sum(1 for r in requests if r.status != 200 or r.response.get("status") != "ok")
        if run["problems"] and not stream_failed:
            stream_failed = stream_attempted
        attempted += stream_attempted
        failed += stream_failed
    return attempted, failed


def measure(root: Path, seed: int, seconds: float, trace: bool) -> Dict:
    inputs = Inputs(root, seed, seconds)
    runs = run_streams(root, inputs, None)
    figures = combined_figures(runs)
    cold = figures["miss_ms.capacity"]
    warm = figures["hit_ms.capacity"]
    attempted, failed = tally(runs)
    lags = [lag for run in runs for lag in run["lags"]]
    setup_s = [run["setup_s"] for run in runs]
    lines = [
        f"streams: {len(runs)} x {len(inputs.streams[0].requests)} requests; "
        f"generator lag p95 {1000.0 * percentile(lags, 0.95):.2f} ms; "
        f"backlog growing at high rate: {sum(backlog_grows(r['stream'].requests, 'high') for r in runs)} streams",
        f"setup s {spread(setup_s)}",
    ]
    lines += [
        f"{name}: {value:.3f} {'rps' if name.endswith('rps') else 'ms'}"
        for name, value in figures.items()
    ]
    problems = [problem for run in runs for problem in run["problems"]]
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": (median(setup_s), "s"),
            "cold_ms": (cold, "ms"),
            "warm_ms": (warm, "ms"),
            "peak_rss_mb": (peak_children_rss_mb(), "MB"),
        },
        "report": lines,
    }
    if trace:
        outcome.update(traced(root, inputs, runs, cold, warm))
    return outcome


def traced(root: Path, inputs: Inputs, plain: List[Dict], cold: float, warm: float) -> Dict:
    """The same streams again with every program process traced."""
    trace_dir = work_dir(root) / f"trace-service-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    try:
        runs = run_streams(root, inputs, trace_dir)
        totals: Dict[str, List[float]] = {}
        for n in range(len(runs)):
            for name, values in benchtrace.collect(str(trace_dir / f"stream{n}")).items():
                into = totals.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(values):
                    into[i] += value
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    figures = combined_figures(runs)
    span = lambda name, field="s": benchtrace.span(name, totals, field)  # noqa: E731
    requests = [r for run in runs for r in run["stream"].requests]
    served = len(requests) + len(runs)
    misses = sum(1 for r in requests if "cache" not in r.response) + len(runs)
    client_s = sum(run["setup_round_trip_s"] for run in runs) + sum(r.done - r.sent for r in requests)
    perf = {
        name: sum(run["stats"]["perf"][name] for run in runs)
        for name in ("analyses", "outer_iterations", "inner_iterations", "array_kernel_batches")
    }
    layers = {
        "businterference.make_bat.s": span("businterference.make_bat"),
        "businterference.make_bat.calls": span("businterference.make_bat", "calls"),
        "model.interference.prefill_batch.s": span("model.interference.prefill_batch"),
        "model.interference.prefill_batch.calls": span("model.interference.prefill_batch", "calls"),
        "analysis.analyze_taskset.s": span("analysis.analyze_taskset"),
        "analysis.run_ladder.s": span("analysis.run_ladder"),
        **perf,
        "service.requests": served,
        "service.protocol.parse_request.calls_per_req": span("service.protocol.parse_request", "calls") / served,
        "service.protocol.parse_request.s": span("service.protocol.parse_request"),
        "serialization.canonical_json.calls_per_req": span("serialization.canonical_json", "calls") / served,
        "serialization.canonical_json.s": span("serialization.canonical_json"),
        "resultcache.request_fingerprint.s": span("resultcache.request_fingerprint"),
        "resultcache.ResultCache.get.s": span("resultcache.ResultCache.get"),
        "resultcache.ResultCache.put.s": span("resultcache.ResultCache.put"),
        "resultcache.WarmSeedStore.get.s": span("resultcache.WarmSeedStore.get"),
        "resultcache.WarmSeedStore.put.s": span("resultcache.WarmSeedStore.put"),
        "resultcache.fsyncs_per_miss": span("os.fsync", "calls") / misses,
        "service.pool.AnalysisPool.run.s": span("service.pool.AnalysisPool.run"),
        "service.pool.ipc_s": span("service.pool.AnalysisPool.run") - span("service.pool.service_worker"),
        "service.daemon.handle.self_s": span("service.daemon.handle", "self_s"),
        "service.http_s": client_s - span("service.daemon.handle"),
        "unattributed_s": sum(span(name, "self_s") for name in benchtrace.root_names()),
        "trace_overhead.cold_ms": figures["miss_ms.capacity"] - cold,
        "trace_overhead.warm_ms": figures["hit_ms.capacity"] - warm,
    }
    problems = [problem for run in runs for problem in run["problems"]]
    for n, (a, b) in enumerate(zip(plain, runs)):
        differing = [
            f"{name} {a['stats']['perf'][name]} vs {b['stats']['perf'][name]}"
            for name in STREAM_COUNTERS
            if a["stats"]["perf"][name] != b["stats"]["perf"][name]
        ]
        if differing:
            problems.append(f"stream {n} counts differ between two runs: " + ", ".join(differing))
    attempted, failed = tally(runs)
    stream_counts = {k: sum(run["stats"]["perf"][k] for run in runs) for k in STREAM_COUNTERS}
    return {
        "layers": layers,
        "problems_traced": problems,
        "report_traced": [f"traced streams: {json.dumps(stream_counts)}"],
        "attempted_traced": attempted,
        "failed_traced": failed,
    }
