"""Per-layer spans for the traced benchmark run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer (listed in
:data:`TARGETS`) in timing shims.  A shim replaces the function wherever a
``repro`` module holds a reference to it, so calls made through
``from x import f`` bindings are caught as well.  Every process of a traced
run installs the shims at start-up (``trace_site/sitecustomize.py``), spawn
workers included, so worker-side stages are attributed too.

Each process aggregates ``name -> [calls, total seconds, self seconds]``,
where self time is a span's duration minus the time its traced child spans
covered on the same thread.  Aggregates are written to
``$PERFBENCH_TRACE_DIR/<pid>.json``: after every *root* span (a unit of work
that arrives from outside the process: a sweep chunk in a worker, a request
in the daemon or its worker), at most every 0.25 s otherwise, and at exit.
Workers can be terminated rather than exit, so root spans flush eagerly.

Root spans' self time is the part of a unit of work that no named stage
covers; the benchmark reports it as ``unattributed_s``.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: (module, attribute path, span name, is_root)
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.generation.taskset_gen", "generate_taskset", "generation.generate_taskset", False),
    ("repro.cacheanalysis.extraction", "extract_parameters_cached", "cacheanalysis.extract_parameters_cached", False),
    ("repro.model.interference", "prefill_batch", "model.interference.prefill_batch", False),
    ("repro.businterference.arbiters", "make_bat", "businterference.make_bat", False),
    ("repro.analysis.schedulability", "check_schedulability_batch", "analysis.check_schedulability_batch", False),
    ("repro.analysis.wcrt", "analyze_taskset", "analysis.analyze_taskset", False),
    ("repro.analysis.ladder", "run_ladder", "analysis.run_ladder", False),
    ("repro.experiments.supervisor", "SweepSupervisor.run", "experiments.supervisor.run", False),
    ("repro.experiments.supervisor", "SweepSupervisor._new_executor", "experiments.supervisor.new_pool", False),
    ("repro.experiments.supervisor", "run_resident_chunk", "experiments.supervisor.run_resident_chunk", True),
    ("repro.service.protocol", "parse_request", "service.protocol.parse_request", False),
    ("repro.serialization", "canonical_json", "serialization.canonical_json", False),
    ("repro.resultcache", "request_fingerprint", "resultcache.request_fingerprint", False),
    ("repro.resultcache", "ResultCache.get", "resultcache.ResultCache.get", False),
    ("repro.resultcache", "ResultCache.put", "resultcache.ResultCache.put", False),
    ("repro.resultcache", "WarmSeedStore.get", "resultcache.WarmSeedStore.get", False),
    ("repro.resultcache", "WarmSeedStore.put", "resultcache.WarmSeedStore.put", False),
    ("repro.service.pool", "AnalysisPool.run", "service.pool.AnalysisPool.run", False),
    ("repro.service.pool", "service_worker", "service.pool.service_worker", True),
    ("repro.service.daemon", "AnalysisService.handle", "service.daemon.handle", True),
    ("os", "fsync", "os.fsync", False),
)

_stats: Dict[str, List[float]] = {}
_lock = threading.Lock()
_write_lock = threading.Lock()
_local = threading.local()
_last_flush = 0.0
_installed = False


def _stack() -> List[float]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record(name: str, elapsed: float, self_time: float) -> None:
    with _lock:
        entry = _stats.get(name)
        if entry is None:
            entry = _stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += self_time


def flush() -> None:
    """Write this process's aggregates to the trace directory."""
    global _last_flush
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return
    with _lock:
        document = {"pid": os.getpid(), "spans": {k: list(v) for k, v in _stats.items()}}
        _last_flush = time.perf_counter()
    path = os.path.join(directory, f"{os.getpid()}.json")
    tmp = path + ".tmp"
    with _write_lock:
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


def reset(directory: str) -> None:
    """Flush, then start a fresh aggregate written to ``directory``.

    Spawn workers started afterwards inherit the new directory.
    """
    flush()
    with _lock:
        _stats.clear()
    os.environ[TRACE_DIR_ENV] = directory


def _wrap(fn: Callable, name: str, root: bool) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack()
        stack.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            covered = stack.pop()
            if stack:
                stack[-1] += elapsed
            _record(name, elapsed, elapsed - covered)
            if root or (not stack and time.perf_counter() - _last_flush > 0.25):
                flush()

    return traced


def _replace_references(original: Callable, wrapper: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def install() -> None:
    """Wrap every target once in this process and flush at exit."""
    global _installed
    if _installed:
        return
    _installed = True
    for module_name, path, name, root in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attribute)
        wrapper = _wrap(original, name, root)
        setattr(owner, attribute, wrapper)
        if not owner_name and module_name != "os":
            _replace_references(original, wrapper)
    atexit.register(flush)


def collect(directory: str) -> Dict[str, List[float]]:
    """Sum the aggregates every process wrote into ``directory``."""
    totals: Dict[str, List[float]] = {}
    if not os.path.isdir(directory):
        return totals
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry)) as handle:
            spans = json.load(handle)["spans"]
        for name, (calls, total, self_time) in spans.items():
            into = totals.setdefault(name, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += self_time
    return totals


def span(name: str, totals: Dict[str, List[float]], field: str = "s") -> float:
    """``calls`` / ``s`` (total seconds) / ``self_s`` of one collected span."""
    calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
    return {"calls": calls, "s": total, "self_s": self_time}[field]


def root_span(name: str, fn: Callable) -> Callable:
    """Trace ``fn`` as a root span: a unit of work the benchmark itself starts."""
    return _wrap(fn, name, root=True)


def root_names() -> Tuple[str, ...]:
    return ("benchmark.round",) + tuple(name for _m, _p, name, root in TARGETS if root)
