"""Fault-tolerant execution of flattened sweep work items.

``ProcessPoolExecutor.map`` — what the sweep engine used before this module
existed — has all-or-nothing semantics: one segfaulting worker, one hung
fixed point or one Ctrl-C surfaces as ``BrokenProcessPool`` and throws away
every completed chunk.  The supervisor replaces it with three recovery
layers, ordered from cheapest to most drastic:

1. **Per-sample isolation.**  Workers catch ordinary exceptions around
   each sample and return them as data (exception class, message,
   traceback digest) instead of letting them abort the chunk.  The
   supervisor retries such samples with capped exponential backoff and
   quarantines them as :class:`SampleFailure` records once the retry
   budget is exhausted.  A failure's ``seed`` is a complete reproducer:
   :func:`repro.experiments.runner.evaluate_sample` with the same
   platform/generation parameters deterministically rebuilds the failing
   task set, which makes quarantine records direct feed for the
   :mod:`repro.verify` corpus.
2. **Hang watchdog.**  With ``settings.timeout`` set, a chunk that
   exceeds its wall-clock budget causes the whole pool to be terminated
   (a hung worker cannot be cancelled any other way).  Guilty chunks go
   through the recovery rule below; innocent in-flight chunks are simply
   resubmitted.
0. **In-process budgets.**  With ``settings.sample_budget`` set, every
   sample's analyses carry a :class:`~repro.budget.Budget` and abort
   *cooperatively* at the next iteration boundary once the per-sample
   wall-clock allowance runs out, surfacing as a typed
   :class:`~repro.errors.BudgetExceeded` instead of hanging until the
   watchdog kills the whole pool.  Budget aborts are deterministic
   properties of the sample (modulo machine speed), so they are
   quarantined immediately with kind ``"budget"`` — no retries — while
   every other sample in the chunk completes normally.  The watchdog
   remains as a *fallback* for non-cooperative hangs (e.g. a bug looping
   between budget checkpoints): when only ``sample_budget`` is set, each
   chunk gets a derived allowance of ``sample_budget x chunk size x``
   :data:`BUDGET_WATCHDOG_FACTOR` ``+`` :data:`BUDGET_WATCHDOG_GRACE`
   seconds before the pool is killed.

3. **Crash recovery.**  ``BrokenProcessPool`` (worker died: segfault,
   ``os._exit``, OOM kill) triggers a pool respawn.  The executor cannot
   say *which* worker died, so retry budget is charged only when guilt
   is unambiguous — exactly one in-flight chunk was lost to the death.
   When several chunks were lost together, all of them become
   *suspects* and are re-executed one at a time in a fresh pool, so the
   next death names its culprit.  A guilty multi-sample chunk is then
   *bisected*: split in half and both halves re-run in isolation, so
   the poison sample is cornered in O(log chunk) pool respawns while
   every innocent sample completes normally.  A single-sample chunk
   that keeps killing workers is quarantined.

The supervisor is deliberately generic: it executes a picklable
``evaluate`` callable over :class:`WorkItem`\\ s and neither imports nor
knows about the figure drivers.  Worker processes are always created with
the **spawn** start method, so worker behaviour (fresh imports, no
inherited memoization epochs or perf-counter state, no accidentally
shared fault flags) and all recovery semantics are identical on Linux and
macOS; ``fork`` would also duplicate the parent's signal handlers and
journal file descriptors into the children.

A worker pool lives for one sweep call.  A multi-curve sweep (such as
``run_fig3c``) opens a :class:`WorkerPool`, and the supervisor of each
of its curves (the six cache sizes of Fig. 3c) borrows the pool's
executor in turn, so the workers are spawned once per call rather than
once per curve; a single-curve run such as Fig. 2 gets a private pool
from its supervisor.  A pool respawned after a crash or a watchdog kill
is handed on to the later curves.  The workers are terminated when the
call returns or raises.  Workers keep no sweep state of their own: each
chunk carries it, and a worker drops its resident plane when the first
chunk of a new curve arrives (see :func:`run_resident_chunk`).

Completed items are checkpointed to an optional
:class:`~repro.experiments.journal.RunJournal` the moment their chunk
returns, and SIGINT/SIGTERM are converted into a clean
:class:`~repro.errors.SweepInterrupted` after the journal is flushed, so
an interrupted campaign resumes bit-identically.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import signal
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.budget import Budget
from repro.errors import AnalysisAborted, SweepInterrupted
from repro.experiments.config import SweepSettings
from repro.experiments.journal import RunJournal
from repro.experiments.stateplane import reset_resident_plane
from repro.perf import PerfCounters, merge_global
from repro.verify.faults import SweepFault, trigger_sweep_fault

#: Journal/result key of one work item: ``(point_index, sample_index)``.
ItemKey = Tuple[int, int]

#: ``(weight, per-variant verdicts)`` — the raw payload of one outcome.
ItemResult = Tuple[float, Tuple[bool, ...]]

#: Upper bound on any single backoff sleep, seconds.
BACKOFF_CAP = 2.0

#: Poll granularity of the supervision loop, seconds.  Bounds both the
#: watchdog's detection latency and the reaction time to SIGINT/SIGTERM.
_WAIT_TICK = 0.2

#: Watchdog-fallback multiplier on the per-sample budget: a chunk whose
#: cooperative budgets should have fired long ago is declared hung once it
#: exceeds ``sample_budget x chunk size x factor + grace`` seconds.
BUDGET_WATCHDOG_FACTOR = 4.0

#: Constant slack added to the derived watchdog allowance (absorbs worker
#: spawn and import time for tiny budgets).
BUDGET_WATCHDOG_GRACE = 5.0


@dataclass(frozen=True)
class WorkItem:
    """One flattened ``(point, sample)`` unit of sweep work."""

    point: int
    sample: int
    utilization: float
    seed: int

    @property
    def key(self) -> ItemKey:
        """Journal/result key of this item."""
        return (self.point, self.sample)


@dataclass(frozen=True)
class SampleFailure:
    """A quarantined work item and everything needed to reproduce it.

    ``kind`` is the failure taxonomy used throughout the resilience layer:
    ``"exception"`` (the analysis raised), ``"crash"`` (the worker process
    died), ``"hang"`` (the chunk exceeded the watchdog's wall-clock
    allowance) or ``"budget"`` (the sample's in-process
    :class:`~repro.budget.Budget` ran out and the analysis aborted
    cooperatively — never retried).  The
    ``seed`` is a complete reproducer — re-running
    ``evaluate_sample(platform, utilization, variants, generation, seed)``
    deterministically rebuilds the poison task set.
    """

    point: int
    sample: int
    utilization: float
    seed: int
    kind: str
    exception: str
    message: str
    traceback_digest: str
    attempts: int

    def to_record(self) -> Dict:
        """Plain-dict form for the run journal."""
        return {
            "point": self.point,
            "sample": self.sample,
            "utilization": self.utilization,
            "seed": self.seed,
            "failure": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
        }

    @classmethod
    def from_record(cls, record: Dict) -> "SampleFailure":
        """Inverse of :meth:`to_record` (used on journal resume)."""
        return cls(
            point=int(record["point"]),
            sample=int(record["sample"]),
            utilization=float(record["utilization"]),
            seed=int(record["seed"]),
            kind=str(record.get("failure", "exception")),
            exception=str(record.get("exception", "")),
            message=str(record.get("message", "")),
            traceback_digest=str(record.get("traceback_digest", "")),
            attempts=int(record.get("attempts", 0)),
        )

    def describe(self) -> str:
        """One-line human-readable summary with the reproducer seed."""
        detail = f": {self.message}" if self.message else ""
        return (
            f"{self.kind} at point {self.point} sample {self.sample} "
            f"(utilization {self.utilization}, reproducer seed {self.seed}, "
            f"{self.attempts} attempt(s)) — {self.exception}{detail}"
        )


def _digest(text: str) -> str:
    """Short stable digest used to correlate identical tracebacks."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _prepare_context(
    evaluate, platform, variants, generation, items, perf
) -> Optional[Dict]:
    """Build the optional shared evaluation context for a batch of items.

    The context protocol: an ``evaluate`` callable may declare
    ``evaluate.supports_context = True`` to receive keyword-only
    ``point``/``sample``/``context`` arguments, and may additionally
    expose ``evaluate.prewarm(platform, variants, generation, items,
    perf, context)`` to pre-populate the context for a whole chunk (e.g.
    batch-compiling every task set of a sweep point at once).  Prewarming
    is strictly an optimisation — a failing hook is ignored and the
    per-item evaluation recomputes whatever is missing, so results never
    depend on it.
    """
    if not getattr(evaluate, "supports_context", False):
        return None
    context: Dict = {}
    prewarm = getattr(evaluate, "prewarm", None)
    if prewarm is not None:
        try:
            prewarm(platform, variants, generation, items, perf, context)
        except Exception:  # noqa: BLE001 — prewarming must never fail a chunk
            context = {}
    return context


def _call_evaluate(
    evaluate, platform, variants, generation, item, perf, budget, context
):
    """Invoke ``evaluate`` for one item, honouring the context protocol."""
    if context is None:
        return evaluate(
            platform, item.utilization, variants, generation, item.seed,
            perf, budget,
        )
    return evaluate(
        platform, item.utilization, variants, generation, item.seed,
        perf, budget, point=item.point, sample=item.sample, context=context,
    )


def run_chunk(args):
    """Evaluate one chunk of ``(item, attempt)`` pairs (worker side).

    Top-level so it is picklable under the spawn start method.  Ordinary
    exceptions are captured per sample — this function is the per-sample
    isolation boundary — while crashes and hangs by their nature escape it
    and are handled by the supervisor.  With a per-sample budget each item
    gets a fresh :class:`~repro.budget.Budget`; a cooperative abort is
    reported as a ``"budget"`` record so the supervisor can quarantine it
    without charging retries.  Returns the result list plus the chunk's
    perf counters for the parent to merge.

    An ``evaluate`` exposing ``evaluate.evaluate_batch`` (the lockstep
    protocol — see :func:`repro.experiments.runner.evaluate_items_batch`)
    evaluates the whole chunk in one call, with identical per-item fault
    injection and isolation semantics and bit-identical results; any
    unexpected failure of the batch layer itself falls back to the
    per-item path below.
    """
    evaluate, platform, variants, generation, chunk, fault, sample_budget = args
    batch = getattr(evaluate, "evaluate_batch", None)
    if batch is not None:
        try:
            return batch(
                platform, variants, generation, chunk, fault, sample_budget
            )
        except Exception:  # noqa: BLE001 — batch layer bug: per-item fallback
            pass
    perf = PerfCounters()
    context = _prepare_context(
        evaluate, platform, variants, generation,
        [item for item, _attempt in chunk], perf,
    )
    results: List[Tuple] = []
    for item, attempt in chunk:
        budget = (
            Budget(wall_seconds=sample_budget)
            if sample_budget is not None
            else None
        )
        try:
            trigger_sweep_fault(fault, item.point, item.sample, attempt)
            weight, verdicts = _call_evaluate(
                evaluate, platform, variants, generation, item, perf, budget,
                context,
            )
            results.append(("ok", item.key, weight, tuple(verdicts)))
        except AnalysisAborted as abort:
            results.append(
                (
                    "budget",
                    item.key,
                    type(abort).__name__,
                    str(abort),
                    _digest(traceback.format_exc()),
                )
            )
        except Exception as error:  # noqa: BLE001 — the isolation boundary
            results.append(
                (
                    "err",
                    item.key,
                    type(error).__name__,
                    str(error),
                    _digest(traceback.format_exc()),
                )
            )
    return results, perf


#: Source of the per-supervisor sweep ids that chunks carry (see
#: :func:`run_resident_chunk`).
_SWEEP_IDS = itertools.count()

#: Sweep id of the last chunk this worker served; ``None`` in the parent
#: and in a freshly spawned worker.
_WORKER_SWEEP: Optional[int] = None


def run_resident_chunk(payload):
    """Worker-side chunk entry: one sweep's shared state plus one chunk.

    ``payload`` is ``(sweep_id, evaluate, platform, variants, generation,
    fault, sample_budget, chunk)``.  A :class:`WorkerPool` serves every
    curve of a sweep call, so a worker outlives any one
    supervisor, and each chunk therefore carries its sweep's state (about
    1 KB pickled).  Between chunks of one sweep the worker keeps its
    process-global :func:`~repro.experiments.stateplane.resident_plane`
    (task sets, compiled pair tables, warm-start seeds, hint chains).
    The first chunk of a new sweep drops that plane and collects garbage
    before it runs, so every curve starts on an empty plane, exactly as
    in a freshly spawned worker, and a worker's memory holds at most one
    curve's state.
    """
    global _WORKER_SWEEP
    sweep_id, evaluate, platform, variants, generation, fault, budget, chunk = payload
    if sweep_id != _WORKER_SWEEP:
        reset_resident_plane()
        gc.collect()
        _WORKER_SWEEP = sweep_id
    return run_chunk((evaluate, platform, variants, generation, chunk, fault, budget))


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Forcibly stop an executor, terminating hung workers if needed.

    ``shutdown`` alone never returns while a worker is hung; there is no
    public kill switch, so this reaches for the internal process map
    (stable across CPython 3.9-3.13) with a guard.
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


class WorkerPool:
    """The spawn workers shared by every supervisor of one sweep call.

    Use it as a context manager around the sweep's curves.  The executor
    is created lazily by the first supervised run
    (:meth:`SweepSupervisor._new_executor` is the only place a pool is
    spawned) and is ``None`` until then, so an inline ``jobs == 1`` sweep
    never starts a process.  A supervisor borrows the executor for its
    run and hands it back afterwards; leaving the ``with`` block
    terminates the workers, so none outlives the sweep call.  The
    supervisors sharing a pool must agree on ``settings.jobs``, which
    sizes the executor.
    """

    def __init__(self) -> None:
        self.executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the workers, if any were spawned."""
        if self.executor is not None:
            _kill_executor(self.executor)
            self.executor = None


def chunked(
    items: Sequence[WorkItem], jobs: int
) -> List[Tuple[WorkItem, ...]]:
    """Split the flat item list into contiguous, load-balancing chunks.

    Chunk sizes are *guided*: within each point the leading chunks are
    large (``remaining / (2 x jobs)``) and later ones shrink towards a
    floor, so early dispatches amortise batch compilation over many
    samples while the tail stays fine-grained enough for the work-stealing
    split in :meth:`SweepSupervisor._run_supervised` to even out stragglers.
    Chunks never span sweep points: each point's samples are split on
    their own, so a chunk's prewarm hook (see :func:`_prepare_context`)
    always sees task sets of a single point and the batch kernel compiles
    a whole point together.  Chunk boundaries are not part of the journal
    fingerprint — per-sample seeds make any partitioning (including the
    adaptive sizes and any stealing splits) bit-identical and any journal
    resumable under a different ``jobs`` value.
    """
    jobs = max(jobs, 1)
    chunks: List[Tuple[WorkItem, ...]] = []
    for _point, group in itertools.groupby(items, key=lambda item: item.point):
        point_items = tuple(group)
        floor = max(1, -(-len(point_items) // (jobs * 8)))
        start = 0
        while start < len(point_items):
            remaining = len(point_items) - start
            size = max(floor, remaining // (jobs * 2))
            chunks.append(point_items[start : start + size])
            start += size
    return chunks


class SweepSupervisor:
    """Resilient executor for one sweep's work items.

    Parameters mirror the worker contract: ``evaluate`` must be a
    module-level (picklable) callable with the signature
    ``evaluate(platform, utilization, variants, generation, seed, perf,
    budget) -> (weight, verdicts)`` where ``budget`` is the item's
    :class:`~repro.budget.Budget` or ``None`` when
    ``settings.sample_budget`` is unset.  ``journal`` (optional) receives every
    completed or quarantined item as it happens; ``fault`` (optional)
    carries a deterministic :class:`~repro.verify.faults.SweepFault` into
    the workers for recovery-path testing.  ``pool`` (optional) is the
    :class:`WorkerPool` whose workers a supervised run borrows; without
    one each run spawns a private pool and terminates it on return.
    """

    def __init__(
        self,
        evaluate: Callable,
        platform,
        variants,
        generation,
        settings: SweepSettings,
        journal: Optional[RunJournal] = None,
        fault: Optional[SweepFault] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.evaluate = evaluate
        self.platform = platform
        self.variants = tuple(variants)
        self.generation = generation
        self.settings = settings
        self.journal = journal
        self.fault = fault
        self.pool = pool
        self._sweep_id = next(_SWEEP_IDS)
        self._stop_signal: Optional[int] = None

    # -- public entry point --------------------------------------------------

    def run(
        self, items: Sequence[WorkItem]
    ) -> Tuple[Dict[ItemKey, ItemResult], List[SampleFailure]]:
        """Execute ``items``, returning completed results and quarantines.

        Completed results map ``(point, sample)`` to ``(weight,
        verdicts)``; the failure list holds one :class:`SampleFailure` per
        quarantined item.  Raises
        :class:`~repro.errors.SweepInterrupted` on SIGINT/SIGTERM after
        flushing the journal.
        """
        if not items:
            return {}, []
        with self._interruptible():
            if self.settings.jobs == 1:
                return self._run_inline(items)
            if self.pool is not None:
                return self._run_supervised(items, self.pool)
            with WorkerPool() as pool:
                return self._run_supervised(items, pool)

    # -- inline execution (jobs == 1) ----------------------------------------

    def _run_inline(
        self, items: Sequence[WorkItem]
    ) -> Tuple[Dict[ItemKey, ItemResult], List[SampleFailure]]:
        """Sequential execution with per-sample isolation and retries.

        No hang watchdog and no crash recovery are possible in-process;
        use ``jobs >= 2`` for full supervision.  One shared evaluation
        context (see :func:`_prepare_context`) survives the whole run —
        prewarmed point by point as execution reaches it — so
        context-aware evaluators can chain warm hints across adjacent
        sweep points, something the per-chunk contexts of the parallel
        path cannot offer.
        """
        completed: Dict[ItemKey, ItemResult] = {}
        failures: List[SampleFailure] = []
        attempts: Dict[ItemKey, int] = {item.key: 0 for item in items}
        by_key: Dict[ItemKey, WorkItem] = {item.key: item for item in items}
        queue: Deque[WorkItem] = deque(items)
        perf = PerfCounters()
        batch = getattr(self.evaluate, "evaluate_batch", None)
        supports_context = getattr(self.evaluate, "supports_context", False)
        prewarm = (
            getattr(self.evaluate, "prewarm", None) if supports_context else None
        )
        context: Optional[Dict] = {} if supports_context else None
        prewarmed_points: set = set()
        by_point: Dict[int, List[WorkItem]] = {}
        if prewarm is not None:
            for item in items:
                by_point.setdefault(item.point, []).append(item)
        while queue:
            self._check_interrupt()
            item = queue.popleft()
            attempt = attempts[item.key]
            if (
                batch is not None
                and attempt == 0
                and queue
                and queue[0].point == item.point
                and attempts[queue[0].key] == 0
            ):
                # First-attempt items of one point at the head of the
                # queue: evaluate them as a single lockstep batch.  Items
                # the batch reports as failed re-queue for the per-item
                # path below, which owns retries, backoff and quarantine.
                run = [item]
                while (
                    queue
                    and queue[0].point == item.point
                    and attempts[queue[0].key] == 0
                ):
                    run.append(queue.popleft())
                payload = tuple((it, 0) for it in run)
                try:
                    results, chunk_perf = batch(
                        self.platform, self.variants, self.generation,
                        payload, self.fault, self.settings.sample_budget,
                    )
                except Exception:  # noqa: BLE001 — batch bug: per-item redo
                    for it in reversed(run):
                        queue.appendleft(it)
                    batch = None
                    continue
                perf.merge(chunk_perf)
                for result in results:
                    if result[0] == "ok":
                        _, key, weight, verdicts = result
                        self._complete(key, weight, tuple(verdicts), completed)
                    elif result[0] == "budget":
                        _, key, exception, message, digest = result
                        attempts[key] += 1
                        self._quarantine(
                            by_key[key], "budget", exception, message, digest,
                            attempts[key], failures,
                        )
                    else:
                        _, key, exception, message, digest = result
                        attempts[key] += 1
                        if attempts[key] > self.settings.retries:
                            self._quarantine(
                                by_key[key], "exception", exception, message,
                                digest, attempts[key], failures,
                            )
                        else:
                            queue.append(by_key[key])
                continue
            if prewarm is not None and item.point not in prewarmed_points:
                prewarmed_points.add(item.point)
                try:
                    prewarm(
                        self.platform, self.variants, self.generation,
                        by_point[item.point], perf, context,
                    )
                except Exception:  # noqa: BLE001 — prewarming is optional
                    pass
            budget = (
                Budget(wall_seconds=self.settings.sample_budget)
                if self.settings.sample_budget is not None
                else None
            )
            try:
                trigger_sweep_fault(self.fault, item.point, item.sample, attempt)
                weight, verdicts = _call_evaluate(
                    self.evaluate,
                    self.platform,
                    self.variants,
                    self.generation,
                    item,
                    perf,
                    budget,
                    context,
                )
            except AnalysisAborted as abort:
                # Budget aborts are deterministic for the sample: straight
                # to quarantine, no retry budget consumed.
                attempts[item.key] += 1
                self._quarantine(
                    item,
                    "budget",
                    type(abort).__name__,
                    str(abort),
                    _digest(traceback.format_exc()),
                    attempts[item.key],
                    failures,
                )
            except Exception as error:  # noqa: BLE001 — isolation boundary
                attempts[item.key] += 1
                if attempts[item.key] > self.settings.retries:
                    self._quarantine(
                        item,
                        "exception",
                        type(error).__name__,
                        str(error),
                        _digest(traceback.format_exc()),
                        attempts[item.key],
                        failures,
                    )
                else:
                    time.sleep(self._backoff_delay(attempts[item.key]))
                    queue.append(item)
            else:
                self._complete(item.key, weight, tuple(verdicts), completed)
        merge_global(perf)
        return completed, failures

    # -- supervised parallel execution ---------------------------------------

    def _run_supervised(
        self, items: Sequence[WorkItem], pool: WorkerPool
    ) -> Tuple[Dict[ItemKey, ItemResult], List[SampleFailure]]:
        completed: Dict[ItemKey, ItemResult] = {}
        failures: List[SampleFailure] = []
        attempts: Dict[ItemKey, int] = {item.key: 0 for item in items}
        by_key: Dict[ItemKey, WorkItem] = {item.key: item for item in items}
        supervisor_perf = PerfCounters()
        ready: Deque[Tuple[WorkItem, ...]] = deque(chunked(items, self.settings.jobs))
        # Chunks implicated in an ambiguous pool death: re-run one at a
        # time (nothing else in flight) so the next death names its culprit.
        suspects: Deque[Tuple[WorkItem, ...]] = deque()
        delayed: List[Tuple[float, int, Tuple[WorkItem, ...]]] = []
        tiebreak = itertools.count()
        # Borrow the pool's executor; a crash or watchdog respawn below
        # replaces it, and whichever executor is current goes back.
        executor = pool.executor or self._new_executor()
        pool.executor = None
        shared = (
            self._sweep_id,
            self.evaluate,
            self.platform,
            self.variants,
            self.generation,
            self.fault,
            self.settings.sample_budget,
        )
        futures: Dict = {}
        try:
            while ready or suspects or delayed or futures:
                self._check_interrupt()
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, chunk = heapq.heappop(delayed)
                    ready.append(chunk)
                broken = False
                broken_chunks: List[Tuple[WorkItem, ...]] = []
                # Keep at most ``jobs`` chunks in flight so a submitted
                # chunk starts running immediately and the watchdog clock
                # (measured from submission) reflects actual run time.
                while len(futures) < self.settings.jobs:
                    solo = bool(suspects)
                    if solo:
                        if futures:
                            break  # drain the pool before isolating one
                        chunk = suspects.popleft()
                    elif ready:
                        chunk = ready.popleft()
                        # Tail work stealing: when fewer queued chunks
                        # remain than idle workers, split this chunk so a
                        # straggler's samples spread over the idle slots.
                        # Splits stay inside the chunk's sweep point and
                        # per-sample seeds make any partitioning
                        # bit-identical, so journals and --resume are
                        # unaffected.
                        idle_after = self.settings.jobs - len(futures) - 1
                        if idle_after > len(ready) and len(chunk) > 1:
                            mid = len(chunk) // 2
                            ready.append(chunk[mid:])
                            chunk = chunk[:mid]
                            supervisor_perf.chunks_stolen += 1
                    else:
                        break
                    payload = tuple(
                        (item, attempts[item.key]) for item in chunk
                    )
                    try:
                        future = executor.submit(
                            run_resident_chunk, (*shared, payload)
                        )
                    except BrokenProcessPool:
                        (suspects if solo else ready).appendleft(chunk)
                        broken = True
                        break
                    futures[future] = (chunk, time.monotonic())
                    if solo:
                        break  # exactly one suspect in flight
                if not broken and not futures:
                    # Everything is waiting out a backoff delay.
                    pause = max(0.0, delayed[0][0] - time.monotonic())
                    time.sleep(min(pause, _WAIT_TICK))
                    continue
                if not broken:
                    done, _ = wait(
                        set(futures),
                        timeout=_WAIT_TICK,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        chunk, _submitted = futures.pop(future)
                        broken |= not self._absorb_future(
                            future,
                            chunk,
                            completed,
                            failures,
                            attempts,
                            by_key,
                            delayed,
                            tiebreak,
                            broken_chunks,
                        )
                if broken:
                    executor = self._recover_broken_pool(
                        executor,
                        futures,
                        broken_chunks,
                        completed,
                        failures,
                        attempts,
                        by_key,
                        suspects,
                        delayed,
                        tiebreak,
                    )
                    continue
                if (
                    self.settings.timeout is not None
                    or self.settings.sample_budget is not None
                ):
                    executor = self._enforce_timeout(
                        executor,
                        futures,
                        completed,
                        failures,
                        attempts,
                        by_key,
                        ready,
                        delayed,
                        tiebreak,
                    )
        finally:
            # Work still in flight (an interrupt or an unexpected error)
            # would run on into the next curve: kill those workers instead
            # of handing them back.
            if futures:
                _kill_executor(executor)
            else:
                pool.executor = executor
        merge_global(supervisor_perf)
        return completed, failures

    # -- helpers -------------------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        # Spawn, explicitly: identical worker semantics on Linux/macOS and
        # no inherited signal handlers, fault flags or journal handles.
        # Workers hold no sweep state of their own: every chunk carries it
        # (see run_resident_chunk), so one pool serves several curves.
        return ProcessPoolExecutor(
            max_workers=self.settings.jobs, mp_context=get_context("spawn")
        )

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff before the ``attempt``-th retry."""
        return min(self.settings.backoff * (2 ** (attempt - 1)), BACKOFF_CAP)

    def _chunk_allowance(self, chunk: Tuple[WorkItem, ...]) -> Optional[float]:
        """Wall-clock seconds this chunk may run before the watchdog fires.

        ``settings.timeout`` wins when set (explicit per-chunk budget);
        otherwise a generous fallback is derived from the in-process
        sample budget, sized so it can only fire when cooperative aborts
        have failed (a hang between budget checkpoints).  ``None``
        disables the watchdog for this chunk.
        """
        if self.settings.timeout is not None:
            return self.settings.timeout
        if self.settings.sample_budget is not None:
            return (
                self.settings.sample_budget
                * len(chunk)
                * BUDGET_WATCHDOG_FACTOR
                + BUDGET_WATCHDOG_GRACE
            )
        return None

    def _complete(
        self,
        key: ItemKey,
        weight: float,
        verdicts: Tuple[bool, ...],
        completed: Dict[ItemKey, ItemResult],
    ) -> None:
        completed[key] = (weight, verdicts)
        if self.journal is not None:
            self.journal.record_sample(key[0], key[1], weight, verdicts)

    def _quarantine(
        self,
        item: WorkItem,
        kind: str,
        exception: str,
        message: str,
        digest: str,
        attempts: int,
        failures: List[SampleFailure],
    ) -> None:
        failure = SampleFailure(
            point=item.point,
            sample=item.sample,
            utilization=item.utilization,
            seed=item.seed,
            kind=kind,
            exception=exception,
            message=message,
            traceback_digest=digest,
            attempts=attempts,
        )
        failures.append(failure)
        if self.journal is not None:
            self.journal.record_failure(failure.to_record())
        print(
            f"repro-experiments: warning: quarantined {failure.describe()}",
            file=sys.stderr,
        )

    def _retry_or_quarantine(
        self,
        item: WorkItem,
        kind: str,
        exception: str,
        message: str,
        digest: str,
        attempts: Dict[ItemKey, int],
        failures: List[SampleFailure],
        delayed: List,
        tiebreak,
    ) -> None:
        """Account one failed execution of ``item`` and decide its fate."""
        attempts[item.key] += 1
        if attempts[item.key] > self.settings.retries:
            self._quarantine(
                item, kind, exception, message, digest, attempts[item.key], failures
            )
        else:
            not_before = time.monotonic() + self._backoff_delay(attempts[item.key])
            heapq.heappush(delayed, (not_before, next(tiebreak), (item,)))

    def _absorb_future(
        self,
        future,
        chunk: Tuple[WorkItem, ...],
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        delayed: List,
        tiebreak,
        broken_chunks: List[Tuple[WorkItem, ...]],
    ) -> bool:
        """Fold one finished future into the run state.

        Returns ``False`` when the future died with the pool — its chunk
        is parked in ``broken_chunks`` for the caller's crash recovery,
        which decides guilt from how many chunks died together.  Returns
        ``True`` otherwise.
        """
        try:
            results, perf = future.result()
        except BrokenProcessPool:
            broken_chunks.append(chunk)
            return False
        except Exception as error:  # noqa: BLE001 — infrastructure failure
            # Not a pool death (e.g. the chunk payload failed to pickle):
            # the pool is still alive, so recover just this chunk.
            self._recover_chunk(
                chunk, "crash", attempts, failures, None, delayed, tiebreak,
                message=f"{type(error).__name__}: {error}",
            )
            return True
        merge_global(perf)
        for result in results:
            if result[0] == "ok":
                _, key, weight, verdicts = result
                self._complete(key, weight, verdicts, completed)
            elif result[0] == "budget":
                # Deterministic in-process abort: quarantine immediately,
                # retries would only re-spend the same budget.
                _, key, exception, message, digest = result
                attempts[key] += 1
                self._quarantine(
                    by_key[key], "budget", exception, message, digest,
                    attempts[key], failures,
                )
            else:
                _, key, exception, message, digest = result
                self._retry_or_quarantine(
                    by_key[key],
                    "exception",
                    exception,
                    message,
                    digest,
                    attempts,
                    failures,
                    delayed,
                    tiebreak,
                )
        return True

    def _recover_chunk(
        self,
        chunk: Tuple[WorkItem, ...],
        kind: str,
        attempts: Dict[ItemKey, int],
        failures: List[SampleFailure],
        target: Optional[Deque],
        delayed: List,
        tiebreak,
        message: str = "",
    ) -> None:
        """Bisect-or-quarantine rule for a chunk guilty of a crash or hang.

        A multi-item chunk is split in half (no retry budget consumed —
        innocent samples must not be punished for sharing a chunk with a
        poison one) and both halves go to ``target`` (the suspects queue
        for crashes, so they re-run in isolation; the ready queue for
        hangs, where per-future deadlines keep guilt unambiguous); a
        single-item chunk consumes one retry and is eventually
        quarantined with ``kind``.
        """
        if len(chunk) > 1:
            mid = len(chunk) // 2
            for half in (chunk[:mid], chunk[mid:]):
                if target is not None:
                    target.append(half)
                else:
                    heapq.heappush(
                        delayed, (time.monotonic(), next(tiebreak), half)
                    )
            return
        exception = "WorkerCrashError" if kind == "crash" else "ChunkTimeoutError"
        if kind == "crash":
            default_message = "worker process died while evaluating this sample"
        else:
            allowance = self._chunk_allowance(chunk)
            default_message = (
                f"chunk exceeded its {allowance}s wall-clock allowance"
            )
        self._retry_or_quarantine(
            chunk[0],
            kind,
            exception,
            message or default_message,
            "",
            attempts,
            failures,
            delayed,
            tiebreak,
        )

    def _recover_broken_pool(
        self,
        executor: ProcessPoolExecutor,
        futures: Dict,
        broken_chunks: List[Tuple[WorkItem, ...]],
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        suspects: Deque,
        delayed: List,
        tiebreak,
    ) -> ProcessPoolExecutor:
        """Drain a broken pool, attribute guilt, and respawn it.

        Chunks that still completed are absorbed normally.  If exactly
        one chunk was lost to the death, guilt is unambiguous and it goes
        through the bisect-or-quarantine rule; if several were lost
        together, the executor cannot say which worker died, so all of
        them become suspects — re-executed one at a time, uncharged, so
        innocent samples are never punished for sharing a pool with a
        poison one.
        """
        for future, (chunk, _submitted) in list(futures.items()):
            self._absorb_future(
                future, chunk, completed, failures, attempts, by_key,
                delayed, tiebreak, broken_chunks,
            )
        futures.clear()
        # Reap the broken pool's surviving workers now, not in its
        # manager thread later, so none outlives the sweep.
        _kill_executor(executor)
        if len(broken_chunks) == 1:
            self._recover_chunk(
                broken_chunks[0], "crash", attempts, failures, suspects,
                delayed, tiebreak,
            )
        else:
            suspects.extend(broken_chunks)
        broken_chunks.clear()
        return self._new_executor()

    def _enforce_timeout(
        self,
        executor: ProcessPoolExecutor,
        futures: Dict,
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        ready: Deque,
        delayed: List,
        tiebreak,
    ) -> ProcessPoolExecutor:
        """Kill the pool if any in-flight chunk exceeded its allowance."""
        now = time.monotonic()
        overdue = set()
        for future, (chunk, submitted) in futures.items():
            allowance = self._chunk_allowance(chunk)
            if allowance is not None and now - submitted > allowance:
                overdue.add(future)
        if not overdue:
            return executor
        _kill_executor(executor)
        for future, (chunk, _submitted) in list(futures.items()):
            if future in overdue:
                self._recover_chunk(
                    chunk, "hang", attempts, failures, ready, delayed, tiebreak
                )
            elif future.done() and future.exception() is None:
                # Completed in the window between the wait and the kill.
                self._absorb_future(
                    future, chunk, completed, failures, attempts, by_key,
                    delayed, tiebreak, [],
                )
            else:
                # Innocent collateral of the pool kill: resubmit as-is.
                ready.append(chunk)
        futures.clear()
        return self._new_executor()

    # -- interrupt handling ---------------------------------------------------

    @contextmanager
    def _interruptible(self) -> Iterator[None]:
        """Convert SIGINT/SIGTERM into a polled stop flag for the run.

        Only possible from the main thread; elsewhere the default signal
        behaviour is left untouched.
        """
        self._stop_signal = None
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def _handler(signum, _frame):
            self._stop_signal = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _check_interrupt(self) -> None:
        if self._stop_signal is None:
            return
        name = signal.Signals(self._stop_signal).name
        if self.journal is not None:
            hint = (
                f"journal flushed to {self.journal.path}; "
                f"re-run with --resume to continue"
            )
        else:
            hint = "partial results discarded (no --journal directory was given)"
        raise SweepInterrupted(f"sweep interrupted by {name}; {hint}")
