"""Runs the two sweep workloads, ``fig2-sweep`` and ``fig3c-jobs2``.

Each measurement is one fresh program process (``sweep_child.py``) that
runs the cold sweep and then the same sweep again in-process.  Untraced
runs start such processes one after another for about ``--seconds`` (at
least one), and report medians over them.

Checks on every process:

* the second round reproduces the first bit for bit;
* every series is a ratio in [0, 1]; each persistence-aware curve is at
  least its baseline (FP-P >= FP, RR-P >= RR, TDMA-P >= TDMA); on fig2 the
  perfect bus is at least every curve;
* where ``pins.json`` holds a digest for the seed, the cold series match it
  (fig3c pins come from ``jobs=1`` runs, so they also check the parallel
  path against the sequential one);
* no sample was quarantined.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List

import benchtrace
from common import (
    BENCH_DIR,
    child_env,
    digest,
    load_pins,
    median,
    peak_children_rss_mb,
    run_child,
    spread,
    work_dir,
)

CHILD = str(BENCH_DIR / "sweep_child.py")
SETUP_SAMPLES = 9
#: Rounds per process: the cold sweep, then in-process repeats whose median
#: is the warm figure (fig2 replays are short, so it gets two).
ROUNDS = {"fig2-sweep": 3, "fig3c-jobs2": 2}
PAIRS = (("FP-P", "FP"), ("RR-P", "RR"), ("TDMA-P", "TDMA"))
JOBS = {"fig2-sweep": 1, "fig3c-jobs2": 2}


def launch(
    root: Path, workload: str, seed: int, rounds: int, trace_dir=None, ablate=None, timeout=None
) -> Dict:
    spec = {
        "workload": workload,
        "seed": seed,
        "launched": time.monotonic(),
        "rounds": rounds,
        "ablate": ablate,
        "trace_dir": str(trace_dir) if trace_dir else None,
    }
    return run_child([CHILD, json.dumps(spec)], child_env(root, trace_dir), root, timeout)


def check(workload: str, seed: int, child: Dict) -> List[str]:
    """Every output problem of one process (empty when correct)."""
    problems = []
    cold = child["rounds"][0]
    for index, again in enumerate(child["rounds"][1:], 2):
        if again["series"] != cold["series"]:
            problems.append(f"round {index} differs from the cold round")
    for index, run in enumerate(child["rounds"], 1):
        if run["failures"]:
            problems.append(f"round {index}: {run['failures']} quarantined samples")
    series = cold["series"]
    for label, values in series.items():
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{label}: value outside [0, 1]")
    for aware, baseline in PAIRS:
        if any(a < b for a, b in zip(series[aware], series[baseline])):
            problems.append(f"{aware} below {baseline}")
    if "Perfect" in series:
        for label, values in series.items():
            if any(p < v for p, v in zip(series["Perfect"], values)):
                problems.append(f"Perfect below {label}")
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is not None and digest(series) != pinned:
        problems.append(f"series digest {digest(series)[:12]} != pinned {pinned[:12]}")
    return problems


def tally(children: List[Dict], problems: List[str]):
    """Attempted and failed sample evaluations; a failed check fails them all."""
    attempted = sum(run["samples"] for child in children for run in child["rounds"])
    failed = sum(run["failures"] for child in children for run in child["rounds"])
    return attempted, attempted if problems else failed


def per_sample_ms(run: Dict) -> float:
    return 1000.0 * run["wall_s"] / run["samples"]


def warm_ms(child: Dict) -> float:
    return median([per_sample_ms(run) for run in child["rounds"][1:]])


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    children = []
    setup = []
    started = time.monotonic()
    while True:
        launched = time.monotonic()
        children.append(launch(root, workload, seed, ROUNDS[workload]))
        setup.append(children[-1]["ready_s"])
        last = time.monotonic() - launched
        # Start another process only if it would end within half a process
        # of ``seconds``; fig3c processes take half the run each.
        if trace or time.monotonic() - started + last / 2 > seconds:
            break
        # Set-up-only launches between sweeps spread the set-up samples over the run.
        setup.append(launch(root, workload, seed, 0)["ready_s"])
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(launch(root, workload, seed, 0)["ready_s"])

    problems = []
    for child in children:
        problems.extend(check(workload, seed, child))
    digests = {digest(child["rounds"][0]["series"]) for child in children}
    if len(digests) > 1:
        problems.append("processes with the same seed disagree")

    cold = [per_sample_ms(child["rounds"][0]) for child in children]
    warm = [warm_ms(child) for child in children]
    attempted, failed = tally(children, problems)
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "cold_ms": (median(cold), "ms"),
            "warm_ms": (median(warm), "ms"),
            "peak_rss_mb": (peak_children_rss_mb(), "MB"),
        },
        "report": [
            f"processes: {len(children)}; cold ms/sample {spread(cold)}; "
            f"second-round ms/sample {spread(warm)}; setup s {spread(setup)}",
            f"sweep_samples_per_s: {1000.0 / median(cold):.3f} 1/s",
        ],
    }
    label = "replay_samples_per_s" if workload == "fig2-sweep" else "repeat_samples_per_s"
    outcome["report"].append(f"{label}: {1000.0 / median(warm):.3f} 1/s")
    if trace:
        outcome.update(traced(root, workload, seed, children[0]))
    return outcome


def counters_of(child: Dict, index: int) -> Dict[str, int]:
    return child["rounds"][index]["counters"]


def traced(root: Path, workload: str, seed: int, plain: Dict) -> Dict:
    """The traced twin of ``plain``: per-layer metrics and tracing overhead.

    Spans and work counters are those of the cold round, except the two
    replay ratios, which are read from round 2.  ``dominance.skip_ratio`` is
    skipped analyses over skipped plus run ones; ``worker_busy_share`` is the
    workers' chunk time over ``jobs`` times the supervisor's wall time.
    fig2 counters must repeat exactly between the plain and the traced
    process; fig3c counters depend on chunk scheduling and are reported as
    a range.
    """
    trace_dir = work_dir(root) / f"trace-{workload}-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    try:
        child = launch(root, workload, seed, ROUNDS[workload], trace_dir=trace_dir)
        cold = benchtrace.collect(str(trace_dir / "round1"))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    problems = check(workload, seed, child)
    report = []
    deterministic = workload == "fig2-sweep"
    for index in range(ROUNDS[workload]):
        a, b = counters_of(plain, index), counters_of(child, index)
        differing = sorted(k for k in a if a[k] != b[k])
        if differing and deterministic:
            problems.append(f"round {index + 1} counters differ between two runs: {differing}")
        if differing:
            report.append(
                f"round {index + 1} counters over two processes: "
                + ", ".join(f"{k} {min(a[k], b[k])}..{max(a[k], b[k])}" for k in differing)
            )
    c_cold = counters_of(child, 0)
    c_again = counters_of(child, 1)
    span = lambda name, field="s": benchtrace.span(name, cold, field)  # noqa: E731
    pools = span("experiments.supervisor.new_pool", "calls")
    supervised = span("experiments.supervisor.run") * JOBS[workload]
    lookups = c_again["resident_table_hits"] + c_again["resident_table_misses"]
    layers = {
        "generation.generate_taskset.s": span("generation.generate_taskset"),
        "generation.generate_taskset.calls": span("generation.generate_taskset", "calls"),
        "cacheanalysis.extract_parameters_cached.s": span("cacheanalysis.extract_parameters_cached"),
        "model.interference.prefill_batch.s": span("model.interference.prefill_batch"),
        "model.interference.prefill_batch.calls": span("model.interference.prefill_batch", "calls"),
        "array_kernel_batches": c_cold["array_kernel_batches"],
        "businterference.make_bat.s": span("businterference.make_bat"),
        "businterference.make_bat.calls": span("businterference.make_bat", "calls"),
        "analysis.check_schedulability_batch.self_s": span("analysis.check_schedulability_batch", "self_s"),
        "analysis.analyze_taskset.s": span("analysis.analyze_taskset"),
        "analyses": c_cold["analyses"],
        "outer_iterations": c_cold["outer_iterations"],
        "inner_iterations": c_cold["inner_iterations"],
        "dominance_skips": c_cold["dominance_skips"],
        "lockstep_batches": c_cold["lockstep_batches"],
        "dominance.skip_ratio": c_cold["dominance_skips"]
        / max(1, c_cold["analyses"] + c_cold["dominance_skips"]),
        "experiments.stateplane.hit_ratio": c_again["resident_table_hits"] / max(1, lookups),
        "warm_start.ratio": c_again["warm_starts"] / max(1, c_again["analyses"]),
        "experiments.supervisor.run.s": span("experiments.supervisor.run"),
        "experiments.supervisor.run.pools": pools,
        "experiments.supervisor.run.worker_busy_share": (
            span("experiments.supervisor.run_resident_chunk") / supervised if pools else 0.0
        ),
        "chunks_stolen": c_cold["chunks_stolen"],
        "unattributed_s": sum(span(name, "self_s") for name in benchtrace.root_names()),
        "trace_overhead.cold_ms": per_sample_ms(child["rounds"][0]) - per_sample_ms(plain["rounds"][0]),
        "trace_overhead.warm_ms": warm_ms(child) - warm_ms(plain),
    }
    report.append(
        f"cold round wall {child['rounds'][0]['wall_s']:.3f} s traced vs "
        f"{plain['rounds'][0]['wall_s']:.3f} s untraced"
    )
    attempted, failed = tally([child], problems)
    return {
        "layers": layers,
        "problems_traced": problems,
        "report_traced": report,
        "attempted_traced": attempted,
        "failed_traced": failed,
    }
