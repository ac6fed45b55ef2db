"""One fresh program process of a sweep workload.

    python perfbench/sweep_child.py '<spec json>'

The spec names the workload (``fig2-sweep`` or ``fig3c-jobs2``), the seed,
the monotonic time at which the benchmark launched this process, how many
rounds to run (0 = set-up only), an optional ``AnalysisConfig`` kernel flag
to turn off (ablation) and an optional trace directory.  Round 1 is the
cold sweep; later rounds run the identical sweep again in the same process
(for fig2 the resident replay, for fig3c a repeat that spawns fresh pools).

Prints one JSON line: the set-up time, and per round its wall time, sample
count, result series, quarantined samples and the program's own work
counters (``repro.perf``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

from repro.experiments import fig2 as fig2_module
from repro.experiments.config import SweepSettings, standard_variants
from repro.experiments.fig3 import run_fig3c
from repro.perf import PerfCounters, global_counters, reset_global_counters

FIG2_UTILIZATIONS = tuple(round(0.1 * step, 1) for step in range(1, 11))
FIG3C_UTILIZATIONS = tuple(round(0.1 * step, 1) for step in range(1, 10))
FIG3C_CACHE_SETS = (32, 64, 128, 256, 512, 1024)


def settings_for(workload: str, seed: int, jobs: int = 0) -> SweepSettings:
    """The bench-scale sweep of each workload (``jobs=0`` = the workload's own)."""
    if workload == "fig2-sweep":
        return SweepSettings(
            samples=40, seed=seed, utilizations=FIG2_UTILIZATIONS, jobs=jobs or 1
        )
    if workload == "fig3c-jobs2":
        return SweepSettings(
            samples=10, seed=seed, utilizations=FIG3C_UTILIZATIONS, jobs=jobs or 2
        )
    raise ValueError(f"unknown sweep workload {workload!r}")


def run_sweep(workload: str, settings: SweepSettings):
    """One sweep round; returns (series by variant label, sample count, failures)."""
    if workload == "fig2-sweep":
        result = fig2_module.run_fig2(settings)
        series = result.ratios
        samples = settings.samples * len(settings.utilizations)
    else:
        result = run_fig3c(settings, cache_sets=FIG3C_CACHE_SETS)
        series = result.measures
        samples = settings.samples * len(FIG3C_UTILIZATIONS) * len(FIG3C_CACHE_SETS)
    return {label: list(values) for label, values in series.items()}, samples, len(result.failures)


def ablate(flag: str) -> None:
    """Run fig2 with one ``AnalysisConfig`` kernel flag off in every variant."""

    def variants(include_perfect: bool = True):
        return tuple(
            replace(v, analysis=replace(v.analysis, **{flag: False}))
            for v in standard_variants(include_perfect)
        )

    fig2_module.standard_variants = variants


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    settings = settings_for(workload, spec["seed"])
    if spec.get("ablate"):
        ablate(spec["ablate"])
    tracing = None
    if spec.get("trace_dir"):
        import benchtrace  # noqa: PLC0415 — installed by trace_site/sitecustomize.py

        tracing = benchtrace
    ready = time.monotonic()
    rounds = []
    for index in range(spec["rounds"]):
        run = lambda: run_sweep(workload, settings)  # noqa: E731
        if tracing is not None:
            directory = os.path.join(spec["trace_dir"], f"round{index + 1}")
            os.makedirs(directory, exist_ok=True)
            tracing.reset(directory)
            run = tracing.root_span("benchmark.round", run)
        reset_global_counters()
        started = time.perf_counter()
        series, samples, failures = run()
        wall = time.perf_counter() - started
        counters = global_counters()
        rounds.append(
            {
                "wall_s": wall,
                "samples": samples,
                "series": series,
                "failures": failures,
                "counters": {
                    name: getattr(counters, name) for name in PerfCounters._INT_FIELDS
                },
            }
        )
    if tracing is not None:
        tracing.flush()
    print(json.dumps({"ready_s": ready - spec["launched"], "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
