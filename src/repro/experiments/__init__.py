"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.config import (
    DEFAULT_SAMPLES,
    PAPER_SAMPLES,
    PAPER_UTILIZATIONS,
    WEIGHTED_UTILIZATIONS,
    SweepSettings,
    Variant,
    default_platform,
    settings_from_environment,
    slot_variants,
    standard_variants,
)
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import (
    WeightedSweepResult,
    run_fig3a,
    run_fig3b,
    run_fig3c,
    run_fig3d,
)
from repro.experiments.journal import RunJournal, sweep_fingerprint
from repro.experiments.runner import (
    CurveOutcomes,
    SampleOutcome,
    run_curve,
    schedulability_ratios,
    weighted_measures,
)
from repro.experiments.stats import ratio_confidence_intervals, wilson_interval
from repro.experiments.supervisor import (
    SampleFailure,
    SweepSupervisor,
    WorkerPool,
    WorkItem,
)
from repro.experiments.table1 import Table1Result, run_table1

__all__ = [
    "CurveOutcomes",
    "RunJournal",
    "SampleFailure",
    "SampleOutcome",
    "SweepSupervisor",
    "WorkerPool",
    "WorkItem",
    "run_curve",
    "schedulability_ratios",
    "sweep_fingerprint",
    "weighted_measures",
    "DEFAULT_SAMPLES",
    "PAPER_SAMPLES",
    "PAPER_UTILIZATIONS",
    "WEIGHTED_UTILIZATIONS",
    "SweepSettings",
    "Variant",
    "default_platform",
    "settings_from_environment",
    "slot_variants",
    "standard_variants",
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "WeightedSweepResult",
    "run_fig3a",
    "run_fig3b",
    "run_fig3c",
    "run_fig3d",
    "ratio_confidence_intervals",
    "wilson_interval",
    "Table1Result",
    "run_table1",
]
