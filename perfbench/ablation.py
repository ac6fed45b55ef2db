"""Layer ablation report for ``fig2-sweep`` (not part of the gate).

    python3 perfbench/run.py --ablation --seed 2020

Repeats the fig2 workload with each ``AnalysisConfig`` kernel flag turned
off in turn, :data:`REPEATS` fresh processes per row, interleaved with the
default configuration so slow drift of the host hits every row alike.  For
each flag it prints the change in cold and replay throughput against the
default, with the min..max of the per-process figures, and whether the
ratios stayed bit-identical (every flag is documented as result-neutral).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from common import digest, median
from sweep_bench import ROUNDS, launch, per_sample_ms, warm_ms

FLAGS = ("lockstep_kernel", "warm_start", "array_kernel", "bitset_kernel", "memoization")
#: Fresh processes per row: the fewest that give a median and a spread.
REPEATS = 3
#: Per-process limit; the report as a whole has none.
CHILD_TIMEOUT_S = 300.0


def report(root: Path, seed: int) -> List[str]:
    rows: Dict[Optional[str], Dict[str, List]] = {
        flag: {"cold": [], "replay": [], "digests": set()} for flag in (None,) + FLAGS
    }
    for _ in range(REPEATS):
        for flag in rows:
            child = launch(
                root, "fig2-sweep", seed, ROUNDS["fig2-sweep"], ablate=flag, timeout=CHILD_TIMEOUT_S
            )
            rows[flag]["cold"].append(per_sample_ms(child["rounds"][0]))
            rows[flag]["replay"].append(warm_ms(child))
            rows[flag]["digests"].add(digest(child["rounds"][0]["series"]))
    base = rows[None]
    lines = [
        f"fig2-sweep layer ablation, seed {seed}, {REPEATS} processes per row",
        f"{'flag off':<18} {'cold ms/sample':>22} {'cold thr.':>10} "
        f"{'replay ms/sample':>22} {'replay thr.':>11}  identical",
    ]
    summary = {}
    for flag, row in rows.items():
        cold_change = median(base["cold"]) / median(row["cold"]) - 1.0
        replay_change = median(base["replay"]) / median(row["replay"]) - 1.0
        identical = row["digests"] == base["digests"] and len(row["digests"]) == 1
        lines.append(
            f"{flag or '(default)':<18} {_range(row['cold']):>22} {cold_change:>+10.1%} "
            f"{_range(row['replay']):>22} {replay_change:>+11.1%}  {'yes' if identical else 'NO'}"
        )
        summary[flag or "default"] = {
            "cold_ms": row["cold"],
            "replay_ms": row["replay"],
            "cold_throughput_change": cold_change,
            "replay_throughput_change": replay_change,
            "identical": identical,
        }
    lines.append("throughput change = default median / flag-off median - 1; negative = the layer pays")
    lines.append(json.dumps(summary, sort_keys=True))
    return lines


def _range(values: List[float]) -> str:
    return f"{median(values):.2f} ({min(values):.2f}..{max(values):.2f})"
