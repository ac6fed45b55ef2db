"""Regenerate ``pins.json``: digests of the sweep workloads' cold series.

    python3 perfbench/pin.py 0-30 2020

Run from the root of a checkout.  Both sweeps are pinned from sequential
(``jobs=1``) runs, so the ``fig3c-jobs2`` check also compares the parallel
supervisor against the in-process path.  Re-pin only for a change that is
meant to alter the schedulability results.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds_from(arguments):
    for argument in arguments:
        low, _, high = argument.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from common import digest  # noqa: PLC0415
    from sweep_child import run_sweep, settings_for  # noqa: PLC0415

    path = BENCH_DIR / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds_from(sys.argv[1:]):
        for workload in ("fig2-sweep", "fig3c-jobs2"):
            series, _samples, failures = run_sweep(workload, settings_for(workload, seed, jobs=1))
            if failures:
                print(f"{workload} seed {seed}: {failures} quarantined samples", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = digest(series)
            print(f"{workload} seed {seed}: {pins[workload][str(seed)][:16]}", flush=True)
    for workload in pins:
        pins[workload] = dict(sorted(pins[workload].items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
