"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --ablation --seed 1

Run it from the root of a checkout; the program runs from ``src/``.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``fig2-sweep``   -- Fig. 2 at bench scale (40 samples x 10 utilisation
  points, 7 variants, 256-set cache, ``jobs=1``): a cold sweep, then the
  same sweep replayed in the same process.
* ``fig3c-jobs2``  -- Fig. 3c (10 samples, 32..1024 sets, parameters
  re-extracted per size) through the two-worker spawn supervisor, run
  twice in one process.
* ``service-http`` -- fresh ``python -m repro.service`` daemons, one after
  another, each driven over HTTP by an open-loop generator at a light
  rate and then at a rate set from its own light-rate miss latency, and
  last by a closed loop that keeps both connections busy.

End-to-end metrics (``--trace 0``), reported by every workload:

* ``setup_s``     -- launch until the program can do work (median of
  several launches; for the service, until the first analysis answered);
* ``cold_ms``     -- never-seen work: sweep ms per sample of the cold
  round, or the service's ms per miss in its closed loop (median over the
  daemons of a run);
* ``warm_ms``     -- repeated work: sweep ms per sample of the later rounds,
  or the service's ms per hit in its closed loop;
* ``peak_rss_mb`` -- peak resident memory of the largest program process.

The per-workload figures the paper's users read (samples per second, the
service's latency percentiles at both rates, ``max_rate_rps``,
``error_rate``) are printed
by name above the result line.  ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics of
``BENCHMARK.json``.  ``--ablation`` repeats ``fig2-sweep`` with each
``AnalysisConfig`` kernel flag turned off in turn and prints the change
in cold and replay throughput; it is a report, not a gate.

The last line of standard output is the JSON result.  Exit status 0 with
a result, 1 when no valid measurement could be made, 2 when the checkout
holds no program.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from common import BENCH_DIR, BenchError, NoProgramError, checkout_root, host_facts

WORKLOADS = ("fig2-sweep", "fig3c-jobs2", "service-http")

#: The metrics and their units, as ``BENCHMARK.json`` at the checkout root
#: records them; a workload that does not run a layer reports 0 for it.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def measure(args) -> Dict:
    root = checkout_root()
    if args.workload == "service-http":
        import service_bench  # noqa: PLC0415

        return service_bench.measure(root, args.seed, args.seconds, bool(args.trace))
    import sweep_bench  # noqa: PLC0415

    return sweep_bench.measure(root, args.workload, args.seed, args.seconds, bool(args.trace))


def result_line(outcome: Dict, trace: bool) -> Dict:
    problems: List[str] = outcome["problems"] + outcome.get("problems_traced", [])
    if trace:
        layers = outcome["layers"]
        metrics = {
            metric["name"]: {"value": float(layers.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in SPEC["per_layer"]
        }
    else:
        metrics = {
            metric["name"]: {"value": float(outcome["metrics"][metric["name"]][0]), "unit": metric["unit"]}
            for metric in SPEC["end_to_end"]
        }
    failed = outcome["failed"] + outcome.get("failed_traced", 0)
    return {
        "correct": not problems and failed == 0,
        "attempted": outcome["attempted"] + outcome.get("attempted_traced", 0),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablation", action="store_true", help="fig2 layer ablation report")
    args = parser.parse_args()
    if not args.ablation and args.workload is None:
        parser.error("--workload is required (or --ablation)")
    try:
        if args.ablation:
            import ablation  # noqa: PLC0415

            for line in ablation.report(checkout_root(), args.seed):
                print(line, flush=True)
            return 0
        outcome = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2 if isinstance(error, NoProgramError) else 1
    print(f"host: {json.dumps(host_facts(), sort_keys=True)}")
    print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in outcome["report"] + outcome.get("report_traced", []):
        print(f"  {line}")
    error_rate = outcome["failed"] / max(1, outcome["attempted"])
    print(f"  error_rate: {error_rate:.6f} ({outcome['failed']} of {outcome['attempted']})")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name}: {value:.6g} {unit}")
    for problem in outcome["problems"] + outcome.get("problems_traced", []):
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
