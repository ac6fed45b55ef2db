"""Helpers shared by the workload runners: child processes, statistics,
host facts and result digests.

Launch and ready times are compared across processes through
``time.monotonic``, which is system-wide on Linux.  Every program process
the benchmark starts is a child of the benchmark process, so
``RUSAGE_CHILDREN`` at the end of a run holds the peak resident set of the
largest of them (Linux folds reaped grandchildren, such as spawn workers,
into their parent's figure).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as host_platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
TRACE_SITE = BENCH_DIR / "trace_site"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Every run must end within 180 s; child processes are stopped before that.
RUN_LIMIT_S = 170.0
_RUN_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement (reported, exit 1)."""


class NoProgramError(BenchError):
    """The directory holds no program to measure (reported, exit 2)."""


def checkout_root() -> Path:
    """The checkout the benchmark runs in: the current directory.

    The program is run from its sources under ``src/``; a directory that
    holds only the benchmark cannot be measured.
    """
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise NoProgramError(
            f"no program sources at {root / 'src' / 'repro'}; run the "
            f"benchmark from the root of a checkout"
        )
    return root


def work_dir(root: Path) -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    path = root / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def child_env(root: Path, trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment of a program process: sources on the path, tracing opt-in."""
    env = dict(os.environ)
    paths = [str(root / "src")]
    env.pop(TRACE_DIR_ENV, None)
    if trace_dir is not None:
        paths.append(str(TRACE_SITE))
        env[TRACE_DIR_ENV] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_SAMPLES", None)
    env.pop("REPRO_RESULT_CACHE_DIR", None)
    env.pop("REPRO_STATE_PLANE_CAP", None)
    return env


def run_child(
    args: Sequence[str], env: Dict[str, str], cwd: Path, timeout: Optional[float] = None
) -> Dict:
    """Run one program process to completion; return its last stdout line as JSON.

    ``timeout`` defaults to what is left of the run's time limit.  The child
    leads its own process group, so a timeout also stops the spawn workers
    it started.
    """
    process = subprocess.Popen(
        [sys.executable, *args],
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout or remaining_s())
    except subprocess.TimeoutExpired:
        stop_group(process)
        process.communicate()
        raise BenchError(f"child {args[0]} was still running at its time limit")
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-5:]
        raise BenchError(
            f"child {' '.join(args)} exited {process.returncode}: " + " | ".join(tail)
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def remaining_s() -> float:
    """Seconds left before the run's time limit (at least 1)."""
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - _RUN_STARTED))


def stop_group(process: subprocess.Popen) -> None:
    """Kill a child started with ``start_new_session`` and everything it spawned."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def peak_children_rss_mb() -> float:
    """Peak resident set of the largest reaped child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return float(ordered[min(rank, len(ordered)) - 1])


def digest(document) -> str:
    """SHA-256 of a JSON document with exact float reprs and sorted keys."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def host_facts() -> Dict:
    """What a result depends on besides the code: CPUs and library versions."""
    facts = {
        "nproc": os.cpu_count() or 1,
        "python": host_platform.python_version(),
        "machine": host_platform.machine(),
    }
    try:
        import numpy  # noqa: PLC0415 — probing the optional dependency

        facts["numpy"] = numpy.__version__
        facts["numpy_imported"] = True
    except ImportError:
        facts["numpy"] = None
        facts["numpy_imported"] = False
    return facts


def load_pins() -> Dict:
    return json.loads((BENCH_DIR / "pins.json").read_text())


def spread(values: List[float]) -> str:
    """``min..max`` rendering of repeated measurements."""
    if not values:
        return "n/a"
    return f"{min(values):.4g}..{max(values):.4g} (n={len(values)})"
