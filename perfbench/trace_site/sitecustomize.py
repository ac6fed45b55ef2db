"""Start-up hook of traced benchmark processes.

The benchmark puts this directory on ``PYTHONPATH`` only for traced runs,
so every program process of such a run, spawn workers included, installs
the span shims of ``perfbench/benchtrace.py`` before it does any work.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import benchtrace

    benchtrace.install()
