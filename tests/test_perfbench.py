"""The benchmark's self-check, run as part of the test suite.

``perfbench/selfcheck.py`` runs every workload at tiny size with and without
tracing. So a rename that breaks a span binding in ``perfbench/spans.py``, or
a report change that breaks an output check in ``perfbench/checks.py``,
fails here rather than at the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok  " in proc.stdout
