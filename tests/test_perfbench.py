"""The benchmark's self-check, run as part of the test suite.

``perfbench/selfcheck.py`` runs every workload at tiny size with and without
tracing. So a rename that breaks a span binding in ``perfbench/spans.py``, or
a report change that breaks an output check in ``perfbench/checks.py``,
fails here rather than at the next benchmark run.

The self-check runs on a copy of ``perfbench/``, ``src/`` and
``BENCHMARK.json`` in a temporary directory, because ``perfbench/run.py``
writes its results under ``.bench_out/`` of the checkout it sits in; the
checkout's own results stay as the last benchmark run left them.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_out_state(root: Path) -> dict:
    """Each file under ``root/.bench_out`` with its size and modification time."""
    out = root / ".bench_out"
    paths = sorted(out.rglob("*")) if out.is_dir() else []
    return {str(p.relative_to(out)): (p.stat().st_size, p.stat().st_mtime_ns) for p in paths}


def test_perfbench_selfcheck_passes(tmp_path):
    before = bench_out_state(ROOT)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "selfcheck.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok  " in proc.stdout
    assert (tmp_path / ".bench_out").is_dir()  # the copy's run wrote its own results
    assert bench_out_state(ROOT) == before
