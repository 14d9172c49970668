"""The demos still run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_train_and_abstract.py",
        "02_error_bounds.py",
        "03_verify_and_lift.py",
        "04_pipeline_report.py",
        "05_cli_workflow.sh",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runner = ["sh"] if demo.endswith(".sh") else [sys.executable]
    proc = subprocess.run(
        runner + [str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
