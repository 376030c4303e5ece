"""Every script under ``demos/`` runs to completion against the library in ``src/``."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo, child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, cwd=REPO_ROOT, env=child_env)
    assert proc.returncode == 0, proc.stderr[-4000:]
