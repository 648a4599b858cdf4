"""Every script in demos/ runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no scripts in demos/"


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, src_env):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=src_env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
