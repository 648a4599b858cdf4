"""Every script in demos/, and the README's library quickstart, runs to completion against the package in src/."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, env):
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def test_demos_found():
    assert DEMOS, "no scripts in demos/"


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, src_env):
    _run([sys.executable, str(script)], src_env)


def test_readme_quickstart_runs(src_env):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under '## Library quickstart'"
    _run([sys.executable, "-c", block.group(1)], src_env)
