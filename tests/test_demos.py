"""Smoke tests: every script under demos/ and every python block of
README.md runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_exit_zero(tmp_path):
    assert README_BLOCKS, "README.md has no python block"
    for block in README_BLOCKS:
        proc = _run(["-c", block], tmp_path)
        assert proc.returncode == 0, (block, proc.stderr)
