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


# pass or fail words, by the verdict they name
_VERDICT_WORDS = {"pass": "pass", "passes": "pass", "fail": "fail", "fails": "fail",
                  "failed": "fail"}


def test_lmi_sweep_demo_words_each_result_by_its_verdict(tmp_path):
    # a line that says pass or fail names its own verdict, never another
    proc = _run([str(ROOT / "demos" / "lmi_sweep_demo.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum("verdict " in line for line in lines) == 4
    for line in lines:
        verdict = re.search(r"verdict (\w+)", line)
        words = {_VERDICT_WORDS[word.lower()] for word in
                 re.findall(r"\b(?:pass|passes|fail|fails|failed)\b", line, re.I)}
        assert words <= ({verdict.group(1)} if verdict else set()), line
