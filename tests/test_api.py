"""The package's public surface."""

import os
import subprocess
import sys
import types
from pathlib import Path

import saddleflow


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(saddleflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(saddleflow.__all__) == public
    assert len(saddleflow.__all__) == len(public)


GUARD = """
import sys
import saddleflow
assert "scipy.special" not in sys.modules, "import saddleflow loaded scipy.special"
from saddleflow.cli import run_cli
for problem in (["eq-qp"], ["logistic", "--n-data", "10"]):
    assert run_cli(["certify", "--problem", *problem, "--n", "3", "--m", "2"]) in (0, 1)
assert "scipy.stats" not in sys.modules, "certify loaded scipy.stats"
"""


def test_import_and_certify_leave_scipy_modules_unloaded():
    src = str(Path(saddleflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
