"""Smoke test of tools/cli_digests.py, the digests of a fixed list of CLI calls."""

import hashlib
import importlib.util
import io
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_digests_prints_the_same_block_per_call_on_every_run():
    tool = _load_tool()
    assert len(tool.calls()) == 87
    assert all(argv[-2:] == ("--out", "OUT") for argv in tool.calls())
    argvs = [("simulate", "--problem", "eq-qp", "--seed", "1", "--horizon", "0.01",
              "--out", "OUT"),
             ("kkt-check", "--problem", tool.PROBLEM_FILE, "--out", "OUT"),
             ("sweep-eta", "--problem", "logistic", "--seed", "1", "--eta-grid", "1:2:2",
              "--horizon", "1e-9", "--out", "OUT")]
    home = os.getcwd()
    runs = [io.StringIO(), io.StringIO()]
    for stream in runs:
        tool.run(argvs, stream)
    assert os.getcwd() == home
    text = runs[0].getvalue()
    assert text == runs[1].getvalue()
    lines = text.splitlines()
    empty = hashlib.sha256(b"").hexdigest()
    starts = [i for i, line in enumerate(lines) if not line.startswith("  ")]
    assert [lines[i] for i in starts] == [" ".join(argv) for argv in argvs]
    blocks = [lines[i + 1: j] for i, j in zip(starts, starts[1:] + [len(lines)])]
    names = [[line.split("  ")[2] for line in block[1:]] for block in blocks]
    assert [block[0] for block in blocks] == ["  exit 0", "  exit 0", "  exit 2"]
    assert names == [["stdout", "stderr", "metadata.txt", "trajectory.csv"],
                     ["stdout", "stderr", "metadata.txt"], ["stdout", "stderr"]]
    for block in blocks:
        for line in block[1:]:
            sha = line.split("  ")[1]
            assert len(sha) == 64 and int(sha, 16) >= 0
    assert blocks[0][2] == f"  {empty}  stderr" and blocks[2][2] != f"  {empty}  stderr"
