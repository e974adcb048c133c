"""Artifact serialization: CSV tables, metadata sidecars, problem files.

CSV contract: UTF-8, comma delimiter, one header row, floats rendered with
%.17g so files round-trip and diff cleanly. write_csv takes a table (a
2-D float array, as Trajectory.rows() hands it) or any iterable of rows:
a table is formatted CSV_BLOCK_ROWS rows per "%" call of the row
template repeated, so a trajectory costs one call per block, not one per
row, and reads the same bytes. A long table (SPLIT_MIN_ROWS rows or
more, with two CPUs and os.fork) is formatted by two processes, the back
half in a forked child, and reads the same bytes too. Each run gets one
metadata sidecar of plain `key = value` lines.

Problem files are plain text with a dimensions header and whitespace
sections, for example

    saddleflow-problem 1
    kind equality
    n 2
    m 1
    objective quadratic
    W
    1 0
    0 1
    A
    1 1
    b
    1

Two-sided problems carry `b_lo` and `b_hi` sections instead of `b`;
logistic objectives carry `reg`, an `n_data` header, and `D` / `y`
sections instead of `W`.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from .errors import CsvWriteError, ProblemFileError
from .problem import (
    ConstrainedProblem,
    EqualityConstraints,
    InequalityConstraints,
    LogisticObjective,
    QuadraticObjective,
    TwoSidedConstraints,
)

FORMAT_VERSION = 1

# Most rows of a table that write_csv formats in one "%" call: enough to
# spread the per-call cost, few enough that a block's text stays small.
CSV_BLOCK_ROWS = 1024

# Fewest rows write_csv splits between two processes. The fork, the wait
# and the copy of the back half cost a few ms: on 4-column trajectory
# tables (2 vCPUs, median of 15 writes) the split lost at 4,096 rows
# (9.5 against 7.7 ms), broke even near 8,192 and saved a quarter from
# 16,384 on. 2^15 leaves the sweep's ~8,400-row files on one process.
SPLIT_MIN_ROWS = 2 ** 15


def format_float(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> Path:
    """Write rows to a CSV file under header: a table (a 2-D float array,
    as Trajectory.rows() hands it) or any iterable of rows, consumed once.

    Rows of one width share one "%.17g,...,%.17g" template, which renders
    every cell exactly as format_float does; a table applies it, repeated
    once per row, to CSV_BLOCK_ROWS rows of cells as Python floats in one
    call. A row holding a str falls back to formatting cell by cell.

    A table of at least SPLIT_MIN_ROWS rows is split at row len // 2 when
    os.fork exists and two CPUs are usable: a forked child formats the
    back half into <path>.part while this process formats the front half,
    then appends the part file and deletes it. The bytes are the same. A
    child that fails raises CsvWriteError; no part file or child is left.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = ",".join(header) + "\n"
    if (_is_table(rows) and len(rows) >= SPLIT_MIN_ROWS and hasattr(os, "fork")
            and _usable_cpus() >= 2):
        _write_split(path, head, rows)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head)
            _write_rows(fh, rows)
    return path


def _is_table(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.ndim == 2


def _write_rows(fh, rows):
    """Format rows (see write_csv) onto fh."""
    table = _is_table(rows)
    if table:
        rows = [rows[i: i + CSV_BLOCK_ROWS] for i in range(0, len(rows), CSV_BLOCK_ROWS)]
    templates = {}
    for row in rows:
        if table:
            block, width = row, row.shape[1]
            cells = tuple(row.ravel().tolist())
        else:
            cells = tuple(row)
            block, width = (cells,), len(cells)
        template = templates.get(width)
        if template is None:
            template = templates[width] = ",".join(["%.17g"] * width) + "\n"
        try:
            lines = (template * len(block)) % cells
        except TypeError:  # a str cell: "%g" refuses it
            lines = "".join(",".join(
                cell if isinstance(cell, str) else format_float(cell)
                for cell in line
            ) + "\n" for line in block)
        fh.write(lines)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_split(path, head, rows):
    """Write head and the table rows[:half] to path while a forked child
    writes rows[half:] to <path>.part, half = len(rows) // 2; then append
    the part file to path. The child only formats rows and writes its
    file, so no lock that another thread of this process held at the fork
    is waited on."""
    part = path.with_name(path.name + ".part")
    half = len(rows) // 2
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(part, "w", encoding="utf-8", newline="\n") as fh:
                _write_rows(fh, rows[half:])
            code = 0
        finally:
            os._exit(code)
    try:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(head)
                _write_rows(fh, rows[:half])
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise CsvWriteError(f"{path}: the process formatting rows from row {half} "
                                f"on exited with code {code}")
        with open(part, "rb") as back, open(path, "ab") as fh:
            shutil.copyfileobj(back, fh)
    finally:
        part.unlink(missing_ok=True)


def write_metadata(path, mapping) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in mapping.items():
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key} = {value}\n")
    return path


def _matrix_lines(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return [" ".join(format_float(v) for v in row) for row in M]


def save_problem(path, p: ConstrainedProblem) -> Path:
    """Write p as a plain-text problem file.

    Only quadratic and logistic objectives are representable; black-box
    oracles have no portable form.
    """
    cons = p.constraints
    if isinstance(cons, EqualityConstraints):
        kind = "equality"
    elif isinstance(cons, InequalityConstraints):
        kind = "inequality"
    elif isinstance(cons, TwoSidedConstraints):
        kind = "two-sided"
    else:
        raise ValueError(f"unknown constraint set {type(cons).__name__}")

    lines = [f"saddleflow-problem {FORMAT_VERSION}", f"kind {kind}",
             f"n {p.dim_n}", f"m {p.dim_m}"]
    if isinstance(p.objective, QuadraticObjective):
        lines.append("objective quadratic")
        lines.append("W")
        lines += _matrix_lines(p.objective.W)
        lines.append("q")
        lines += _matrix_lines(p.objective.q)
    elif isinstance(p.objective, LogisticObjective):
        lines.append("objective logistic")
        lines.append(f"n_data {p.objective.D.shape[0]}")
        lines.append(f"reg {format_float(p.objective.reg)}")
        lines.append("D")
        lines += _matrix_lines(p.objective.D)
        lines.append("y")
        lines += _matrix_lines(p.objective.y)
    else:
        raise ValueError(
            "only quadratic and logistic objectives can be written to file"
        )
    lines.append("A")
    lines += _matrix_lines(cons.A)
    if isinstance(cons, TwoSidedConstraints):
        lines.append("b_lo")
        lines += _matrix_lines(cons.b_lo)
        lines.append("b_hi")
        lines += _matrix_lines(cons.b_hi)
    else:
        lines.append("b")
        lines += _matrix_lines(cons.b)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_problem(path) -> ConstrainedProblem:
    """Read a problem file written by save_problem.

    Raises ProblemFileError when the file is malformed: no magic line, an
    unknown section, a missing header key or section, a non-numeric or
    non-finite entry, a matrix of the wrong size, or data the problem
    types reject (a non-finite reg among them).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("saddleflow-problem"):
        raise ProblemFileError(f"{path}: not a saddleflow problem file")
    try:
        return _parse_problem(lines)
    except KeyError as exc:
        raise ProblemFileError(f"{path}: missing {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _parse_problem(lines) -> ConstrainedProblem:
    header = {}
    idx = 1
    while idx < len(lines) and len(lines[idx].split()) == 2 and lines[idx].split()[0] in (
        "kind", "n", "m", "objective", "n_data", "reg"
    ):
        key, value = lines[idx].split()
        header[key] = value
        idx += 1
    n, m = int(header["n"]), int(header["m"])
    n_data = int(header.get("n_data", 0))
    shapes = {"W": (n, n), "q": (1, n), "D": (n_data, n), "y": (1, n_data),
              "A": (m, n), "b": (1, m), "b_lo": (1, m), "b_hi": (1, m)}

    sections = {}
    while idx < len(lines):
        name = lines[idx]
        if name not in shapes:
            raise ValueError(f"unknown section {name!r}")
        rows, cols = shapes[name]
        block = [ln.split() for ln in lines[idx + 1: idx + 1 + rows]]
        if len(block) != rows or any(len(row) != cols for row in block):
            raise ValueError(f"section {name!r} must be a {rows}x{cols} matrix")
        sections[name] = np.array([[float(v) for v in row] for row in block]).reshape(rows, cols)
        if not np.isfinite(sections[name]).all():
            raise ValueError(f"section {name!r} holds a non-finite entry")
        idx += 1 + rows

    if header["objective"] == "quadratic":
        objective = QuadraticObjective(sections["W"], sections.get("q", np.zeros((1, n))).ravel())
    elif header["objective"] == "logistic":
        objective = LogisticObjective(sections["D"], sections["y"].ravel(),
                                      float(header["reg"]))
    else:
        raise ValueError(f"unknown objective kind {header['objective']!r}")

    A = sections["A"]
    if header["kind"] == "equality":
        cons = EqualityConstraints(A=A, b=sections["b"].ravel())
    elif header["kind"] == "inequality":
        cons = InequalityConstraints(A=A, b=sections["b"].ravel())
    elif header["kind"] == "two-sided":
        cons = TwoSidedConstraints(A=A, b_lo=sections["b_lo"].ravel(),
                                   b_hi=sections["b_hi"].ravel())
    else:
        raise ValueError(f"unknown constraint kind {header['kind']!r}")
    return ConstrainedProblem(objective=objective, constraints=cons)
