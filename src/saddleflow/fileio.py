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

_SCHEMA says which header keys and sections each constraint kind and
objective holds.
"""

from __future__ import annotations

import inspect
import os
import shutil
from dataclasses import fields
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

# What a problem file holds, by header key ("kind", "objective") and name:
# the class; its sections in file order, each with its shape in header
# dimensions (1 for a vector's one row); its header keys, each a dimension
# (n, m, n_data) or else a float argument of the class (reg). A constraint
# class's sections are its dataclass fields: A, then its right-hand sides.
_SCHEMA = {
    "kind": {
        kind: (cls, {f.name: ("m", "n") if f.name == "A" else (1, "m") for f in fields(cls)},
               ("n", "m"))
        for kind, cls in (("equality", EqualityConstraints),
                          ("inequality", InequalityConstraints),
                          ("two-sided", TwoSidedConstraints))
    },
    "objective": {
        "quadratic": (QuadraticObjective, {"W": ("n", "n"), "q": (1, "n")}, ()),
        "logistic": (LogisticObjective, {"D": ("n_data", "n"), "y": (1, "n_data")},
                     ("n_data", "reg")),
    },
}

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


def save_problem(path, p: ConstrainedProblem) -> Path:
    """Write p as a plain-text problem file laid out by _SCHEMA; a black-box
    objective oracle has no portable form (ValueError)."""
    parts = [(key, part, name, sections, keys)
             for key, part in (("kind", p.constraints), ("objective", p.objective))
             for name, (cls, sections, keys) in _SCHEMA[key].items() if isinstance(part, cls)]
    if len(parts) < 2:
        raise ValueError("only quadratic and logistic objectives can be written to file")
    # the objective's sections come first, then the constraints'
    blocks = [(name, np.atleast_2d(getattr(part, name)), layout)
              for _, part, _, sections, _ in parts[::-1] for name, layout in sections.items()]
    dims = {axis: size for _, M, layout in blocks for axis, size in zip(layout, M.shape)}
    lines = [f"saddleflow-problem {FORMAT_VERSION}"]
    for key, part, name, _, keys in parts:
        lines.append(f"{key} {name}")
        lines += [f"{h} {dims[h] if h in dims else format_float(getattr(part, h))}" for h in keys]
    for name, M, _ in blocks:
        lines += [name, *(" ".join(format_float(v) for v in row) for row in M)]

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_problem(path) -> ConstrainedProblem:
    """Read a problem file written by save_problem.

    Raises ProblemFileError when the file is malformed: no magic line of
    FORMAT_VERSION, an unknown kind or objective, a header key or section
    they do not hold or one given twice, a missing one, a non-numeric or
    non-finite entry, a matrix of the wrong size, or data the problem
    types reject (a non-finite reg among them).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["saddleflow-problem", str(FORMAT_VERSION)]:
        raise ProblemFileError(f"{path}: not a saddleflow-problem {FORMAT_VERSION} file")
    try:
        return _parse_problem(lines)
    except KeyError as exc:
        raise ProblemFileError(f"{path}: missing {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _parse_problem(lines) -> ConstrainedProblem:
    # the header: the lines of two words before the first section
    header, idx = {}, 1
    while idx < len(lines) and len(lines[idx].split()) == 2:
        key, value = lines[idx].split()
        if key in header:
            raise ValueError(f"header key {key!r} given twice")
        header[key] = value
        idx += 1
    entries = []
    for key in ("objective", "kind"):
        if header[key] not in _SCHEMA[key]:
            raise ValueError(f"unknown {key} {header[key]!r}")
        entries.append(_SCHEMA[key][header[key]])
    what = f"a {header['objective']} problem under {header['kind']} constraints"
    reads = {"kind", "objective"}.union(*(keys for *_, keys in entries))
    unread = [key for key in header if key not in reads]
    if unread:
        raise ValueError(f"header key {unread[0]!r} is not read by {what}")
    layouts = {name: layout for _, sections, _ in entries for name, layout in sections.items()}
    dims = {axis: int(header[axis]) for layout in layouts.values()
            for axis in layout if isinstance(axis, str)}

    sections = {}
    while idx < len(lines):
        name = lines[idx]
        if name not in layouts:
            raise ValueError(f"unexpected section {name!r}: {what} holds {', '.join(layouts)}")
        if name in sections:
            raise ValueError(f"section {name!r} given twice")
        rows, cols = (dims.get(axis, axis) for axis in layouts[name])
        block = [ln.split() for ln in lines[idx + 1: idx + 1 + rows]]
        if len(block) != rows or any(len(row) != cols for row in block):
            raise ValueError(f"section {name!r} must be a {rows}x{cols} matrix")
        M = np.array([[float(v) for v in row] for row in block]).reshape(rows, cols)
        if not np.isfinite(M).all():
            raise ValueError(f"section {name!r} holds a non-finite entry")
        sections[name] = M.ravel() if layouts[name][0] == 1 else M
        idx += 1 + rows

    def build(cls, layout, keys):
        # a section for an argument with a default (q) may be left out
        params = inspect.signature(cls).parameters
        return cls(**{name: sections[name] for name in layout  # KeyError when missing
                      if name in sections or params[name].default is params[name].empty},
                   **{key: float(header[key]) for key in keys if key not in dims})

    return ConstrainedProblem(*(build(*entry) for entry in entries))
