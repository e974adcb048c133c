"""Output checks for the benchmark's CLI calls.

observe() reads what one call produced (exit code, standard output and
the files under --out) into a small dict; compare() holds that dict
against the reference stored for the same problem in references.json,
which make_references.py writes with the same observe(). A call passes
when compare() returns no complaints.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

# Relative slack on the Lyapunov decay bound V(t) <= V(0) exp(-tau t).
DECAY_SLACK = 1e-6
SPECTRUM_RTOL = 1e-9
CERT_RTOL = 1e-12
# certify's own pass tolerance on the LMI margin is 1e-8 lambda_max(P).
MARGIN_PSD_FRACTION = 1e-8
SWEEP_RTOL = 1e-6


def _read_metadata(path: Path) -> dict:
    meta = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            meta[key] = value
    return meta


def _read_table(path: Path):
    """(header, 2-D float array) of an all-numeric CSV from saddleflow.fileio."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _column(header, data, name):
    return data[:, header.index(name)]


def observe(command: str, rc: int, stdout: str, out_dir: Path) -> dict:
    """What one CLI call produced, reduced to the values the checks use."""
    out_dir = Path(out_dir)
    if command == "simulate":
        header, data = _read_table(out_dir / "trajectory.csv")
        tau = float(_read_metadata(out_dir / "metadata.txt")["tau"])
        t, v = _column(header, data, "t"), _column(header, data, "V")
        bound = v[0] * np.exp(-tau * t) * (1.0 + DECAY_SLACK)
        return {"rc": rc, "rows": int(data.shape[0]),
                "decay_ok": bool(np.all(v <= bound))}
    if command == "spectrum":
        header, data = _read_table(out_dir / "spectrum.csv")
        return {"rc": rc,
                "eta": _column(header, data, "eta").tolist(),
                "spectral_rate": _column(header, data, "spectral_rate").tolist(),
                "certified_rate": _column(header, data, "certified_rate").tolist()}
    if command == "kkt-check":
        total = re.search(r"^total (\S+) \S+ tol (\S+)$", stdout, re.M)
        active = re.search(r"^active set\s+\[(.*)\]$", stdout, re.M)
        return {"rc": rc,
                "total": float(total.group(1)),
                "tol": float(total.group(2)),
                "active_set": [int(j) for j in active.group(1).split(",") if j.strip()]}
    if command == "certify":
        meta = _read_metadata(out_dir / "metadata.txt")
        with open(out_dir / "lmi_report.csv", encoding="utf-8") as fh:
            report = next(csv.DictReader(fh))
        return {"rc": rc,
                "c": float(meta["c"]),
                "tau": float(meta["tau"]),
                "min_margin": float(report["min_margin"]),
                "passed": float(report["passed"]) == 1.0}
    if command == "sweep-eta":
        header, data = _read_table(out_dir / "summary.csv")
        return {"rc": rc,
                "eta": _column(header, data, "eta").tolist(),
                "measured_rate": _column(header, data, "measured_rate").tolist()}
    raise ValueError(f"no check for command {command!r}")


def _close(a, b, rtol) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _all_close(name, got, ref, rtol) -> list:
    if len(got) != len(ref):
        return [f"{name}: {len(got)} values, reference has {len(ref)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, ref)) if not _close(a, b, rtol)]
    if bad:
        i = bad[0]
        return [f"{name}[{i}] = {got[i]!r}, reference {ref[i]!r} (rtol {rtol:g})"]
    return []


def compare(command: str, got: dict, ref: dict) -> list:
    """Complaints about an observed call against its reference; [] passes."""
    # certify exits 1 when its LMI sweep fails; that verdict is recorded,
    # not gated.
    allowed_rc = (0, 1) if command == "certify" else (0,)
    if got["rc"] not in allowed_rc:
        return [f"exit code {got['rc']}"]
    if command == "simulate":
        out = []
        if got["rows"] != ref["rows"]:
            out.append(f"rows {got['rows']}, reference {ref['rows']}")
        if not got["decay_ok"]:
            out.append("V(t) exceeds V(0) exp(-tau t)")
        return out
    if command == "spectrum":
        return (_all_close("eta", got["eta"], ref["eta"], SPECTRUM_RTOL)
                + _all_close("spectral_rate", got["spectral_rate"],
                             ref["spectral_rate"], SPECTRUM_RTOL)
                + _all_close("certified_rate", got["certified_rate"],
                             ref["certified_rate"], SPECTRUM_RTOL))
    if command == "kkt-check":
        out = []
        if not got["total"] <= got["tol"]:
            out.append(f"KKT residual {got['total']:g} above tol {got['tol']:g}")
        if got["active_set"] != ref["active_set"]:
            out.append(f"active set {got['active_set']}, reference {ref['active_set']}")
        return out
    if command == "certify":
        out = []
        for key in ("c", "tau"):
            if not _close(got[key], ref[key], CERT_RTOL):
                out.append(f"{key} = {got[key]!r}, reference {ref[key]!r}")
        slack = MARGIN_PSD_FRACTION * ref["lambda_max_p"]
        if not abs(got["min_margin"] - ref["min_margin"]) <= slack:
            out.append(f"min margin {got['min_margin']!r}, reference "
                       f"{ref['min_margin']!r} (slack {slack:g})")
        return out
    if command == "sweep-eta":
        return (_all_close("eta", got["eta"], ref["eta"], SWEEP_RTOL)
                + _all_close("measured_rate", got["measured_rate"],
                             ref["measured_rate"], SWEEP_RTOL))
    raise ValueError(f"no check for command {command!r}")
