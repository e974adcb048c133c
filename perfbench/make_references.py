#!/usr/bin/env python3
"""Regenerate references.json: each pool problem's outputs at this commit.

    python3 perfbench/make_references.py

Runs each workload's subcommands once on every seed of its pool, reads the
outputs with checks.observe and stores them. A problem whose own output
fails the reference-free checks (exit code, KKT residual below tol,
Lyapunov decay) stops the script, since it cannot serve as a reference.
Regenerate only when a change alters the CLI's outputs on purpose, and
say so in the change. Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, SCRATCH, load_saddleflow, timed_call
from checks import compare, observe
from workloads import POOLS, WORKLOADS


def _lambda_max_p(problem_seed, call) -> float:
    """Largest eigenvalue of the certify call's P, the scale of its margin."""
    import numpy as np
    from saddleflow.certificates import build_certificate_ineq
    from saddleflow.experiments import gen_logistic_ineq
    from saddleflow.problem import DynamicsParams

    n = int(call.args[call.args.index("--n") + 1])
    m = int(call.args[call.args.index("--m") + 1])
    cert = build_certificate_ineq(gen_logistic_ineq(problem_seed, n, m), DynamicsParams())
    return float(np.linalg.eigvalsh(cert.P)[-1])


def main() -> int:
    saddleflow = load_saddleflow()
    scratch = SCRATCH / "references"
    refs = {}
    try:
        for workload in WORKLOADS.values():
            for call in workload.calls:
                table = refs[call.command] = {}
                for problem_seed in POOLS[workload.family]:
                    out_dir = scratch / f"{call.command}-{problem_seed}"
                    argv = call.argv(workload.family, problem_seed, out_dir)
                    seconds, rc, stdout, error = timed_call(saddleflow.cli.run_cli, argv)
                    if error:
                        raise SystemExit(f"{' '.join(argv)} raised {error}")
                    got = observe(call.command, rc, stdout, out_dir)
                    if call.command == "certify":
                        got["lambda_max_p"] = _lambda_max_p(problem_seed, call)
                    complaints = compare(call.command, got, got)
                    if complaints:
                        raise SystemExit(f"{' '.join(argv)}: {'; '.join(complaints)}")
                    table[str(problem_seed)] = got
                    print(f"{call.command} seed {problem_seed}: {seconds:.3f} s", flush=True)
                    shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # One line per problem keeps the file reviewable in a diff.
    tables = []
    for command, table in sorted(refs.items()):
        rows = [f'  "{seed}": {json.dumps(table[seed], sort_keys=True)}'
                for seed in sorted(table, key=int)]
        tables.append(f' "{command}": {{\n' + ",\n".join(rows) + "\n }")
    path = BENCH_DIR / "references.json"
    path.write_text("{\n" + ",\n".join(tables) + "\n}\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
