#!/usr/bin/env python3
"""saddleflow benchmark: time to result through the CLI, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). The library is imported from ``src/`` next to this directory.

The benchmark is one closed-loop client: it calls
``saddleflow.cli.run_cli`` in-process, one call at a time, each issued when
the previous one has returned, with standard output captured and ``--out``
in a scratch directory inside the checkout. The CLI receives only the
generated arguments. Problems come from the workload's pool in an order
drawn from ``--seed``; each problem gets every subcommand of the workload.
Every call's output is checked against references.json.

--trace 0 reports the end-to-end metrics: the median wall time to run the
workload's subcommands on one problem, the set-up time (median of five
fresh processes that import saddleflow and make one small warm-up call of
each subcommand) and the peak RSS. --trace 1 reports per-layer metrics
from a traced run (see tracing.py): the first three problems of the seed's
order, each call made untraced and then traced, repeated until --seconds
of calls have run. Its figures are per traced problem, so counters repeat
exactly for a given seed; it also gives each subcommand's untraced median
time per call.

The last line of standard output is the JSON result; the lines before it
give the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH_DIR))

from checks import compare, observe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALL_COMMANDS = sorted({call.command for w in WORKLOADS.values() for call in w.calls})

SETUP_PROBES = 5
MIN_PROBLEMS = 10
TRACE_PROBLEMS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_saddleflow():
    """Import saddleflow from src/ of this checkout, and nowhere else."""
    init = SRC / "saddleflow" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no saddleflow sources at {init}")
    sys.path.insert(0, str(SRC))
    import saddleflow
    import saddleflow.cli

    if Path(saddleflow.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"imported saddleflow from {saddleflow.__file__}, "
                             f"expected {init}")
    return saddleflow


def load_references() -> dict:
    path = BENCH_DIR / "references.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(saddleflow, workload, seed) -> dict:
    import numpy
    import scipy

    try:
        from saddleflow.parallel import worker_count
        workers = worker_count(1 << 30)
    except ImportError:
        workers = None
    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "saddleflow": getattr(saddleflow, "__version__", None),
        "parallel.worker_count": workers,
        "SADDLE_THREADS": os.environ.get("SADDLE_THREADS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
    }


def timed_call(run_cli, argv):
    """(seconds, exit code or None, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = run_cli(argv)
    except Exception as exc:  # a crashing call is a failed call, not a crash here
        return time.perf_counter() - start, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), None


class Client:
    """Issues a workload's calls one after another and checks each one."""

    def __init__(self, workload, references, scratch: Path):
        self.workload = workload
        self.refs = references
        self.scratch = scratch
        self.attempted = 0
        self.failures = []
        self.verdicts = {}

    def call(self, run_cli, call, problem_seed) -> float:
        """Seconds taken by one checked call of a subcommand on a problem."""
        out_dir = self.scratch / f"call{self.attempted}"
        argv = call.argv(self.workload.family, problem_seed, out_dir)
        seconds, rc, stdout, error = timed_call(run_cli, argv)
        self.attempted += 1
        complaints = ([f"raised {error}"] if error
                      else self._check(call.command, rc, stdout, out_dir, problem_seed))
        if complaints:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(complaints)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds

    def _check(self, command, rc, stdout, out_dir, problem_seed) -> list:
        try:
            got = observe(command, rc, stdout, out_dir)
        except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
            return [f"exit code {rc}, output unreadable ({type(exc).__name__}: {exc})"]
        if "passed" in got:
            verdict = "pass" if got["passed"] else "fail"
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        return compare(command, got, self.refs[command][str(problem_seed)])


def warm_up(run_cli, workload, scratch: Path):
    """One untimed call of each of the workload's subcommands, on a small problem."""
    out_dir = scratch / "warmup"
    for call in workload.calls:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            run_cli(call.warmup_argv(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)


def measure_setup(workload) -> list:
    """Wall time of fresh processes that import saddleflow and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", workload.name],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
    return times


def high_percentile(times):
    """(percentile, value, samples beyond) for the highest of p50/p90/p99
    with at least ten samples beyond it, or None."""
    best = None
    for p in (50, 90, 99):
        beyond = len(times) - math.ceil(p / 100 * len(times))
        if beyond >= 10:
            value = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
            best = (p, value, beyond)
    return best


def command_metric(command: str) -> str:
    return command.replace("-", "_") + "_s"


def run_untraced(saddleflow, workload, seed, seconds, refs, scratch):
    run_cli = saddleflow.cli.run_cli
    setup = measure_setup(workload)
    warm_up(run_cli, workload, scratch)
    client = Client(workload, refs, scratch)
    problems = workload.problem_seeds(seed)
    results = []
    per_command = {call.command: [] for call in workload.calls}
    while sum(results) < seconds or len(results) < MIN_PROBLEMS:
        problem_seed = next(problems)
        total = 0.0
        for call in workload.calls:
            elapsed = client.call(run_cli, call, problem_seed)
            per_command[call.command].append(elapsed)
            total += elapsed
        results.append(total)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "result_s": (statistics.median(results), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"problems: {len(results)}, median {statistics.median(results):.6g} s, "
             f"min {min(results):.6g} s, max {max(results):.6g} s"]
    high = high_percentile(results)
    if high:
        notes.append(f"p{high[0]} {high[1]:.6g} s ({high[2]} problems beyond it)")
    notes += [f"{command}: median {statistics.median(times):.6g} s per call"
              for command, times in per_command.items()]
    notes.append("set-up probes: " + ", ".join(f"{t:.4g} s" for t in setup))
    return client, metrics, notes


def run_traced(saddleflow, workload, seed, seconds, refs, scratch, problems=TRACE_PROBLEMS):
    from tracing import Tracer

    run_cli = saddleflow.cli.run_cli
    warm_up(run_cli, workload, scratch)
    client = Client(workload, refs, scratch)
    order = workload.problem_seeds(seed)
    chosen = [next(order) for _ in range(problems)]
    tracer = Tracer()
    per_command = {}
    plain = traced = 0.0
    passes = 0
    while passes == 0 or plain + traced < seconds:
        passes += 1
        for problem_seed in chosen:
            for call in workload.calls:
                elapsed = client.call(run_cli, call, problem_seed)
                per_command.setdefault(call.command, []).append(elapsed)
                plain += elapsed
                with tracer.installed():
                    traced += client.call(tracer.run_cli, call, problem_seed)
    metrics = tracer.layer_metrics(problems=passes * len(chosen),
                                   overhead_frac=traced / plain - 1.0)
    # Untraced time per call of each subcommand; 0 where the workload has none.
    for command in ALL_COMMANDS:
        times = per_command.get(command)
        metrics[command_metric(command)] = (statistics.median(times) if times else 0.0, "s")
    notes = [f"traced problems {chosen}; {client.attempted // 2} calls traced, "
             f"{client.attempted // 2} untraced"]
    return client, metrics, notes, tracer


def write_spans(tracer, env, workload, seed):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    leaves = [{"leaf": name, "owner": owner, "calls": c, "time_s": t, "self_s": s}
              for (name, owner), (c, t, s) in sorted(tracer.leaves().items())]
    path.write_text(json.dumps({"environment": env, "spans": tracer.spans(),
                                "leaves": leaves, "counters": tracer.counters()}),
                    encoding="utf-8")
    return path


def probe(workload_name: str) -> int:
    """Set-up probe: import saddleflow and make the workload's warm-up calls."""
    saddleflow = load_saddleflow()
    scratch = SCRATCH / f"probe-{os.getpid()}"
    try:
        warm_up(saddleflow.cli.run_cli, WORKLOADS[workload_name], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The pool runs at its default size; the environment records it.
    os.environ.pop("SADDLE_THREADS", None)
    try:
        if args.probe:
            return probe(args.probe)
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        saddleflow = load_saddleflow()
        refs = load_references()
        env = environment(saddleflow, workload, args.seed)
        scratch = SCRATCH / str(os.getpid())
        try:
            if args.trace:
                client, metrics, notes, tracer = run_traced(
                    saddleflow, workload, args.seed, args.seconds, refs, scratch)
                notes.append(f"spans written to {write_spans(tracer, env, workload, args.seed)}")
            else:
                client, metrics, notes = run_untraced(
                    saddleflow, workload, args.seed, args.seconds, refs, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:  # another run still has its directory there
                pass
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    if client.verdicts:
        print("certificate verdicts (recorded, not gated): " + json.dumps(client.verdicts))
    for failure in client.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(client.failures)
    print(f"fail_frac = {failed / client.attempted:.6g} ({failed} of {client.attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
