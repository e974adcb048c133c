"""The benchmark's workloads: subcommands run on each problem of a pool.

A workload takes problems one at a time and runs each of its subcommands
on that problem, in order; the time until all of them have returned is
the problem's time to result. Problem seeds come from a fixed pool per
problem family. The pools hold seeds of one work class, so every problem
of a workload costs about the same, and a run's median does not depend on
which pool members the workload seed happens to pick:

* eq-qp (n=5, m=2): the certified Euler step is 2^-15, so
  ``simulate --horizon 5`` takes exactly 163,840 steps and writes
  163,841 rows.
* logistic (n=10, m=8): the integrated equilibrium takes 17,000-22,000
  Euler steps, and the 8 trajectories of the sweep take 58,000-70,000.

The pools were found by scanning seeds upward from 0 with those counts;
references.json stores every pool member's reference outputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

POOLS = {
    "eq-qp": (1, 19, 23, 29, 31, 32, 38, 42, 53, 58, 67, 84, 107, 111, 113, 116),
    "logistic": (3, 11, 34, 36, 38, 40, 58, 59, 66, 102, 117, 124, 138, 139, 145, 151),
}

_LOGISTIC = ("--n", "10", "--m", "8")
# The smallest logistic instance; set-up runs each subcommand once on it to
# pay lazy imports (scipy.special, scipy.stats) before anything is timed.
_LOGISTIC_SMALL = ("--problem", "logistic", "--seed", "0", "--n", "3", "--m", "2")


@dataclass(frozen=True)
class Call:
    """One subcommand with its fixed arguments and a small warm-up instance."""

    command: str
    args: tuple
    warmup: tuple

    def argv(self, family: str, problem_seed: int, out_dir) -> list:
        return [self.command, "--problem", family, "--seed", str(problem_seed),
                *self.args, "--out", str(out_dir)]

    def warmup_argv(self, out_dir) -> list:
        return [self.command, *self.warmup, "--out", str(out_dir)]


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    calls: tuple

    def problem_seeds(self, seed: int):
        """Endless sequence of pool seeds in an order drawn from seed."""
        order = list(POOLS[self.family])
        random.Random(seed).shuffle(order)
        return itertools.cycle(order)


WORKLOADS = {w.name: w for w in [
    Workload("linear-simulate", "eq-qp", (
        Call("simulate", ("--horizon", "5"),
             ("--problem", "eq-qp", "--seed", "0", "--horizon", "0.01")),
        Call("spectrum", ("--eta-grid", "0.01:100:200:log"),
             ("--problem", "eq-qp", "--seed", "0", "--eta-grid", "0.01:100:5:log")),
    )),
    Workload("logistic-kkt-certify", "logistic", (
        Call("kkt-check", _LOGISTIC, _LOGISTIC_SMALL),
        Call("certify", _LOGISTIC, _LOGISTIC_SMALL),
    )),
    Workload("logistic-sweep", "logistic", (
        Call("sweep-eta", _LOGISTIC + ("--eta-grid", "0.25:4:8:log", "--horizon", "50"),
             _LOGISTIC_SMALL + ("--eta-grid", "1:1:1", "--horizon", "0.1")),
    )),
]}
