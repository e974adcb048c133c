"""Layer tracing for the saddleflow benchmark, installed from outside.

The library carries no instrumentation of its own. Tracer wraps each
layer's public functions at the names their callers bind (for example
``saddleflow.cli.simulate`` and ``saddleflow.experiments.simulate``, not
``saddleflow.integrator.simulate``), so every call the CLI makes passes
through a wrapper while the wrappers are installed, and none does after
they are removed.

Two kinds of wrapper:

* spans: one record per call (name, span id, parent span id, CLI call id,
  thread id, start, end, self time), kept in memory. Used at layer
  boundaries that run a few times per CLI call.
* leaves: hot inner functions (one vector-field evaluation, one gradient,
  one LMI check) run up to ~10^5 times per call, so they are aggregated in
  place into (count, time, self time) per (leaf, enclosing span name)
  instead of stored one by one.

Self time is a span's duration minus the time its children cover. Children
in the same thread are sequential and are summed; the items of a
``parallel_map`` run concurrently in pool threads, so a map span's covered
time is the union of its items' intervals. Pool items are given their
parent span and CLI call id explicitly, since a worker thread's own stack
starts empty. Every piece of mutable state lives in a per-thread record,
so the hot path takes no lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter

# (module, attribute, span name): layer entry points, wrapped where the
# calling module binds them.
SPAN_TARGETS = [
    ("cli", "gen_equality_qp", "experiments.generate"),
    ("cli", "gen_logistic_ineq", "experiments.generate"),
    ("experiments", "gen_equality_qp", "experiments.generate"),
    ("experiments", "gen_logistic_ineq", "experiments.generate"),
    ("cli", "build_certificate_eq", "certificates.build"),
    ("cli", "build_certificate_ineq", "certificates.build"),
    ("experiments", "build_certificate_eq", "certificates.build"),
    ("experiments", "build_certificate_ineq", "certificates.build"),
    ("cli", "solve_equilibrium", "equilibrium.solve"),
    ("experiments", "solve_equilibrium", "equilibrium.solve"),
    ("cli", "pick_step_size", "experiments.pick_step"),
    ("experiments", "pick_step_size", "experiments.pick_step"),
    ("experiments", "choose_step_size", "integrator.choose_step"),
    ("cli", "simulate", "integrator.simulate"),
    ("experiments", "simulate", "integrator.simulate"),
    ("cli", "lmi_sweep", "certificates.lmi_sweep"),
    ("cli", "eta_sweep", "spectral.eta_sweep"),
    ("cli", "run_experiment", "experiments.run_experiment"),
    ("experiments", "validate_problem", "problem.validate"),
    ("fileio", "write_csv", "fileio.write_csv"),
]

# (module, attribute path, leaf name): hot inner calls, aggregated in place.
LEAF_TARGETS = [
    ("dynamics", "AffineVectorField.__call__", "dynamics.field"),
    ("dynamics", "_SmoothEqualityField.__call__", "dynamics.field"),
    ("dynamics", "_AugmentedField.__call__", "dynamics.field"),
    ("dynamics", "_AugmentedField.euler_update", "dynamics.field"),
    ("problem", "ObjectiveOracle.grad", "problem.grad"),
    ("equilibrium", "kkt_residual", "equilibrium.kkt_residual"),
    ("certificates", "lmi_check", "certificates.lmi_check"),
    ("spectral", "lti_matrix", "spectral.lti"),
    ("experiments", "lti_matrix", "spectral.lti"),
]

# Modules whose parallel_map binding is replaced by a map span whose
# items become child spans in the pool threads.
POOL_TARGETS = ["certificates", "spectral", "experiments"]

ROOT_SPAN = "cli.run"
MAP_SPAN = "parallel.map"
ITEM_SPAN = "parallel.item"

# name -> unit, in report order. Times and counts are per traced problem.
PER_LAYER_UNITS = {
    "integrator.steps": "count",
    "integrator.self_s": "s",
    "integrator.step_us": "us",
    "integrator.choose_step_s": "s",
    "dynamics.field_calls": "count",
    "dynamics.field_s": "s",
    "problem.grad_calls": "count",
    "problem.grad_s": "s",
    "equilibrium.solve_s": "s",
    "equilibrium.steps": "count",
    "equilibrium.kkt_residual_calls": "count",
    "certificates.build_s": "s",
    "certificates.lmi_sweep_s": "s",
    "certificates.lmi_checks": "count",
    "certificates.lmi_check_us": "us",
    "parallel.map_calls": "count",
    "parallel.items": "count",
    "parallel.workers": "count",
    "parallel.speedup": "ratio",
    "spectral.lti_calls": "count",
    "spectral.eta_sweep_s": "s",
    "experiments.generate_s": "s",
    "experiments.pick_step_s": "s",
    "experiments.fallbacks": "count",
    "experiments.run_experiment_self_s": "s",
    "problem.validate_s": "s",
    "fileio.write_csv_s": "s",
    "fileio.rows": "count",
    "fileio.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class _Frame:
    __slots__ = ("name", "owner", "span_id", "parent_id", "call_id",
                 "start", "child_s", "items")

    def __init__(self, name, owner, span_id, parent_id, call_id):
        self.name = name
        self.owner = owner
        self.span_id = span_id
        self.parent_id = parent_id
        self.call_id = call_id
        self.child_s = 0.0
        self.items = None


class _ThreadState:
    """One thread's span stack, finished spans, leaf totals and counters."""

    __slots__ = ("thread_id", "stack", "spans", "leaves", "counters")

    def __init__(self):
        self.thread_id = threading.get_ident()
        self.stack = []
        self.spans = []
        self.leaves = {}
        self.counters = {}


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _resolve(obj, path):
    """(owner, attribute name, current value) of a dotted attribute path."""
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr, getattr(obj, attr)


class Tracer:
    """Spans and counters for saddleflow calls made through run_cli."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._call_ids = itertools.count(1)
        self._patches = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _push(self, st, name, parent, call_id=None):
        if parent is None:
            frame = _Frame(name, name, next(self._ids), None, call_id)
        else:
            frame = _Frame(name, name, next(self._ids), parent.span_id,
                           parent.call_id if call_id is None else call_id)
        st.stack.append(frame)
        frame.start = _clock()
        return frame

    def _pop_span(self, st, frame, attach):
        """Close a span; attach=True charges its duration to the frame below."""
        end = _clock()
        st.stack.pop()
        duration = end - frame.start
        if attach and st.stack:
            st.stack[-1].child_s += duration
        covered = frame.child_s
        if frame.items:
            covered += _union_length(frame.items)
        st.spans.append({
            "span_id": frame.span_id,
            "parent_id": frame.parent_id,
            "call_id": frame.call_id,
            "thread_id": st.thread_id,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "self_s": duration - covered,
        })
        return frame.start, end

    def _count(self, key, amount=1):
        counters = self._state().counters
        counters[key] = counters.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            st = tracer._state()
            frame = tracer._push(st, name, st.stack[-1] if st.stack else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop_span(st, frame, attach=True)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, parent.owner if parent else name, 0, None, None)
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                if parent is not None:
                    parent.child_s += duration
                key = (name, frame.owner)
                agg = st.leaves.get(key)
                if agg is None:
                    agg = st.leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame.child_s

        return wrapper

    def _pool_wrapper(self, parallel_map, worker_count):
        tracer = self

        @functools.wraps(parallel_map)
        def wrapper(fn, items):
            items = list(items)
            st = tracer._state()
            frame = tracer._push(st, MAP_SPAN, st.stack[-1] if st.stack else None)
            frame.items = []
            tracer._count("parallel.map_calls")
            tracer._count("parallel.items", len(items))
            if worker_count is not None:
                workers = worker_count(len(items))
                counters = st.counters
                counters["parallel.workers"] = max(counters.get("parallel.workers", 0),
                                                   workers)

            def item(it):
                ist = tracer._state()
                iframe = tracer._push(ist, ITEM_SPAN, frame)
                try:
                    return fn(it)
                finally:
                    # Pool items overlap, so the map's covered time is the
                    # union of their intervals, not their sum.
                    frame.items.append(tracer._pop_span(ist, iframe, attach=False))

            try:
                return parallel_map(item, items)
            finally:
                tracer._pop_span(st, frame, attach=True)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Wrap saddleflow's layer functions for the duration of the block.

        Targets that a saddleflow version lacks are skipped, so the layers
        it still has are traced and the missing ones read zero.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for module, path, name in SPAN_TARGETS:
                target = self._target(module, path)
                if target:
                    owner, attr, fn = target
                    self._patch(owner, attr, self._span_wrapper(
                        name, fn, _BEFORE.get(name), _AFTER.get(name)))
            for module, path, name in LEAF_TARGETS:
                target = self._target(module, path)
                if target:
                    owner, attr, fn = target
                    self._patch(owner, attr, self._leaf_wrapper(name, fn))
            parallel = self._module("parallel")
            worker_count = getattr(parallel, "worker_count", None)
            for module in POOL_TARGETS:
                target = self._target(module, "parallel_map")
                if target:
                    owner, attr, fn = target
                    self._patch(owner, attr, self._pool_wrapper(fn, worker_count))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @staticmethod
    def _module(name):
        try:
            return importlib.import_module(f"saddleflow.{name}")
        except ImportError:
            return None

    def _target(self, module, path):
        mod = self._module(module)
        if mod is None:
            return None
        try:
            owner, attr, fn = _resolve(mod, path)
        except AttributeError:
            return None
        # Patch a method only on the class that defines it.
        return (owner, attr, fn) if attr in vars(owner) else None

    def run_cli(self, argv) -> int:
        """saddleflow.cli.run_cli(argv) as the root span of a new CLI call."""
        from saddleflow.cli import run_cli

        st = self._state()
        frame = self._push(st, ROOT_SPAN, None, call_id=next(self._call_ids))
        try:
            return run_cli(argv)
        finally:
            self._pop_span(st, frame, attach=False)

    # -- results ------------------------------------------------------------

    def spans(self) -> list:
        with self._states_lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans),
                      key=lambda s: s["span_id"])

    def leaves(self) -> dict:
        """(leaf name, enclosing span name) -> [calls, time, self time]."""
        with self._states_lock:
            states = list(self._states)
        merged = {}
        for st in states:
            for key, (count, total, own) in list(st.leaves.items()):
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += own
        return merged

    def counters(self) -> dict:
        with self._states_lock:
            states = list(self._states)
        merged = {}
        for st in states:
            for key, value in list(st.counters.items()):
                if key == "parallel.workers":
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def layer_metrics(self, problems: int = 1, overhead_frac: float = float("nan")) -> dict:
        """Per-layer metrics per traced problem: name -> (value, unit).

        Sums are divided by problems, the number of times the workload's
        subcommands were run on a problem while traced.
        """
        spans = self.spans()
        leaves = self.leaves()
        counters = self.counters()

        def inclusive(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

        def own(name):
            return sum(s["self_s"] for s in spans if s["name"] == name)

        def leaf(name, owner=None, field=0):
            return sum(v[field] for (n, o), v in leaves.items()
                       if n == name and (owner is None or o == owner))

        steps = counters.get("integrator.steps", 0)
        lmi_checks = leaf("certificates.lmi_check")
        map_wall = inclusive(MAP_SPAN)
        values = {
            "integrator.steps": steps,
            "integrator.self_s": own("integrator.simulate"),
            "integrator.step_us": _ratio(inclusive("integrator.simulate") * 1e6, steps),
            "integrator.choose_step_s": inclusive("integrator.choose_step"),
            "dynamics.field_calls": leaf("dynamics.field"),
            "dynamics.field_s": leaf("dynamics.field", field=2),
            "problem.grad_calls": leaf("problem.grad"),
            "problem.grad_s": leaf("problem.grad", field=2),
            "equilibrium.solve_s": inclusive("equilibrium.solve"),
            "equilibrium.steps": leaf("dynamics.field", owner="equilibrium.solve"),
            "equilibrium.kkt_residual_calls": leaf("equilibrium.kkt_residual"),
            "certificates.build_s": inclusive("certificates.build"),
            "certificates.lmi_sweep_s": inclusive("certificates.lmi_sweep"),
            "certificates.lmi_checks": lmi_checks,
            "certificates.lmi_check_us": _ratio(
                leaf("certificates.lmi_check", field=1) * 1e6, lmi_checks),
            "parallel.map_calls": counters.get("parallel.map_calls", 0),
            "parallel.items": counters.get("parallel.items", 0),
            "parallel.speedup": _ratio(inclusive(ITEM_SPAN), map_wall),
            "spectral.lti_calls": leaf("spectral.lti"),
            "spectral.eta_sweep_s": inclusive("spectral.eta_sweep"),
            "experiments.generate_s": inclusive("experiments.generate"),
            "experiments.pick_step_s": inclusive("experiments.pick_step"),
            "experiments.fallbacks": counters.get("experiments.fallbacks", 0),
            "experiments.run_experiment_self_s": own("experiments.run_experiment"),
            "problem.validate_s": inclusive("problem.validate"),
            "fileio.write_csv_s": inclusive("fileio.write_csv"),
            "fileio.rows": counters.get("fileio.rows", 0),
            "fileio.bytes": counters.get("fileio.bytes", 0),
            "cli.self_s": own(ROOT_SPAN),
        }
        # Ratios and the pool size are not per-call sums.
        values.update({k: v / problems for k, v in values.items()
                       if k not in ("integrator.step_us", "certificates.lmi_check_us",
                                    "parallel.speedup")})
        values["parallel.workers"] = counters.get("parallel.workers", 0)
        values["trace.overhead_frac"] = overhead_frac
        return {name: (float(values[name]), unit)
                for name, unit in PER_LAYER_UNITS.items()}


def _ratio(num, den):
    return num / den if den else 0.0


# -- counters taken from a wrapped call's arguments and result --------------

def _after_simulate(tracer, args, kwargs, result):
    # simulate(field, z0, delta, horizon, ...) runs ceil(horizon/delta)
    # Euler steps; the affine fast path calls no function per step, so the
    # count comes from the arguments, the way simulate itself derives it.
    delta = kwargs["delta"] if "delta" in kwargs else args[2]
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[3]
    tracer._count("integrator.steps", int(math.ceil(horizon / delta - 1e-9)))


def _after_pick_step(tracer, args, kwargs, result):
    # pick_step_size returns (delta, certified)
    if not result[1]:
        tracer._count("experiments.fallbacks")


def _before_write_csv(tracer, args, kwargs):
    # write_csv(path, header, rows) consumes rows once; count them as they pass.
    def counted(rows):
        n = 0
        for row in rows:
            n += 1
            yield row
        tracer._count("fileio.rows", n)

    if "rows" in kwargs:
        kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
    else:
        args = args[:2] + (counted(args[2]),) + args[3:]
    return args, kwargs


def _after_write_csv(tracer, args, kwargs, result):
    tracer._count("fileio.bytes", os.path.getsize(result))


_BEFORE = {"fileio.write_csv": _before_write_csv}

_AFTER = {
    "integrator.simulate": _after_simulate,
    "experiments.pick_step": _after_pick_step,
    "fileio.write_csv": _after_write_csv,
}
