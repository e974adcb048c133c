"""Round-trip tests for CSV, metadata, and problem-file serialization."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saddleflow import (
    ConstrainedProblem,
    CsvWriteError,
    EqualityConstraints,
    InequalityConstraints,
    LogisticObjective,
    ObjectiveOracle,
    ProblemFileError,
    QuadraticObjective,
    Trajectory,
    TwoSidedConstraints,
    gen_equality_qp,
    gen_logistic_ineq,
    load_problem,
    save_problem,
)
from saddleflow import fileio
from saddleflow.fileio import CSV_BLOCK_ROWS, format_float, write_csv, write_metadata


def test_format_float_is_exact():
    rng = np.random.default_rng(3)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(x)) == x


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((17, 4)) * 10.0 ** rng.integers(-9, 9, (17, 4))
    path = write_csv(tmp_path / "table.csv", ["a", "b", "c", "d"], rows)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "a,b,c,d"
    assert np.array_equal(np.loadtxt(lines, delimiter=","), rows)


def test_csv_layout(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["t", "v"], [[0.0, 1.5], [0.25, 0.75]])
    text = path.read_text(encoding="utf-8")
    assert text == "t,v\n0,1.5\n0.25,0.75\n"


def test_csv_string_cells(tmp_path):
    path = write_csv(tmp_path / "s.csv", ["name", "x"], [["alpha", 2.0]])
    assert path.read_text(encoding="utf-8") == "name,x\nalpha,2\n"


def _per_cell_csv(path, header, rows):
    # the reference writer: every cell through format_float, one at a time
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else format_float(cell)
                for cell in row
            ) + "\n")


def test_csv_row_template_matches_per_cell_writer(tmp_path):
    def mixed_rows():
        rng = np.random.default_rng(12)
        wide = rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
        yield ("label", 1, True, np.float64(0.1))
        yield (2.5, 3, False, np.float64(-1e-7))
        yield (np.inf, -np.inf, np.nan, -0.0)
        yield (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16 + 2)
        yield (np.float32(0.1), np.int64(-7), 10**17 + 1, 1 / 3)
        yield tuple(wide)  # longer than the header
        yield (0.5,)  # shorter
        yield ()
        yield (np.nan, "x", -0.0)
        yield from zip(*rng.standard_normal((4, 50)))
        yield from rng.standard_normal((50, 4)).tolist()

    header = ["a", "b", "c", "d"]
    got = write_csv(tmp_path / "template.csv", header, mixed_rows())
    _per_cell_csv(tmp_path / "per_cell.csv", header, mixed_rows())
    assert got.read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


B = CSV_BLOCK_ROWS


def _trajectory_table(count, seed=0):
    # the CSV table of a Trajectory with count recorded rows
    rng = np.random.default_rng(seed)
    if not count:
        return np.empty((0, 4))
    traj = Trajectory(np.zeros(5), 3, 0.1, count - 1, 1, rng.standard_normal(5), np.eye(5))
    traj.add(rng.standard_normal((count - 1, 5)) * 10.0 ** rng.integers(-150, 150, 5))
    return traj.rows()


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_csv_blocks_match_per_cell_writer(count, tmp_path):
    # a trajectory's table is formatted B rows per call, one write each;
    # the bytes are the per-cell writer's
    header = ["t", "dist_x", "dist_lambda", "V"]
    table = _trajectory_table(count, count)
    assert table.shape == (count, 4)
    writes = []
    fileio._write_rows(SimpleNamespace(write=writes.append), table)
    assert [text.count("\n") for text in writes] == [min(B, count - i)
                                                      for i in range(0, count, B)]
    got = write_csv(tmp_path / "table.csv", header, table)
    _per_cell_csv(tmp_path / "per_cell.csv", header, table)
    assert got.read_bytes() == (tmp_path / "per_cell.csv").read_bytes()
    assert len(got.read_text(encoding="utf-8").splitlines()) == count + 1


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls, with two usable CPUs whatever the host has."""
    if not hasattr(os, "fork"):
        pytest.skip("the split writer needs os.fork")
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(fileio, "_usable_cpus", lambda: 2)
    return calls


SPLIT_AT = 2 * B + 5


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1,
                                   SPLIT_AT - 1, SPLIT_AT, 2 * SPLIT_AT + 3])
def test_split_writer_matches_serial_writer(count, tmp_path, monkeypatch, forks):
    # from SPLIT_MIN_ROWS rows on, a forked child formats the back half of
    # the table, from row count // 2 (odd counts included); the file is
    # the serial writer's, byte for byte, and neither a part file nor a
    # child is left
    monkeypatch.setattr(fileio, "SPLIT_MIN_ROWS", SPLIT_AT)
    header = ["t", "dist_x", "dist_lambda", "V"]
    table = _trajectory_table(count, count)
    got = write_csv(tmp_path / "split.csv", header, table)
    want = write_csv(tmp_path / "serial.csv", header, iter(table))
    assert len(forks) == (count >= SPLIT_AT)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text(encoding="utf-8").splitlines()) == count + 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["serial.csv", "split.csv"]
    _assert_no_child()


def test_split_writer_refuses_a_failed_child(tmp_path, monkeypatch, forks):
    # the child cannot open its part path (a link into a missing
    # directory): CsvWriteError, and no part file or child is left
    monkeypatch.setattr(fileio, "SPLIT_MIN_ROWS", 1)
    path = tmp_path / "t.csv"
    part = tmp_path / "t.csv.part"
    part.symlink_to(tmp_path / "missing" / "part")
    with pytest.raises(CsvWriteError, match=f"from row {3 * B // 2} on exited with code 1"):
        write_csv(path, ["t", "dist_x", "dist_lambda", "V"], _trajectory_table(3 * B))
    assert forks and not os.path.lexists(part)
    _assert_no_child()


def _no_fork():
    raise AssertionError("the serial writer forked")


@pytest.mark.parametrize("host", ["no-fork", "one-cpu-affinity", "one-cpu-count"])
def test_split_writer_stays_serial_without_fork_or_a_second_cpu(host, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setattr(fileio, "SPLIT_MIN_ROWS", 1)
    if host == "no-fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", _no_fork, raising=False)
        if host == "one-cpu-affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
    table = _trajectory_table(3 * B)
    got = write_csv(tmp_path / "t.csv", ["t", "dist_x", "dist_lambda", "V"], table)
    assert len(got.read_text(encoding="utf-8").splitlines()) == 3 * B + 1


def test_metadata_format(tmp_path):
    path = write_metadata(tmp_path / "metadata.txt",
                          {"seed": 42, "eta": 0.1, "problem": "eq-qp"})
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed = 42"
    assert lines[2] == "problem = eq-qp"
    key, _, value = lines[1].partition(" = ")
    assert key == "eta" and float(value) == 0.1


def test_problem_roundtrip_quadratic_equality(tmp_path):
    p = gen_equality_qp(42)
    path = save_problem(tmp_path / "problem.txt", p)
    assert path.read_text(encoding="utf-8").startswith("saddleflow-problem 1\n")
    q = load_problem(path)
    assert np.array_equal(q.objective.W, p.objective.W)
    assert np.array_equal(q.objective.q, p.objective.q)
    assert np.array_equal(q.constraints.A, p.constraints.A)
    assert np.array_equal(q.constraints.b, p.constraints.b)
    assert type(q.constraints) is type(p.constraints)


def test_problem_roundtrip_logistic_inequality(tmp_path):
    p = gen_logistic_ineq(7, n=6, m=4, n_data=30, reg=0.1)
    q = load_problem(save_problem(tmp_path / "problem.txt", p))
    assert np.array_equal(q.objective.D, p.objective.D)
    assert np.array_equal(q.objective.y, p.objective.y)
    assert q.objective.reg == p.objective.reg
    assert np.array_equal(q.constraints.A, p.constraints.A)
    assert np.array_equal(q.constraints.b, p.constraints.b)
    x = np.linspace(-1.0, 1.0, 6)
    assert q.objective.value(x) == pytest.approx(p.objective.value(x), rel=1e-15)


def test_problem_roundtrip_two_sided(tmp_path):
    obj = QuadraticObjective(np.diag([1.0, 3.0]), np.array([0.5, -0.25]))
    cons = TwoSidedConstraints(np.array([[1.0, 2.0]]),
                               np.array([-1.0]), np.array([2.0]))
    p = ConstrainedProblem(obj, cons)
    q = load_problem(save_problem(tmp_path / "problem.txt", p))
    assert isinstance(q.constraints, TwoSidedConstraints)
    assert np.array_equal(q.constraints.b_lo, cons.b_lo)
    assert np.array_equal(q.constraints.b_hi, cons.b_hi)
    assert np.array_equal(q.objective.W, obj.W)


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "junk.txt"
    bad.write_text("not a problem\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_problem(bad)


SMALL = """saddleflow-problem 1
kind equality
n 2
m 1
objective quadratic
W
2 0
0 1
q
0.5 -1
A
1 1
b
1
"""

# A malformed variant of SMALL, and what load_problem's error says of it
MALFORMED = {
    "objective-foo": (SMALL.replace("objective quadratic", "objective foo"),
                      "unknown objective 'foo'"),
    "kind-foo": (SMALL.replace("kind equality", "kind foo"), "unknown kind 'foo'"),
    "section-of-another-kind": (SMALL + "b_lo\n0\n", "unexpected section 'b_lo'"),
    "section-of-another-objective": (SMALL + "D\n", "unexpected section 'D'"),
    "section-twice": (SMALL + "A\n9 9\n", "section 'A' given twice"),
    "header-key-twice": (SMALL.replace("m 1\n", "m 1\nm 1\n"), "header key 'm' given twice"),
    "unread-header-key": (SMALL.replace("objective quadratic\n", "objective quadratic\nreg 0.1\n"),
                          "header key 'reg' is not read by a quadratic problem"),
    "version-2": (SMALL.replace("saddleflow-problem 1", "saddleflow-problem 2"),
                  "not a saddleflow-problem 1 file"),
    "no-version": (SMALL.replace("saddleflow-problem 1", "saddleflow-problem"),
                   "not a saddleflow-problem 1 file"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_problem_files_are_refused_by_what_is_wrong(case, tmp_path):
    # all but the first two used to load: a second A or m replaced the
    # first, and a stray section, header key or version was ignored
    text, message = MALFORMED[case]
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ProblemFileError, match=re.escape(f"{path}: {message}")):
        load_problem(path)


def test_a_small_problem_file_loads_and_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text(SMALL, encoding="utf-8")
    p = load_problem(path)
    assert p.objective.W.tolist() == [[2.0, 0.0], [0.0, 1.0]]
    assert p.objective.q.tolist() == [0.5, -1.0]
    assert p.constraints == EqualityConstraints([[1.0, 1.0]], [1.0])
    assert save_problem(tmp_path / "again.txt", p).read_text(encoding="utf-8") == SMALL
    # q may be left out (README's and the module's example files have none)
    path.write_text(SMALL.replace("q\n0.5 -1\n", ""), encoding="utf-8")
    assert load_problem(path).objective.q.tolist() == [0.0, 0.0]
    # W may not
    path.write_text(SMALL.replace("W\n2 0\n0 1\n", ""), encoding="utf-8")
    with pytest.raises(ProblemFileError, match="missing 'W'"):
        load_problem(path)


def test_every_kind_and_objective_keeps_its_file_layout(tmp_path):
    obj = LogisticObjective([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, -1.0, 1.0], 0.25)
    cons = TwoSidedConstraints([[1.0, 1.0]], [-1.0], [2.0])
    text = save_problem(tmp_path / "p.txt", ConstrainedProblem(obj, cons)).read_text()
    assert text == ("saddleflow-problem 1\nkind two-sided\nn 2\nm 1\nobjective logistic\n"
                    "n_data 3\nreg 0.25\nD\n1 0\n0 1\n1 1\ny\n1 -1 1\n"
                    "A\n1 1\nb_lo\n-1\nb_hi\n2\n")
    for kind, cls in (("equality", EqualityConstraints), ("inequality", InequalityConstraints)):
        text = save_problem(tmp_path / "p.txt", ConstrainedProblem(
            obj, cls([[1.0, 1.0]], [0.5]))).read_text()
        assert text.startswith(f"saddleflow-problem 1\nkind {kind}\n")
        assert text.endswith("A\n1 1\nb\n0.5\n")
    oracle = ObjectiveOracle(lambda x: float(x @ x), lambda x: 2.0 * x, 2.0, 2.0)
    with pytest.raises(ValueError, match="only quadratic and logistic objectives"):
        save_problem(tmp_path / "p.txt", ConstrainedProblem(oracle, cons))


def _random_problem(seed, n, m, kind, logistic, scale):
    rng = np.random.default_rng(seed)
    if logistic:
        y = rng.choice([-1.0, 1.0], size=2 * n)
        obj = LogisticObjective(rng.standard_normal((2 * n, n)) * scale, y, 0.5)
    else:
        M = rng.standard_normal((n, n)) * scale
        obj = QuadraticObjective(M @ M.T + scale**2 * np.eye(n),
                                 rng.standard_normal(n) * scale)
    A = rng.standard_normal((m, n)) * scale
    b = rng.standard_normal(m) * scale
    if kind == "two-sided":
        cons = TwoSidedConstraints(A, b, b + rng.uniform(0.5, 2.0, m))
    elif kind == "inequality":
        cons = InequalityConstraints(A, b)
    else:
        cons = EqualityConstraints(A, b)
    return ConstrainedProblem(obj, cons)


problems = st.builds(
    lambda seed, n, dm, kind, logistic, k: _random_problem(
        seed, n, max(1, n - dm), kind, logistic, 10.0 ** k),
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 3),
    st.sampled_from(["equality", "inequality", "two-sided"]), st.booleans(),
    st.integers(-8, 8),
)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY_SETTINGS
@given(p=problems)
def test_problem_roundtrip_property(tmp_path, p):
    q = load_problem(save_problem(tmp_path / "problem.txt", p))
    assert type(q.objective) is type(p.objective)
    assert type(q.constraints) is type(p.constraints)
    for name in ("W", "q", "D", "y", "reg"):
        if hasattr(p.objective, name):
            assert np.array_equal(getattr(q.objective, name), getattr(p.objective, name))
    for name in ("A", "b", "b_lo", "b_hi"):
        if hasattr(p.constraints, name):
            assert np.array_equal(getattr(q.constraints, name),
                                  getattr(p.constraints, name))


@PROPERTY_SETTINGS
@given(p=problems, data=st.data())
def test_truncated_problem_files_raise_typed_errors(tmp_path, p, data):
    text = save_problem(tmp_path / "problem.txt", p).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    # dropping whole trailing lines always leaves a section short or missing
    keep = data.draw(st.integers(0, len(lines) - 1), label="lines kept")
    cut = tmp_path / "cut.txt"
    cut.write_text("".join(lines[:keep]), encoding="utf-8")
    with pytest.raises(ProblemFileError):
        load_problem(cut)
    # a cut mid-line may still parse (a shortened last number), but any
    # failure must be the typed error
    chars = data.draw(st.integers(0, len(text)), label="chars kept")
    cut.write_text(text[:chars], encoding="utf-8")
    try:
        load_problem(cut)
    except ProblemFileError:
        pass
