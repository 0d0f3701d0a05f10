"""LP kernel tests against the brute-force vertex-enumeration oracle in
oracles.py, which never touches the solver."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credal import (
    Event,
    IntervalDistribution,
    LinearProgram,
    LinearSystem,
    UtilityMatrix,
    VertexSet,
    conditionalize,
    constraint,
    e_admissible,
    e_admissible_over_hull,
    fractional_bounds,
    hull_membership,
    iid_coin,
    interval_to_linear_system,
    make_distribution,
    mixture,
    mobius_report,
    simple_space,
    solve,
)
from credal.errors import (
    CredalError, DenominatorVanishesError, InfeasibleSystemError, NumericalFailureError, SpaceMismatchError,
    ZeroEvidenceEverywhereError,
)
from credal import linprog
from credal.inference import core_of_belief, lower_envelope_function, zeta_transform
from credal.linprog import Constraint, PreparedLp, _stack, _Tableau, _violation, enumerate_polytope_vertices
from credal.tolerances import TAU_LP, TAU_ZERO


def bounds_constraints(n, lo, hi):
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(constraint(e, ">=", lo))
        rows.append(constraint(e, "<=", hi))
    return rows


from oracles import (
    marginal_vectors, ratio_program_by_phase1, run_simplex as reference_simplex, two_phase,
    vertices_of as oracle_vertices,
)


def test_bound_system_max(die6=None):
    rows = bounds_constraints(4, 0.15, 0.40) + [constraint(np.ones(4), "=", 1.0)]
    obj = np.array([1.0, 0, 0, 0])
    res = solve(LinearProgram(4, tuple(rows), objective=obj, sense="max"))
    assert res.status == "OPTIMAL"
    assert res.value == pytest.approx(0.40, abs=1e-8)
    # cross-check against vertex enumeration
    verts = oracle_vertices(4, rows)
    assert max(v[0] for v in verts) == pytest.approx(res.value, abs=1e-8)


def test_min_over_plain_simplex():
    rows = [constraint(np.ones(3), "=", 1.0)]
    res = solve(LinearProgram(3, tuple(rows), objective=np.array([1.0, 0, 0]), sense="min"))
    assert res.status == "OPTIMAL"
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_infeasible_detection():
    rows = [
        constraint(np.array([1.0, 0.0]), ">=", 0.6),
        constraint(np.array([0.0, 1.0]), ">=", 0.6),
        constraint(np.ones(2), "=", 1.0),
    ]
    res = solve(LinearProgram(2, tuple(rows), sense="feasibility"))
    assert res.status == "INFEASIBLE"
    assert res.infeasibility > 1e-8


def test_unbounded_detection():
    res = solve(
        LinearProgram(
            2,
            (constraint(np.array([1.0, -1.0]), "<=", 1.0),),
            objective=np.array([1.0, 1.0]),
            sense="max",
        )
    )
    assert res.status == "UNBOUNDED"


def test_optimize_many_matches_optimize_and_marks_unbounded_rows():
    """Over x0 - x1 <= 1, x >= 0 the rays are (a, b) with b >= a >= 0, so
    three rows are unbounded in each sense; an unbounded row stops before
    it pivots, and the rows after it are still solved."""
    prepared = PreparedLp(*_stack(2, (constraint(np.array([1.0, -1.0]), "<=", 1.0),)))
    rows = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.5], [2.0, -3.0], [0.0, 1.0]])
    lows = prepared.optimize_many(rows, "min")
    highs = prepared.optimize_many(rows, "max")
    for w, lo, hi in zip(rows, lows, highs):
        for sense, got in (("min", lo), ("max", hi)):
            res = prepared.optimize(w, sense)
            if res.status == "UNBOUNDED":
                assert got == (-np.inf if sense == "min" else np.inf)
            else:
                assert got == pytest.approx(res.value, abs=1e-12)
    assert np.isinf(highs).sum() == np.isinf(lows).sum() == 3


def test_optimize_many_over_a_tableau_with_no_rows():
    """A lone lower-bound row leaves the tableau, so phase 2 has no row to
    pivot on: each objective is optimal at x = (0.5, 0) or unbounded."""
    prepared = PreparedLp(*_stack(2, (constraint(np.array([1.0, 0.0]), ">=", 0.5),)))
    assert prepared._tab.T.shape[0] == 1
    rows = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(prepared.optimize_many(rows, "min"), [0.5, -np.inf, 0.0])


def batch_program(seed: int, kind: str):
    """(n, rows) on 2 to 6 atoms. "polytope": the simplex cut by random <=
    and >= rows through a random point x0, some tight there (degenerate).
    "box": bounds x0 -+ w with the lower ones clipped to 0, some rows
    repeated, and the simplex row. "open": random rows through x0 and no
    simplex row, so some directions are unbounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    x0 = rng.dirichlet(np.ones(n))
    if kind == "box":
        w, rows = rng.uniform(0.0, 0.4, n), []
        for j, e in enumerate(np.eye(n)):
            rows.append(constraint(e, ">=", max(x0[j] - w[j], 0.0)))
            rows.append(constraint(e, "<=", min(x0[j] + w[j], 1.0)))
        rows += [rows[i] for i in rng.integers(0, len(rows), int(rng.integers(0, 4)))]
    else:
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.normal(size=n)
            rel = str(rng.choice(["<=", ">="]))
            margin = 0.0 if rng.random() < 0.3 else rng.uniform(0.01, 0.3)
            rows.append(constraint(a, rel, float(a @ x0) + (margin if rel == "<=" else -margin)))
    if kind != "open":
        rows.append(constraint(np.ones(n), "=", 1.0))
    return n, rows


def batch_objectives(seed: int, n: int, gray: bool) -> np.ndarray:
    """The indicators of the nonempty subsets in Gray-code order, each one
    atom from the last, or 1 to 40 signed real rows, some of them
    repeated."""
    if gray:
        masks = np.arange(1, 2**n)
        masks ^= masks >> 1
        return (masks[:, None] >> np.arange(n) & 1).astype(np.uint8)
    rng = np.random.default_rng(seed + 1)
    W = rng.normal(size=(int(rng.integers(1, 41)), n))
    return W[np.sort(rng.integers(0, len(W), len(W) + int(rng.integers(0, 4))))]


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["polytope", "box", "open"]),
    gray=st.booleans(),
    block=st.integers(1, 3),
    bland=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_optimize_many_matches_optimize_row_by_row(seed, kind, gray, block, bland):
    """With ``_LIVE_ENTRIES`` at 1 to 3 of the program's tableaux, a pass
    takes that many objectives, and every stack of tableaux and of
    reduced-cost rows it pivots fits there. No objective is dropped and
    made again: the objectives' pivots add up to those of a cold optimize
    of each row. Each row has that optimize's status (an infinite value
    where it is unbounded), its value to 1e-12 and, as it makes the same
    pivots, its witness; the values stay put when the rows are permuted
    and some repeated; and with ``bland_after`` at 0 for both calls
    Bland's rule picks every pivot."""
    n, rows = batch_program(seed, kind)
    prepared = PreparedLp(*_stack(n, rows))
    if bland:
        prepared.bland_after = 0
    W = batch_objectives(seed, n, gray)
    order = np.random.default_rng(seed + 2).permutation(np.r_[: len(W), : min(3, len(W))])
    live = block * prepared._tab.T.size
    pivots = {"optimize": 0, "optimize_many": 0}
    pivot, pivot_stack = _Tableau.pivot, linprog._pivot_stack

    def one(tab, row, col):
        pivots["optimize"] += 1
        return pivot(tab, row, col)

    def stacked(Ts, bases, col, C, leave, Z, on):
        assert Ts.size <= live and Z.size <= live
        pivots["optimize_many"] += len(Z)
        return pivot_stack(Ts, bases, col, C, leave, Z, on)

    with (
        mock.patch.object(linprog, "_LIVE_ENTRIES", live),
        mock.patch.object(_Tableau, "pivot", one),
        mock.patch.object(linprog, "_pivot_stack", stacked),
    ):
        for sense in ("min", "max"):
            pivots.update(optimize=0, optimize_many=0)
            values, witnesses, owner = prepared._solve_many(W, sense)
            made = pivots["optimize_many"]
            assert prepared.optimize_many(W[order], sense) == pytest.approx(values[order], abs=1e-12)
            for w, got, i in zip(W, values, owner):
                res = prepared.optimize(w, sense)
                if res.status == "UNBOUNDED":
                    assert got == (-np.inf if sense == "min" else np.inf) and i == -1
                else:
                    assert res.status == "OPTIMAL" and np.isfinite(got)
                    assert got == pytest.approx(res.value, abs=1e-12)
                    assert witnesses[i] == pytest.approx(res.witness, abs=1e-12)
            assert made == pivots["optimize"]


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["polytope", "box", "open"]))
@settings(max_examples=60, deadline=None)
def test_objectives_optimal_at_the_phase1_basis_make_no_pivot(seed, kind):
    """Objectives that cost nothing on the phase-1 basis's columns and
    nothing below 0 elsewhere are optimal there, with every reduced cost
    >= 0: ``_solve_many`` retires them all at its first step on the one
    tableau, without a pivot, and each row's value and witness are those
    of ``optimize``; every row shares the one basic solution."""
    n, rows = batch_program(seed, kind)
    prepared = PreparedLp(*_stack(n, rows))
    rng = np.random.default_rng(seed + 3)
    W = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 9)), n)) * (rng.random(n) < 0.7)
    W[:, prepared._tab.basis[prepared._tab.basis < n]] = 0.0
    for sense, objectives in (("min", W), ("max", -W)):
        with mock.patch.object(linprog, "_pivot_stack", side_effect=AssertionError("pivoted")):
            values, witnesses, owner = prepared._solve_many(objectives, sense)
        assert len(witnesses) == 1 and np.all(owner == 0)
        for w, got in zip(objectives, values):
            res = prepared.optimize(w, sense)
            assert res.status == "OPTIMAL" and got == pytest.approx(res.value, abs=1e-15)
            assert np.array_equal(witnesses[0], res.witness)


def assert_pivots_as_optimize(prepared: PreparedLp, W: np.ndarray):
    """Alone in an optimize_many call, each row of W makes optimize's
    pivots, row and column, in the same order."""
    made = {"optimize": [], "optimize_many": []}
    pivot, pivot_stack = _Tableau.pivot, linprog._pivot_stack

    def one(tab, row, col):
        made["optimize"].append((int(row), int(col)))
        return pivot(tab, row, col)

    def stacked(Ts, bases, col, C, leave, *rest):
        made["optimize_many"].extend(zip(leave.tolist(), col.tolist()))
        return pivot_stack(Ts, bases, col, C, leave, *rest)

    with mock.patch.object(_Tableau, "pivot", one), mock.patch.object(linprog, "_pivot_stack", stacked):
        for w in W:
            for sense in ("min", "max"):
                made["optimize"].clear()
                made["optimize_many"].clear()
                prepared.optimize(w, sense)
                prepared.optimize_many(w[None], sense)
                assert made["optimize_many"] == made["optimize"]


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["polytope", "box", "open"]),
    bland=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_optimize_many_pivots_as_optimize_does(seed, kind, bland):
    """Repeated box rows tie in the ratio test, so this pins Bland's
    tie-break (the smallest basis index, ``bland_after`` at 0) as well as
    the entering column, not only the optimum."""
    n, rows = batch_program(seed, kind)
    prepared = PreparedLp(*_stack(n, rows))
    if bland:
        prepared.bland_after = 0
    assert_pivots_as_optimize(prepared, batch_objectives(seed, n, False)[:8])


@pytest.mark.parametrize("bland", [False, True])
def test_optimize_many_breaks_ratio_ties_as_optimize_does(bland):
    """From the slack basis at x = 0, 0.5 x1 + x2 <= 0.25 and x1 <= 0.5
    tie when x1 enters, with pivots 0.5 and 1: Dantzig's rule takes the
    second row (the larger pivot), Bland's the first (the smaller basis
    index), and optimize_many must take the same row."""
    rows = (
        constraint(np.array([0.5, 1.0, 0.0]), "<=", 0.25),
        constraint(np.array([1.0, 0.0, 0.0]), "<=", 0.5),
        constraint(np.ones(3), "<=", 1.0),
    )
    prepared = PreparedLp(*_stack(3, rows))
    if bland:
        prepared.bland_after = 0
    assert_pivots_as_optimize(prepared, np.array([[-1.0, 0.0, 0.0], [-1.0, -0.5, 0.2], [1.0, 1.0, -1.0]]))


def test_optimize_many_refuses_an_infeasible_program():
    rows = (constraint(np.ones(2), ">=", 2.0), constraint(np.ones(2), "<=", 1.0))
    with pytest.raises(InfeasibleSystemError):
        PreparedLp(*_stack(2, rows)).optimize_many(np.eye(2), "min")


def test_witness_feasible_and_value_consistent(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        x0 = rng.dirichlet(np.ones(n))
        rows = [constraint(np.ones(n), "=", 1.0)]
        for _ in range(int(rng.integers(1, 5))):
            a = rng.normal(size=n)
            rows.append(constraint(a, "<=", float(a @ x0 + rng.uniform(0.01, 0.3))))
        obj = rng.normal(size=n)
        res = solve(LinearProgram(n, tuple(rows), objective=obj, sense="min"))
        assert res.status == "OPTIMAL"
        assert _violation(_stack(n, rows), res.witness).max() <= 1e-7
        assert res.value == pytest.approx(float(obj @ res.witness), abs=1e-8)


def test_random_lps_match_vertex_enumeration(rng):
    """Primal optimum equals the brute-force vertex optimum (both senses)."""
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x0 = rng.dirichlet(np.ones(n))
        rows = [constraint(np.ones(n), "=", 1.0)]
        for _ in range(int(rng.integers(1, 4))):
            a = rng.normal(size=n)
            rows.append(constraint(a, "<=", float(a @ x0 + rng.uniform(0.01, 0.3))))
        obj = rng.normal(size=n)
        verts = oracle_vertices(n, rows)
        assert verts, "oracle found no vertices for a feasible bounded region"
        values = [float(obj @ v) for v in verts]
        lo = solve(LinearProgram(n, tuple(rows), objective=obj, sense="min"))
        hi = solve(LinearProgram(n, tuple(rows), objective=obj, sense="max"))
        assert lo.value == pytest.approx(min(values), abs=1e-8)
        assert hi.value == pytest.approx(max(values), abs=1e-8)


def test_hull_membership_listed_vertices_and_permutations(rng, states3):
    vs = [
        make_distribution(states3, rng.dirichlet(np.ones(3))) for _ in range(4)
    ]
    for v in vs:
        assert hull_membership(v, vs).inside
        assert hull_membership(v, vs[::-1]).inside


def test_hull_membership_weights_reconstruct_point(states3):
    p1 = make_distribution(states3, [1 / 8, 3 / 4, 1 / 8])
    p2 = make_distribution(states3, [3 / 4, 1 / 8, 1 / 8])
    mid = mixture([0.25, 0.75], [p1, p2])
    res = hull_membership(mid, [p1, p2])
    assert res.inside
    rebuilt = res.weights[0] * p1.probs + res.weights[1] * p2.probs
    assert np.allclose(rebuilt, mid.probs, atol=1e-8)


def test_hull_membership_outside_gives_separator(states3):
    p1 = make_distribution(states3, [1 / 8, 3 / 4, 1 / 8])
    p2 = make_distribution(states3, [1 / 4, 1 / 2, 1 / 4])
    p3 = make_distribution(states3, [3 / 8, 3 / 8, 1 / 4])
    outside = make_distribution(states3, [1 / 3, 1 / 2, 1 / 6])
    res = hull_membership(outside, [p1, p2, p3])
    assert not res.inside
    assert res.margin > 1e-8
    for v in (p1, p2, p3):
        assert float(res.normal @ v.probs) <= res.offset + 1e-8
    assert float(res.normal @ outside.probs) > res.offset + 1e-9


def test_hull_membership_separates_a_point_just_off_a_segment(states3):
    """A point 1e-8 off the segment between two vertices. The separation
    program this replaced answered with normal 0, offset 0 and margin 0,
    which separates nothing; the Farkas ray of the failed phase 1 does."""
    V = [make_distribution(states3, [0.9, 0.05, 0.05]), make_distribution(states3, [0.05, 0.9, 0.05])]
    q = (1 - 1e-8) * np.array([0.475, 0.475, 0.05]) + 1e-8 * np.array([0.0, 0.0, 1.0])
    point = make_distribution(states3, q)
    res = hull_membership(point, V)
    assert res.inside is False
    assert res.margin > 0
    assert np.abs(res.normal).max() == pytest.approx(1.0)
    assert res.offset == max(float(res.normal @ v.probs) for v in V)
    assert res.margin == pytest.approx(float(res.normal @ point.probs) - res.offset, abs=1e-15)


def test_hull_membership_builds_one_program(monkeypatch, states3):
    V = [make_distribution(states3, [1 / 8, 3 / 4, 1 / 8]), make_distribution(states3, [1 / 4, 1 / 2, 1 / 4])]
    built = []
    init = PreparedLp.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PreparedLp, "__init__", counting_init)
    assert hull_membership(mixture([0.5, 0.5], V), V).inside
    assert len(built) == 1
    assert not hull_membership(make_distribution(states3, [1 / 3, 1 / 3, 1 / 3]), V).inside
    assert len(built) == 2


def test_hull_membership_of_an_undersummed_point(states3):
    """0.5 v is not a mixture of [v]: the sum-of-weights row is not implied
    by the atom rows when the point does not sum to 1."""
    v = make_distribution(states3, [0.2, 0.3, 0.5])
    half = make_distribution(states3, 0.5 * v.probs, require_normalized=False)
    res = hull_membership(half, [v])
    assert res.inside is False
    assert float(res.normal @ half.probs) > res.offset >= float(res.normal @ v.probs)


def test_farkas_ray_of_an_infeasible_program():
    rows = (
        constraint([1.0, 1.0], "<=", 1.0),
        constraint([2e3, 0.0], ">=", 3e3),
        constraint([0.0, 1.0], "=", 0.25),
    )
    lp = PreparedLp(*_stack(2, rows))
    assert not lp.feasible and lp.infeasibility > 0
    A = np.array([c.coeffs for c in rows])
    b = np.array([c.rhs for c in rows])
    y = lp.farkas
    assert np.all(y @ A <= 1e-12)
    assert y @ b == pytest.approx(lp.infeasibility)
    assert y[0] <= 0 <= y[1]  # <= rows weigh in with y <= 0, >= rows with y >= 0
    assert PreparedLp(*_stack(2, rows[:1])).farkas is None


def homogeneous_program(seed: int):
    """(n, rows) on 2 to 6 atoms: rows x_j >= 0 on about half the atoms, one
    to three dense rows a @ x >= 0 scaled by 10^-3 to 10^3, sometimes a <= row
    through a random point, and the simplex row, in random order. A dense row
    with every coefficient negative (about one in seven) leaves no
    distribution, and random dense rows can exclude each other, so about
    half the programs are infeasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    rows = [constraint(e, ">=", 0.0) for e in np.eye(n)[rng.random(n) < 0.5]]
    for _ in range(int(rng.integers(1, 4))):
        a = rng.normal(size=n)
        if rng.random() < 0.15:
            a = -np.abs(a)
        rows.append(constraint(a * 10.0 ** rng.integers(-3, 4), ">=", 0.0))
    if rng.random() < 0.5:
        a = rng.normal(size=n)
        rows.append(constraint(a, "<=", float(a @ rng.dirichlet(np.ones(n))) + 0.1))
    rows.append(constraint(np.ones(n), "=", 1.0))
    return n, [rows[i] for i in rng.permutation(len(rows))]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_homogeneous_ge_rows_start_on_their_slacks(seed):
    """A >= row with rhs 0 is negated, so its slack starts basic at 0 and
    the row takes no artificial. Each status and value must match the
    two-phase simplex run with an artificial on every row as given
    (``oracles.two_phase``) to 1e-9; an infeasible program's Farkas ray
    weighs every row as given, y <= 0 on <= rows and y >= 0 on >= rows,
    with y @ A <= 0 < y @ b = its residual."""
    n, rows = homogeneous_program(seed)
    A, b, sign = _stack(n, rows)
    lp = PreparedLp(A, b, sign)
    objective = np.random.default_rng(seed + 1).normal(size=n)
    for sense in ("min", "max"):
        res = lp.optimize(objective, sense)
        status, value = two_phase(A, b, sign, objective, sense)
        assert res.status == status
        if status == "OPTIMAL":
            assert res.value == pytest.approx(value, abs=1e-9)
            assert _violation((A, b, sign), res.witness).max() <= 10 * TAU_LP
    if lp.feasible:
        assert lp.farkas is None
        return
    y = lp.farkas
    assert np.all(y[sign > 0] <= 0) and np.all(y[sign < 0] >= 0)
    assert np.all(y @ A <= 1e-9 * (np.abs(y) @ np.abs(A)).max())
    assert y @ b > 0 and y @ b == pytest.approx(lp.infeasibility, rel=1e-9, abs=1e-12)


def test_a_conditioned_box_takes_one_artificial():
    """``conditionalize`` on a LinearSystem returns a box whose atoms off
    the event carry rows p_j >= 0 and p_j <= 0, and whose atoms on it with
    lower end 0 carry p_j >= 0. None of those rows needs an artificial, so
    building this fixed conditioned box runs phase 1 for the simplex row
    alone: 2 pivots, where an artificial on each p_j >= 0 row made 10."""
    space = simple_space(*(f"w{j}" for j in range(8)))
    rng = np.random.default_rng(7)
    x0 = rng.dirichlet(np.ones(8))
    rows = []
    for _ in range(6):
        a = rng.normal(size=8)
        rows.append(constraint(a, "<=", float(a @ x0) + 0.01))
    box = conditionalize(LinearSystem(space, tuple(rows)), Event.from_indices(space, [0, 1, 2, 3, 4]))
    assert sum(c.relation == ">=" and c.rhs == 0.0 for c in box.constraints) == 8
    made, pivot = [], _Tableau.pivot
    with mock.patch.object(_Tableau, "pivot", lambda tab, *args: made.append(1) or pivot(tab, *args)):
        LinearSystem(box.space, box.constraints)
    assert len(made) == 2


@pytest.mark.parametrize(
    "coeffs,relation,rhs",
    [
        ([np.nan, 1.0], "<=", 0.5),  # made a "feasible" system with no feasible witness
        ([1.0, -np.inf], "=", 0.5),
        ([1.0, 0.0], ">=", np.nan),  # ended phase 1 with no pivot row at all
        ([1.0, 0.0], "<=", np.inf),  # made a NaN phase-1 residual
    ],
)
def test_programs_reject_non_finite_rows(coeffs, relation, rhs):
    row = constraint(coeffs, relation, rhs)
    with pytest.raises(ValueError, match="finite"):
        LinearSystem(simple_space("a", "b"), (row,))
    with pytest.raises(ValueError, match="finite"):
        solve(LinearProgram(2, (row,), sense="feasibility"))
    with pytest.raises(ValueError, match="finite"):
        list(enumerate_polytope_vertices(*_stack(2, (row,))))


@pytest.mark.parametrize(
    "coeffs",
    [
        [[1.0]],  # short
        [[1.0, 0.0, 1.0]],  # long
        [[1.0, 0.0], [1.0, 1.0, 0.0]],  # ragged
        [[1.0, 0.0, 0.0, 1.0]],  # as many entries as two rows
        [[[1.0, 0.0]]],  # the right size in the wrong shape
    ],
)
def test_programs_reject_rows_of_the_wrong_length(coeffs):
    rows = tuple(constraint(c, "<=", 1.0) for c in coeffs)
    message = "every constraint row needs n_vars = 2 coefficients"
    with pytest.raises(ValueError, match=message):
        LinearSystem(simple_space("a", "b"), rows)
    with pytest.raises(ValueError, match=message):
        solve(LinearProgram(2, rows, sense="feasibility"))
    with pytest.raises(ValueError, match=message):
        list(enumerate_polytope_vertices(*_stack(2, rows)))


def test_library_programs_build_no_constraint(monkeypatch):
    """The programs the library builds for itself (admissibility caps,
    hull weights, ratio programs, the core test) are stacked from arrays:
    once the inputs exist, not one Constraint is made."""
    sp = simple_space("a", "b", "c", "d")
    S = LinearSystem(sp, (constraint([1, -1, 0, 0], "<=", 0.2), constraint([0, 1, 1, 0], ">=", 0.3)))
    box = interval_to_linear_system(IntervalDistribution(sp, [0.1, 0.2, 0.0, 0.1], [0.4, 0.5, 0.3, 0.6]))
    U = UtilityMatrix(("x", "y", "z"), sp, np.array([[1.0, 0, 0, 2], [0, 1, 1, 0], [0.5, 0.5, 0.5, 0.5]]))
    members = [make_distribution(sp, p) for p in np.eye(4)[:3]]
    inside, outside = members[0], make_distribution(sp, [0.25] * 4)
    calls = {
        "e_admissible": lambda: e_admissible(U, S),
        "e_admissible_over_hull": lambda: e_admissible_over_hull(U, members),
        "hull_membership": lambda: (hull_membership(inside, members), hull_membership(outside, members)),
        "fractional_bounds": lambda: fractional_bounds(S, Event.of(sp, "a"), Event.of(sp, "a", "b"), "max"),
        "mobius_report": lambda: mobius_report(box),
    }
    made = []
    post_init = Constraint.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Constraint, "__post_init__", counting)
    counts = {}
    for name, call in calls.items():
        made.clear()
        call()
        counts[name] = len(made)
    assert counts == dict.fromkeys(calls, 0)


def test_hull_membership_space_mismatch(states3):
    p = make_distribution(states3, [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(SpaceMismatchError):
        hull_membership(p, [iid_coin(0.5, 2)])


def test_fractional_bounds_point_ratio(two_tosses):
    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    rows = tuple(
        constraint(np.eye(4)[j], "=", float(q.probs[j])) for j in range(4)
    )
    system = LinearSystem(two_tosses, rows)
    hh = Event.of(two_tosses, "HH")
    he = Event.of(two_tosses, "HH", "HT")
    assert fractional_bounds(system, hh, he, "max") == pytest.approx(13 / 30, abs=1e-9)
    assert fractional_bounds(system, hh, he, "min") == pytest.approx(13 / 30, abs=1e-9)


def test_fractional_bounds_trivial_cases():
    sp = simple_space("a", "b", "c")
    system = LinearSystem(sp, (constraint(np.array([1.0, 0, 0]), ">=", 0.2),))
    e = Event.of(sp, "a", "b")
    assert fractional_bounds(system, e, e, "min") == pytest.approx(1.0, abs=1e-9)
    assert fractional_bounds(system, e, e, "max") == pytest.approx(1.0, abs=1e-9)
    disjoint = Event.of(sp, "c")
    assert fractional_bounds(system, disjoint, e, "max") == pytest.approx(0.0, abs=1e-9)


def test_fractional_bounds_rejects_a_bad_sense():
    sp = simple_space("a", "b")
    e = Event.of(sp, "a")
    with pytest.raises(ValueError):
        fractional_bounds(LinearSystem(sp, ()), e, e, "feasibility")


def test_fractional_bounds_min_below_max(rng):
    sp = simple_space("a", "b", "c", "d")
    for _ in range(20):
        x0 = rng.dirichlet(np.ones(4))
        rows = []
        for _ in range(2):
            a = rng.normal(size=4)
            rows.append(constraint(a, "<=", float(a @ x0 + rng.uniform(0.05, 0.3))))
        system = LinearSystem(sp, tuple(rows))
        num = Event.of(sp, "a")
        den = Event.of(sp, "a", "b", "c")
        lo = fractional_bounds(system, num, den, "min")
        hi = fractional_bounds(system, num, den, "max")
        assert lo <= hi + 1e-9


def test_fractional_bounds_denominator_vanishes():
    sp = simple_space("a", "b")
    system = LinearSystem(sp, (constraint(np.array([1.0, 0.0]), "=", 1.0),))
    with pytest.raises(DenominatorVanishesError):
        fractional_bounds(system, Event.of(sp, "b"), Event.of(sp, "b"), "max")


def ratio_system(seed: int):
    """(system, den, num) on 2 to 5 atoms around a point x0 inside the
    simplex: lower ends on some atoms (rows the kernel shifts out of the
    tableau), upper ends on others, general <=, >= and = rows, and now and
    then a redundant = row (the simplex row doubled, an = row repeated),
    which phase 1 drops. den and num are 0/1 indicators, num inside den."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    x0 = rng.dirichlet(np.ones(n))
    eye, side = np.eye(n), {"<=": 1.0, "=": 0.0, ">=": -1.0}
    rows = []
    for j in range(n):
        if rng.random() < 0.5:
            rows.append(constraint(eye[j], ">=", x0[j] * rng.uniform(0.2, 1.0)))
        if rng.random() < 0.3:
            rows.append(constraint(eye[j], "<=", x0[j] + rng.uniform(0.0, 0.3)))
    for _ in range(int(rng.integers(0, 3))):
        a = rng.normal(size=n)
        rel = str(rng.choice(list(side)))
        rows.append(constraint(a, rel, float(a @ x0) + side[rel] * rng.uniform(0.0, 0.2)))
    if rng.random() < 0.3:
        rows.append(constraint(2.0 * np.ones(n), "=", 2.0))
    eq = [c for c in rows if c.relation == "="]
    if eq and rng.random() < 0.5:
        rows.append(constraint(-3.0 * eq[0].coeffs, "=", -3.0 * eq[0].rhs))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    den = (rng.random(n) < 0.6).astype(float)
    den[rng.integers(n)] = 1.0
    num = den * (rng.random(n) < 0.5)
    return LinearSystem(simple_space(*(f"w{j}" for j in range(n))), tuple(rows)), den, num


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ratio_program_matches_the_phase1_reference_and_bayes_rule(seed):
    """The ratio program derived from the tableau of max p(E) gives the
    fractional bounds and the conditioned box of the former program with
    its own phase 1, and of Bayes' rule on every vertex with evidence, to
    1e-9."""
    system, den, num = ratio_system(seed)
    n = system.space.size
    V = np.array(oracle_vertices(n, system.full_constraints()))
    V = V[V @ den > 1e-9]
    bayes = V / (V @ den)[:, None]  # each vertex conditioned on E
    E = Event.from_indices(system.space, np.flatnonzero(den))
    reference = ratio_program_by_phase1(system, den, DenominatorVanishesError)
    for sense, vertex_value in (("min", (bayes @ num).min()), ("max", (bayes @ num).max())):
        value = fractional_bounds(system, Event.from_indices(system.space, np.flatnonzero(num)), E, sense)
        assert value == pytest.approx(reference.optimize(np.append(num, 0.0), sense).value, abs=1e-9)
        assert value == pytest.approx(vertex_value, abs=1e-9)
    lo, hi = np.array([c.rhs for c in conditionalize(system, E).constraints]).reshape(n, 2).T
    atoms = np.eye(n + 1)[np.flatnonzero(den)]
    values = reference.optimize_many(np.concatenate((atoms, -atoms)), "min")
    on = den > 0
    np.testing.assert_allclose(lo[on], np.maximum(0.0, values[: on.sum()]), rtol=0, atol=1e-9)
    np.testing.assert_allclose(hi[on], np.minimum(1.0, -values[on.sum() :]), rtol=0, atol=1e-9)
    np.testing.assert_allclose(lo[on], np.maximum(0.0, bayes[:, on].min(axis=0)), rtol=0, atol=1e-9)
    np.testing.assert_allclose(hi[on], np.minimum(1.0, bayes[:, on].max(axis=0)), rtol=0, atol=1e-9)
    assert not lo[~on].any() and not hi[~on].any()


def test_ratio_program_runs_no_phase1(monkeypatch):
    """Fractional bounds and conditioning on a LinearSystem build their
    program from the system's own tableau: no PreparedLp is constructed,
    but for the box system conditioning returns."""
    sp = simple_space("a", "b", "c", "d")
    box = interval_to_linear_system(IntervalDistribution(sp, [0.1, 0.2, 0.0, 0.1], [0.4, 0.5, 0.3, 0.6]))
    polytope = LinearSystem(sp, (constraint([1, -1, 0, 0], "<=", 0.2), constraint([0, 1, 1, 0], ">=", 0.3),
                                 constraint([1, 0, 1, 0], "=", 0.5)))
    built = []
    init = PreparedLp.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PreparedLp, "__init__", counting_init)
    num, den = Event.of(sp, "a"), Event.of(sp, "a", "b", "c")
    for S in (box, polytope):
        for sense in ("min", "max"):
            fractional_bounds(S, num, den, sense)
        assert built == []
        assert isinstance(conditionalize(S, den), LinearSystem)
        assert len(built) == 1
        built.clear()


@pytest.mark.parametrize("seed", range(40))
def test_near_null_evidence_answers_right_or_refuses(seed):
    """A system whose event E has upper probability eps: the rows
    p(E) <= eps, and homogeneous rows lo_j p(E) <= p_j <= hi_j p(E) on E's
    atoms, so the conditional box is known exactly whatever eps is. At or
    below TAU_ZERO both calls refuse with their own error; above it, up to
    1e-9, where the program is scaled by 1 / eps, an answer must be right
    (1e-9) or the call raises a CredalError."""
    rng = np.random.default_rng(seed)
    k, rest = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    n = k + rest
    q = rng.dirichlet(np.ones(k))
    lo, hi = q * rng.uniform(0.3, 1.0, k), q + rng.uniform(0.0, 0.3, k)
    eps = float(rng.choice([1e-13, 1e-12, 5e-12, 1e-11, 1e-10, 1e-9]))
    den = np.append(np.ones(k), np.zeros(rest))
    scale = 10.0 ** rng.integers(-2, 3)
    rows = [constraint(scale * den, "<=", scale * eps)]
    for j in range(k):
        rows += [constraint(np.eye(n)[j] - lo[j] * den, ">=", 0.0), constraint(np.eye(n)[j] - hi[j] * den, "<=", 0.0)]
    if rng.random() < 0.5:
        rows.append(constraint(np.eye(n)[k], ">=", 0.5 / rest))
    sp = simple_space(*(f"w{j}" for j in range(n)))
    system, E = LinearSystem(sp, tuple(rows)), Event.from_indices(sp, range(k))
    first = Event.from_indices(sp, [0])
    others_hi, others_lo = hi.sum() - hi, lo.sum() - lo
    exact_lo, exact_hi = np.maximum(lo, 1.0 - others_hi), np.minimum(hi, 1.0 - others_lo)
    if eps <= TAU_ZERO:
        with pytest.raises(DenominatorVanishesError):
            fractional_bounds(system, first, E, "max")
        with pytest.raises(ZeroEvidenceEverywhereError):
            conditionalize(system, E)
        return
    for sense, exact in (("min", exact_lo[0]), ("max", exact_hi[0])):
        try:
            assert fractional_bounds(system, first, E, sense) == pytest.approx(exact, abs=1e-9)
        except CredalError:
            pass
    try:
        box = conditionalize(system, E)
    except CredalError:
        return
    got_lo, got_hi = np.array([c.rhs for c in box.constraints]).reshape(n, 2).T
    np.testing.assert_allclose(got_lo[:k], exact_lo, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got_hi[:k], exact_hi, rtol=0, atol=1e-9)


def near_null_draws(count: int, seed: int):
    """(system, {a}, E, exact (min, max) of p(a) / p(E)) for systems on 3 to
    6 atoms whose event E, k of them (2 <= k < n) with a its first, has
    upper probability eps = 10^U(-12, -9): the row p(E) <= eps, and per atom
    j of E two homogeneous rows s (e_j - lo_j 1_E) . p >= 0 and
    s (e_j - hi_j 1_E) . p <= 0, s = 10^U(-1, 2), around a Dirichlet point
    q of E: lo_j = q_j U(0.3, 0.9), hi_j = min(1, q_j + U(0.05, 0.4))."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n))
        E = rng.choice(n, k, replace=False)
        eps = 10.0 ** rng.uniform(-12, -9)
        q = rng.dirichlet(np.ones(k))
        on = np.zeros(n)
        on[E] = 1.0
        rows, lo, hi = [constraint(on, "<=", eps)], np.empty(k), np.empty(k)
        for i, j in enumerate(E):
            s = 10.0 ** rng.uniform(-1, 2)
            lo[i], hi[i] = q[i] * rng.uniform(0.3, 0.9), min(1.0, q[i] + rng.uniform(0.05, 0.4))
            rows += [constraint(s * (np.eye(n)[j] - lo[i] * on), ">=", 0.0),
                     constraint(s * (np.eye(n)[j] - hi[i] * on), "<=", 0.0)]
        sp = simple_space(*(f"w{j}" for j in range(n)))
        exact = max(lo[0], 1.0 - hi[1:].sum()), min(hi[0], 1.0 - lo[1:].sum())
        yield LinearSystem(sp, tuple(rows)), Event.from_indices(sp, E[:1]), Event.from_indices(sp, E), exact


def test_near_null_evidence_never_yields_a_wrong_bound():
    """Over 400 near-null draws, each pair of fractional bounds is within
    1e-9 of the exact one or the call raises a CredalError, and no more
    draws refuse than the 67 that do so now (all NumericalFailureError, at
    eps 1.0e-12 to 6.8e-10). The ratio program's witness is checked on the
    homogenised rows, which bind p_j / p(E) at every eps: checking
    p = y / t against the system's rows instead, with den . y = 1, lets all
    400 answer, 27 of them off by 5.8e-4 to 0.19, since at p(E) near 1e-11
    an absolute 10 * TAU_LP on rows in p no longer binds p_j / p(E)."""
    answered = 0
    for system, a, E, exact in near_null_draws(400, 49):
        try:
            got = [fractional_bounds(system, a, E, sense) for sense in ("min", "max")]
        except CredalError:
            continue
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-9)
        answered += 1
    assert answered >= 333


def four_mass_cloud(seed: int) -> list:
    """The distinct marginal vectors (rounded to 12 digits, normalised) of
    a belief function on 3 to 5 atoms with mass on four random subsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    m = np.zeros(2**n)
    subsets = rng.integers(1, 2**n, size=4)
    m[subsets] = rng.dirichlet(np.ones(4))
    points = {tuple(np.round(v, 12)) for v in marginal_vectors(zeta_transform(m), n)}
    space = simple_space(*(f"w{j}" for j in range(n)))
    return [make_distribution(space, np.array(p) / sum(p)) for p in sorted(points)]


@pytest.mark.parametrize("seed,j", [(151, 9), (444, 6), (492, 18)])
def test_hull_membership_of_a_vertex_against_the_others(seed, j):
    """Points just outside the hull of the rest of their cloud. The
    separation program's zero-rhs rows tie in the ratio test; leaving on
    the smallest basis index pivoted on a tiny entry, and the witness check
    raised NumericalFailureError."""
    cloud = four_mass_cloud(seed)
    point, rest = cloud[j], cloud[:j] + cloud[j + 1 :]
    res = hull_membership(point, rest)
    assert res.inside is False
    assert float(res.normal @ point.probs) > res.offset
    assert all(float(res.normal @ v.probs) <= res.offset + 1e-8 for v in rest)


# --- the pivot step and the witness check -----------------------------------


def random_tableau(seed: int, m: int, k: int):
    """A primal feasible tableau of m rows over m + k columns, its basis m
    random unit columns. Entries are small integers half the time, so that
    ratio tests tie; rhs entries are often 0 (degenerate); some columns
    have no positive entry, so a run may stop UNBOUNDED."""
    rng = np.random.default_rng(seed)
    cols = m + k
    basis = rng.permutation(cols)[:m]
    if rng.random() < 0.5:
        T = rng.integers(-2, 5, size=(m + 1, cols + 1)).astype(float)
    else:
        T = np.round(rng.normal(0.5, 1.0, size=(m + 1, cols + 1)), 2)
    T[-1] *= -1.0  # mostly negative reduced costs, so that runs pivot
    if m and rng.random() < 0.7:
        T[0, :-1] = np.abs(T[0, :-1]) + 1.0  # a budget row bounds every column
    T[:m, -1] = np.abs(T[:m, -1]) * (rng.random(m) < 0.6)
    for j in np.flatnonzero(rng.random(cols) < 0.1):
        T[:m, j] = -np.abs(T[:m, j])
    T[:, basis] = 0.0
    T[np.arange(m), basis] = 1.0
    T[-1, -1] = 0.0
    return _Tableau(T, basis)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 6),
    k=st.integers(1, 6),
    bland_after=st.sampled_from([0, 1, 3, 50]),
)
@settings(max_examples=300, deadline=None)
def test_pivot_step_matches_the_reference_loop(seed, m, k, bland_after):
    """The kernel's pivot step and the former one (``oracles.run_simplex``)
    end in the same status and basis with bit-identical tableaux, through
    ratio ties, unbounded columns, programs without rows and Bland's rule
    from the first pivot (bland_after = 0)."""
    tab = random_tableau(seed, m, k)
    ref = tab.copy()
    outcome = []
    for run, t in ((linprog._run_simplex, tab), (reference_simplex, ref)):
        try:
            outcome.append(run(t, bland_after, 200))
        except NumericalFailureError:
            outcome.append("ITERATIONS")
    assert outcome[0] == outcome[1]
    assert np.array_equal(tab.basis, ref.basis)
    assert tab.T.tobytes() == ref.T.tobytes()


HAIR = 1e-3 * TAU_LP


@pytest.mark.parametrize("relation, broken", [("<=", [1]), ("=", [1, -1]), (">=", [-1])])
def test_witness_check_holds_its_tolerance(relation, broken):
    """x0 <= 0.5, = 0.5 or >= 0.5: a witness off the row on its wrong side
    by just under 10 * TAU_LP passes, by just over it is refused, one
    witness or a stack; so is an entry just above or below -10 * TAU_LP,
    and a NaN anywhere."""
    lp = PreparedLp(np.array([[1.0, 0.0]]), np.array([0.5]), np.array([linprog._SIGN[relation]]))
    for side in broken:
        inside = np.array([0.5 + side * (10 * TAU_LP - HAIR), 0.25])
        outside = np.array([0.5 + side * (10 * TAU_LP + HAIR), 0.25])
        assert lp._checked(inside) is inside
        lp._checked(np.stack([inside, inside]))
        for bad in (outside, np.stack([inside, outside])):
            with pytest.raises(NumericalFailureError, match="infeasible witness"):
                lp._checked(bad)
    lp._checked(np.array([0.5, -(10 * TAU_LP - HAIR)]))
    with pytest.raises(NumericalFailureError, match="negative witness entry"):
        lp._checked(np.array([0.5, -(10 * TAU_LP + HAIR)]))
    for nan in ([np.nan, 0.25], [0.5, np.nan]):  # 0 * NaN is NaN, so the row product fails
        with pytest.raises(NumericalFailureError, match="infeasible witness"):
            lp._checked(np.array(nan))


def test_witness_check_without_rows_refuses_nan():
    """With no row to fail, the entry check refuses a NaN."""
    lp = PreparedLp(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    assert lp.optimize(np.ones(2), "min").value == 0.0
    with pytest.raises(NumericalFailureError, match="negative witness entry"):
        lp._checked(np.array([np.nan, 0.0]))


# --- vertex enumeration ------------------------------------------------------


def assert_same_vertices(got, want):
    """got is an array of distinct rows that match the oracle's distinct
    vertices, one to one, to 1e-7."""
    distinct = []
    for v in np.array(want).reshape(-1, got.shape[1]):
        if not any(np.abs(v - u).max() <= 1e-7 for u in distinct):
            distinct.append(v)
    assert got.shape == (len(distinct), got.shape[1])
    for v in distinct:
        assert np.abs(got - v).max(axis=1).min() <= 1e-7
    for x in got:
        assert np.abs(np.array(distinct) - x).max(axis=1).min() <= 1e-7
    assert np.all(np.abs(got[:, None] - got).max(axis=2) + np.eye(len(got)) > 1e-7)


def random_vertex_rows(seed: int):
    """On 2 to 5 atoms, 1 to 5 random rows mixing <=, = and >=, each
    through a random point x0, a third of them with no margin (tight at
    x0, so vertices are degenerate), some repeated, half the time with the
    simplex row. Without it the polyhedron may be unbounded; a far-off row
    sometimes makes it empty. The = rows may be linearly dependent: a
    repeated one, an all-zero one, one proportional to the simplex row."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        a = rng.normal(size=n) * (rng.random(n) < 0.8)
        rel = str(rng.choice(["<=", "=", ">="], p=[0.4, 0.2, 0.4]))
        if rel == "=" and rng.random() < 0.15:
            a = np.zeros(n)
        if not a.any() and rel != "=":
            continue
        margin = 0.0 if rel == "=" or rng.random() < 0.3 else rng.uniform(0.01, 0.4)
        rows.append(constraint(a, rel, float(a @ x0) + (-margin if rel == ">=" else margin)))
        if rng.random() < 0.15:
            rows.append(rows[-1])
    if rng.random() < 0.1:
        rows.append(constraint(np.ones(n), ">=", 2.0))
    if rng.random() < 0.2:
        c = float(rng.uniform(0.2, 3.0))
        rows.append(constraint(np.full(n, c), "=", c))
    if rng.random() < 0.5:
        rows.append(constraint(np.ones(n), "=", 1.0))
    return n, rows


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_enumerated_vertices_match_the_oracle(seed):
    n, rows = random_vertex_rows(seed)
    assert_same_vertices(enumerate_polytope_vertices(*_stack(n, rows)), oracle_vertices(n, rows))


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=303)
@example(seed=582)
@example(seed=604)
@settings(max_examples=20, deadline=None)
def test_enumerated_core_vertices_match_the_oracle(seed):
    """The core of a random point set's envelope: up to 2^n - 2 rows, many
    of them tight at each vertex. On seeds 303, 582 and 604 double
    description reached some vertex twice, as rays 4e-8 to 1e-7 apart."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    sp = simple_space(*(f"w{j}" for j in range(n)))
    points = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])), size=int(rng.integers(1, 7)))
    bel = lower_envelope_function(VertexSet(tuple(make_distribution(sp, p) for p in points))).values
    rows = core_of_belief(sp, bel).full_constraints()
    assert_same_vertices(enumerate_polytope_vertices(*_stack(n, rows)), oracle_vertices(n, rows))


def test_enumeration_of_an_unbounded_system_returns_its_vertices_only():
    # x + y >= 1 and x - y <= 0.5 over x, y >= 0: two vertices, two directions
    rows = (constraint([1.0, 1.0], ">=", 1.0), constraint([1.0, -1.0], "<=", 0.5))
    got = enumerate_polytope_vertices(*_stack(2, rows))
    assert_same_vertices(got, [[0.0, 1.0], [0.75, 0.25]])
    assert_same_vertices(got, oracle_vertices(2, rows))


def test_enumeration_of_an_infeasible_system_is_empty():
    rows = (constraint([1.0, 1.0, 1.0], "=", 1.0), constraint([1.0, 0.0, 0.0], ">=", 2.0))
    got = enumerate_polytope_vertices(*_stack(3, rows))
    assert got.shape == (0, 3)
    assert oracle_vertices(3, rows) == []
