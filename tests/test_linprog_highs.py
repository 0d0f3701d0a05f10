"""The LP kernel against HiGHS (scipy.optimize.linprog, method="highs").

Programs mix <=, = and >= rows, each row (with its rhs) scaled by 10^k
for k from -6 to 6. The statuses must agree. When both report OPTIMAL,
credal's witness must satisfy the rows as given to 10 * TAU_LP, and its
value may beat HiGHS's but not trail it by more than 1e-7 (1 + |value|).

HiGHS is handed each row divided by its largest |coefficient|, the same
program at a scale where its absolute tolerances mean what they say. On
the raw rows they misjudge it: presolve calls some unbounded programs
infeasible, column scaling hides an improving ray, and a row with tiny
coefficients is met only to within its tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import feasible, two_phase

from credal import LinearProgram, constraint, hull_membership, make_distribution, simple_space, solve
from credal.linprog import PreparedLp, _stack
from credal.tolerances import TAU_LP

linprog = pytest.importorskip("scipy.optimize").linprog

KINDS = ("feasible", "infeasible", "unbounded", "empty")
STATUS = {0: "OPTIMAL", 2: "INFEASIBLE", 3: "UNBOUNDED"}
SHIFT = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def random_program(seed: int, kind: str):
    """(n, rows, objective, sense) of the given kind.

    A feasible program is built around a point x0 >= 0 that meets each
    inequality with a margin, and a cap on sum(x) keeps it bounded. An
    infeasible one adds two rows that ask a . x to be both below t and
    above t + gap. An unbounded one leaves a ray along one variable open
    and makes the objective improve along it.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    x0 = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.8)
    ray = int(rng.integers(n))
    rows = []
    if kind != "empty":
        for _ in range(int(rng.integers(1, 6))):
            a = rng.normal(size=n) * (rng.random(n) < 0.8)
            rel = str(rng.choice(list(SHIFT)))
            if kind == "unbounded":
                a[ray] = -SHIFT[rel] * abs(a[ray])
            rows.append((a, rel, float(a @ x0) + SHIFT[rel] * rng.uniform(0.05, 0.5)))
    if kind == "feasible":
        rows.append((np.ones(n), "<=", float(x0.sum()) + 1.0))
    if kind == "infeasible":
        a = rng.normal(size=n)
        t = float(a @ x0)
        rows += [(a, "<=", t), (a, ">=", t + rng.uniform(0.2, 1.0) * (1.0 + abs(t)))]
    objective = rng.normal(size=n)
    sense = str(rng.choice(["min", "max"]))
    if kind == "unbounded":
        objective[ray] = (abs(objective[ray]) + 0.5) * (-1.0 if sense == "min" else 1.0)
    scaled = [
        constraint(a * 10.0 ** k, rel, rhs * 10.0 ** k)
        for (a, rel, rhs), k in zip(rows, rng.integers(-6, 7, size=len(rows)))
    ]
    return n, tuple(scaled), objective, sense


def highs(rows, objective, sense, presolve=True):
    """HiGHS's status and value, on the rows equilibrated."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for c in rows:
        scale = np.abs(c.coeffs).max(initial=0.0) or 1.0
        a, b = c.coeffs / scale, c.rhs / scale
        if c.relation == "=":
            A_eq.append(a)
            b_eq.append(b)
        else:
            A_ub.append(SHIFT[c.relation] * a)
            b_ub.append(SHIFT[c.relation] * b)
    res = linprog(
        objective if sense == "min" else -objective,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
        options={"presolve": presolve},
    )
    assert res.status in STATUS, res.message
    value = None if res.status else float(res.fun if sense == "min" else -res.fun)
    return STATUS[res.status], value


def check_against_highs(n, rows, objective, sense):
    res = solve(LinearProgram(n, rows, objective=objective, sense=sense))
    status, value = highs(rows, objective, sense)
    assert res.status == status
    if status != "OPTIMAL":
        return
    x = res.witness
    assert feasible(rows, x, tol=10 * TAU_LP) and np.all(x >= -10 * TAU_LP)
    assert res.value == pytest.approx(float(objective @ x), abs=1e-9 * (1 + abs(res.value)))
    gap = res.value - value if sense == "min" else value - res.value
    assert gap <= 1e-7 * (1 + abs(value))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
def test_kernel_matches_highs(seed, kind):
    check_against_highs(*random_program(seed, kind))


def redundant_program(seed: int):
    """(n, rows, objective, sense) of a feasible program whose equality rows
    include exact linear combinations of other rows.

    Two to four independent equality rows pass through a point x0, and one
    to three more are sums of small integer multiples of them. Coefficients
    are small integers and x0 is a multiple of 1/8, so every sum is exact in
    floating point; each row is then scaled by a power of two (also exact).
    A cap on sum(x) and a few inequalities through x0, some tight, bound it.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    x0 = rng.integers(0, 9, size=n) / 8.0
    base = rng.integers(-3, 4, size=(int(rng.integers(2, 5)), n)).astype(float)
    combos = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), len(base))) @ base
    rows = [(a, "=", float(a @ x0)) for a in np.concatenate([base, combos])]
    for _ in range(int(rng.integers(0, 3))):
        a = rng.integers(-3, 4, size=n).astype(float)
        rel = str(rng.choice(["<=", ">="]))
        rows.append((a, rel, float(a @ x0) + SHIFT[rel] * int(rng.integers(0, 2))))
    rows.append((np.ones(n), "<=", float(x0.sum()) + 1.0))
    order = rng.permutation(len(rows))
    scaled = [
        constraint(rows[i][0] * 2.0 ** k, rows[i][1], rows[i][2] * 2.0 ** k)
        for i, k in zip(order, rng.integers(-20, 21, size=len(rows)))
    ]
    return n, tuple(scaled), rng.normal(size=n), str(rng.choice(["min", "max"]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_redundant_equality_rows(seed):
    check_against_highs(*redundant_program(seed))


def marginal_vectors(seed: int) -> np.ndarray:
    """The distinct marginal vectors of a random belief function on 5 atoms
    (each nonempty subset carries mass with chance 0.4, Dirichlet(1)
    weights), one per row. They tie heavily."""
    rng = np.random.default_rng(seed)
    present = np.flatnonzero(rng.random(31) < 0.4) + 1
    mass = np.zeros(32)
    mass[present] = rng.dirichlet(np.ones(present.size))
    masks = np.arange(32)
    bel = np.array([mass[(masks & ~A) == 0].sum() for A in masks])
    points = set()
    for perm in itertools.permutations(range(5)):
        v, mask = np.zeros(5), 0
        for i in perm:
            v[i] = bel[mask | 1 << i] - bel[mask]
            mask |= 1 << i
        points.add(tuple(v / v.sum()))
    return np.array(sorted(points))


@pytest.mark.parametrize("seed", [60, 324])
def test_hull_programs_at_marginal_vectors(seed):
    """Hull-membership programs queried at each of their own points. The
    sum-of-weights row is implied by the atom rows, because every point
    sums to 1. On both seeds, driving artificials out on the first usable
    entry left a witness entry far below zero."""
    V = marginal_vectors(seed)
    objective = np.random.default_rng(seed).normal(size=len(V))
    for target in V:
        rows = [constraint(V[:, j], "=", target[j]) for j in range(5)]
        rows.append(constraint(np.ones(len(V)), "=", 1.0))
        check_against_highs(len(V), tuple(rows), np.zeros(len(V)), "min")
        check_against_highs(len(V), tuple(rows), objective, "min")


@pytest.mark.parametrize(
    "kind,seed", [("feasible", 103), ("feasible", 107), ("infeasible", 166), ("unbounded", 64)]
)
def test_badly_scaled_rows(kind, seed):
    """Programs whose rows span twelve decades in scale, on which an
    unequilibrated phase 1 called feasible programs infeasible, ended
    phase 1 unbounded, or returned a witness off the rows."""
    check_against_highs(*random_program(seed, kind))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_beale_cycling_example(scale):
    """Beale's degenerate program, on which textbook Dantzig pricing cycles."""
    rows = (
        constraint(np.array([0.25, -8.0, -1.0, 9.0]) * scale, "<=", 0.0),
        constraint(np.array([0.5, -12.0, -0.5, 3.0]) * scale, "<=", 0.0),
        constraint(np.array([0.0, 0.0, 1.0, 0.0]) * scale, "<=", scale),
    )
    objective = np.array([-0.75, 20.0, -0.5, 6.0])
    check_against_highs(4, rows, objective, "min")
    res = solve(LinearProgram(4, rows, objective=objective, sense="min"))
    assert res.value == pytest.approx(-1.25, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_program_without_rows(sign):
    objective = np.array([1.0, sign, 2.0])
    check_against_highs(3, (), objective, "min")
    check_against_highs(3, (), -objective, "max")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2, 0.3, 1.0]),
    st.booleans(),
)
def test_hull_membership_contract(seed, eps, on_a_face):
    """A random hull of 1 to 12 points on 2 to 8 atoms (on a face of the
    simplex, if asked) and the point (1 - eps) mix + eps r, for a random
    mix of the points and a random distribution r. Inside, the weights are
    convex and rebuild the point; outside, the hyperplane separates.

    Where eps >= 1e-4 the answer must agree with HiGHS, unless HiGHS's
    tolerance lets it differ: it meets equality rows to 1e-7, and a
    separator with max |normal_j| = 1 and margin m only keeps some row
    m / n away. (At eps = 1e-9 HiGHS calls some points infeasible that
    credal's weights rebuild to 1e-9.)"""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 9)), int(rng.integers(1, 13))
    support = rng.choice(n, size=max(1, n // 2), replace=False) if on_a_face else np.arange(n)
    V = np.zeros((k, n))
    V[:, support] = rng.dirichlet(np.ones(support.size), size=k)
    q = (1 - eps) * (rng.dirichlet(np.ones(k)) @ V) + eps * rng.dirichlet(np.ones(n))
    q = q / q.sum()
    space = simple_space(*(f"w{j}" for j in range(n)))
    res = hull_membership(make_distribution(space, q), [make_distribution(space, v) for v in V])
    if res.inside:
        w = res.weights
        assert np.all(w >= -1e-8) and abs(w.sum() - 1) <= 1e-8
        assert np.abs(w @ V - q).max() <= 1e-8
    else:
        assert float(res.normal @ q) > res.offset >= (V @ res.normal).max() - 1e-8
        assert res.margin > 0
    if eps >= 1e-4 and (res.inside or res.margin > n * 1e-7):
        A_eq = np.vstack([V.T, np.ones(k)])
        highs = linprog(np.zeros(k), A_eq=A_eq, b_eq=np.append(q, 1.0), bounds=(0, None), method="highs")
        assert res.inside == (highs.status == 0)


def bound_program(seed: int):
    """(n, rows, objective, sense) that mix dense rows with rows on one
    atom: lower bounds as >= rows with a positive coefficient and as <=
    rows with a negative one, several on one atom, some with rhs 0, upper
    bounds, each row scaled by 10^k for k from -3 to 3. Half the programs
    keep the simplex row sum(x) = 1, and about a third of those have lower
    ends that sum past 1; the others are capped by sum(x) <= c or left
    open, so they may also be unbounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    for _ in range(int(rng.integers(0, 3))):
        a = rng.normal(size=n) * (rng.random(n) < 0.8)
        rel = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1]))
        rows.append((a, rel, float(a @ x0) + SHIFT[rel] * rng.uniform(0.0, 0.2)))
    past_one = rng.random() < 0.35
    for j in rng.choice(n, size=int(rng.integers(1, 2 * n + 1))):
        end = x0[j] * rng.uniform(0.2, 1.0) if not past_one else rng.uniform(1.1, 2.0) / n
        kind = rng.random()
        if kind < 0.15:
            end = 0.0
        e = np.zeros(n)
        e[j] = 1.0
        if kind < 0.55:
            rows.append((e, ">=", end))
        elif kind < 0.85:
            rows.append((-e, "<=", -end))
        else:
            rows.append((e, "<=", end + rng.uniform(0.0, 0.5)))
    total = rng.random()
    if total < 0.5 or past_one:
        rows.append((np.ones(n), "=", 1.0))
    elif total < 0.8:
        rows.append((np.ones(n), "<=", float(rng.uniform(0.5, 3.0))))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    scaled = tuple(
        constraint(a * 10.0 ** k, rel, rhs * 10.0 ** k)
        for (a, rel, rhs), k in zip(rows, rng.integers(-3, 4, size=len(rows)))
    )
    return n, scaled, rng.normal(size=n), str(rng.choice(["min", "max"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(11037)
@example(12993)
@example(17888)
@example(22144)
@example(28599)
@example(30717)
@example(33315)
@example(74219058)
def test_lower_bound_rows_match_highs_and_the_reference_simplex(seed):
    """The kernel moves rows x_j >= l_j > 0 out of the tableau as a shift
    x = l + x'. Each value and verdict must match HiGHS and the former
    two-phase simplex run on every row as given (``oracles.two_phase``) to
    1e-9; an infeasible program's Farkas ray weighs every row as given, <=
    rows with y <= 0 and >= rows with y >= 0, and y @ b is its residual.
    HiGHS's presolve calls some unbounded programs infeasible (the pinned
    seeds), so where its verdict differs from both of the others HiGHS is
    asked again without presolve, and must then agree."""
    n, rows, objective, sense = bound_program(seed)
    A, b, sign = _stack(n, rows)
    lp = PreparedLp(A, b, sign)
    res = lp.optimize(objective, sense)
    status, value = two_phase(A, b, sign, objective, sense)
    highs_status, highs_value = highs(rows, objective, sense)
    if res.status == status != highs_status:
        highs_status, highs_value = highs(rows, objective, sense, presolve=False)
    assert res.status == status == highs_status
    if status == "OPTIMAL":
        assert res.value == pytest.approx(value, abs=1e-9 * (1 + abs(value)))
        assert res.value == pytest.approx(highs_value, abs=1e-9 * (1 + abs(value)))
        assert feasible(rows, res.witness, tol=10 * TAU_LP)
        assert feasible(rows, lp.feasible_point(), tol=10 * TAU_LP)
    if status != "INFEASIBLE":
        assert lp.farkas is None
        return
    y = lp.farkas
    assert np.all(y[sign > 0] <= 0) and np.all(y[sign < 0] >= 0)
    assert np.all(y @ A <= 1e-9 * (np.abs(y) @ np.abs(A)).max())
    assert y @ b == pytest.approx(lp.infeasibility, rel=1e-9, abs=1e-12)
    assert lp.infeasibility > TAU_LP
