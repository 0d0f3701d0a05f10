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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import feasible

from credal import LinearProgram, constraint, solve
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


def highs(rows, objective, sense):
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
