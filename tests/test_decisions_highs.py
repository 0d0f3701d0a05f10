"""E-admissibility over polytopes and hulls against HiGHS
(scipy.optimize.linprog, method="highs").

The reference margin of action a is max t subject to the set's rows and
(eu_a - eu_b) . p >= t for every action b, a itself included, so t <= 0.
Wherever it lies at least 1e-7 from -tol, the admissible flags must agree.
Each reported margin (-certificate) must match it, and the witness of each
admissible action must attain the reported margin to 1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal import (
    LinearSystem,
    UtilityMatrix,
    constraint,
    e_admissible,
    e_admissible_over_hull,
    make_distribution,
    simple_space,
)
from credal.tolerances import TAU_LP

linprog = pytest.importorskip("scipy.optimize").linprog

SHIFT = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def highs_margin(rows, V, EU, a):
    """Action a's best margin over the points V.T @ x, x >= 0 meeting rows;
    EU holds the utilities of the points, actions x points. The rows are
    handed over equilibrated, as in test_linprog_highs."""
    k = len(V)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for c in rows:
        scale = np.abs(c.coeffs).max(initial=0.0) or 1.0
        row, rhs = np.append(c.coeffs / scale, 0.0), c.rhs / scale
        if c.relation == "=":
            A_eq.append(row)
            b_eq.append(rhs)
        else:
            A_ub.append(SHIFT[c.relation] * row)
            b_ub.append(SHIFT[c.relation] * rhs)
    for eu in EU:  # t - (eu_a - eu_b) . x <= 0
        A_ub.append(np.append(eu - EU[a], 1.0))
        b_ub.append(0.0)
    res = linprog(
        np.append(np.zeros(k), -1.0),
        A_ub=np.array(A_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def random_problem(seed: int):
    """(U, report factory, rows, V) on 2-6 atoms with 1-6 actions. Even
    seeds: a polytope of <=, >= and = rows through a random point. Odd
    seeds: the hull of 1-5 random members. Every third seed has integer
    utilities, which makes ties and degenerate programs common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    space = simple_space(*(f"w{j}" for j in range(n)))
    k = int(rng.integers(1, 7))
    u = rng.integers(0, 4, size=(k, n)) if seed % 3 == 0 else rng.uniform(-5, 5, size=(k, n))
    U = UtilityMatrix(tuple(f"a{i}" for i in range(k)), space, u)
    if seed % 2 == 0:
        x0 = rng.dirichlet(np.ones(n))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.normal(size=n)
            rel = str(rng.choice(list(SHIFT)))
            rows.append(constraint(a, rel, float(a @ x0) + SHIFT[rel] * rng.uniform(0.0, 0.3)))
        S = LinearSystem(space, tuple(rows))
        return U, lambda tol: e_admissible(U, S, tol), S.full_constraints(), np.eye(n)
    members = [make_distribution(space, rng.dirichlet(np.ones(n))) for _ in range(rng.integers(1, 6))]
    rows = (constraint(np.ones(len(members)), "=", 1.0),)
    V = np.stack([p.probs for p in members])
    return U, lambda tol: e_admissible_over_hull(U, members, tol), rows, V


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TAU_LP, 0.01, 0.3]))
def test_admissibility_matches_highs(seed, tol):
    U, report, rows, V = random_problem(seed)
    rep = report(tol)
    EU = U.u @ V.T
    for a, entry in enumerate(rep.entries):
        ref = highs_margin(rows, V, EU, a)
        margin = -entry.certificate
        assert margin == pytest.approx(ref, abs=1e-7)
        if abs(ref + tol) >= 1e-7:
            assert entry.admissible == (ref >= -tol)
        if entry.admissible:
            eu = U.u @ entry.witness.probs
            assert eu[a] - eu.max() == pytest.approx(margin, abs=1e-8)
        else:
            assert entry.witness is None
