"""LP kernel tests against the brute-force vertex-enumeration oracle in
oracles.py, which never touches the solver."""

import numpy as np
import pytest

from credal import (
    Event,
    LinearProgram,
    LinearSystem,
    constraint,
    fractional_bounds,
    hull_membership,
    iid_coin,
    make_distribution,
    mixture,
    simple_space,
    solve,
)
from credal.errors import DenominatorVanishesError, InfeasibleSystemError, SpaceMismatchError
from credal.inference import zeta_transform
from credal.linprog import PreparedLp


def bounds_constraints(n, lo, hi):
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(constraint(e, ">=", lo))
        rows.append(constraint(e, "<=", hi))
    return rows


from oracles import marginal_vectors, vertices_of as oracle_vertices


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
    three rows are unbounded in each sense; the chain goes on after an
    unbounded row from the basis it stopped in."""
    prepared = PreparedLp(2, (constraint(np.array([1.0, -1.0]), "<=", 1.0),))
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


def test_optimize_many_refuses_an_infeasible_program():
    rows = (constraint(np.ones(2), ">=", 2.0), constraint(np.ones(2), "<=", 1.0))
    with pytest.raises(InfeasibleSystemError):
        PreparedLp(2, rows).optimize_many(np.eye(2), "min")


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
        assert all(c.satisfied_by(res.witness, 1e-7) for c in rows)
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
