from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lp_admissible_per_action, vertices_of

from credal import (
    IntervalDistribution,
    LinearSystem,
    UtilityMatrix,
    VertexSet,
    coin_family,
    coin_space,
    constraint,
    e_admissible,
    e_admissible_over_hull,
    expected_utility,
    group_minimax,
    iid_coin,
    interval_to_linear_system,
    make_distribution,
    mixture,
    optimal_actions,
    pareto_optimal,
    simple_space,
)
from credal import decisions, linprog
from credal.errors import EmptyGroupError, SpaceMismatchError, UnknownActionError
from credal.tolerances import TAU_LP


@pytest.fixture
def opinions(states3):
    p1 = make_distribution(states3, [1 / 8, 3 / 4, 1 / 8])
    p2 = make_distribution(states3, [3 / 4, 1 / 8, 1 / 8])
    return p1, p2


def test_expected_utility_values(matrix3, opinions):
    p1, p2 = opinions
    assert expected_utility("a2", p1, matrix3) == 3.5625
    assert expected_utility("a3", p1, matrix3) == 4.375
    assert expected_utility("a2", p2, matrix3) == 2.9375
    assert expected_utility("a1", p2, matrix3) == 3.125


def test_expected_utility_constant_action(states3, rng):
    U = UtilityMatrix(("flat",), states3, [[2.5, 2.5, 2.5]])
    for _ in range(5):
        p = make_distribution(states3, rng.dirichlet(np.ones(3)))
        assert expected_utility("flat", p, U) == pytest.approx(2.5)


def test_expected_utility_errors(matrix3, opinions):
    p1, _ = opinions
    with pytest.raises(UnknownActionError):
        expected_utility("a9", p1, matrix3)
    with pytest.raises(SpaceMismatchError):
        expected_utility("a1", iid_coin(0.5, 2), matrix3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_utility_matrix_rejects_non_finite_entries(states3, bad):
    with pytest.raises(ValueError, match="finite"):
        UtilityMatrix(("a1", "a2"), states3, [[1.0, 2.0, bad], [0.0, 1.0, 2.0]])


def test_two_point_admissibility(matrix3, opinions):
    rep = e_admissible(matrix3, VertexSet(opinions))
    assert rep.admissible_actions == ("a1", "a3")
    assert rep.entry("a2").witness is None
    for entry in rep.entries:
        if entry.admissible:
            eu = [expected_utility(a, entry.witness, matrix3) for a in matrix3.actions]
            own = expected_utility(entry.action, entry.witness, matrix3)
            assert own >= max(eu) - 1e-8


def test_hull_admissibility_weight_space(matrix3, opinions):
    rep = e_admissible_over_hull(matrix3, list(opinions))
    assert rep.admissible_actions == ("a1", "a2", "a3")
    w = rep.entry("a2").witness
    eu = [expected_utility(a, w, matrix3) for a in matrix3.actions]
    assert expected_utility("a2", w, matrix3) >= max(eu) - 1e-8


def test_hull_admissibility_constraint_system(matrix3, states3, opinions):
    system = LinearSystem(
        states3,
        (
            constraint([0, 0, 1], "=", 1 / 8),
            constraint([1, 0, 0], ">=", 1 / 8),
            constraint([1, 0, 0], "<=", 3 / 4),
        ),
    )
    rep = e_admissible(matrix3, system)
    assert rep.admissible_actions == ("a1", "a2", "a3")
    mid = mixture([0.5, 0.5], list(opinions))
    assert optimal_actions(mid, matrix3) == ("a2",)


def test_inadmissible_linear_system_entry_carries_certificate(states3):
    # over the full simplex, the dominated row is never optimal; its
    # entry must carry a positive infeasibility residual
    U = UtilityMatrix(("good", "bad"), states3, [[2, 2, 2], [1, 1, 1]])
    S = LinearSystem(states3, ())
    rep = e_admissible(U, S)
    assert rep.admissible_actions == ("good",)
    entry = rep.entry("bad")
    assert not entry.admissible
    assert entry.certificate is not None and entry.certificate > 1e-8


def test_tol_and_certificate_mean_the_same_on_every_representation():
    """Admissible iff the best margin is >= -tol, certificate = -margin,
    whether the set is finite, a polytope, a hull or a family."""
    coin = coin_space(1)
    p, q = iid_coin(0.3, 1), iid_coin(0.6, 1)

    def reports(U, tol):
        return [
            e_admissible(U, VertexSet((p, q)), tol),
            e_admissible(U, LinearSystem(coin, ()), tol),
            e_admissible_over_hull(U, [p, q], tol),
            e_admissible(U, coin_family(0.3, 0.6, 1), tol),
        ]

    close = UtilityMatrix(("x", "y"), coin, [[1, 1], [0.9, 0.9]])
    for rep in reports(close, 0.5):
        assert rep.admissible_actions == ("x", "y")
        assert rep.entry("y").certificate == pytest.approx(0.1, abs=1e-9)
    for rep in reports(close, 0.05):
        assert rep.admissible_actions == ("x",)
    dominated = UtilityMatrix(("good", "bad"), coin, [[2, 2], [1, 1]])
    for rep in reports(dominated, 1e-8):
        assert rep.admissible_actions == ("good",)
        assert rep.entry("bad").witness is None
        assert rep.entry("bad").certificate == pytest.approx(1.0, abs=1e-9)


def test_polytope_and_hull_admissibility_build_one_program_per_call(monkeypatch):
    space = simple_space(*(f"w{j}" for j in range(8)))
    rng = np.random.default_rng(8)
    box = interval_to_linear_system(IntervalDistribution(space, np.full(8, 0.05), np.full(8, 0.3)))
    U = UtilityMatrix(tuple(f"a{i}" for i in range(8)), space, rng.uniform(0, 5, size=(8, 8)))
    members = [make_distribution(space, rng.dirichlet(np.ones(8))) for _ in range(5)]
    built = []
    init = linprog.PreparedLp.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linprog.PreparedLp, "__init__", counting_init)
    assert len(e_admissible(U, box).admissible_actions) > 1
    assert len(built) == 1
    assert e_admissible_over_hull(U, members).admissible_actions
    assert len(built) == 2


def test_single_action_always_admissible(states3, opinions):
    U = UtilityMatrix(("only",), states3, [[1.0, 2.0, 3.0]])
    assert e_admissible(U, VertexSet(opinions)).admissible_actions == ("only",)


def test_family_admissibility_witness_attains_tie(two_tosses):
    # eu(heads) - eu(tails) = 8p - 4: heads-bet is optimal only at p = 1/2,
    # the upper end of the range
    U = UtilityMatrix(
        ("heads-bet", "tails-bet"), two_tosses, [[4, 1, 1, 0], [0, 1, 1, 4]]
    )
    rep = e_admissible(U, coin_family(0.1, 0.5))
    assert rep.admissible_actions == ("heads-bet", "tails-bet")
    w = rep.entry("heads-bet").witness
    assert w.allclose(iid_coin(0.5, 2), tol=1e-12)
    assert expected_utility("heads-bet", w, U) == pytest.approx(
        expected_utility("tails-bet", w, U), abs=1e-12
    )


def test_family_admissibility_excludes_never_optimal(two_tosses):
    # the middle action loses to one of the outer bets at every p
    U = UtilityMatrix(
        ("heads-bet", "never", "tails-bet"),
        two_tosses,
        [[4, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 4]],
    )
    rep = e_admissible(U, coin_family(0.05, 0.95))
    assert "never" not in rep.admissible_actions


def test_optimal_actions_examples(matrix3, states3):
    group = [
        make_distribution(states3, [1 / 8, 3 / 4, 1 / 8]),
        make_distribution(states3, [1 / 4, 1 / 2, 1 / 4]),
        make_distribution(states3, [3 / 8, 3 / 8, 1 / 4]),
    ]
    mix = mixture([1 / 8, 1 / 8, 3 / 4], group)
    assert optimal_actions(mix, matrix3) == ("a2",)
    outside = make_distribution(states3, [1 / 3, 1 / 2, 1 / 6])
    assert optimal_actions(outside, matrix3) == ("a3",)


def test_optimal_actions_reports_ties(states3):
    U = UtilityMatrix(("x", "y"), states3, [[1, 2, 3], [1, 2, 3]])
    p = make_distribution(states3, [0.2, 0.3, 0.5])
    assert optimal_actions(p, U) == ("x", "y")


def test_optimal_actions_affine_invariance(states3, matrix3, rng):
    for _ in range(25):
        p = make_distribution(states3, rng.dirichlet(np.ones(3)))
        alpha = rng.uniform(0.1, 5.0)
        beta = rng.uniform(-10, 10)
        U2 = UtilityMatrix(matrix3.actions, states3, alpha * matrix3.u + beta)
        assert optimal_actions(p, matrix3) == optimal_actions(p, U2)


def test_group_minimax_values(matrix3, states3):
    group = [
        make_distribution(states3, [1 / 8, 3 / 4, 1 / 8]),
        make_distribution(states3, [1 / 4, 1 / 2, 1 / 4]),
        make_distribution(states3, [3 / 8, 3 / 8, 1 / 4]),
    ]
    gm = group_minimax(matrix3, group)
    assert gm.winner == "a3"
    assert gm.max_loss("a1") == pytest.approx(1.25, abs=1e-9)
    assert gm.max_loss("a2") == pytest.approx(0.8125, abs=1e-9)
    assert gm.max_loss("a3") == pytest.approx(0.25, abs=1e-9)


def test_group_minimax_single_member(matrix3, states3):
    p = make_distribution(states3, [1 / 8, 3 / 4, 1 / 8])
    gm = group_minimax(matrix3, [p])
    assert gm.winner in optimal_actions(p, matrix3)
    assert gm.max_loss(gm.winner) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(EmptyGroupError):
        group_minimax(matrix3, [])


def test_pareto_flags(matrix3, states3):
    group = [
        make_distribution(states3, [1 / 8, 3 / 4, 1 / 8]),
        make_distribution(states3, [1 / 4, 1 / 2, 1 / 4]),
        make_distribution(states3, [3 / 8, 3 / 8, 1 / 4]),
    ]
    flags = pareto_optimal(matrix3, group)
    assert flags == {"a1": False, "a2": True, "a3": True}


def test_pareto_identical_actions_all_optimal(states3):
    U = UtilityMatrix(("x", "y"), states3, [[1, 2, 3], [1, 2, 3]])
    p = make_distribution(states3, [0.2, 0.3, 0.5])
    assert pareto_optimal(U, [p]) == {"x": True, "y": True}


def test_pareto_strictly_dominated_row(states3):
    U = UtilityMatrix(("good", "bad"), states3, [[2, 2, 2], [1, 1, 1]])
    members = [
        make_distribution(states3, [0.5, 0.25, 0.25]),
        make_distribution(states3, [0.1, 0.8, 0.1]),
    ]
    assert pareto_optimal(U, members) == {"good": True, "bad": False}


def test_minimax_winner_is_pareto_optimal(rng, states3):
    for _ in range(500):
        n_actions = int(rng.integers(2, 6))
        n_members = int(rng.integers(1, 6))
        U = UtilityMatrix(
            tuple(f"a{i}" for i in range(n_actions)),
            states3,
            rng.uniform(0, 10, size=(n_actions, 3)),
        )
        members = [make_distribution(states3, rng.dirichlet(np.ones(3))) for _ in range(n_members)]
        gm = group_minimax(U, members)
        assert pareto_optimal(U, members)[gm.winner]


def test_vertex_admissible_subset_of_hull_admissible(rng, states3):
    for _ in range(200):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        U = UtilityMatrix(
            tuple(f"a{i}" for i in range(m)), states3, rng.uniform(0, 5, size=(m, 3))
        )
        members = [make_distribution(states3, rng.dirichlet(np.ones(3))) for _ in range(k)]
        direct = set(e_admissible(U, VertexSet(tuple(members))).admissible_actions)
        hull = set(e_admissible_over_hull(U, members).admissible_actions)
        assert direct <= hull


def test_linear_system_admissibility_matches_grid_oracle(rng, states3):
    """Feasibility LPs agree with a dense simplex grid scan (step 0.01)
    up to grid resolution: anything the grid finds, the LP must find."""
    grid = []
    step = 0.01
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for x in ticks:
        for y in ticks:
            z = 1.0 - x - y
            if z >= -1e-12:
                grid.append((x, y, max(z, 0.0)))
    grid = np.array(grid)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        U = UtilityMatrix(
            tuple(f"a{i}" for i in range(m)), states3, rng.uniform(0, 5, size=(m, 3))
        )
        x0 = rng.dirichlet(np.ones(3))
        rows = []
        for _ in range(2):
            a = rng.normal(size=3)
            rows.append(constraint(a, "<=", float(a @ x0 + rng.uniform(0.05, 0.4))))
        S = LinearSystem(states3, tuple(rows))
        lp_answer = set(e_admissible(U, S).admissible_actions)
        feasible = grid[
            np.all(
                np.stack([grid @ c.coeffs <= c.rhs + 1e-12 for c in rows]), axis=0
            )
        ]
        eu = feasible @ U.u.T
        best = eu.max(axis=1)
        grid_answer = {
            U.actions[i]
            for i in range(m)
            if bool(np.any(eu[:, i] >= best - 1e-12))
        }
        assert grid_answer <= lp_answer
        # conversely, an LP-admissible action must come within the grid's
        # resolution of optimal somewhere (utilities <= 5, step 0.01)
        near = {
            U.actions[i]
            for i in range(m)
            if bool(np.any(eu[:, i] >= best - 0.15))
        }
        assert lp_answer <= near


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_box_plus_row_admissibility_matches_the_hull_of_its_vertices(seed):
    """A box on 3 to 5 atoms (some lower ends 0) cut by one row on a few
    atoms, as the interval systems whose lower bounds leave the tableau:
    e_admissible on the system and e_admissible_over_hull on its vertices
    (``oracles.vertices_of``, which never touches the kernel) give the same
    flags and certificates, and every witness lies in the system."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    space = simple_space(*(f"w{j}" for j in range(n)))
    c = rng.dirichlet(np.full(n, 2.0))  # a member, strictly inside unless a lower end is 0
    lo = np.maximum(c - rng.uniform(0.02, 0.2, n), 0.0) * (rng.random(n) < 0.8)
    hi = np.minimum(c + rng.uniform(0.02, 0.3, n), 1.0)
    S = interval_to_linear_system(IntervalDistribution(space, lo, hi))
    cut = (rng.random(n) < 0.5).astype(float)
    if cut.any():
        S = LinearSystem(space, (*S.constraints, constraint(cut, "<=", float(cut @ c) + rng.uniform(0.01, 0.2))))
    k = int(rng.integers(2, 7))
    U = UtilityMatrix(tuple(f"a{i}" for i in range(k)), space, rng.normal(size=(k, n)))
    vertices = []
    for v in vertices_of(n, S.full_constraints()):
        if not any(np.abs(v - u).max() <= 1e-9 for u in vertices):
            vertices.append(v)
    direct = e_admissible(U, S)
    hull = e_admissible_over_hull(U, [make_distribution(space, v) for v in vertices])
    assert direct.admissible_actions == hull.admissible_actions
    for d, h in zip(direct.entries, hull.entries):
        assert d.certificate == pytest.approx(h.certificate, abs=1e-9)
        if d.admissible:
            assert S.contains(d.witness)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_lp_admissibility_keeps_one_member_per_witness(seed, hull):
    """On a random polytope (2 to 5 rows through a member, on 3 to 8
    atoms) or the hull of 1 to 6 members, with 1 to 9 actions, some of
    them repeated: the flags are those of the former program with one
    member per action, ``oracles.lp_admissible_per_action``, and the
    witnesses and certificates agree with it (bit for bit on a system,
    whose members are the program's own witnesses). One Distribution is
    built per distinct witness of the program, and entries whose witnesses
    are equal share it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    space = simple_space(*(f"w{j}" for j in range(n)))
    k = int(rng.integers(1, 10))
    u = rng.normal(size=(k, n))
    u[rng.random(k) < 0.2] = u[0]
    U = UtilityMatrix(tuple(f"a{i}" for i in range(k)), space, u)
    if hull:
        V = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 7)))
        members = [make_distribution(space, v) for v in V]
        rows = (np.ones((1, len(V))), np.ones(1), np.zeros(1))
    else:
        x0 = rng.dirichlet(np.ones(n))
        cuts = []
        for _ in range(int(rng.integers(2, 6))):
            a = rng.normal(size=n)
            cuts.append(constraint(a, "<=", float(a @ x0) + rng.uniform(0.0, 0.3)))
        S = LinearSystem(space, tuple(cuts))
        V, rows = np.eye(n), S._prepared._rows
    solved, solve_many = [], linprog.PreparedLp._solve_many

    def spy(prepared, objectives, sense):
        solved.append(solve_many(prepared, objectives, sense))
        return solved[-1]

    with (
        mock.patch.object(linprog.PreparedLp, "_solve_many", spy),
        mock.patch.object(decisions, "make_distribution", wraps=make_distribution) as made,
    ):
        new = e_admissible_over_hull(U, members) if hull else e_admissible(U, S)
    assert made.call_count == len(solved[0][1])
    old = lp_admissible_per_action(U, rows, V, TAU_LP)
    assert new.admissible_actions == old.admissible_actions
    for e, o in zip(new.entries, old.entries):
        assert e.certificate == pytest.approx(o.certificate, abs=1e-14)
        if e.admissible and hull:
            assert e.witness.probs == pytest.approx(o.witness.probs, abs=1e-14)
        elif e.admissible:
            assert np.array_equal(e.witness.probs, o.witness.probs)
    shown = [e.witness for e in new.entries if e.admissible]
    assert len({id(w) for w in shown}) == len({w.probs.tobytes() for w in shown})
