import numpy as np
import pytest

from credal import (
    LinearSystem,
    UtilityMatrix,
    VertexSet,
    coin_family,
    constraint,
    e_admissible,
    e_admissible_over_hull,
    expected_utility,
    group_minimax,
    iid_coin,
    make_distribution,
    mixture,
    optimal_actions,
    pareto_optimal,
)
from credal.errors import EmptyGroupError, SpaceMismatchError, UnknownActionError


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
