"""The start bank of a LinearSystem's prepared program.

``LinearSystem.extremes`` and ``ranges`` start phase 2 from the bank's
tableau whose solution scores best on the objective: the final tableau of
max p_j for some atom j, built once on first use. These tests check that
the bank changes no answer, that its contents do not depend on the calls
made before, and that no other call builds it. ``LinearSystem.sample``
takes no bank: its objectives are one lockstep pass from the phase-1
tableau.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal import (
    Event, LinearSystem, UtilityMatrix, conditionalize, constraint, e_admissible, fractional_bounds, simple_space,
)
from credal import linprog
from credal.linprog import PreparedLp, _Tableau
from oracles import sample_by_optimize, start_bank_by_simplex

KINDS = ("polytope", "box", "equality", "shifted", "point")


def bank_system(seed: int, kind: str):
    """(S, W): a LinearSystem on 2 to 7 atoms and 1 to 6 weight rows, half of
    them real and half indicators. "polytope": rows through a random point,
    some tight there, some repeated, each scaled by 10^-3 to 10^3. "box":
    bounds around the point with some lower ends at 0. "equality": a
    polytope with one or two = rows. "shifted": a polytope with positive
    lower bounds p_j >= l_j, which leave the tableau. "point": = rows that
    leave one member."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    if kind == "box":
        w = rng.uniform(0.0, 0.4, n)
        lo = np.where(rng.random(n) < 0.4, 0.0, np.maximum(x0 - w, 0.0))
        for j, e in enumerate(np.eye(n)):
            rows += [constraint(e, ">=", lo[j]), constraint(e, "<=", min(x0[j] + w[j], 1.0))]
    elif kind == "point":
        rows = [constraint(e, "=", x0[j]) for j, e in enumerate(np.eye(n)[:-1])]
    else:
        for _ in range(int(rng.integers(1, 5))):
            a = rng.normal(size=n)
            rel = str(rng.choice(["<=", ">="]))
            margin = 0.0 if rng.random() < 0.3 else rng.uniform(0.01, 0.3)
            rows.append(constraint(a, rel, float(a @ x0) + (margin if rel == "<=" else -margin)))
        if kind == "equality":
            rows += [constraint(a, "=", float(a @ x0)) for a in rng.normal(size=(int(rng.integers(1, 3)), n))]
        if kind == "shifted":
            for j in np.flatnonzero(rng.random(n) < 0.5):
                rows.append(constraint(np.eye(n)[j], ">=", x0[j] * rng.uniform(0.2, 0.9)))
        rows += [rows[i] for i in rng.integers(0, len(rows), int(rng.integers(0, 3)))]
        rows = [constraint(c.coeffs * 10.0 ** k, c.relation, c.rhs * 10.0 ** k)
                for c, k in zip(rows, rng.integers(-3, 4, len(rows)))]
    S = LinearSystem(simple_space(*(f"w{j}" for j in range(n))), tuple(rows))
    k = int(rng.integers(1, 7))
    W = np.concatenate([rng.normal(size=(k - k // 2, n)), rng.integers(0, 2, size=(k // 2, n))])
    return S, W


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
def test_the_bank_changes_no_answer(seed, kind):
    """Each value of ``extremes`` and ``ranges`` equals ``optimize`` from
    the phase-1 tableau to 1e-12, and each witness of ``extremes`` lies in
    the system and attains its value."""
    S, W = bank_system(seed, kind)
    lows, highs = S.ranges(W)
    for w, low, high in zip(W, lows, highs):
        lo, lo_member, hi, hi_member = S.extremes(w)
        for value, member, ranged, sense in ((lo, lo_member, low, "min"), (hi, hi_member, high, "max")):
            cold = S._prepared.optimize(w, sense)
            assert cold.status == "OPTIMAL"
            assert value == pytest.approx(cold.value, abs=1e-12)
            assert ranged == pytest.approx(cold.value, abs=1e-12)
            assert S.contains(member)
            assert w @ member.probs == pytest.approx(value, abs=1e-12)


def answers(S: LinearSystem, W: np.ndarray, ranges_first: bool):
    """Every value and witness of ``extremes`` and ``ranges`` over W, as bytes."""
    first = S.ranges(W) if ranges_first else None
    found = [S.extremes(w) for w in W]
    ranged = first if ranges_first else S.ranges(W)
    return ([lo for lo, _, hi, _ in found], [hi for lo, _, hi, _ in found],
            [m.probs.tobytes() for f in found for m in f[1::2]], [r.tobytes() for r in ranged])


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), ranges_first=st.booleans())
@settings(max_examples=60, deadline=None)
def test_answers_do_not_depend_on_the_calls_before(seed, kind, ranges_first):
    """``extremes`` and ``ranges`` give bit-identical values and witnesses
    on a fresh copy of the system (whose bank the first of them builds) and
    on the system after other queries."""
    S, W = bank_system(seed, kind)
    first = answers(S, W, ranges_first)
    rng = np.random.default_rng(seed)
    S.optimize(rng.normal(size=len(W[0])), "min")
    S.sample(3, rng)
    conditionalize(S, Event.from_indices(S.space, range(S.space.size)))
    S.ranges(rng.normal(size=(5, len(W[0]))))
    S.extremes(rng.normal(size=len(W[0])))
    assert answers(S, W, ranges_first) == first
    assert answers(LinearSystem(S.space, S.constraints), W, not ranges_first) == first


def seeded_polytope(n: int, seed: int) -> LinearSystem:
    """The simplex cut by n // 2 + 2 random <= rows, each 0.02 to 0.2 past a
    random point."""
    rng = np.random.default_rng(seed)
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    for _ in range(n // 2 + 2):
        a = rng.normal(size=n)
        rows.append(constraint(a, "<=", float(a @ x0) + rng.uniform(0.02, 0.2)))
    return LinearSystem(simple_space(*(f"w{j}" for j in range(n))), tuple(rows))


def test_only_the_first_extremes_or_ranges_call_builds_the_bank():
    """Construction builds no bank. The first ``extremes`` call runs n + 2
    simplex runs: one per start tableau, then its min and its max. Later
    ``extremes`` calls run two, and ``ranges`` none outside the lockstep,
    on the same bank. On a fresh system ``ranges`` builds it instead."""
    n = 10
    S, T = seeded_polytope(n, 10), seeded_polytope(n, 10)
    assert S._prepared._bank is None
    runs, run = [], linprog._run_simplex
    rng = np.random.default_rng(0)
    with mock.patch.object(linprog, "_run_simplex", lambda *args: runs.append(1) or run(*args)):
        S.extremes(rng.normal(size=n))
        assert len(runs) == n + 2
        bank = S._prepared._bank
        assert len(bank[0]) == len(bank[1]) == len(bank[2]) == n
        assert not bank[0].flags.writeable and not bank[1].flags.writeable
        S.extremes(rng.normal(size=n))
        S.ranges(rng.normal(size=(20, n)))
        assert len(runs) == n + 4 and S._prepared._bank is bank
        T.ranges(rng.normal(size=(20, n)))
        assert len(runs) == 2 * n + 4
    for a, b in zip(T._prepared._bank, bank):
        assert np.array_equal(a, b)


def test_other_calls_never_build_the_bank():
    """Fractional bounds, conditioning, E-admissibility, sampling and the
    prepared program's own ``optimize`` and ``optimize_many`` each run once
    per program, so none of them builds a bank."""
    n = 6
    S = seeded_polytope(n, 3)
    e = Event.from_indices(S.space, [0, 1, 2])
    rng = np.random.default_rng(3)
    U = UtilityMatrix(("a", "b", "c"), S.space, rng.normal(size=(3, n)))
    with mock.patch.object(PreparedLp, "_starts", side_effect=AssertionError("built a start bank")):
        fractional_bounds(S, Event.from_indices(S.space, [0]), e, "min")
        box = conditionalize(S, e)
        e_admissible(U, S)
        S.sample(4, rng)
        S._prepared.optimize(rng.normal(size=n), "max")
        S._prepared.optimize_many(rng.normal(size=(8, n)), "min")
    assert S._prepared._bank is None and box._prepared._bank is None


def test_the_bank_takes_fewer_pivots_over_every_indicator():
    """On a seeded 10-atom polytope, ``extremes`` of all 2^n - 2 indicators
    makes 2851 pivots from the bank, building the bank included, where
    ``optimize`` from the phase-1 tableau makes 8668: 1.39 and 4.24 per LP."""
    n = 10
    S = seeded_polytope(n, 10)
    masks = np.arange(1, 2**n - 1)
    indicators = (masks[:, None] >> np.arange(n) & 1).astype(float)
    made, pivot = [], _Tableau.pivot
    with mock.patch.object(_Tableau, "pivot", lambda tab, *args: made.append(1) or pivot(tab, *args)):
        for w in indicators:
            S.extremes(w)
        warm = len(made)
        made.clear()
        for w in indicators:
            S._prepared.optimize(w, "min")
            S._prepared.optimize(w, "max")
        cold = len(made)
    assert (warm, cold) == (2851, 8668)


@pytest.mark.parametrize("kind", KINDS)
def test_the_bank_is_n_phase2_runs_with_checked_witnesses(kind):
    """On 30 seeded systems of each kind, the bank is n ``_phase2`` runs of
    max x_j, bit-identical to the former bank of n simplex runs of its own
    (``oracles.start_bank_by_simplex``), and every row of X passes the
    program's witness check."""
    for seed in range(30):
        prepared = bank_system(seed, kind)[0]._prepared
        runs, phase2 = [], PreparedLp._phase2
        with mock.patch.object(PreparedLp, "_phase2", lambda *args: runs.append(1) or phase2(*args)):
            bank = prepared._starts()
        assert len(runs) == prepared.n_vars
        for built, former in zip(bank, start_bank_by_simplex(prepared)):
            assert built.tobytes() == former.tobytes()
        assert prepared._checked(bank[2]) is bank[2]


@pytest.mark.parametrize("kind", KINDS)
def test_sample_is_one_lockstep_pass(kind):
    """``LinearSystem.sample`` gives the members of the former loop of one
    ``optimize`` per objective (``oracles.sample_by_optimize``) to 1e-12 and
    leaves the generator where that loop left it, from one ``_solve_many``
    call and no ``optimize`` call; k = 0 gives no member."""
    for seed in range(10):
        S = bank_system(seed, kind)[0]
        former_rng = np.random.default_rng(seed)
        former = sample_by_optimize(S, 30, former_rng)
        calls, solve_many = [], PreparedLp._solve_many
        rng = np.random.default_rng(seed)
        with mock.patch.object(PreparedLp, "_solve_many", lambda *args: calls.append(1) or solve_many(*args)), \
                mock.patch.object(PreparedLp, "optimize", side_effect=AssertionError("called optimize")):
            members = S.sample(30, rng)
        assert len(calls) == 1
        np.testing.assert_allclose([m.probs for m in members], [m.probs for m in former], rtol=0, atol=1e-12)
        assert rng.random() == former_rng.random()
        assert S.sample(0, rng) == []
