"""The exact family kernel against an independent grid oracle.

Every family answer (envelopes, bet verdicts, E-admissibility, membership)
is decided from polynomial roots; the oracle evaluates closed-form members
on a 1e-4 grid that closes in on the interval ends. An exact extremum is
at least as extreme as any grid point and within FAMILY_TOL of the grid's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_distance, grid_margins, grid_range

from credal import (
    BetBook,
    Event,
    FamilyBranch,
    ParametricFamily,
    Ticket,
    UtilityMatrix,
    booked_in_expectation,
    coin_family,
    e_admissible,
    envelope,
    iid_coin,
    make_distribution,
    payoff_table,
)
from credal.cases import FAMILY_TOL
from credal.errors import EmptySetError, ZeroEvidenceError

SLACK = 1e-12


@st.composite
def ranges(draw, lo, hi):
    # adding 0.0 turns -0.0 into 0.0, so that st.floats(a, b) accepts the pair
    a, b = sorted(x + 0.0 for x in draw(st.tuples(st.floats(lo, hi), st.floats(lo, hi))))
    shape = draw(st.sampled_from(["free", "from-end", "to-end", "full", "point"]))
    if shape == "from-end":
        a = lo
    elif shape == "to-end":
        b = hi
    elif shape == "full":
        a, b = lo, hi
    elif shape == "point":
        b = a
    return a, b


@st.composite
def families(draw):
    generator = draw(st.sampled_from(["iid-coin", "die-bias", "independent-square"]))
    if generator == "iid-coin":
        a, b = draw(ranges(0.0, 1.0))
        n = draw(st.sampled_from(range(2, 11)))
        branches = (FamilyBranch(generator, a, b, (("n_tosses", n),)),)
    elif generator == "die-bias":
        a, b = draw(ranges(-1 / 48, 1 / 48))
        which = draw(st.sampled_from([("favor-2",), ("favor-1",), ("favor-2", "favor-1")]))
        branches = tuple(FamilyBranch(generator, a, b, (("branch", w),)) for w in which)
    else:
        a, b = draw(ranges(0.0, 1.0))
        branches = (FamilyBranch(generator, a, b),)
    space = ParametricFamily(branches).space
    conditioning = None
    if draw(st.booleans()):
        conditioning = draw(subsets(space, nonempty=True))
    return ParametricFamily(branches, conditioning)


@st.composite
def subsets(draw, space, nonempty=False):
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.nonzero(rng.random(space.size) < density)[0].tolist()
    if nonempty and not idx:
        idx = [int(rng.integers(space.size))]
    return Event.from_indices(space, idx)


def _grid_reference(fam, weights):
    """The grid's (min, max) of weights . p; None, checked against the
    library, when conditioning leaves the grid no member."""
    ref = grid_range(fam, weights)
    if ref is None:
        with pytest.raises(EmptySetError):
            envelope(fam, Event.full(fam.space))
    return ref


def _assert_range(lower, upper, ref, scale=1.0):
    assert lower <= ref[0] + SLACK * scale
    assert upper >= ref[1] - SLACK * scale
    assert abs(lower - ref[0]) <= FAMILY_TOL * scale
    assert abs(upper - ref[1]) <= FAMILY_TOL * scale


@given(fam=families(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_envelope_matches_grid(fam, data):
    event = data.draw(subsets(fam.space))
    ref = _grid_reference(fam, event.indicator())
    if ref is None:
        return
    env = envelope(fam, event)
    _assert_range(env.lower, env.upper, ref)
    assert env.lower_witness.p(event) == pytest.approx(env.lower, abs=SLACK)
    assert env.upper_witness.p(event) == pytest.approx(env.upper, abs=SLACK)


@given(fam=families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_booked_matches_grid(fam, data):
    tickets = []
    for _ in range(data.draw(st.integers(1, 3))):
        payout = data.draw(st.integers(1, 20000))
        tickets.append(Ticket(
            data.draw(st.sampled_from(["buy", "sell"])),
            data.draw(st.integers(0, payout)),
            payout,
            data.draw(subsets(fam.space)),
        ))
    book = BetBook(tuple(tickets))
    agent = payoff_table(book).agent
    ref = _grid_reference(fam, agent)
    if ref is None:
        return
    verdict = booked_in_expectation(book, fam)
    scale = max(1.0, float(np.abs(agent).max()))
    _assert_range(verdict.min_agent_expectation, verdict.max_agent_expectation, ref, scale)
    assert verdict.witness.probs @ agent == pytest.approx(
        verdict.max_agent_expectation, abs=SLACK * scale
    )


@given(fam=families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_e_admissible_matches_grid(fam, data):
    k = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    U = np.round(np.random.default_rng(seed).uniform(0, 5, size=(k, fam.space.size)), 2)
    if _grid_reference(fam, U[0]) is None:
        return
    actions = tuple(f"a{i}" for i in range(k))
    rep = e_admissible(UtilityMatrix(actions, fam.space, U), fam)
    margins = grid_margins(fam, U)
    tol = 1e-8
    must = {a for a, m in zip(actions, margins) if m >= -tol}
    may = {a for a, m in zip(actions, margins) if m >= -tol - FAMILY_TOL}
    assert must <= set(rep.admissible_actions) <= may
    for entry in rep.entries:
        if entry.admissible:
            eu = U @ entry.witness.probs
            assert eu[actions.index(entry.action)] >= eu.max() - tol - SLACK


@given(fam=families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_contains_matches_grid(fam, data):
    bi = data.draw(st.integers(0, len(fam.branches) - 1))
    b = fam.branches[bi]
    theta = data.draw(st.floats(b.lo, b.hi))
    try:
        member = fam.member(bi, theta)
    except ZeroEvidenceError:
        return
    assert fam.contains(member)
    seed = data.draw(st.integers(0, 2**32 - 1))
    other = make_distribution(
        fam.space, np.random.default_rng(seed).dirichlet(np.ones(fam.space.size))
    )
    tol = 10 ** data.draw(st.floats(-9, -2))
    dist = grid_distance(fam, other.probs)
    inside = fam.contains(other, tol)
    if dist <= tol:
        assert inside
    if inside:
        assert dist <= tol + FAMILY_TOL


@pytest.mark.parametrize("n", range(2, 7))
def test_contains_default_tolerance(n):
    fam = coin_family(0.2, 0.6, n)
    thetas = [0.2, 0.6, *np.random.default_rng(n).uniform(0.2, 0.6, size=8)]
    for theta in thetas:
        assert fam.contains(iid_coin(float(theta), n))
    assert not fam.contains(iid_coin(0.19, n))
    assert not fam.contains(iid_coin(0.61, n))


def _coin(lo, hi, n, conditioning=None):
    fam = coin_family(lo, hi, n)
    if conditioning is None:
        return fam
    return ParametricFamily(fam.branches, Event.of(fam.space, *conditioning))


@pytest.mark.parametrize(
    "fam, atoms",
    [
        # the evidence vanishes at the closed end of the range
        (_coin(0.0, 0.3, 3, ("HHH", "HHT", "HTH")), ("HHH",)),
        (_coin(0.7, 1.0, 3, ("TTT", "HTT")), ("TTT",)),
        (_coin(0.6, 1.0, 4, ("HTTT", "THTT", "TTHT", "TTTH", "HHTT")), ("HTTT", "HHTT")),
        # a single point
        (_coin(0.3, 0.3, 5, None), ("HHTTT", "TTTTT")),
        # an event the conditioning excludes: N is identically 0
        (_coin(0.1, 0.9, 2, ("HH", "HT")), ("TT",)),
    ],
)
def test_envelope_edge_cases(fam, atoms):
    event = Event.of(fam.space, *atoms)
    env = envelope(fam, event)
    _assert_range(env.lower, env.upper, grid_range(fam, event.indicator()))


def test_envelope_die_faces_with_constant_polynomials():
    from credal import die_family

    fam = die_family()
    for faces in (("3",), ("3", "4", "5", "6"), ("1", "3"), ("2", "6")):
        event = Event.of(fam.space, *faces)
        env = envelope(fam, event)
        _assert_range(env.lower, env.upper, grid_range(fam, event.indicator()))
