import numpy as np
import pytest

from oracles import vertices_of

from credal import (
    BetBook,
    Event,
    FamilyBranch,
    LinearSystem,
    ParametricFamily,
    Ticket,
    UtilityMatrix,
    VertexSet,
    booked_in_expectation,
    coin_family,
    coin_space,
    constraint,
    die_bias,
    die_family,
    e_admissible,
    envelope,
    iid_coin,
    independent_square,
    independent_square_family,
    interval_to_linear_system,
    make_distribution,
    mobius_report,
    simple_space,
)
from credal.errors import (
    EmptySetError,
    InfeasibleSystemError,
    ParamRangeError,
    SpaceMismatchError,
    ZeroEvidenceError,
)
from credal.cases import FAMILY_TOL
from credal.inference import lower_envelope_function
from credal.sets import IntervalDistribution
from credal.tolerances import TAU_LP


def test_vertex_set_validation():
    with pytest.raises(EmptySetError):
        VertexSet(())
    with pytest.raises(SpaceMismatchError):
        VertexSet((iid_coin(0.5, 2), iid_coin(0.5, 3)))


def test_linear_system_infeasible():
    sp = simple_space("a", "b")
    rows = (
        constraint(np.array([1.0, 0.0]), ">=", 0.6),
        constraint(np.array([0.0, 1.0]), ">=", 0.6),
    )
    with pytest.raises(InfeasibleSystemError):
        LinearSystem(sp, rows)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_linear_system_contains_ignores_row_scale(scale):
    sp = simple_space("a", "b")
    S = LinearSystem(sp, (constraint([scale, 0.0], "<=", 0.5 * scale),))
    assert S.contains(make_distribution(sp, [0.5 + 5e-9, 0.5 - 5e-9]))
    assert not S.contains(make_distribution(sp, [0.505, 0.495]))


def test_interval_distribution_validation():
    sp = simple_space("a", "b")
    with pytest.raises(ValueError):
        IntervalDistribution(sp, [0.5, 0.2], [0.4, 0.9])  # lo > hi
    with pytest.raises(ValueError):
        IntervalDistribution(sp, [-0.1, 0.0], [0.5, 0.5])
    with pytest.raises(InfeasibleSystemError):
        IntervalDistribution(sp, [0.6, 0.6], [1.0, 1.0])  # sum lo > 1
    with pytest.raises(InfeasibleSystemError):
        IntervalDistribution(sp, [0.0, 0.0], [0.3, 0.3])  # sum hi < 1
    for lo, hi in (([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]), ([0.0, 0.0], [np.inf, 1.0])):
        with pytest.raises(ValueError):
            IntervalDistribution(sp, lo, hi)


def test_point_interval_pins_the_unique_member():
    sp = simple_space("a", "b", "c")
    point = [0.2, 0.3, 0.5]
    system = interval_to_linear_system(IntervalDistribution(sp, point, point))
    for j, atom in enumerate(sp.atoms):
        env = envelope(system, Event.of(sp, atom))
        assert env.lower == pytest.approx(point[j], abs=1e-9)
        assert env.upper == pytest.approx(point[j], abs=1e-9)


def test_interval_round_trip_samples_satisfy_bounds(rng):
    sp = simple_space("a", "b", "c", "d")
    iv = IntervalDistribution(sp, [0.1, 0.05, 0.0, 0.2], [0.5, 0.4, 0.35, 0.6])
    system = interval_to_linear_system(iv)
    for member in system.sample(500, rng):
        assert iv.contains(member, tol=1e-7)


def test_family_branch_validation():
    with pytest.raises(ParamRangeError):
        FamilyBranch("unknown-generator", 0.0, 1.0)
    with pytest.raises(ParamRangeError):
        FamilyBranch("iid-coin", 0.5, 0.2)
    with pytest.raises(ParamRangeError):
        FamilyBranch("iid-coin", -0.2, 0.5)  # endpoint outside [0, 1]
    with pytest.raises(EmptySetError):
        ParametricFamily(())
    with pytest.raises(ParamRangeError):
        FamilyBranch("die-bias", -0.03, 0.0)  # eps beyond 1/48
    with pytest.raises(ParamRangeError):
        FamilyBranch("die-bias", 0.0, 0.01, (("branch", "favor-3"),))
    with pytest.raises(ParamRangeError):
        FamilyBranch("independent-square", 0.5, 1.2)
    for n in (0, 2.5):
        with pytest.raises(ParamRangeError):
            FamilyBranch("iid-coin", 0.2, 0.5, (("n_tosses", n),))
    for fam, theta in ((coin_family(0.2, 0.5), 1.5), (die_family(), 0.03),
                       (independent_square_family(0.1, 0.4), -0.1)):
        with pytest.raises(ParamRangeError):
            fam.member(0, theta)


def test_die_family_exposes_both_branches():
    fam = die_family()
    assert len(fam.branches) == 2
    assert fam.contains(die_bias(1 / 48, "favor-2"), tol=1e-9)
    assert fam.contains(die_bias(-1 / 96, "favor-1"), tol=1e-9)
    assert not fam.contains(make_distribution(fam.space, [1 / 6] * 6), tol=1e-9)


def test_family_sampling_stays_in_family(rng):
    fam = coin_family(0.2, 0.4)
    for member in fam.sample(50, rng):
        p = member.prob("HH") ** 0.5
        assert 0.2 - 1e-9 <= p <= 0.4 + 1e-9


def test_family_members_are_the_generator_members():
    """A member is the row of the atom polynomials at the scan value; it
    is the public constructor's distribution, conditioned as the family is."""
    fam = independent_square_family(0.1, 0.4)
    assert fam.member(0, 0.25).allclose(independent_square(0.25))
    die = die_family()
    assert die.member(1, -1 / 96).allclose(die_bias(-1 / 96, "favor-1"))
    coin = coin_family(0.0, 0.5, 3)
    tails = Event.of(coin.space, "TTT")
    conditioned = ParametricFamily(coin.branches, Event.of(coin.space, "HHH", "TTT"))
    assert conditioned.member(0, 0.0).allclose(make_distribution(coin.space, tails.indicator()))
    with pytest.raises(ZeroEvidenceError):
        ParametricFamily(coin.branches, Event.of(coin.space, "HHH")).member(0, 0.0)


def test_family_sample_draws_every_branch(rng):
    """k members come back, each with evidence, drawn from both branches
    in no fixed order."""
    fam = die_family()
    members = fam.sample(400, rng)
    assert len(members) == 400
    favors_2 = [m.prob("2") > m.prob("1") for m in members]
    assert 100 < sum(favors_2) < 300
    assert sum(a != b for a, b in zip(favors_2, favors_2[1:])) > 100
    half = ParametricFamily(coin_family(0.0, 1.0, 1).branches, Event.of(coin_space(1), "H"))
    assert len(half.sample(50, rng)) == 50
    with pytest.raises(EmptySetError):
        ParametricFamily(coin_family(0.0, 0.0, 1).branches, Event.of(coin_space(1), "H")).sample(5, rng)


def test_nonbelief_vertex_set_uses_brute_force_core(rng):
    """Vertices of the 0.15-0.40 box: their envelope equals the box's
    (not a belief function) and the core equals the hull."""
    sp = simple_space("w1", "w2", "w3", "w4")
    rows = []
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        rows.append(constraint(e, ">=", 0.15))
        rows.append(constraint(e, "<=", 0.40))
    rows.append(constraint(np.ones(4), "=", 1.0))
    verts = vertices_of(4, rows)
    assert len(verts) == 12  # permutations of (0.40, 0.30, 0.15, 0.15)
    S = VertexSet(tuple(make_distribution(sp, v) for v in verts))
    rep = mobius_report(S)
    assert not rep.envelope_is_belief
    assert rep.mass_of(*sp.atoms) == pytest.approx(-0.2, abs=1e-9)
    assert rep.set_equals_core is True  # core coincides with the hull


@pytest.mark.parametrize("seed", range(12))
def test_a_coin_segment_agrees_as_a_box_its_ends_and_a_family(seed):
    """coin_family(lo, hi, 1) is the segment of (t, 1 - t) for t in [lo, hi].
    As the 2-atom box LinearSystem, as the VertexSet of its two ends and as
    the family, it gives every event the same envelope, the same lower
    envelope function and the same verdict on a two-ticket book, to
    10 * TAU_LP (FAMILY_TOL for the family). The box and the family admit
    the same actions; the ends, a finite set, admit a subset of them."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
    fam = coin_family(lo, hi, 1)
    space = fam.space
    box = interval_to_linear_system(IntervalDistribution(space, np.array([lo, 1 - hi]), np.array([hi, 1 - lo])))
    ends = VertexSet((fam.member(0, lo), fam.member(0, hi)))
    heads, tails = Event.of(space, "H"), Event.of(space, "T")
    book = BetBook((Ticket("buy", *sorted(map(int, rng.integers(0, 200, 2))), heads),
                    Ticket("sell", *sorted(map(int, rng.integers(0, 200, 2))), tails)))
    U = UtilityMatrix(tuple(f"a{i}" for i in range(5)), space, rng.normal(size=(5, 2)))
    want, admissible = booked_in_expectation(book, box), set(e_admissible(U, box).admissible_actions)
    for S, tol in ((ends, 10 * TAU_LP), (fam, FAMILY_TOL)):
        for e in (Event(space, ()), heads, tails, Event.full(space)):
            got, at = envelope(S, e), envelope(box, e)
            assert (got.lower, got.upper) == pytest.approx((at.lower, at.upper), abs=tol)
        np.testing.assert_allclose(lower_envelope_function(S).values, lower_envelope_function(box).values,
                                   rtol=0, atol=tol)
        verdict = booked_in_expectation(book, S)
        assert verdict.booked == want.booked
        assert (verdict.min_agent_expectation, verdict.max_agent_expectation) == pytest.approx(
            (want.min_agent_expectation, want.max_agent_expectation), abs=tol)
    assert set(e_admissible(U, fam).admissible_actions) == admissible
    assert set(e_admissible(U, ends).admissible_actions) <= admissible
    # the hedge pays 0.55 either way: it is admissible where max(t, 1 - t)
    # <= 0.55 at some t, which the segment may reach and neither end does
    bets = UtilityMatrix(("heads", "tails", "hedge"), space, np.array([[1.0, 0.0], [0.0, 1.0], [0.55, 0.55]]))
    for S, ts in ((box, [np.clip(0.5, lo, hi)]), (fam, [np.clip(0.5, lo, hi)]), (ends, [lo, hi])):
        assert ("hedge" in e_admissible(bets, S).admissible_actions) == (min(max(t, 1 - t) for t in ts) <= 0.55)
