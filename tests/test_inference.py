import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal import (
    Event,
    LinearSystem,
    MassFunction,
    VertexSet,
    belief_from_mass,
    check_conditional_independence,
    check_pairwise_independence,
    coin_family,
    conditionalize,
    constraint,
    core_of_belief,
    die_star,
    envelope,
    fractional_bounds,
    hull_membership,
    iid_coin,
    independent_square,
    interval_to_linear_system,
    make_distribution,
    mixture,
    mobius_report,
    simple_space,
)
from credal.errors import (
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    SpaceMismatchError,
    SpaceTooLargeError,
    UnknownVariableError,
    ZeroEvidenceEverywhereError,
)
from credal.inference import lower_envelope_function, mobius_transform, zeta_transform
from credal.linprog import PreparedLp, enumerate_polytope_vertices
from credal.sets import IntervalDistribution


def bounds_system(n, lo, hi):
    sp = simple_space(*(f"w{j+1}" for j in range(n)))
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(constraint(e, ">=", lo))
        rows.append(constraint(e, "<=", hi))
    return LinearSystem(sp, tuple(rows))


# --- envelopes -----------------------------------------------------------


def test_envelope_vertex_set(die6):
    star = die_star()
    env = envelope(star, Event.of(star.space, "1"))
    assert env.lower == pytest.approx(1 / 12, abs=1e-12)
    assert env.upper == pytest.approx(3 / 12, abs=1e-12)
    assert env.lower_witness.prob("1") == pytest.approx(env.lower)


def test_envelope_refuses_an_event_over_another_space(two_tosses):
    other = simple_space("HH", "HT", "TH", "TT")  # same size, different space
    e = Event.of(other, "HH")
    for S in (VertexSet((iid_coin(0.5, 2),)), coin_family(0.1, 0.5),
              LinearSystem(two_tosses, ())):
        with pytest.raises(SpaceMismatchError):
            envelope(S, e)


def test_envelope_full_space_event():
    star = die_star()
    env = envelope(star, Event.full(star.space))
    assert env.lower == pytest.approx(1.0) and env.upper == pytest.approx(1.0)


def test_envelope_linear_system_witnesses():
    S = bounds_system(4, 0.15, 0.40)
    e = Event.of(S.space, "w1")
    env = envelope(S, e)
    assert env.lower == pytest.approx(0.15, abs=1e-9)
    assert env.upper == pytest.approx(0.40, abs=1e-9)
    assert env.lower_witness.p(e) == pytest.approx(0.15, abs=1e-7)
    assert S.contains(env.lower_witness) and S.contains(env.upper_witness)


def test_envelope_coin_family_bounds(two_tosses):
    fam = coin_family(0.1, 0.5)
    expected = {"HH": (0.01, 0.25), "HT": (0.09, 0.25), "TH": (0.09, 0.25), "TT": (0.25, 0.81)}
    for atom, (lo, hi) in expected.items():
        env = envelope(fam, Event.of(two_tosses, atom))
        assert env.lower == pytest.approx(lo, abs=1e-6)
        assert env.upper == pytest.approx(hi, abs=1e-6)


def test_envelope_family_interior_extremum(two_tosses):
    # P(HH or TT) = p^2 + (1-p)^2 has an interior minimum at p = 1/2
    fam = coin_family(0.2, 0.8)
    env = envelope(fam, Event.of(two_tosses, "HH", "TT"))
    assert env.lower == pytest.approx(0.5, abs=1e-6)
    assert env.upper == pytest.approx(0.68, abs=1e-6)


def test_envelope_bounds_cover_samples(rng, two_tosses):
    fam = coin_family(0.1, 0.5)
    S = bounds_system(4, 0.15, 0.40)
    star = die_star()
    for credal, event in (
        (fam, Event.of(two_tosses, "HH", "TH")),
        (S, Event.of(S.space, "w1", "w3")),
        (star, Event.of(star.space, "1", "2")),
    ):
        env = envelope(credal, event)
        for member in credal.sample(1000, rng):
            assert env.lower - 1e-9 <= member.p(event) <= env.upper + 1e-9


# --- conditionalize ------------------------------------------------------


def test_conditionalize_vertex_set_collapses_duplicates(two_tosses):
    a = make_distribution(two_tosses, [0.5, 0.5, 0.0, 0.0])
    b = make_distribution(two_tosses, [0.25, 0.25, 0.25, 0.25])
    out = conditionalize(VertexSet((a, b)), Event.of(two_tosses, "HH", "HT"))
    assert len(out.vertices) == 1
    assert out.dropped == 0
    assert np.allclose(out.vertices[0].probs, [0.5, 0.5, 0.0, 0.0])


def test_conditionalize_star_on_first_two_faces():
    star = die_star()
    e = Event.of(star.space, "1", "2")
    out = conditionalize(star, e)
    values = sorted(v.probs[0] for v in out.vertices)
    assert values == pytest.approx([0.25, 0.75], abs=1e-12)
    for v in out.vertices:
        assert v.p(e) == pytest.approx(1.0)
        assert np.all(v.probs[2:] == 0.0)


def test_conditionalize_singleton_equals_strict_bayes(two_tosses):
    from credal import condition_distribution

    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    e = Event.of(two_tosses, "HH", "HT")
    out = conditionalize(VertexSet((q,)), e)
    assert len(out.vertices) == 1
    assert np.array_equal(out.vertices[0].probs, condition_distribution(q, e).probs)


def test_conditionalize_drops_zero_evidence_vertices(two_tosses):
    a = make_distribution(two_tosses, [1.0, 0.0, 0.0, 0.0])
    b = make_distribution(two_tosses, [0.25, 0.25, 0.25, 0.25])
    e = Event.of(two_tosses, "TT")
    out = conditionalize(VertexSet((a, b)), e)
    assert out.dropped == 1
    assert len(out.vertices) == 1
    with pytest.raises(ZeroEvidenceEverywhereError):
        conditionalize(VertexSet((a,)), e)


def test_conditionalize_linear_system_gives_conditional_box():
    S = bounds_system(4, 0.15, 0.40)
    e = Event.of(S.space, "w1", "w2")
    out = conditionalize(S, e)
    env = envelope(out, Event.of(S.space, "w1"))
    # p(w1 | {w1, w2}) over the box: extremes 0.15/0.55 and 0.40/0.55
    assert env.lower == pytest.approx(0.15 / 0.55, abs=1e-8)
    assert env.upper == pytest.approx(0.40 / 0.55, abs=1e-8)
    out_of_event = envelope(out, Event.of(S.space, "w3"))
    assert out_of_event.upper == pytest.approx(0.0, abs=1e-9)


def test_conditionalize_family_composes(two_tosses):
    fam = coin_family(0.1, 0.5)
    e = Event.of(two_tosses, "HH", "HT", "TH")
    out = conditionalize(fam, e)
    member = out.member(0, 0.3)
    base = iid_coin(0.3, 2)
    assert member.probs[0] == pytest.approx(0.09 / 0.51, abs=1e-12)
    assert member.p(e) == pytest.approx(1.0)
    env = envelope(out, Event.of(two_tosses, "HH"))
    # p^2 / (1 - p(1-p)... ) monotone increasing on [0.1, 0.5]
    assert env.lower == pytest.approx(0.01 / 0.19, abs=1e-6)
    assert env.upper == pytest.approx(0.25 / 0.75, abs=1e-6)


def test_vertex_conditioning_matches_fractional_bounds(rng):
    """Conditioned-vertex envelopes equal fractional bounds over the
    matching box system (linear-fractional extrema sit at vertices)."""
    sp = simple_space("a", "b", "c")
    for _ in range(25):
        lo = rng.uniform(0.0, 0.25, size=3)
        hi = lo + rng.uniform(0.05, 0.5, size=3)
        hi = np.minimum(hi, 1.0)
        if lo.sum() > 1.0 or hi.sum() < 1.0:
            continue
        iv = IntervalDistribution(sp, lo, hi)
        system = interval_to_linear_system(iv)
        verts = _box_simplex_vertices(lo, hi)
        if not verts:
            continue
        members = VertexSet(tuple(make_distribution(sp, v) for v in verts))
        num = Event.of(sp, "a")
        den = Event.of(sp, "a", "b")
        try:
            conditioned = conditionalize(members, den)
        except ZeroEvidenceEverywhereError:
            continue
        env = envelope(conditioned, num)
        lo_frac = fractional_bounds(system, num, den, "min")
        hi_frac = fractional_bounds(system, num, den, "max")
        assert env.lower == pytest.approx(lo_frac, abs=1e-7)
        assert env.upper == pytest.approx(hi_frac, abs=1e-7)


def _box_simplex_vertices(lo, hi):
    """Vertices of {lo <= p <= hi, sum p = 1} by brute force."""
    n = len(lo)
    verts = []
    for tight in itertools.product(*[(0, 1)] * n):
        for free in range(n):
            p = np.array([lo[j] if t == 0 else hi[j] for j, t in enumerate(tight)], float)
            p[free] = 1.0 - (p.sum() - p[free])
            if lo[free] - 1e-12 <= p[free] <= hi[free] + 1e-12 and not any(
                np.allclose(p, v, atol=1e-12) for v in verts
            ):
                verts.append(p)
    return verts


# --- independence checks -------------------------------------------------


def test_ci_passes_on_independence_built_table(xyz_tables):
    _, p_prime = xyz_tables
    rep = check_conditional_independence(p_prime, "X", "Z", "Y", tol=1e-9)
    assert rep.passed
    assert rep.max_violation <= 1e-15


def test_ci_fails_on_exact_mixture(xyz_tables):
    p, p_prime = xyz_tables
    q = mixture([0.5, 0.5], [p, p_prime])
    rep = check_conditional_independence(q, "X", "Z", "Y", tol=1e-9)
    assert not rep.passed
    assert rep.worst_cell == ("x", "~y", "z")
    assert rep.actual == pytest.approx(0.065, abs=1e-12)
    assert rep.product_value == pytest.approx(0.0602118644, abs=1e-9)


def test_ci_flags_printed_table_at_strict_tolerance(xyz_tables):
    p, _ = xyz_tables
    rep = check_conditional_independence(p, "X", "Z", "Y", tol=1e-9)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(3e-4, abs=1e-10)
    assert rep.passed is False and rep.worst_cell == ("x", "~y", "z")
    assert rep.actual == pytest.approx(0.03)
    assert rep.product_value == pytest.approx(0.0294827586, abs=1e-9)


def test_ci_product_distribution_passes(rng, xyz_space):
    px, py, pz = rng.uniform(0.2, 0.8, size=3)
    joint = np.einsum(
        "i,j,k->ijk",
        np.array([px, 1 - px]),
        np.array([py, 1 - py]),
        np.array([pz, 1 - pz]),
    ).ravel()
    d = make_distribution(xyz_space, joint)
    assert check_conditional_independence(d, "X", "Z", "Y", tol=1e-9).passed


def test_ci_requires_factorized_space(die6):
    d = make_distribution(die6, [1 / 6] * 6)
    with pytest.raises(NotFactorizedError):
        check_conditional_independence(d, "X", "Z", "Y")


def test_ci_unknown_variable(xyz_tables):
    _, p_prime = xyz_tables
    with pytest.raises(UnknownVariableError):
        check_conditional_independence(p_prime, "X", "W", "Y")


def test_pairwise_independence_cases(two_tosses):
    assert check_pairwise_independence(iid_coin(0.3, 2), "toss1", "toss2", tol=1e-9).passed
    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    rep = check_pairwise_independence(q, "toss1", "toss2", tol=1e-9)
    assert not rep.passed
    assert rep.worst_cell == ("H", "H")
    assert rep.actual == pytest.approx(0.13)
    assert rep.product_value == pytest.approx(0.09)
    assert check_pairwise_independence(independent_square(0.09), "toss1", "toss2", tol=1e-9).passed


# --- belief functions ----------------------------------------------------


def die_mass(space):
    return MassFunction.from_subsets(
        space,
        {
            ("1",): 1 / 12,
            ("2",): 1 / 12,
            ("1", "2"): 1 / 6,
            ("3",): 1 / 6,
            ("4",): 1 / 6,
            ("5",): 1 / 6,
            ("6",): 1 / 6,
        },
    )


def test_mass_function_validation(die6):
    with pytest.raises(NegativeMassError):
        MassFunction.from_subsets(die6, {("1",): -0.5, ("2",): 1.5})
    with pytest.raises(NotNormalizedError):
        MassFunction.from_subsets(die6, {("1",): 0.4})
    with pytest.raises(NegativeMassError):
        MassFunction.from_subsets(die6, {(): 0.5, ("1",): 0.5})
    big = simple_space(*(f"a{i}" for i in range(21)))
    with pytest.raises(SpaceTooLargeError):
        MassFunction.from_subsets(big, {("a0",): 1.0})


def test_belief_from_die_mass(die6):
    bel = belief_from_mass(die_mass(die6))
    assert bel.of("1") == pytest.approx(1 / 12, abs=1e-15)
    assert bel.of("1", "2") == pytest.approx(1 / 3, abs=1e-15)


def test_vacuous_and_point_mass(die6):
    vac = MassFunction.from_subsets(die6, {tuple(die6.atoms): 1.0})
    bel = belief_from_mass(vac)
    assert bel.of("1", "2", "3") == 0.0
    assert bel.of(*die6.atoms) == pytest.approx(1.0)
    point = MassFunction.from_subsets(die6, {("1",): 1.0})
    belp = belief_from_mass(point)
    assert belp.of("2", "3") == 0.0
    assert belp.of("1", "4") == pytest.approx(1.0)


@given(
    masses=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60)
def test_mobius_zeta_roundtrip(masses, seed):
    rng = np.random.default_rng(seed)
    n = 4
    vec = np.zeros(2**n)
    subsets = rng.integers(1, 2**n, size=len(masses))
    for mask, m in zip(subsets, masses):
        vec[mask] += m
    vec /= vec.sum()
    bel = zeta_transform(vec)
    back = mobius_transform(bel)
    assert np.max(np.abs(back - vec)) <= 1e-10
    assert np.max(np.abs(zeta_transform(back) - bel)) <= 1e-10


def test_mobius_report_bounds_set():
    S_system = bounds_system(4, 0.15, 0.40)
    rep = mobius_report(S_system)
    full = tuple(S_system.space.atoms)
    assert not rep.envelope_is_belief
    assert rep.mass_of(*full) == pytest.approx(-0.2, abs=1e-9)
    assert rep.bel_of("w1") == pytest.approx(0.15, abs=1e-9)
    assert rep.bel_of("w1", "w2") == pytest.approx(0.30, abs=1e-9)
    assert rep.bel_of("w1", "w2", "w3") == pytest.approx(0.60, abs=1e-9)
    assert rep.set_equals_core is True
    # Moebius inversion reconstructs the envelope exactly
    assert np.max(np.abs(zeta_transform(rep.mobius.values) - rep.bel.values)) <= 1e-10


def test_mobius_report_core_roundtrip(die6):
    bel = belief_from_mass(die_mass(die6))
    core = core_of_belief(die6, bel.values)
    rep = mobius_report(core)
    assert rep.envelope_is_belief
    assert rep.set_equals_core is True
    for mask, m in die_mass(die6).masses:
        assert rep.mobius.values[mask] == pytest.approx(m, abs=1e-7)


def test_mobius_report_single_point(states3):
    p = make_distribution(states3, [0.2, 0.3, 0.5])
    rep = mobius_report(VertexSet((p,)))
    assert rep.envelope_is_belief
    singles = sum(rep.mobius.of(a) for a in states3.atoms)
    assert singles == pytest.approx(1.0, abs=1e-12)
    assert rep.set_equals_core is True


def test_mobius_report_star_vs_family():
    """The nonconvexity demonstration: the two-point set has a
    belief-function envelope whose core is the whole hull segment, and
    the fair die sits in the hull without being one of the two points."""
    star = die_star()
    rep = mobius_report(star)
    assert rep.envelope_is_belief
    fair = make_distribution(star.space, [1 / 6] * 6)
    assert hull_membership(fair, list(star.vertices)).inside
    assert not any(np.allclose(v.probs, fair.probs) for v in star.vertices)
    from credal import ParametricFamily, die_family

    fam = die_family()
    for branch in fam.branches:
        assert not ParametricFamily((branch,)).contains(fair, tol=1e-9)


def test_lower_envelope_superadditive_on_disjoint_events(rng):
    for _ in range(15):
        n = 4
        x0 = rng.dirichlet(np.ones(n))
        rows = [
            constraint(rng.normal(size=n), "<=", 0.0) for _ in range(2)
        ]
        rows = [
            constraint(c.coeffs, "<=", float(c.coeffs @ x0 + rng.uniform(0.05, 0.3)))
            for c in rows
        ]
        S = LinearSystem(simple_space("a", "b", "c", "d"), tuple(rows))
        ea = Event.of(S.space, "a")
        eb = Event.of(S.space, "c", "d")
        eab = Event.of(S.space, "a", "c", "d")
        lo_a = envelope(S, ea).lower
        lo_b = envelope(S, eb).lower
        lo_ab = envelope(S, eab).lower
        assert lo_ab >= lo_a + lo_b - 1e-8


# --- one extremes call per subset ------------------------------------------


@pytest.mark.parametrize("n", range(4, 9))
def test_lower_envelope_solves_one_lp_per_subset(monkeypatch, n):
    S = bounds_system(n, 0.05, 0.6)
    senses = []
    optimize = PreparedLp.optimize

    def counted(self, objective, sense):
        senses.append(sense)
        return optimize(self, objective, sense)

    monkeypatch.setattr(PreparedLp, "optimize", counted)
    bel = lower_envelope_function(S)
    assert len(senses) == 2**n - 2
    assert bel.values[1] == pytest.approx(0.05, abs=1e-12)  # {w1}
    assert bel.values[2 ** (n - 1) - 1] == pytest.approx(0.4, abs=1e-12)  # all but w_n


def random_polytope(seed: int) -> LinearSystem:
    """A system on 2 to 5 atoms whose 1 to 3 random rows hold at a random
    distribution with a margin."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.normal(size=n)
        rows.append(constraint(a, "<=", float(a @ x0) + rng.uniform(0.02, 0.3)))
    return LinearSystem(simple_space(*(f"w{j}" for j in range(n))), tuple(rows))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_system_extremes_match_its_vertices(seed):
    S = random_polytope(seed)
    n = S.space.size
    V = np.clip(enumerate_polytope_vertices(n, S.full_constraints()), 0.0, None)
    hull = VertexSet(tuple(make_distribution(S.space, v / v.sum()) for v in V))
    for w in np.random.default_rng([seed, 1]).normal(size=(5, n)):
        got, want = S.extremes(w), hull.extremes(w)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        for value, member in ((got[0], got[1]), (got[2], got[3]),
                              (want[0], want[1]), (want[2], want[3])):
            assert float(member.probs @ w) == pytest.approx(value, abs=1e-9)
            assert S.contains(member)
    np.testing.assert_allclose(
        lower_envelope_function(S).values, lower_envelope_function(hull).values, atol=1e-9
    )
