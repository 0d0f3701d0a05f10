import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conditionalize_by_vertex,
    linear_system_equals_core,
    marginal_vectors,
    vertex_set_equals_core,
    vertex_set_equals_core_by_hulls,
    vertices_of,
)

from credal import (
    Event,
    LinearSystem,
    MassFunction,
    Variable,
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
    product_space,
    simple_space,
)
from credal.errors import (
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    NumericalFailureError,
    SpaceMismatchError,
    SpaceTooLargeError,
    UnknownVariableError,
    ZeroEvidenceEverywhereError,
)
from credal import linprog, sets
from credal.inference import lower_envelope_function, mobius_transform, zeta_transform
from credal.linprog import _stack, enumerate_polytope_vertices
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


def test_conditionalize_refuses_an_event_over_another_space(two_tosses):
    """Every representation, including a constraint system on a space of
    the same size, which used to condition on the foreign event's atoms."""
    S = bounds_system(4, 0.15, 0.40)
    e = Event.of(two_tosses, "HH", "HT")
    for credal in (S, VertexSet((make_distribution(S.space, [0.25] * 4),))):
        with pytest.raises(SpaceMismatchError):
            conditionalize(credal, e)
    with pytest.raises(SpaceMismatchError):
        conditionalize(coin_family(0.1, 0.5), Event.of(S.space, "w1"))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_conditionalize_vertex_set_matches_the_per_vertex_loop(seed):
    """The stacked Bayes rule against conditioning one vertex at a time:
    the same bytes, order and dropped count, or the same refusal. Points
    repeat, carry no evidence, or share their conditional with another
    point while differing off the event (a near-duplicate after rounding);
    some draws have no evidence anywhere."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    sp = simple_space(*(f"a{i}" for i in range(n)))
    inside = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    e = Event.from_indices(sp, inside.tolist())
    outside = np.setdiff1d(np.arange(n), inside)
    no_evidence = rng.random() < 0.15
    points: list[np.ndarray] = []
    for _ in range(int(rng.integers(1, 7))):
        kind = 1 if no_evidence else int(rng.integers(4))
        p = np.zeros(n)
        if kind == 0 and points:
            p = points[int(rng.integers(len(points)))]
        elif kind == 1:
            p[outside] = rng.dirichlet(np.ones(len(outside)))
        elif kind == 2 and points and points[-1][inside].sum() > 0:
            mass = rng.uniform(0.05, 1.0)
            p[inside] = mass * points[-1][inside] / points[-1][inside].sum()
            p[outside] = (1.0 - mass) * rng.dirichlet(np.ones(len(outside)))
        else:
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) > 0.3)
            p = p / p.sum() if p.sum() > 0 else np.eye(n)[0]
        points.append(p)
    S = VertexSet(tuple(make_distribution(sp, p) for p in points))

    def outcome(run):
        try:
            kept, dropped = run()
        except ZeroEvidenceEverywhereError as err:
            return str(err)
        return [v.probs.tobytes() for v in kept], dropped

    def stacked():
        out = conditionalize(S, e)
        return out.vertices, out.dropped

    assert outcome(stacked) == outcome(lambda: conditionalize_by_vertex(S, e))


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


def test_pairwise_independence_of_an_undersummed_table(two_tosses):
    """A verbatim table that undersums is judged as its normalized copy:
    the check does not depend on the table's scale."""
    d = make_distribution(two_tosses, 0.98 * iid_coin(0.3, 2).probs, require_normalized=False)
    rep = check_pairwise_independence(d, "toss1", "toss2", tol=1e-9)
    assert rep.passed
    assert rep.max_violation <= 1e-15


@given(
    nx=st.integers(2, 3),
    nz=st.integers(2, 4),
    mixed=st.booleans(),
    scale=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_pairwise_independence_is_the_check_given_one_value(nx, nz, mixed, scale, seed):
    """On a table over (X, Z), independent or a mix of two independent
    ones, normalized or scaled by c in [0.5, 1], the pairwise report is
    the conditional report on the same table with a one-value Y between
    X and Z, and its violation is max |t total - t(x) t(z)|."""
    rng = np.random.default_rng(seed)

    def product():
        return np.outer(rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(nz)))

    t = scale * (0.5 * product() + 0.5 * product() if mixed else product())
    X = Variable("X", tuple(f"x{i}" for i in range(nx)))
    Z = Variable("Z", tuple(f"z{k}" for k in range(nz)))
    pair = make_distribution(product_space(X, Z), t.ravel(), require_normalized=False)
    triple = make_distribution(
        product_space(X, Variable("Y", ("all",)), Z), t.ravel(), require_normalized=False
    )
    rp = check_pairwise_independence(pair, "X", "Z")
    rc = check_conditional_independence(triple, "X", "Z", "Y")
    fields = ("passed", "max_violation", "actual", "product_value")
    assert [getattr(rp, f) for f in fields] == [getattr(rc, f) for f in fields]
    assert rp.worst_cell == (rc.worst_cell[0], rc.worst_cell[2])
    t = pair.probs.reshape(nx, nz)
    assert rp.max_violation == np.abs(t * t.sum() - np.outer(t.sum(axis=1), t.sum(axis=0))).max()


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


def test_segment_families_are_their_core():
    """A one-branch family that is a point, or whose atom polynomials on
    the conditioning event have rank <= 2, is the segment between its end
    members, and is decided as that two-point vertex set is."""
    from credal import FamilyBranch, ParametricFamily, die_family

    eps = 1 / 48
    die = ParametricFamily((FamilyBranch("die-bias", -eps, eps, (("branch", "favor-2"),)),))
    coin = coin_family(0.2, 0.5, 1)
    two = coin_family(0.2, 0.5, 2)
    for fam in (die, coin, ParametricFamily(die.branches, Event.of(die.space, "1", "2", "3")),
                ParametricFamily(two.branches, Event.of(two.space, "HT", "TH")),  # one point
                ParametricFamily(two.branches, Event.of(two.space, "HH", "TT"))):  # quadratic
        ends = VertexSet((fam.member(0, fam.branches[0].lo), fam.member(0, fam.branches[0].hi)))
        assert mobius_report(ends).set_equals_core is True
        assert mobius_report(fam).set_equals_core is True
    assert mobius_report(die_family()).set_equals_core is False
    assert mobius_report(coin_family(0.2, 0.5, 2)).set_equals_core is False
    # rank 4 on 8 atoms with a non-belief envelope: the vertex rule alone is undecided
    assert mobius_report(coin_family(0.2, 0.5, 3)).set_equals_core is False
    curve = ParametricFamily(two.branches, Event.of(two.space, "HH", "HT", "TH"))
    assert mobius_report(curve).set_equals_core is False
    assert mobius_report(coin_family(0.3, 0.3, 2)).set_equals_core is True


def test_family_of_several_branches_is_its_core_iff_one_segment():
    """Branches whose members lie on one line are segments along it; their
    union equals its core iff the segments chain with no gap."""
    from credal import ParametricFamily, die_family

    def union(*ranges, n=1, given=None):
        fam = ParametricFamily(sum((coin_family(a, b, n).branches for a, b in ranges), ()))
        return fam if given is None else ParametricFamily(fam.branches, Event.of(fam.space, *given))

    assert mobius_report(union((0.1, 0.3), (0.3, 0.5))).set_equals_core is True  # touching
    assert mobius_report(union((0.1, 0.5), (0.2, 0.3))).set_equals_core is True  # nested
    assert mobius_report(union((0.3, 0.5), (0.1, 0.3), (0.3, 0.3))).set_equals_core is True
    assert mobius_report(union((0.1, 0.2), (0.3, 0.5))).set_equals_core is False  # a gap
    assert mobius_report(die_family()).set_equals_core is False  # collinear but disjoint
    assert mobius_report(union((0.1, 0.3), (0.3, 0.5), n=2)).set_equals_core is False
    quadratic = ("HH", "TT")
    assert mobius_report(union((0.1, 0.3), (0.3, 0.5), n=2, given=quadratic)).set_equals_core is True
    assert mobius_report(union((0.1, 0.2), (0.3, 0.5), n=2, given=quadratic)).set_equals_core is False


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


# --- one LP per subset ------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 9))
def test_lower_envelope_solves_one_lp_per_subset(monkeypatch, n):
    """Counts runs of the one simplex driver during the sweep; the system's
    phase 1 ran when it was built, so each of them is a phase-2 LP."""
    S = bounds_system(n, 0.05, 0.6)
    runs = []
    run_simplex = linprog._run_simplex

    def counted(*args, **kwargs):
        runs.append(1)
        return run_simplex(*args, **kwargs)

    monkeypatch.setattr(linprog, "_run_simplex", counted)
    bel = lower_envelope_function(S)
    assert len(runs) == 2**n - 2
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
    V = np.clip(np.array(list(enumerate_polytope_vertices(*_stack(n, S.full_constraints())))), 0.0, None)
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


# --- warm-started sweeps -----------------------------------------------------


def messy_system(seed: int) -> LinearSystem:
    """A system on 3 to 12 atoms through a random distribution x0 that mixes
    <=, >= and = rows. About a third of the inequalities hold at x0 with no
    margin (tight rows, which make the LPs degenerate), some rows are
    repeated, and every row is scaled by 10^k for k in [-4, 4]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    x0 = rng.dirichlet(np.ones(n))
    rows = []
    for _ in range(int(rng.integers(1, 8))):
        a = rng.normal(size=n) * (rng.random(n) < 0.7)
        rel = str(rng.choice(["<=", ">=", "="], p=[0.4, 0.4, 0.2]))
        margin = 0.0 if rel == "=" or rng.random() < 0.3 else rng.uniform(0.01, 0.3)
        rows.append((a, rel, float(a @ x0) + (-margin if rel == ">=" else margin)))
        if rng.random() < 0.2:
            rows.append(rows[-1])
    scales = 10.0 ** rng.uniform(-4, 4, size=len(rows))
    return LinearSystem(
        simple_space(*(f"w{j}" for j in range(n))),
        tuple(constraint(a * k, rel, rhs * k) for (a, rel, rhs), k in zip(rows, scales)),
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_warm_sweep_matches_cold_extremes(seed):
    """The warm-started sweep against one cold min and max LP per subset."""
    S = messy_system(seed)
    n = S.space.size
    full = 2**n - 1
    cold = np.zeros(full + 1)
    cold[full] = 1.0
    for mask in range(1, 2 ** (n - 1)):
        lower, _, upper, _ = S.extremes((mask >> np.arange(n)) & 1)
        cold[mask] = lower
        cold[full ^ mask] = 1.0 - upper
    np.testing.assert_allclose(lower_envelope_function(S).values, cold, rtol=0, atol=1e-12)


def random_rows(rng, n):
    """Weight rows: signed reals, then 0/1 indicators as the sweep uses."""
    return np.concatenate([rng.normal(size=(6, n)), rng.random((6, n)) < 0.5]).astype(float)


@pytest.mark.parametrize("seed", range(6))
def test_ranges_agree_with_extremes(monkeypatch, seed):
    """ranges, row by row, against extremes on all three representations;
    small blocks make VertexSet.ranges and optimize_many cross blocks."""
    monkeypatch.setattr(sets, "_RANGE_BLOCK", 5)
    monkeypatch.setattr(linprog, "_CHECK_BLOCK", 4)
    rng = np.random.default_rng(seed)
    system = messy_system(seed)
    n = system.space.size
    points = VertexSet(tuple(
        make_distribution(system.space, p) for p in rng.dirichlet(np.ones(n), size=7)
    ))
    family = coin_family(0.1 + 0.1 * seed, 0.6 + 0.05 * seed, 2 + seed % 3)
    for S in (system, points, family):
        rows = random_rows(rng, S.space.size)
        low, high = S.ranges(rows)
        assert low.shape == high.shape == (len(rows),)
        for w, lo, hi in zip(rows, low, high):
            want = S.extremes(w)
            assert lo == pytest.approx(want[0], abs=1e-12)
            assert hi == pytest.approx(want[2], abs=1e-12)


def test_optimize_many_refuses_a_bad_witness():
    """A tableau whose basic solution is off the rows (its rhs corrupted
    under a structural basic variable) must fail the witness check."""
    S = bounds_system(4, 0.1, 0.5)
    prepared = linprog.PreparedLp(*_stack(4, S.full_constraints()))
    tab = prepared._tab.copy()
    tab.T[int(np.flatnonzero(tab.basis < 4)[0]), -1] += 0.5
    prepared._tab = tab
    with pytest.raises(NumericalFailureError, match="infeasible witness"):
        prepared.optimize_many(np.eye(4), "min")


def marginal_vector_cloud(seed: int, n: int = 5) -> tuple[VertexSet, np.ndarray]:
    """The distinct marginal vectors of a random belief function on n atoms,
    as a VertexSet, and the belief function. Each nonempty subset carries
    mass with chance 0.4, Dirichlet(1) weights over those that do. The
    vectors are the vertices of the core, so the set's lower envelope is the
    belief function and its hull is the core; ties among them make the
    hull programs degenerate and rank-deficient."""
    rng = np.random.default_rng(seed)
    present = np.flatnonzero(rng.random(2**n - 1) < 0.4) + 1
    m = np.zeros(2**n)
    m[present] = rng.dirichlet(np.ones(present.size))
    bel = zeta_transform(m)
    points = {tuple(v / v.sum()) for v in marginal_vectors(bel, n, tol=0.0)}
    space = simple_space(*(f"w{j}" for j in range(n)))
    return VertexSet(tuple(make_distribution(space, np.array(p)) for p in sorted(points))), bel


@pytest.mark.parametrize("seed", [25, 60, 252, 324])
def test_mobius_report_on_marginal_vector_clouds(seed):
    """Clouds on which driving artificials out on the first usable entry
    left a hull witness entry far below zero (NumericalFailureError). Seeds
    25 and 60 give more than 64 points, so the chain walk's point bitmasks
    outgrow 64 bits; with a point dropped the answer is the permutation
    walk's."""
    S, bel = marginal_vector_cloud(seed)
    rep = mobius_report(S)
    np.testing.assert_allclose(rep.bel.values, bel, rtol=0, atol=1e-9)
    assert rep.envelope_is_belief
    assert rep.set_equals_core is True
    for drop in (0, len(S.vertices) // 2, len(S.vertices) - 1):
        rest = VertexSet(S.vertices[:drop] + S.vertices[drop + 1 :])
        assert mobius_report(rest).set_equals_core is vertex_set_equals_core(
            rest, lower_envelope_function(rest).values
        )
    for v in S.vertices[:: max(1, len(S.vertices) // 8)]:
        hull = hull_membership(v, list(S.vertices))
        assert hull.inside
        np.testing.assert_allclose(hull.weights @ np.stack([u.probs for u in S.vertices]),
                                   v.probs, rtol=0, atol=1e-9)


# --- set equals core -----------------------------------------------------

CORE_TEST_KINDS = ("cloud", "cloud-dropped", "random", "point", "segment")


def core_test_set(kind: str, seed: int) -> VertexSet:
    """A VertexSet on 3 to 6 atoms: the marginal vectors of a belief
    function with mass on up to four random subsets (all of them, or one
    dropped), random points, one point, or a segment with its midpoint."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    if kind.startswith("cloud"):
        m = np.zeros(2**n)
        k = int(rng.integers(1, 5))
        m[rng.integers(1, 2**n, size=k)] = rng.dirichlet(np.ones(k))
        points = marginal_vectors(zeta_transform(m), n)
        if kind == "cloud-dropped" and len(points) > 1:
            points.pop(int(rng.integers(len(points))))
    elif kind == "random":
        alpha = rng.choice([0.3, 1.0, 3.0])
        points = list(rng.dirichlet(np.full(n, alpha), size=int(rng.integers(2, 7))))
    elif kind == "point":
        points = [rng.dirichlet(np.ones(n))]
    else:
        a, b = rng.dirichlet(np.ones(n), size=2)
        points = [a, b, (a + b) / 2]
    space = simple_space(*(f"w{j}" for j in range(n)))
    return VertexSet(tuple(make_distribution(space, p / p.sum()) for p in points))


@given(kind=st.sampled_from(CORE_TEST_KINDS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_vertex_set_core_check_matches_the_permutation_walk(kind, seed):
    """The chain walk against the hull program of every marginal vector."""
    S = core_test_set(kind, seed)
    bel = lower_envelope_function(S).values
    if mobius_transform(bel).min() < -1e-8:
        return  # not a belief function: the brute-force path decides
    rep = mobius_report(S)
    assert rep.envelope_is_belief
    assert rep.set_equals_core is vertex_set_equals_core(S, bel)


def test_one_point_set_is_its_core_at_twelve_atoms():
    space = simple_space(*(f"w{j}" for j in range(12)))
    p = make_distribution(space, np.random.default_rng(12).dirichlet(np.ones(12)))
    rep = mobius_report(VertexSet((p,)))
    assert rep.envelope_is_belief
    assert rep.set_equals_core is True


def test_belief_vertex_set_core_check_builds_no_program(monkeypatch):
    built = []
    init = linprog.PreparedLp.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linprog.PreparedLp, "__init__", counting_init)
    S, _ = marginal_vector_cloud(60)
    assert mobius_report(S).set_equals_core is True
    assert mobius_report(VertexSet(S.vertices[1:])).set_equals_core is False
    assert built == []


NON_BELIEF_KINDS = ("cloud", "box", "box-dropped")


def non_belief_test_set(kind: str, seed: int) -> VertexSet:
    """A VertexSet on 3 to 5 atoms: random points, or the vertices of a
    random box of per-atom bounds, all of them or one dropped. A box's
    envelope is 2-monotone but often not a belief function."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    space = simple_space(*(f"w{j}" for j in range(n)))
    if kind == "cloud":
        alpha = rng.choice([0.3, 1.0, 3.0])
        points = list(rng.dirichlet(np.full(n, alpha), size=int(rng.integers(2, 9))))
    else:
        center = rng.dirichlet(np.ones(n))
        lo = center * rng.uniform(0.0, 1.0, n)
        hi = np.minimum(1.0, center + rng.uniform(0.0, 0.4, n))
        box = interval_to_linear_system(IntervalDistribution(space, lo, hi))
        points = vertices_of(n, box.full_constraints())
        if kind == "box-dropped":
            points.pop(int(rng.integers(len(points))))
    points = [np.clip(p, 0.0, None) for p in points]
    return VertexSet(tuple(make_distribution(space, p / p.sum()) for p in points))


@given(kind=st.sampled_from(NON_BELIEF_KINDS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_non_belief_vertex_set_core_check_matches_hull_programs(kind, seed):
    """Every core vertex a point of the set, against the hull program of
    every core vertex."""
    S = non_belief_test_set(kind, seed)
    bel = lower_envelope_function(S).values
    if mobius_transform(bel).min() >= -1e-8:
        return  # a belief function: the chain walk decides
    rep = mobius_report(S)
    assert not rep.envelope_is_belief
    assert rep.set_equals_core is vertex_set_equals_core_by_hulls(S, bel)


def test_non_belief_vertex_set_core_check_builds_only_the_core(monkeypatch):
    built = []
    init = linprog.PreparedLp.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linprog.PreparedLp, "__init__", counting_init)
    # seed 1 gives a 4-atom box whose envelope is not a belief function
    whole, dropped = (non_belief_test_set(kind, 1) for kind in ("box", "box-dropped"))
    for S, equal in ((whole, True), (dropped, False)):
        built.clear()
        rep = mobius_report(S)
        assert not rep.envelope_is_belief
        assert rep.set_equals_core is equal
        # the core's vertices come from its rows: no program at all, let
        # alone a hull program per core vertex
        assert built == []


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_linear_system_core_check_matches_per_row_programs(seed):
    """Odd seeds: a box of per-atom bounds. Even seeds: a polytope of
    <=, >= and = rows. Both hold a random point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    space = simple_space(*(f"w{j}" for j in range(n)))
    center = rng.dirichlet(np.ones(n))
    if seed % 2:
        lo = center * rng.uniform(0.0, 1.0, n)
        hi = np.minimum(1.0, center + rng.uniform(0.0, 0.3, n))
        S = interval_to_linear_system(IntervalDistribution(space, lo, hi))
    else:
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.normal(size=n)
            relation = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1]))
            slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[relation] * rng.uniform(0.0, 0.3)
            rows.append(constraint(a, relation, float(a @ center) + slack))
        S = LinearSystem(space, tuple(rows))
    rep = mobius_report(S)
    assert rep.set_equals_core is linear_system_equals_core(S, rep.bel.values)
