import numpy as np
import pytest

from oracles import vertices_of

from credal import (
    Event,
    FamilyBranch,
    LinearSystem,
    ParametricFamily,
    VertexSet,
    coin_family,
    constraint,
    die_bias,
    die_family,
    envelope,
    iid_coin,
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
)
from credal.sets import IntervalDistribution


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
