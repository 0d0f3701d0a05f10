import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal import (
    Event,
    Variable,
    condition_distribution,
    die_bias,
    iid_coin,
    independent_square,
    make_distribution,
    marginalize,
    mixture,
    product_space,
    simple_space,
)
from credal.errors import (
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    ParamRangeError,
    SpaceMismatchError,
    UnknownVariableError,
    WeightInvalidError,
    ZeroEvidenceError,
)

from credal.tolerances import TAU_NORM

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_valid_die_distribution(die6):
    d = make_distribution(die6, [1 / 12, 3 / 12, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    assert d.prob("2") == 3 / 12
    assert d.is_normalized


def test_all_zero_vector_rejected(die6):
    with pytest.raises(NotNormalizedError):
        make_distribution(die6, [0.0] * 6)


def test_oversum_rejected():
    sp = simple_space("a", "b", "c")
    with pytest.raises(NotNormalizedError):
        make_distribution(sp, [0.4, 0.4, 0.3])


def test_negative_mass_rejected():
    sp = simple_space("a", "b")
    with pytest.raises(NegativeMassError):
        make_distribution(sp, [1.2, -0.2])


@pytest.mark.parametrize(
    "bad", [[np.nan, 1.0], [np.inf, 0.0], [0.5, -np.inf], [-0.5, np.nan], [np.inf, -np.inf]]
)
def test_non_finite_entries_rejected(bad):
    """Before any other check: a NaN beside a negative entry is non-finite."""
    with pytest.raises(ValueError, match="probabilities must be finite"):
        make_distribution(simple_space("a", "b"), bad)


@pytest.mark.parametrize(
    "probs, error, message",
    [
        ([1.0 + 3e-9, -3e-9], NegativeMassError, "negative probability -3e-09"),
        ([1.5, -0.5], NegativeMassError, "negative probability -0.5"),
        ([1.25, 0.0], NotNormalizedError, "probability above 1: 1.25"),
        ([1e308, 1e308], NotNormalizedError, "probability above 1: 1e+308"),
        ([0.5, 0.25], NotNormalizedError, "probabilities sum to 0.75, expected 1"),
    ],
)
def test_validation_class_message_and_order(probs, error, message):
    """After the finiteness check: negative mass first, then an entry
    above 1, then the sum, each with its own class and message."""
    with pytest.raises(error) as raised:
        make_distribution(simple_space("a", "b"), probs)
    assert type(raised.value) is error and str(raised.value) == message


def test_validation_tolerances():
    """Entries within TAU_NORM below 0 or above 1 pass; an undersum passes
    only with require_normalized=False, flagged."""
    sp = simple_space("a", "b")
    assert make_distribution(sp, [-TAU_NORM, 1.0 + TAU_NORM]).is_normalized
    assert not make_distribution(sp, [0.5, 0.25], require_normalized=False).is_normalized
    with pytest.raises(NegativeMassError):
        make_distribution(sp, [-2 * TAU_NORM, 1.0])
    with pytest.raises(NotNormalizedError, match="probability above 1"):
        make_distribution(sp, [1.0 + 2 * TAU_NORM, 0.0], require_normalized=False)


def test_unnormalized_escape_hatch():
    sp = simple_space("a", "b")
    d = make_distribution(sp, [0.5, 0.48], require_normalized=False)
    assert not d.is_normalized
    assert d.total() == pytest.approx(0.98)
    with pytest.raises(NotNormalizedError):
        make_distribution(sp, [0.5, 0.48])


def test_mixture_reproduces_half_half_table():
    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    assert np.allclose(q.probs, [0.13, 0.17, 0.17, 0.53], atol=1e-15)


def test_mixture_unit_weight_is_identity():
    p = iid_coin(0.3, 2)
    out = mixture([1.0, 0.0], [p, iid_coin(0.9, 2)])
    assert np.array_equal(out.probs, p.probs)


def test_mixture_of_xyz_tables(xyz_tables):
    p, p_prime = xyz_tables
    q = mixture([0.5, 0.5], [p, p_prime])
    assert q.prob("x y z") == pytest.approx(0.075, abs=1e-12)
    assert not q.is_normalized  # the printed first table undersums


def test_mixture_validates_weights_and_spaces():
    p = iid_coin(0.5, 2)
    with pytest.raises(WeightInvalidError):
        mixture([0.7, 0.7], [p, p])
    with pytest.raises(WeightInvalidError):
        mixture([-0.5, 1.5], [p, p])
    with pytest.raises(SpaceMismatchError):
        mixture([0.5, 0.5], [p, iid_coin(0.5, 3)])


@given(w=unit, a=unit, b=unit)
def test_mixture_entries_between_componentwise_extremes(w, a, b):
    p, q = iid_coin(a, 2), iid_coin(b, 2)
    mix = mixture([w, 1.0 - w], [p, q])
    lo = np.minimum(p.probs, q.probs)
    hi = np.maximum(p.probs, q.probs)
    assert np.all(mix.probs >= lo - 1e-12)
    assert np.all(mix.probs <= hi + 1e-12)


def test_marginalize_residence():
    sp = product_space(Variable("residence", ("NJ", "CA")), Variable("et", ("yes", "no")))
    p_re = make_distribution(sp, [0.0, 0.85, 0.0, 0.15])
    p_r = marginalize(p_re, ["residence"])
    assert p_r.space.atoms == ("NJ", "CA")
    assert np.array_equal(p_r.probs, [0.85, 0.15])


def test_marginalize_all_is_identity(xyz_tables):
    _, p_prime = xyz_tables
    out = marginalize(p_prime, ["X", "Y", "Z"])
    assert out.space == p_prime.space
    assert np.array_equal(out.probs, p_prime.probs)


def test_marginalize_mixture_value(xyz_tables):
    p, p_prime = xyz_tables
    q = mixture([0.5, 0.5], [p, p_prime])
    q_xy = marginalize(q, ["X", "Y"])
    assert q_xy.prob("x ~y") == pytest.approx(0.145, abs=1e-12)


def test_marginalize_tower_property(rng):
    sp = product_space(
        Variable("A", ("0", "1")), Variable("B", ("0", "1", "2")), Variable("C", ("0", "1"))
    )
    probs = rng.dirichlet(np.ones(sp.size))
    d = make_distribution(sp, probs)
    one_step = marginalize(d, ["A"])
    two_step = marginalize(marginalize(d, ["A", "C"]), ["A"])
    assert np.allclose(one_step.probs, two_step.probs, atol=1e-12)


def test_marginalize_errors(die6, xyz_tables):
    d = make_distribution(die6, [1 / 6] * 6)
    with pytest.raises(NotFactorizedError):
        marginalize(d, ["X"])
    _, p_prime = xyz_tables
    with pytest.raises(UnknownVariableError):
        marginalize(p_prime, ["W"])


def test_condition_ratio():
    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    e = Event.of(q.space, "HH", "HT")
    out = condition_distribution(q, e)
    assert out.probs[0] == pytest.approx(0.13 / 0.30)
    assert out.probs[1] == pytest.approx(0.17 / 0.30)
    assert out.probs[2] == 0.0 and out.probs[3] == 0.0


def test_condition_uniform_and_identity(two_tosses):
    u = make_distribution(two_tosses, [0.25] * 4)
    e = Event.of(two_tosses, "HH", "TT")
    out = condition_distribution(u, e)
    assert out.p(e) == pytest.approx(1.0)
    assert out.probs[0] == pytest.approx(0.5)
    full = condition_distribution(u, Event.full(two_tosses))
    assert np.allclose(full.probs, u.probs)


def test_condition_zero_evidence(two_tosses):
    d = make_distribution(two_tosses, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroEvidenceError):
        condition_distribution(d, Event.of(two_tosses, "TT"))


@given(p=unit)
@settings(max_examples=50)
def test_condition_idempotent(p):
    d = iid_coin(p, 2)
    e = Event.of(d.space, "HH", "HT", "TH")
    try:
        once = condition_distribution(d, e)
    except ZeroEvidenceError:
        return
    twice = condition_distribution(once, e)
    assert np.allclose(once.probs, twice.probs, atol=1e-12)


def test_iid_coin_table():
    low = iid_coin(0.1, 2)
    assert low.probs[0] == pytest.approx(0.01, abs=1e-15)
    assert np.allclose(low.probs, [0.01, 0.09, 0.09, 0.81], atol=1e-15)
    assert np.array_equal(iid_coin(0.5, 2).probs, [0.25] * 4)
    mid = iid_coin(0.3, 2)
    assert np.allclose(mid.probs, [0.09, 0.21, 0.21, 0.49], atol=1e-15)


@given(p=unit)
def test_iid_coin_symmetry(p):
    d = iid_coin(p, 2)
    assert d.prob("HT") == d.prob("TH")


def test_iid_coin_param_range():
    with pytest.raises(ParamRangeError):
        iid_coin(1.2, 2)
    with pytest.raises(ParamRangeError):
        iid_coin(0.5, 0)


def test_die_bias_branches():
    favor2 = die_bias(0.0, "favor-2")
    assert np.allclose(favor2.probs, [1 / 12, 3 / 12, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    favor1 = die_bias(0.0, "favor-1")
    assert np.allclose(favor1.probs, [3 / 12, 1 / 12, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    edge = die_bias(1 / 48, "favor-2")
    assert edge.probs[0] == pytest.approx(5 / 48, abs=1e-15)
    with pytest.raises(ParamRangeError):
        die_bias(0.03, "favor-2")
    with pytest.raises(ParamRangeError):
        die_bias(0.0, "favor-3")


def test_independent_square():
    assert np.array_equal(independent_square(0.25).probs, [0.25] * 4)
    low = independent_square(0.01)
    assert low.probs[0] == 0.01
    assert np.allclose(low.probs, [0.01, 0.09, 0.09, 0.81], atol=1e-15)
    assert np.allclose(independent_square(0.09).probs, iid_coin(0.3, 2).probs, atol=1e-12)
    with pytest.raises(ParamRangeError):
        independent_square(-0.1)


def test_immutability(die6):
    d = make_distribution(die6, [1 / 6] * 6)
    with pytest.raises(ValueError):
        d.probs[0] = 0.5
