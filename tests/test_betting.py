import numpy as np
import pytest

from credal import (
    BetBook,
    Event,
    Ticket,
    VertexSet,
    booked_in_expectation,
    coin_family,
    conditionalize,
    expectation_polynomial,
    expectation_under,
    fair_price,
    fair_price_cents,
    fair_ticket,
    iid_coin,
    independent_square_family,
    make_distribution,
    mixture,
    payoff_table,
    simple_space,
)
from credal.cases import paired_toss_book
from credal.errors import SpaceMismatchError, UnsupportedFamilyError


@pytest.fixture
def book():
    return paired_toss_book()


@pytest.fixture
def half_half(two_tosses):
    return mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])


def test_ticket_validation(two_tosses):
    hh = Event.of(two_tosses, "HH")
    with pytest.raises(ValueError):
        Ticket("hold", 100, 200, hh)
    with pytest.raises(ValueError):
        Ticket("buy", 300, 200, hh)
    with pytest.raises(ValueError):
        Ticket("buy", -1, 200, hh)
    with pytest.raises(ValueError):
        Ticket("buy", 1.5, 200, hh)  # cents must be integers


def test_payoff_table_net_rows(book, two_tosses):
    table = payoff_table(book)
    assert np.array_equal(table.antagonist, [-112.5, 137.5, -12.5, -12.5])
    first = payoff_table(BetBook((book.tickets[0],)))
    assert np.array_equal(first.antagonist, [-87.0, 13.0, 13.0, 13.0])
    second = payoff_table(BetBook((book.tickets[1],)))
    assert np.array_equal(second.antagonist, [-25.5, 124.5, -25.5, -25.5])


def test_payoff_antisymmetry(book):
    table = payoff_table(book)
    assert np.array_equal(table.agent + table.antagonist, np.zeros(4))


def test_zero_payout_ticket_gives_zero_row(two_tosses):
    t = Ticket("buy", 0, 0, Event.of(two_tosses, "HH"))
    assert np.array_equal(payoff_table(BetBook((t,))).antagonist, np.zeros(4))


def test_expectation_under_pricing_distribution(book, half_half):
    assert expectation_under(book, half_half) == pytest.approx(0.0, abs=1e-9)
    assert expectation_under(book, iid_coin(0.3, 2)) == pytest.approx(10.0, abs=1e-9)
    with pytest.raises(SpaceMismatchError):
        expectation_under(book, make_distribution(simple_space("a", "b"), [0.5, 0.5]))


def test_expectation_polynomial_coefficients(book):
    poly = expectation_polynomial(book)
    assert poly.coefficients == (-12.5, 150.0, -250.0)
    assert poly.real_roots() == pytest.approx((0.1, 0.5), abs=1e-9)
    peak, arg = poly.extremum_on(0.1, 0.5, "max")
    assert peak == pytest.approx(10.0, abs=1e-9)
    assert arg == pytest.approx(0.3, abs=1e-9)


def test_zero_book_gives_zero_polynomial(two_tosses):
    t = Ticket("buy", 0, 0, Event.of(two_tosses, "HH"))
    poly = expectation_polynomial(BetBook((t,)))
    assert all(c == 0.0 for c in poly.coefficients)
    assert poly.real_roots() == ()


def test_expectation_polynomial_needs_coin_space():
    sp = simple_space("a", "b")
    with pytest.raises(UnsupportedFamilyError):
        expectation_polynomial(BetBook((Ticket("buy", 10, 100, Event.of(sp, "a")),)))


def test_polynomial_matches_pointwise_expectation(book, rng):
    poly = expectation_polynomial(book)
    for p in rng.uniform(0.0, 1.0, size=100):
        assert poly(p) == pytest.approx(
            expectation_under(book, iid_coin(float(p), 2)), abs=1e-10
        )


def test_booked_over_coin_family(book):
    verdict = booked_in_expectation(book, coin_family(0.1, 0.5))
    assert verdict.verdict == "BOOKED"
    assert verdict.max_agent_expectation == pytest.approx(0.0, abs=1e-9)
    assert verdict.min_agent_expectation == pytest.approx(-10.0, abs=1e-9)


def test_booked_single_point_strictly_negative(book):
    verdict = booked_in_expectation(book, VertexSet((iid_coin(0.3, 2),)))
    assert verdict.booked
    assert verdict.max_agent_expectation == pytest.approx(-10.0)


def test_not_booked_when_fair_for_the_whole_set(two_tosses):
    q = iid_coin(0.3, 2)
    fair = BetBook(
        (
            fair_ticket("buy", 100.0, Event.of(two_tosses, "HH"), q),
            fair_ticket("sell", 150.0, Event.of(two_tosses, "HT"), q),
        )
    )
    verdict = booked_in_expectation(fair, VertexSet((q,)))
    assert not verdict.booked
    assert verdict.zero_ties == 1
    assert verdict.max_agent_expectation == pytest.approx(0.0, abs=1e-9)


def test_booked_soundness_witness(book, rng):
    """Never BOOKED when some member gives the agent positive expectation."""
    for _ in range(50):
        members = tuple(iid_coin(float(p), 2) for p in rng.uniform(0, 1, size=3))
        verdict = booked_in_expectation(book, VertexSet(members))
        agent_exps = [-expectation_under(book, m) for m in members]
        if max(agent_exps) > 1e-8:
            assert not verdict.booked
            assert verdict.max_agent_expectation == pytest.approx(max(agent_exps))


def test_booked_on_independent_square_family(book):
    verdict = booked_in_expectation(book, independent_square_family(0.01, 0.25))
    assert verdict.booked
    assert verdict.max_agent_expectation == pytest.approx(0.0, abs=1e-9)


def test_booked_on_linear_system(book, two_tosses):
    from credal import IntervalDistribution, interval_to_linear_system

    box = interval_to_linear_system(
        IntervalDistribution(
            two_tosses, [0.01, 0.09, 0.09, 0.25], [0.25, 0.25, 0.25, 0.81]
        )
    )
    verdict = booked_in_expectation(book, box)
    # the box contains members favorable to the agent (it is the hull of
    # the bound table, wider than the curve), so no booking
    assert not verdict.booked
    assert verdict.max_agent_expectation > 1e-6
    agent_at_witness = -expectation_under(book, verdict.witness)
    assert agent_at_witness == pytest.approx(verdict.max_agent_expectation, abs=1e-7)


def test_booked_constant_zero_linear_system(two_tosses):
    from credal import constraint
    from credal.sets import LinearSystem

    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    point = LinearSystem(
        two_tosses,
        tuple(constraint(np.eye(4)[j], "=", float(q.probs[j])) for j in range(4)),
    )
    verdict = booked_in_expectation(paired_toss_book(), point)
    assert not verdict.booked  # expectation is identically ~0 on the set


def test_booked_conditioned_family_matches_polynomial(book, two_tosses):
    fam = conditionalize(coin_family(0.1, 0.5), Event.full(two_tosses))
    verdict = booked_in_expectation(book, fam)
    poly = expectation_polynomial(book)  # antagonist side: the agent's is -poly
    assert verdict.booked
    assert verdict.max_agent_expectation == pytest.approx(
        -poly.extremum_on(0.1, 0.5, "min")[0], abs=1e-12
    )
    assert verdict.min_agent_expectation == pytest.approx(
        -poly.extremum_on(0.1, 0.5, "max")[0], abs=1e-12
    )
    assert -expectation_under(book, verdict.witness) == pytest.approx(
        verdict.max_agent_expectation, abs=1e-12
    )


def test_scaling_preserves_verdict_and_scales_polynomial(book):
    scaled = BetBook(
        tuple(
            Ticket(t.side, t.price_cents * 3, t.payout_cents * 3, t.event)
            for t in book.tickets
        )
    )
    base = expectation_polynomial(book)
    big = expectation_polynomial(scaled)
    assert np.allclose(np.array(big.coefficients), 3 * np.array(base.coefficients), atol=1e-9)
    v1 = booked_in_expectation(book, coin_family(0.1, 0.5))
    v2 = booked_in_expectation(scaled, coin_family(0.1, 0.5))
    assert v1.booked == v2.booked


def test_fair_prices_round_trip_in_cents(two_tosses, half_half):
    hh = Event.of(two_tosses, "HH")
    ht = Event.of(two_tosses, "HT")
    assert fair_price_cents(10000, hh, half_half) == 1300
    assert fair_price_cents(15000, ht, half_half) == 2550
    assert fair_price(100.0, hh, half_half) == 13.00
    assert fair_price(150.0, ht, half_half) == 25.50
    assert fair_price(0.0, hh, half_half) == 0.0


def test_fair_priced_book_has_zero_expectation(rng, two_tosses):
    events = [Event.of(two_tosses, a) for a in two_tosses.atoms]
    for _ in range(20):
        q = make_distribution(two_tosses, rng.dirichlet(np.ones(4)))
        tickets = []
        for e in events:
            payout = float(rng.integers(1, 300))
            side = "buy" if rng.random() < 0.5 else "sell"
            tickets.append(fair_ticket(side, payout, e, q))
        book = BetBook(tuple(tickets))
        # prices are rounded to whole cents, so fairness holds to half a
        # cent per ticket
        assert abs(expectation_under(book, q)) <= 0.005 * len(tickets)
