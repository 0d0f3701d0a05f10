"""Bundled reference scenarios with frozen expected values.

Each case builds its inputs from scratch, runs the engines, and checks
the results against expected values. Provenance tags say where an
expected value comes from: "exact" values are dyadic or integer and must
match to machine precision, "derived" values were computed by hand or by
an independent method and are compared at 1e-9 (1e-6 for family
envelopes), and "table" values are two-decimal rounded figures compared
at the table tolerance 5e-3.

The registry drives both ``credal examples`` and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .betting import (
    BetBook,
    Ticket,
    booked_in_expectation,
    expectation_polynomial,
    expectation_under,
    fair_price_cents,
    fair_ticket,
    independent_square,
    payoff_table,
)
from .decisions import (
    UtilityMatrix,
    e_admissible,
    e_admissible_over_hull,
    expected_utility,
    group_minimax,
    optimal_actions,
    pareto_optimal,
)
from .distributions import (
    iid_coin,
    make_distribution,
    marginalize,
    mixture,
)
from .errors import UnknownExampleError
from .inference import (
    MassFunction,
    belief_from_mass,
    check_conditional_independence,
    conditionalize,
    core_of_belief,
    envelope,
    mobius_report,
)
from .linprog import constraint, hull_membership
from .pooling import (
    PoolingProblem,
    independence_preserved,
    linear_pool,
    marginalization_commutes,
    nixon_scenario,
    total_variation,
)
from .sets import (
    IntervalDistribution,
    LinearSystem,
    ParametricFamily,
    VertexSet,
    coin_family,
    die_family,
    die_star,
    interval_to_linear_system,
)
from .spaces import Event, Variable, coin_space, product_space, simple_space
from .tolerances import TAU_PAPER, TAU_PAPER_SLOP

DERIVED_TOL = 1e-9
# Family answers are exact up to root finding and rounding (about 1e-14);
# 1e-6 is the margin an independent 1e-4 grid needs to agree with them.
FAMILY_TOL = 1e-6


@dataclass(frozen=True)
class Check:
    label: str
    actual: object
    expected: object
    tol: float | None  # None: exact equality (bools, strings, ints)
    provenance: str  # "exact" | "derived" | "table"

    @property
    def passed(self) -> bool:
        if self.tol is None:
            return self.actual == self.expected
        return abs(float(self.actual) - float(self.expected)) <= self.tol + TAU_PAPER_SLOP


@dataclass(frozen=True)
class ExampleCase:
    name: str
    description: str
    run: Callable[[], list[Check]]


def _exact(label, actual, expected) -> Check:
    return Check(label, actual, expected, None, "exact")


def _derived(label, actual, expected, tol=DERIVED_TOL) -> Check:
    return Check(label, actual, expected, tol, "derived")


def _table(label, actual, expected) -> Check:
    return Check(label, actual, expected, TAU_PAPER, "table")


# --- die-nonconvex -------------------------------------------------------


def _run_die_nonconvex() -> list[Check]:
    star = die_star()
    space = star.space
    one = Event.of(space, "1")
    env = envelope(star, one)
    fam = die_family()
    env_fam = envelope(fam, one)
    fair = make_distribution(space, [1 / 6] * 6)
    hull = hull_membership(fair, list(star.vertices))
    in_branch = [
        ParametricFamily((b,)).contains(fair, tol=1e-9) for b in fam.branches
    ]
    mass = MassFunction.from_subsets(
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
    bel = belief_from_mass(mass)
    star_report = mobius_report(star)
    core = core_of_belief(space, bel.values)
    core_report = mobius_report(core)
    mass_gap = max(
        abs(core_report.mobius.values[m] - v) for m, v in mass.masses
    )
    cond = conditionalize(star, Event.of(space, "1", "2"))
    cond_firsts = sorted(round(v.probs[0], 12) for v in cond.vertices)
    return [
        _derived("lower envelope of the two-point set on {1}", env.lower, 1 / 12),
        _derived("upper envelope of the two-point set on {1}", env.upper, 3 / 12),
        _derived("family lower envelope on {1}", env_fam.lower, 1 / 16, FAMILY_TOL),
        _derived("family upper envelope on {1}", env_fam.upper, 13 / 48, FAMILY_TOL),
        _exact("fair die lies in the convex hull", hull.inside, True),
        _derived("hull weight on the first branch point", hull.weights[0], 0.5),
        _derived("hull weight on the second branch point", hull.weights[1], 0.5),
        _exact("fair die is not on the favor-2 branch", in_branch[0], False),
        _exact("fair die is not on the favor-1 branch", in_branch[1], False),
        _derived("Bel({1}) from the mass assignment", bel.of("1"), 1 / 12, 1e-15),
        _derived("Bel({1,2}) from the mass assignment", bel.of("1", "2"), 1 / 3, 1e-15),
        _exact("two-point envelope is a belief function", star_report.envelope_is_belief, True),
        _derived(
            "two-point envelope mass on {1,2}", star_report.mobius.of("1", "2"), 1 / 6
        ),
        _exact(
            "core of the mass function has a belief-function envelope",
            core_report.envelope_is_belief,
            True,
        ),
        _derived("core envelope reproduces the masses", mass_gap, 0.0, 1e-7),
        _exact("core equals its own envelope core", core_report.set_equals_core, True),
        _derived(
            "conditional vertex low value on {1,2}", cond_firsts[0], 0.25
        ),
        _derived(
            "conditional vertex high value on {1,2}", cond_firsts[1], 0.75
        ),
    ]


# --- ci-nonconvex --------------------------------------------------------


def _xyz_space():
    return product_space(
        Variable("X", ("x", "~x")), Variable("Y", ("y", "~y")), Variable("Z", ("z", "~z"))
    )


def _xyz_tables():
    sp = _xyz_space()
    # atom order: xyz, xy~z, x~yz, x~y~z, ~xyz, ~xy~z, ~x~yz, ~x~y~z
    p = make_distribution(
        sp, [0.1, 0.1, 0.03, 0.06, 0.1, 0.1, 0.16, 0.33], require_normalized=False
    )  # printed table; undersums by 0.02 and is kept verbatim
    p_prime = make_distribution(sp, [0.05, 0.05, 0.1, 0.1, 0.15, 0.15, 0.2, 0.2])
    return sp, p, p_prime


def _run_ci_nonconvex() -> list[Check]:
    sp, p, p_prime = _xyz_tables()
    q = mixture([0.5, 0.5], [p, p_prime])
    rep_prime = check_conditional_independence(p_prime, "X", "Z", "Y", tol=1e-9)
    rep_p = check_conditional_independence(p, "X", "Z", "Y", tol=1e-9)
    rep_q = check_conditional_independence(q, "X", "Z", "Y", tol=1e-9)
    q_xy = marginalize(q, ["X", "Y"])

    sp_xy = product_space(Variable("X", ("x", "~x")), Variable("Y", ("y", "~y")))
    i_xy = IntervalDistribution(
        sp_xy, [0.0, 0.1, 0.2, 0.3], [0.2, 0.3, 0.4, 0.5]
    )
    system = interval_to_linear_system(i_xy)
    member = make_distribution(sp_xy, [0.1, 0.2, 0.3, 0.4])
    return [
        _exact("independence-built table passes the check at 1e-9", rep_prime.passed, True),
        _derived("its max violation is zero", rep_prime.max_violation, 0.0, 1e-15),
        _exact("printed first table is flagged at strict tolerance", rep_p.passed, False),
        _derived("first-table violation (rounding artifact)", rep_p.max_violation, 3e-4, 1e-6),
        _exact("the half-half mixture fails the check", rep_q.passed, False),
        _exact("worst mixture cell", rep_q.worst_cell, ("x", "~y", "z")),
        _derived("mixture value at the worst cell", rep_q.actual, 0.065),
        _derived(
            "product-formula value at the worst cell",
            rep_q.product_value,
            0.06021186440677966,
        ),
        _table("worst-cell value against the printed 0.06", rep_q.actual, 0.06),
        _table("product value against the printed 0.0625", rep_q.product_value, 0.0625),
        _derived("mixture entry at (x,y,z)", q.prob("x y z"), 0.075),
        _derived("mixture marginal on (x,~y)", q_xy.prob("x ~y"), 0.145),
        _exact("interval box on (X,Y) is feasible", isinstance(system, LinearSystem), True),
        _exact("the witness point satisfies the box", system.contains(member), True),
    ]


# --- belief-gap ----------------------------------------------------------


def _bounds_system():
    sp = simple_space("w1", "w2", "w3", "w4")
    return interval_to_linear_system(IntervalDistribution(sp, [0.15] * 4, [0.40] * 4))


def _run_belief_gap() -> list[Check]:
    S = _bounds_system()
    rep = mobius_report(S)
    full = tuple(S.space.atoms)
    return [
        _derived("lower envelope of a singleton", rep.bel_of("w1"), 0.15),
        _derived("lower envelope of a pair", rep.bel_of("w1", "w2"), 0.30),
        _derived("lower envelope of a triple", rep.bel_of("w1", "w2", "w3"), 0.60),
        _exact("envelope is not a belief function", rep.envelope_is_belief, False),
        _derived("negative mass on the full space", rep.mass_of(*full), -0.2),
        _exact("the set still equals the core of its envelope", rep.set_equals_core, True),
    ]


# --- coin-dutch-book -----------------------------------------------------


def paired_toss_book() -> BetBook:
    """The two-ticket book priced fair by the half-half mixture: buy a
    $100 ticket on HH for $13, sell a $150 ticket on HT for $25.50."""
    cs = coin_space(2)
    return BetBook(
        (
            Ticket("buy", 1300, 10000, Event.of(cs, "HH")),
            Ticket("sell", 2550, 15000, Event.of(cs, "HT")),
        )
    )


def _run_coin_dutch_book() -> list[Check]:
    cs = coin_space(2)
    book = paired_toss_book()
    q = mixture([0.5, 0.5], [iid_coin(0.1, 2), iid_coin(0.5, 2)])
    table = payoff_table(book)
    first = payoff_table(BetBook((book.tickets[0],)))
    poly = expectation_polynomial(book)
    roots = poly.real_roots()
    peak, arg = poly.extremum_on(0.1, 0.5, "max")
    fam = coin_family(0.1, 0.5)
    verdict = booked_in_expectation(book, fam)
    single = booked_in_expectation(book, VertexSet((iid_coin(0.3, 2),)))
    q_star = iid_coin(0.3, 2)
    fair_book = BetBook(
        (
            fair_ticket("buy", 100.0, Event.of(cs, "HH"), q_star),
            fair_ticket("sell", 150.0, Event.of(cs, "HT"), q_star),
        )
    )
    fair_verdict = booked_in_expectation(fair_book, VertexSet((q_star,)))
    env_checks = []
    for atom, lo, hi in (
        ("HH", 0.01, 0.25),
        ("HT", 0.09, 0.25),
        ("TH", 0.09, 0.25),
        ("TT", 0.25, 0.81),
    ):
        env = envelope(fam, Event.of(cs, atom))
        env_checks.append(
            _derived(f"family lower bound on {atom}", env.lower, lo, FAMILY_TOL)
        )
        env_checks.append(
            _derived(f"family upper bound on {atom}", env.upper, hi, FAMILY_TOL)
        )
    sq = independent_square(0.09)
    return [
        _exact("antagonist nets, first ticket alone", tuple(first.antagonist), (-87.0, 13.0, 13.0, 13.0)),
        _exact("antagonist nets of the full book", tuple(table.antagonist), (-112.5, 137.5, -12.5, -12.5)),
        _exact("expectation polynomial coefficients", poly.coefficients, (-12.5, 150.0, -250.0)),
        _derived("lower root", roots[0], 0.1),
        _derived("upper root", roots[1], 0.5),
        _derived("peak antagonist expectation", peak, 10.0),
        _derived("peak location", arg, 0.3),
        _derived("book is fair under the mixture", expectation_under(book, q), 0.0),
        _exact("verdict over the coin family", verdict.verdict, "BOOKED"),
        _exact("verdict against the single 0.3 coin", single.verdict, "BOOKED"),
        _derived("agent expectation at the 0.3 coin", single.max_agent_expectation, -10.0),
        _exact("fair book against its own coin", fair_verdict.verdict, "NOT_BOOKED"),
        _exact("fair price of the $100 HH ticket, in cents", fair_price_cents(10000, Event.of(cs, "HH"), q), 1300),
        _exact("fair price of the $150 HT ticket, in cents", fair_price_cents(15000, Event.of(cs, "HT"), q), 2550),
        _derived(
            "independence square at 0.09 equals the 0.3 coin",
            float(np.abs(sq.probs - q_star.probs).max()),
            0.0,
            1e-12,
        ),
        *env_checks,
    ]


# --- hull-admissibility --------------------------------------------------


def _decision_matrix():
    sp = simple_space("c1", "c2", "c3")
    U = UtilityMatrix(("a1", "a2", "a3"), sp, [[3, 3, 4], [2.5, 3.5, 5], [1, 5, 4]])
    return sp, U


def _run_hull_admissibility() -> list[Check]:
    sp, U = _decision_matrix()
    p1 = make_distribution(sp, [1 / 8, 3 / 4, 1 / 8])
    p2 = make_distribution(sp, [3 / 4, 1 / 8, 1 / 8])
    two_point = e_admissible(U, VertexSet((p1, p2)))
    hull = e_admissible_over_hull(U, [p1, p2])
    # the hull of the two points written out as a constraint system
    hull_system = LinearSystem(
        sp,
        (
            constraint([0, 0, 1], "=", 1 / 8),
            constraint([1, 0, 0], ">=", 1 / 8),
            constraint([1, 0, 0], "<=", 3 / 4),
        ),
    )
    hull_ls = e_admissible(U, hull_system)
    mid = mixture([0.5, 0.5], [p1, p2])
    w2 = hull.entry("a2").witness
    eu_w2 = [expected_utility(a, w2, U) for a in U.actions]
    return [
        _exact("eu(a2, p1)", expected_utility("a2", p1, U), 3.5625),
        _exact("eu(a3, p1)", expected_utility("a3", p1, U), 4.375),
        _exact("eu(a2, p2)", expected_utility("a2", p2, U), 2.9375),
        _exact("eu(a1, p2)", expected_utility("a1", p2, U), 3.125),
        _exact("admissible over the two-point set", two_point.admissible_actions, ("a1", "a3")),
        _exact("admissible over the hull (weight space)", hull.admissible_actions, ("a1", "a2", "a3")),
        _exact("admissible over the hull (constraint system)", hull_ls.admissible_actions, ("a1", "a2", "a3")),
        _exact("the even mixture makes a2 optimal", optimal_actions(mid, U), ("a2",)),
        _exact(
            "hull witness for a2 is valid",
            bool(eu_w2[1] >= max(eu_w2) - 1e-8),
            True,
        ),
    ]


# --- group-minimax -------------------------------------------------------


def _run_group_minimax() -> list[Check]:
    sp, U = _decision_matrix()
    p1 = make_distribution(sp, [1 / 8, 3 / 4, 1 / 8])
    p2 = make_distribution(sp, [1 / 4, 1 / 2, 1 / 4])
    p3 = make_distribution(sp, [3 / 8, 3 / 8, 1 / 4])
    group = [p1, p2, p3]
    gm = group_minimax(U, group)
    mix = mixture([1 / 8, 1 / 8, 3 / 4], group)
    p_out = make_distribution(sp, [1 / 3, 1 / 2, 1 / 6])
    hull = hull_membership(p_out, group)
    pareto = pareto_optimal(U, group)
    return [
        _exact("best action for member 1", optimal_actions(p1, U), ("a3",)),
        _exact("best action for member 2", optimal_actions(p2, U), ("a3",)),
        _exact("best action for member 3", optimal_actions(p3, U), ("a2",)),
        _exact("group minimax winner", gm.winner, "a3"),
        _derived("worst regret of a1", gm.max_loss("a1"), 1.25),
        _derived("worst regret of a2", gm.max_loss("a2"), 0.8125),
        _derived("worst regret of a3", gm.max_loss("a3"), 0.25),
        _exact("the weighted mixture favors a2", optimal_actions(mix, U), ("a2",)),
        _exact("the outside point is outside the hull", hull.inside, False),
        _exact("the outside point favors a3", optimal_actions(p_out, U), ("a3",)),
        _exact("a2 is group-Pareto-optimal", pareto["a2"], True),
        _exact("a3 is group-Pareto-optimal", pareto["a3"], True),
        _exact("a1 is dominated within the group", pareto["a1"], False),
    ]


# --- nixon-pool ----------------------------------------------------------


def _run_nixon_pool() -> list[Check]:
    base = nixon_scenario()
    pooled = linear_pool(base)
    p_re = base.experts[0][1]
    comm = marginalization_commutes(base, ["residence"])
    p_r = marginalize(p_re, ["residence"])
    q_r = marginalize(base.experts[1][1], ["residence"])
    half = mixture([0.5, 0.5], [p_r, q_r])
    coins = PoolingProblem(
        (("low", iid_coin(0.1, 2)), ("high", iid_coin(0.5, 2))), [0.5, 0.5]
    )
    pooled_ind = independence_preserved(coins, "toss1", "toss2", tol=1e-9)
    return [
        _derived(
            "weights (1, 0) reproduce the first joint",
            float(np.abs(pooled.probs - p_re.probs).max()),
            0.0,
            0.0,
        ),
        _derived("pool/marginalize orders agree", comm.max_deviation, 0.0, 1e-12),
        _derived("first marginal on NJ", p_r.prob("NJ"), 0.85, 0.0),
        _derived("half-half marginal pool on NJ", half.prob("NJ"), 0.875),
        _derived("half-half marginal pool on CA", half.prob("CA"), 0.125),
        _derived("distance between the marginals", total_variation(p_r, q_r), 0.05),
        _exact("half-half coin pool loses independence", pooled_ind.preserved, False),
        _derived("pooled coin P(HH)", pooled_ind.pooled.prob("HH"), 0.13),
        _derived(
            "pooled coin marginal product at HH",
            pooled_ind.check.product_value,
            0.09,
        ),
    ]


REGISTRY: dict[str, ExampleCase] = {
    c.name: c
    for c in (
        ExampleCase(
            "die-nonconvex",
            "two admissible die biases: envelopes, hull membership, and the "
            "mass-assignment gap of a disjunctive constraint",
            _run_die_nonconvex,
        ),
        ExampleCase(
            "ci-nonconvex",
            "conditional independence survives in two joints but not in "
            "their mixture; interval boxes stay convex",
            _run_ci_nonconvex,
        ),
        ExampleCase(
            "belief-gap",
            "per-atom bounds whose lower envelope has a negative mass on "
            "the full space, so no belief function matches it",
            _run_belief_gap,
        ),
        ExampleCase(
            "coin-dutch-book",
            "a pair of fairly priced bets on two tosses with negative "
            "agent expectation across the whole coin family",
            _run_coin_dutch_book,
        ),
        ExampleCase(
            "hull-admissibility",
            "two opinions admit two actions; their convex hull admits all "
            "three",
            _run_hull_admissibility,
        ),
        ExampleCase(
            "group-minimax",
            "three opinions, three actions: minimax regret picks a "
            "different action than any hull mixture",
            _run_group_minimax,
        ),
        ExampleCase(
            "nixon-pool",
            "pooled joints versus pooled marginals in the celebrity "
            "residence story; linear pools drop independence",
            _run_nixon_pool,
        ),
    )
}


def get_case(name: str) -> ExampleCase:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownExampleError(
            f"unknown example {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def run_case(name: str) -> list[Check]:
    return get_case(name).run()
