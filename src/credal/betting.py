"""Bet books, payoff tables, expectation polynomials, and the
booked-in-expectation verdict.

Prices and payouts are integer cents so table values round-trip exactly
through files; expectations are reals (dollars). Payoffs are tabulated
from the antagonist's side; the agent's payoff is the negation.

A book is *booked in expectation* against a credal set when the agent's
expectation is nonpositive for every member (within TAU_LP) and
strictly negative off a negligible part of the set. Operationally:
max agent expectation <= TAU_LP and min agent expectation < -TAU_STRICT.
The min condition is what certifies negligibility — a linear objective
attains its maximum on a proper face iff it is nonconstant, and a
nonzero polynomial has isolated roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .distributions import Distribution, coin_atom_polys, independent_square, make_distribution
from .errors import EmptySetError, SpaceMismatchError, UnsupportedFamilyError
from .sets import CredalSet, LinearSystem, ParametricFamily, VertexSet, family_range
from .spaces import Event, OutcomeSpace
from .tolerances import TAU_LP, TAU_STRICT

__all__ = [
    "Ticket",
    "BetBook",
    "PayoffTable",
    "ExpectationPolynomial",
    "BookedVerdict",
    "payoff_table",
    "expectation_under",
    "expectation_polynomial",
    "booked_in_expectation",
    "fair_price",
    "fair_price_cents",
    "fair_ticket",
    "independent_square",
]

SIDES = ("buy", "sell")  # from the agent's point of view


@dataclass(frozen=True)
class Ticket:
    """One bet: the agent buys or sells an event ticket.

    A bought ticket costs ``price_cents`` now and returns
    ``payout_cents`` if the event occurs; a sold ticket is the mirror
    image. Prices never exceed payouts.
    """

    side: str
    price_cents: int
    payout_cents: int
    event: Event

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if not isinstance(self.price_cents, int) or not isinstance(self.payout_cents, int):
            raise ValueError("prices and payouts are integer cents")
        if self.price_cents < 0 or self.payout_cents < 0:
            raise ValueError("prices and payouts must be nonnegative")
        if self.price_cents > self.payout_cents:
            raise ValueError("price must not exceed payout")

    @property
    def price(self) -> float:
        return self.price_cents / 100.0

    @property
    def payout(self) -> float:
        return self.payout_cents / 100.0


@dataclass(frozen=True)
class BetBook:
    tickets: tuple[Ticket, ...]

    def __post_init__(self):
        if not self.tickets:
            raise ValueError("book must contain at least one ticket")
        space = self.tickets[0].event.space
        for t in self.tickets[1:]:
            if t.event.space != space:
                raise SpaceMismatchError("tickets are over different spaces")

    @property
    def space(self) -> OutcomeSpace:
        return self.tickets[0].event.space


@dataclass(frozen=True, eq=False)
class PayoffTable:
    """Antagonist net payoff per outcome, in exact cents."""

    space: OutcomeSpace
    antagonist_cents: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.antagonist_cents, dtype=np.int64).copy()
        if arr.shape != (self.space.size,):
            raise ValueError("one payoff per atom required")
        arr.flags.writeable = False
        object.__setattr__(self, "antagonist_cents", arr)

    @property
    def antagonist(self) -> np.ndarray:
        return self.antagonist_cents / 100.0

    @property
    def agent(self) -> np.ndarray:
        return -self.antagonist_cents / 100.0


def payoff_table(book: BetBook) -> PayoffTable:
    """Antagonist nets: a bought ticket pays the antagonist its price and
    costs them the payout on the event; a sold ticket is reversed."""
    cents = np.zeros(book.space.size, dtype=np.int64)
    for t in book.tickets:
        sign = 1 if t.side == "buy" else -1
        cents += sign * t.price_cents
        cents[list(t.event.indices)] -= sign * t.payout_cents
    return PayoffTable(book.space, cents)


def expectation_under(book: BetBook, p: Distribution) -> float:
    """Antagonist expectation of the book under p, in dollars."""
    if p.space != book.space:
        raise SpaceMismatchError("distribution is over a different space")
    return float(payoff_table(book).antagonist @ p.probs)


@dataclass(frozen=True)
class ExpectationPolynomial:
    """Antagonist expectation as a polynomial in the heads probability,
    ascending coefficients."""

    coefficients: tuple[float, ...]

    def __call__(self, p: float) -> float:
        return float(P.polyval(p, self.coefficients))

    def real_roots(self, tol: float = 1e-9) -> tuple[float, ...]:
        coeffs = np.array(self.coefficients)
        if np.all(np.abs(coeffs) <= tol):
            return ()
        roots = P.polyroots(coeffs)
        real = sorted(float(r.real) for r in np.atleast_1d(roots) if abs(r.imag) <= tol)
        return tuple(real)

    def extremum_on(self, lo: float, hi: float, kind: str = "max") -> tuple[float, float]:
        """(value, argument) of the max or min over [lo, hi], via the
        endpoints and interior critical points."""
        candidates = [lo, hi]
        deriv = P.polyder(np.array(self.coefficients))
        if len(deriv) > 1 or (len(deriv) == 1 and abs(deriv[0]) > 0):
            if len(deriv) > 1:
                for r in P.polyroots(deriv):
                    if abs(r.imag) <= 1e-12 and lo < r.real < hi:
                        candidates.append(float(r.real))
        values = [self(c) for c in candidates]
        pick = np.argmax(values) if kind == "max" else np.argmin(values)
        return values[pick], candidates[pick]


def _coin_tosses(space: OutcomeSpace) -> int:
    """Number of tosses if the space is an n-fold H/T product, else raise."""
    if not space.is_factorized:
        raise UnsupportedFamilyError("space is not a product of coin tosses")
    for v in space.variables:
        if v.values != ("H", "T"):
            raise UnsupportedFamilyError("space is not a product of coin tosses")
    return len(space.variables)


def expectation_polynomial(book: BetBook, n_tosses: int | None = None) -> ExpectationPolynomial:
    """Antagonist expectation of the book over the iid-coin family as a
    polynomial in the heads probability (P(HH) = p^2 etc. for 2 tosses)."""
    n = _coin_tosses(book.space)
    if n_tosses is not None and n_tosses != n:
        raise UnsupportedFamilyError(
            f"book is over a {n}-toss space, not {n_tosses} tosses"
        )
    total = P.polytrim(payoff_table(book).antagonist @ coin_atom_polys(n))
    return ExpectationPolynomial(tuple(float(c) for c in total))


@dataclass(frozen=True)
class BookedVerdict:
    booked: bool
    max_agent_expectation: float
    min_agent_expectation: float
    witness: Distribution | None = None  # attains the max agent expectation
    zero_ties: int | None = None  # VertexSet members with expectation ~ 0

    @property
    def verdict(self) -> str:
        return "BOOKED" if self.booked else "NOT_BOOKED"


def booked_in_expectation(book: BetBook, S: CredalSet) -> BookedVerdict:
    """Is the agent's expectation nonpositive over all of S and negative
    off a negligible subset?"""
    if S.space != book.space:
        raise SpaceMismatchError("credal set is over a different space")

    if isinstance(S, VertexSet):
        exps = np.array([-expectation_under(book, v) for v in S.vertices])
        hi, lo = float(exps.max()), float(exps.min())
        witness = S.vertices[int(np.argmax(exps))]
        ties = int(np.sum(np.abs(exps) <= TAU_STRICT))
        return BookedVerdict(
            booked=hi <= TAU_LP and lo < -TAU_STRICT,
            max_agent_expectation=hi,
            min_agent_expectation=lo,
            witness=witness,
            zero_ties=ties,
        )

    if isinstance(S, LinearSystem):
        agent = payoff_table(book).agent
        top = S.optimize(agent, "max")
        bottom = S.optimize(agent, "min")
        w = np.clip(top.witness, 0.0, None)
        witness = make_distribution(S.space, w / w.sum())
        return BookedVerdict(
            booked=top.value <= TAU_LP and bottom.value < -TAU_STRICT,
            max_agent_expectation=float(top.value),
            min_agent_expectation=float(bottom.value),
            witness=witness,
        )

    if isinstance(S, ParametricFamily):
        return _family_booked(book, S)
    raise EmptySetError("unsupported credal set")


def _family_booked(book: BetBook, fam: ParametricFamily) -> BookedVerdict:
    low, _, high, witness = family_range(fam, payoff_table(book).agent)
    return BookedVerdict(
        booked=high <= TAU_LP and low < -TAU_STRICT,
        max_agent_expectation=high,
        min_agent_expectation=low,
        witness=witness,
    )


def fair_price_cents(payout_cents: int, event: Event, q: Distribution) -> int:
    """Nearest cent to payout x q(event)."""
    if event.space != q.space:
        raise SpaceMismatchError("event is over a different space")
    return round(payout_cents * q.p(event))


def fair_price(payout: float, event: Event, q: Distribution) -> float:
    """Fair dollar price of an event ticket, computed in exact cents."""
    return fair_price_cents(round(payout * 100), event, q) / 100.0


def fair_ticket(side: str, payout: float, event: Event, q: Distribution) -> Ticket:
    payout_cents = round(payout * 100)
    return Ticket(side, fair_price_cents(payout_cents, event, q), payout_cents, event)
