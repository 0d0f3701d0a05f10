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

from .distributions import Distribution
from .errors import (
    EmptyGroupError,
    EmptySetError,
    SpaceMismatchError,
    UnknownActionError,
)
from .linprog import LinearProgram, constraint, solve
from .sets import CredalSet, LinearSystem, ParametricFamily, VertexSet, _member_from_witness
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
    witness: Distribution | None = None
    certificate: float | None = None  # infeasibility residual when ruled out by LP


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
    """Which actions maximize expected utility for some member of S?"""
    if S.space != U.space:
        raise SpaceMismatchError("credal set is over a different space")

    if isinstance(S, VertexSet):
        witnesses: dict[str, Distribution] = {}
        for member in S.vertices:
            for a in optimal_actions(member, U, tol):
                witnesses.setdefault(a, member)
        return AdmissibilityReport(
            tuple(
                ActionAdmissibility(a, a in witnesses, witnesses.get(a))
                for a in U.actions
            )
        )

    if isinstance(S, LinearSystem):
        return _lp_admissible(U, S.full_constraints(), np.eye(S.space.size))

    if isinstance(S, ParametricFamily):
        return _family_admissible(U, S, tol)
    raise EmptySetError("unsupported credal set")


def _family_admissible(
    U: UtilityMatrix, fam: ParametricFamily, tol: float
) -> AdmissibilityReport:
    """Exact: each margin eu_a - max_b eu_b is piecewise a ratio of
    polynomials, so its maximum lies at a tie, a stationary point of a
    pairwise difference, or an end of the parts with evidence."""
    k = len(U.actions)
    i, j = np.triu_indices(k, 1)
    pairs = U.u[i] - U.u[j]
    best: list[tuple[float, int, float]] = [(-np.inf, 0, 0.0)] * k  # margin, branch, s
    for bi in range(len(fam.branches)):
        s, M = fam.critical_members(bi, levels=pairs, ratios=pairs)
        if not len(s):
            continue
        eu = M @ U.u.T  # points x actions
        margin = eu - eu.max(axis=1, keepdims=True)
        for ai in range(k):
            j = int(np.argmax(margin[:, ai]))
            if margin[j, ai] > best[ai][0]:
                best[ai] = (float(margin[j, ai]), bi, float(s[j]))
    if best[0][0] == -np.inf:
        raise EmptySetError("family has no members (conditioning removed all)")
    return AdmissibilityReport(
        tuple(
            ActionAdmissibility(a, True, fam.member_at_scan(bi, s))
            if margin >= -tol
            else ActionAdmissibility(a, False)
            for a, (margin, bi, s) in zip(U.actions, best)
        )
    )


def e_admissible_over_hull(
    U: UtilityMatrix, members: list[Distribution], tol: float = TAU_LP
) -> AdmissibilityReport:
    """E-admissibility relative to the convex hull of finitely many members.

    Expected utility is linear in p, so a is admissible over the hull
    iff some mixture weight vector makes a maximal; that is a small LP
    in the weights.
    """
    if not members:
        raise EmptyGroupError("member list must be nonempty")
    space = members[0].space
    if space != U.space:
        raise SpaceMismatchError("members are over a different space")
    V = np.stack([p.probs for p in members])
    return _lp_admissible(U, (constraint(np.ones(len(members)), "=", 1.0),), V)


def _lp_admissible(U: UtilityMatrix, rows, V: np.ndarray) -> AdmissibilityReport:
    """E-admissibility over the members V.T @ x, for x >= 0 meeting rows:
    an action is admissible iff the region where it is best is feasible."""
    EU = U.u @ V.T  # actions x LP variables
    entries = []
    for ai, a in enumerate(U.actions):
        best = tuple(
            constraint(EU[ai] - EU[bi], ">=", 0.0) for bi in range(len(U.actions)) if bi != ai
        )
        res = solve(LinearProgram(len(V), rows + best, sense="feasibility"))
        if res.status == "OPTIMAL":
            member = _member_from_witness(U.space, V.T @ res.witness)
            entries.append(ActionAdmissibility(a, True, member))
        else:
            entries.append(ActionAdmissibility(a, False, certificate=res.infeasibility))
    return AdmissibilityReport(tuple(entries))


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
