"""Dense linear programming kernel.

A small two-phase tableau simplex for the tiny programs that arise from
credal sets (at most dozens of variables). Variables are nonnegative;
callers split free variables. Dantzig pricing switches to Bland's rule
after an iteration threshold so degenerate programs cannot cycle. One
driver, ``_run_simplex``, serves phase 1 and phase 2: it works on a
tableau whose last row is the reduced-cost row of the objective.

``PreparedLp`` is the one kernel path. It stacks the rows of a program
once into arrays: A, b and a per-row sign (+1 for <=, 0 for =, -1 for
>=). Phase 1 runs on the rows equilibrated, each row and its rhs divided
by the row's largest |coefficient|, so that the absolute pivot and
phase-1 tolerances mean the same thing at every row scale; the reported
phase-1 residual is in those units. ``optimize`` runs phase 2 for one
objective on a copy of the phase-1 tableau. ``optimize_many`` runs it for
a stack of objectives on one working copy, each from the optimal basis of
the one before, which stays feasible because the rows do not change; a
lower-envelope sweep over subsets in Gray-code order then takes under
one pivot per LP on average. Every witness is checked against the rows as
given, at 10 * TAU_LP, with a matrix product (one per block of witnesses
in ``optimize_many``). Pivoting is deterministic: the same program and
objectives give the same answers. ``solve`` prepares a program and
optimizes it once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .distributions import Distribution
from .errors import InfeasibleSystemError, NumericalFailureError, SpaceMismatchError
from .tolerances import TAU_LP, TAU_ZERO

RELATIONS = ("<=", "=", ">=")

# the most plane choices enumerate_polytope_vertices tries
MAX_VERTEX_COMBINATIONS = 2_000_000

# Entries smaller than this are unusable as pivots.
PIVOT_TOL = 1e-10

# optimize_many checks this many witnesses per stacked product
_CHECK_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Constraint:
    coeffs: np.ndarray
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}")
        arr = np.asarray(self.coeffs, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def satisfied_by(self, x: np.ndarray, tol: float = TAU_LP) -> bool:
        lhs = float(self.coeffs @ x)
        if self.relation == "<=":
            return lhs <= self.rhs + tol
        if self.relation == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max objective @ x subject to constraints and x >= 0."""

    n_vars: int
    constraints: tuple[Constraint, ...]
    objective: np.ndarray | None = None
    sense: str = "min"  # "min" | "max" | "feasibility"

    def __post_init__(self):
        if self.sense not in ("min", "max", "feasibility"):
            raise ValueError(f"bad sense {self.sense!r}")
        for c in self.constraints:
            if c.coeffs.shape != (self.n_vars,):
                raise ValueError("constraint length does not match n_vars")
        if self.sense != "feasibility":
            obj = np.asarray(self.objective, dtype=float).copy()
            if obj.shape != (self.n_vars,):
                raise ValueError("objective length does not match n_vars")
            obj.flags.writeable = False
            object.__setattr__(self, "objective", obj)


@dataclass(frozen=True, eq=False)
class LpResult:
    status: str  # "OPTIMAL" | "INFEASIBLE" | "UNBOUNDED"
    value: float | None = None
    witness: np.ndarray | None = None
    infeasibility: float | None = None  # phase-1 residual when INFEASIBLE


def constraint(coeffs, relation: str, rhs: float) -> Constraint:
    return Constraint(np.asarray(coeffs, dtype=float), relation, float(rhs))


class _Tableau:
    """Simplex tableau: rows are equality constraints, col -1 is the rhs,
    and the last row is the reduced-cost row of the objective being
    minimized, which pivots keep current; ``basis`` holds the basic column
    of each constraint row."""

    def __init__(self, T: np.ndarray, basis: np.ndarray):
        self.T = T
        self.basis = basis

    def copy(self) -> _Tableau:
        return _Tableau(self.T.copy(), self.basis.copy())

    def solution(self) -> np.ndarray:
        x = np.zeros(self.T.shape[1] - 1)
        x[self.basis] = self.T[:-1, -1]
        return x

    def price(self, cost: np.ndarray):
        """Make the last row the reduced costs of minimizing cost."""
        # basis columns are unit vectors, so pricing them out is one product
        self.T[-1, :-1] = cost - cost[self.basis] @ self.T[:-1, :-1]
        self.T[-1, -1] = 0.0

    def pivot(self, row: int, col: int):
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        self.basis[row] = col


def _run_simplex(tab: _Tableau, bland_after: int, max_iter: int) -> str:
    """Minimize the priced objective over the tableau in place, starting
    from its current (primal feasible) basis. Returns OPTIMAL or UNBOUNDED;
    an unbounded run stops before pivoting, so the basis stays feasible."""
    T = tab.T
    m = T.shape[0] - 1
    for it in range(max_iter):
        z = T[-1, :-1]
        candidates = (z < -TAU_LP).nonzero()[0]
        if candidates.size == 0:
            return "OPTIMAL"
        if it < bland_after:
            enter = candidates[z[candidates].argmin()]
        else:
            enter = candidates[0]  # Bland: smallest index
        col = T[:m, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "UNBOUNDED"
        ratios = T[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + TAU_ZERO]
        if it < bland_after:
            # the largest pivot among ties: a tiny one spreads rounding error
            leave = tied[col[tied].argmax()]
        else:
            leave = tied[tab.basis[tied].argmin()]  # Bland: smallest basis index
        tab.pivot(leave, enter)
    raise NumericalFailureError(f"simplex exceeded {max_iter} iterations")


_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _stack(n_vars: int, constraints: tuple[Constraint, ...]):
    """The rows as arrays: (A, b, sign), sign +1 for <=, 0 for =, -1 for >=."""
    A = np.array([c.coeffs for c in constraints], dtype=float).reshape(-1, n_vars)
    b = np.array([c.rhs for c in constraints], dtype=float)
    sign = np.array([_SIGN[c.relation] for c in constraints])
    return A, b, sign


def _violation(rows, x: np.ndarray) -> np.ndarray:
    """By how much x breaks each stacked row (<= 0 where it holds); for a
    stack of points, one row of violations per point."""
    A, b, sign = rows
    r = x @ A.T - b
    return np.where(sign == 0, np.abs(r), sign * r)


class PreparedLp:
    """A constraint set with phase 1 already run, reusable across
    objectives.

    Building one stacks the rows, runs phase 1 on them equilibrated and
    drives artificials out. ``optimize`` then copies the feasible tableau
    and runs phase 2 only; ``optimize_many`` runs phase 2 for a stack of
    objectives on one working copy, each from the basis where the last one
    ended. Instances are immutable after construction and safe to share.
    """

    def __init__(self, n_vars: int, constraints: tuple[Constraint, ...]):
        self.n_vars = n = n_vars
        self._rows = A, b, sign = _stack(n, constraints)  # as given, for witness checks
        m = len(b)
        # equilibrate: each row (and its rhs) over its largest |coefficient|,
        # negated where that makes the rhs nonnegative
        flip = np.where(b < 0, -1.0, 1.0)
        largest = np.abs(A).max(axis=1, initial=0.0)
        self._largest = np.where(largest > 0, largest, 1.0)
        scale = flip / self._largest
        sign = sign * flip
        # one slack per inequality; artificials where no +1 slack can start basic
        slack = np.flatnonzero(sign)
        art = np.flatnonzero(sign <= 0)
        n_structural = n + slack.size
        total = n_structural + art.size
        T = np.zeros((m + 1, total + 1))  # the last row is the cost row
        T[:m, :n] = A * scale[:, None]
        T[:m, -1] = b * scale
        T[slack, n + np.arange(slack.size)] = sign[slack]
        T[art, n_structural + np.arange(art.size)] = 1.0
        basis = np.zeros(m, dtype=int)
        basis[slack] = n + np.arange(slack.size)
        basis[art] = n_structural + np.arange(art.size)

        tab = _Tableau(T, basis)
        self.bland_after = 50 + 10 * (m + total)
        self.max_iter = 500 + 100 * (m + total)
        self.infeasibility = 0.0
        if art.size:
            phase1_cost = (np.arange(total) >= n_structural).astype(float)
            tab.price(phase1_cost)
            status = _run_simplex(tab, self.bland_after, self.max_iter)
            assert status == "OPTIMAL"  # phase 1 objective is bounded below by 0
            self.infeasibility = float(phase1_cost @ tab.solution())
            if self.infeasibility > TAU_LP:
                self._tab = None
                return
            _drive_out_artificials(tab, n_structural)
        tab.T.flags.writeable = False
        self._tab = tab

    @property
    def feasible(self) -> bool:
        return self._tab is not None

    def feasible_point(self) -> np.ndarray | None:
        if self._tab is None:
            return None
        return self._tab.solution()[: self.n_vars]

    def _cost(self, objective, sense: str) -> np.ndarray:
        cost = np.zeros(self._tab.T.shape[1] - 1)
        cost[: self.n_vars] = objective if sense == "min" else -objective
        return cost

    def optimize(self, objective, sense: str) -> LpResult:
        if self._tab is None:
            return LpResult("INFEASIBLE", infeasibility=self.infeasibility)
        obj = np.asarray(objective, dtype=float)
        tab = self._tab.copy()
        tab.price(self._cost(obj, sense))
        status = _run_simplex(tab, self.bland_after, self.max_iter)
        x = tab.solution()[: self.n_vars]
        if status == "UNBOUNDED":
            return LpResult("UNBOUNDED", witness=x)
        return LpResult("OPTIMAL", value=float(obj @ x), witness=self._checked(x))

    def optimize_many(self, rows, sense: str) -> np.ndarray:
        """The optimal value of each row of objective weights, in order
        (-inf or +inf where the program is unbounded in that direction).

        One working tableau serves the whole call: each objective is
        priced on the basis where the previous one ended, which the rows
        of the program keep primal feasible, so each runs phase 2 only.
        Objectives that differ little (as subsets in Gray-code order do)
        then take few pivots. Witnesses are checked as in ``optimize``, a
        block of them per stacked product.
        """
        if self._tab is None:
            raise InfeasibleSystemError(
                f"program is infeasible (residual {self.infeasibility})"
            )
        rows = np.asarray(rows)
        tab = self._tab.copy()
        values = np.empty(len(rows))
        for start in range(0, len(rows), _CHECK_BLOCK):
            block = rows[start : start + _CHECK_BLOCK].astype(float)
            X = np.empty_like(block)
            bounded = np.ones(len(block), dtype=bool)
            for i, obj in enumerate(block):
                tab.price(self._cost(obj, sense))
                bounded[i] = _run_simplex(tab, self.bland_after, self.max_iter) == "OPTIMAL"
                X[i] = tab.solution()[: self.n_vars]
            out = values[start : start + len(block)]
            out[bounded] = np.einsum("ij,ij->i", block[bounded], self._checked(X[bounded]))
            out[~bounded] = -np.inf if sense == "min" else np.inf
        return values

    def scaled_violation(self, x: np.ndarray) -> np.ndarray:
        """By how much x breaks each row (<= 0 where it holds), in units of
        the row's largest |coefficient|."""
        return _violation(self._rows, x) / self._largest

    def _checked(self, x: np.ndarray) -> np.ndarray:
        """x, or a stack of witnesses, once each meets every row to
        10 * TAU_LP and has no entry below -10 * TAU_LP."""
        if not np.all(_violation(self._rows, x) <= 10 * TAU_LP):
            raise NumericalFailureError("solver returned an infeasible witness")
        if np.any(x < -10 * TAU_LP):
            raise NumericalFailureError("solver returned a negative witness entry")
        return x


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex. Witnesses are feasible within 10 * TAU_LP."""
    prepared = PreparedLp(lp.n_vars, lp.constraints)
    if lp.sense == "feasibility":
        return prepared.optimize(np.zeros(lp.n_vars), "min")
    return prepared.optimize(lp.objective, lp.sense)


def _drive_out_artificials(tab: _Tableau, n_structural: int):
    """Pivot zero-level artificials out of the basis, then drop redundant
    rows and the artificial columns.

    Each artificial leaves on its row's largest |structural entry|. Phase 1
    has certified the row's rhs as zero to within TAU_LP, so it is set to
    zero first: pivoting on a zero-rhs row then moves no other basic
    variable, whereas a leftover 1e-12 over a small pivot could push one
    far below zero."""
    keep = np.ones(len(tab.basis), dtype=bool)
    for row in np.flatnonzero(tab.basis >= n_structural):
        entries = np.abs(tab.T[row, :n_structural])
        if entries.size and entries.max() > PIVOT_TOL:
            tab.T[row, -1] = 0.0
            tab.pivot(row, int(np.argmax(entries)))
        else:
            keep[row] = False  # row is redundant: all-zero in structural cols
    keep = np.append(keep, True)  # the cost row
    tab.T = np.delete(tab.T[keep], np.s_[n_structural:-1], axis=1)
    tab.basis = tab.basis[keep[:-1]]


@dataclass(frozen=True, eq=False)
class HullMembership:
    inside: bool
    weights: np.ndarray | None = None  # convex coefficients when inside
    normal: np.ndarray | None = None  # separating hyperplane otherwise
    offset: float | None = None  # normal @ v_i <= offset < normal @ point
    margin: float | None = None


def hull_membership(point: Distribution, vertices: list[Distribution]) -> HullMembership:
    """Exact membership of a point in the convex hull of finitely many points.

    Inside yields convex weights; outside yields a separating hyperplane
    (normal, offset) with normal @ point > offset >= normal @ v_i.
    """
    if not vertices:
        raise ValueError("vertex list must be nonempty")
    space = point.space
    for v in vertices:
        if v.space != space:
            raise SpaceMismatchError("hull vertices live on a different space")
    V = np.stack([v.probs for v in vertices])  # k x n
    k, n = V.shape
    cons = [constraint(V[:, j], "=", point.probs[j]) for j in range(n)]
    cons.append(constraint(np.ones(k), "=", 1.0))
    res = solve(LinearProgram(k, tuple(cons), sense="feasibility"))
    if res.status == "OPTIMAL":
        return HullMembership(inside=True, weights=res.witness)

    # separation LP: max c @ x - t  s.t.  c @ v_i <= t, |c_j| <= 1,
    # with c = u - w and t = t+ - t- split into nonnegative parts
    nv = 2 * n + 2
    obj = np.concatenate([point.probs, -point.probs, [-1.0, 1.0]])
    cons = []
    for i in range(k):
        row = np.concatenate([V[i], -V[i], [-1.0, 1.0]])
        cons.append(constraint(row, "<=", 0.0))
    for j in range(2 * n):
        row = np.zeros(nv)
        row[j] = 1.0
        cons.append(constraint(row, "<=", 1.0))
    sep = solve(LinearProgram(nv, tuple(cons), objective=obj, sense="max"))
    if sep.status != "OPTIMAL":
        raise NumericalFailureError("separation LP failed")
    u, w = sep.witness[:n], sep.witness[n : 2 * n]
    normal = u - w
    offset = float(sep.witness[2 * n] - sep.witness[2 * n + 1])
    return HullMembership(
        inside=False, normal=normal, offset=offset, margin=float(sep.value)
    )


def prepare_fractional(
    n_vars: int, constraints: tuple[Constraint, ...], denominator: np.ndarray
) -> PreparedLp:
    """Phase-1-completed program for ratio objectives over a probability
    polytope with a fixed denominator event.

    Uses the standard substitution y = t p, t = 1 / (denominator @ p):
    the explicit rows become homogeneous in (y, t), the simplex row
    becomes sum(y) = t, and the denominator becomes the normalization
    y @ d = 1. Optimize with objectives of the form append(num, 0).
    """
    rows = []
    for c in constraints:
        rows.append(constraint(np.append(c.coeffs, -c.rhs), c.relation, 0.0))
    rows.append(constraint(np.append(np.ones(n_vars), -1.0), "=", 0.0))  # sum p = 1
    rows.append(constraint(np.append(denominator, 0.0), "=", 1.0))
    return PreparedLp(n_vars + 1, tuple(rows))


def enumerate_polytope_vertices(n_vars: int, constraints: tuple[Constraint, ...]):
    """Brute-force vertex enumeration of {x >= 0, constraints}.

    Tries every choice of n_vars tight hyperplanes among the constraint
    rows and the coordinate planes, yielding each feasible solution as it
    is found; a degenerate vertex repeats, once per choice that meets it.
    Only intended for small systems (MAX_VERTEX_COMBINATIONS guards it).
    """
    rows = A, b, sign = _stack(n_vars, constraints)
    planes = np.vstack([A, np.eye(n_vars)])  # the rows, then the coordinate planes
    plane_rhs = np.concatenate([b, np.zeros(n_vars)])
    equality = np.concatenate([sign == 0, np.zeros(n_vars, dtype=bool)])
    forced = list(np.flatnonzero(equality))
    optional = np.flatnonzero(~equality)
    need = max(0, n_vars - len(forced))
    if comb(len(optional), need) > MAX_VERTEX_COMBINATIONS:
        raise NumericalFailureError("vertex enumeration would be too large")
    for extra in itertools.combinations(optional, need):
        chosen = forced + list(extra)
        if len(chosen) != n_vars:
            continue
        try:
            x = np.linalg.solve(planes[chosen], plane_rhs[chosen])
        except np.linalg.LinAlgError:
            continue
        if (
            np.all(np.isfinite(x))
            and np.all(x >= -TAU_LP)
            and np.all(_violation(rows, x) <= TAU_LP)
        ):
            yield x
