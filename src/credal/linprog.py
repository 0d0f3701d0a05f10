"""Dense linear programming kernel.

A small two-phase tableau simplex for the tiny programs that arise from
credal sets (at most dozens of variables). Variables are nonnegative;
callers split free variables. Dantzig pricing switches to Bland's rule
after an iteration threshold so degenerate programs cannot cycle.
``_run_simplex`` works on a tableau whose last row is the reduced-cost
row of the objective; it serves phase 1 and ``_phase2``, phase 2 for one
objective. Phase 2 runs there or, for a stack, in ``_solve_many``, and
nowhere else.

``PreparedLp`` is the one kernel path. It takes a program as stacked
rows: A, b and a per-row sign (+1 for <=, 0 for =, -1 for >=); the
library builds every program it runs as such arrays. ``Constraint`` is
the public input format, which ``_stack`` turns into those arrays for
``LinearSystem`` and ``solve``. Phase 1 runs once, on the rows
equilibrated (each over its largest |coefficient|, so that the absolute
tolerances and the reported phase-1 residual mean the same at every row
scale), with lower-bound rows shifted out (x = l + x', Dantzig 1955).
Phase 2 runs on a copy of the phase-1 tableau: ``optimize`` for one
objective; ``optimize_many`` for a stack in lockstep, each objective
making ``optimize``'s pivots, one per step, and those on one tableau
entering one column sharing the pivot (a 10-atom lower-envelope sweep's
1022 LPs take 130-520 pivots in 7-13 steps). A pass takes as many
objectives as ``_LIVE_ENTRIES`` holds tableaux, so a step's distinct
tableaux, one at most per objective, fit there. ``extremes`` (one
objective, both senses) and ``ranges`` (a stack, both senses, in lockstep)
start each objective from a start bank instead, built on a program's first
such call: for each variable j the tableau ``_phase2`` of max x_j ends
on, of which an objective takes the one whose witness scores best on it
(an advanced starting basis, Bixby 1992). On the benchmark's ``lp-sweep``
systems an event's LP then takes about one pivot instead of three, and a
sweep about half the pivots in two thirds of the steps. Every witness, a
bank's included, is checked at 10 * TAU_LP with one product against the
rows as a <= stack (an = row as a and -a), in optimize_many once per
distinct witness. Pivoting is deterministic. An infeasible program
keeps the duals of its failed phase 1 as a Farkas ray, off which
``hull_membership`` reads its separating hyperplane. A ratio program is
one pivot from the optimal tableau of max p(E) (``_charnes_cooper``).
``solve`` prepares a program and optimizes it once; it is public API, and
the library no longer calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import InfeasibleSystemError, NumericalFailureError, SpaceMismatchError
from .tolerances import TAU_LP, TAU_ZERO

RELATIONS = ("<=", "=", ">=")

# Entries smaller than this are unusable as pivots.
PIVOT_TOL = 1e-10

# live entries in optimize_many: a pass takes this over the tableau's size
# objectives; a 10-atom polytope's and a 9-atom box's sweeps are one pass
_LIVE_ENTRIES = 2**18


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
        T -= factors[:, None] * T[row]
        self.basis[row] = col


def _run_simplex(tab: _Tableau, bland_after: int, max_iter: int) -> str:
    """Minimize the priced objective over the tableau in place, starting
    from its current (primal feasible) basis. Returns OPTIMAL or UNBOUNDED;
    an unbounded run stops before pivoting, so the basis stays feasible."""
    T = tab.T
    m = T.shape[0] - 1
    unbounded = np.full(m, np.inf)  # the ratio of a row that bounds no step
    for it in range(max_iter):
        z = T[-1, :-1]
        # Dantzig: the most negative reduced cost; Bland: the first below -TAU_LP
        enter = z.argmin() if it < bland_after else (z < -TAU_LP).argmax()
        if not z[enter] < -TAU_LP:
            return "OPTIMAL"
        col = T[:m, enter]
        ratios = np.divide(T[:m, -1], col, out=unbounded.copy(), where=col > PIVOT_TOL)
        least = ratios.min(initial=np.inf)
        if least == np.inf:
            return "UNBOUNDED"
        tied = ratios <= least + TAU_ZERO
        if it < bland_after:
            # the largest pivot among ties: a tiny one spreads rounding error
            leave = np.where(tied, col, -np.inf).argmax()
        else:
            tied = tied.nonzero()[0]
            leave = tied[tab.basis[tied].argmin()]  # Bland: smallest basis index
        tab.pivot(leave, enter)
    raise NumericalFailureError(f"simplex exceeded {max_iter} iterations")


def _pivot_stack(Ts, bases, col, C, leave, Z, on):
    """``_Tableau.pivot`` in place on each Ts[k] at (leave[k], col[k]) and on
    each reduced-cost row Z[i], whose tableau is Ts[on[i]]."""
    k = np.arange(len(Ts))
    prow = Ts[k, leave] / C[k, leave][:, None]
    Ts -= C[:, :, None] * prow[:, None, :]
    Ts[k, leave] = prow
    bases[k, leave] = col
    step = prow[on, :-1]
    step *= Z[np.arange(len(Z)), col[on]][:, None]
    Z -= step


def _groups(keys: np.ndarray, size: int):
    """The distinct keys (all in [0, size)), sorted, and each key's index among them."""
    hit = np.zeros(size, dtype=bool)
    hit[keys] = True
    return hit.nonzero()[0], np.cumsum(hit)[keys] - 1


_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _stack(n_vars: int, constraints: tuple[Constraint, ...]):
    """The rows as arrays: (A, b, sign), sign +1 for <=, 0 for =, -1 for >=.

    Every program given as Constraints passes through here, so a row of
    the wrong length and a NaN or infinite coefficient or rhs are refused
    here, once per program. The library builds its own programs as arrays
    from inputs already checked: rows stacked here, distributions and
    utilities."""
    if any(c.coeffs.shape != (n_vars,) for c in constraints):
        raise ValueError(f"every constraint row needs n_vars = {n_vars} coefficients")
    A = np.array([c.coeffs for c in constraints], dtype=float).reshape(-1, n_vars)
    b = np.array([c.rhs for c in constraints], dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("constraint coefficients and rhs must be finite")
    sign = np.array([_SIGN[c.relation] for c in constraints])
    return A, b, sign


def _violation(rows, x: np.ndarray) -> np.ndarray:
    """By how much x breaks each stacked row (<= 0 where it holds); for a
    stack of points, one row of violations per point."""
    A, b, sign = rows
    r = x @ A.T - b
    return np.where(sign == 0, np.abs(r), sign * r)


class PreparedLp:
    """The program A @ x (<=, =, >=) b by sign (+1, 0, -1) over x >= 0,
    with phase 1 already run, reusable across objectives.

    Building one shifts the variables by their lower bounds, x = low + x':
    low_j is the largest positive lower end that an inequality row with
    one nonzero coefficient, on x_j, puts on it. Those rows leave the
    tableau and every other row gets rhs b - A @ low; upper-bound rows
    stay, their slacks basic from the start. Phase 1 then runs on the rows
    equilibrated and drives artificials out. ``optimize`` runs phase 2 on
    a copy of the tableau, ``optimize_many`` in lockstep for a stack of
    objectives. Every witness (and ``feasible_point``) is low + x', checked
    against every row as given. An infeasible program keeps its phase-1
    residual ``infeasibility`` and Farkas ray ``farkas``, a y over the rows
    as given with y @ A <= 0 < y @ b = infeasibility (y <= 0 on a <= row,
    y >= 0 on a >= row): the ray of the shifted rows, plus on one bound row
    per shifted atom j the weight -(y @ A)_j / coefficient, which zeroes
    column j. ``extremes`` and ``ranges`` start phase 2 from a start bank,
    the final tableaux of max x_j for each j, built on their first call and
    kept; its contents depend only on the program, so no answer depends on
    the calls made before, and instances stay safe to share.
    """

    infeasibility, farkas = 0.0, None  # set where phase 1 fails
    _low = _lift = None  # the program's x is x' @ lift + low, from the tableau's x'
    _bank = None  # the start bank (tableaux, bases, solutions), built by _starts

    def __init__(self, A: np.ndarray, b: np.ndarray, sign: np.ndarray):
        self.n_vars = n = A.shape[1]
        self._check_against(A, b, sign)
        # a row with sign * b < 0 (>= with b > 0, <= with b < 0) needs an
        # artificial; one whose only nonzero has b's sign is a bound x_j >= l_j
        bound = np.flatnonzero(sign * b < 0)
        if bound.size:
            bound = bound[np.count_nonzero(A[bound], axis=1) == 1]
        if bound.size:
            atoms = A[bound].nonzero()[1]
            coef = A[bound, atoms]
            ends = b[bound] / coef
            lower = ends > 0
            bound, atoms, coef, ends = bound[lower], atoms[lower], coef[lower], ends[lower]
        if bound.size:
            # x = low + x', low the largest end per atom: the bound rows leave
            # the tableau, and every other row gets rhs b - A @ low
            self._low = np.zeros(n)
            np.maximum.at(self._low, atoms, ends)
            rest = np.ones(len(b), dtype=bool)
            rest[bound] = False
            A, sign, largest = A[rest], sign[rest], self._largest[rest]
            b = b[rest] - A @ self._low
        else:
            largest = self._largest
        m = len(b)
        # equilibrate: each row (and its rhs) over its largest |coefficient|,
        # negated where that makes the rhs nonnegative; a >= row with rhs 0
        # is negated too, so that its slack starts basic at 0
        flip = np.where((b < 0) | ((b == 0) & (sign < 0)), -1.0, 1.0)
        scale = flip / largest
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
        if art.size:
            phase1_cost = (np.arange(total) >= n_structural).astype(float)
            tab.price(phase1_cost)
            status = _run_simplex(tab, self.bland_after, self.max_iter)
            assert status == "OPTIMAL"  # phase 1 objective is bounded below by 0
            self.infeasibility = float(phase1_cost @ tab.solution())
            if self.infeasibility > TAU_LP:
                # the phase-1 duals from the reduced costs d: 1 - d on an
                # artificial, -d / sign on a slack; y @ A <= 0 < y @ b, and
                # y * sign <= 0 on an inequality, which rounding may not keep
                d = tab.T[-1, :-1]
                y = np.zeros(m)
                y[slack] = -d[n + np.arange(slack.size)] / sign[slack]
                y[art] = 1.0 - d[n_structural:]
                y[slack] = np.minimum(y[slack] * sign[slack], 0.0) * sign[slack]
                y *= scale
                if self._low is not None:
                    # one bound row per shifted atom j, whose end is low_j,
                    # takes -(y @ A)_j / coefficient >= 0, which zeroes
                    # column j and adds -(y @ A) @ low to y @ b
                    top = ends == self._low[atoms]
                    _, first = np.unique(atoms[top], return_index=True)
                    bound, atoms, coef = bound[top][first], atoms[top][first], coef[top][first]
                    self.farkas = np.zeros(len(rest))
                    self.farkas[rest] = y
                    self.farkas[bound] = -np.minimum(y @ A, 0.0)[atoms] / coef
                else:
                    self.farkas = y
                self._tab = None
                return
            _drive_out_artificials(tab, n_structural)
        tab.T.flags.writeable = False
        self._tab = tab

    def _check_against(self, A, b, sign):
        """Keep the rows as given, and as one exact <= stack to check witnesses against."""
        self._rows = A, b, sign
        self._eq = sign == 0
        side = np.where(self._eq, 1.0, sign)
        self._G = np.concatenate((side[:, None] * A, -A[self._eq]))
        self._h = np.concatenate((side * b, -b[self._eq]))
        largest = np.abs(A).max(axis=1, initial=0.0)
        self._largest = np.where(largest > 0, largest, 1.0)

    def _charnes_cooper(self, tab: _Tableau, den: np.ndarray) -> PreparedLp:
        """The Charnes-Cooper program (Charnes & Cooper 1962) over (y, t) =
        (t x, t), t = 1 / den @ x, checked against this program's rows as
        [A | -b] @ (y, t) (sign) 0, then den @ y = 1. From tab, the optimal
        tableau of max den @ x > TAU_ZERO, with no phase 1: the rows keep their
        basis, the rhs column negated is t's, and den @ y' + (den @ low) t = 1
        (y = y' + t low), reduced against that basis, is minus tab's reduced
        costs with t's entry den @ x*, on which t enters."""
        n, T, basis = self.n_vars, tab.T, tab.basis
        row = np.append(-T[-1, :-1], 1.0)
        t = np.append(-T[:-1, -1], [den @ self._shifted(tab.solution()[:n]), 0.0])
        # t's column goes in at n, so (y', t) are the first n + 1 columns
        T = np.insert(np.vstack([T[:-1], row, np.zeros_like(row)]), n, t, axis=1)
        T[:-2, -1] = 0.0
        ratio = _Tableau(T, np.append(basis + (basis >= n), n))
        ratio.pivot(len(basis), n)
        ratio.T.flags.writeable = False
        lp = object.__new__(PreparedLp)
        lp.n_vars, lp.bland_after, lp.max_iter, lp._tab = n + 1, self.bland_after, self.max_iter, ratio
        A, b, sign = self._rows
        lp._check_against(np.vstack([np.column_stack([A, -b]), np.append(den, 0.0)]),
                          np.append(np.zeros(len(b)), 1.0), np.append(sign, 0.0))
        if self._low is not None:
            lp._lift = np.vstack([np.eye(n, n + 1), np.append(self._low, 1.0)])
        return lp

    @property
    def feasible(self) -> bool:
        return self._tab is not None

    def feasible_point(self) -> np.ndarray | None:
        return None if self._tab is None else self._shifted(self._tab.solution()[: self.n_vars])

    def _shifted(self, x: np.ndarray) -> np.ndarray:
        """The program's x = x' @ lift + low from the tableau's x', or a stack of them."""
        x = x if self._lift is None else x @ self._lift
        return x if self._low is None else x + self._low

    def _cost(self, objective, sense: str) -> np.ndarray:
        """The cost to minimize over every tableau column, one row per row
        of a stack of objectives."""
        cost = np.zeros(objective.shape[:-1] + (self._tab.T.shape[1] - 1,))
        c = objective if sense == "min" else -objective
        cost[..., : self.n_vars] = c if self._lift is None else c @ self._lift.T
        return cost

    def optimize(self, objective, sense: str) -> LpResult:
        return self._phase2(objective, sense)[0]

    def extremes(self, objective):
        """``optimize``'s results for min and for max of one objective, each
        from the start bank's tableau whose solution scores best on it."""
        bank = self._starts()
        if bank is None:
            return self.optimize(objective, "min"), self.optimize(objective, "max")
        obj = np.asarray(objective, dtype=float)
        Ts, bases, X = bank
        score = X @ obj
        return tuple(self._phase2(obj, sense, _Tableau(Ts[j], bases[j]))[0]
                     for sense, j in (("min", score.argmin()), ("max", score.argmax())))

    def ranges(self, rows):
        """(lowest, highest) of each row of objective weights (-inf and +inf
        where unbounded): ``optimize_many`` over the rows and their negations,
        each starting from the start bank's tableau whose solution scores best
        on it."""
        rows = np.asarray(rows, dtype=float)  # a uint8 row negated would wrap
        lows, neg_highs = np.split(self._solve_many(np.concatenate((rows, -rows)), "min", self._starts())[0], 2)
        return lows, -neg_highs

    def _starts(self):
        """The start bank, built on first use: for each variable j, the
        tableau that ``_phase2`` of max x_j ends on (read-only, stacked), its
        basis and its witness, a row of X. It depends only on the program.
        None if the program is infeasible."""
        if self._bank is None and self._tab is not None:
            runs = [self._phase2(e, "max") for e in np.eye(self.n_vars)]
            Ts, bases = np.stack([t.T for _, t in runs]), np.stack([t.basis for _, t in runs])
            Ts.flags.writeable = bases.flags.writeable = False
            self._bank = Ts, bases, np.stack([res.witness for res, _ in runs])
        return self._bank

    def _phase2(self, objective, sense: str, start: _Tableau | None = None):
        """``optimize``'s result and the tableau it ended on (None if
        infeasible), from a copy of start (default: the phase-1 tableau)."""
        if self._tab is None:
            return LpResult("INFEASIBLE", infeasibility=self.infeasibility), None
        obj = np.asarray(objective, dtype=float)
        tab = (self._tab if start is None else start).copy()
        tab.price(self._cost(obj, sense))
        status = _run_simplex(tab, self.bland_after, self.max_iter)
        x = self._shifted(tab.solution()[: self.n_vars])
        if status == "UNBOUNDED":
            return LpResult("UNBOUNDED", witness=x), tab
        return LpResult("OPTIMAL", value=float(obj @ x), witness=self._checked(x)), tab

    def optimize_many(self, rows, sense: str) -> np.ndarray:
        """The optimal value of each row of objective weights (-inf or +inf where
        unbounded), by phase 2 in lockstep: each objective makes ``optimize``'s
        pivots, one a step, and those on one tableau entering one column share
        the pivot. A pass takes ``_LIVE_ENTRIES`` over the tableau's size
        objectives and runs each to its end."""
        return self._solve_many(rows, sense)[0]

    def _solve_many(self, rows, sense: str, bank=None):
        """``optimize_many``'s values, its distinct checked witnesses and each
        row's witness (-1: none). Each objective starts from the phase-1
        tableau or, given a start bank, from the bank's tableau whose solution
        scores best on it (the lowest index among ties). A pass holds one
        tableau and one reduced-cost row per objective within ``_LIVE_ENTRIES``,
        so each objective stays in its pass until it is optimal or unbounded.
        An optimal one takes its tableau's basic solution, read off directly
        while a single tableau is left, as at a pass's first step, where every
        program may end."""
        if self._tab is None:
            raise InfeasibleSystemError(f"program is infeasible (residual {self.infeasibility})")
        rows = np.asarray(rows, dtype=float)
        n, width = self.n_vars, self._tab.T.shape[1]
        values = np.full(len(rows), -np.inf if sense == "min" else np.inf)
        found, owner = [], np.full(len(rows), -1)
        size = max(1, _LIVE_ENTRIES // self._tab.T.size)
        for start in range(0, len(rows), size):
            ids = np.arange(start, min(start + size, len(rows)))
            Z = self._cost(rows[ids], sense)  # the reduced-cost rows, as price makes them
            if bank is None:
                Ts, bases, on = self._tab.T[None, :-1], self._tab.basis[None], np.zeros(len(ids), dtype=int)
                Z -= Z[:, bases[0]] @ Ts[0, :, :-1]
            else:
                # the starts in use, in bank order; each row priced against its own
                bank_T, bank_basis, X = bank
                score = rows[ids] @ X.T
                used, on = _groups((score if sense == "min" else -score).argmin(axis=1), len(X))
                Ts, bases = bank_T[used, :-1], bank_basis[used]
                for g in range(len(used)):
                    mine = np.flatnonzero(on == g)
                    Z[mine] -= Z[mine[:, None], bases[g]] @ Ts[g, :, :-1]
            for it in range(self.max_iter):
                dantzig = it < self.bland_after
                enter = Z.argmin(axis=1) if dantzig else (Z < -TAU_LP).argmax(axis=1)
                live = Z[np.arange(len(Z)), enter] < -TAU_LP
                if not live.all():  # the rest take their tableau's basic solution
                    if len(Ts) == 1:
                        which, X = 0, np.zeros((1, width))
                        X[0, bases[0]] = Ts[0, :, -1]
                    else:
                        ends, which = _groups(on[~live], len(Ts))
                        X = np.zeros((len(ends), width))
                        X[np.arange(len(ends))[:, None], bases[ends]] = Ts[ends, :, -1]
                    owner[ids[~live]] = sum(map(len, found)) + which
                    found.append(X)
                    if not live.any():
                        break
                    ids, Z, on, enter = ids[live], Z[live], on[live], enter[live]
                keys, on = _groups(on * width + enter, len(Ts) * width)
                t, col = np.divmod(keys, width)
                C = Ts[t, :, col]
                ratios = np.divide(Ts[t, :, -1], C, out=np.full(C.shape, np.inf), where=C > PIVOT_TOL)
                least = ratios.min(axis=1, initial=np.inf)
                go = least < np.inf  # unbounded ones stop before pivoting
                if not go.all():
                    keep = go[on]
                    if not keep.any():
                        break
                    ids, Z, on = ids[keep], Z[keep], np.cumsum(go)[on[keep]] - 1
                    t, col, C, ratios, least = t[go], col[go], C[go], ratios[go], least[go]
                tied = ratios <= least[:, None] + TAU_ZERO
                # the largest pivot among ties, or (Bland) the smallest basis index
                leave = (np.where(tied, C, -np.inf).argmax(axis=1) if dantzig
                         else np.where(tied, bases[t], width).argmin(axis=1))
                Ts, bases = Ts[t], bases[t]  # the old stack goes before the pivot's product
                _pivot_stack(Ts, bases, col, C, leave, Z, on)
            else:
                raise NumericalFailureError(f"simplex exceeded {self.max_iter} iterations")
        witnesses = self._checked(self._shifted(np.concatenate([np.zeros((0, width)), *found])[:, :n]))
        bounded = owner >= 0
        values[bounded] = np.einsum("ij,ij->i", rows[bounded], witnesses[owner[bounded]])
        return values, witnesses, owner

    def scaled_violation(self, x: np.ndarray) -> np.ndarray:
        """By how much x breaks each row (<= 0 where it holds), in units of
        the row's largest |coefficient|."""
        r = (x @ self._G.T - self._h)[..., : self._eq.size]
        return np.where(self._eq, np.abs(r), r) / self._largest

    def _checked(self, x: np.ndarray) -> np.ndarray:
        """x, or a stack of witnesses, once each meets every row to
        10 * TAU_LP (one product with the rows as a <= stack) and has no
        entry below -10 * TAU_LP; a NaN fails either test."""
        if not (x @ self._G.T - self._h).max(initial=-np.inf) <= 10 * TAU_LP:
            raise NumericalFailureError("solver returned an infeasible witness")
        if not x.min(initial=np.inf) >= -10 * TAU_LP:
            raise NumericalFailureError("solver returned a negative witness entry")
        return x


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex. Witnesses are feasible within 10 * TAU_LP."""
    prepared = PreparedLp(*_stack(lp.n_vars, lp.constraints))
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
    redundant = []  # rows all-zero in the structural columns
    for row in np.flatnonzero(tab.basis >= n_structural):
        entries = np.abs(tab.T[row, :n_structural])
        if entries.size and entries.max() > PIVOT_TOL:
            tab.T[row, -1] = 0.0
            tab.pivot(row, int(np.argmax(entries)))
        else:
            redundant.append(row)
    if redundant:
        keep = np.ones(len(tab.T), dtype=bool)  # the last row is the cost row
        keep[redundant] = False
        tab.T, tab.basis = tab.T[keep], tab.basis[keep[:-1]]
    tab.T = np.concatenate((tab.T[:, :n_structural], tab.T[:, -1:]), axis=1)


@dataclass(frozen=True, eq=False)
class HullMembership:
    inside: bool
    weights: np.ndarray | None = None  # convex coefficients when inside
    normal: np.ndarray | None = None  # separating hyperplane, max |normal_j| = 1
    offset: float | None = None  # max_i normal @ v_i, below normal @ point
    margin: float | None = None  # normal @ point - offset > 0


def hull_membership(point: Distribution, vertices: list[Distribution]) -> HullMembership:
    """Exact membership of a point in the convex hull of finitely many points.

    One program, V.T @ w = point and sum(w) = 1 over w >= 0, answers both
    ways. Inside yields its convex weights, the checked feasible point of
    its phase 1; outside, the Farkas ray of its
    failed phase 1 yields a separating hyperplane (normal, offset) with
    normal @ point > offset >= normal @ v_i, which is checked.
    """
    if not vertices:
        raise ValueError("vertex list must be nonempty")
    if any(v.space != point.space for v in vertices):
        raise SpaceMismatchError("hull vertices live on a different space")
    V = np.stack([v.probs for v in vertices])  # k x n
    k, n = V.shape
    # the sum row stays: a point that undersums is not a mixture of vertices
    lp = PreparedLp(np.vstack([V.T, np.ones(k)]), np.append(point.probs, 1.0), np.zeros(n + 1))
    if lp.feasible:
        return HullMembership(inside=True, weights=lp._checked(lp.feasible_point()))
    normal = lp.farkas[:n]
    size = np.abs(normal).max()
    if size > 0:
        normal = normal / size
    offset = float((V @ normal).max())
    margin = float(normal @ point.probs) - offset
    if not margin > 0:  # a zero normal separates nothing
        raise NumericalFailureError("phase 1 gave no separating hyperplane")
    return HullMembership(inside=False, normal=normal, offset=offset, margin=margin)


def enumerate_polytope_vertices(A: np.ndarray, b: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The distinct vertices of {x >= 0, A @ x (<=, =, >=) b} as a (k, n)
    array, by double description (Motzkin et al. 1953; Fukuda & Prodon 1996)
    on the cone of (x, t) >= 0 with h @ (x, t) >= 0 for each row's cut
    h = +-(a, -b) scaled to max |entry| 1 (an = row is two cuts, made first).
    From the orthant's unit rays, each cut keeps the rays on its nonnegative
    side and joins each adjacent (+, -) pair into their edge's ray on the cut:
    adjacent iff they share n - 1 tight planes (|h @ ray| <= TAU_LP) and no
    third ray is tight on them all. The rays with t > TAU_LP, at t = 1, are
    the vertices (t = 0: directions), each meeting the rows to TAU_LP.
    """
    n = A.shape[1]
    H = np.column_stack([A, -b])
    H = np.vstack([H[sign == 0], -H[sign == 0], -sign[sign != 0, None] * H[sign != 0]])
    R, T = np.eye(n + 1), ~np.eye(n + 1, dtype=bool)  # rays as rows; T[r, k]: r is tight on plane k
    for h in H / np.abs(H).max(axis=1, initial=np.finfo(float).tiny)[:, None]:
        s = R @ h
        P, N = np.flatnonzero(s > TAU_LP), np.flatnonzero(s < -TAU_LP)
        if not N.size:  # the cut removes no ray, so it adds none
            T = np.column_stack([T, s <= TAU_LP])
            continue
        p, q = np.nonzero(T[P].astype(float) @ T[N].T >= n - 1)
        p, q = P[p], N[q]
        shared = T[p] & T[q]
        adjacent = (shared.astype(float) @ ~T.T == 0).sum(axis=1) == 2  # only p and q are tight there
        p, q, shared = p[adjacent], q[adjacent], shared[adjacent]
        new, keep = s[p, None] * R[q] - s[q, None] * R[p], s >= -TAU_LP
        R = np.vstack([R[keep], new / np.abs(new).max(axis=1, keepdims=True)])
        T = np.vstack([np.column_stack([T, s <= TAU_LP])[keep], np.column_stack([shared, np.ones(len(p), bool)])])
    X = R[R[:, n] > TAU_LP]
    X = X[:, :n] / X[:, n:]
    X = X[np.all(X >= -TAU_LP, axis=1) & np.all(_violation((A, b, sign), X) <= TAU_LP, axis=1)]
    # rays of one vertex reached along different edges can round apart:
    # keep the first of each run within 10 * TAU_LP (sup norm)
    near = np.ones((len(X), len(X)), dtype=bool)
    for x in X.T:
        near &= np.abs(x[:, None] - x) <= 10 * TAU_LP
    return X[~np.triu(near, 1).any(axis=0)]
