"""Credal sets: finite vertex lists, linear constraint systems, and
one-parameter families.

A credal set is one of three representations, and each answers
``extremes(weights)``: the lowest and highest value of ``weights . p``
over its members, with a member attaining each. Envelopes and bet
verdicts read their answers from it. ``ranges(rows)`` gives the same
lowest and highest values, without members, for a stack of weight rows
at once; lower envelopes read theirs from it. On a ``LinearSystem`` both
start phase 2 from the prepared program's start bank, built by the first
of them and kept (see ``linprog.PreparedLp``).

* ``VertexSet`` — a finite (generally nonconvex) set of distributions.
  Polytopes are represented by ``LinearSystem``, not by their vertex
  lists, so a two-element VertexSet really is two points.
* ``LinearSystem`` — all distributions satisfying linear constraints;
  the probability simplex (sum = 1, p >= 0) is implicit.
* ``ParametricFamily`` — a union of one-parameter curves drawn from a
  closed generator registry, optionally composed with conditioning on
  an event. Generally nonconvex.

A generator is its atom polynomials: each atom probability is a
polynomial in a scan parameter s (theta itself, or sqrt(w) for the
independence-square family), and a member is their row at one s,
renormalised on the event when conditioned. Family answers are exact:
envelopes, bet verdicts, E-admissibility and membership are read off the
rows at the real roots of a few polynomials built from the atom
polynomials (see ``ParametricFamily.critical_members``), and each
witness is the row that decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .distributions import (
    DIE_BRANCHES,
    DIE_EPS_DOMAIN,
    Distribution,
    _bayes_rows,
    _taking_validated,
    coin_atom_polys,
    die_atom_polys,
    die_bias,
    die_space,
    make_distribution,
)
from .errors import (
    DenominatorVanishesError,
    EmptySetError,
    InfeasibleSystemError,
    ParamRangeError,
    SpaceMismatchError,
    ZeroEvidenceError,
)
from .linprog import (
    Constraint, LpResult, PreparedLp, _stack, constraint,
)
from .spaces import Event, OutcomeSpace, coin_space
from .tolerances import TAU_LP, TAU_NORM, TAU_ZERO

GRID_STEP = 1e-4
# values held at once by VertexSet.ranges: a block's float rows and vertex values
_RANGE_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class IntervalDistribution:
    """Per-atom probability bounds [lo, hi]."""

    space: OutcomeSpace
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).copy()
        hi = np.asarray(self.hi, dtype=float).copy()
        if lo.shape != (self.space.size,) or hi.shape != (self.space.size,):
            raise ValueError("bound vectors must have one entry per atom")
        # written so that NaN, which fails every comparison, is refused too
        if not np.all((lo >= -TAU_NORM) & (hi <= 1.0 + TAU_NORM) & (lo <= hi + TAU_NORM)):
            raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")
        if float(lo.sum()) > 1.0 + TAU_NORM or float(hi.sum()) < 1.0 - TAU_NORM:
            raise InfeasibleSystemError(
                f"no distribution fits: sum(lo)={float(lo.sum())}, sum(hi)={float(hi.sum())}"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, d: Distribution, tol: float = TAU_NORM) -> bool:
        if d.space != self.space:
            raise SpaceMismatchError("distribution is over a different space")
        return bool(
            np.all(d.probs >= self.lo - tol) and np.all(d.probs <= self.hi + tol)
        )


@dataclass(frozen=True)
class VertexSet:
    """A finite set of distributions over a common space."""

    vertices: tuple[Distribution, ...]
    dropped: int = field(default=0, compare=False)  # zero-evidence vertices lost in conditioning

    def __post_init__(self):
        if not self.vertices:
            raise EmptySetError("vertex set must be nonempty")
        if any(v.space != self.vertices[0].space for v in self.vertices[1:]):
            raise SpaceMismatchError("vertices live on different spaces")

    @property
    def space(self) -> OutcomeSpace:
        return self.vertices[0].space

    def extremes(self, weights: np.ndarray):
        """(lowest, member attaining it, highest, member attaining it) of
        weights . p over the vertices."""
        vals = np.stack([v.probs for v in self.vertices]) @ np.asarray(weights, dtype=float)
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        return float(vals[lo]), self.vertices[lo], float(vals[hi]), self.vertices[hi]

    def ranges(self, rows: np.ndarray):
        """(lowest, highest) of row . p over the vertices for each row of
        weights, as two arrays, one block of rows per matrix product."""
        rows = np.asarray(rows)
        V = np.stack([v.probs for v in self.vertices])
        lows, highs = np.empty(len(rows)), np.empty(len(rows))
        step = max(1, _RANGE_BLOCK // (len(V) + V.shape[1]))
        for start in range(0, len(rows), step):
            vals = rows[start : start + step] @ V.T
            lows[start : start + step] = vals.min(axis=1)
            highs[start : start + step] = vals.max(axis=1)
        return lows, highs

    def sample(self, k: int, rng: np.random.Generator) -> list[Distribution]:
        idx = rng.integers(0, len(self.vertices), size=k)
        return [self.vertices[i] for i in idx]


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """All distributions satisfying the constraints; feasibility is
    verified on construction.

    Construction stacks the full rows once, the simplex row last, and runs
    phase 1 on them; the prepared program keeps both, so later programs over
    the system are built from them and later optimizations skip to phase 2.
    """

    space: OutcomeSpace
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        n = self.space.size
        A, b, sign = _stack(n, self.constraints)
        prepared = PreparedLp(np.vstack([A, np.ones(n)]), np.append(b, 1.0), np.append(sign, 0.0))
        if not prepared.feasible:
            raise InfeasibleSystemError(
                f"constraint system is infeasible (residual {prepared.infeasibility})"
            )
        object.__setattr__(self, "_prepared", prepared)

    def full_constraints(self) -> tuple[Constraint, ...]:
        """Explicit rows plus the simplex normalization row."""
        return (*self.constraints, constraint(np.ones(self.space.size), "=", 1.0))

    def optimize(self, objective: np.ndarray, sense: str) -> LpResult:
        return self._prepared.optimize(np.asarray(objective, dtype=float), sense)

    def extremes(self, weights: np.ndarray):
        """(lowest, member attaining it, highest, member attaining it) of
        weights . p over the system, from one min and one max LP, each
        starting from a tableau of the prepared program's start bank."""
        lo, hi = self._prepared.extremes(weights)
        return (
            lo.value, _member_from_witness(self.space, lo.witness),
            hi.value, _member_from_witness(self.space, hi.witness),
        )

    def ranges(self, rows: np.ndarray):
        """(lowest, highest) of row . p over the system for each row of weights,
        from one lockstep pass over the rows and their negations, each
        starting from a tableau of the prepared program's start bank."""
        return self._prepared.ranges(rows)

    def contains(self, d: Distribution, tol: float = TAU_LP) -> bool:
        """Whether d meets every explicit row to tol, each row divided by
        its largest |coefficient| so that its scale does not matter."""
        if d.space != self.space:
            raise SpaceMismatchError("distribution is over a different space")
        # the last row is the simplex row, which a distribution meets already
        return bool(np.all(self._prepared.scaled_violation(d.probs)[:-1] <= tol))

    def a_member(self) -> Distribution:
        return _member_from_witness(self.space, self._prepared.feasible_point())

    def sample(self, k: int, rng: np.random.Generator) -> list[Distribution]:
        """k mixtures of random vertices: the minimizers of min(k, max(4, 2n))
        normal objectives, from one lockstep pass (the system is bounded, so
        each has one), each mixture a Dirichlet draw over them."""
        n = self.space.size
        objectives = rng.normal(size=(min(k, max(4, n * 2)), n))
        W, owner = self._prepared._solve_many(objectives, "min")[1:]
        points = np.clip(W[owner], 0.0, 1.0)
        out = []
        for _ in range(k):
            mix = points[0] if len(points) == 1 else np.einsum("i,ij->j", rng.dirichlet(np.ones(len(points))), points)
            out.append(make_distribution(self.space, mix / mix.sum()))
        return out


def _clipped_renormalised(W: np.ndarray) -> np.ndarray:
    """An LP witness, or a stack of them by rows, clipped at 0 and renormalised."""
    W = np.maximum(W, 0.0)
    W /= W.sum(axis=-1, keepdims=True)
    return W


def _member_from_witness(space: OutcomeSpace, witness: np.ndarray) -> Distribution:
    """The distribution an LP witness stands for: clipped at 0, renormalised."""
    return _taking_validated(space, _clipped_renormalised(witness))


def interval_to_linear_system(iv: IntervalDistribution) -> LinearSystem:
    """Box bounds per atom as a (feasibility-checked) LinearSystem."""
    rows = []
    for e, lo, hi in zip(np.eye(iv.space.size), iv.lo, iv.hi):
        rows += [constraint(e, ">=", lo), constraint(e, "<=", hi)]
    return LinearSystem(iv.space, tuple(rows))


def _same(theta):
    return theta


def _iid_coin(params):
    n = params.get("n_tosses", 2)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParamRangeError(f"n_tosses must be an integer >= 1, got {n!r}")
    return coin_space(n), coin_atom_polys(n), (0.0, 1.0), _same


def _die_bias(params):
    return die_space(), die_atom_polys(params.get("branch", "favor-2")), DIE_EPS_DOMAIN, _same


def _independent_square(params):
    # P(HH) = w; in s = sqrt(w) the family is exactly the two-toss coin family
    return coin_space(2), coin_atom_polys(2), (0.0, 1.0), np.sqrt


# The closed generator registry: params -> (space, atom polynomials in s as
# ascending coefficient rows, theta domain, the map theta -> s).
GENERATORS = {
    "iid-coin": _iid_coin,
    "die-bias": _die_bias,
    "independent-square": _independent_square,
}


@dataclass(frozen=True)
class FamilyBranch:
    """The members of one generator at theta in [lo, hi]: its atom polynomials
    at s = to_scan(theta), kept about s = 0 and, in u = 1 - s, about s = 1."""

    generator: str
    lo: float
    hi: float
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ParamRangeError(
                f"unknown generator {self.generator!r}; registry: {sorted(GENERATORS)}"
            )
        space, polys, domain, to_scan = GENERATORS[self.generator](dict(self.params))
        if not domain[0] <= self.lo <= self.hi <= domain[1]:
            raise ParamRangeError(f"{self.generator} branch needs {domain[0]} <= lo <= hi <= {domain[1]}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "to_scan", to_scan)
        object.__setattr__(self, "atom_forms", (polys, polys @ _mirror(polys.shape[1])))


@dataclass(frozen=True)
class ParametricFamily:
    """A union of generator branches, optionally conditioned on an event."""

    branches: tuple[FamilyBranch, ...]
    conditioning: Event | None = None

    def __post_init__(self):
        if not self.branches:
            raise EmptySetError("family needs at least one branch")
        space = self.branches[0].space
        for b in self.branches[1:]:
            if b.space != space:
                raise SpaceMismatchError("family branches live on different spaces")
        if self.conditioning is not None and self.conditioning.space != space:
            raise SpaceMismatchError("conditioning event is over a different space")

    @property
    def space(self) -> OutcomeSpace:
        return self.branches[0].space

    def member(self, branch_index: int, theta: float) -> Distribution:
        """The member of one branch at theta: its atom polynomials at
        s = to_scan(theta), conditioned as the family is."""
        b = self.branches[branch_index]
        if not b.domain[0] <= theta <= b.domain[1]:
            raise ParamRangeError(f"{b.generator} parameter must be within {list(b.domain)}, got {theta}")
        s, M = self._members_at(branch_index, np.array([b.to_scan(theta)]))
        if not len(s):
            raise ZeroEvidenceError(f"conditioning event has probability <= {TAU_ZERO} at {theta}")
        return make_distribution(self.space, M[0])

    def scan_grid(self, branch_index: int, step: float = GRID_STEP):
        """(scan values, member matrix) on a uniform grid over one branch;
        conditioned rows are renormalized on the event and zero-evidence
        rows masked out. For inspection only: every family answer of the
        library comes from ``critical_members``."""
        b = self.branches[branch_index]
        a, z = b.to_scan(b.lo), b.to_scan(b.hi)
        count = max(2, int(math.ceil((z - a) / step)) + 1)
        return self._members_at(branch_index, np.linspace(a, z, count))

    def critical_members(
        self,
        branch_index: int,
        levels: np.ndarray | None = None,
        ratios: np.ndarray | None = None,
    ):
        """(scan values, member matrix) at every point of one branch where
        a family answer can be decided exactly.

        Each row w of ``levels`` or ``ratios`` weights the atoms, giving
        the numerator N = w . P of a member functional N / D, with P the
        atom polynomials restricted to the conditioning event and D their
        sum (D = 1 when unconditioned). The points are the interval ends,
        the ends of the parts where D > TAU_ZERO, the real roots of every
        level numerator N (where N / D changes sign) and of N'D - N D' for
        every ratio numerator (where N / D is stationary), and the midpoint
        between each pair of neighbours. Any functional whose pieces are
        those ratios therefore attains its extrema, and takes every sign
        pattern it has, at one of these points.
        """
        b = self.branches[branch_index]
        a, z = b.to_scan(b.lo), b.to_scan(b.hi)
        ev = None if self.conditioning is None else self.conditioning.indicator()
        # points s <= 1/2 are solved in s, the rest in u = 1 - s
        forms = [f for f, used in ((0, a <= 0.5), (1, z > 0.5)) if used]
        blocks = [_critical_polys(b.atom_forms[f], ev, levels, ratios) for f in forms]
        found, t = _real_roots(_stack_polys([polys for polys, _ in blocks]))
        flip = np.concatenate([np.full(len(p), f) for f, (p, _) in zip(forms, blocks)])[found]
        edge = np.concatenate([e for _, e in blocks])[found]
        roots = np.where(flip == 1, 1.0 - t, t)[t <= 0.5]
        # an end of the parts with evidence may fall between two floats
        e = roots[edge[t <= 0.5]]
        # 0 and 1 stand for the roots divided out at the origin of each
        # form, and 1/2 is where the forms meet
        s = np.unique(np.concatenate(
            [[a, z, 0.0, 0.5, 1.0], roots, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
        ))
        s = s[(s >= a) & (s <= z)]
        return self._members_at(branch_index, np.concatenate([s, (s[1:] + s[:-1]) / 2]))

    def _members_at(self, branch_index: int, s: np.ndarray):
        M = _atoms_at(self.branches[branch_index].atom_forms, s)
        if self.conditioning is None:
            return s, M
        keep, M = _bayes_rows(M, self.conditioning)
        return s[keep], M

    def _classes(self, branch: FamilyBranch) -> np.ndarray:
        """(classes, atoms) mask of a branch's atom classes: atoms on the
        conditioning event whose polynomial rows are identical, and which
        every member therefore gives one probability."""
        on = True if self.conditioning is None else self.conditioning.indicator() > 0
        G = _atom_classes(branch.atom_forms[0].tobytes(), branch.atom_forms[0].shape[1]) & on
        return G[G.any(axis=1)]

    def contains(self, d: Distribution, tol: float = 1e-9) -> bool:
        """Whether some branch point coincides with d within sup-norm tol.

        A member's probability of a class (see ``_classes``) must lie in
        the window [max d - tol, min d + tol] over the class's atoms. A
        branch with an empty window holds no such member; on the others,
        the points where a class crosses an end of its window decide."""
        if d.space != self.space:
            raise SpaceMismatchError("distribution is over a different space")
        for bi, b in enumerate(self.branches):
            G = self._classes(b)
            lo = np.where(G, d.probs, -np.inf).max(axis=1) - tol
            hi = np.where(G, d.probs, np.inf).min(axis=1) + tol
            if np.any(lo > hi):
                continue
            first = G & (G.cumsum(axis=1) == 1)  # one atom stands for its class
            _, M = self.critical_members(bi, levels=np.concatenate([first - hi[:, None], first - lo[:, None]]))
            if len(M) and float(np.abs(M - d.probs).max(axis=1).min()) <= tol:
                return True
        return False

    def extremes(self, weights: np.ndarray):
        """(lowest, member attaining it, highest, member attaining it) of
        weights . p over the members, decided exactly; each member is the
        critical row the value was read from."""
        weights = np.asarray(weights, dtype=float)
        found = [self.critical_members(bi, ratios=weights[None, :])[1] for bi in range(len(self.branches))]
        M = np.concatenate(found)
        if not len(M):
            raise EmptySetError("family has no members (conditioning removed all)")
        vals = M @ weights
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        return (
            float(vals[lo]), make_distribution(self.space, M[lo]),
            float(vals[hi]), make_distribution(self.space, M[hi]),
        )

    def ranges(self, rows: np.ndarray):
        """(lowest, highest) of row . p over the members for each row of
        weights, as two arrays. Rows whose sums over each atom class of
        every branch agree weigh every member alike, so one ``extremes``
        call serves each distinct set of class sums."""
        rows = np.asarray(rows, dtype=float)
        sums = np.concatenate([rows @ self._classes(b).T for b in self.branches], axis=1)
        order = np.lexsort(sums.T)  # stable, so each group's first row leads it
        new = np.append(True, (sums[order[1:]] != sums[order[:-1]]).any(axis=1))[: len(rows)]
        back = (np.cumsum(new) - 1)[np.argsort(order)]
        found = np.array([self.extremes(rows[i])[::2] for i in order[new]]).reshape(-1, 2)
        return tuple(found[back].T)

    def sample(self, k: int, rng: np.random.Generator) -> list[Distribution]:
        out: list[Distribution] = []
        guard = 0
        while len(out) < k and guard < 20 * k:
            guard += 1
            bi = int(rng.integers(0, len(self.branches)))
            b = self.branches[bi]
            theta = float(rng.uniform(b.lo, b.hi))
            try:
                out.append(self.member(bi, theta))
            except ZeroEvidenceError:
                continue
        if not out:
            raise EmptySetError("conditioning leaves no family member with evidence")
        return out


# --- exact family kernel ---------------------------------------------------
#
# Atom polynomials are kept in two forms: about s = 0, and in u = 1 - s
# about s = 1. Coin atoms theta^h (1 - theta)^(n - h) vanish only at 0
# and 1; expanded about the far end, a high-order zero is lost to
# cancellation (the terms of (1 - theta)^k near theta = 1), while the form
# about the near end keeps full relative accuracy. Points with s <= 1/2
# are therefore handled in the first form and the rest in the second.

# leading coefficients below this share of a row's largest are rounding
# left by cancellation, not a genuine degree
_LEAD_TOL = 1e-13
# a double root is computed as a complex pair about sqrt(eps) off the axis
_IMAG_TOL = 1e-7
# the parts with evidence are cut a hair inside D = TAU_ZERO, so that
# the cut point itself has evidence; near the cut D is a sum of terms of
# one sign, evaluated to a few ulps
_EDGE = TAU_ZERO * (1.0 + 1e-11)


@lru_cache(maxsize=32)
def _atom_classes(polys: bytes, width: int) -> np.ndarray:
    """(classes, atoms) mask grouping identical rows, cached by their bytes."""
    label = np.unique(np.frombuffer(polys).reshape(-1, width), axis=0, return_inverse=True)[1].reshape(-1)
    G = np.arange(label.max() + 1)[:, None] == label
    G.flags.writeable = False
    return G


@lru_cache(maxsize=32)
def _mirror(width: int) -> np.ndarray:
    """T with (c @ T) the coefficients of p(1 - u) in u, for c those of p(s)."""
    return np.array(
        [[math.comb(i, k) * (-1) ** k for k in range(width)] for i in range(width)],
        dtype=float,
    )


def _atoms_at(forms, s: np.ndarray) -> np.ndarray:
    """(points, atoms) atom probabilities, each point in its own form."""
    out = np.empty((len(s), forms[0].shape[0]))
    low = s <= 0.5
    out[low] = P.polyval(s[low], forms[0].T).T
    out[~low] = P.polyval(1.0 - s[~low], forms[1].T).T
    return out


def _polymul_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((A.shape[0], A.shape[1] + len(b) - 1))
    for j, bj in enumerate(b):
        out[:, j : j + A.shape[1]] += A * bj
    return out


def _derivative_rows(A: np.ndarray) -> np.ndarray:
    return A[:, 1:] * np.arange(1, A.shape[1])


def _critical_polys(form, ev, levels, ratios):
    """The polynomials, in one form, whose roots are candidate points, and
    a mask of the one that bounds the parts with evidence."""
    restricted = form if ev is None else form * ev[:, None]
    polys = []
    if levels is not None:
        polys.append(levels @ restricted)
    if ratios is not None:
        N = ratios @ restricted
        if ev is None:
            polys.append(_derivative_rows(N))
        else:
            D = restricted.sum(axis=0)
            dD = _derivative_rows(D[None, :])[0]
            polys.append(_polymul_rows(_derivative_rows(N), D) - _polymul_rows(N, dD))
    if ev is not None:
        edge = restricted.sum(axis=0)
        edge[0] -= _EDGE
        polys.append(edge[None, :])
    stacked = _stack_polys(polys)
    is_edge = np.zeros(len(stacked), dtype=bool)
    is_edge[-1:] = ev is not None
    return stacked, is_edge


def _stack_polys(blocks) -> np.ndarray:
    """The rows of every block, zero-padded to the widest."""
    blocks = [b for b in blocks if len(b)]
    out = np.zeros((sum(len(b) for b in blocks), max((b.shape[1] for b in blocks), default=1)))
    row = 0
    for b in blocks:
        out[row : row + len(b), : b.shape[1]] = b
        row += len(b)
    return out


def _real_roots(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row index, root) of the real roots of each row of C (ascending
    coefficients), from one eigenvalue call over companion matrices padded
    to a common degree. Roots at 0 are not reported; callers keep 0 as a
    candidate of its own."""
    mag = np.abs(C)
    big = mag > _LEAD_TOL * mag.max(axis=1, keepdims=True)
    width = C.shape[1]
    top = width - 1 - np.argmax(big[:, ::-1], axis=1)
    low = np.argmax(C != 0, axis=1)  # exact roots at 0, divided out
    deg = np.where(big.any(axis=1), top - low, 0)
    rows = np.nonzero(deg >= 1)[0]
    if not len(rows):
        return np.zeros(0, dtype=int), np.zeros(0)
    deg, low = deg[rows], low[rows]
    n = int(deg.max())
    k = np.arange(n)
    shifted = np.take_along_axis(C[rows], np.minimum(low[:, None] + np.arange(n + 1), width - 1), axis=1)
    lead = shifted[np.arange(len(rows)), deg]
    inside = k[None, :] < deg[:, None]
    comp = np.zeros((len(rows), n, n))
    comp[:, k[1:], k[:-1]] = inside[:, 1:]
    comp[np.arange(len(rows))[:, None], k[None, :], (deg - 1)[:, None]] = np.where(
        inside, -shifted[:, :n] / lead[:, None], 0.0
    )
    eig = np.linalg.eigvals(comp[:, ::-1, ::-1])
    real = np.abs(eig.imag) <= _IMAG_TOL
    found = np.broadcast_to(rows[:, None], eig.shape)[real]
    return found, _polish(C[found], eig.real[real])


def _horner(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of C evaluated at x[i]."""
    out = np.zeros(len(x))
    for c in C.T[::-1]:
        out = out * x + c
    return out


def _polish(C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Two Newton steps on each root r[i] of row C[i], kept only where they
    shrink the residual. The eigenvalues carry an error relative to the
    largest coefficient, which swamps a root near 1e-13 (where the
    evidence of an end atom crosses TAU_ZERO); Horner's residual near 0
    is accurate to the size of the terms."""
    dC = C[:, 1:] * np.arange(1, C.shape[1])
    f = _horner(C, r)
    for _ in range(2):
        df = _horner(dC, r)
        trial = r - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
        f_trial = _horner(C, trial)
        better = np.abs(f_trial) < np.abs(f)
        r, f = np.where(better, trial, r), np.where(better, f_trial, f)
    return r


CredalSet = VertexSet | LinearSystem | ParametricFamily


def coin_family(p_lo: float, p_hi: float, n_tosses: int = 2) -> ParametricFamily:
    """All iid coin-product distributions with P(H) in [p_lo, p_hi]."""
    return ParametricFamily(
        (FamilyBranch("iid-coin", p_lo, p_hi, (("n_tosses", n_tosses),)),)
    )


def die_family() -> ParametricFamily:
    """Both die-bias branches over the full eps interval [-1/48, 1/48]."""
    eps = 1.0 / 48.0
    return ParametricFamily(
        tuple(
            FamilyBranch("die-bias", -eps, eps, (("branch", b),))
            for b in DIE_BRANCHES
        )
    )


def die_star() -> VertexSet:
    """The two-point set of extreme die biases (eps = +-1/12 traded
    between faces 1 and 2)."""
    return VertexSet((die_bias(0.0, "favor-2"), die_bias(0.0, "favor-1")))


def independent_square_family(w_lo: float, w_hi: float) -> ParametricFamily:
    return ParametricFamily((FamilyBranch("independent-square", w_lo, w_hi),))


def _ratio_program(system: LinearSystem, den: np.ndarray, refusal: type) -> PreparedLp:
    """The program for ratios over p(E) = den . p on the system; raises
    ``refusal`` when p(E) has zero upper bound there.

    Uses the standard substitution y = t p, t = 1 / (den @ p): every row
    of the system (the simplex row included) becomes homogeneous in
    (y, t), the simplex row becoming sum(y) = t, and the denominator
    becomes the normalization y @ den = 1. Optimize with objectives of
    the form append(num, 0). It takes no phase 1 of its own: see
    ``PreparedLp._charnes_cooper``.
    """
    upper, tab = system._prepared._phase2(den, "max")
    if upper.status != "OPTIMAL" or upper.value <= TAU_ZERO:
        raise refusal("conditioning event has zero upper probability over the system")
    return system._prepared._charnes_cooper(tab, den)


def fractional_bounds(
    system: LinearSystem, event_num: Event, event_den: Event, sense: str
) -> float:
    """Min or max of p(A and E) / p(E) over the system.

    Linear-fractional objectives reduce to an LP by the substitution
    y = p / p(E), whose program is the system's own tableau of max p(E)
    after one pivot; see _ratio_program.
    """
    if event_num.space != system.space or event_den.space != system.space:
        raise SpaceMismatchError("events are over a different space")
    if sense not in ("min", "max"):
        raise ValueError("sense must be min or max")
    den = event_den.indicator()
    num = event_num.indicator() * den  # numerator restricted to A-and-E
    res = _ratio_program(system, den, DenominatorVanishesError).optimize(np.append(num, 0.0), sense)
    if res.status != "OPTIMAL":
        raise InfeasibleSystemError("fractional program unexpectedly infeasible")
    return res.value
