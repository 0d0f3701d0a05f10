"""Credal sets: finite vertex lists, linear constraint systems, and
one-parameter families.

A credal set is one of three representations:

* ``VertexSet`` — a finite (generally nonconvex) set of distributions.
  Polytopes are represented by ``LinearSystem``, not by their vertex
  lists, so a two-element VertexSet really is two points.
* ``LinearSystem`` — all distributions satisfying linear constraints;
  the probability simplex (sum = 1, p >= 0) is implicit.
* ``ParametricFamily`` — a union of one-parameter curves drawn from a
  closed generator registry, optionally composed with conditioning on
  an event. Generally nonconvex.

Families are evaluated in a scan parameter that keeps every atom
probability a polynomial (the independence-square family is scanned in
sqrt(w)). Family answers are exact: envelopes, bet verdicts,
E-admissibility and membership are read off the member at each real root
of a few polynomials built from the atom polynomials (see
``ParametricFamily.critical_members``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .distributions import (
    DIE_BRANCHES,
    Distribution,
    coin_atom_polys,
    condition_distribution,
    die_bias,
    die_space,
    iid_coin,
    independent_square,
    make_distribution,
)
from .errors import (
    EmptySetError,
    InfeasibleSystemError,
    ParamRangeError,
    SpaceMismatchError,
    ZeroEvidenceError,
)
from .linprog import Constraint, LpResult, PreparedLp, constraint
from .spaces import Event, OutcomeSpace, coin_space
from .tolerances import TAU_LP, TAU_NORM, TAU_ZERO

GRID_STEP = 1e-4


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
        if np.any(lo < -TAU_NORM) or np.any(hi > 1.0 + TAU_NORM) or np.any(lo > hi + TAU_NORM):
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
        space = self.vertices[0].space
        for v in self.vertices[1:]:
            if v.space != space:
                raise SpaceMismatchError("vertices live on different spaces")

    @property
    def space(self) -> OutcomeSpace:
        return self.vertices[0].space

    def sample(self, k: int, rng: np.random.Generator) -> list[Distribution]:
        idx = rng.integers(0, len(self.vertices), size=k)
        return [self.vertices[i] for i in idx]


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """All distributions satisfying the constraints; feasibility is
    verified on construction.

    Construction runs the solver's phase 1 once; the prepared tableau is
    kept so later optimizations over the same system skip straight to
    phase 2.
    """

    space: OutcomeSpace
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            if c.coeffs.shape != (self.space.size,):
                raise ValueError("constraint length does not match space size")
        prepared = PreparedLp(self.space.size, self.full_constraints())
        if not prepared.feasible:
            raise InfeasibleSystemError(
                f"constraint system is infeasible (residual {prepared.infeasibility})"
            )
        object.__setattr__(self, "_prepared", prepared)

    def full_constraints(self) -> tuple[Constraint, ...]:
        """Explicit rows plus the simplex normalization row."""
        rows = list(self.constraints)
        rows.append(constraint(np.ones(self.space.size), "=", 1.0))
        return tuple(rows)

    def optimize(self, objective: np.ndarray, sense: str) -> LpResult:
        return self._prepared.optimize(np.asarray(objective, dtype=float), sense)

    def contains(self, d: Distribution, tol: float = TAU_LP) -> bool:
        if d.space != self.space:
            raise SpaceMismatchError("distribution is over a different space")
        return all(c.satisfied_by(d.probs, tol) for c in self.constraints)

    def a_member(self) -> Distribution:
        point = self._prepared.feasible_point()
        return make_distribution(self.space, np.clip(point, 0.0, 1.0))

    def sample(self, k: int, rng: np.random.Generator) -> list[Distribution]:
        """Random vertices from random objectives, plus mixtures of them."""
        n = self.space.size
        points: list[np.ndarray] = []
        n_lp = min(k, max(4, n * 2))
        for _ in range(n_lp):
            res = self.optimize(rng.normal(size=n), "min")
            if res.status == "OPTIMAL":
                points.append(np.clip(res.witness, 0.0, 1.0))
        if not points:
            points = [self.a_member().probs]
        out = []
        for _ in range(k):
            if len(points) == 1:
                mix = points[0]
            else:
                w = rng.dirichlet(np.ones(len(points)))
                mix = np.einsum("i,ij->j", w, np.array(points))
            out.append(make_distribution(self.space, mix / mix.sum()))
        return out


def interval_to_linear_system(iv: IntervalDistribution) -> LinearSystem:
    """Box bounds per atom as a (feasibility-checked) LinearSystem."""
    rows = []
    n = iv.space.size
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(constraint(e, ">=", float(iv.lo[j])))
        rows.append(constraint(e, "<=", float(iv.hi[j])))
    return LinearSystem(iv.space, tuple(rows))


class _GeneratorSpec:
    """One entry of the closed generator registry.

    Families are evaluated in a scan parameter s with theta = to_theta(s)
    chosen so every atom probability is a polynomial in s.
    """

    name: str

    def space(self, params: dict) -> OutcomeSpace:
        raise NotImplementedError

    def point(self, theta: float, params: dict) -> Distribution:
        raise NotImplementedError

    def scan_interval(self, lo: float, hi: float) -> tuple[float, float]:
        return lo, hi

    def to_theta(self, s: float) -> float:
        return s

    def atom_polys_scan(self, params: dict) -> np.ndarray:
        """(atoms, degree + 1): ascending coefficients of each atom
        probability in s."""
        raise NotImplementedError

    def validate(self, lo: float, hi: float, params: dict):
        self.point(lo, params)
        self.point(hi, params)


class _IidCoin(_GeneratorSpec):
    name = "iid-coin"

    def space(self, params):
        return coin_space(params.get("n_tosses", 2))

    def point(self, theta, params):
        return iid_coin(theta, params.get("n_tosses", 2))

    def atom_polys_scan(self, params):
        return coin_atom_polys(params.get("n_tosses", 2))


_DIE_POLYS = {
    "favor-2": np.array([[1 / 12, 1.0], [3 / 12, -1.0]] + [[1 / 6, 0.0]] * 4),
    "favor-1": np.array([[3 / 12, -1.0], [1 / 12, 1.0]] + [[1 / 6, 0.0]] * 4),
}


class _DieBias(_GeneratorSpec):
    name = "die-bias"

    def space(self, params):
        return die_space()

    def point(self, theta, params):
        return die_bias(theta, params.get("branch", "favor-2"))

    def atom_polys_scan(self, params):
        return _DIE_POLYS[params.get("branch", "favor-2")]


class _IndependentSquare(_GeneratorSpec):
    name = "independent-square"

    def space(self, params):
        return coin_space(2)

    def point(self, theta, params):
        return independent_square(theta)

    def scan_interval(self, lo, hi):
        return math.sqrt(lo), math.sqrt(hi)

    def to_theta(self, s):
        return s * s

    def atom_polys_scan(self, params):
        # in s = sqrt(w) the family is exactly the two-toss coin family
        return coin_atom_polys(2)


GENERATORS: dict[str, _GeneratorSpec] = {
    g.name: g for g in (_IidCoin(), _DieBias(), _IndependentSquare())
}


@dataclass(frozen=True)
class FamilyBranch:
    generator: str
    lo: float
    hi: float
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ParamRangeError(
                f"unknown generator {self.generator!r}; registry: {sorted(GENERATORS)}"
            )
        if not self.lo <= self.hi:
            raise ParamRangeError("branch needs lo <= hi")
        GENERATORS[self.generator].validate(self.lo, self.hi, dict(self.params))

    @property
    def spec(self) -> _GeneratorSpec:
        return GENERATORS[self.generator]

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @cached_property
    def atom_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """The atom polynomials about s = 0 and, in u = 1 - s, about s = 1."""
        polys = self.spec.atom_polys_scan(self.param_dict)
        return polys, polys @ _mirror(polys.shape[1])


@dataclass(frozen=True)
class ParametricFamily:
    """A union of generator branches, optionally conditioned on an event."""

    branches: tuple[FamilyBranch, ...]
    conditioning: Event | None = None

    def __post_init__(self):
        if not self.branches:
            raise EmptySetError("family needs at least one branch")
        space = self.branches[0].spec.space(self.branches[0].param_dict)
        for b in self.branches[1:]:
            if b.spec.space(b.param_dict) != space:
                raise SpaceMismatchError("family branches live on different spaces")
        if self.conditioning is not None and self.conditioning.space != space:
            raise SpaceMismatchError("conditioning event is over a different space")

    @property
    def space(self) -> OutcomeSpace:
        return self.branches[0].spec.space(self.branches[0].param_dict)

    def member(self, branch_index: int, theta: float) -> Distribution:
        b = self.branches[branch_index]
        d = b.spec.point(theta, b.param_dict)
        if self.conditioning is not None:
            d = condition_distribution(d, self.conditioning)
        return d

    def member_at_scan(self, branch_index: int, s: float) -> Distribution:
        b = self.branches[branch_index]
        return self.member(branch_index, b.spec.to_theta(s))

    def scan_grid(self, branch_index: int, step: float = GRID_STEP):
        """(scan values, member matrix) on a uniform grid over one branch;
        conditioned rows are renormalized on the event and zero-evidence
        rows masked out. For inspection only: every family answer of the
        library comes from ``critical_members``."""
        b = self.branches[branch_index]
        a, z = b.spec.scan_interval(b.lo, b.hi)
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
        a, z = b.spec.scan_interval(b.lo, b.hi)
        ev = None if self.conditioning is None else self.conditioning.indicator()
        # points s <= 1/2 are solved in s, the rest in u = 1 - s
        forms = [f for f, used in ((0, a <= 0.5), (1, z > 0.5)) if used]
        blocks = [_critical_polys(b.atom_forms[f], ev, levels, ratios) for f in forms]
        found, t = _real_roots(_stack([polys for polys, _ in blocks]))
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
        idx = list(self.conditioning.indices)
        pe = M[:, idx].sum(axis=1)
        keep = pe > TAU_ZERO
        out = np.zeros_like(M[keep])
        out[:, idx] = M[keep][:, idx] / pe[keep][:, None]
        return s[keep], out

    def contains(self, d: Distribution, tol: float = 1e-9) -> bool:
        """Whether some branch point coincides with d within sup-norm tol."""
        if d.space != self.space:
            raise SpaceMismatchError("distribution is over a different space")
        n = self.space.size
        eye = np.eye(n)
        levels = np.concatenate([eye - (d.probs + tol)[:, None], eye - (d.probs - tol)[:, None]])
        for bi in range(len(self.branches)):
            _, M = self.critical_members(bi, levels=levels)
            if len(M) and float(np.abs(M - d.probs).max(axis=1).min()) <= tol:
                return True
        return False

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


def family_range(fam: ParametricFamily, weights: np.ndarray):
    """(lowest, member attaining it, highest, member attaining it) of
    weights . p over the members of fam, decided exactly."""
    weights = np.asarray(weights, dtype=float)
    best = []
    for bi in range(len(fam.branches)):
        s, M = fam.critical_members(bi, ratios=weights[None, :])
        if len(s):
            vals = M @ weights
            lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
            best.append((vals[lo], bi, s[lo], vals[hi], s[hi]))
    if not best:
        raise EmptySetError("family has no members (conditioning removed all)")
    low = min(best, key=lambda r: r[0])
    high = max(best, key=lambda r: r[3])
    return (
        float(low[0]), fam.member_at_scan(low[1], float(low[2])),
        float(high[3]), fam.member_at_scan(high[1], float(high[4])),
    )


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
    stacked = _stack(polys)
    is_edge = np.zeros(len(stacked), dtype=bool)
    is_edge[-1:] = ev is not None
    return stacked, is_edge


def _pad(A: np.ndarray, width: int) -> np.ndarray:
    if A.shape[1] >= width:
        return A
    return np.pad(A, ((0, 0), (0, width - A.shape[1])))


def _stack(blocks) -> np.ndarray:
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return np.zeros((0, 1))
    width = max(b.shape[1] for b in blocks)
    return np.concatenate([_pad(b, width) for b in blocks])


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


def _polish(C: np.ndarray, r: np.ndarray, steps: int = 2) -> np.ndarray:
    """Newton steps on each root r[i] of row C[i], kept only where they
    shrink the residual. The eigenvalues carry an error relative to the
    largest coefficient, which swamps a root near 1e-13 (where the
    evidence of an end atom crosses TAU_ZERO); Horner's residual near 0
    is accurate to the size of the terms."""
    dC = C[:, 1:] * np.arange(1, C.shape[1])
    f = _horner(C, r)
    for _ in range(steps):
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


def fractional_bounds(
    system: LinearSystem, event_num: Event, event_den: Event, sense: str
) -> float:
    """Min or max of p(A and E) / p(E) over the system.

    Linear-fractional objectives reduce to an LP by the substitution
    y = p / p(E); see linprog.fractional_bounds_raw.
    """
    from .errors import DenominatorVanishesError
    from .linprog import fractional_bounds_raw

    if event_num.space != system.space or event_den.space != system.space:
        raise SpaceMismatchError("events are over a different space")
    den = event_den.indicator()
    upper = system.optimize(den, "max")
    if upper.status != "OPTIMAL" or upper.value <= TAU_ZERO:
        raise DenominatorVanishesError(
            "denominator event has zero upper probability over the system"
        )
    num = event_num.indicator() * den  # numerator restricted to A-and-E
    value, _ = fractional_bounds_raw(
        system.space.size, system.constraints, num, den, sense
    )
    if math.isnan(value):
        raise InfeasibleSystemError("fractional program unexpectedly infeasible")
    return value
