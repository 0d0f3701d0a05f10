"""Envelopes, credal conditioning, independence checks, and the
correspondence between lower envelopes and belief functions.

Subsets of a space with n atoms are encoded as bitmasks (atom i sets bit
i), so set functions are plain arrays of length 2**n. The frame size is
capped at 20 atoms for any 2**n enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution, _bayes_rows, make_distribution, marginalize
from .errors import (
    EmptySetError,
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    SpaceMismatchError,
    SpaceTooLargeError,
    ZeroEvidenceEverywhereError,
)
# nothing here calls hull_membership, but the benchmark's own test checks that
# its tracer wraps the binding credal.inference.hull_membership, so it stays bound
from .linprog import PreparedLp, constraint, enumerate_polytope_vertices, hull_membership  # noqa: F401
from .sets import (
    CredalSet,
    IntervalDistribution,
    LinearSystem,
    ParametricFamily,
    VertexSet,
    _ratio_program,
    interval_to_linear_system,
)
from .spaces import Event, OutcomeSpace
from .tolerances import TAU_LP, TAU_NORM, TAU_ZERO

MAX_FRAME_ATOMS = 20


@dataclass(frozen=True)
class Envelope:
    """Lower and upper probability of an event over a credal set, with
    attaining members."""

    event: Event
    lower: float
    upper: float
    lower_witness: Distribution | None = None
    upper_witness: Distribution | None = None


def envelope(S: CredalSet, e: Event) -> Envelope:
    """inf and sup of p(e) over the set."""
    if e.space != S.space:
        raise SpaceMismatchError("event is over a different space")
    lower, lo_w, upper, hi_w = S.extremes(e.indicator())
    return Envelope(e, min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0), lo_w, hi_w)


def conditionalize(S: CredalSet, e: Event) -> CredalSet:
    """Bayes' rule on the members with positive evidence.

    VertexSet: conditions each vertex, drops zero-evidence vertices
    (count kept on the result), collapses duplicates. LinearSystem: the
    box of exact per-atom conditional bounds, each the min or max of
    p(j) / p(e) from one linear-fractional program, returned as the box
    system it generates; this is an outer approximation of the set of
    conditioned members, not that set. ParametricFamily: composes the
    generator with conditioning.
    """
    if e.space != S.space:
        raise SpaceMismatchError("event is over a different space")
    if isinstance(S, VertexSet):
        keep, rows = _bayes_rows(np.stack([v.probs for v in S.vertices]), e)
        kept: list[Distribution] = []
        for c in (make_distribution(S.space, r) for r in rows):
            if not any(c.allclose(u) for u in kept):
                kept.append(c)
        if not kept:
            raise ZeroEvidenceEverywhereError(
                "every member assigns the event probability <= TAU_ZERO"
            )
        return VertexSet(tuple(kept), dropped=int(len(keep) - len(rows)))

    if isinstance(S, LinearSystem):
        prepared = _ratio_program(S, e.indicator(), ZeroEvidenceEverywhereError)
        n = S.space.size
        idx = list(e.indices)
        atoms = np.eye(n + 1)[idx]  # p_j as a ratio objective over (y, t)
        lo, hi = np.zeros(n), np.zeros(n)
        lo[idx] = np.maximum(0.0, prepared.optimize_many(atoms, "min"))
        hi[idx] = np.minimum(1.0, prepared.optimize_many(atoms, "max"))
        return interval_to_linear_system(IntervalDistribution(S.space, lo, hi))

    try:
        env = envelope(S, e)
    except EmptySetError:
        raise ZeroEvidenceEverywhereError("family has no members with evidence")
    if env.upper <= TAU_ZERO:
        raise ZeroEvidenceEverywhereError(
            "event has zero upper probability over the family"
        )
    event = e
    if S.conditioning is not None:
        common = sorted(set(S.conditioning.indices) & set(e.indices))
        event = Event.from_indices(S.space, common)
    return replace(S, conditioning=event)


@dataclass(frozen=True)
class IndependenceReport:
    """Result of a (conditional) independence check on a joint table.

    The violation at a cell is |d(x,y,z) d(y) - d(x,y) d(y,z)| (cross
    multiplied, so no division); ``actual`` and ``product_value`` give
    the same worst cell in ratio form, d(x,y,z) versus
    d(x,y) d(y,z) / d(y). A pairwise check is the conditional one with a
    single conditioning value, the whole space: d(y) is the table's
    total, so the violation is |d(x,z) total - d(x) d(z)|, the verdict does
    not depend on the table's scale, and ``worst_cell`` is (x, z).
    """

    passed: bool
    max_violation: float
    worst_cell: tuple[str, ...] | None
    actual: float | None
    product_value: float | None
    tol: float
    conditioning_var: str | None
    skipped_cells: int = 0


def check_conditional_independence(
    d: Distribution, x: str, z: str, given: str, tol: float = 1e-9
) -> IndependenceReport:
    """Does d make x and z independent given ``given``?"""
    return _independence(d, x, z, given, tol)


def check_pairwise_independence(
    d: Distribution, x: str, z: str, tol: float = 1e-9
) -> IndependenceReport:
    """Does d make x and z (unconditionally) independent? The conditional
    check given one value, so it does not depend on the table's scale."""
    return _independence(d, x, z, None, tol)


def _independence(d: Distribution, x: str, z: str, given: str | None, tol: float) -> IndependenceReport:
    """The check on the table with axes (x, given, z); with no ``given``
    the middle axis has length one and d(y) is the table's total."""
    if not d.space.is_factorized:
        raise NotFactorizedError("independence checks need a factorized space")
    names = [x, z] if given is None else [x, given, z]
    joint = marginalize(d, _ordered_vars(d.space, names))
    t = joint.tensor()
    axes = {v.name: i for i, v in enumerate(joint.space.variables)}
    t = np.moveaxis(t, [axes[v] for v in names], range(len(names)))
    if given is None:
        t = t[:, None, :]
    dxy = t.sum(axis=2)  # x, y
    dyz = t.sum(axis=0)  # y, z
    dy = t.sum(axis=(0, 2))  # y
    lhs = t * dy[None, :, None]
    rhs = dxy[:, :, None] * dyz[None, :, :]
    viol = np.abs(lhs - rhs)
    skip = dy <= TAU_ZERO
    skipped = int(skip.sum()) * t.shape[0] * t.shape[2]
    viol[:, skip, :] = -1.0  # excluded from the max
    max_v = float(viol.max())
    if max_v < 0:  # everything skipped
        return IndependenceReport(True, 0.0, None, None, None, tol, given, skipped)
    i, j, k = np.unravel_index(_first_near_max(viol, max_v), viol.shape)
    at = {x: i, given: j, z: k}
    return IndependenceReport(
        passed=max_v <= tol,
        max_violation=max_v,
        worst_cell=tuple(d.space.variable(v).values[at[v]] for v in names),
        actual=float(t[i, j, k]),
        product_value=float(rhs[i, j, k] / dy[j]),
        tol=tol,
        conditioning_var=given,
        skipped_cells=skipped,
    )


def _first_near_max(viol: np.ndarray, max_v: float) -> int:
    """First cell (lexicographically) whose violation ties the maximum.

    Exact-arithmetic ties differ by a few ulps once computed in floats;
    reporting the first tied cell keeps the worst-cell label stable.
    """
    near = viol >= max_v - max(1e-12, 1e-9 * abs(max_v))
    return int(np.argmax(near))


def _ordered_vars(space: OutcomeSpace, names: list[str]) -> list[str]:
    want = set(names)
    if len(want) != len(names):
        raise ValueError("variables must be distinct")
    for name in names:
        space.variable(name)  # raises UnknownVariableError
    return [v.name for v in space.variables if v.name in want]


# --- belief functions ---------------------------------------------------


@dataclass(frozen=True)
class MassFunction:
    """Nonnegative masses on subsets (bitmask keyed), summing to 1."""

    space: OutcomeSpace
    masses: tuple[tuple[int, float], ...]  # (bitmask, mass), mask-sorted

    def __post_init__(self):
        if self.space.size > MAX_FRAME_ATOMS:
            raise SpaceTooLargeError(
                f"frames above {MAX_FRAME_ATOMS} atoms are not supported"
            )
        total = 0.0
        seen = set()
        for mask, m in self.masses:
            if not 0 <= mask < 2**self.space.size:
                raise ValueError(f"bad subset mask {mask}")
            if mask in seen:
                raise ValueError("duplicate subset in mass assignment")
            seen.add(mask)
            if mask == 0 and abs(m) > TAU_NORM:
                raise NegativeMassError("the empty set must carry zero mass")
            if m < -TAU_NORM:
                raise NegativeMassError(f"negative mass {m}")
            total += m
        if abs(total - 1.0) > TAU_NORM:
            raise NotNormalizedError(f"masses sum to {total}, expected 1")
        object.__setattr__(self, "masses", tuple(sorted(self.masses)))

    @classmethod
    def from_subsets(cls, space: OutcomeSpace, assignment: dict) -> "MassFunction":
        """assignment maps iterables of atom labels to masses."""
        items = []
        for subset, m in assignment.items():
            mask = mask_of(space, subset)
            items.append((mask, float(m)))
        return cls(space, tuple(items))

    def mass_vector(self) -> np.ndarray:
        v = np.zeros(2**self.space.size)
        for mask, m in self.masses:
            v[mask] = m
        return v

    def mass_of(self, *atoms: str) -> float:
        mask = mask_of(self.space, atoms)
        return float(self.mass_vector()[mask])


def mask_of(space: OutcomeSpace, atoms) -> int:
    mask = 0
    for a in atoms:
        mask |= 1 << space.index(a)
    return mask


def atoms_of(space: OutcomeSpace, mask: int) -> tuple[str, ...]:
    return tuple(space.atoms[i] for i in range(space.size) if mask >> i & 1)


def zeta_transform(values: np.ndarray) -> np.ndarray:
    """out[A] = sum over B subset of A of values[B]."""
    return _subset_sums(values, 1.0)


def mobius_transform(values: np.ndarray) -> np.ndarray:
    """Inverse of the zeta transform (inclusion-exclusion)."""
    return _subset_sums(values, -1.0)


def _subset_sums(values: np.ndarray, sign: float) -> np.ndarray:
    """out[A] = sum over B subset of A of sign^|A - B| values[B] (sign * x
    is exact, so -1 subtracts bit for bit)."""
    out = values.astype(float).copy()
    n = int(math.log2(len(out)))
    masks = np.arange(len(out))
    for i in range(n):
        has = (masks >> i & 1) == 1
        out[has] += sign * out[masks[has] ^ (1 << i)]
    return out


@dataclass(frozen=True, eq=False)
class SetFunction:
    """A function on all subsets of a space, bitmask indexed."""

    space: OutcomeSpace
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.shape != (2**self.space.size,):
            raise ValueError("need one value per subset")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def of(self, *atoms: str) -> float:
        return float(self.values[mask_of(self.space, atoms)])


def belief_from_mass(m: MassFunction) -> SetFunction:
    """Bel(A) = sum of masses of subsets of A."""
    return SetFunction(m.space, zeta_transform(m.mass_vector()))


def core_of_belief(space: OutcomeSpace, bel: np.ndarray) -> LinearSystem:
    """The polytope {p : p(A) >= bel[A] for all A} as a LinearSystem."""
    A, b, _ = _core_rows(space.size, bel)
    return LinearSystem(space, tuple(constraint(a, ">=", r) for a, r in zip(A[:-1], b[:-1])))


def _core_rows(n: int, bel: np.ndarray):
    """The core's full stacked rows (A, b, sign): p(A) >= bel[A] for each
    proper subset A with bel[A] > TAU_ZERO (the rest are implied by
    p >= 0), in mask order, then the simplex row."""
    masks = np.arange(1, 2**n - 1)
    masks = masks[~(bel[masks] <= TAU_ZERO)]  # a NaN stays, for LinearSystem to refuse
    A = (masks[:, None] >> np.arange(n) & 1).astype(float)
    return np.vstack([A, np.ones(n)]), np.append(bel[masks], 1.0), np.append(-np.ones(len(masks)), 0.0)


@dataclass(frozen=True)
class MobiusReport:
    """Lower envelopes of every event, their Moebius masses, and the two
    correspondence flags.

    envelope_is_belief: every Moebius mass is >= -TAU_LP, i.e. the lower
    envelope is a belief function. set_equals_core: the credal set
    coincides with the core of its lower envelope (None when that could
    not be decided; see set_equals_core notes in the module docs).
    """

    space: OutcomeSpace
    bel: SetFunction
    mobius: SetFunction
    envelope_is_belief: bool
    set_equals_core: bool | None
    min_mass: float
    min_mass_subset: tuple[str, ...]

    def bel_of(self, *atoms: str) -> float:
        return self.bel.of(*atoms)

    def mass_of(self, *atoms: str) -> float:
        return self.mobius.of(*atoms)


def lower_envelope_function(S: CredalSet) -> SetFunction:
    """Lower envelope Bel(A) = min p(A) of every subset event A.

    Members are normalized, so the lowest and highest p(A) of a subset A
    without the last atom give both Bel(A) and Bel(A^c) = 1 - max p(A):
    one ``ranges`` call over the indicators of those 2^(n-1) - 1 subsets
    gives every value. The subsets are listed in Gray-code order, each
    one atom away from the last, so that a LinearSystem's warm-started
    LPs (two per subset, 2^n - 2 in all) each start next to their optimum.
    """
    space = S.space
    n = space.size
    if n > MAX_FRAME_ATOMS:
        raise SpaceTooLargeError(f"frames above {MAX_FRAME_ATOMS} atoms are not supported")
    full = 2**n - 1
    masks = np.arange(1, 2 ** (n - 1))
    masks ^= masks >> 1  # Gray code
    indicators = np.empty((len(masks), n), dtype=np.uint8)
    for i in range(n):
        indicators[:, i] = masks >> i & 1
    lower, upper = S.ranges(indicators)
    bel = np.zeros(full + 1)
    bel[full] = 1.0
    bel[masks] = lower
    bel[full ^ masks] = 1.0 - upper
    return SetFunction(space, bel)


def mobius_report(S: CredalSet) -> MobiusReport:
    space = S.space
    bel = lower_envelope_function(S)
    m = mobius_transform(bel.values)
    envelope_is_belief = bool(np.all(m >= -TAU_LP))
    worst = int(np.argmin(m))
    report_core = _set_equals_core(S, bel.values, envelope_is_belief)
    return MobiusReport(
        space=space,
        bel=bel,
        mobius=SetFunction(space, m),
        envelope_is_belief=envelope_is_belief,
        set_equals_core=report_core,
        min_mass=float(m[worst]),
        min_mass_subset=atoms_of(space, worst),
    )


def _set_equals_core(S: CredalSet, bel: np.ndarray, is_belief: bool) -> bool | None:
    """Does S coincide with {p : p(A) >= Bel(A)}?

    S is always inside the core (Bel is its lower envelope), so only
    core-inside-S needs deciding. For a LinearSystem that is exact: one
    ``ranges`` call over the core gives the worst case of each constraint.
    A VertexSet equals it iff every vertex of the core is a point of S (a
    core vertex in conv(S) is a vertex of conv(S)): ``_chains_all_tight``
    walks the marginal vectors of a belief-function Bel; otherwise brute-force
    enumeration stops at the first vertex not within 10 * TAU_LP (sup norm)
    of a point, up to 5 atoms and undecided (None) above. A family's members
    lie on one line iff the atom polynomials of its branches on the event
    (the one member of a point branch) span rank <= 2; more spans a plane
    with finitely many curves, never convex. On a line each branch is a
    segment, and their union is convex iff, sorted along the line, they
    chain within 10 * TAU_LP; it is then decided on its two ends.
    """
    n = S.space.size

    if isinstance(S, LinearSystem):
        A, b, sign = (r[:-1] for r in S._rows)  # the explicit rows
        core = PreparedLp(*_core_rows(n, bel))
        lows, highs = core.optimize_many(A, "min"), core.optimize_many(A, "max")
        return not np.any((sign >= 0) & (highs > b + TAU_LP) | (sign <= 0) & (lows < b - TAU_LP))

    if isinstance(S, ParametricFamily):
        idx = slice(None) if S.conditioning is None else list(S.conditioning.indices)
        found = [S.critical_members(bi)[1] for bi in range(len(S.branches))]
        spans = [M.T if b.lo == b.hi else b.atom_forms[0] for b, M in zip(S.branches, found)]
        if np.linalg.matrix_rank(np.hstack([span[idx] for span in spans])) > 2:
            return False
        # members on one line (conditioned or not): each branch a segment
        # between its two ends along the line, taken in order of lower end
        M = np.concatenate(found)
        u = M[np.abs(M - M[0]).max(axis=1).argmax()] - M[0]
        ends = [S.critical_members(bi, ratios=u[None, :])[1] for bi in range(len(S.branches))]
        ends = sorted((C[[np.argmin(C @ u), np.argmax(C @ u)]] for C in ends if len(C)), key=lambda E: E[0] @ u)
        V = ends[0]
        for E in ends[1:]:
            if (E[0] - V[1]) @ u > 0 and np.abs(E[0] - V[1]).max() > 10 * TAU_LP:
                return False  # a gap: not convex
            if E[1] @ u > V[1] @ u:
                V = np.stack([V[0], E[1]])
    else:
        V = np.stack([v.probs for v in S.vertices])
    if is_belief:
        return _chains_all_tight(V, bel)
    if n > 5:
        return None
    vertices = enumerate_polytope_vertices(*_core_rows(n, bel))
    return all(np.abs(V - x).max(axis=1).min() <= 10 * TAU_LP for x in vertices)


def _chains_all_tight(V: np.ndarray, bel: np.ndarray) -> bool:
    """Whether conv(V) (points as rows) holds every marginal vector m_pi of
    the belief function Bel, i.e. equals its core (Shapley 1971). A convex
    combination of points attaining Bel on every set of pi's chain uses
    only points that do, and such a point is m_pi; so a depth-first walk
    over states (A, bitmask of the points tight on every set of the chain
    so far), each visited once, fails at the first chain no point follows.
    """
    n = V.shape[1]
    tight = [0] * len(bel)  # per subset A, the bitmask of points p with p(A) = Bel(A)
    masses = np.zeros(len(bel))
    for j, v in enumerate(V):
        masses[1 << np.arange(n)] = v
        meets = (zeta_transform(masses) - bel <= TAU_LP).tolist()
        tight = [t | m << j for t, m in zip(tight, meets)]
    stack = [(0, (1 << len(V)) - 1)]
    seen = set()  # state (B, left) as the one int left << n | B: half a tuple's memory
    while stack:
        A, points = stack.pop()
        for B in [A | 1 << i for i in range(n)]:  # an i in A gives (A, points) back
            left = points & tight[B]
            if not left:
                return False
            if left << n | B not in seen:
                seen.add(left << n | B)
                stack.append((B, left))
    return True
