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
    box of exact per-atom conditional bounds, every min and max of
    p(j) / p(e) from one optimize_many over the ratio program (the
    system's tableau of max p(e) after one pivot), as the box system it
    generates: an outer approximation of the set of conditioned members,
    not that set. ParametricFamily: composes the generator with conditioning.
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
        n, idx = S.space.size, list(e.indices)
        atoms = np.eye(n + 1)[idx]  # p_j as a ratio objective over (y, t)
        ratio = _ratio_program(S, e.indicator(), ZeroEvidenceEverywhereError)
        lows, neg_highs = np.split(ratio.optimize_many(np.concatenate((atoms, -atoms)), "min"), 2)
        lo, hi = np.zeros(n), np.zeros(n)
        lo[idx], hi[idx] = np.maximum(0.0, lows), np.minimum(1.0, -neg_highs)
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
    """out[..., A] = sum over B subset of A of sign^|A - B| values[..., B],
    along the last axis (sign * x is exact, so -1 subtracts bit for bit)."""
    out = values.astype(float)
    for i in range(int(math.log2(out.shape[-1]))):
        # split each index at bit i: [..., high, bit, low], a view of out
        halves = out.reshape(*out.shape[:-1], -1, 2, 2**i)
        halves[..., 1, :] += sign * halves[..., 0, :]
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

    @classmethod
    def _taking(cls, space: OutcomeSpace, values: np.ndarray) -> SetFunction:
        """A SetFunction holding values, a float array of one value per
        subset that the library has just built and keeps no other
        reference to: made read-only in place, not copied."""
        values.flags.writeable = False
        out = cls.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "values", values)
        return out

    def of(self, *atoms: str) -> float:
        return float(self.values[mask_of(self.space, atoms)])


def belief_from_mass(m: MassFunction) -> SetFunction:
    """Bel(A) = sum of masses of subsets of A."""
    return SetFunction._taking(m.space, zeta_transform(m.mass_vector()))


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
    not be decided; see ``_set_equals_core``).
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
    gives every value. On a LinearSystem that is one lockstep
    ``optimize_many`` call for all 2^n - 2 LPs, which share pivots: a
    10-atom polytope's take 130-520 pivots in 7-13 steps.
    """
    space = S.space
    n = space.size
    if n > MAX_FRAME_ATOMS:
        raise SpaceTooLargeError(f"frames above {MAX_FRAME_ATOMS} atoms are not supported")
    full = 2**n - 1
    masks = np.arange(1, 2 ** (n - 1))
    indicators = np.empty((len(masks), n), dtype=np.uint8)
    for i in range(n):
        indicators[:, i] = masks >> i & 1
    lower, upper = S.ranges(indicators)
    bel = np.zeros(full + 1)
    bel[full] = 1.0
    bel[masks] = lower
    masks ^= full  # the complements; in place, as below, so that bel is the one new array
    bel[masks] = np.subtract(1.0, upper, out=upper)
    return SetFunction._taking(space, bel)


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
        mobius=SetFunction._taking(space, m),
        envelope_is_belief=envelope_is_belief,
        set_equals_core=report_core,
        min_mass=float(m[worst]),
        min_mass_subset=atoms_of(space, worst),
    )


def _set_equals_core(S: CredalSet, bel: np.ndarray, is_belief: bool) -> bool | None:
    """Does S coincide with {p : p(A) >= Bel(A)}?

    S is always inside the core (Bel is its lower envelope), so only
    core-inside-S needs deciding. For a LinearSystem that is exact: each
    row's worst case over the core must meet it, and ``_core_reaches``
    finds those minima without the core's 2^n - 2 rows.
    A VertexSet equals it iff every vertex of the core is a point of S (a
    core vertex in conv(S) is a vertex of conv(S)): ``_chains_all_tight``
    walks the marginal vectors of a 2-monotone Bel; otherwise double
    description lists the core's vertices, each within 10 * TAU_LP (sup norm)
    of a point, up to 5 atoms and undecided (None) above. A family's members
    lie on one line iff the atom polynomials of its branches on the event
    (the one member of a point branch) span rank <= 2; more spans a plane
    with finitely many curves, never convex. On a line each branch is a
    segment, and their union is convex iff, sorted along the line, they
    chain within 10 * TAU_LP; it is then decided on its two ends.
    """
    n = S.space.size

    if isinstance(S, LinearSystem):
        A, b, sign = (r[:-1] for r in S._prepared._rows)  # the explicit rows
        # min a @ p over the core must reach b on a >= or = row, min -a @ p reach -b on a <= or = row
        W = np.concatenate((A[sign <= 0], -A[sign >= 0]))
        return _core_reaches(W, np.concatenate((b[sign <= 0], -b[sign >= 0])), bel, is_belief)

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
    if is_belief or _two_monotone(bel, n):
        return _chains_all_tight(V, bel)
    if n > 5:
        return None
    X = enumerate_polytope_vertices(*_core_rows(n, bel))
    return bool(np.all(np.abs(X[:, None] - V).max(axis=2).min(axis=1) <= 10 * TAU_LP))


def _chain_values(W: np.ndarray, bel: np.ndarray):
    """For each row w of W, the greedy rule's value w @ P and marginal
    vector P: the atoms in order of falling weight (ties in index order),
    each P_i the rise of Bel as i joins the chain of those before it.

    The value is the Choquet integral of w, the sum over the chain's sets
    S_k of (w_k - w_(k+1)) Bel(S_k) with w_(n+1) = 0: the objective of a
    dual-feasible point of min w @ p over the core, so never above that
    minimum. It is the minimum when Bel is 2-monotone (Edmonds 1970;
    Shapley 1971), and otherwise wherever P lies in the core."""
    order = np.argsort(-W, axis=1, kind="stable")
    rises = np.diff(bel[np.cumsum(1 << order, axis=1)], axis=1, prepend=0.0)
    P = np.empty_like(rises)
    np.put_along_axis(P, order, rises, axis=1)
    return np.einsum("ij,ij->i", W, P), P


def _core_reaches(W: np.ndarray, need: np.ndarray, bel: np.ndarray, is_belief: bool) -> bool:
    """Whether min w @ p over the core of bel reaches need - TAU_LP for
    every row w of W.

    A row's chain value is a lower bound of its minimum, so a row that the
    value reaches holds. A row it misses fails when the value is the
    minimum: when Bel is 2-monotone, or when the marginal vector meets
    every core row and p >= 0 to 10 * TAU_LP. Each row left is decided by
    the core program's dual, max sum_A y_A Bel(A) + z over y >= 0 with
    sum_(A holding i) y_A + z <= w_i. Writing z = min w - u with u >= 0
    (the atom of least weight asks for that) leaves n rows of nonnegative
    rhs w - min w, so the dual needs no phase 1, and its checked witness
    bounds w @ p on the core from below within 10 * TAU_LP.
    """
    n = W.shape[1]
    low, P = _chain_values(W, bel)
    short = low < need - TAU_LP
    if not short.any():
        return True
    if is_belief or _two_monotone(bel, n):
        return False
    W, need, P = W[short], need[short], P[short]
    masses = np.zeros((len(P), len(bel)))
    masses[:, 1 << np.arange(n)] = P
    # p(A) >= Bel(A), and p(A) >= 0 where Bel(A) <= 0; P sums to Bel(all) = 1
    if np.all(_subset_sums(masses, 1.0) >= np.maximum(bel, 0.0) - 10 * TAU_LP, axis=1).any():
        return False
    A, b, _ = _core_rows(n, bel)
    A[-1], b[-1] = -1.0, -1.0  # the simplex row's multiplier z as -u
    for w, bound in zip(W, need):
        dual = PreparedLp(A.T, w - w.min(), np.ones(n))
        if dual.optimize(b, "max").value + w.min() < bound - TAU_LP:
            return False
    return True


def _two_monotone(bel: np.ndarray, n: int) -> bool:
    """Supermodularity to TAU_LP: no gain Bel(A+i) - Bel(A) falls as a j outside A joins A."""
    A = np.arange(len(bel))
    gains = (bel[A | 1 << i] - bel[A] for i in range(n))
    return all(np.all(g[A | 1 << j] >= g - TAU_LP) for i, g in enumerate(gains) for j in range(i))


def _chains_all_tight(V: np.ndarray, bel: np.ndarray) -> bool:
    """Whether conv(V) (points as rows) holds every marginal vector m_pi of
    the 2-monotone Bel, i.e. equals its core (Shapley 1971). A convex
    combination of points attaining Bel on every set of pi's chain uses
    only points that do, and such a point is m_pi; so a walk over states
    (A, the points tight on every set of the chain so far), one level |A|
    at a time, fails at the first chain no point follows. A state is one
    key of 64-bit words: A in the low n bits, then from the next byte one
    bit per point. tight[B] is the key of B with the bits of the points
    with p(B) = Bel(B) (to TAU_LP), found a block of points at a time, so a
    step from A to B = A + i sets i's bit and ANDs with tight[B]. One sort
    per level puts a key with no point first and next to its copies.
    """
    n, k = V.shape[1], len(V)
    head = (n + 7) // 8  # the key's bytes holding A
    tight = np.zeros((len(bel), (head + (k + 7) // 8 + 7) // 8), dtype="<u8")
    tight[:, 0] = np.arange(len(bel))
    block = max(1, 2**17 >> n) * 8  # points at a time, so the sums hold O(2^n) entries
    for j in range(0, k, block):
        sums = np.zeros((min(block, k - j), len(bel)))  # p(B) = p(B - i) + p_i, i B's top atom
        for i in range(n):
            sums[:, 1 << i : 2 << i] = sums[:, : 1 << i] + V[j : j + block, i, None]
        tight.view(np.uint8)[:, head + j // 8 : head + (j + len(sums) + 7) // 8] = np.packbits(
            sums - bel <= TAU_LP, axis=0, bitorder="little").T
    keys, bit = tight[:1], np.uint64(1) << np.arange(n, dtype=np.uint64)  # every point is tight on {}
    for _ in range(n):
        parent, i = np.nonzero(keys[:, :1] & bit == 0)  # each i outside A
        keys = keys[parent]
        keys[:, 0] |= bit[i]
        keys &= tight[keys[:, 0] & len(bel) - 1]
        keys = keys[np.lexsort(keys.T)]
        if keys[0, 0] < 1 << 8 * head and not keys[0, 1:].any():
            return False  # no point is tight on every set of this chain
        keys = keys[np.append(True, (keys[1:] != keys[:-1]).any(axis=1))]
    return True
