"""Envelopes, credal conditioning, independence checks, and the
correspondence between lower envelopes and belief functions.

Subsets of a space with n atoms are encoded as bitmasks (atom i sets bit
i), so set functions are plain arrays of length 2**n. The frame size is
capped at 20 atoms for any 2**n enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution, condition_distribution, marginalize
from .errors import (
    EmptySetError,
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    SpaceTooLargeError,
    ZeroEvidenceError,
    ZeroEvidenceEverywhereError,
)
from .linprog import enumerate_polytope_vertices, hull_membership
from .sets import (
    CredalSet,
    IntervalDistribution,
    LinearSystem,
    ParametricFamily,
    VertexSet,
    family_range,
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
    if isinstance(S, VertexSet):
        values = [v.p(e) for v in S.vertices]
        i_lo = int(np.argmin(values))
        i_hi = int(np.argmax(values))
        return Envelope(e, values[i_lo], values[i_hi], S.vertices[i_lo], S.vertices[i_hi])

    if isinstance(S, LinearSystem):
        ind = e.indicator()
        lo = S.optimize(ind, "min")
        hi = S.optimize(ind, "max")
        from .distributions import make_distribution

        def as_dist(w):
            w = np.clip(w, 0.0, None)
            return make_distribution(S.space, w / w.sum())

        return Envelope(e, float(lo.value), float(hi.value), as_dist(lo.witness), as_dist(hi.witness))

    return _family_envelope(S, e)


def _family_envelope(fam: ParametricFamily, e: Event) -> Envelope:
    lower, lo_w, upper, hi_w = family_range(fam, e.indicator())
    return Envelope(e, min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0), lo_w, hi_w)


def conditionalize(S: CredalSet, e: Event) -> CredalSet:
    """Memberwise Bayes' rule on the members with positive evidence.

    VertexSet: conditions each vertex, drops zero-evidence vertices
    (count kept on the result), collapses duplicates. LinearSystem:
    per-atom conditional bounds via fractional_bounds, returned as the
    box system they generate. ParametricFamily: composes the generator
    with conditioning.
    """
    if isinstance(S, VertexSet):
        kept: list[Distribution] = []
        dropped = 0
        for v in S.vertices:
            try:
                c = condition_distribution(v, e)
            except ZeroEvidenceError:
                dropped += 1
                continue
            if not any(c.allclose(u) for u in kept):
                kept.append(c)
        if not kept:
            raise ZeroEvidenceEverywhereError(
                "every member assigns the event probability <= TAU_ZERO"
            )
        return VertexSet(tuple(kept), dropped=dropped)

    if isinstance(S, LinearSystem):
        upper = S.optimize(e.indicator(), "max")
        if upper.value is None or upper.value <= TAU_ZERO:
            raise ZeroEvidenceEverywhereError(
                "event has zero upper probability over the system"
            )
        from .linprog import fractional_optimize, prepare_fractional

        n = S.space.size
        prepared = prepare_fractional(n, S.constraints, e.indicator())
        lo = np.zeros(n)
        hi = np.zeros(n)
        for j in e.indices:
            atom = np.zeros(n)
            atom[j] = 1.0
            lo[j] = max(0.0, fractional_optimize(prepared, atom, "min")[0])
            hi[j] = min(1.0, fractional_optimize(prepared, atom, "max")[0])
        iv = IntervalDistribution(S.space, lo, hi)
        return interval_to_linear_system(iv)

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
    d(x,y) d(y,z) / d(y).
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
    if not d.space.is_factorized:
        raise NotFactorizedError("independence checks need a factorized space")
    joint = marginalize(d, _ordered_vars(d.space, [x, given, z]))
    t = joint.tensor()
    axes = {v.name: i for i, v in enumerate(joint.space.variables)}
    t = np.moveaxis(t, (axes[x], axes[given], axes[z]), (0, 1, 2))
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
    xs = d.space.variable(x).values
    ys = d.space.variable(given).values
    zs = d.space.variable(z).values
    product_value = float(rhs[i, j, k] / dy[j]) if dy[j] > TAU_ZERO else None
    return IndependenceReport(
        passed=max_v <= tol,
        max_violation=max_v,
        worst_cell=(xs[i], ys[j], zs[k]),
        actual=float(t[i, j, k]),
        product_value=product_value,
        tol=tol,
        conditioning_var=given,
        skipped_cells=skipped,
    )


def check_pairwise_independence(
    d: Distribution, x: str, z: str, tol: float = 1e-9
) -> IndependenceReport:
    """Does d make x and z (unconditionally) independent?"""
    if not d.space.is_factorized:
        raise NotFactorizedError("independence checks need a factorized space")
    joint = marginalize(d, _ordered_vars(d.space, [x, z]))
    t = joint.tensor()
    axes = {v.name: i for i, v in enumerate(joint.space.variables)}
    t = np.moveaxis(t, (axes[x], axes[z]), (0, 1))
    dx = t.sum(axis=1)
    dz = t.sum(axis=0)
    viol = np.abs(t - dx[:, None] * dz[None, :])
    max_v = float(viol.max())
    i, k = np.unravel_index(_first_near_max(viol, max_v), viol.shape)
    xs = d.space.variable(x).values
    zs = d.space.variable(z).values
    return IndependenceReport(
        passed=float(viol[i, k]) <= tol,
        max_violation=float(viol[i, k]),
        worst_cell=(xs[i], zs[k]),
        actual=float(t[i, k]),
        product_value=float(dx[i] * dz[k]),
        tol=tol,
        conditioning_var=None,
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
    out = values.astype(float).copy()
    n = int(math.log2(len(out)))
    masks = np.arange(len(out))
    for i in range(n):
        has = (masks >> i & 1) == 1
        out[has] += out[masks[has] ^ (1 << i)]
    return out


def mobius_transform(values: np.ndarray) -> np.ndarray:
    """Inverse of the zeta transform (inclusion-exclusion)."""
    out = values.astype(float).copy()
    n = int(math.log2(len(out)))
    masks = np.arange(len(out))
    for i in range(n):
        has = (masks >> i & 1) == 1
        out[has] -= out[masks[has] ^ (1 << i)]
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
    from .linprog import constraint

    n = space.size
    rows = []
    for mask in range(1, 2**n - 1):
        if bel[mask] <= TAU_ZERO:
            continue  # implied by p >= 0
        ind = np.zeros(n)
        for i in range(n):
            if mask >> i & 1:
                ind[i] = 1.0
        rows.append(constraint(ind, ">=", float(bel[mask])))
    return LinearSystem(space, tuple(rows))


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
    """Lower envelope of every subset event (2**n envelope calls)."""
    space = S.space
    n = space.size
    if n > MAX_FRAME_ATOMS:
        raise SpaceTooLargeError(f"frames above {MAX_FRAME_ATOMS} atoms are not supported")
    size = 2**n
    bel = np.zeros(size)
    bel[size - 1] = 1.0
    if isinstance(S, VertexSet):
        V = np.stack([v.probs for v in S.vertices])
        for mask in range(1, size - 1):
            cols = [i for i in range(n) if mask >> i & 1]
            bel[mask] = float(V[:, cols].sum(axis=1).min())
        return SetFunction(space, bel)
    for mask in range(1, size - 1):
        e = Event.from_indices(space, [i for i in range(n) if mask >> i & 1])
        bel[mask] = envelope(S, e).lower
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
    core-inside-S needs deciding. For a LinearSystem that is exact: each
    constraint of S is maximally violated over the core by an LP. For a
    VertexSet the core's vertices are tested for hull membership, which
    compares the core against conv(S); vertices come from permutation
    marginals when Bel is a belief function (exact for 2-monotone
    capacities) and brute-force enumeration on small frames otherwise.
    Families are never core-shaped unless they are a single point.
    """
    space = S.space
    n = space.size
    core = core_of_belief(space, bel)

    if isinstance(S, LinearSystem):
        for c in S.constraints:
            if c.relation in ("<=", "="):
                worst = core.optimize(c.coeffs, "max")
                if worst.value > c.rhs + TAU_LP:
                    return False
            if c.relation in (">=", "="):
                worst = core.optimize(c.coeffs, "min")
                if worst.value < c.rhs - TAU_LP:
                    return False
        return True

    if isinstance(S, VertexSet):
        vertices = _core_vertices(core, bel, is_belief)
        if vertices is None:
            return None
        from .distributions import make_distribution

        for v in vertices:
            vv = np.clip(v, 0.0, None)
            d = make_distribution(space, vv / vv.sum())
            if not hull_membership(d, list(S.vertices)).inside:
                return False
        return True

    # parametric family
    single = (
        len(S.branches) == 1
        and S.branches[0].lo == S.branches[0].hi
        and S.conditioning is None
    )
    if not single:
        return False
    m = mobius_transform(bel)
    singleton_total = sum(m[1 << i] for i in range(n))
    return bool(abs(singleton_total - 1.0) <= TAU_LP)


def _core_vertices(core: LinearSystem, bel: np.ndarray, is_belief: bool):
    n = core.space.size
    if is_belief:
        seen: list[np.ndarray] = []
        for perm in itertools.permutations(range(n)):
            v = np.zeros(n)
            mask = 0
            prev = 0.0
            for i in perm:
                mask |= 1 << i
                v[i] = bel[mask] - prev
                prev = bel[mask]
            if not any(np.all(np.abs(v - u) <= 1e-10) for u in seen):
                seen.append(v)
        return seen
    if n > 5:
        return None
    verts = enumerate_polytope_vertices(n, core.full_constraints())
    return list(verts)
