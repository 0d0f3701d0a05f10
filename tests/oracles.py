"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without touching the package's
solver or transforms: vertex enumeration uses itertools plus
numpy.linalg.solve, and subset sums are explicit double loops. The three
core-equality references are the exception: they keep the library's
former LP-based answers (a permutation walk with one hull program per
marginal vector, one hull program per enumerated core vertex, and one
program per constraint over the core) to check the chain walk, the
point-matching vertex rule and the stacked ``ranges`` call that replaced
them. So does the per-vertex conditioning loop, kept to check the stacked
Bayes rule on vertex sets.
"""

import itertools

import numpy as np

from credal.distributions import condition_distribution
from credal.errors import ZeroEvidenceError, ZeroEvidenceEverywhereError
from credal.inference import core_of_belief
from credal.linprog import hull_membership
from credal.sets import _member_from_witness


def feasible(rows, x, tol=1e-9):
    for c in rows:
        v = float(c.coeffs @ x)
        if c.relation == "<=" and v > c.rhs + tol:
            return False
        if c.relation == ">=" and v < c.rhs - tol:
            return False
        if c.relation == "=" and abs(v - c.rhs) > tol:
            return False
    return True


def vertices_of(n, rows):
    """All vertices of {x >= 0} intersected with the constraint rows: one
    batched solve over every choice of n planes with a nonzero determinant
    (exactly those ``numpy.linalg.solve`` would not refuse)."""
    planes = [(np.asarray(c.coeffs), c.rhs, c.relation == "=") for c in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0, False))
    eq = [i for i, p in enumerate(planes) if p[2]]
    rest = [i for i, p in enumerate(planes) if not p[2]]
    chosen = np.array([eq + list(extra) for extra in itertools.combinations(rest, n - len(eq))])
    A = np.stack([p[0] for p in planes])[chosen]
    b = np.array([p[1] for p in planes], dtype=float)[chosen]
    regular = np.linalg.det(A) != 0
    X = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
    return [x for x in X[~np.any(X < -1e-9, axis=1)] if feasible(rows, x)]


def interval_lower_envelopes(n, lo, hi):
    """Lower envelope of every subset of a per-atom bounds box, from the
    closed form max(sum of los, 1 - sum of complementary his)."""
    bel = {}
    atoms = list(range(n))
    for r in range(n + 1):
        for subset in itertools.combinations(atoms, r):
            inside = sum(lo[j] for j in subset)
            outside = 1.0 - sum(hi[j] for j in atoms if j not in subset)
            bel[frozenset(subset)] = max(inside, outside, 0.0) if subset else 0.0
    bel[frozenset(atoms)] = 1.0
    return bel


def mobius_by_subset_sums(bel):
    """m(A) = sum over B subset of A of (-1)^|A - B| Bel(B), explicitly."""
    m = {}
    for A in bel:
        total = 0.0
        for r in range(len(A) + 1):
            for B in itertools.combinations(sorted(A), r):
                total += (-1) ** (len(A) - r) * bel[frozenset(B)]
        m[A] = total
    return m


def marginal_vectors(bel, n, tol=1e-10):
    """The distinct marginal vectors m_pi of a set function on n atoms,
    one per permutation pi of the atoms, deduplicated to tol."""
    seen = []
    for perm in itertools.permutations(range(n)):
        v = np.zeros(n)
        mask = 0
        prev = 0.0
        for i in perm:
            mask |= 1 << i
            v[i] = bel[mask] - prev
            prev = bel[mask]
        if not any(np.all(np.abs(v - u) <= tol) for u in seen):
            seen.append(v)
    return seen


def vertex_set_equals_core(S, bel):
    """Whether conv(S) equals the core of the belief function bel: every
    marginal vector passes the hull-membership program."""
    for v in marginal_vectors(bel, S.space.size):
        if not hull_membership(_member_from_witness(S.space, v), list(S.vertices)).inside:
            return False
    return True


def vertex_set_equals_core_by_hulls(S, bel):
    """Whether conv(S) equals the core of bel, for any set function bel:
    every vertex of the core's rows passes the hull-membership program."""
    found = []
    for v in vertices_of(S.space.size, core_of_belief(S.space, bel).full_constraints()):
        if not any(np.all(np.abs(v - u) <= 1e-9) for u in found):
            found.append(v)
    return all(
        hull_membership(_member_from_witness(S.space, v), list(S.vertices)).inside for v in found
    )


def linear_system_equals_core(S, bel, tol=1e-8):
    """Whether the LinearSystem S contains the core of bel: one program
    per constraint of S for its worst case over the core."""
    core = core_of_belief(S.space, bel)
    for c in S.constraints:
        if c.relation in ("<=", "=") and core.optimize(c.coeffs, "max").value > c.rhs + tol:
            return False
        if c.relation in (">=", "=") and core.optimize(c.coeffs, "min").value < c.rhs - tol:
            return False
    return True


# --- parametric families -------------------------------------------------
#
# Members are written from their closed forms, never through the package's
# polynomial kernel or ParametricFamily.scan_grid: the coin atom with h
# heads is theta^h (1 - theta)^(n - h), the die rows trade 1/12 +- eps
# between faces 1 and 2, and the independence square is the two-toss coin
# in s = sqrt(w).

FAMILY_GRID_STEP = 1e-4
TAU_EVIDENCE = 1e-12


def _closing_in(point, direction, a, z):
    """Points from point toward direction, geometrically closer to point."""
    pts = point + direction * np.geomspace(1e-16, FAMILY_GRID_STEP, 400)
    return pts[(pts >= a) & (pts <= z)]


def _grid_points(a, z, step=FAMILY_GRID_STEP):
    """A uniform grid over [a, z] that closes in on each end."""
    grid = np.linspace(a, z, max(2, int(np.ceil((z - a) / step)) + 1))
    return np.unique(np.concatenate([grid, _closing_in(a, 1, a, z), _closing_in(z, -1, a, z)]))


def _evidence_edges(evidence, s):
    """Points closing in on each place where evidence(s) crosses
    TAU_EVIDENCE between neighbouring grid points, found by bisection."""
    has = evidence(s) > TAU_EVIDENCE
    out = []
    for i in np.nonzero(has[1:] != has[:-1])[0]:
        bad, good = (s[i], s[i + 1]) if has[i + 1] else (s[i + 1], s[i])
        for _ in range(200):
            mid = (bad + good) / 2
            if mid in (bad, good):
                break
            if evidence(np.array([mid]))[0] > TAU_EVIDENCE:
                good = mid
            else:
                bad = mid
        out.append(_closing_in(good, np.sign(good - bad), s[0], s[-1]))
        out.append([good])
    return np.concatenate([s, *out])


def _closed_form_rows(generator, params, atoms, s):
    if generator == "iid-coin":
        n = params.get("n_tosses", 2)
        h = np.arange(n + 1)
        by_heads = s[:, None] ** h * (1.0 - s[:, None]) ** (n - h)
        return by_heads[:, [label.count("H") for label in atoms]]
    if generator == "die-bias":
        rows = np.full((len(s), 6), 1.0 / 6.0)
        low, high = 1.0 / 12.0 + s, 3.0 / 12.0 - s
        if params.get("branch", "favor-2") == "favor-2":
            rows[:, 0], rows[:, 1] = low, high
        else:
            rows[:, 0], rows[:, 1] = high, low
        return rows
    assert generator == "independent-square"
    t = 1.0 - s
    return np.stack([s * s, s * t, s * t, t * t], axis=1)


def family_grid(fam, chunk=512):
    """Yield chunks of member rows of every branch of fam on the grid;
    conditioned rows are renormalized and zero-evidence rows dropped."""
    atoms = fam.space.atoms
    mask = None
    if fam.conditioning is not None:
        mask = np.zeros(len(atoms), dtype=bool)
        mask[list(fam.conditioning.indices)] = True
    for b in fam.branches:
        lo, hi = b.lo, b.hi
        if b.generator == "independent-square":
            lo, hi = np.sqrt(lo), np.sqrt(hi)

        def rows_at(s, b=b):
            rows = _closed_form_rows(b.generator, dict(b.params), atoms, s)
            return rows if mask is None else rows * mask

        s = _grid_points(lo, hi)
        if mask is not None:
            s = np.unique(_evidence_edges(lambda x: rows_at(x).sum(axis=1), s))
        for start in range(0, len(s), chunk):
            rows = rows_at(s[start : start + chunk])
            if mask is not None:
                pe = rows.sum(axis=1)
                keep = pe > TAU_EVIDENCE
                rows = rows[keep] / pe[keep, None]
            if len(rows):
                yield rows


def grid_range(fam, weights):
    """(min, max) of weights . p over the grid members; None if empty."""
    lo, hi = np.inf, -np.inf
    for rows in family_grid(fam):
        vals = rows @ weights
        lo, hi = min(lo, vals.min()), max(hi, vals.max())
    return None if lo == np.inf else (float(lo), float(hi))


def grid_margins(fam, U):
    """Per action, the largest eu_a - max_b eu_b over the grid members."""
    best = np.full(U.shape[0], -np.inf)
    for rows in family_grid(fam):
        eu = rows @ U.T
        best = np.maximum(best, (eu - eu.max(axis=1, keepdims=True)).max(axis=0))
    return best


def grid_distance(fam, d):
    """Smallest sup-norm distance from d to a grid member."""
    best = np.inf
    for rows in family_grid(fam):
        best = min(best, float(np.abs(rows - d).max(axis=1).min()))
    return best


def conditionalize_by_vertex(S, e):
    """The vertex set conditioned one vertex at a time: Bayes' rule on
    each, zero-evidence vertices dropped and counted, a vertex kept unless
    it is within 1e-12 of one already kept."""
    kept = []
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
        raise ZeroEvidenceEverywhereError("every member assigns the event probability <= TAU_ZERO")
    return kept, dropped
