"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without touching the package's
solver or transforms: vertex enumeration uses itertools plus
numpy.linalg.solve, and subset sums are explicit double loops.
"""

import itertools

import numpy as np


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
    """All vertices of {x >= 0} intersected with the constraint rows."""
    planes = [(np.asarray(c.coeffs), c.rhs, c.relation == "=") for c in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0, False))
    eq = [i for i, p in enumerate(planes) if p[2]]
    rest = [i for i, p in enumerate(planes) if not p[2]]
    out = []
    for extra in itertools.combinations(rest, n - len(eq)):
        chosen = eq + list(extra)
        A = np.stack([planes[i][0] for i in chosen])
        b = np.array([planes[i][1] for i in chosen])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9) or not feasible(rows, x):
            continue
        out.append(x)
    return out


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
