"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without touching the package's
solver or transforms: vertex enumeration uses itertools plus
numpy.linalg.solve, and subset sums are explicit double loops. The three
core-equality references are the exception: they keep the library's
former LP-based answers (a permutation walk with one hull program per
marginal vector, one hull program per enumerated core vertex, and one
program per constraint over the core) to check the chain walk, the
point-matching vertex rule and the chain values, marginal vectors and
n-row dual programs that replaced them. So does the per-vertex
conditioning loop, kept to check the stacked Bayes rule on vertex sets. So does the simplex loop: ``run_simplex`` and
``pivot`` are the kernel's former pivot step, kept to check that the
leaner one takes the same pivots to a bit-identical tableau, and
``two_phase`` runs them on every row as given, to check the kernel's
shift of lower-bound rows out of the tableau. ``chain_value`` is the
greedy rule as a loop over one chain, to check the stacked chain values
of the LinearSystem core test. ``contains_by_atom`` and ``ranges_by_row``
are the family's former membership test, with two level rows per atom,
and its former ``ranges``, with one ``extremes`` call per row; they check
the per-class windows and the one ``extremes`` call per distinct set of
class sums that replaced them. ``ratio_program_by_phase1`` is the former
Charnes-Cooper program, a fresh phase 1 over the homogenised rows, to
check the program derived from the tableau of max p(E).
``chains_all_tight_by_dfs`` is the former chain walk, depth first over
Python-int bitmasks, to check the level-at-a-time walk over key arrays;
``lp_admissible_per_action`` is the former E-admissibility program, with
one member per action, to check the one member per distinct witness.
``start_bank_by_simplex`` is the former start bank, n simplex runs of its
own, to check the bank that ``_phase2`` builds; ``sample_by_optimize`` is
the former ``LinearSystem.sample``, one ``optimize`` per objective, to
check the one lockstep pass. ``extremes_by_phase2`` is the former
``LinearSystem.extremes``, a simplex run on a copy of each start and a new
member per witness, to check the LPs answered at their start-bank row.
"""

import itertools
import types

import numpy as np

from credal.decisions import _report
from credal.distributions import condition_distribution, make_distribution
from credal.errors import NumericalFailureError, ZeroEvidenceError, ZeroEvidenceEverywhereError
from credal.inference import core_of_belief, zeta_transform
from credal.linprog import PIVOT_TOL, PreparedLp, _run_simplex, _Tableau, hull_membership
from credal.sets import _clipped_renormalised, _member_from_witness
from credal.tolerances import TAU_LP, TAU_ZERO


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
    batched solve over every choice of n planes whose determinant is not
    below 1e-12 of the product of the planes' norms (its Hadamard bound).
    A nonzero determinant is not enough: a repeated row, or a choice
    singular up to rounding, solves to a point on an edge (or 1e17 along
    a ray) that passes the feasibility check. Every choice holds a
    maximal linearly independent set of the = rows, picked by rank in
    order; a dependent = row (repeated, proportional to another, all
    zero) adds no plane, and the feasibility check still holds it."""
    planes = [(np.asarray(c.coeffs), c.rhs, c.relation == "=") for c in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0, False))
    eq = []
    for i, p in enumerate(planes):
        if p[2] and np.linalg.matrix_rank(np.stack([planes[j][0] for j in eq + [i]])) > len(eq):
            eq.append(i)
    rest = [i for i, p in enumerate(planes) if not p[2]]
    chosen = np.array([eq + list(extra) for extra in itertools.combinations(rest, n - len(eq))])
    A = np.stack([p[0] for p in planes])[chosen]
    b = np.array([p[1] for p in planes], dtype=float)[chosen]
    regular = np.abs(np.linalg.det(A)) > 1e-12 * np.linalg.norm(A, axis=2).prod(axis=1)
    X = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
    return [x for x in X[~np.any(X < -1e-9, axis=1)] if feasible(rows, x)]


def pivot(tab, row, col):
    T = tab.T
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    tab.basis[row] = col


def run_simplex(tab, bland_after, max_iter):
    """Minimize the priced objective over the tableau in place: Dantzig's
    rule with the largest pivot among ratio ties, then Bland's rule."""
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
        pivot(tab, leave, enter)
    raise NumericalFailureError(f"simplex exceeded {max_iter} iterations")


def two_phase(A, b, sign, objective, sense):
    """(status, value) of min/max objective @ x over x >= 0 and the rows
    A @ x (<=, =, >=) b by sign (+1, 0, -1), every row kept in the tableau
    with its own slack and artificial, from the former pivot loop
    (``run_simplex``): each row and rhs over its largest |coefficient|,
    negated where the rhs is negative; phase 1 minimizes the artificials,
    which leave the basis (or their row goes, if it has no structural entry
    to pivot on) before phase 2."""
    m, n = A.shape
    largest = np.abs(A).max(axis=1, initial=0.0)
    flip = np.where(b < 0, -1.0, 1.0)
    scale = flip / np.where(largest > 0, largest, 1.0)
    ineq = np.flatnonzero(sign)
    T = np.zeros((m + 1, n + len(ineq) + m + 1))
    T[:m, :n] = A * scale[:, None]
    T[ineq, n + np.arange(len(ineq))] = sign[ineq] * flip[ineq]
    T[:m, n + len(ineq) : -1] = np.eye(m)
    T[:m, -1] = b * scale
    art = n + len(ineq)
    tab = types.SimpleNamespace(T=T, basis=np.arange(art, art + m))
    bland_after, max_iter = 50 + 10 * T.shape[1], 500 + 100 * T.shape[1]

    def price(cost):
        tab.T[-1, :-1] = cost - cost[tab.basis] @ tab.T[:-1, :-1]

    price(np.append(np.zeros(art), np.ones(m)))
    run_simplex(tab, bland_after, max_iter)
    if tab.T[:-1, -1][tab.basis >= art].sum() > TAU_LP:
        return "INFEASIBLE", None
    keep = np.ones(m + 1, dtype=bool)
    for row in np.flatnonzero(tab.basis >= art):
        entries = np.abs(tab.T[row, :art])
        if entries.max(initial=0.0) > PIVOT_TOL:
            tab.T[row, -1] = 0.0
            pivot(tab, row, int(entries.argmax()))
        else:
            keep[row] = False
    tab.T = np.concatenate([tab.T[keep, :art], tab.T[keep, -1:]], axis=1)
    tab.basis = tab.basis[keep[:-1]]
    c = np.asarray(objective, dtype=float) * (1.0 if sense == "min" else -1.0)
    price(np.append(c, np.zeros(art - n)))
    if run_simplex(tab, bland_after, max_iter) == "UNBOUNDED":
        return "UNBOUNDED", None
    x = np.zeros(art)
    x[tab.basis] = tab.T[:-1, -1]
    return "OPTIMAL", float(objective @ x[:n])


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


def core_vertices(space, bel):
    """The distinct vertices of the core of bel, from ``vertices_of``."""
    found = []
    for v in vertices_of(space.size, core_of_belief(space, bel).full_constraints()):
        if not any(np.all(np.abs(v - u) <= 1e-9) for u in found):
            found.append(v)
    return found


def vertex_set_equals_core_by_hulls(S, bel):
    """Whether conv(S) equals the core of bel, for any set function bel:
    every vertex of the core's rows passes the hull-membership program.
    A core vertex within 1e-9 (sup norm) of a point of S is taken as that
    point first: the hull program judges rows equilibrated by their largest
    coefficient, so a coordinate near 1e-11 on every point is scaled up so
    far that a vertex 1e-19 off a point can read as outside."""
    points = np.stack([p.probs for p in S.vertices])

    def snapped(v):
        off = np.abs(points - v).max(axis=1)
        return points[off.argmin()] if off.min() <= 1e-9 else v

    return all(
        hull_membership(_member_from_witness(S.space, snapped(v)), list(S.vertices)).inside
        for v in core_vertices(S.space, bel)
    )


def chains_all_tight_by_dfs(V, bel):
    """The former chain walk: whether conv(V) (points as rows) holds every
    marginal vector of the 2-monotone bel, by a depth-first walk over
    states (A, bitmask of the points tight on every set of the chain so
    far), each visited once, that fails at the first chain no point follows."""
    n = V.shape[1]
    tight = [0] * len(bel)  # per subset A, the bitmask of points p with p(A) = Bel(A)
    masses = np.zeros(len(bel))
    for j, v in enumerate(V):
        masses[1 << np.arange(n)] = v
        meets = (zeta_transform(masses) - bel <= TAU_LP).tolist()
        tight = [t | m << j for t, m in zip(tight, meets)]
    stack = [(0, (1 << len(V)) - 1)]
    seen = set()
    while stack:
        A, points = stack.pop()
        for B in [A | 1 << i for i in range(n)]:
            left = points & tight[B]
            if not left:
                return False
            if left << n | B not in seen:
                seen.add(left << n | B)
                stack.append((B, left))
    return True


def is_two_monotone(bel, n, tol=1e-8):
    """Bel(A + i + j) + Bel(A) >= Bel(A + i) + Bel(A + j) - tol for every
    set A and every pair i < j outside it, one comparison at a time."""
    for A in range(2**n):
        for i, j in itertools.combinations([k for k in range(n) if not A >> k & 1], 2):
            if bel[A | 1 << i | 1 << j] + bel[A] < bel[A | 1 << i] + bel[A | 1 << j] - tol:
                return False
    return True


def chain_value(bel, w):
    """The greedy rule, one atom at a time: walk the atoms in order of
    falling weight (ties in index order), give each the rise of bel as it
    joins the chain of those before it, and keep the running sum of weight
    times rise. Returns (that sum, the marginal vector of rises)."""
    n = len(w)
    p = np.zeros(n)
    mask, prev, total = 0, 0.0, 0.0
    for i in sorted(range(n), key=lambda i: -w[i]):
        mask |= 1 << i
        p[i] = bel[mask] - prev
        prev = bel[mask]
        total += w[i] * p[i]
    return total, p


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


def same_atom_pairs(fam, bi):
    """Pairs of atoms on the conditioning event that every member of branch
    bi weighs alike: equal closed forms at a point where the atoms of
    different classes differ."""
    b = fam.branches[bi]
    s = np.array([0.003 if b.generator == "die-bias" else 0.3])
    row = _closed_form_rows(b.generator, dict(b.params), fam.space.atoms, s)[0]
    on = range(fam.space.size) if fam.conditioning is None else fam.conditioning.indices
    return [(i, j) for i, j in itertools.combinations(on, 2) if row[i] == row[j]]


def contains_by_atom(fam, d, tol):
    """Membership within sup-norm tol from the critical members of two
    level rows per atom, where d_i +- tol is crossed."""
    eye = np.eye(fam.space.size)
    levels = np.concatenate([eye - (d.probs + tol)[:, None], eye - (d.probs - tol)[:, None]])
    for bi in range(len(fam.branches)):
        _, M = fam.critical_members(bi, levels=levels)
        if len(M) and float(np.abs(M - d.probs).max(axis=1).min()) <= tol:
            return True
    return False


def ranges_by_row(fam, rows):
    """(lowest, highest) of each weight row, one ``extremes`` call per row."""
    found = [fam.extremes(w) for w in np.asarray(rows, dtype=float)]
    return np.array([f[0] for f in found]), np.array([f[2] for f in found])


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


def ratio_program_by_phase1(system, den, refusal):
    """The program for ratios over p(E) = den . p on the system, as the
    kernel built it before: max p(E) solved and refused at or below
    TAU_ZERO, then a new PreparedLp, with its own phase 1, over the rows
    [A | -b] @ (y, t) (sign) 0 and den @ y = 1."""
    upper = system.optimize(den, "max")
    if upper.status != "OPTIMAL" or upper.value <= TAU_ZERO:
        raise refusal("conditioning event has zero upper probability over the system")
    A, b, sign = system._prepared._rows
    A = np.vstack([np.column_stack([A, -b]), np.append(den, 0.0)])
    return PreparedLp(A, np.append(np.zeros(len(b)), 1.0), np.append(sign, 0.0))


def lp_admissible_per_action(U, rows, V, tol):
    """The former E-admissibility program over the members V.T @ x (V the
    identity for a LinearSystem): the (x, z) rows stacked by ``np.block``,
    one ``_solve_many`` pass over the actions, and one member per action."""
    EU = U.u @ V.T
    EU -= EU.min()
    k = len(V)
    A, b, sign = rows
    A = np.block([[A, np.zeros((len(A), 1))], [EU, -np.ones((len(EU), 1))]])
    prepared = PreparedLp(A, np.append(b, np.zeros(len(EU))), np.append(sign, np.ones(len(EU))))
    W, owner = prepared._solve_many(np.column_stack([EU, -np.ones(len(EU))]), "max")[1:]
    P = _clipped_renormalised(W[owner, :k] @ V)
    found = [make_distribution(U.space, p) for p in P]
    return _report(U, P, found.__getitem__, tol)


def start_bank_by_simplex(prepared):
    """The start bank as the kernel built it before: for each variable j, a
    copy of the phase-1 tableau priced for max x_j and run by
    ``run_simplex``, stacked with its basis, and its basic solution as the
    program's x, unchecked."""
    n = prepared.n_vars
    tabs = [prepared._tab.copy() for _ in range(n)]
    for tab, cost in zip(tabs, prepared._cost(np.eye(n), "max")):
        tab.price(cost)
        run_simplex(tab, prepared.bland_after, prepared.max_iter)
    X = prepared._shifted(np.stack([t.solution()[:n] for t in tabs]))
    return np.stack([t.T for t in tabs]), np.stack([t.basis for t in tabs]), X


def sample_by_optimize(S, k, rng):
    """``LinearSystem.sample`` as it was: one ``optimize`` per objective,
    each drawn as it is solved, a member of the system standing in when
    none is optimal, then k Dirichlet mixtures of the minimizers."""
    n = S.space.size
    points = []
    for _ in range(min(k, max(4, n * 2))):
        res = S.optimize(rng.normal(size=n), "min")
        if res.status == "OPTIMAL":
            points.append(np.clip(res.witness, 0.0, 1.0))
    if not points:
        points = [_member_from_witness(S.space, S._prepared.feasible_point()).probs]
    out = []
    for _ in range(k):
        mix = points[0] if len(points) == 1 else np.einsum("i,ij->j", rng.dirichlet(np.ones(len(points))), np.array(points))
        out.append(make_distribution(S.space, mix / mix.sum()))
    return out


def extremes_by_phase2(S, w):
    """``LinearSystem.extremes`` as it was: for min and then max of w, a
    copy of the start-bank tableau whose witness scores best on w, priced
    and run by ``_run_simplex`` even where it is optimal already, its
    solution checked and made a new member. [(value, witness, member)] * 2."""
    prepared, obj = S._prepared, np.asarray(w, dtype=float)
    Ts, bases, X = prepared._starts()
    score = X @ obj
    out = []
    for sense, j in (("min", score.argmin()), ("max", score.argmax())):
        tab = _Tableau(Ts[j], bases[j]).copy()
        tab.price(prepared._cost(obj, sense))
        assert _run_simplex(tab, prepared.bland_after, prepared.max_iter) == "OPTIMAL"
        x = prepared._checked(prepared._shifted(tab.solution()[: prepared.n_vars]))
        out.append((float(obj @ x), x, _member_from_witness(S.space, x)))
    return out
