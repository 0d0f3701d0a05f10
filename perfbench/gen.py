"""Seeded input generators for the four workloads.

Everything here is plain numpy and returns JSON-ready data: the
reference solver and the measured process both call ``generate`` with
the same seed and so see the same numbers.

The seed changes only numbers. Which calls are made, their sizes,
their order and the share of inputs meant to be infeasible, inadmissible,
outside a hull or booked are fixed by the code below. Where a property
depends on the numbers (a non-belief envelope, an admissible action, a
booked bet), the generator redraws from the same stream until the
property holds with a clear margin, so every seed gives the same shape.
"""

from __future__ import annotations

import itertools

import numpy as np

WORKLOADS = ("lp-sweep", "fresh-problems", "families", "cli")

MAX_REDRAWS = 10_000


def generate(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng)


# --- shared pieces ------------------------------------------------------


def atoms(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def mask_atoms(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def _random_mask(rng, n: int) -> int:
    return int(rng.integers(1, 2**n - 1))


def _random_event(rng, k: int) -> list[int]:
    """A nonempty proper subset of k atoms, each atom in with chance 1/2."""
    while True:
        inside = rng.random(k) < 0.5
        if 0 < inside.sum() < k:
            return [int(i) for i in np.flatnonzero(inside)]


def _random_subset(rng, n: int, size: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))


def _box(rng, n: int) -> dict:
    """Per-atom bounds around an interior point."""
    c = rng.dirichlet(np.full(n, 2.0))
    lo = np.clip(c - rng.uniform(0.02, 0.08, n), 0.0, 1.0)
    hi = np.clip(c + rng.uniform(0.02, 0.08, n), 0.0, 1.0)
    return {"kind": "box", "n": n, "lo": lo.tolist(), "hi": hi.tolist()}


def box_rows(system: dict) -> list[dict]:
    """The rows interval_to_linear_system builds from a box, in its order."""
    rows = []
    n = system["n"]
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        rows.append({"coeffs": e, "rel": ">=", "rhs": system["lo"][j]})
        rows.append({"coeffs": e, "rel": "<=", "rhs": system["hi"][j]})
    return rows


def _poly(rng, n: int) -> dict:
    """The simplex cut by three dense <= rows and two dense >= rows that
    keep an interior point strictly feasible."""
    c = rng.dirichlet(np.full(n, 2.0))
    rows = []
    for rel in ["<="] * 3 + [">="] * 2:
        a = rng.normal(size=n)
        slack = rng.uniform(0.02, 0.1)
        rhs = float(a @ c) + (slack if rel == "<=" else -slack)
        rows.append({"coeffs": a.tolist(), "rel": rel, "rhs": rhs})
    return {"kind": "poly", "n": n, "rows": rows}


def system_rows(system: dict) -> list[dict]:
    return box_rows(system) if system["kind"] == "box" else system["rows"]


def subset_indicators(n: int) -> np.ndarray:
    """Row A is the indicator of the subset with bitmask A."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def vertex_bel(V: np.ndarray) -> np.ndarray:
    """Lower envelope of every subset over finitely many points, by a
    direct minimum over the points."""
    bel = (subset_indicators(V.shape[1]) @ V.T).min(axis=1)
    bel[0], bel[-1] = 0.0, 1.0
    return bel


def inclusion_exclusion(bel: np.ndarray) -> np.ndarray:
    """Moebius masses m(A) = sum over B subset of A of (-1)^|A-B| bel(B)."""
    size = len(bel)
    n = size.bit_length() - 1
    m = np.zeros(size)
    for a in range(size):
        total = 0.0
        b = a
        while True:
            total += (-1) ** bin(a ^ b).count("1") * bel[b]
            if b == 0:
                break
            b = (b - 1) & a
        m[a] = total
    return m


# --- coin-family closed forms -------------------------------------------


def coin_labels(n: int) -> list[str]:
    """Atom labels of an n-toss coin space, HH..H first and TT..T last."""
    return ["".join(t) for t in itertools.product("HT", repeat=n)]


def coin_heads(n: int) -> list[int]:
    return [lab.count("H") for lab in coin_labels(n)]


def coin_atom_poly(h: int, n: int) -> np.ndarray:
    """Ascending coefficients of theta^h (1 - theta)^(n - h)."""
    poly = np.polynomial.polynomial.polypow([0.0, 1.0], h)
    return np.polynomial.polynomial.polymul(
        poly, np.polynomial.polynomial.polypow([1.0, -1.0], n - h)
    )


def coin_probs(theta, n: int) -> np.ndarray:
    """Member probabilities at theta (a number, or one row per theta)."""
    h = np.array(coin_heads(n))
    t = np.asarray(theta, dtype=float)[..., None]
    return t**h * (1.0 - t) ** (n - h)


def coin_margins(U: np.ndarray, n: int, lo: float, hi: float) -> np.ndarray:
    """Exact max over theta in [lo, hi] of min_b EU_a - EU_b, per action.

    min_b of polynomials peaks at an endpoint, at a critical point of
    one margin, or where two margins cross.
    """
    P = np.polynomial.polynomial
    basis = [coin_atom_poly(h, n) for h in coin_heads(n)]
    eu = [sum(u * b for u, b in zip(row, basis)) for row in U]
    out = []
    for a in range(len(U)):
        g = [P.polysub(eu[a], eu[b]) for b in range(len(U)) if b != a]
        cands = [lo, hi]
        polys = [P.polyder(x) for x in g]
        polys += [P.polysub(x, y) for x, y in itertools.combinations(g, 2)]
        for poly in polys:
            cands += _real_roots_inside(poly, lo, hi)
        out.append(max(min(P.polyval(t, x) for x in g) for t in cands))
    return np.array(out)


def _real_roots_inside(poly, lo: float, hi: float) -> list[float]:
    poly = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    if len(poly) < 2:
        return []
    return [float(r.real) for r in np.polynomial.polynomial.polyroots(poly)
            if abs(r.imag) < 1e-9 and lo < r.real < hi]


# --- call lists -------------------------------------------------------


def _mix(groups: list[list[dict]]) -> list[dict]:
    """Merge groups of calls so each group is spread evenly through the
    list, in an order that does not depend on the seed."""
    keyed = []
    for g in groups:
        for k, op in enumerate(g):
            keyed.append(((k + 0.5) / len(g), len(keyed), op))
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


# --- lp-sweep -----------------------------------------------------------

# Sweep systems (kind, atoms, how many); each gets one lower-envelope
# sweep and is the target of the single-event and conditioning calls.
# The 10-atom sweeps are the slowest calls; p99 of a pass of 600 calls
# falls in the middle of them, and twelve of them keep it steady from
# seed to seed.
LP_SWEEP_SYSTEMS = (("poly", 10, 12), ("box", 9, 4), ("poly", 9, 4))
LP_MOBIUS_SYSTEMS = (("box", 6, 3), ("poly", 7, 3))
LP_ENVELOPES = 558
LP_CONDITIONS = 16
LP_CONDITION_ATOMS = 3


def _gen_lp_sweep(rng) -> dict:
    systems, sweep, mobius = {}, [], []
    for group, names in ((LP_SWEEP_SYSTEMS, sweep), (LP_MOBIUS_SYSTEMS, mobius)):
        for kind, n, count in group:
            for k in range(count):
                names.append(f"{kind}{n}-{k}")
                systems[names[-1]] = _box(rng, n) if kind == "box" else _poly(rng, n)
    envelopes = []
    for i in range(LP_ENVELOPES):
        name = sweep[i % len(sweep)]
        envelopes.append({"op": "envelope", "system": name,
                          "mask": _random_mask(rng, systems[name]["n"])})
    conds = [{"op": "conditionalize", "system": name,
              "event": _random_subset(rng, systems[name]["n"], LP_CONDITION_ATOMS)}
             for name in sweep[:LP_CONDITIONS]]
    sweeps = [{"op": "lower_envelope_function", "system": name} for name in sweep]
    reports = [{"op": "mobius_report", "system": name} for name in mobius]
    return {"systems": systems, "calls": _mix([envelopes, conds, sweeps, reports])}


# --- fresh-problems -----------------------------------------------------

FRESH_COUNTS = {
    "e_admissible": 16,
    "e_admissible_over_hull": 16,
    "hull_membership": 24,  # half inside, half outside
    "fractional_bounds": 16,
    "linear_system": 24,  # a quarter infeasible
    "mobius_point8": 6,  # one-point VertexSet, n = 8: the permutation walk
    "mobius_nonbelief5": 1,  # three points, n = 5: the vertex enumeration
}


def _gen_admissible_system(rng) -> dict:
    """8 atoms, 8 actions: actions 0-5 each win where their own atom is
    heavy, which the box allows; actions 6 and 7 are strictly dominated."""
    n = 8
    lo = rng.uniform(0.0, 0.03, n)
    hi = np.concatenate([rng.uniform(0.6, 0.9, 6), rng.uniform(0.2, 0.4, 2)])
    system = {"kind": "box", "n": n, "lo": lo.tolist(), "hi": hi.tolist()}
    rows = box_rows(system)
    rows.append({"coeffs": [0.0] * 6 + [1.0, 1.0], "rel": "<=",
                 "rhs": float(rng.uniform(0.3, 0.5))})
    U = np.clip(rng.normal(0.0, 0.3, (8, n)), -0.5, 0.5)
    U[:6, :6] += 10.0 * np.eye(6)
    U[6] = U[0] - 1.0
    U[7] = U[1] - 0.5
    return {"n": n, "rows": rows, "utilities": U.tolist()}


def _gen_hull_admissible(rng) -> dict:
    """6 atoms, 5 members each heavy on its own atom, 8 actions: 0-4
    admissible at their member, 5-7 strictly dominated."""
    n = 6
    members = []
    for i in range(5):
        p = 0.4 * rng.dirichlet(np.full(n, 2.0))
        p[i] += 0.6
        members.append(p.tolist())
    U = np.clip(rng.normal(0.0, 0.3, (8, n)), -0.5, 0.5)
    U[:5, :5] += 10.0 * np.eye(5)
    U[5] = U[0] - 1.0
    U[6] = U[1] - 1.0
    U[7] = U[2] - 0.5
    return {"n": n, "members": members, "utilities": U.tolist()}


def _gen_hull_point(rng, inside: bool) -> dict:
    n, k = 8, 6
    V = rng.dirichlet(np.full(n, 2.0), size=k)
    q = rng.dirichlet(np.ones(k)) @ V
    if not inside:
        # lift one atom above every vertex's value on it
        j = int(rng.integers(n))
        target = V[:, j].max() + 0.05 * (1.0 - V[:, j].max())
        alpha = (target - q[j]) / (1.0 - q[j])
        e = np.zeros(n)
        e[j] = 1.0
        q = (1.0 - alpha) * q + alpha * e
    return {"n": n, "vertices": V.tolist(), "point": q.tolist(), "inside": inside}


def _gen_infeasible(rng, n: int) -> dict:
    """Lower bounds summing above one."""
    lo = 1.1 * rng.dirichlet(np.full(n, 2.0))
    rows = []
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        rows.append({"coeffs": e, "rel": ">=", "rhs": float(lo[j])})
    return {"kind": "poly", "n": n, "rows": rows}


def _gen_nonbelief_vertices(rng, n: int, k: int) -> list:
    """k points on n atoms whose lower envelope has a clearly negative
    Moebius mass."""
    for _ in range(MAX_REDRAWS):
        V = rng.dirichlet(np.full(n, 2.0), size=k)
        if inclusion_exclusion(vertex_bel(V)).min() < -1e-3:
            return V.tolist()
    raise RuntimeError("no non-belief vertex set within the redraw budget")


def _gen_fresh(rng) -> dict:
    c = FRESH_COUNTS
    groups = [
        [{"op": "e_admissible", **_gen_admissible_system(rng)}
         for _ in range(c["e_admissible"])],
        [{"op": "e_admissible_over_hull", **_gen_hull_admissible(rng)}
         for _ in range(c["e_admissible_over_hull"])],
        [{"op": "hull_membership", **_gen_hull_point(rng, i % 2 == 0)}
         for i in range(c["hull_membership"])],
        [{"op": "fractional_bounds", "system": _poly(rng, 7),
          "num": _random_subset(rng, 7, 3), "den": _random_subset(rng, 7, 4),
          "sense": "min" if i % 2 == 0 else "max"}
         for i in range(c["fractional_bounds"])],
        [{"op": "linear_system", "system": _gen_infeasible(rng, 8), "feasible": False}
         if i % 4 == 3 else
         {"op": "linear_system", "system": _poly(rng, 8), "feasible": True}
         for i in range(c["linear_system"])],
        [{"op": "mobius_vertices", "vertices": rng.dirichlet(np.full(8, 2.0), size=1).tolist()}
         for _ in range(c["mobius_point8"])],
        [{"op": "mobius_vertices", "vertices": _gen_nonbelief_vertices(rng, 5, 3)}
         for _ in range(c["mobius_nonbelief5"])],
    ]
    return {"calls": _mix(groups)}


# --- families -----------------------------------------------------------

COIN_TOSSES = (2, 3, 4, 5, 6)
# Grid scans cost in proportion to the parameter range, so every range
# has the same width and only its position is drawn.
RANGE_WIDTH = 0.3
BOOK_TICKETS = 3
FAMILY_REPEATS = 4  # distinct families per kind and size


def _coin_range(rng) -> tuple[float, float]:
    lo = float(rng.uniform(0.1, 0.6))
    return lo, lo + RANGE_WIDTH


def _gen_admissible_family(rng, n: int) -> dict:
    """5 actions over a coin family: 0-2 each best where the head fraction
    is near its own target, 3 and 4 strictly dominated."""
    lo, hi = _coin_range(rng)
    heads = np.array(coin_heads(n)) / n
    targets = lo + RANGE_WIDTH * (np.array([0.2, 0.5, 0.8]) + rng.uniform(-0.05, 0.05, 3))
    U = np.zeros((5, 2**n))
    for a, t in enumerate(targets):
        U[a] = -4.0 * (heads - t) ** 2 + rng.normal(0.0, 1e-3, 2**n)
    U[3] = U[0] - 0.5
    U[4] = U[1] - 0.25
    if not np.all(coin_margins(U[:3], n, lo, hi) > 1e-3):
        raise RuntimeError("admissible actions without a clear margin")
    return {"n": n, "lo": lo, "hi": hi, "utilities": U.tolist()}


def _gen_contains(rng, n: int, member: bool) -> dict:
    lo, hi = _coin_range(rng)
    theta = float(rng.uniform(lo, hi))
    p = coin_probs(theta, n)
    if not member:
        grid = coin_probs(np.linspace(lo, hi, 2001), n)
        for _ in range(MAX_REDRAWS):
            q = 0.9 * p + 0.1 * rng.dirichlet(np.ones(2**n))
            if np.abs(grid - q[None, :]).max(axis=1).min() > 1e-2:
                p = q
                break
        else:
            raise RuntimeError("no non-member within the redraw budget")
    return {"n": n, "lo": lo, "hi": hi, "probs": p.tolist(), "member": member}


def _gen_book(rng, n: int, conditioned: bool, booked: bool) -> dict:
    """A bet book on n tosses whose verdict over the family is fixed."""
    for _ in range(MAX_REDRAWS):
        lo, hi = _coin_range(rng)
        cond = _random_event(rng, 2**n) if conditioned else None
        if cond is not None and len(cond) < 2:
            continue
        tickets = []
        for _ in range(BOOK_TICKETS):
            payout = int(rng.integers(1, 6)) * 100
            tickets.append({
                "side": "buy" if rng.random() < 0.5 else "sell",
                "price_cents": int(rng.integers(0, payout + 1)),
                "payout_cents": payout,
                "event": _random_event(rng, 2**n),
            })
        book = {"n": n, "lo": lo, "hi": hi, "tickets": tickets, "conditioning": cond}
        top, bottom = book_extrema(book)
        if booked and top < -0.01 and bottom < -0.01:
            return book
        if not booked and top > 0.01:
            return book
    raise RuntimeError("no bet book with the wanted verdict within the redraw budget")


def agent_payoff(book: dict) -> np.ndarray:
    """Agent net per atom in dollars: a bought ticket costs its price and
    pays its payout on the event; a sold one is the mirror image."""
    out = np.zeros(2 ** book["n"], dtype=np.int64)
    for t in book["tickets"]:
        sign = 1 if t["side"] == "buy" else -1
        out -= sign * t["price_cents"]
        out[t["event"]] += sign * t["payout_cents"]
    return out / 100.0


def ratio_extrema(num: np.ndarray, den: np.ndarray | None, lo: float, hi: float):
    """(max, min) of num/den (or num) over [lo, hi] from endpoints and
    the real roots of num' den - num den'."""
    P = np.polynomial.polynomial
    if den is None:
        crit = P.polyder(num)
    else:
        crit = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den)))
    cands = [lo, hi] + _real_roots_inside(crit, lo, hi)
    vals = [P.polyval(t, num) / (1.0 if den is None else P.polyval(t, den)) for t in cands]
    return max(vals), min(vals)


def event_polys(n: int, event: list[int], cond: list[int] | None):
    """Numerator and denominator polynomials of P(event | cond) on a coin
    family; the denominator is None when unconditioned."""
    heads = coin_heads(n)
    keep = set(event) & set(cond) if cond is not None else set(event)
    num = sum((coin_atom_poly(heads[j], n) for j in sorted(keep)), np.zeros(1))
    if cond is None:
        return num, None
    den = sum((coin_atom_poly(heads[j], n) for j in cond), np.zeros(1))
    return num, den


def book_extrema(book: dict):
    n = book["n"]
    heads = coin_heads(n)
    agent = agent_payoff(book)
    cond = book["conditioning"]
    atoms_in = range(2**n) if cond is None else cond
    num = sum((agent[j] * coin_atom_poly(heads[j], n) for j in atoms_in), np.zeros(1))
    den = None if cond is None else event_polys(n, cond, None)[0]
    return ratio_extrema(num, den, book["lo"], book["hi"])


def _gen_families(rng) -> dict:
    envelopes, admissible, contains, books = [], [], [], []
    for _ in range(FAMILY_REPEATS):
        for n in COIN_TOSSES:
            lo, hi = _coin_range(rng)
            cond = _random_event(rng, 2**n)
            while len(cond) < 2:
                cond = _random_event(rng, 2**n)
            for conditioned in (False, True):
                for _ in range(2):
                    envelopes.append({"op": "coin_envelope", "n": n, "lo": lo, "hi": hi,
                                      "event": _random_event(rng, 2**n),
                                      "conditioning": cond if conditioned else None})
        for _ in range(3):
            envelopes.append({"op": "die_envelope", "event": _random_event(rng, 6)})
            s_lo = float(rng.uniform(0.1, 0.6))
            envelopes.append({"op": "square_envelope", "lo": s_lo**2,
                              "hi": (s_lo + RANGE_WIDTH) ** 2,
                              "event": _random_event(rng, 4)})
        for n in COIN_TOSSES:
            admissible.append({"op": "family_admissible", **_gen_admissible_family(rng, n)})
        for n in (2, 3, 4, 5):
            contains.append({"op": "contains", **_gen_contains(rng, n, True)})
            contains.append({"op": "contains", **_gen_contains(rng, n, False)})
        for n in (2, 3, 4):
            for conditioned in (False, True):
                books.append({"op": "booked", **_gen_book(rng, n, conditioned,
                                                          booked=n != 3)})
    return {"calls": _mix([envelopes, admissible, contains, books])}


# --- cli ----------------------------------------------------------------


def _gen_cli(rng) -> dict:
    system = _poly(rng, 8)
    lo, hi = _coin_range(rng)
    decide = _gen_admissible_system(rng)
    book = _gen_book(rng, 2, conditioned=False, booked=True)
    return {
        "system": system,
        "system_event": _random_subset(rng, 8, 3),
        "system_condition": _random_subset(rng, 8, 4),
        "family": {"n": 3, "lo": lo, "hi": hi},
        "family_event": _random_event(rng, 8),
        "family_condition": _random_event(rng, 8),
        "decide": decide,
        "book": book,
        "calls": ["examples", "envelope-system", "envelope-family",
                  "condition-system", "condition-family", "decide",
                  "bet-table", "bet-eval"],
    }


_GENERATORS = {
    "lp-sweep": _gen_lp_sweep,
    "fresh-problems": _gen_fresh,
    "families": _gen_families,
    "cli": _gen_cli,
}
