"""Independent reference answers, computed without credal.

LP optimal values come from scipy's HiGHS; box envelopes, vertex-set
envelopes and family extrema come from closed forms in ``gen``. The
output is a JSON list aligned with the workload's round (one entry per
call) plus, for lp-sweep, the lower envelope of each shared system.

Run as ``python3 perfbench/refs.py WORKLOAD SEED``; it prints JSON on
stdout, or exits non-zero when scipy is missing or a reference cannot
be built.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np
from scipy.optimize import linprog

import gen

# Margin below which a reference flag is treated as undecided.
CLEAR = 1e-6
# Lower probabilities per polytope that HiGHS recomputes as a cross-check,
# and how far apart the two may be (the LP tolerance of the checks).
HIGHS_SAMPLES = 8
CROSS_CHECK_TOL = 1e-7


def _matrices(n: int, rows: list[dict]):
    """Simplex plus explicit rows as (A_ub, b_ub, A_eq, b_eq)."""
    A_ub, b_ub, A_eq, b_eq = [], [], [np.ones(n)], [1.0]
    for r in rows:
        a = np.asarray(r["coeffs"], dtype=float)
        if r["rel"] == "<=":
            A_ub.append(a)
            b_ub.append(r["rhs"])
        elif r["rel"] == ">=":
            A_ub.append(-a)
            b_ub.append(-r["rhs"])
        else:
            A_eq.append(a)
            b_eq.append(r["rhs"])
    return (np.array(A_ub) if A_ub else None, np.array(b_ub) if b_ub else None,
            np.array(A_eq), np.array(b_eq))


def _highs(c, A_ub, b_ub, A_eq, b_eq, sense: str = "min"):
    """Optimal value, or None when infeasible."""
    c = np.asarray(c, dtype=float)
    res = linprog(c if sense == "min" else -c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun if sense == "min" else -res.fun)


def system_value(n: int, rows: list[dict], c, sense: str):
    return _highs(c, *_matrices(n, rows), sense=sense)


def indicator(idx, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[list(idx)] = 1.0
    return v


def poly_vertices(system: dict) -> np.ndarray:
    """Vertices of {p >= 0, sum p = 1, rows} for inequality rows: every
    choice of n - 1 tight planes among the rows and the coordinate planes,
    kept when feasible."""
    n = system["n"]
    rows = system["rows"]
    planes = np.vstack([np.array([r["coeffs"] for r in rows]), np.eye(n)])
    rhs = np.concatenate([[r["rhs"] for r in rows], np.zeros(n)])
    combos = np.array(list(itertools.combinations(range(len(planes)), n - 1)))
    A = np.concatenate([np.ones((len(combos), 1, n)), planes[combos]], axis=1)
    b = np.concatenate([np.ones((len(combos), 1)), rhs[combos]], axis=1)
    regular = np.abs(np.linalg.det(A)) > 1e-12
    x = np.linalg.solve(A[regular], b[regular][:, :, None])[:, :, 0]
    A_ub, b_ub, _, _ = _matrices(n, rows)
    keep = (x.min(axis=1) >= -1e-9) & ((x @ A_ub.T - b_ub).max(axis=1) <= 1e-9)
    return x[keep]


def system_bel(system: dict) -> np.ndarray:
    """Lower probability of every subset.

    A box has the closed form max(sum lo on A, 1 - sum hi off A). A
    polytope's lower probabilities are minima over its vertices; a sample
    of them is cross-checked with HiGHS, and a disagreement stops the run.
    """
    n = system["n"]
    ind = gen.subset_indicators(n)
    if system["kind"] == "box":
        lo, hi = np.array(system["lo"]), np.array(system["hi"])
        bel = np.maximum(ind @ lo, 1.0 - (1.0 - ind) @ hi)
    else:
        bel = (ind @ poly_vertices(system).T).min(axis=1)
        mats = _matrices(n, system["rows"])
        for mask in np.linspace(1, 2**n - 2, HIGHS_SAMPLES).astype(int):
            if abs(_highs(ind[mask], *mats) - bel[mask]) > CROSS_CHECK_TOL:
                raise RuntimeError("vertex enumeration disagrees with HiGHS")
    bel[0], bel[-1] = 0.0, 1.0
    return bel


def fractional_value(n: int, rows: list[dict], num, den, sense: str):
    """min or max of (num @ p) / (den @ p) by the Charnes-Cooper LP in
    (y, t) = (p / den @ p, 1 / den @ p)."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for r in rows:
        a = np.append(np.asarray(r["coeffs"], dtype=float), -r["rhs"])
        if r["rel"] == "<=":
            A_ub.append(a)
            b_ub.append(0.0)
        elif r["rel"] == ">=":
            A_ub.append(-a)
            b_ub.append(0.0)
        else:
            A_eq.append(a)
            b_eq.append(0.0)
    A_eq.append(np.append(np.ones(n), -1.0))
    b_eq.append(0.0)
    A_eq.append(np.append(np.asarray(den, dtype=float), 0.0))
    b_eq.append(1.0)
    return _highs(np.append(num, 0.0), np.array(A_ub) if A_ub else None,
                  np.array(b_ub) if b_ub else None, np.array(A_eq), np.array(b_eq), sense)


def conditional_box(system: dict, event: list[int]) -> dict:
    n = system["n"]
    rows = gen.system_rows(system)
    den = indicator(event, n)
    lo, hi = np.zeros(n), np.zeros(n)
    for j in event:
        atom = indicator([j], n)
        lo[j] = max(0.0, fractional_value(n, rows, atom, den, "min"))
        hi[j] = min(1.0, fractional_value(n, rows, atom, den, "max"))
    return {"lo": lo.tolist(), "hi": hi.tolist()}


def core_margin(system: dict, bel: np.ndarray) -> float:
    """Smallest slack of the system's rows over the core {p : p(A) >= bel(A)}:
    positive when the system equals the core, negative when not."""
    n = system["n"]
    core = [{"coeffs": indicator(gen.mask_atoms(mask, n), n), "rel": ">=", "rhs": bel[mask]}
            for mask in range(1, 2**n - 1) if bel[mask] > 1e-12]
    mats = _matrices(n, core)
    margin = math.inf
    for r in gen.system_rows(system):
        if r["rel"] in ("<=", "="):
            margin = min(margin, r["rhs"] - _highs(r["coeffs"], *mats, sense="max"))
        if r["rel"] in (">=", "="):
            margin = min(margin, _highs(r["coeffs"], *mats, sense="min") - r["rhs"])
    return margin


def mobius_ref(bel: np.ndarray) -> dict:
    m = gen.inclusion_exclusion(bel)
    return {"bel": bel.tolist(), "mobius": m.tolist()}


def admissible_margins(n: int, rows: list[dict], U) -> list[float]:
    """Per action, max over the set of min_b (U_a - U_b) @ p; admissible
    iff >= 0. The free margin t enters as s = t + 100 >= 0."""
    U = np.asarray(U, dtype=float)
    A_ub, b_ub, A_eq, b_eq = _matrices(n, rows)
    out = []
    for a in range(len(U)):
        rows_ub = [np.append(U[b] - U[a], 1.0) for b in range(len(U)) if b != a]
        rhs_ub = [100.0] * len(rows_ub)
        if A_ub is not None:
            rows_ub += [np.append(r, 0.0) for r in A_ub]
            rhs_ub += list(b_ub)
        eq = [np.append(r, 0.0) for r in A_eq]
        c = np.zeros(n + 1)
        c[-1] = 1.0
        s = _highs(c, np.array(rows_ub), np.array(rhs_ub), np.array(eq), np.array(b_eq), "max")
        out.append(s - 100.0)
    return out


def _lp_sweep(data: dict) -> dict:
    bels = {name: system_bel(s) for name, s in data["systems"].items()}
    out = []
    for op in data["calls"]:
        s = data["systems"][op["system"]]
        n = s["n"]
        bel = bels[op["system"]]
        if op["op"] == "envelope":
            comp = (2**n - 1) ^ op["mask"]
            out.append({"lower": bel[op["mask"]], "upper": 1.0 - bel[comp]})
        elif op["op"] == "conditionalize":
            out.append(conditional_box(s, op["event"]))
        elif op["op"] == "lower_envelope_function":
            out.append({"system": op["system"]})
        else:
            out.append({**mobius_ref(bel), "core_margin": core_margin(s, bel)})
    return {"bel": {k: v.tolist() for k, v in bels.items()}, "calls": out}


def _mobius_vertices(V: np.ndarray) -> dict:
    bel = gen.vertex_bel(V)
    ref = mobius_ref(bel)
    k, n = V.shape
    if k == 1:
        ref["core_margin"] = 1.0  # the core of a point's envelope is the point
        return ref
    # k points span at most k - 1 dimensions; a core with an interior
    # point (the centroid satisfies every row strictly) is n - 1
    # dimensional, so it is larger than their hull
    centroid = gen.vertex_bel(V.mean(axis=0, keepdims=True))
    slack = (centroid - bel)[1:-1].min()
    if not (k - 1 < n - 1 and slack > CLEAR):
        raise RuntimeError("vertex set core equality has no clear reference")
    ref["core_margin"] = -slack
    return ref


def _fresh(data: dict) -> dict:
    out = []
    for op in data["calls"]:
        kind = op["op"]
        if kind == "e_admissible":
            out.append({"margins": admissible_margins(op["n"], op["rows"], op["utilities"])})
        elif kind == "e_admissible_over_hull":
            M = np.array(op["members"])
            EU = np.array(op["utilities"]) @ M.T  # actions x members
            k = len(M)
            out.append({"margins": admissible_margins(k, [], EU)})
        elif kind == "hull_membership":
            V = np.array(op["vertices"])
            p = np.array(op["point"])
            value = _highs(np.zeros(len(V)), None, None,
                           np.vstack([V.T, np.ones(len(V))]), np.append(p, 1.0))
            out.append({"inside": value is not None})
        elif kind == "fractional_bounds":
            s = op["system"]
            n = s["n"]
            den = indicator(op["den"], n)
            num = indicator(op["num"], n) * den
            out.append({"value": fractional_value(n, s["rows"], num, den, op["sense"])})
        elif kind == "linear_system":
            s = op["system"]
            value = system_value(s["n"], s["rows"], np.zeros(s["n"]), "min")
            out.append({"feasible": value is not None})
        else:
            out.append(_mobius_vertices(np.array(op["vertices"])))
    return {"calls": out}


def die_extrema(event: list[int]):
    """(max, min) of P(event) over both die branches: linear in eps, so
    the endpoints eps = +-1/48 decide."""
    vals = []
    for eps in (-1 / 48, 1 / 48):
        lo, hi = 1 / 12 + eps, 3 / 12 - eps
        for first_two in ((lo, hi), (hi, lo)):
            p = np.array([*first_two, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
            vals.append(float(p[event].sum()))
    return max(vals), min(vals)


def coin_envelope(n: int, lo: float, hi: float, event, cond):
    num, den = gen.event_polys(n, event, cond)
    upper, lower = gen.ratio_extrema(num, den, lo, hi)
    return {"lower": lower, "upper": upper}


def book_ref(book: dict) -> dict:
    top, bottom = gen.book_extrema(book)
    return {"max": top, "min": bottom,
            "scale": float(np.abs(gen.agent_payoff(book)).max())}


def _families(data: dict) -> dict:
    out = []
    for op in data["calls"]:
        kind = op["op"]
        if kind == "coin_envelope":
            out.append(coin_envelope(op["n"], op["lo"], op["hi"], op["event"], op["conditioning"]))
        elif kind == "die_envelope":
            upper, lower = die_extrema(op["event"])
            out.append({"lower": lower, "upper": upper})
        elif kind == "square_envelope":
            # in p = sqrt(w) the family is the two-toss coin family
            out.append(coin_envelope(2, math.sqrt(op["lo"]), math.sqrt(op["hi"]),
                                     op["event"], None))
        elif kind == "family_admissible":
            out.append({"margins": gen.coin_margins(np.array(op["utilities"]), op["n"],
                                                op["lo"], op["hi"]).tolist()})
        elif kind == "contains":
            out.append({"member": op["member"]})
        else:
            out.append(book_ref(op))
    return {"calls": out}


def _cli(data: dict) -> dict:
    s = data["system"]
    n = s["n"]
    ev = indicator(data["system_event"], n)
    fam = data["family"]
    dec = data["decide"]
    book = data["book"]
    agent_cents = np.round(gen.agent_payoff(book) * 100).astype(int)
    return {
        "envelope-system": {"lower": system_value(n, s["rows"], ev, "min"),
                            "upper": system_value(n, s["rows"], ev, "max")},
        "envelope-family": coin_envelope(fam["n"], fam["lo"], fam["hi"],
                                         data["family_event"], None),
        "condition-system": conditional_box(s, data["system_condition"]),
        "condition-family": {"conditioning": [gen.coin_labels(fam["n"])[i]
                                              for i in data["family_condition"]]},
        "decide": {"margins": admissible_margins(dec["n"], dec["rows"], dec["utilities"])},
        "bet-table": {"antagonist_cents": (-agent_cents).tolist()},
        "bet-eval": book_ref(book),
    }


REFS = {"lp-sweep": _lp_sweep, "fresh-problems": _fresh, "families": _families, "cli": _cli}


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    json.dump(REFS[workload](gen.generate(workload, seed)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
