"""The calls each workload makes, and the checks of their answers.

``build`` turns generated data into a round of calls. Each call goes
through a module attribute of credal at call time (``credal.envelope``,
``credal.inference.lower_envelope_function``), so the traced run sees
it. ``summarize`` reduces an answer (or the error raised) to JSON-ready
numbers outside the timed span; ``check`` compares that summary with
the independent reference at the library's own tolerances.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen

import credal
import credal.cases
import credal.inference
from credal.tolerances import TAU_LP, TAU_STRICT

# LP values agree with HiGHS within the witness-check tolerance.
LP_TOL = 10 * TAU_LP
FAMILY_TOL = credal.cases.FAMILY_TOL


@dataclass
class Call:
    kind: str
    call: Callable[[], Any]
    summarize: Callable[[Any, BaseException | None], Any]


def error_code(exc: BaseException) -> str:
    return getattr(exc, "code", type(exc).__name__)


def _space(n: int):
    return credal.simple_space(*gen.atoms(n))


def _system(space, rows: list[dict]):
    cons = tuple(credal.constraint(r["coeffs"], r["rel"], r["rhs"]) for r in rows)
    return credal.LinearSystem(space, cons)


def _build_system(s: dict):
    space = _space(s["n"])
    if s["kind"] == "box":
        iv = credal.IntervalDistribution(space, np.array(s["lo"]), np.array(s["hi"]))
        return credal.interval_to_linear_system(iv)
    return _system(space, s["rows"])


def _event(space, idx):
    return credal.Event.from_indices(space, idx)


def _box_bounds(system) -> list[float]:
    """lo then hi per atom, read off a box system's unit rows."""
    n = system.space.size
    lo, hi = [0.0] * n, [0.0] * n
    for c in system.constraints:
        j = int(np.argmax(c.coeffs))
        if c.relation == ">=":
            lo[j] = c.rhs
        else:
            hi[j] = c.rhs
    return lo + hi


def _mobius_summary(rep, exc):
    if exc is not None:
        return {"error": error_code(exc)}
    return {"bel": rep.bel.values.tolist(), "mobius": rep.mobius.values.tolist(),
            "is_belief": rep.envelope_is_belief, "equals_core": rep.set_equals_core}


def _envelope_summary(env, exc):
    return {"error": error_code(exc)} if exc is not None else [env.lower, env.upper]


def _flags_summary(report, exc):
    if exc is not None:
        return {"error": error_code(exc)}
    return [e.admissible for e in report.entries]


# --- lp-sweep -----------------------------------------------------------


def _lp_sweep(data: dict) -> list[Call]:
    systems = {name: _build_system(s) for name, s in data["systems"].items()}
    out = []
    for op in data["calls"]:
        S = systems[op["system"]]
        kind = op["op"]
        if kind == "envelope":
            e = _event(S.space, gen.mask_atoms(op["mask"], S.space.size))
            out.append(Call(kind, lambda S=S, e=e: credal.envelope(S, e), _envelope_summary))
        elif kind == "conditionalize":
            e = _event(S.space, op["event"])
            out.append(Call(kind, lambda S=S, e=e: credal.conditionalize(S, e),
                            lambda r, exc: {"error": error_code(exc)} if exc else _box_bounds(r)))
        elif kind == "lower_envelope_function":
            out.append(Call(kind, lambda S=S: credal.inference.lower_envelope_function(S),
                            lambda r, exc: {"error": error_code(exc)} if exc else r.values.tolist()))
        else:
            out.append(Call(kind, lambda S=S: credal.mobius_report(S), _mobius_summary))
    return out


# --- fresh-problems -----------------------------------------------------


def _e_admissible(op):
    space = _space(op["n"])
    S = _system(space, op["rows"])
    U = credal.UtilityMatrix(tuple(f"x{i}" for i in range(len(op["utilities"]))),
                             space, np.array(op["utilities"]))
    return credal.e_admissible(U, S)


def _e_admissible_over_hull(op):
    space = _space(op["n"])
    members = [credal.make_distribution(space, np.array(p)) for p in op["members"]]
    U = credal.UtilityMatrix(tuple(f"x{i}" for i in range(len(op["utilities"]))),
                             space, np.array(op["utilities"]))
    return credal.e_admissible_over_hull(U, members)


def _hull_membership(op):
    space = _space(op["n"])
    vertices = [credal.make_distribution(space, np.array(v)) for v in op["vertices"]]
    return credal.hull_membership(credal.make_distribution(space, np.array(op["point"])),
                                  vertices)


def _hull_summary(op):
    V = np.array(op["vertices"])
    p = np.array(op["point"])

    def summarize(res, exc):
        if exc is not None:
            return {"error": error_code(exc)}
        if res.inside:
            w = res.weights
            valid = bool(np.all(w >= -LP_TOL) and abs(w.sum() - 1.0) <= LP_TOL
                         and np.abs(w @ V - p).max() <= LP_TOL)
        else:
            valid = bool(res.normal @ p > res.offset
                         and np.all(V @ res.normal <= res.offset + LP_TOL))
        return {"inside": res.inside, "certificate_valid": valid}

    return summarize


def _fractional_bounds(op):
    s = op["system"]
    space = _space(s["n"])
    S = _system(space, s["rows"])
    return credal.fractional_bounds(S, _event(space, op["num"]), _event(space, op["den"]),
                                    op["sense"])


def _linear_system(op):
    s = op["system"]
    return _system(_space(s["n"]), s["rows"])


def _mobius_vertices(op):
    n = len(op["vertices"][0])
    space = _space(n)
    S = credal.VertexSet(tuple(credal.make_distribution(space, np.array(v))
                               for v in op["vertices"]))
    return credal.mobius_report(S)


def _fresh(data: dict) -> list[Call]:
    out = []
    for op in data["calls"]:
        kind = op["op"]
        if kind == "e_admissible":
            out.append(Call(kind, lambda op=op: _e_admissible(op), _flags_summary))
        elif kind == "e_admissible_over_hull":
            out.append(Call(kind, lambda op=op: _e_admissible_over_hull(op), _flags_summary))
        elif kind == "hull_membership":
            out.append(Call(kind, lambda op=op: _hull_membership(op), _hull_summary(op)))
        elif kind == "fractional_bounds":
            out.append(Call(kind, lambda op=op: _fractional_bounds(op),
                            lambda r, exc: {"error": error_code(exc)} if exc else r))
        elif kind == "linear_system":
            out.append(Call(kind, lambda op=op: _linear_system(op),
                            lambda r, exc: {"error": error_code(exc)} if exc else "ok"))
        else:
            out.append(Call(kind, lambda op=op: _mobius_vertices(op), _mobius_summary))
    return out


# --- families -----------------------------------------------------------


def _coin_family(n: int, lo: float, hi: float, cond=None):
    fam = credal.coin_family(lo, hi, n)
    if cond is None:
        return fam
    return credal.ParametricFamily(fam.branches, _event(fam.space, cond))


def _families(data: dict) -> list[Call]:
    out = []
    for op in data["calls"]:
        kind = op["op"]
        if kind in ("coin_envelope", "die_envelope", "square_envelope"):
            if kind == "coin_envelope":
                fam = _coin_family(op["n"], op["lo"], op["hi"], op["conditioning"])
            elif kind == "die_envelope":
                fam = credal.die_family()
            else:
                fam = credal.independent_square_family(op["lo"], op["hi"])
            e = _event(fam.space, op["event"])
            out.append(Call(kind, lambda f=fam, e=e: credal.envelope(f, e), _envelope_summary))
        elif kind == "family_admissible":
            fam = _coin_family(op["n"], op["lo"], op["hi"])
            U = credal.UtilityMatrix(tuple(f"x{i}" for i in range(len(op["utilities"]))),
                                     fam.space, np.array(op["utilities"]))
            out.append(Call(kind, lambda f=fam, U=U: credal.e_admissible(U, f), _flags_summary))
        elif kind == "contains":
            fam = _coin_family(op["n"], op["lo"], op["hi"])
            d = credal.make_distribution(fam.space, np.array(op["probs"]))
            out.append(Call(kind, lambda f=fam, d=d: f.contains(d, tol=FAMILY_TOL),
                            lambda r, exc: {"error": error_code(exc)} if exc else r))
        else:
            fam = _coin_family(op["n"], op["lo"], op["hi"], op["conditioning"])
            tickets = tuple(
                credal.Ticket(t["side"], t["price_cents"], t["payout_cents"],
                              _event(fam.space, t["event"]))
                for t in op["tickets"]
            )
            book = credal.BetBook(tickets)
            out.append(Call(kind, lambda f=fam, b=book: credal.booked_in_expectation(b, f),
                            lambda r, exc: {"error": error_code(exc)} if exc else
                            [r.booked, r.max_agent_expectation, r.min_agent_expectation]))
    return out


# --- cli ----------------------------------------------------------------


def coin_space_obj(n: int) -> dict:
    return {"variables": [{"name": f"toss{i + 1}", "values": ["H", "T"]} for i in range(n)]}


def write_cli_files(data: dict, workdir: Path) -> dict:
    """Problem files for the cli calls; returns the argument lists."""
    workdir.mkdir(parents=True, exist_ok=True)
    s = data["system"]
    names = gen.atoms(s["n"])
    fam = data["family"]
    dec = data["decide"]
    book = data["book"]
    labels3 = gen.coin_labels(fam["n"])
    labels2 = gen.coin_labels(book["n"])
    files = {
        "system.json": {"space": {"atoms": names},
                        "credal": {"constraints": s["rows"]}},
        "family.json": {"space": coin_space_obj(fam["n"]),
                        "credal": {"family": {"branches": [{
                            "generator": "iid-coin", "lo": fam["lo"], "hi": fam["hi"],
                            "params": {"n_tosses": fam["n"]}}]}}},
        "decide.json": {"space": {"atoms": gen.atoms(dec["n"])},
                        "utilities": {"actions": [f"x{i}" for i in range(len(dec["utilities"]))],
                                      "matrix": dec["utilities"]},
                        "credal": {"constraints": dec["rows"]}},
        "book.json": {"space": coin_space_obj(book["n"]),
                      "tickets": [{**t, "event": [labels2[j] for j in t["event"]]}
                                  for t in book["tickets"]]},
    }
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))
    f = {name: str(workdir / name) for name in files}
    st = ["--format", "structured"]
    return {
        "examples": ["examples", "run", "--all"],
        "envelope-system": st + ["envelope", f["system.json"], "--event",
                                 *[names[i] for i in data["system_event"]]],
        "envelope-family": st + ["envelope", f["family.json"], "--event",
                                 *[labels3[i] for i in data["family_event"]]],
        "condition-system": st + ["condition", f["system.json"], "--event",
                                  *[names[i] for i in data["system_condition"]]],
        "condition-family": st + ["condition", f["family.json"], "--event",
                                  *[labels3[i] for i in data["family_condition"]]],
        "decide": st + ["decide", f["decide.json"], "--criterion", "e-admissible"],
        "bet-table": st + ["bet", "table", f["book.json"]],
        "bet-eval": st + ["bet", "eval", f["book.json"], "--family", "coin",
                          "--range", repr(book["lo"]), repr(book["hi"])],
    }


def _cli_summary(kind: str, data: dict):
    def summarize(proc, exc):
        if exc is not None:
            return {"error": error_code(exc)}
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}", "stderr": proc.stderr[-200:]}
        if kind == "examples":
            return proc.stdout.strip().splitlines()[-1]
        out = json.loads(proc.stdout)
        if kind.startswith("envelope"):
            return [out["lower"], out["upper"]]
        if kind == "condition-system":
            lo, hi = [0.0] * data["system"]["n"], [0.0] * data["system"]["n"]
            for c in out["credal"]["constraints"]:
                j = int(np.argmax(c["coeffs"]))
                (lo if c["rel"] == ">=" else hi)[j] = c["rhs"]
            return lo + hi
        if kind == "condition-family":
            return out["credal"]["family"]["conditioning"]
        if kind == "decide":
            return out["admissible"]
        if kind == "bet-table":
            return out["antagonist_cents"]
        return [out["verdict"] == "BOOKED", out["max_agent_expectation"],
                out["min_agent_expectation"]]

    return summarize


def cli_calls(data: dict, args: dict, prefix: list[str]) -> list[Call]:
    """One subprocess per call; ``prefix`` starts the interpreter on the
    cli (plain, or under the tracing shim). The children inherit this
    process's environment, whose PYTHONPATH leads with the checkout's src."""
    out = []
    for kind in data["calls"]:
        argv = prefix + args[kind]
        out.append(Call(kind, lambda argv=argv: subprocess.run(
            argv, capture_output=True, text=True, timeout=120),
            _cli_summary(kind, data)))
    return out


BUILDERS = {"lp-sweep": _lp_sweep, "fresh-problems": _fresh, "families": _families}


# --- checks -------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def _flag_ok(actual, margin: float, threshold: float, slop: float) -> bool:
    """A flag that reads True iff margin >= threshold; undecided within slop."""
    if margin >= threshold + slop:
        return actual is True
    if margin < threshold - slop:
        return actual is False
    return actual in (True, False)


def _admissible_ok(flags, margins) -> bool:
    if isinstance(flags, dict):
        return False
    return all(_flag_ok(f, m, 0.0, LP_TOL) for f, m in zip(flags, margins))


def _mobius_ok(s, ref, bel_tol: float) -> bool:
    if "error" in s:
        return False
    size = len(ref["bel"])
    mob_tol = size * bel_tol
    return (
        _close(s["bel"], ref["bel"], bel_tol)
        and _close(s["mobius"], ref["mobius"], mob_tol)
        and _flag_ok(s["is_belief"], min(ref["mobius"]), -TAU_LP, mob_tol)
        # the library calls a row violated beyond TAU_LP
        and _flag_ok(s["equals_core"], ref["core_margin"], -TAU_LP, 10 * TAU_LP)
    )


def check(workload: str, op, summary, ref: dict, shared: dict) -> bool:
    """Whether one call's summary matches its reference; ``shared`` holds
    the references several calls use (lp-sweep's lower envelopes)."""
    kind = op["op"] if isinstance(op, dict) else op
    if workload == "cli":
        return _check_cli(kind, summary, ref)
    if isinstance(summary, dict) and "error" in summary and kind != "linear_system":
        return False
    if kind in ("envelope", "coin_envelope", "die_envelope", "square_envelope"):
        tol = LP_TOL if kind == "envelope" else FAMILY_TOL
        return _close(summary, [ref["lower"], ref["upper"]], tol)
    if kind == "conditionalize":
        return _close(summary, ref["lo"] + ref["hi"], LP_TOL)
    if kind == "lower_envelope_function":
        return _close(summary, shared["bel"][ref["system"]], LP_TOL)
    if kind in ("mobius_report", "mobius_vertices"):
        return _mobius_ok(summary, ref, LP_TOL)
    if kind in ("e_admissible", "e_admissible_over_hull", "family_admissible"):
        return _admissible_ok(summary, ref["margins"])
    if kind == "hull_membership":
        return summary["inside"] == ref["inside"] and summary["certificate_valid"]
    if kind == "fractional_bounds":
        return _close(summary, ref["value"], LP_TOL)
    if kind == "linear_system":
        return summary == ("ok" if ref["feasible"] else {"error": "INFEASIBLE"})
    if kind == "contains":
        return summary is ref["member"]
    if kind == "booked":
        return _booked_ok(summary, ref)
    raise ValueError(f"no check for {kind!r}")


def _booked_ok(summary, ref) -> bool:
    tol = FAMILY_TOL * ref["scale"]
    booked = bool(ref["max"] <= TAU_LP and ref["min"] < -TAU_STRICT)
    return summary[0] is booked and _close(summary[1:], [ref["max"], ref["min"]], tol)


def _check_cli(kind: str, s, ref) -> bool:
    if isinstance(s, dict):
        return False
    if kind == "examples":
        done, total = s.split()[0].split("/")
        return s.endswith("checks passed") and done == total
    if kind == "envelope-system":
        return _close(s, [ref["lower"], ref["upper"]], LP_TOL)
    if kind == "envelope-family":
        return _close(s, [ref["lower"], ref["upper"]], FAMILY_TOL)
    if kind == "condition-system":
        return _close(s, ref["lo"] + ref["hi"], LP_TOL)
    if kind == "condition-family":
        return s == ref["conditioning"]
    if kind == "decide":
        flags = [f"x{i}" in s for i in range(len(ref["margins"]))]
        return _admissible_ok(flags, ref["margins"])
    if kind == "bet-table":
        return s == ref["antagonist_cents"]
    return _booked_ok(s, ref)
