"""JSON file formats.

Problem files:
    {"space": {"atoms": [...]} | {"variables": [{"name":..., "values": [...]}, ...]},
     "distributions": {name: [reals]},
     "intervals": {name: {"lo": [...], "hi": [...]}}}

Credal set forms (inside problem and decision files):
    {"vertices": [name-or-vector, ...]}
    {"constraints": [{"coeffs": [...], "rel": "<="|"="|">=", "rhs": r}, ...]}
    {"intervals": name-or-{"lo": [...], "hi": [...]}}
    {"family": {"branches": [{"generator": g, "lo": a, "hi": b, "params": {...}}, ...],
                "conditioning": [atoms] | null}}

Decision files add {"utilities": {"actions": [...], "matrix": [[...]]},
"credal": <form>, "members": [name, ...]}; pooling files use
{"experts": {name: [reals]}, "weights": [...]}; bet books use
{"tickets": [{"side": "buy"|"sell", "price_cents": int,
"payout_cents": int, "event": [atoms]}]}. Every file carries its space.
Values are parsed as binary64; bit-exactness is not required.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .betting import BetBook, Ticket
from .decisions import UtilityMatrix
from .distributions import Distribution, make_distribution
from .errors import ParseError
from .inference import MassFunction
from .pooling import PoolingProblem
from .sets import (
    CredalSet,
    FamilyBranch,
    IntervalDistribution,
    LinearSystem,
    ParametricFamily,
    VertexSet,
    interval_to_linear_system,
)
from .linprog import constraint
from .spaces import Event, OutcomeSpace, Variable, product_space


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


@contextmanager
def _parsing(what: str):
    """The parse boundary: file data of the wrong type, shape, value or key
    makes the library raise one of these, which is reported as a
    ParseError naming what was being read."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise ParseError(f"{what}: {ex.args[0] if ex.args else type(ex).__name__}") from ex


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ParseError(f"{path} is not valid JSON: {ex}") from ex
    _expect(isinstance(obj, dict), f"{path} must hold a JSON object")
    return obj


def space_from_obj(obj) -> OutcomeSpace:
    _expect(isinstance(obj, dict), "space must be an object")
    with _parsing("space"):
        if "atoms" in obj:
            atoms = obj["atoms"]
            _expect(
                isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
                "space.atoms must be a list of strings",
            )
            return OutcomeSpace(tuple(atoms))
        if "variables" in obj:
            out = []
            for v in obj["variables"]:
                _expect(
                    isinstance(v, dict) and "name" in v and "values" in v,
                    "each variable needs name and values",
                )
                out.append(Variable(v["name"], tuple(v["values"])))
            return product_space(*out)
    raise ParseError("space needs either atoms or variables")


def space_to_obj(space: OutcomeSpace) -> dict:
    if space.is_factorized:
        return {
            "variables": [
                {"name": v.name, "values": list(v.values)} for v in space.variables
            ]
        }
    return {"atoms": list(space.atoms)}


@dataclass(frozen=True)
class ProblemFile:
    space: OutcomeSpace
    distributions: dict[str, Distribution]
    intervals: dict[str, IntervalDistribution]
    raw: dict


def load_problem(path) -> ProblemFile:
    return problem_from_obj(load_json(path))


def problem_from_obj(obj: dict) -> ProblemFile:
    _expect("space" in obj, "file needs a space")
    space = space_from_obj(obj["space"])
    dists = {}
    with _parsing("distributions"):
        for name, vec in obj.get("distributions", {}).items():
            _expect(isinstance(vec, list), f"distribution {name!r} must be a list")
            dists[name] = make_distribution(space, np.asarray(vec, dtype=float))
    intervals = {}
    with _parsing("intervals"):
        for name, iv in obj.get("intervals", {}).items():
            _expect(
                isinstance(iv, dict) and "lo" in iv and "hi" in iv,
                f"interval {name!r} needs lo and hi",
            )
            intervals[name] = IntervalDistribution(
                space, np.asarray(iv["lo"], dtype=float), np.asarray(iv["hi"], dtype=float)
            )
    return ProblemFile(space, dists, intervals, obj)


def credal_from_obj(obj, problem: ProblemFile) -> CredalSet:
    _expect(isinstance(obj, dict), "credal set form must be an object")
    with _parsing("credal set form"):
        return _credal_set(obj, problem)


def _credal_set(obj: dict, problem: ProblemFile) -> CredalSet:
    space = problem.space
    if "vertices" in obj:
        members = []
        for item in obj["vertices"]:
            if isinstance(item, str):
                _expect(
                    item in problem.distributions, f"unknown distribution {item!r}"
                )
                members.append(problem.distributions[item])
            else:
                members.append(make_distribution(space, np.asarray(item, dtype=float)))
        return VertexSet(tuple(members))
    if "constraints" in obj:
        rows = []
        for c in obj["constraints"]:
            _expect(
                isinstance(c, dict) and {"coeffs", "rel", "rhs"} <= set(c),
                "each constraint needs coeffs, rel, rhs",
            )
            rows.append(constraint(np.asarray(c["coeffs"], dtype=float), c["rel"], float(c["rhs"])))
        return LinearSystem(space, tuple(rows))
    if "intervals" in obj:
        bounds = obj["intervals"]
        if isinstance(bounds, str):
            _expect(bounds in problem.intervals, f"unknown interval {bounds!r}")
            iv = problem.intervals[bounds]
        else:
            _expect(isinstance(bounds, dict) and {"lo", "hi"} <= set(bounds), "inline intervals need lo and hi")
            iv = IntervalDistribution(
                space,
                np.asarray(bounds["lo"], dtype=float),
                np.asarray(bounds["hi"], dtype=float),
            )
        return interval_to_linear_system(iv)
    if "family" in obj:
        _expect(isinstance(obj["family"], dict), "family must be an object")
        branches = []
        for b in obj["family"].get("branches", []):
            _expect(
                isinstance(b, dict) and {"generator", "lo", "hi"} <= set(b),
                "each branch needs generator, lo, hi",
            )
            params = b.get("params", {})
            _expect(isinstance(params, dict), "branch params must be an object")
            branches.append(
                FamilyBranch(b["generator"], float(b["lo"]), float(b["hi"]), tuple(sorted(params.items())))
            )
        fam = ParametricFamily(tuple(branches))
        _expect(fam.space == space, "family space does not match the file's space")
        atoms = obj["family"].get("conditioning")
        if atoms is None:
            return fam
        _expect(
            isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
            "family conditioning must be a list of atoms",
        )
        with _parsing("family conditioning"):
            return ParametricFamily(fam.branches, Event.of(space, *atoms))
    raise ParseError(
        "credal set form needs one of: vertices, constraints, intervals, family"
    )


def credal_to_obj(S: CredalSet) -> dict:
    if isinstance(S, VertexSet):
        return {"vertices": [list(v.probs) for v in S.vertices]}
    if isinstance(S, LinearSystem):
        return {
            "constraints": [
                {"coeffs": list(c.coeffs), "rel": c.relation, "rhs": c.rhs}
                for c in S.constraints
            ]
        }
    return {
        "family": {
            "branches": [
                {
                    "generator": b.generator,
                    "lo": b.lo,
                    "hi": b.hi,
                    "params": dict(b.params),
                }
                for b in S.branches
            ],
            "conditioning": list(S.conditioning.atoms) if S.conditioning else None,
        }
    }


def load_mass_function(path) -> MassFunction:
    obj = load_json(path)
    _expect("space" in obj and "masses" in obj, "mass file needs space and masses")
    space = space_from_obj(obj["space"])
    assignment = {}
    with _parsing("masses"):
        for entry in obj["masses"]:
            _expect(
                isinstance(entry, dict) and "set" in entry and "m" in entry,
                "each mass entry needs set and m",
            )
            assignment[tuple(entry["set"])] = float(entry["m"])
        return MassFunction.from_subsets(space, assignment)


@dataclass(frozen=True)
class DecisionProblem:
    utilities: UtilityMatrix
    credal: CredalSet | None
    members: list[Distribution]
    problem: ProblemFile


def load_decision(path) -> DecisionProblem:
    obj = load_json(path)
    problem = problem_from_obj(obj)
    _expect("utilities" in obj, "decision file needs utilities")
    u = obj["utilities"]
    _expect(
        isinstance(u, dict) and "actions" in u and "matrix" in u,
        "utilities needs actions and matrix",
    )
    _expect(
        isinstance(u["actions"], list) and all(isinstance(a, str) for a in u["actions"]),
        "utilities.actions must be a list of strings",
    )
    with _parsing("utilities"):
        U = UtilityMatrix(
            tuple(u["actions"]), problem.space, np.asarray(u["matrix"], dtype=float)
        )
    credal = credal_from_obj(obj["credal"], problem) if "credal" in obj else None
    names = obj.get("members", [])
    _expect(
        isinstance(names, list) and all(isinstance(name, str) for name in names),
        "members must be a list of distribution names",
    )
    members = []
    for name in names:
        _expect(name in problem.distributions, f"unknown member {name!r}")
        members.append(problem.distributions[name])
    return DecisionProblem(U, credal, members, problem)


def load_pooling(path) -> PoolingProblem:
    obj = load_json(path)
    problem = problem_from_obj(obj)
    _expect("experts" in obj and "weights" in obj, "pooling file needs experts and weights")
    with _parsing("pooling"):
        experts = [
            (name, make_distribution(problem.space, np.asarray(vec, dtype=float)))
            for name, vec in obj["experts"].items()
        ]
        return PoolingProblem(tuple(experts), np.asarray(obj["weights"], dtype=float))


def load_book(path) -> tuple[BetBook, ProblemFile]:
    obj = load_json(path)
    problem = problem_from_obj(obj)
    _expect("tickets" in obj and isinstance(obj["tickets"], list), "book file needs a list of tickets")
    # cents at most this in size, so no atom's sum over the book leaves int64
    most = np.iinfo(np.int64).max // (2 * max(1, len(obj["tickets"])))
    tickets = []
    with _parsing("book"):
        for t in obj["tickets"]:
            _expect(
                isinstance(t, dict)
                and {"side", "price_cents", "payout_cents", "event"} <= set(t),
                "each ticket needs side, price_cents, payout_cents, event",
            )
            cents = t["price_cents"], t["payout_cents"]
            _expect(
                all(type(c) is int and abs(c) <= most for c in cents),
                f"price_cents and payout_cents must be integers of size at most {most}",
            )
            event = Event.of(problem.space, *t["event"])
            tickets.append(Ticket(t["side"], *cents, event))
        return BetBook(tuple(tickets)), problem


def event_from_atoms(space: OutcomeSpace, atoms) -> Event:
    with _parsing("event"):
        return Event.of(space, *atoms)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
