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
from dataclasses import dataclass

import numpy as np

from .betting import BetBook, Ticket
from .decisions import UtilityMatrix
from .distributions import Distribution, make_distribution
from .errors import CredalError, ParseError
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
    if "atoms" in obj:
        atoms = obj["atoms"]
        _expect(
            isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
            "space.atoms must be a list of strings",
        )
        try:
            return OutcomeSpace(tuple(atoms))
        except ValueError as ex:
            raise ParseError(str(ex)) from ex
    if "variables" in obj:
        out = []
        for v in obj["variables"]:
            _expect(
                isinstance(v, dict) and "name" in v and "values" in v,
                "each variable needs name and values",
            )
            try:
                out.append(Variable(v["name"], tuple(v["values"])))
            except ValueError as ex:
                raise ParseError(str(ex)) from ex
        try:
            return product_space(*out)
        except ValueError as ex:
            raise ParseError(str(ex)) from ex
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
    for name, vec in obj.get("distributions", {}).items():
        _expect(isinstance(vec, list), f"distribution {name!r} must be a list")
        dists[name] = make_distribution(space, np.asarray(vec, dtype=float))
    intervals = {}
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
        spec = obj["intervals"]
        if isinstance(spec, str):
            _expect(spec in problem.intervals, f"unknown interval {spec!r}")
            iv = problem.intervals[spec]
        else:
            iv = IntervalDistribution(
                space,
                np.asarray(spec["lo"], dtype=float),
                np.asarray(spec["hi"], dtype=float),
            )
        return interval_to_linear_system(iv)
    if "family" in obj:
        branches = []
        for b in obj["family"].get("branches", []):
            _expect(
                isinstance(b, dict) and {"generator", "lo", "hi"} <= set(b),
                "each branch needs generator, lo, hi",
            )
            params = tuple(sorted(b.get("params", {}).items()))
            branches.append(
                FamilyBranch(b["generator"], float(b["lo"]), float(b["hi"]), params)
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
        try:
            return ParametricFamily(fam.branches, Event.of(space, *atoms))
        except (KeyError, ValueError) as ex:
            raise ParseError(f"family conditioning: {ex.args[0]}") from ex
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
    try:
        U = UtilityMatrix(
            tuple(u["actions"]), problem.space, np.asarray(u["matrix"], dtype=float)
        )
    except ValueError as ex:
        raise ParseError(str(ex)) from ex
    credal = credal_from_obj(obj["credal"], problem) if "credal" in obj else None
    members = []
    for name in obj.get("members", []):
        _expect(name in problem.distributions, f"unknown member {name!r}")
        members.append(problem.distributions[name])
    return DecisionProblem(U, credal, members, problem)


def load_pooling(path) -> PoolingProblem:
    obj = load_json(path)
    problem = problem_from_obj(obj)
    _expect("experts" in obj, "pooling file needs experts")
    experts = []
    for name, vec in obj["experts"].items():
        experts.append((name, make_distribution(problem.space, np.asarray(vec, dtype=float))))
    _expect("weights" in obj, "pooling file needs weights")
    try:
        return PoolingProblem(tuple(experts), np.asarray(obj["weights"], dtype=float))
    except ValueError as ex:
        raise ParseError(str(ex)) from ex


def load_book(path) -> tuple[BetBook, ProblemFile]:
    obj = load_json(path)
    problem = problem_from_obj(obj)
    _expect("tickets" in obj, "book file needs tickets")
    tickets = []
    for t in obj["tickets"]:
        _expect(
            isinstance(t, dict)
            and {"side", "price_cents", "payout_cents", "event"} <= set(t),
            "each ticket needs side, price_cents, payout_cents, event",
        )
        try:
            tickets.append(
                Ticket(
                    t["side"],
                    int(t["price_cents"]),
                    int(t["payout_cents"]),
                    Event.of(problem.space, *t["event"]),
                )
            )
        except (ValueError, KeyError) as ex:
            raise ParseError(str(ex)) from ex
    try:
        return BetBook(tuple(tickets)), problem
    except (ValueError, CredalError) as ex:
        raise ParseError(str(ex)) from ex


def event_from_atoms(space: OutcomeSpace, atoms) -> Event:
    try:
        return Event.of(space, *atoms)
    except KeyError as ex:
        raise ParseError(str(ex)) from ex


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
