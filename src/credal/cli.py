"""Command-line front end.

Subcommands: examples (list/run the bundled reference scenarios),
envelope, condition, decide, pool, bet. Files are the JSON formats of
:mod:`credal.fileio`. Exit codes: 0 success / all checks pass, 1 domain
error or failed expectation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import cases, fileio
from .betting import (
    _coin_tosses, booked_in_expectation, expectation_polynomial, expectation_under, payoff_table,
)
from .decisions import e_admissible, group_minimax, pareto_optimal
from .errors import CredalError, ParseError, UnknownExampleError
from .inference import conditionalize, envelope
from .pooling import PoolingProblem, linear_pool, marginalization_commutes, nixon_report
from .sets import LinearSystem, VertexSet, coin_family


def money(v: float) -> str:
    sign = "-" if v < -1e-12 else ""
    return f"{sign}${abs(v):,.2f}"


def _print_table(rows: list[tuple], header: tuple | None = None):
    data = [tuple(str(c) for c in r) for r in rows]
    if header:
        data.insert(0, tuple(str(c) for c in header))
    widths = [max(len(r[i]) for r in data) for i in range(len(data[0]))]
    for ri, r in enumerate(data):
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if header and ri == 0:
            print("  ".join("-" * w for w in widths))


def cmd_examples(args) -> int:
    if args.action == "list":
        for name in cases.REGISTRY:
            case = cases.REGISTRY[name]
            print(f"{name:20s} {case.description}")
        return 0
    names = list(cases.REGISTRY) if args.all else [args.name]
    if not args.all and args.name is None:
        raise ParseError("examples run needs a name or --all")
    failures = total = 0
    for name in names:
        checks = cases.run_case(name)
        total += len(checks)
        if args.tolerance is not None:
            checks = [
                cases.Check(c.label, c.actual, c.expected, args.tolerance, c.provenance)
                if c.tol is not None
                else c
                for c in checks
            ]
        print(f"== {name}")
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            failures += not c.passed
            tol = "exact" if c.tol is None else f"tol={c.tol:g}"
            print(
                f"  {status} [{c.provenance}] {c.label}: "
                f"actual={c.actual!r} expected={c.expected!r} ({tol})"
            )
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def _load_credal(path):
    problem = fileio.load_problem(path)
    obj = problem.raw.get("credal")
    if obj is None:
        raise ParseError(f"{path} has no credal set form")
    return problem, fileio.credal_from_obj(obj, problem)


def cmd_envelope(args) -> int:
    problem, S = _load_credal(args.file)
    event = fileio.event_from_atoms(problem.space, args.event)
    env = envelope(S, event)
    sampled_ok = None
    if args.sample:
        rng = np.random.default_rng(args.seed)
        members = S.sample(args.sample, rng)
        sampled_ok = all(
            env.lower - 1e-9 <= m.p(event) <= env.upper + 1e-9 for m in members
        )
    if args.format == "structured":
        out = {
            "event": list(event.atoms),
            "lower": env.lower,
            "upper": env.upper,
            "lower_witness": list(env.lower_witness.probs) if env.lower_witness else None,
            "upper_witness": list(env.upper_witness.probs) if env.upper_witness else None,
        }
        if sampled_ok is not None:
            out["sampled_members_within_bounds"] = sampled_ok
        print(fileio.dump_json(out))
    else:
        print(f"event: {{{', '.join(event.atoms)}}}")
        print(f"lower: {env.lower:.6g}")
        print(f"upper: {env.upper:.6g}")
        if sampled_ok is not None:
            print(f"sampled members within bounds: {sampled_ok}")
    if sampled_ok is False:
        return 1
    return 0


def cmd_condition(args) -> int:
    problem, S = _load_credal(args.file)
    event = fileio.event_from_atoms(problem.space, args.event)
    out = conditionalize(S, event)
    structured = {
        "space": fileio.space_to_obj(problem.space),
        "credal": fileio.credal_to_obj(out),
    }
    if isinstance(out, VertexSet):
        structured["dropped_vertices"] = out.dropped
    if args.format == "structured":
        print(fileio.dump_json(structured))
        return 0
    if isinstance(out, VertexSet):
        print(f"conditioned vertices ({out.dropped} dropped for zero evidence):")
        for v in out.vertices:
            print("  " + "  ".join(f"{x:.6g}" for x in v.probs))
    elif isinstance(out, LinearSystem):
        print("conditional bounds (box form):")
        # conditionalize writes the box as p_j >= lo_j, p_j <= hi_j, atom by atom
        bounds = np.reshape([c.rhs for c in out.constraints], (-1, 2))
        _print_table(
            [(a, f"{lo:.6g}", f"{hi:.6g}") for a, (lo, hi) in zip(out.space.atoms, bounds)],
            header=("atom", "lower", "upper"),
        )
    else:
        print("family conditioned on {" + ", ".join(event.atoms) + "}")
    return 0


def cmd_decide(args) -> int:
    dp = fileio.load_decision(args.file)
    U = dp.utilities
    if args.criterion == "e-admissible":
        if dp.credal is None:
            raise ParseError("e-admissible needs a credal set in the file")
        report = e_admissible(U, dp.credal)
        if args.format == "structured":
            print(
                fileio.dump_json(
                    {
                        "admissible": list(report.admissible_actions),
                        "witnesses": {
                            e.action: list(e.witness.probs)
                            for e in report.entries
                            if e.witness is not None
                        },
                    }
                )
            )
        else:
            print("admissible:", ", ".join(report.admissible_actions) or "(none)")
            for e in report.entries:
                if e.witness is not None:
                    vec = "  ".join(f"{x:.6g}" for x in e.witness.probs)
                    print(f"  {e.action}: witness {vec}")
        return 0
    if not dp.members:
        raise ParseError(f"{args.criterion} needs members in the file")
    if args.criterion == "group-minimax":
        gm = group_minimax(U, dp.members)
        if args.format == "structured":
            print(
                fileio.dump_json(
                    {
                        "winner": gm.winner,
                        "tied": list(gm.tied),
                        "max_losses": {a: gm.max_loss(a) for a in gm.actions},
                        "losses": [list(r) for r in gm.losses],
                    }
                )
            )
        else:
            rows = [
                (a, *[f"{v:.6g}" for v in gm.losses[i]], f"{gm.max_losses[i]:.6g}")
                for i, a in enumerate(gm.actions)
            ]
            header = ("action", *[f"member{i+1}" for i in range(gm.losses.shape[1])], "max loss")
            _print_table(rows, header=header)
            print(f"group minimax action: {gm.winner}")
        return 0
    flags = pareto_optimal(U, dp.members)
    if args.format == "structured":
        print(fileio.dump_json({"pareto_optimal": flags}))
    else:
        for a, f in flags.items():
            print(f"{a}: {'Pareto-optimal' if f else 'dominated'}")
    return 0


def cmd_pool(args) -> int:
    if args.nixon:
        rep = nixon_report(args.weights)
        if args.format == "structured":
            out = {
                "weights": list(rep["weights"]),
                "joints": {k: list(d.probs) for k, d in rep["joints"].items()},
                "marginals": {k: list(d.probs) for k, d in rep["marginals"].items()},
                "pooled_joint": list(rep["pooled_joint"].probs),
                "pooled_marginal": list(rep["pooled_marginal"].probs),
                "marginal_only_pool": list(rep["marginal_only_pool"].probs),
                "marginal_total_variation": rep["marginal_distance"],
                "note": rep["note"],
            }
            print(fileio.dump_json(out))
            return 0
        space = rep["pooled_joint"].space
        print("expert joints:")
        for name, d in rep["joints"].items():
            _print_table(
                [(a, f"{p:.4g}") for a, p in zip(space.atoms, d.probs)],
                header=(name, "prob"),
            )
        print(
            "residence marginals:",
            {k: [float(x) for x in d.probs] for k, d in rep["marginals"].items()},
        )
        print("weights:", [float(w) for w in rep["weights"]])
        print("pooled joint:     ", [f"{x:.4g}" for x in rep["pooled_joint"].probs])
        print("pooled marginal:  ", [f"{x:.4g}" for x in rep["pooled_marginal"].probs])
        print("marginal-only pool:", [f"{x:.4g}" for x in rep["marginal_only_pool"].probs])
        print(f"total variation between the two marginals: {rep['marginal_distance']:.4g}")
        print("note:", rep["note"])
        return 0
    prob = fileio.load_pooling(args.file)
    if args.weights is not None:
        prob = PoolingProblem(prob.experts, np.asarray(args.weights, dtype=float))
    pooled = linear_pool(prob)
    result = {"weights": list(prob.weights), "pooled": list(pooled.probs)}
    if args.marginalize:
        comm = marginalization_commutes(prob, args.marginalize)
        result["marginal"] = list(comm.pool_then_marginalize.probs)
        result["commutation_gap"] = comm.max_deviation
    if args.format == "structured":
        result["space"] = fileio.space_to_obj(prob.space)
        print(fileio.dump_json(result))
    else:
        print("pooled:", "  ".join(f"{x:.6g}" for x in pooled.probs))
        if args.marginalize:
            print("marginal:", "  ".join(f"{x:.6g}" for x in result["marginal"]))
            print(f"pool/marginalize gap: {result['commutation_gap']:.3g}")
    return 0


def cmd_bet(args) -> int:
    book, problem = fileio.load_book(args.file)
    table = payoff_table(book)
    if args.action == "table":
        if args.format == "structured":
            print(
                fileio.dump_json(
                    {
                        "atoms": list(book.space.atoms),
                        "antagonist_cents": [int(v) for v in table.antagonist_cents],
                        "antagonist": list(table.antagonist),
                        "agent": list(table.agent),
                    }
                )
            )
        else:
            rows = [
                (atom, money(a), money(-a))
                for atom, a in zip(book.space.atoms, table.antagonist)
            ]
            _print_table(rows, header=("outcome", "antagonist", "agent"))
        return 0

    # eval
    out: dict = {}
    if args.under is not None:
        if args.under not in problem.distributions:
            raise ParseError(f"unknown distribution {args.under!r}")
        d = problem.distributions[args.under]
        out["antagonist_expectation"] = expectation_under(book, d)
    if args.family == "coin":
        lo, hi = args.range
        poly = expectation_polynomial(book)
        verdict = booked_in_expectation(book, coin_family(lo, hi, _coin_tosses(book.space)))
        out.update(
            {
                "polynomial_ascending": list(poly.coefficients),
                "roots": list(poly.real_roots()),
                "range": [lo, hi],
                "verdict": verdict.verdict,
                "max_agent_expectation": verdict.max_agent_expectation,
                "min_agent_expectation": verdict.min_agent_expectation,
            }
        )
    if not out:
        raise ParseError("bet eval needs --family coin --range LO HI and/or --under NAME")
    if args.format == "structured":
        print(fileio.dump_json(out))
    else:
        if "antagonist_expectation" in out:
            print(f"antagonist expectation: {money(out['antagonist_expectation'])}")
        if "verdict" in out:
            terms = []
            for deg, c in enumerate(out["polynomial_ascending"]):
                power = "" if deg == 0 else (" p" if deg == 1 else f" p^{deg}")
                sep = "" if not terms else (" - " if c < 0 else " + ")
                terms.append(f"{sep}{money(c) if not terms else money(abs(c))}{power}")
            print("antagonist expectation polynomial:", "".join(terms))
            print("roots:", ", ".join(f"{r:.6g}" for r in out["roots"]))
            print(
                f"verdict over p in [{out['range'][0]:g}, {out['range'][1]:g}]: {out['verdict']}"
            )
            print(
                "agent expectation range: "
                f"[{out['min_agent_expectation']:.6g}, {out['max_agent_expectation']:.6g}]"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal",
        description="credal sets: envelopes, conditioning, decisions, pooling, bets",
    )
    parser.add_argument(
        "--format", choices=("table", "structured"), default="table",
        help="human tables or machine-readable JSON",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for sampling demos")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="override the comparison tolerance of example checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("examples", help="list or replay the bundled scenarios")
    ex_sub = ex.add_subparsers(dest="action", required=True)
    ex_sub.add_parser("list")
    run = ex_sub.add_parser("run")
    run.add_argument("name", nargs="?", help="case name")
    run.add_argument("--all", action="store_true", help="run every case")

    env = sub.add_parser("envelope", help="lower/upper probability of an event")
    env.add_argument("file")
    env.add_argument("--event", nargs="+", required=True, metavar="ATOM")
    env.add_argument("--sample", type=int, default=0, help="also check N sampled members")

    cond = sub.add_parser("condition", help="conditionalize a credal set")
    cond.add_argument("file")
    cond.add_argument("--event", nargs="+", required=True, metavar="ATOM")

    dec = sub.add_parser("decide", help="decision criteria over a problem file")
    dec.add_argument("file")
    dec.add_argument(
        "--criterion",
        choices=("e-admissible", "group-minimax", "pareto"),
        default="e-admissible",
    )

    pool = sub.add_parser("pool", help="linear opinion pooling")
    pool.add_argument("file", nargs="?")
    pool.add_argument("--weights", nargs="+", type=float)
    pool.add_argument("--marginalize", nargs="+", metavar="VAR")
    pool.add_argument("--nixon", action="store_true", help="run the canned scenario")

    bet = sub.add_parser("bet", help="payoff tables and book verdicts")
    bet_sub = bet.add_subparsers(dest="action", required=True)
    bt = bet_sub.add_parser("table")
    bt.add_argument("file")
    be = bet_sub.add_parser("eval")
    be.add_argument("file")
    be.add_argument("--family", choices=("coin",))
    be.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    be.add_argument("--under", metavar="NAME", help="expectation under a named distribution")
    return parser


HANDLERS = {
    "examples": cmd_examples,
    "envelope": cmd_envelope,
    "condition": cmd_condition,
    "decide": cmd_decide,
    "pool": cmd_pool,
    "bet": cmd_bet,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pool" and not args.nixon and args.file is None:
        parser.error("pool needs a file or --nixon")
    if args.command == "bet" and args.action == "eval" and args.family and not args.range:
        parser.error("--family coin needs --range LO HI")
    try:
        return HANDLERS[args.command](args)
    except (ParseError, UnknownExampleError) as ex:
        print(f"error [{ex.code}]: {ex}", file=sys.stderr)
        return 2
    except CredalError as ex:
        print(f"error [{ex.code}]: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
