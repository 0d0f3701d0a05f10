import json

import numpy as np
import pytest

from credal import cli, linprog
from credal.cli import main
from credal.fileio import credal_from_obj, event_from_atoms, load_problem


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bounds_file(tmp_path):
    return write(
        tmp_path,
        "bounds.json",
        {
            "space": {"atoms": ["w1", "w2", "w3", "w4"]},
            "credal": {
                "intervals": {"lo": [0.15] * 4, "hi": [0.40] * 4}
            },
        },
    )


@pytest.fixture
def decision_file(tmp_path):
    return write(
        tmp_path,
        "decision.json",
        {
            "space": {"atoms": ["c1", "c2", "c3"]},
            "distributions": {
                "p1": [0.125, 0.75, 0.125],
                "p2": [0.25, 0.5, 0.25],
                "p3": [0.375, 0.375, 0.25],
            },
            "utilities": {
                "actions": ["a1", "a2", "a3"],
                "matrix": [[3, 3, 4], [2.5, 3.5, 5], [1, 5, 4]],
            },
            "credal": {"vertices": ["p1", "p2", "p3"]},
            "members": ["p1", "p2", "p3"],
        },
    )


@pytest.fixture
def book_file(tmp_path):
    return write(
        tmp_path,
        "book.json",
        {
            "space": {
                "variables": [
                    {"name": "toss1", "values": ["H", "T"]},
                    {"name": "toss2", "values": ["H", "T"]},
                ]
            },
            "distributions": {"q": [0.13, 0.17, 0.17, 0.53]},
            "tickets": [
                {"side": "buy", "price_cents": 1300, "payout_cents": 10000, "event": ["HH"]},
                {"side": "sell", "price_cents": 2550, "payout_cents": 15000, "event": ["HT"]},
            ],
        },
    )


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    assert "die-nonconvex" in out and "nixon-pool" in out


def test_examples_run_single(capsys):
    assert main(["examples", "run", "coin-dutch-book"]) == 0
    out = capsys.readouterr().out
    assert "BOOKED" in out and "FAIL" not in out


def test_examples_run_all_exits_zero(capsys):
    assert main(["examples", "run", "--all"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_examples_run_all_runs_each_case_once(monkeypatch, capsys):
    from credal import cases

    calls = []
    run_case = cases.run_case
    monkeypatch.setattr(cases, "run_case", lambda name: calls.append(name) or run_case(name))
    assert main(["examples", "run", "--all"]) == 0
    assert sorted(calls) == sorted(cases.REGISTRY)
    total = sum(len(run_case(name)) for name in cases.REGISTRY)
    assert capsys.readouterr().out.endswith(f"{total}/{total} checks passed\n")


def test_examples_unknown_name_is_usage_error(capsys):
    assert main(["examples", "run", "nope"]) == 2


def test_examples_tolerance_override(capsys):
    assert main(["--tolerance", "1e-2", "examples", "run", "belief-gap"]) == 0
    assert "tol=0.01" in capsys.readouterr().out


def test_envelope_command(bounds_file, capsys):
    assert main(["envelope", bounds_file, "--event", "w1"]) == 0
    out = capsys.readouterr().out
    assert "lower: 0.15" in out and "upper: 0.4" in out


def test_envelope_structured_and_sampling(bounds_file, capsys):
    code = main(
        ["--format", "structured", "--seed", "3", "envelope", bounds_file,
         "--event", "w1", "--sample", "25"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == pytest.approx(0.15, abs=1e-9)
    assert payload["sampled_members_within_bounds"] is True


def test_condition_round_trips_into_envelope(bounds_file, tmp_path, capsys):
    assert main(["--format", "structured", "condition", bounds_file, "--event", "w1", "w2"]) == 0
    conditioned = capsys.readouterr().out
    path = tmp_path / "conditioned.json"
    path.write_text(conditioned)
    assert main(["envelope", str(path), "--event", "w1"]) == 0
    out = capsys.readouterr().out
    assert "lower: 0.272727" in out


@pytest.fixture
def polytope_file(tmp_path):
    return write(
        tmp_path,
        "polytope.json",
        {
            "space": {"atoms": ["w1", "w2", "w3", "w4", "w5"]},
            "credal": {
                "constraints": [
                    {"coeffs": [1, -2, 0, 0.5, 0], "rel": "<=", "rhs": 0.1},
                    {"coeffs": [0, 1, 1, 0, -1], "rel": ">=", "rhs": 0.2},
                    {"coeffs": [0.3, 0, 0, 1, 1], "rel": "<=", "rhs": 0.6},
                    {"coeffs": [0, 0, 1, 0, 0], "rel": "<=", "rhs": 0.45},
                ]
            },
        },
    )


@pytest.mark.parametrize("fixture, event", [("bounds_file", ["w1", "w2"]), ("polytope_file", ["w1", "w2", "w3"])])
def test_condition_table_prints_the_box_without_solving_it(fixture, event, request, monkeypatch, capsys):
    """Table-format ``condition`` on a LinearSystem prints, per atom, the
    bounds that ``ranges`` gives over the conditioned box, reading them off
    the box's rows: no pivot after ``conditionalize`` returns, and 0, not
    -0, off the event."""
    path = request.getfixturevalue(fixture)
    problem = load_problem(path)
    box = cli.conditionalize(credal_from_obj(problem.raw["credal"], problem), event_from_atoms(problem.space, event))
    lows, highs = box.ranges(np.eye(problem.space.size))
    returned, after = [], []
    conditionalize = cli.conditionalize
    monkeypatch.setattr(cli, "conditionalize", lambda *args: returned.append(conditionalize(*args)) or returned[-1])

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            if returned:
                after.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((linprog, "_run_simplex"), (linprog, "_pivot_stack"), (linprog._Tableau, "pivot")):
        spy(owner, name)
    assert main(["condition", path, "--event", *event]) == 0
    assert returned and after == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "conditional bounds (box form):" and lines[1].split() == ["atom", "lower", "upper"]
    table = [line.split() for line in lines[3:]]
    assert [row[0] for row in table] == list(problem.space.atoms)
    printed = np.array([[float(lo), float(hi)] for _, lo, hi in table])
    np.testing.assert_allclose(printed, np.column_stack([lows, highs]), rtol=1e-5, atol=1e-9)
    assert not any(cell.startswith("-") for row in table for cell in row[1:])
    off = [a not in event for a in problem.space.atoms]
    assert all(row[1:] == ["0", "0"] for row, o in zip(table, off) if o)


def test_condition_family_round_trips_into_envelope(tmp_path, capsys):
    """The conditioned family read back from the structured output keeps
    its conditioning: P(HH | {HH, HT}) = p over p in [0.1, 0.5]."""
    family = {
        "space": {"variables": [{"name": "toss1", "values": ["H", "T"]},
                                {"name": "toss2", "values": ["H", "T"]}]},
        "credal": {"family": {"branches": [
            {"generator": "iid-coin", "lo": 0.1, "hi": 0.5, "params": {"n_tosses": 2}}]}},
    }
    path = write(tmp_path, "family.json", family)
    assert main(["--format", "structured", "condition", path, "--event", "HH", "HT"]) == 0
    conditioned = write(tmp_path, "conditioned.json", json.loads(capsys.readouterr().out))
    assert main(["--format", "structured", "envelope", conditioned, "--event", "HH"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == pytest.approx(0.1, abs=1e-12)
    assert payload["upper"] == pytest.approx(0.5, abs=1e-12)


def test_decide_group_minimax(decision_file, capsys):
    assert main(["decide", decision_file, "--criterion", "group-minimax"]) == 0
    assert "group minimax action: a3" in capsys.readouterr().out


def test_decide_e_admissible_structured(decision_file, capsys):
    assert main(["--format", "structured", "decide", decision_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admissible"] == ["a2", "a3"]


def test_decide_pareto(decision_file, capsys):
    assert main(["decide", decision_file, "--criterion", "pareto"]) == 0
    out = capsys.readouterr().out
    assert "a1: dominated" in out


def test_bet_table_currency_format(book_file, capsys):
    assert main(["bet", "table", book_file]) == 0
    out = capsys.readouterr().out
    assert "-$112.50" in out and "$137.50" in out


def test_bet_eval_family(book_file, capsys):
    assert main(["bet", "eval", book_file, "--family", "coin", "--range", "0.1", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "BOOKED" in out and "0.1" in out


def test_bet_eval_under_named_distribution(book_file, capsys):
    assert main(["--format", "structured", "bet", "eval", book_file, "--under", "q"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["antagonist_expectation"] == pytest.approx(0.0, abs=1e-9)


def test_pool_nixon(capsys):
    assert main(["pool", "--nixon", "--weights", "1", "0"]) == 0
    out = capsys.readouterr().out
    assert "total variation" in out


def test_pool_file(tmp_path, capsys):
    path = write(
        tmp_path,
        "pool.json",
        {
            "space": {
                "variables": [
                    {"name": "toss1", "values": ["H", "T"]},
                    {"name": "toss2", "values": ["H", "T"]},
                ]
            },
            "experts": {"low": [0.01, 0.09, 0.09, 0.81], "high": [0.25, 0.25, 0.25, 0.25]},
            "weights": [0.5, 0.5],
        },
    )
    assert main(["pool", path, "--marginalize", "toss1"]) == 0
    out = capsys.readouterr().out
    assert "0.13" in out and "gap: 0" in out


def test_parse_error_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["decide", str(broken)]) == 2


def test_malformed_family_exits_two(tmp_path, capsys):
    path = write(
        tmp_path,
        "family.json",
        {
            "space": {"variables": [{"name": "toss1", "values": ["H", "T"]}]},
            "credal": {"family": {"branches": [
                {"generator": "iid-coin", "lo": "a", "hi": 0.5, "params": {"n_tosses": 1}}
            ]}},
        },
    )
    assert main(["envelope", path, "--event", "H"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj",
    [
        {"distributions": {"p": [0.2, 0.3, 0.5]}, "credal": {"vertices": ["p"]}},
        {"distributions": {"p": [float("nan"), 1.0]}, "credal": {"vertices": ["p"]}},
        {"intervals": {"box": {"lo": [0.1], "hi": [0.9, 0.9]}}, "credal": {"intervals": "box"}},
        {"credal": {"constraints": [{"coeffs": [1, 0], "rel": ">=", "rhs": float("nan")}]}},
    ],
)
def test_malformed_envelope_file_exits_two(tmp_path, capsys, obj):
    path = write(tmp_path, "bad.json", {"space": {"atoms": ["a", "b"]}, **obj})
    assert main(["envelope", path, "--event", "a"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


def test_malformed_pooling_file_exits_two(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"space": {"atoms": ["a", "b"]},
                                        "experts": {"x": [0.5, 0.5], "y": [0.2, 0.3, 0.5]},
                                        "weights": [0.5, 0.5]})
    assert main(["pool", path]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


def test_domain_error_exits_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "empty.json",
        {
            "space": {"atoms": ["a", "b"]},
            "credal": {"vertices": [[1.0, 0.0]]},
        },
    )
    # conditioning on an event every member rules out: domain error
    assert main(["condition", path, "--event", "b"]) == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
