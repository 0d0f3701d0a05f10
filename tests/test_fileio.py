import json

import numpy as np
import pytest

from credal import (
    Event,
    IntervalDistribution,
    coin_family,
    constraint,
    envelope,
    fileio,
    interval_to_linear_system,
    make_distribution,
)
from credal.errors import ParamRangeError, ParseError
from credal.sets import LinearSystem, ParametricFamily, VertexSet


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


PROBLEM = {
    "space": {"atoms": ["w1", "w2", "w3", "w4"]},
    "distributions": {"u": [0.25, 0.25, 0.25, 0.25]},
    "intervals": {"box": {"lo": [0.15, 0.15, 0.15, 0.15], "hi": [0.4, 0.4, 0.4, 0.4]}},
}


def test_problem_file_round_trip(tmp_path):
    problem = fileio.load_problem(write(tmp_path, "p.json", PROBLEM))
    assert problem.space.atoms == ("w1", "w2", "w3", "w4")
    assert np.array_equal(problem.distributions["u"].probs, [0.25] * 4)
    assert problem.intervals["box"].lo[0] == 0.15
    assert fileio.space_from_obj(fileio.space_to_obj(problem.space)) == problem.space


def test_factorized_space_round_trip(tmp_path):
    obj = {
        "space": {
            "variables": [
                {"name": "toss1", "values": ["H", "T"]},
                {"name": "toss2", "values": ["H", "T"]},
            ]
        }
    }
    problem = fileio.load_problem(write(tmp_path, "c.json", obj))
    assert problem.space.atoms == ("HH", "HT", "TH", "TT")
    assert fileio.space_from_obj(fileio.space_to_obj(problem.space)) == problem.space


@pytest.mark.parametrize(
    "form,expected",
    [
        ({"vertices": ["u"]}, VertexSet),
        ({"vertices": [[0.1, 0.2, 0.3, 0.4]]}, VertexSet),
        ({"constraints": [{"coeffs": [1, 0, 0, 0], "rel": "<=", "rhs": 0.5}]}, LinearSystem),
        ({"intervals": "box"}, LinearSystem),
        (
            {"family": {"branches": [{"generator": "iid-coin", "lo": 0.1, "hi": 0.5, "params": {"n_tosses": 2}}]}},
            ParametricFamily,
        ),
    ],
)
def test_credal_forms(tmp_path, form, expected):
    obj = dict(PROBLEM)
    if expected is ParametricFamily:
        obj = {
            "space": {
                "variables": [
                    {"name": "toss1", "values": ["H", "T"]},
                    {"name": "toss2", "values": ["H", "T"]},
                ]
            }
        }
    problem = fileio.load_problem(write(tmp_path, "p.json", obj))
    S = fileio.credal_from_obj(form, problem)
    assert isinstance(S, expected)
    # credal_to_obj output loads back to the same kind of set
    again = fileio.credal_from_obj(fileio.credal_to_obj(S), problem)
    assert type(again) is type(S)


COIN_SPACE = {
    "variables": [
        {"name": "toss1", "values": ["H", "T"]},
        {"name": "toss2", "values": ["H", "T"]},
    ]
}
COIN_FAMILY = {
    "branches": [{"generator": "iid-coin", "lo": 0.1, "hi": 0.5, "params": {"n_tosses": 2}}]
}

ROUND_TRIP_SETS = {
    "vertices": lambda sp: VertexSet(
        (make_distribution(sp, [0.25] * 4), make_distribution(sp, [0.1, 0.2, 0.3, 0.4]))
    ),
    "constraints": lambda sp: LinearSystem(
        sp, (constraint([1, 0, 0, 0], "<=", 0.5), constraint([0, 1, -1, 0], ">=", 0.1))
    ),
    "intervals": lambda sp: interval_to_linear_system(
        IntervalDistribution(sp, [0.15] * 4, [0.4] * 4)
    ),
    "family": lambda sp: coin_family(0.1, 0.5, 2),
    "conditioned-family": lambda sp: ParametricFamily(
        coin_family(0.1, 0.5, 2).branches, Event.of(sp, "HH", "HT")
    ),
}


@pytest.mark.parametrize("form", ROUND_TRIP_SETS)
def test_credal_round_trip_keeps_the_set(form):
    """credal_to_obj, through JSON text, reads back as the same set: the
    same envelope on every atom (and, for a family, the same conditioning)."""
    problem = fileio.problem_from_obj({"space": COIN_SPACE})
    S = ROUND_TRIP_SETS[form](problem.space)
    again = fileio.credal_from_obj(json.loads(fileio.dump_json(fileio.credal_to_obj(S))), problem)
    assert type(again) is type(S)
    assert getattr(again, "conditioning", None) == getattr(S, "conditioning", None)
    for atom in problem.space.atoms:
        event = Event.of(problem.space, atom)
        assert envelope(again, event).lower == pytest.approx(envelope(S, event).lower, abs=1e-12)
        assert envelope(again, event).upper == pytest.approx(envelope(S, event).upper, abs=1e-12)


@pytest.mark.parametrize("conditioning", [["HH", "XX"], "HH", [["HH"]]])
def test_family_conditioning_parse_errors(conditioning):
    problem = fileio.problem_from_obj({"space": COIN_SPACE})
    with pytest.raises(ParseError, match="conditioning"):
        fileio.credal_from_obj({"family": dict(COIN_FAMILY, conditioning=conditioning)}, problem)


def _branch(**changes):
    return {"family": {"branches": [dict(COIN_FAMILY["branches"][0], **changes)]}}


MALFORMED_FORMS = {
    "family-not-an-object": (COIN_SPACE, {"family": [COIN_FAMILY]}),
    "params-a-list": (COIN_SPACE, _branch(params=[["n_tosses", 2]])),
    "lo-not-a-number": (COIN_SPACE, _branch(lo="a")),
    "coeffs-wrong-length": (
        PROBLEM["space"], {"constraints": [{"coeffs": [1, 0], "rel": "<=", "rhs": 0.5}]}
    ),
    "unknown-relation": (
        PROBLEM["space"], {"constraints": [{"coeffs": [1, 0, 0, 0], "rel": "<", "rhs": 0.5}]}
    ),
    "vertex-wrong-length": (PROBLEM["space"], {"vertices": [[0.5, 0.5]]}),
    "rhs-nan": (
        PROBLEM["space"], {"constraints": [{"coeffs": [1, 0, 0, 0], "rel": ">=", "rhs": float("nan")}]}
    ),
    "interval-without-hi": (PROBLEM["space"], {"intervals": {"lo": [0.1] * 4}}),
}


@pytest.mark.parametrize("name", MALFORMED_FORMS)
def test_malformed_credal_forms_are_parse_errors(name):
    space, form = MALFORMED_FORMS[name]
    with pytest.raises(ParseError):
        fileio.credal_from_obj(form, fileio.problem_from_obj({"space": space}))


def test_non_integer_tosses_are_a_range_error():
    problem = fileio.problem_from_obj({"space": COIN_SPACE})
    with pytest.raises(ParamRangeError, match="n_tosses"):
        fileio.credal_from_obj(_branch(params={"n_tosses": 2.5}), problem)


def test_mass_function_file(tmp_path):
    path = write(
        tmp_path,
        "m.json",
        {
            "space": {"atoms": ["1", "2", "3", "4", "5", "6"]},
            "masses": [
                {"set": ["1"], "m": 1 / 12},
                {"set": ["2"], "m": 1 / 12},
                {"set": ["1", "2"], "m": 1 / 6},
                {"set": ["3"], "m": 1 / 6},
                {"set": ["4"], "m": 1 / 6},
                {"set": ["5"], "m": 1 / 6},
                {"set": ["6"], "m": 1 / 6},
            ],
        },
    )
    m = fileio.load_mass_function(path)
    assert m.mass_of("1", "2") == pytest.approx(1 / 6)


def test_decision_file(tmp_path):
    path = write(
        tmp_path,
        "d.json",
        {
            "space": {"atoms": ["c1", "c2", "c3"]},
            "distributions": {"p1": [0.125, 0.75, 0.125], "p2": [0.75, 0.125, 0.125]},
            "utilities": {"actions": ["a1", "a2"], "matrix": [[3, 3, 4], [2.5, 3.5, 5]]},
            "credal": {"vertices": ["p1", "p2"]},
            "members": ["p1", "p2"],
        },
    )
    dp = fileio.load_decision(path)
    assert dp.utilities.actions == ("a1", "a2")
    assert isinstance(dp.credal, VertexSet)
    assert len(dp.members) == 2


def test_pooling_file(tmp_path):
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
    prob = fileio.load_pooling(path)
    assert prob.names == ("low", "high")


def test_book_file(tmp_path):
    path = write(
        tmp_path,
        "b.json",
        {
            "space": {
                "variables": [
                    {"name": "toss1", "values": ["H", "T"]},
                    {"name": "toss2", "values": ["H", "T"]},
                ]
            },
            "tickets": [
                {"side": "buy", "price_cents": 1300, "payout_cents": 10000, "event": ["HH"]}
            ],
        },
    )
    book, problem = fileio.load_book(path)
    assert book.tickets[0].price == 13.00
    assert book.tickets[0].event.atoms == ("HH",)


@pytest.mark.parametrize(
    "obj,message",
    [
        ({}, "needs a space"),
        ({"space": {}}, "atoms or variables"),
        ({"space": {"atoms": ["a", "a"]}}, "unique"),
        ({"space": {"atoms": ["a", "b"]}, "distributions": {"bad": "nope"}}, "must be a list"),
    ],
)
def test_parse_errors(tmp_path, obj, message):
    with pytest.raises(ParseError, match=message):
        fileio.problem_from_obj(obj)


TWO_ATOMS = {"atoms": ["a", "b"]}
MALFORMED_FILES = {
    "distribution-wrong-length": ("problem", {"space": TWO_ATOMS, "distributions": {"p": [0.2, 0.3, 0.5]}}),
    "distribution-nan": ("problem", {"space": TWO_ATOMS, "distributions": {"p": [float("nan"), 1.0]}}),
    "interval-lo-wrong-length": ("problem", {"space": TWO_ATOMS, "intervals": {"b": {"lo": [0.1], "hi": [1, 1]}}}),
    "interval-lo-nan": ("problem", {"space": TWO_ATOMS, "intervals": {"b": {"lo": [float("nan"), 0], "hi": [1, 1]}}}),
    "distributions-a-list": ("problem", {"space": TWO_ATOMS, "distributions": [[0.5, 0.5]]}),
    "expert-wrong-length": ("pooling", {"space": TWO_ATOMS, "experts": {"x": [0.5, 0.5], "y": [0.2, 0.3, 0.5]},
                                         "weights": [0.5, 0.5]}),
    "unknown-mass-atom": ("mass_function", {"space": TWO_ATOMS, "masses": [{"set": ["a", "z"], "m": 1.0}]}),
    "utility-nan": ("decision", {"space": TWO_ATOMS, "utilities": {"actions": ["x"], "matrix": [[1, float("nan")]]}}),
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_files_are_parse_errors(tmp_path, name):
    kind, obj = MALFORMED_FILES[name]
    with pytest.raises(ParseError):
        getattr(fileio, f"load_{kind}")(write(tmp_path, "f.json", obj))


def test_invalid_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.load_json(str(path))
    with pytest.raises(ParseError):
        fileio.load_json(str(tmp_path / "missing.json"))
