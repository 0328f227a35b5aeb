"""emit_json against the recursive conversion it replaced: the same bytes on
the reports of every subcommand and on the edge values of the exactness
rules."""

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest

from afcheck import cli
from afcheck.report import emit_json, to_jsonable

_SAFE_INT = (1 << 53) - 1


def reference_to_jsonable(obj):
    """The isinstance chain that to_jsonable replaced, less its branches for
    objects with to_dict and for dataclasses, which no report reached."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) <= _SAFE_INT else str(obj)
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return reference_to_jsonable(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        raise TypeError("floating point is not allowed in reports")
    if isinstance(obj, dict):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_emit_json(report):
    stripped = dict(report)
    stripped["timing"] = None
    return json.dumps(reference_to_jsonable(stripped), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False) + "\n"


QUARTIC = "x^4 - 4*x^2 + 2"
REQUESTS = [
    ["field", "x^2 - 2"],
    ["field", "x^3 - x^2 - 2*x - 8"],          # IndexDivisor, field built
    ["field", "x^4 - 5*x^2 + 6"],              # Reducible, no field
    ["field", "x^2 - (2^60 + 1)"],             # beyond 2^53
    ["sunit", "x^2 - 2", "--bound", "3"],
    ["sunit", QUARTIC],                        # BasisUnavailable
    ["selmer", "x^2 - 2"],
    ["frey", "2r", "x^2 - 2", "--a", "1", "--b", "1", "--c", "1", "--r", "1",
     "--p", "5"],
    ["frey", "pp2", "x^2 - 2", "--a", "2", "--b", "1", "--c", "3", "--p",
     "3", "--prime", "2"],
    ["frey", "pp2", "x", "--a", "1", "--b", "1", "--c", "2"],
    ["check", "thm-3-2", "x", "--bound", "4"],
    ["check", "thm-5-2", "x^2 - 2", "--bound", "2"],
    ["check", "cor-7-2", "x^2 - 2"],
    ["check", "thm-7-1", "x^3 - x^2 + 1", "--l", "23"],
    ["check", "thm-7-3", "x^2 - 2", "--mode", "2"],
    ["scan", "x^3 - x^2 - 2*x + 1", "--l-max", "100"],
    ["scan", "x^2 - 2", "--l-max", "-1"],
]


def reports(capsys):
    """The report of each request, as handed to emit_json."""
    seen = []
    with mock.patch.object(cli, "emit_json",
                           side_effect=lambda r: seen.append(r) or emit_json(r)):
        for argv in REQUESTS:
            cli.run(["--output", "json", *argv])
    capsys.readouterr()
    return seen


class TestEmitJson:
    def test_reports_of_every_subcommand(self, capsys):
        seen = reports(capsys)
        assert len(seen) == len(REQUESTS)
        assert {r["command"]["command"] for r in seen} == {
            "field", "sunit", "selmer", "frey", "check", "scan"}
        assert any("error" in r["result"] for r in seen)
        for report in seen:
            assert emit_json(report) == reference_emit_json(report)

    @pytest.mark.parametrize("value", [
        _SAFE_INT, -_SAFE_INT, _SAFE_INT + 1, -_SAFE_INT - 1, 2 ** 200, 0,
        Fraction(5, 1), Fraction(-(2 ** 53), 1), Fraction(2 ** 53 - 1, 1),
        Fraction(3, 2), Fraction(-(2 ** 70), 3),
        True, False, None, "", "é",
        {1: "a", -(2 ** 60): 2, True: 3, "k": (1, 2)},
        (1, (2, [3, Fraction(1, 2)])),
        [],
        {},
    ])
    def test_edge_values(self, value):
        assert to_jsonable(value) == reference_to_jsonable(value)
        report = {"result": value, "timing": 0.25}
        assert emit_json(report) == reference_emit_json(report)

    def test_bool_stays_bool(self):
        assert to_jsonable([True, 1, False, 0]) == [True, 1, False, 0]
        assert [type(v) for v in to_jsonable([True, 1])] == [bool, int]
        assert emit_json({"r": [True, 1]}) == '{"r":[true,1],"timing":null}\n'

    def test_safe_integer_boundary(self):
        assert to_jsonable(2 ** 53 - 1) == 2 ** 53 - 1
        assert to_jsonable(-(2 ** 53) + 1) == -(2 ** 53) + 1
        assert to_jsonable(2 ** 53) == str(2 ** 53)
        assert to_jsonable(-(2 ** 53)) == str(-(2 ** 53))

    @pytest.mark.parametrize("value", [
        1.5, [0.0], {"a": (1, 2.5)}, {"a": Fraction(1, 2), "b": float("nan")},
    ])
    def test_float_is_refused(self, value):
        with pytest.raises(TypeError, match="floating point"):
            to_jsonable(value)
        with pytest.raises(TypeError, match="floating point"):
            reference_to_jsonable(value)

    def test_unknown_object_is_refused(self):
        # a report is built of the exact types: an object with to_dict, a
        # dataclass or a subclass of int, str or Fraction is refused too
        class Flag(enum.IntEnum):
            ON = 1

        class Name(str):
            pass

        @dataclass
        class Point:
            x: int

        class Holder:
            def to_dict(self):
                return {"x": 1}

        class Ratio(Fraction):
            pass

        for value in (object(), Flag.ON, Name("n"), Point(1), Holder(),
                      Ratio(1, 2)):
            with pytest.raises(TypeError, match="cannot serialize "
                               + type(value).__name__):
                to_jsonable({"result": [value]})
