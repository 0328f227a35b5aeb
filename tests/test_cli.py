"""CLI exit codes, canonical JSON and report round-trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import afcheck
from afcheck import cli
from afcheck.cli import run
from afcheck.criteria import CRITERIA
from afcheck.frey import FAMILY_SQUARE, FAMILY_TWO_POWER
from afcheck.frey import ValuationForm
from afcheck.report import build_report, emit_json, to_jsonable


def run_json(capsys, argv):
    code = run(["--output", "json"] + argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def unread_option_cases():
    """Every criterion of the table, and the thm-7-3 alias under each
    --mode, with each check option it does not read; the readers of an
    option come from the table, and --mode is read by the alias only."""
    values = {"l": "7", "mode": "1", "bound": "2", "user_class_number": "1"}
    requests = [(name, name, [], criterion.reads)
                for name, criterion in CRITERIA.items()]
    requests += [("thm-7-3", f"thm-7-3-{mode}", ["--mode", mode],
                  CRITERIA[f"thm-7-3-{mode}"].reads + ("mode",))
                 for mode in "12"]
    for named, theorem, resolve, reads in requests:
        for option, value in values.items():
            if option in reads:
                continue
            readers = "thm-7-3" if option == "mode" else ", ".join(
                name for name, c in CRITERIA.items() if option in c.reads)
            flag = "--" + option.replace("_", "-")
            yield pytest.param(
                [named, "x^3-x^2-2*x+1", *resolve, flag, value],
                f"{flag} is read only by {readers}, not by {theorem}",
                id=" ".join([named, *resolve, flag]))


class TestExitCodes:
    def test_yes_is_zero(self, capsys):
        code, rep = run_json(capsys, ["check", "cor-7-2", "x"])
        assert code == 0 and rep["result"]["applies"] == "yes"

    def test_no_is_two(self, capsys):
        code, rep = run_json(capsys, ["check", "thm-7-1", "x^3 - x^2 + 1",
                                      "--l", "23"])
        assert code == 2 and rep["result"]["applies"] == "no"

    def test_unknown_is_three(self, capsys):
        code, rep = run_json(capsys, ["check", "thm-3-2", "x", "--bound", "8"])
        assert code == 3 and rep["result"]["applies"] == "unknown"

    def test_data_is_zero(self, capsys):
        code, rep = run_json(capsys, ["sunit", "x", "--bound", "8"])
        assert code == 0
        assert len(rep["result"]["solutions"]) == 3

    def test_error_is_one(self, capsys):
        code, rep = run_json(capsys, ["field", "x^2 - 5"])
        assert code == 1
        assert rep["result"]["error"]["type"] == "IndexDivisor"
        assert rep["result"]["error"]["q"] == 2

    def test_reducible_error(self, capsys):
        code, _ = run_json(capsys, ["field", "x^2 - 1"])
        assert code == 1

    def test_usage_error(self, capsys):
        assert run(["check", "nonsense-theorem", "x"]) == 1

    def test_missing_l(self, capsys):
        code, rep = run_json(capsys, ["check", "thm-7-1", "x"])
        assert code == 1

    def test_exit_mapping_total(self, capsys):
        # every verdict state reachable and mapped
        seen = set()
        for argv, expect in [(["check", "cor-7-2", "x"], 0),
                             (["check", "thm-7-1", "x^3 - x^2 + 1", "--l", "23"], 2),
                             (["check", "cor-3-4", "x", "--bound", "8"], 3)]:
            code, rep = run_json(capsys, argv)
            assert code == expect
            seen.add(rep["result"]["applies"])
        assert seen == {"yes", "no", "unknown"}


class TestCanonicalJson:
    def test_byte_identical_runs(self, capsys):
        run(["--output", "json", "check", "thm-5-2", "x", "--bound", "6"])
        first = capsys.readouterr().out
        run(["--output", "json", "check", "thm-5-2", "x", "--bound", "6"])
        second = capsys.readouterr().out
        assert first == second

    def test_rational_serialization(self):
        assert to_jsonable(Fraction(3, 2)) == "3/2"
        assert to_jsonable(Fraction(4, 2)) == 2

    def test_big_integer_as_string(self):
        big = 2 ** 60 + 1
        assert to_jsonable(big) == str(big)
        assert to_jsonable(2 ** 50) == 2 ** 50

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(1.5)

    def test_valuation_form_schema(self):
        data = to_jsonable(ValuationForm(4, -2))
        assert data == {"alpha": 4, "beta": -2, "threshold": 2}

    def test_round_trip_exact(self, capsys):
        code, rep = run_json(capsys, ["sunit", "x", "--bound", "8"])
        text = emit_json(rep)
        again = json.loads(text)
        assert again["result"] == rep["result"]

    def test_sorted_keys(self):
        report = build_report(None, {"command": "t"}, {"b": 1, "a": 2})
        text = emit_json(report)
        assert text.index('"a"') < text.index('"b"')


class TestCommands:
    def test_field_summary(self, capsys):
        code, rep = run_json(capsys, ["field", "x^2 - 2"])
        assert code == 0
        assert rep["field"]["signature"] == [2, 0]
        assert rep["field"]["poly_disc"] == 8
        assert rep["result"]["splitting_2"]["kind"] == "totally-ramified"
        assert len(rep["result"]["u_k"]) == 1

    def test_selmer_command(self, capsys):
        code, rep = run_json(capsys, ["selmer", "x"])
        assert code == 0
        values = {tuple(r) for r in rep["result"]["representatives"]}
        assert values == {("1",), ("-1",), ("2",), ("-2",)}

    def test_frey_concrete(self, capsys):
        code, rep = run_json(capsys, ["frey", "2r", "x", "--a", "1", "--b", "1",
                                      "--c", "1", "--r", "1", "--p", "5"])
        assert code == 0
        inv = rep["result"]["invariants"]
        assert inv["delta"] == [64] and inv["c4"] == [48] and inv["j"] == [1728]
        assert rep["result"]["cross_check"] is True

    def test_frey_concrete_invariants_once(self, capsys, monkeypatch):
        from afcheck import cli, frey
        calls = []
        original = frey.invariants

        def spy(spec):
            calls.append(spec.p)
            return original(spec)

        monkeypatch.setattr(frey, "invariants", spy)
        monkeypatch.setattr(cli, "invariants", spy)
        code, rep = run_json(capsys, ["frey", "2r", "x", "--a", "1", "--b", "1",
                                      "--c", "1", "--r", "1", "--p", "5"])
        assert code == 0 and rep["result"]["cross_check"] is True
        assert calls == [5]

    def test_frey_symbolic_with_prime(self, capsys):
        code, rep = run_json(capsys, ["frey", "2r", "x", "--a", "2", "--b", "1",
                                      "--c", "1", "--r", "2", "--prime", "2"])
        assert code == 0
        reports = rep["result"]["reduction_reports"]
        assert reports[0]["v_j"] == {"alpha": 4, "beta": -2, "threshold": 2}
        assert reports[0]["type"] == "potentially-multiplicative"

    @pytest.mark.parametrize("flag, value", [
        ("--prime", "9"), ("--p", "abc"), ("--p", "4"), ("--p", "1"),
        ("--p", "0"), ("--p", "-3")])
    def test_frey_non_prime_rejected(self, capsys, flag, value):
        code, rep = run_json(capsys, ["frey", "2r", "x^2 - 2", "--a", "2", "--b",
                                      "1", "--c", "1", "--r", "2", flag, value])
        assert code == 1
        assert rep["result"]["error"]["type"] == "ParseError"

    def test_frey_relation_violation(self, capsys):
        code, rep = run_json(capsys, ["frey", "2r", "x", "--a", "1", "--b", "1",
                                      "--c", "1", "--r", "2", "--p", "5"])
        assert code == 1
        assert rep["result"]["error"]["type"] == "RelationViolated"

    @pytest.mark.parametrize("argv, error", [
        # v_3 = -1 for every entry: Delta = 64/3^30, not a good prime
        (["2r", "x", "--a", "1/3", "--b", "1/3", "--c", "1/3", "--r", "1",
          "--p", "5", "--prime", "3"], "InconsistentDivisibility"),
        # +1 and -1 at one prime no longer cancel in a product
        (["2r", "x^2-10", "--a", "3", "--b", "1/3", "--c", "1",
          "--prime", "3"], "InconsistentDivisibility"),
        (["pp2", "x", "--a", "0", "--b", "1", "--c", "1", "--prime", "3"],
         "RelationViolated"),
        (["2r", "x^2-2", "--a", "0", "--b", "1", "--c", "1"],
         "RelationViolated")])
    def test_frey_reports_need_an_integral_nonzero_triple(self, capsys, argv,
                                                          error):
        code, rep = run_json(capsys, ["frey", *argv])
        assert code == 1
        assert rep["result"]["error"]["type"] == error

    def test_scan_command(self, capsys):
        code, rep = run_json(capsys, ["scan", "x^3 - x^2 + 1"])
        assert code == 0
        assert rep["result"]["candidates"][0]["l"] == 23

    def test_config_option_is_a_usage_error(self, capsys):
        code = run(["--output", "json", "--config", "/nonexistent", "field",
                    "x"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: afcheck ")
        assert error.startswith("afcheck: error: ")

    FREY_CUBIC = ["frey", "2r", "x^3-x^2-2*x+1", "--a", "1", "--b", "1",
                  "--c", "1", "--r", "1", "--p", "5"]

    @pytest.mark.parametrize("h", [0, -1])
    @pytest.mark.parametrize("argv", [
        ["sunit", "x^2-2", "--bound", "2"],
        ["selmer", "x^2-2"],
        ["check", "thm-3-2", "x^2-2", "--bound", "2"],
        FREY_CUBIC,
    ], ids=["sunit", "selmer", "check", "frey"])
    def test_class_number_flag_below_one(self, capsys, argv, h):
        code, rep = run_json(capsys, argv + ["--user-class-number", str(h)])
        assert code == 1
        assert rep["result"]["error"]["type"] == "ParseError"
        assert rep["result"]["error"]["message"] == (
            f"--user-class-number must be at least 1, got {h}")
        assert rep["field"] is None

    @pytest.mark.parametrize("argv, degree", [
        (["sunit", "x^2-10", "--bound", "2"], 2),
        (["selmer", "x^4-4*x^2+2"], 4),
        (["check", "thm-5-2", "x", "--bound", "1"], 1),
        (["frey", "2r", "x^2-2", "--a", "1", "--b", "1", "--c", "1"], 2),
    ], ids=["sunit", "selmer", "check", "frey"])
    def test_class_number_flag_only_for_cubics(self, capsys, argv, degree):
        code, rep = run_json(capsys, argv + ["--user-class-number", "3"])
        assert code == 1
        assert rep["result"]["error"] == {
            "type": "ParseError",
            "message": "--user-class-number is read only for cubic fields, "
                       f"not for degree {degree}"}
        assert rep["field"]["degree"] == degree

    def test_class_number_is_echoed(self, capsys):
        # the class data behind a cubic's S-unit verdict comes from the
        # flag, so two requests that differ only in it echo different
        # commands
        argv = ["check", "thm-3-3", "x^3-x^2-2*x+1", "--bound", "1",
                "--user-class-number"]
        commands = [run_json(capsys, argv + [h])[1]["command"]
                    for h in ("1", "2")]
        assert commands[0] != commands[1]
        assert [c["user_class_number"] for c in commands] == [1, 2]
        _, rep = run_json(capsys, argv[:-1])
        assert "user_class_number" not in rep["command"]

    @pytest.mark.parametrize("r", ["0", "-1"])
    @pytest.mark.parametrize("output", ["json", "human"])
    def test_frey_2r_exponent_below_one(self, capsys, r, output):
        code = run(["--output", output, "frey", "2r", "x", "--a", "1", "--b",
                    "1", "--c", "1", "--r", r, "--p", "5"])
        out, err = capsys.readouterr()
        assert code == 1
        if output == "json":
            error = json.loads(out)["result"]["error"]
            assert error["type"] == "ParseError"
            assert error["message"] == f"--r must be at least 1 for 2r, got {r}"
        else:
            assert out == ""
            assert err == f"error (ParseError): --r must be at least 1 for 2r, got {r}\n"

    @pytest.mark.parametrize("r", ["0", "-1", "2"])
    def test_check_refuses_r(self, capsys, r):
        # no criterion reads the twist exponent of the 2r family
        assert run(["--output", "json", "check", "cor-7-2", "x", "--r",
                    r]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"afcheck: error: unrecognized arguments: --r {r}\n")

    @pytest.mark.parametrize("argv, option, readers", [
        (["thm-3-2", "x", "--l", "4"], "l", "thm-7-1, thm-7-3-1"),
        (["cor-7-2", "x", "--l", "4"], "l", "thm-7-1, thm-7-3-1"),
        (["thm-7-3", "x", "--mode", "2", "--l", "23"], "l",
         "thm-7-1, thm-7-3-1"),
        (["thm-3-2", "x", "--mode", "9"], "mode", "thm-7-3"),
        (["thm-7-3-1", "x", "--l", "5", "--mode", "1"], "mode", "thm-7-3"),
        (["cor-7-2", "x", "--bound", "2"], "bound",
         "thm-3-2, thm-3-3, cor-3-4, thm-5-2"),
        (["thm-7-1", "x", "--l", "23", "--bound", "2"], "bound",
         "thm-3-2, thm-3-3, cor-3-4, thm-5-2"),
        (["thm-7-3", "x", "--mode", "2", "--bound", "0"], "bound",
         "thm-3-2, thm-3-3, cor-3-4, thm-5-2"),
        (["cor-7-2", "x^3-x^2-2*x+1", "--user-class-number", "1"],
         "user-class-number", "thm-3-2, thm-3-3, cor-3-4, thm-5-2"),
        (["thm-7-1", "x^3-x^2-2*x+1", "--l", "23", "--user-class-number",
          "1"], "user-class-number", "thm-3-2, thm-3-3, cor-3-4, thm-5-2"),
    ], ids=["l-sunit", "l-cor-7-2", "l-mode-2", "mode-sunit", "mode-7-3-1",
            "bound-cor-7-2", "bound-thm-7-1", "bound-mode-2", "h-cor-7-2",
            "h-thm-7-1"])
    def test_check_refuses_unread_option(self, capsys, argv, option, readers):
        code, rep = run_json(capsys, ["check", *argv])
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(
            f"--{option} is read only by {readers}, not by ")

    @pytest.mark.parametrize("argv, message", unread_option_cases())
    def test_check_refuses_every_unread_option(self, capsys, argv, message):
        code, rep = run_json(capsys, ["check", *argv])
        assert code == 1
        assert rep["result"]["error"] == {"type": "ParseError",
                                          "message": message}

    @pytest.mark.parametrize("argv", [
        ["thm-3-2", "x", "--bound", "2"],
        ["thm-7-3", "x", "--mode", "1", "--l", "5"],
        ["thm-7-3-1", "x", "--l", "5"],
        ["thm-7-1", "x^3 - x^2 + 1", "--l", "23"],
    ], ids=["bound", "mode-and-l", "l-7-3-1", "l-7-1"])
    def test_check_accepts_the_options_it_reads(self, capsys, argv):
        code, rep = run_json(capsys, ["check", *argv])
        assert code in (0, 2, 3) and "error" not in rep["result"]

    def test_pp2_refuses_class_number(self, capsys):
        code, rep = run_json(capsys, ["frey", "pp2", "x^3-x^2-2*x+1", "--a",
                                      "2", "--b", "1", "--c", "3",
                                      "--user-class-number", "1"])
        assert code == 1
        assert rep["result"]["error"] == {
            "type": "ParseError",
            "message": "--user-class-number is read only by frey 2r, "
                       "not by frey pp2"}

    @pytest.mark.parametrize("r", ["-4", "0", "2"])
    def test_pp2_refuses_r(self, capsys, r):
        code, rep = run_json(capsys, ["frey", "pp2", "x", "--a", "2", "--b",
                                      "1", "--c", "3", "--p", "3", "--r", r])
        assert code == 1
        assert rep["command"]["r"] == int(r)
        assert rep["result"]["error"] == {
            "type": "ParseError",
            "message": "--r is read only by frey 2r, not by frey pp2"}

    def test_r_is_echoed_by_2r_only(self, capsys):
        argv = ["x", "--a", "2", "--b", "1", "--c", "3"]
        code, rep = run_json(capsys, ["frey", "pp2", *argv, "--p", "3"])
        assert code == 0
        assert "r" not in rep["command"] and rep["result"]["r"] is None
        # 2r without --r runs at r = 2 and echoes it, in a report and in an
        # error report alike
        code, rep = run_json(capsys, ["frey", "2r", *argv])
        assert code == 0
        assert rep["command"]["r"] == rep["result"]["r"] == 2
        code, rep = run_json(capsys, ["frey", "2r", "x^2-1", *argv[1:]])
        assert code == 1 and rep["result"]["error"]["type"] == "Reducible"
        assert rep["command"]["r"] == 2

    @pytest.mark.parametrize("argv", [
        ["sunit", "x", "--bound", "-1"],
        ["check", "thm-3-2", "x", "--bound", "-3"],
        ["check", "thm-5-2", "x", "--bound=-1"],
    ], ids=["sunit", "thm-3-2", "thm-5-2"])
    def test_negative_bound_rejected(self, capsys, argv):
        code, rep = run_json(capsys, argv)
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "ParseError"
        assert "--bound must be nonnegative" in error["message"]
        assert rep["field"] is None

    def test_zero_bound_accepted(self, capsys):
        code, rep = run_json(capsys, ["sunit", "x", "--bound", "0"])
        assert code == 0 and rep["caveats"] == ["bounded-search:B=0"]

    def test_class_number_flag_reaches_frey(self, capsys):
        code, rep = run_json(capsys, self.FREY_CUBIC)
        assert code == 0 and "conductor" not in rep["result"]
        assert rep["caveats"][0] == (
            "conductor shape unavailable: cubic class numbers are not "
            "computed; supply one with --user-class-number")
        # the odd prime m of the conductor does not depend on h, as over a
        # quadratic field with h = 2 (golden frey-2r-x2-10)
        for h in ("1", "2"):
            code, rep = run_json(capsys, self.FREY_CUBIC
                                 + ["--user-class-number", h])
            assert code == 0 and rep["caveats"] == []
            qs = [f["prime"]["q"]
                  for f in rep["result"]["conductor"]["conductor"]]
            assert qs == [2, 7]

    def test_class_enum_bound_below_every_odd_prime_ideal(self, capsys,
                                                          monkeypatch):
        # 3 divides the index of Z[sqrt(18)], so no odd prime ideal is
        # enumerated within q <= 3: the S-unit basis, which reads only h,
        # answers as at the default bound, and the frey conductor, which
        # needs an odd prime, is left out
        from afcheck import units
        argv = ["sunit", "x^2-18", "--bound", "2"]
        frey = ["frey", "2r", "x^2-18", "--a", "1", "--b", "1", "--c", "1",
                "--r", "1", "--p", "5"]
        code, want = run_json(capsys, argv)
        assert code == 0 and want["result"]["solutions"]
        assert "conductor" in run_json(capsys, frey)[1]["result"]
        monkeypatch.setattr(units, "CLASS_ENUM_BOUND", 3)
        code, rep = run_json(capsys, argv)
        assert code == 0 and rep["result"] == want["result"]
        code, rep = run_json(capsys, frey)
        assert code == 0 and "conductor" not in rep["result"]
        assert rep["caveats"] == ["conductor shape unavailable: no odd prime "
                                  "ideal within enumeration bound"]

    def test_check_thm_7_3_mode_alias(self, capsys):
        code, rep = run_json(capsys, ["check", "thm-7-3", "x", "--mode", "2"])
        assert code == 0
        assert rep["result"]["theorem"] == "thm-7-3-2"

    def test_human_output_runs(self, capsys):
        assert run(["field", "x^2 - 2"]) == 0
        out = capsys.readouterr().out
        assert "signature" in out and "totally-ramified" in out

    @staticmethod
    def human_verdict(capsys, argv, code):
        """The (mark, name) rows of the hypotheses and the caveat lines of
        the assumed ones in human output."""
        assert run(argv) == code
        lines = capsys.readouterr().out.splitlines()
        rows = [tuple(part.strip() for part in line[5:].split("] ", 1))
                for line in lines if line.startswith("    [")]
        return rows, [line for line in lines if line.startswith("caveat: ")
                      and ": assumed=" in line]

    def test_human_verdict_marks_each_status(self, capsys):
        rows, assumed = self.human_verdict(
            capsys, ["check", "thm-5-2", "x^2-2", "--bound", "2"], 3)
        assert rows[:3] == [
            ("yes", "field is totally real"),
            ("yes", "narrow class number equals 1"),
            ("bounded-search", "every S_K-unit solution over the base field "
             "meets max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime over 2")]
        assert [mark for mark, _ in rows[3:]] == ["assumed"] * 7
        assert len(assumed) == 7
        assert assumed[0] == (
            "caveat: S_L-unit condition over K(sqrt(-1)): assumed=index "
            "divisor at 2 while factoring 2 in the extension; diagnostic: "
            "defining polynomial unusable")

    def test_human_verdict_marks_a_failed_user_supplied_hypothesis(self,
                                                                   capsys):
        rows, assumed = self.human_verdict(
            capsys, ["check", "thm-5-2", "x^3-4*x+1", "--bound", "2",
                     "--user-class-number", "1"], 2)
        assert rows[:2] == [("yes", "field is totally real"),
                            ("NO (user-supplied)",
                             "narrow class number equals 1")]
        assert rows[2][0] == "bounded-search"
        assert len(assumed) == len(rows) - 3 == 31

    def test_human_verdict_gives_each_reason_once(self, capsys):
        # each assumed hypothesis's reason appears once in human output, on
        # its caveat line, however many hypotheses share it
        argv = ["check", "thm-5-2", "x^3-4*x+1", "--bound", "2",
                "--user-class-number", "1"]
        _, rep = run_json(capsys, argv)
        statuses = [hyp.get("status", ["proven"])
                    for hyp in rep["result"]["hypotheses"]]
        reasons = Counter(status[1] for status in statuses
                          if status[0] == "assumed")
        assert sum(reasons.values()) == 31
        run(argv)
        out = capsys.readouterr().out
        for reason, count in reasons.items():
            assert out.count(reason) == count, reason


class TestErrorReportsCarryTheField:
    """An error raised after make_field still reports the field's summary;
    only an error before or inside make_field leaves "field" null."""

    @pytest.mark.parametrize("argv, error, summary", [
        (["sunit", "x^4-4*x^2+2"], "BasisUnavailable",
         {"poly": [2, 0, -4, 0, 1], "degree": 4, "signature": [4, 0],
          "poly_disc": 2048, "field_disc": None}),
        (["field", "x^3-x^2-2*x-8"], "IndexDivisor",
         {"poly": [-8, -2, -1, 1], "degree": 3, "signature": [1, 1],
          "poly_disc": -2012, "field_disc": None}),
        (["check", "thm-5-2", "x^2 - 1000000000000000000000000000099"],
         "BasisUnavailable",
         {"poly": ["-1000000000000000000000000000099", 0, 1], "degree": 2,
          "signature": [2, 0],
          "poly_disc": "4000000000000000000000000000396", "field_disc": None}),
    ])
    def test_field_built_before_the_error(self, capsys, argv, error, summary):
        started = time.perf_counter()
        code, rep = run_json(capsys, argv)
        assert time.perf_counter() - started < 5.0
        assert code == 1 and rep["result"]["error"]["type"] == error
        assert rep["field"] == summary

    @pytest.mark.parametrize("argv, error", [
        (["field", "x^4 - 5*x^2 + 6"], "Reducible"),
        (["sunit", "2*x^2 - 1"], "NotMonic"),
        (["field", "x^2 +"], "ParseError"),
        (["check", "thm-3-2", "x^2 - 2", "--user-class-number", "0"],
         "ParseError"),
    ])
    def test_no_field_without_make_field(self, capsys, argv, error):
        code, rep = run_json(capsys, argv)
        assert code == 1 and rep["result"]["error"]["type"] == error
        assert rep["field"] is None


class TestHardFactorizations:
    """A discriminant or norm with two prime factors beyond the rho budget
    gives an answer in seconds, and the answer says what is unknown."""

    def timed(self, capsys, argv):
        t0 = time.perf_counter()
        code, rep = run_json(capsys, argv)
        assert time.perf_counter() - t0 < 5
        return code, rep

    def test_field_answers_within_the_ceiling(self, capsys):
        code, rep = self.timed(capsys, ["field",
                                        "x^3 + 99999999999999999999*x + 1"])
        # 3 divides every coefficient but the constant and the leading one
        assert code == 1 and rep["result"]["error"]["type"] == "IndexDivisor"
        code, rep = self.timed(capsys, ["field",
                                        "x^3 + 100000000000000000009*x + 1"])
        assert code == 0
        assert rep["result"]["field_disc"] is None
        assert rep["result"]["poly_disc"] == str(
            -4 * 100000000000000000009 ** 3 - 27)

    def test_field_splits_before_factoring_the_discriminant(self, capsys,
                                                          monkeypatch):
        from afcheck import prime_ideals
        factored = []
        original = prime_ideals.factorint

        def spy(n):
            factored.append(n)
            return original(n)

        monkeypatch.setattr(prime_ideals, "factorint", spy)
        code, rep = self.timed(capsys, ["field",
                                        "x^3 + 99999999999999999999*x + 1"])
        assert code == 1 and rep["result"]["error"]["type"] == "IndexDivisor"
        assert rep["result"]["error"]["q"] == 3
        assert -4 * 99999999999999999999 ** 3 - 27 not in factored

    def test_pell_period_beyond_the_budget_is_an_error(self, capsys):
        # a 31-digit prime d = 3 mod 4: the continued fraction of sqrt(d)
        # has a period of about sqrt(d) steps
        d = 10 ** 30 + 99
        code, rep = self.timed(capsys, ["sunit", f"x^2 - {d}",
                                        "--bound", "2"])
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "BasisUnavailable"
        assert "continued fraction" in error["message"]

    def test_scan_uses_the_trial_division_primes(self, capsys):
        poly = "x^3 + 100000000000000000001*x + 1"
        disc = -4 * 100000000000000000001 ** 3 - 27
        code, rep = self.timed(capsys, ["scan", poly, "--l-max", "1000"])
        assert code == 0
        assert [c["l"] for c in rep["result"]["candidates"]] == [
            ell for ell in range(7, 1001)
            if sympy.isprime(ell) and disc % ell == 0]
        code, rep = self.timed(capsys, ["scan", poly, "--l-max", "20000"])
        assert code == 1
        assert rep["result"]["error"]["type"] == "FactorizationIncomplete"

    def test_half_integer_unit_of_a_long_period(self, capsys):
        # d = 100001 = 1 mod 4: the fundamental unit is half-integral, and
        # the generators of the primes above 2 have y > 2*10^6 in
        # (x + y sqrt d)/2; the rho walk finds them
        code, rep = self.timed(capsys, ["sunit", "x^2-x-25000",
                                        "--bound", "1"])
        assert code == 0
        K = afcheck.make_field("x^2-x-25000")
        solutions = rep["result"]["solutions"]
        assert solutions
        for sol in solutions:
            lam, mu = (K.element([Fraction(c) for c in sol[key]])
                       for key in ("lambda", "mu"))
            assert lam + mu == 1
            for x in (lam, mu):
                norm = abs(x.norm())
                n = norm.numerator * norm.denominator
                assert n & (n - 1) == 0

    @pytest.mark.parametrize("poly", ["x^2-350003", "x^2-x-125002"])
    def test_class_data_of_long_cycles(self, capsys, poly):
        # Q(sqrt(350003)) has 1.4*10^6 (b, |a|) pairs, past the old trial
        # loop; in Q(sqrt(500009)) the prime above 5 squared has its
        # generator beyond the old search over y
        code, rep = self.timed(capsys, ["frey", "2r", poly, "--a", "1",
                                        "--b", "1", "--c", "1"])
        assert code == 0 and rep["caveats"] == []
        assert rep["result"]["conductor"]["conductor"]

    def test_long_cycle_over_an_index_divisor(self, capsys):
        # the same field as x^2-x-125002; its class data now answers, and
        # the conductor stops at the index divisor 2 instead
        code, rep = self.timed(capsys, ["frey", "2r", "x^2-500009", "--a",
                                        "1", "--b", "1", "--c", "1"])
        assert code == 0
        assert rep["caveats"] == [
            "conductor shape unavailable: 2 divides the index of the "
            "power-basis order; supply a different defining polynomial"]

    def test_imaginary_class_number_beyond_the_budget(self, capsys):
        # about 5.8*10^5 values of b: the budget stops the enumeration of
        # the reduced forms before it starts
        code, rep = self.timed(capsys, ["frey", "2r", "x^2+1000000000039",
                                        "--a", "1", "--b", "1", "--c", "1"])
        assert code == 0
        assert rep["caveats"] == [
            "conductor shape unavailable: reduced forms of discriminant "
            "-1000000000039 need more than 16384 steps"]

    def test_reduced_forms_beyond_the_budget(self, capsys):
        # the class number of a 31-digit discriminant would take about
        # 3*10^30 reduced-form steps
        poly = f"x^2 - {10 ** 30 + 99}"
        # the exhausted class number leaves h+ = 1 assumed; the unit
        # search of the S-unit basis then gives up as well
        code, rep = self.timed(capsys, ["check", "thm-5-2", poly])
        assert code == 1
        assert rep["result"]["error"]["type"] == "BasisUnavailable"
        assert rep["result"]["error"]["message"].startswith(
            "unit group unavailable: continued fraction")
        code, rep = self.timed(capsys, ["frey", "2r", poly, "--a", "1",
                                        "--b", "1", "--c", "1", "--r", "1",
                                        "--p", "5"])
        assert code == 0
        assert [c for c in rep["caveats"] if c.startswith(
            "conductor shape unavailable: reduced forms of discriminant")]

    def test_unfactored_quadratic_discriminant_is_an_error(self, capsys):
        pq = sympy.nextprime(10 ** 15) * sympy.nextprime(2 * 10 ** 15)
        code, rep = self.timed(capsys, ["sunit", f"x^2 - {2 * pq}",
                                        "--bound", "2"])
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "FactorizationIncomplete"
        assert error["leftover"] == str(pq)


class TestZassenhausPrime:
    def test_search_goes_past_every_prime_of_the_discriminant(self, capsys):
        # x^2 - P, P the product of the primes below 110: all of them divide
        # the discriminant 4P, so no degree pattern is taken and Zassenhaus
        # needs a prime above 109 to prove the field irreducible
        big = 1
        for q in sympy.primerange(2, 110):
            big *= q
        code, rep = run_json(capsys, ["field", f"x^2 - {big}"])
        assert code == 0
        assert rep["result"]["signature"] == [2, 0]
        assert rep["result"]["field_disc"] == str(4 * big)


# The seven request kinds of the benchmark's field-sweep workload, with the
# field in its place, and per field the (exit code, sha256 of the JSON bytes)
# of each, taken before field construction moved to the F_q kernel, the
# discriminant as a norm and quadratic Hensel lifting.  The four error reports
# of x^3 - x^2 - 2*x - 8 were taken again when error reports began to carry
# the summary of a field that was built; only their "field" key changed.  Its
# frey 2r report was taken again when the MissingUserClassNumber message in
# its caveat began to name --user-class-number; only that caveat changed.
# The check reports were taken again when check stopped taking --r; only
# result.r and command.r went.  The frey pp2 reports were taken again when
# pp2 began to refuse --r, whose default no longer fills the echo; only
# command.r went.
FIELD_SWEEP_COMMANDS = (
    ("field",),
    ("check", "cor-7-2"),
    ("check", "thm-7-3", "--mode", "2"),
    ("scan", "--l-max", "1000"),
    ("check", "thm-7-1", "--l", "23"),
    ("frey", "2r", "--a", "1", "--b", "1", "--c", "1", "--r", "1", "--p", "5"),
    ("frey", "pp2", "--a", "2", "--b", "1", "--c", "3", "--p", "3",
     "--prime", "2"),
)
FIELD_CONSTRUCTION_GOLDEN = {
    # irreducible sextic, irreducible quintic, reducible quartic (Reducible
    # witness), a repeated factor (x + 1)(x^2 - 2)^2, Dedekind's
    # IndexDivisor at 2
    "x^6 - 6*x^4 + 9*x^2 - 3": (
        (0, "7482e41eeea133e01be8b13a9dffa4b6b2fb2aac0df1f4c5a5639c59358de8f2"),
        (2, "3885e1b3f76a7b27e407586894390501efa2251123455fd5eb54980450f39d6f"),
        (2, "51f40846d7423206ad0f98f01cadedd4353f3c78fc3d1258579a6765914eb297"),
        (0, "38e4a75145d6e1559ad5a3d372ced568d703008d02944880c110fdfff20580d3"),
        (2, "80d27a6549ee2d4ab6f0c444e882d29bdca46a5a1b2dcde9f17145a0e7cdbed0"),
        (0, "1d0e2ac65155d054ca490100dd5f47a7718138be9d02971fef785598acc23914"),
        (0, "57361efa9666f98f340b169094a11e29c21fa3e247e97f3c635a228a60194934"),
    ),
    "x^5 - x^4 - 4*x^3 + 3*x^2 + 3*x - 1": (
        (0, "b5c45400a4c557be1d5790e06526a59c6b010cc1b4464ccc6539cdf05c789f49"),
        (2, "13035b7b41194eac217dda3c66240b4c28f28a40f758164c3f74fc35d5c0a021"),
        (2, "dd6a20d12762fbb6734169c3704a16efecc4012a306593142bbe8e7c824fddf1"),
        (0, "bc4046c90b4a2ea2111ee4ceb3d6e1d2e163f3df9f9aa5d13ccde7168754ff35"),
        (2, "8aa96a0365b8665c8553e7ea3db54f06cddc49e0edd6fccc3a83787953c08e57"),
        (0, "4042dc2abef7dbb1fbaf6f951c8b87e023f7018212ee8b208f2b5f4810669224"),
        (0, "b0e3e0f95ff12400f3a9494c4a6bc6a86d5fe977d328fb4928af803b154368bb"),
    ),
    "x^4 - 5*x^2 + 6": (
        (1, "a08a7095db9ca2598e857df5fab58658f29d2f93c7f9b18adbaa8e351bf1f4f5"),
        (1, "107799e8831dbb988febdc2ec8da9458eb13d4c34d117bc1d192d64756d475cd"),
        (1, "81b6a75a5a7c23b06e6789b8a435c8286692bfed9192ff06ea3aee8578ff1618"),
        (1, "b3941b23b0c9a7f3a0e52022287e42c2fbfc321bf38f11a17ab2bdf51bc8ca06"),
        (1, "25b7d564192b8bec826877d58e41f9e86cddec048bcbf100d92557657b9cbdb6"),
        (1, "fffa4da2002acdfa0be9b1afca501ad83ef948942406ab1ed1875f7f96cf889c"),
        (1, "e6173302cd7c13eeda99e8364426d1135781b094a0119e525e428ddb5e149b5d"),
    ),
    "x^5 + x^4 - 4*x^3 - 4*x^2 + 4*x + 4": (
        (1, "bb463b696ff75672baab6b3d9f0189f50b0916e95f6ccc29d1a4adb35f2be3f3"),
        (1, "b0d5d53f20cd9626cb8999bddb3ca20d9ad2f99d215ced9b75f234caae8975f0"),
        (1, "6f639f9ca745f2dbaf599b9db44ec461c7205be7723a99e2cf17ce0711376701"),
        (1, "e3484b90a97ffe070130096bf52411f9d3fd48ef7ac6e73e738f49faafbdc69f"),
        (1, "7d54f82452a2bcac32a512340f96c1903c0c57892947ce43d2ca09af0b1a5f97"),
        (1, "fa0758ad4ad01e3d7058040f4a3d0fdb1e2ea5f8c076cb075954f5bab05439a4"),
        (1, "2317a713472d3770ddb7e089a6c9b7a20e76ea799e07536ac36740c220e93421"),
    ),
    "x^3 - x^2 - 2*x - 8": (
        (1, "bcbabd405e50c527c71a0aead39db0dfbc83265fd92aafe271b72f3df4a2307f"),
        (1, "8f453742596a4515bd23f751bd68365d653d44dc6ad2334f26404308c7d0cf4b"),
        (2, "c5c8e9bd9ee2b37dfd2a1fdb7f429ac0a11eff2cf1cd98eb8304bcc0cb58c406"),
        (0, "c5db98434b39173a61e9c43457705d65a3a34e9eab69f5f7eef11a973fad3155"),
        (1, "341166f6637d05ca934346565933fc6f271b975c13ff405f729255c083b3a104"),
        (0, "1f38964b034c634ea00c4751aefa2b847b4b57144d64ecd71519895384a45fe5"),
        (1, "a2849ec50bfa04ddc11e17b49f95ac806ff8e961bf57fb95eb51bba0e8afb2cb"),
    ),
}


def assert_json_bytes(capsys, argv, code, digest):
    assert run(["--output", "json", *argv]) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def field_sweep_cases():
    for poly, expected in FIELD_CONSTRUCTION_GOLDEN.items():
        for cmd, (code, digest) in zip(FIELD_SWEEP_COMMANDS, expected):
            head = 2 if cmd[0] in ("check", "frey") else 1
            argv = [*cmd[:head], poly, *cmd[head:]]
            yield pytest.param(argv, code, digest,
                               id=f"{' '.join(cmd[:head])} {poly}")


# check on every criterion and on the thm-7-3 alias, per field; the S-unit
# criteria take --bound 2 and the field's class number options.  Per field,
# the (exit code, sha256 of the JSON bytes) of each request, taken while the
# criteria were still listed apart in criteria.py and cli.py, and taken again
# when check stopped taking --r; only result.r and command.r went.  The S-unit
# rows were taken again when each hypothesis got one status: its "status" key
# replaced "caveat" and "assumed" (and an assumption's "note"), and the
# caveats became one line per hypothesis that is not proven.
CHECK_REQUESTS = (
    ("thm-3-2", "--bound", "2"), ("thm-3-3", "--bound", "2"),
    ("cor-3-4", "--bound", "2"), ("thm-5-2", "--bound", "2"),
    ("thm-7-1", "--l", "7"), ("cor-7-2",), ("thm-7-3-1", "--l", "7"),
    ("thm-7-3-2",), ("thm-7-3", "--mode", "1", "--l", "7"),
    ("thm-7-3", "--mode", "2"),
)
CHECK_GOLDEN = {
    ("x",): (
        (3, "39351a96d5800ac6336b8c76effa0ace48da6bf1e28ed5b9df9b85e4b94f0015"),
        (3, "e3044afdbbf1c232d4b2e475700c6887dc2abd0c8a588dbcc74b4b4a06ff08c8"),
        (3, "69a89bdf0e525467ce4429a225e8a9036e0deae4441ee4b6af0413a4a0375dd5"),
        (3, "6e1c5ed4f7a8d5c2b80793be186a7c8d4d385a51fd702d8bfe22b3ccfcf96c70"),
        (0, "2e9095b8bfc4d2d869189a6479d79184da536239098463afce6710d102b9894c"),
        (0, "2fd65fefe6518047265b19b14a30427b273b446338d24125dce7838edf7f2224"),
        (0, "fa50c7f208d1df38421a3d99ce805bc4945be078b1a9867490f493378e9af7e4"),
        (0, "81656e0ac6aae0f964d583c3c3950cc3487dd7465bbd7c3d5a539a9f99d030be"),
        (0, "1d3c15d7c7c7f1634a4a1810d7dbdfffb3f2414e6093085c559f115f567feec4"),
        (0, "2ad389f0e10c202f11d3864aa702d030c56071f187a6b4ccb640777b18345870"),
    ),
    ("x^2-x-1",): (
        (3, "bfabfe46539144321bd12ece22fd28142f92a78a46292f495db54f94c8e0425a"),
        (2, "9dbc35e27b242712c9d4e44a1fecee4d82997baa9b2c62e3f32d4e0f412ba8c8"),
        (2, "b95a6d8119992d3e70f3f107eed2a9f219d5bb2359d77ca834b2e178bdfddbac"),
        (3, "74557d3edb9a81a91737468246809caf2f8f86564d5c4209db4f3b5af5c860ae"),
        (2, "64443f999e54666ee351decf3c5250b13cee2c7667b941f08737b396463a9d65"),
        (2, "3dcdf3b97623cb5c703ad22e74caaa76a9c55fefb5847a52bd09ac15c1c77b7b"),
        (2, "6bbf8dcb30cffcd26dd89dd6a77682852b3c127570630dfa7b14affbdf58d1a0"),
        (2, "db019cb7d0e13256d5ab48fa69c0572e1b8c6eff130477159b92848a36e05335"),
        (2, "e4be50670950cbea1b001d510f2c61c7f69a9be60fa080f1c02a43d435b2fc42"),
        (2, "6fc12cbf1c7b051a205ad6f6689424a048c753d1ad4561bc77c224d0e341f5ad"),
    ),
    ("x^3-x^2-2*x+1", "--user-class-number", "1"): (
        (3, "e3a47c00495043133db40e0852d55a489688b6a4b25ad6e44b25f395d0104024"),
        (2, "ac2ad93916419c1000264819bf7026aee1aaf876cc274ffacae8a760606fbde2"),
        (2, "e8983c119dfe22a443b73f60eb52f772e03cda7404463e09cfeddab43a192ee5"),
        (3, "1788536d380368a49d9eca6da547d23286e164843e81873fa31bbc28d5289bed"),
        (2, "1a526448ede10e05069852236c73811969ed10bda8b1935d0392dc842fdd1e4a"),
        (2, "81d7bfac19cc230875753765ad738ea1a09fc444c723ff645bae09ed25a43605"),
        (2, "00e2de77ab385a19955d40b63f8f3e147af38c4a211ced341cf5571f23a99374"),
        (2, "2b4a8db218c8ff39f2ab2b2d41d15dddfd9b174c72640f1e5227aeb8506db71d"),
        (2, "c94756d53adbd49c36762109a03b58415a83cb5b5efd6e02554db572411ffab7"),
        (2, "4965b30a216cc62cea66c96d2cf148c14b0a431ae7251512bc5532858b94a201"),
    ),
}


def check_cases():
    for (poly, *class_number), expected in CHECK_GOLDEN.items():
        for (theorem, *options), (code, digest) in zip(CHECK_REQUESTS,
                                                       expected):
            if options[:1] == ["--bound"]:
                options += class_number
            yield pytest.param(["check", theorem, poly, *options], code,
                               digest, id=" ".join([theorem, poly, *options]))
    # a refusal: cor-7-2 reads no --bound
    yield pytest.param(
        ["check", "cor-7-2", "x", "--bound", "2"], 1,
        "d38ecbf3678ee3e72da62f3f2f164135f2361b8ef75e6cd8159105d9df022821",
        id="cor-7-2 x --bound 2")


# every command that reads a cubic's class number, on the simplest cubic with
# h = 2 and h = 3 (so h+ != 1 and thm-5-2 says no), taken while the class
# number was still passed to each function as a keyword
_CUBIC = "x^3-x^2-2*x+1"
CLASS_NUMBER_GOLDEN = [
    (["sunit", _CUBIC, "--bound", "2", "--user-class-number", "2"], 0,
     "50351af90314f54368832f523f03a34983b92dc70776a3e11a409eb3a7aba95b"),
    (["selmer", _CUBIC, "--user-class-number", "2"], 0,
     "d92354d5fb5603bcf8ab8d20a4b13c2042400f2b89b380956aebc89ac3e7d4df"),
    (["check", "thm-5-2", _CUBIC, "--bound", "2", "--user-class-number", "2"],
     2, "b0de3cd0f8a25203f57f3788f7a8d7e3bb6c1e079e7fdf272dabf0a07257b344"),
    (["frey", "2r", _CUBIC, "--a", "1", "--b", "1", "--c", "1", "--r", "1",
      "--p", "5", "--user-class-number", "2"], 0,
     "8af19a66aa02cdc201cdbe137e126c2474f4ad458bf048c83972db88209f456c"),
    (["sunit", _CUBIC, "--bound", "2", "--user-class-number", "3"], 0,
     "607b7aca397516a655e54ac17a2ade0655c6ea6b970a7823c422f53f53be1b39"),
    (["selmer", _CUBIC, "--user-class-number", "3"], 0,
     "c9d43ff10362093b4119089f6f22d0415d4da676eb5e4b7bf2e800041e1498e4"),
    (["check", "thm-5-2", _CUBIC, "--bound", "2", "--user-class-number", "3"],
     2, "57b60ef2e0657abd5c78e4943709b013d694faffecf676cea5797883b56fd2f2"),
    (["frey", "2r", _CUBIC, "--a", "1", "--b", "1", "--c", "1", "--r", "1",
      "--p", "5", "--user-class-number", "3"], 0,
     "eb49c6b9a52d44d1c809e921292bda535a771e5d0d19af31caf9806a359eda7e"),
]


class TestGoldenBytes:
    """sha256 of the --output json bytes of the sunit-box requests of the
    benchmark and of one thm-5-2 check, taken when elements were still
    written and ordered through Fraction coordinates, of the field-sweep
    requests on five fields (FIELD_CONSTRUCTION_GOLDEN), and of one frey
    request whose conductor carries the representative of the non-trivial
    class of x^2 - 10 (h = 2), taken when every prime up to the enumeration
    bound was factored and sorted before any class test, and of check on
    every criterion (CHECK_GOLDEN).  The cubic sunit
    request was taken again when the command echo began to carry
    --user-class-number; only its "command" key changed.  The thm-5-2
    request was taken again when check stopped taking --r; only result.r
    and command.r went.  It and the S-unit rows of CHECK_GOLDEN were taken
    again when each hypothesis got one status: the "status" key of a
    hypothesis that is not proven replaced "caveat", "assumed" and an
    assumption's "note", and the caveats became one line per such
    hypothesis; witnesses, notes, applies and exit codes stayed.  Three
    frey requests were taken while every Frey invariant was still computed
    on field elements: a 2r triple of halves, a 2r request with r = 6 (so
    the scale 2^(8 - 2r) is a fraction), and the README's pp2 request with
    the irrational c = x.  The pp2 one was taken again when pp2 began to
    refuse --r; only command.r went.  CLASS_NUMBER_GOLDEN was taken while
    every S-unit function still took the class number as a keyword.  The
    last two frey rows were taken when frey began to refuse a triple that is
    not integral at --prime or has a zero entry; before, both exited 0 with
    a "good" report at 3."""

    @pytest.mark.parametrize("argv, code, digest", [
        (["sunit", "x^2-2", "--bound", "20"], 0,
         "3883efd5dc5d565dba449879f40b55b58afe00edbbbf6b6360ea19d5da3f331e"),
        (["sunit", "x^2-x-4", "--bound", "6"], 0,
         "5620819640d6ef0f6c307bf31b047629dbbc2c72d910caf8f475ade59bbe82cf"),
        (["sunit", "x^3-x^2-2*x+1", "--bound", "3", "--user-class-number", "1"],
         0, "f6bc0755b632a3596cf742bdbf469c454a134bd8492ac53c0ceb8c766d39d846"),
        (["check", "thm-5-2", "x^2-2", "--bound", "3"], 3,
         "254ad0d56d570db8468f300b8f4ff5a25547af48bdbb5738a6d7c096dd429780"),
        (["frey", "2r", "x^2-10", "--a", "1", "--b", "1", "--c", "1",
          "--r", "1", "--p", "5"], 0,
         "8a4932bf9d3e82daaed0718b072e08048c3fba35f31ee41de34b7f0acfe8c3e5"),
        (["frey", "2r", "x^2-2", "--a", "1/2", "--b", "1/2", "--c", "1/2",
          "--r", "1", "--p", "3", "--prime", "3"], 0,
         "6e66d90db3230611d6a730a47a437f38e0e99f659383adcbc9e845e544b4a7bd"),
        (["frey", "2r", "x^3-2", "--a", "1", "--b", "1", "--c", "1/2",
          "--r", "6", "--p", "5", "--prime", "5"], 0,
         "89cd81ecc640426e2f4c30d9e59211e9aa0d448b2fcf3f242ddd59af660e4431"),
        (["frey", "pp2", "x^2 - 2", "--a", "1", "--b", "1", "--c", "x",
          "--p", "3", "--prime", "2"], 0,
         "8b84561a12ba8b35e256ea8d4db7dadbd6a4c0dfe31296c7b3472c532f014a8a"),
        *CLASS_NUMBER_GOLDEN,
        (["frey", "2r", "x", "--a", "1/3", "--b", "1/3", "--c", "1/3",
          "--r", "1", "--p", "5", "--prime", "3"], 1,
         "d0d241ad8a2836ed603148c63f2da6bcddec3c1ae7227f62648b6aa64c0364bd"),
        (["frey", "pp2", "x", "--a", "0", "--b", "1", "--c", "1",
          "--prime", "3"], 1,
         "589fc096ede79d94bc5e21bb650aaecb23c088a7c391232901fee886b9c93551"),
    ], ids=["sunit-sqrt2", "sunit-x2-x-4", "sunit-cubic", "thm-5-2-sqrt2",
            "frey-2r-x2-10", "frey-2r-halves", "frey-2r-r6-cubic",
            "frey-pp2-sqrt2-readme",
            *(f"{'-'.join(argv[:argv.index(_CUBIC)])}-cubic-h{argv[-1]}"
              for argv, _, _ in CLASS_NUMBER_GOLDEN),
            "frey-2r-thirds", "frey-pp2-zero-entry"])
    def test_json_bytes(self, capsys, argv, code, digest):
        assert_json_bytes(capsys, argv, code, digest)

    @pytest.mark.parametrize("argv, code, digest", field_sweep_cases())
    def test_field_construction_bytes(self, capsys, argv, code, digest):
        assert_json_bytes(capsys, argv, code, digest)

    @pytest.mark.parametrize("argv, code, digest", check_cases())
    def test_check_bytes(self, capsys, argv, code, digest):
        assert_json_bytes(capsys, argv, code, digest)


def run_fresh(argv):
    """(exit code, stdout) of one run in a new interpreter."""
    src = str(Path(afcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from afcheck.cli import run; sys.exit(run(sys.argv[1:]))",
         *argv], capture_output=True, text=True, env=env, timeout=120,
        check=False)
    return proc.returncode, proc.stdout


class TestParserReuse:
    """Consecutive run() calls in one process must answer as if each ran
    alone."""

    def sequence_matches_fresh_runs(self, capsys, argvs):
        for argv in argvs:
            code = run(argv)
            assert (code, capsys.readouterr().out) == run_fresh(argv), argv

    def test_bound_does_not_carry_over(self, capsys):
        first = ["--output", "json", "sunit", "x^2-2", "--bound", "3"]
        second = ["--output", "json", "sunit", "x^2-2"]
        self.sequence_matches_fresh_runs(capsys, [first, second])
        run(second)
        assert "bound" not in json.loads(capsys.readouterr().out)["command"]

    def test_usage_error_then_valid_request(self, capsys):
        self.sequence_matches_fresh_runs(capsys, [
            ["--output", "json", "check", "nonsense-theorem", "x"],
            ["--output", "json", "field", "x^2 - 2"]])


class TestPerRequestWork:
    """Unit and class data of a field are computed once per request; nothing
    is kept from one run() to the next."""

    THM_5_2_CUBIC = ["check", "thm-5-2", "x^3-x^2-2*x+1", "--bound", "3",
                     "--user-class-number", "1"]

    def test_thm_5_2_cubic_units_once_per_request(self, capsys, monkeypatch):
        from afcheck import units
        calls = {}
        for name in ("_cubic_fundamental_pair", "_h_plus_from_unit_signs"):
            original = getattr(units, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(units, name, spy)
        code, _ = run_json(capsys, self.THM_5_2_CUBIC)
        assert code in (2, 3)
        assert calls == {"_cubic_fundamental_pair": 1,
                         "_h_plus_from_unit_signs": 1}
        run_json(capsys, self.THM_5_2_CUBIC)
        assert calls == {"_cubic_fundamental_pair": 2,
                         "_h_plus_from_unit_signs": 2}


def reference_parser():
    """The argparse tree that parsed afcheck's command line before the
    command table replaced it, kept as the reference for the table's parse."""
    top = argparse.ArgumentParser(prog="afcheck")
    top.add_argument("--output", choices=("human", "json"), default="human")
    top.add_argument("--seed", type=int, default=0)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field")
    p.add_argument("poly")

    p = sub.add_parser("sunit")
    p.add_argument("poly")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("selmer")
    p.add_argument("poly")
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("frey")
    p.add_argument("family", choices=(FAMILY_TWO_POWER, FAMILY_SQUARE))
    p.add_argument("poly")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--p", default="symbolic")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("check")
    p.add_argument("theorem", choices=(*CRITERIA, "thm-7-3"))
    p.add_argument("poly")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--mode", type=int, default=None)
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("scan")
    p.add_argument("poly")
    p.add_argument("--l-max", type=int, default=None)
    return top


REFERENCE = reference_parser()


def reference_parse(argv):
    """argparse's namespace as a dict, or None if argparse refuses argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(REFERENCE.parse_args(argv))
    except SystemExit:
        return None


def table_parse(argv):
    try:
        return cli._parse_argv(argv)
    except cli._UsageError:
        return None


def readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line, comments=True)[1:]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("afcheck ")]


def workload_argvs():
    """The request shapes of the benchmark's three workloads."""
    argvs = [["sunit", "x^2-2", "--bound", "20"],
             ["sunit", "x^2-x-4", "--bound", "6"],
             ["sunit", "x^3-x^2-2*x+1", "--bound", "3",
              "--user-class-number", "1"]]
    argvs += [["check", theorem, *argv[1:]] for argv in argvs
              for theorem in ("thm-3-2", "thm-3-3", "cor-3-4", "thm-5-2")]
    argvs += [argv for argv, _, _ in
              (case.values for case in field_sweep_cases())]
    return [["--output", "json", *argv] for argv in argvs]


# Values drawn for options, the good ones more often: none starts with "-"
# unless it is a number.
INT_VALUES = ("0", "1", "3", "17", "-1", "-40", "+5", " 7") * 4 + (
    "x", "", "1.5")
STR_VALUES = ("1", "x", "x^2 + 1", "x/2", "5", "symbolic", "", "-3", "-0.5")
POSITIONAL_VALUES = ("x", "x^2-2", "x^3 - x^2 + 1", "-2, 0, 1", "-3", "-",
                     "", "-x", "pp2", "thm-7-3", "nonsense")
OPTION_NAMES = sorted({name for _, _, options, _ in (cli._TOP,
                                                      *cli._COMMANDS.values())
                       for name in options} | {"--nope"})


@st.composite
def option_words(draw, name, options):
    """An option as one or two words: the name, a prefix of it or "--=",
    its value after "=" or as the next word."""
    spelled = "--" if not draw(st.integers(0, 19)) else draw(st.sampled_from(
        [name[:k] for k in range(3, len(name))] + [name] * 3))
    _, _, choices = options.get(name, (str, None, None))
    converter = options.get(name, (str,))[0]
    values = (*choices * 4, "xml") if choices else (
        INT_VALUES if converter is int else STR_VALUES)
    value = draw(st.sampled_from(values))
    if spelled == "--" or draw(st.integers(0, 3)) == 0:
        return [f"{spelled}={value}"]
    return [spelled, value]


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines, each perhaps broken in one or two
    places: an unknown or misplaced option, a bad value or choice, a missing
    positional, option or value, a surplus word."""
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        top_options = cli._TOP[2]
        name = draw(st.sampled_from([*top_options, "--nope"]))
        argv += draw(option_words(name, top_options))
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["nonsense"]))
    if draw(st.integers(0, 9)):
        argv.append(command)
    _, positionals, options, required = cli._COMMANDS.get(
        command, cli._COMMANDS["field"])
    groups = []
    for name, choices in positionals:
        if draw(st.integers(0, 9)):
            groups.append([draw(st.sampled_from(
                (*(choices or ("x", "x^2-2")),) * 4 + POSITIONAL_VALUES))])
    for name in options:
        if name in required or draw(st.booleans()):
            if draw(st.integers(0, 11)):
                groups.append(draw(option_words(name, options)))
    if not draw(st.integers(0, 4)):
        name = draw(st.sampled_from(OPTION_NAMES))
        groups.append(draw(option_words(name, options)))
    if not draw(st.integers(0, 9)):
        groups.append([draw(st.sampled_from(POSITIONAL_VALUES))])
    groups = draw(st.permutations(groups))
    if not draw(st.integers(0, 9)):
        groups.insert(draw(st.integers(0, len(groups))), ["--"])
    argv += [word for group in groups for word in group]
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(sorted(options) or ["--x"])))
    return argv


class TestCommandTable:
    """The command table parses every command line as the former argparse
    tree did: the same mapping, or a refusal by both."""

    @pytest.mark.parametrize("argv", workload_argvs(), ids=" ".join)
    def test_workload_shapes(self, argv):
        assert table_parse(argv) == reference_parse(argv) is not None

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_readme_examples(self, argv):
        assert table_parse(argv) == reference_parse(argv) is not None

    def test_readme_has_examples(self):
        assert len(readme_examples()) >= 10

    @pytest.mark.parametrize("argv", [
        ["--output=json", "sunit", "x", "--bo=3"],
        ["--o", "json", "--se", "5", "check", "--b", "2", "thm-3-2", "x",
         "--u", "1"],
        ["frey", "2r", "x", "--a", "1", "--b", "1", "--c", "1", "--p=7",
         "--pr", "2", "--p", "5"],
        ["sunit", "x", "--bound", "3", "--bound", "4"],
        ["sunit", "x", "--bound", "-1"],
        ["sunit", "-3"], ["field", "-2, 0, 1"], ["field", "--", "-2,0,1"],
        ["frey", "2r", "x", "--a=-x", "--b", "1", "--c", "1"],
        ["field", ""],
    ])
    def test_accepted_alike(self, argv):
        assert table_parse(argv) == reference_parse(argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["--output", "json"], ["nonsense", "x"], ["--", "field", "x"],
        ["--output", "xml", "field", "x"], ["field", "x", "--output", "json"],
        ["sunit", "x", "--nope", "1"], ["sunit", "x", "y"], ["sunit", "-3."],
        ["sunit", "x", "--bound"], ["sunit", "x", "--bound", "three"],
        ["check", "nonsense", "x"], ["check", "thm-3-2"],
        ["frey", "2r", "x", "--a", "1", "--c", "1"], ["frey", "x"],
        ["sunit", "x", "--=3"], ["field", "x", "--help=3"],
        ["field", "-x"], ["sunit", "x", "--", "--bound", "3"],
    ])
    def test_refused_alike(self, argv):
        assert table_parse(argv) is None
        assert reference_parse(argv) is None

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_drawn_command_lines(self, argv):
        expected = reference_parse(argv)
        if expected is None and argv[-1:] == ["--"]:
            # see test_last_separator
            expected = reference_parse(argv[:-1])
        assert table_parse(argv) == expected

    def test_last_separator(self):
        # argparse keeps a last "--" only after a positional word; the
        # table ends the options there and reads nothing more
        argv = ["selmer", "x", "--user-class-number", "1"]
        assert reference_parse(argv + ["--"]) is None
        assert table_parse(argv + ["--"]) == reference_parse(argv)
        assert table_parse(["field", "x", "--"]) == reference_parse(
            ["field", "x", "--"]) is not None

    def test_option_value_is_the_next_word(self):
        # argparse refused a value that looks like an option; the table
        # takes the next word whatever it is
        argv = ["frey", "2r", "x", "--a", "-x", "--b", "1", "--c", "1"]
        assert reference_parse(argv) is None
        args = table_parse(argv)
        assert args["a"] == "-x" and args["b"] == "1"

    @pytest.mark.parametrize("argv, command", [
        (["-h"], None), (["--output", "json", "--help"], None),
        (["--nope", "--he"], None), (["frey", "-h"], "frey"),
        (["check", "thm-3-2", "--he"], "check"),
        (["sunit", "x", "--nope", "--help"], "sunit"),
    ])
    def test_help(self, capsys, argv, command):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: afcheck {command or ''}".rstrip()
                              + " [-h] ")
        if command is None:
            assert "[--output {human,json}] [--seed SEED]" in out
            assert all(f"\n  {name:8}{help_line}\n" in out
                       for name, (help_line, *_) in cli._COMMANDS.items())
        else:
            assert f"\n{cli._COMMANDS[command][0]}\n" in out
        if command == "frey":
            assert " --a A --b B --c C [--r R] " in out

    @pytest.mark.parametrize("argv, reason", [
        (["check", "thm-3-2", "x", "--bound", "x"],
         "argument --bound: invalid int value: 'x'"),
        (["frey", "2r", "x", "--a", "1"],
         "the following arguments are required: --b, --c"),
        (["sunit", "x", "y"], "unrecognized arguments: y"),
        (["--output", "xml", "field", "x"],
         "argument --output: invalid choice: 'xml' (choose from human, json)"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error(self, capsys, argv, reason):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: afcheck")
        assert error == f"afcheck: error: {reason}"

    def test_import_leaves_argparse_out(self):
        src = str(Path(afcheck.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, afcheck.cli; "
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120, check=True)
        assert proc.stdout.strip() == "[]"
