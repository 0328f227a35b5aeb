"""CLI exit codes, canonical JSON and report round-trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import afcheck
from afcheck.cli import _parser, run
from afcheck.frey import ValuationForm
from afcheck.report import build_report, emit_json, parse_report, to_jsonable


def run_json(capsys, argv):
    code = run(["--output", "json"] + argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


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
        again = parse_report(text)
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

    def test_scan_command(self, capsys):
        code, rep = run_json(capsys, ["scan", "x^3 - x^2 + 1"])
        assert code == 0
        assert rep["result"]["candidates"][0]["l"] == 23

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "afcheck.conf"
        cfg.write_text("sunit_exponent_bound = 2\n# comment\nseed = 7\n")
        code, rep = run_json(capsys, ["--config", str(cfg), "sunit", "x"])
        assert code == 0
        assert rep["result"]["bound"] == 2
        assert rep["command"]["seed"] == 7

    @pytest.mark.parametrize("line", ["nope = 1", "allow_trivial_ideal = true"],
                             ids=["unknown", "ignored"])
    def test_bad_config_key(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(line + "\n")
        code, _ = run_json(capsys, ["--config", str(cfg), "field", "x"])
        assert code == 1

    @pytest.mark.parametrize("h", [0, -1])
    @pytest.mark.parametrize("argv", [
        ["sunit", "x^2-2", "--bound", "2"],
        ["selmer", "x^2-2"],
        ["check", "thm-3-2", "x^2-2", "--bound", "2"],
    ], ids=["sunit", "selmer", "check"])
    def test_class_number_flag_below_one(self, capsys, argv, h):
        code, rep = run_json(capsys, argv + ["--user-class-number", str(h)])
        assert code == 1
        assert rep["result"]["error"]["type"] == "ParseError"
        assert "at least 1" in rep["result"]["error"]["message"]

    FREY_CUBIC = ["frey", "2r", "x^3-x^2-2*x+1", "--a", "1", "--b", "1",
                  "--c", "1", "--r", "1", "--p", "5"]

    @pytest.mark.parametrize("h", [0, -1])
    @pytest.mark.parametrize("argv", [
        ["sunit", "x^2-2", "--bound", "2"], FREY_CUBIC,
    ], ids=["sunit", "frey"])
    def test_class_number_config_below_one(self, capsys, tmp_path, argv, h):
        cfg = tmp_path / "h.conf"
        cfg.write_text(f"user_class_number = {h}\n")
        code, rep = run_json(capsys, ["--config", str(cfg)] + argv)
        assert code == 1
        assert rep["result"]["error"]["type"] == "ParseError"

    def test_class_number_config_reaches_frey(self, capsys, tmp_path):
        cfg = tmp_path / "h.conf"
        cfg.write_text("user_class_number = 1\n")
        code, rep = run_json(capsys, ["--config", str(cfg)] + self.FREY_CUBIC)
        assert code == 0
        qs = [f["prime"]["q"] for f in rep["result"]["conductor"]["conductor"]]
        assert qs == [2, 7]

    @pytest.mark.parametrize("argv", [
        ["sunit", "x^2-2", "--bound", "2"],
        ["selmer", "x^2-2"],
        ["check", "thm-3-2", "x^2-2", "--bound", "2"],
        ["check", "thm-5-2", "x^2-2", "--bound", "1"],
        ["frey", "2r", "x^2-2", "--a", "1", "--b", "1", "--c", "1",
         "--r", "1", "--p", "5"],
    ], ids=["sunit", "selmer", "check", "thm-5-2", "frey"])
    def test_class_enum_bound_config_reaches_the_enumeration(
            self, capsys, tmp_path, monkeypatch, argv):
        from afcheck import units
        seen = []
        original = units._collect_reps

        def spy(field, h, enum_bound, **kw):
            seen.append(enum_bound)
            return original(field, h, enum_bound, **kw)

        monkeypatch.setattr(units, "_collect_reps", spy)
        cfg = tmp_path / "enum.conf"
        cfg.write_text("class_enum_bound = 3\n")
        code, _ = run_json(capsys, ["--config", str(cfg)] + argv)
        assert code != 1
        assert seen and set(seen) == {3}

    def test_class_enum_bound_below_every_odd_prime_ideal(self, capsys,
                                                          tmp_path):
        # 3 divides the index of Z[sqrt(18)], so no odd prime ideal is
        # enumerated within q <= 3, and the S-unit basis has no class data
        argv = ["sunit", "x^2-18", "--bound", "2"]
        assert run_json(capsys, argv)[0] == 0
        cfg = tmp_path / "enum.conf"
        cfg.write_text("class_enum_bound = 3\n")
        code, rep = run_json(capsys, ["--config", str(cfg)] + argv)
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "BasisUnavailable"
        assert "enumeration bound" in error["message"]

    def test_check_thm_7_3_mode_alias(self, capsys):
        code, rep = run_json(capsys, ["check", "thm-7-3", "x", "--mode", "2"])
        assert code == 0
        assert rep["result"]["theorem"] == "thm-7-3-2"

    def test_human_output_runs(self, capsys):
        assert run(["field", "x^2 - 2"]) == 0
        out = capsys.readouterr().out
        assert "signature" in out and "totally-ramified" in out


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
        # d = 100001 = 1 mod 4: the Pell unit has 110 digits, so the
        # half-integer unit comes from a cube root, and the generator of the
        # prime above 2 lies beyond the budget of the y search
        code, rep = self.timed(capsys, ["sunit", "x^2-x-25000",
                                        "--bound", "1"])
        assert code == 1
        error = rep["result"]["error"]
        assert error["type"] == "BasisUnavailable"
        assert "no generator of norm 2" in error["message"]

    def test_reduced_forms_beyond_the_budget(self, capsys):
        # the class number of a 31-digit discriminant would take about
        # 3*10^30 reduced-form steps
        poly = f"x^2 - {10 ** 30 + 99}"
        code, rep = self.timed(capsys, ["check", "thm-5-2", poly])
        assert code == 1
        assert rep["result"]["error"]["type"] == "SearchExhausted"
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


class TestGoldenBytes:
    """sha256 of the --output json bytes of the sunit-box requests of the
    benchmark and of one thm-5-2 check, taken when elements were still
    written and ordered through Fraction coordinates."""

    @pytest.mark.parametrize("argv, code, digest", [
        (["sunit", "x^2-2", "--bound", "20"], 0,
         "3883efd5dc5d565dba449879f40b55b58afe00edbbbf6b6360ea19d5da3f331e"),
        (["sunit", "x^2-x-4", "--bound", "6"], 0,
         "5620819640d6ef0f6c307bf31b047629dbbc2c72d910caf8f475ade59bbe82cf"),
        (["sunit", "x^3-x^2-2*x+1", "--bound", "3", "--user-class-number", "1"],
         0, "42a959e1fd644c34ec9c8a1466ae617b826ae4a092ce050ad317e195c58431f2"),
        (["check", "thm-5-2", "x^2-2", "--bound", "3"], 3,
         "4988fb1d09a1cf8aba5c08963278472d394db0de9920d23fce05696dbe48a1a4"),
    ], ids=["sunit-sqrt2", "sunit-x2-x-4", "sunit-cubic", "thm-5-2-sqrt2"])
    def test_json_bytes(self, capsys, argv, code, digest):
        assert run(["--output", "json", *argv]) == code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


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
    """run() keeps one argparse tree per process; consecutive calls must
    answer as if each ran alone."""

    def sequence_matches_fresh_runs(self, capsys, argvs):
        assert _parser() is _parser()
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

    def test_config_does_not_carry_over(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text("sunit_exponent_bound = 3\n")
        self.sequence_matches_fresh_runs(capsys, [
            ["--output", "json", "--config", str(cfg), "sunit", "x"],
            ["--output", "json", "sunit", "x"]])


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

    def test_thm_5_2_honours_unit_height_bound(self, capsys, monkeypatch,
                                               tmp_path):
        from afcheck import sunits, units
        seen = []
        original = units.unit_generators

        def spy(field, height_bound=units.DEFAULT_UNIT_HEIGHT_BOUND):
            if field.degree == 3:
                seen.append(height_bound)
            return original(field, height_bound)

        monkeypatch.setattr(units, "unit_generators", spy)
        monkeypatch.setattr(sunits, "unit_generators", spy)
        cfg = tmp_path / "units.cfg"
        cfg.write_text("unit_height_bound = 7\n")
        code, _ = run_json(capsys, ["--config", str(cfg)] + self.THM_5_2_CUBIC)
        assert code in (2, 3)
        # class_data, the base-field search and the Selmer group
        assert len(seen) >= 3 and set(seen) == {7}
