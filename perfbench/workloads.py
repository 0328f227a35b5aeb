"""Request lists of the three workloads, generated from the seed.

The seed orders the fixed request lists of ``sunit-box`` and
``criteria-suite`` and draws the fields of ``field-sweep``; afcheck itself
only sees the resulting argv.  Each request carries what its checks need.
"""

import random
from dataclasses import dataclass

# sunit poly -> (argv tail, solution count recorded at the commit that
# introduced this benchmark).  S_K lies above 2 in each of these fields.
SUNIT_BOX = {
    "x^2-2": (("--bound", "20"), 33),
    "x^2-x-4": (("--bound", "6"), 123),
    "x^3-x^2-2*x+1": (("--bound", "3", "--user-class-number", "1"), 89),
}

CRITERIA_FIELDS = (
    ("x", ("--bound", "12")),
    ("x^2-x-1", ("--bound", "10")),
    ("x^2-2", ("--bound", "10")),
    ("x^2-x-4", ("--bound", "4")),
    ("x^3-x^2-2*x+1", ("--bound", "3", "--user-class-number", "1")),
)
CRITERIA = ("thm-3-2", "thm-3-3", "cor-3-4", "thm-5-2")
# (theorem, poly) -> accepted (exit code, applies) pairs, recorded at the
# commit that introduced this benchmark.
_UNKNOWN, _NO = {(3, "unknown")}, {(2, "no")}
CRITERIA_EXPECT = {
    ("thm-3-2", "x"): _UNKNOWN, ("thm-3-3", "x"): _UNKNOWN,
    ("cor-3-4", "x"): _UNKNOWN, ("thm-5-2", "x"): _UNKNOWN,
    ("thm-3-2", "x^2-x-1"): _UNKNOWN, ("thm-3-3", "x^2-x-1"): _NO,
    ("cor-3-4", "x^2-x-1"): _NO, ("thm-5-2", "x^2-x-1"): _UNKNOWN,
    ("thm-3-2", "x^2-2"): _UNKNOWN, ("thm-3-3", "x^2-2"): _NO,
    ("cor-3-4", "x^2-2"): _NO, ("thm-5-2", "x^2-2"): _UNKNOWN,
    ("thm-3-2", "x^2-x-4"): _UNKNOWN, ("thm-3-3", "x^2-x-4"): _NO,
    ("cor-3-4", "x^2-x-4"): _NO, ("thm-5-2", "x^2-x-4"): _UNKNOWN,
    ("thm-3-2", "x^3-x^2-2*x+1"): _UNKNOWN,
    ("thm-3-3", "x^3-x^2-2*x+1"): _NO,
    ("cor-3-4", "x^3-x^2-2*x+1"): _NO,
    # The class number is supplied, so a verdict is due.  afcheck exits 1
    # with BasisUnavailable instead, because check_thm_5_2 does not forward
    # user_class_number to the base-field search; the request stays in the
    # workload and counts as failed until that is fixed.
    ("thm-5-2", "x^3-x^2-2*x+1"): _UNKNOWN | _NO,
}
KNOWN_DEFECTS = {"check thm-5-2 x^3-x^2-2*x+1"}

FIELD_SWEEP_FIELDS = 200
FIELD_SWEEP_COMMANDS = (
    ("field",),
    ("check", "cor-7-2"),
    ("check", "thm-7-3", "--mode", "2"),
    ("scan", "--l-max", "1000"),
    ("check", "thm-7-1", "--l", "23"),
    ("frey", "2r", "--a", "1", "--b", "1", "--c", "1", "--r", "1", "--p", "5"),
    # 2^3 + 1^3 = 3^2 holds in every field, so the request reaches the
    # reduction reports above 2 (valuation_profile) and the conductor.
    ("frey", "pp2", "--a", "2", "--b", "1", "--c", "3", "--p", "3",
     "--prime", "2"),
)
SCAN_L_MAX = 1000
THM_7_1_L = 23


@dataclass(frozen=True)
class Request:
    argv: tuple          # afcheck arguments after "--output json"
    label: str           # command, name and field; names known defects
    poly: str
    coeffs: tuple = ()   # field-sweep only, lowest degree first


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sunit-box":
        requests = [Request(("sunit", poly) + tail, f"sunit {poly}", poly)
                    for poly, (tail, _) in SUNIT_BOX.items()]
    elif workload == "criteria-suite":
        requests = [Request(("check", thm, poly) + tail,
                            f"check {thm} {poly}", poly)
                    for poly, tail in CRITERIA_FIELDS for thm in CRITERIA]
    elif workload == "field-sweep":
        return [_sweep_request(cmd, coeffs)
                for coeffs in random_fields(rng, FIELD_SWEEP_FIELDS)
                for cmd in FIELD_SWEEP_COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


def random_fields(rng, count):
    """Distinct monic integer polynomials, degree 2-6, coefficients in [-9, 9]."""
    seen = []
    while len(seen) < count:
        degree = rng.randint(2, 6)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,)
        if coeffs not in seen:
            seen.append(coeffs)
    return seen


def _sweep_request(cmd, coeffs):
    poly = poly_text(coeffs)
    head = 2 if cmd[0] in ("check", "frey") else 1
    argv = cmd[:head] + (poly,) + cmd[head:]
    return Request(argv, " ".join(cmd[:head]) + f" {poly}", poly, coeffs)


def poly_text(coeffs):
    """``x^3 - 2*x + 5`` for (5, -2, 0, 1): leading term first, so the
    argument never starts with '-' and argparse takes it as positional."""
    text = ""
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mono = {0: "", 1: "x"}.get(power, f"x^{power}")
        mag = str(abs(c)) if power == 0 or abs(c) != 1 else ""
        term = mag + ("*" if mag and mono else "") + mono
        text += term if not text else (" - " if c < 0 else " + ") + term
    return text
