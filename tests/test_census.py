"""A census of decisiveness: how often each criterion decides.

Every criterion is run in process on Q and on the 60 real quadratic fields
Q(sqrt d), d squarefree with 2 <= d <= 100, each given by the polynomial of
its maximal order (x^2 - d, or x^2 - x - (d-1)/4 for d = 1 mod 4), with
the command line's default exponent bound 8 for the S-unit criteria.  There
the unknown verdicts that rest on an assumed hypothesis are counted as
well.  The S-unit criteria also run on
the rest of the field set: the 19 polynomials x^2 - d with d = 1 mod 4
(bound 4), whose order is not maximal at 2; the totally real cubics of
discriminant 49, 81, 148, 169 and 229 (bound 3), with and without
--user-class-number 1; and three totally real quartics (bound 3).  The
tally of each criterion counts yes, no and unknown verdicts and each error
type apart, and is pinned: a change that moves a verdict must update the
tables below and say which verdicts moved.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest

from afcheck import cli

SUNIT_CRITERIA = ("thm-3-2", "thm-3-3", "cor-3-4", "thm-5-2")

# criterion -> outcome counts over Q and the maximal-order quadratics
TALLY = {
    "thm-3-2": {"no": 5, "unknown": 56},
    "thm-3-3": {"no": 14, "unknown": 47},
    "cor-3-4": {"no": 16, "unknown": 45},
    "thm-5-2": {"no": 51, "unknown": 10},
    "cor-7-2": {"yes": 1, "no": 60},
}

# S-unit criterion -> how many of its unknown verdicts in TALLY have a
# hypothesis with an "assumed" status
ASSUMED_UNKNOWNS = {"thm-3-2": 0, "thm-3-3": 46, "cor-3-4": 44, "thm-5-2": 9}

# squarefree d with 2 <= d <= 100
SQUAREFREE = [d for d in range(2, 101)
              if all(d % (k * k) for k in range(2, 11))]
NON_MAXIMAL = [f"x^2-{d}" for d in SQUAREFREE if d % 4 == 1]
CUBICS = ["x^3-x^2-2*x+1", "x^3-3*x+1", "x^3-x^2-3*x+1", "x^3-x^2-4*x-1",
          "x^3-4*x+1"]
QUARTICS = ["x^4-4*x^2+2", "x^4-x^3-3*x^2+x+1", "x^4-5*x^2+5"]

# group -> (polynomials, command-line tail, outcome counts of each S-unit
# criterion in the criteria order)
WIDER = {
    "non-maximal": (NON_MAXIMAL, ["--bound", "4"],
                    [{"IndexDivisor": 19}] * 4),
    "cubic-h1": (CUBICS, ["--bound", "3", "--user-class-number", "1"],
                 [{"unknown": 5}, {"no": 5}, {"no": 5},
                  {"unknown": 4, "no": 1}]),
    "cubic": (CUBICS, ["--bound", "3"], [{"BasisUnavailable": 5}] * 4),
    "quartic": (QUARTICS, ["--bound", "3"], [{"BasisUnavailable": 3}] * 4),
}


def census_fields():
    """Q and the maximal-order polynomials of Q(sqrt d), 2 <= d <= 100."""
    return ["x"] + [f"x^2-x-{(d - 1) // 4}" if d % 4 == 1 else f"x^2-{d}"
                    for d in SQUAREFREE]


def check(theorem, poly, tail):
    """The JSON result of one check."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.run(["--output", "json", "check", theorem, poly, *tail])
    return json.loads(out.getvalue())["result"]


def outcome(result):
    """The verdict of a check result, or the type of the error it ends in."""
    return result["error"]["type"] if "error" in result else result["applies"]


def rests_on_assumption(result):
    return any(h.get("status", [None])[0] == "assumed"
               for h in result["hypotheses"])


def test_census_fields():
    fields = census_fields()
    assert len(fields) == 61
    assert fields[:4] == ["x", "x^2-2", "x^2-3", "x^2-x-1"]
    assert len(NON_MAXIMAL) == 19 and NON_MAXIMAL[:2] == ["x^2-5", "x^2-13"]


def test_census_tally():
    fields = census_fields()
    tally, assumed = {}, {}
    for theorem in TALLY:
        results = [check(theorem, poly, []) for poly in fields]
        tally[theorem] = Counter(map(outcome, results))
        if theorem in SUNIT_CRITERIA:
            assumed[theorem] = sum(rests_on_assumption(r) for r in results
                                   if outcome(r) == "unknown")
    assert tally == TALLY
    assert assumed == ASSUMED_UNKNOWNS


@pytest.mark.parametrize("group", WIDER)
def test_census_wider_tally(group):
    polys, tail, expected = WIDER[group]
    tally = [Counter(outcome(check(theorem, poly, tail)) for poly in polys)
             for theorem in SUNIT_CRITERIA]
    assert tally == expected
