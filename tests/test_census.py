"""A census of decisiveness: how often each criterion decides.

Every criterion is run in process on Q and on the 60 real quadratic fields
Q(sqrt d), d squarefree with 2 <= d <= 100, each given by the polynomial of
its maximal order (x^2 - d, or x^2 - x - (d-1)/4 for d = 1 mod 4), with
exponent bound 4 for the S-unit criteria.  The yes/no/unknown/error tally
of each criterion is pinned: a change that moves a verdict must update the
table below and say which verdicts moved.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

from afcheck import cli

SUNIT_CRITERIA = ("thm-3-2", "thm-3-3", "cor-3-4", "thm-5-2")

# criterion -> (yes, no, unknown, error)
TALLY = {
    "thm-3-2": (0, 1, 60, 0),
    "thm-3-3": (0, 12, 49, 0),
    "cor-3-4": (0, 14, 47, 0),
    "thm-5-2": (0, 49, 12, 0),
    "cor-7-2": (1, 60, 0, 0),
}


def census_fields():
    """Q and the maximal-order polynomials of Q(sqrt d), 2 <= d <= 100."""
    polys = ["x"]
    for d in range(2, 101):
        if any(d % (k * k) == 0 for k in range(2, 11)):
            continue
        polys.append(f"x^2-x-{(d - 1) // 4}" if d % 4 == 1 else f"x^2-{d}")
    return polys


def verdict(theorem, poly):
    argv = ["--output", "json", "check", theorem, poly]
    if theorem in SUNIT_CRITERIA:
        argv += ["--bound", "4"]
    out = io.StringIO()
    with redirect_stdout(out):
        cli.run(argv)
    result = json.loads(out.getvalue())["result"]
    return "error" if "error" in result else result["applies"]


def test_census_fields():
    fields = census_fields()
    assert len(fields) == 61
    assert fields[:4] == ["x", "x^2-2", "x^2-3", "x^2-x-1"]


def test_census_tally():
    fields = census_fields()
    tally = {}
    for theorem in TALLY:
        counts = Counter(verdict(theorem, poly) for poly in fields)
        tally[theorem] = tuple(counts[v]
                               for v in ("yes", "no", "unknown", "error"))
    assert tally == TALLY
