"""Canonical JSON reporting: sorted keys, exact numbers, byte-stable output.

No floating point ever appears in a report.  Rationals serialize as
"num/den" strings, integers beyond the 53-bit range as decimal strings so
that consumers in any language reproduce them exactly.
"""

import json
from fractions import Fraction

SCHEMA_VERSION = "1"
_SAFE_INT = (1 << 53) - 1
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False)


def to_jsonable(obj):
    """Recursive conversion to JSON-safe values under the exactness rules.

    A report is made of int, Fraction, dict, list, tuple, str, bool and
    None, told apart by type(); a float or any other value is refused."""
    t = type(obj)
    if t is int:
        return obj if -_SAFE_INT <= obj <= _SAFE_INT else str(obj)
    if t is dict:
        return {k if type(k) is str else str(k): to_jsonable(v)
                for k, v in obj.items()}
    if t is list or t is tuple:
        return [to_jsonable(v) for v in obj]
    if t is str or t is bool or obj is None:
        return obj
    if t is Fraction:
        if obj.denominator == 1:
            return to_jsonable(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if t is float:
        raise TypeError("floating point is not allowed in reports")
    raise TypeError(f"cannot serialize {t.__name__}")


def field_summary(field):
    return {
        "poly": list(field.coeffs),
        "degree": field.degree,
        "signature": list(field.signature),
        "poly_disc": field.poly_disc,
        "field_disc": field.field_disc,
    }


def build_report(field, command, payload, caveats, timing):
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field_summary(field) if field is not None else None,
        "command": command,
        "result": payload,
        "caveats": caveats,
        "timing": timing,
    }


def emit_json(report) -> str:
    """Canonical byte-stable JSON: sorted keys, compact, trailing newline."""
    stripped = dict(report)
    stripped["timing"] = None  # wallclock would break byte stability
    return _ENCODER.encode(to_jsonable(stripped)) + "\n"


def emit_human(report) -> str:
    lines = []
    field = report.get("field")
    if field:
        lines.append(f"field: {field['poly']} "
                     f"(degree {field['degree']}, signature {tuple(field['signature'])}, "
                     f"disc {field['poly_disc']})")
    lines.append(f"command: {report['command']}")
    result = to_jsonable(report["result"])
    if isinstance(result, dict) and "hypotheses" in result and "applies" in result:
        _render_verdict(result, lines)
    else:
        _render(result, lines, indent=1)
    for caveat in report.get("caveats", []):
        lines.append(f"caveat: {caveat}")
    if report.get("timing") is not None:
        lines.append(f"elapsed: {report['timing']:.3f}s")
    return "\n".join(lines) + "\n"


def _render_verdict(result, lines):
    """Marks each hypothesis yes or NO when proven, else by its status kind
    (with NO when it fails); the status in full, with the reason of an
    assumed one, is on the report's caveat line for that hypothesis."""
    lines.append(f"  theorem: {result['theorem']}")
    lines.append(f"  applies: {result['applies']}")
    rows = []
    for hyp in result["hypotheses"]:
        kind = hyp.get("status", ["proven"])[0]
        if kind == "proven":
            mark = "yes" if hyp["holds"] else "NO"
        else:
            mark = kind if hyp["holds"] else f"NO ({kind})"
        rows.append((mark, hyp["name"]))
    width = max(len(s) for s, _ in rows)
    lines.append("  hypotheses:")
    for mark, name in rows:
        lines.append(f"    [{mark:>{width}}] {name}")
    for hyp in result["hypotheses"]:
        wit = hyp.get("witness")
        if hyp["holds"] or not isinstance(wit, dict):
            continue
        if "counterexample" in wit:
            wit = wit["counterexample"]
        if "lambda" in wit:
            lines.append(f"  counterexample: lambda={wit['lambda']} "
                         f"mu={wit['mu']}")
    for note in result.get("notes", []):
        lines.append(f"  note: {note}")
    lines.append(f"  conclusion (when hypotheses hold): {result['conclusion']}")


def _render(obj, lines, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                _render(v, lines, indent + 1)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}- [{i}]")
                _render(v, lines, indent + 1)
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
