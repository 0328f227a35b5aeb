"""Command-line driver.

Subcommands: field, sunit, selmer, frey, check, scan.  Exit codes expose the
three-valued verdict semantics at the shell level: 0 = ran (verdict yes or
data produced), 2 = verdict no, 3 = verdict unknown under bounded search,
1 = error (structured JSON object in json mode).
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields
from functools import cache

from .criteria import (CONCLUSIONS, check_cor_3_4, check_cor_7_2,
                       check_thm_3_2, check_thm_3_3, check_thm_5_2,
                       check_thm_7_1, check_thm_7_3, scan_ramified_l)
from .errors import AfcheckError
from .frey import (FAMILY_SQUARE, FAMILY_TWO_POWER, FreySpec,
                   concrete_cross_check, conductor_shape, invariants,
                   odd_multiplicative_primes, valuation_profile)
from .integerfactor import is_prime
from .numberfield import make_field
from .parsing import ParseError
from .prime_ideals import (factor_rational_prime, s_k, splitting_type, u_k,
                           valuation, verified_field_disc)
from .report import build_report, emit_human, emit_json
from .sunits import DEFAULT_MAX_CANDIDATES, selmer_group, solve_sunit
from .units import (DEFAULT_CLASS_ENUM_BOUND, DEFAULT_UNIT_HEIGHT_BOUND,
                    class_data)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO = 2
EXIT_UNKNOWN = 3

_VERDICT_EXIT = {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}

# S-unit criteria, called as check(field, bound, **solver_kw)
_SUNIT_CHECKS = {"thm-3-2": check_thm_3_2, "thm-3-3": check_thm_3_3,
                 "cor-3-4": check_cor_3_4, "thm-5-2": check_thm_5_2}
# local criteria, called as check(field, l) with l None unless --l is given
_LOCAL_CHECKS = {"thm-7-1": check_thm_7_1,
                 "cor-7-2": lambda field, ell: check_cor_7_2(field),
                 "thm-7-3-1": lambda field, ell: check_thm_7_3(field, 1, ell),
                 "thm-7-3-2": lambda field, ell: check_thm_7_3(field, 2)}


@dataclass
class RunConfig:
    sunit_exponent_bound: int = 8
    unit_height_bound: int = DEFAULT_UNIT_HEIGHT_BOUND
    class_enum_bound: int = DEFAULT_CLASS_ENUM_BOUND
    l_max: int = 1000
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    user_class_number: int = None
    seed: int = 0
    output: str = "human"


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "output")


def _load_config_file(path, cfg: RunConfig):
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"bad config line: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ParseError(f"bad value for {key}: {value!r}") from exc


@cache
def _parser():
    """The argparse tree, built on first use and kept for the process:
    parse_args leaves a parser unchanged, so later run() calls reuse it."""
    top = argparse.ArgumentParser(
        prog="afcheck",
        description="Exact checker for asymptotic Fermat criteria over "
                    "number fields")
    top.add_argument("--output", choices=("human", "json"), default="human")
    top.add_argument("--seed", type=int, default=0,
                     help="echoed into reports; all computations are deterministic")
    top.add_argument("--config", help="key=value overrides for bounds")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="signature, discriminant, S_K and U_K")
    p.add_argument("poly")

    p = sub.add_parser("sunit", help="bounded S_K-unit equation search")
    p.add_argument("poly")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("selmer", help="2-Selmer square classes K(S_K, 2)")
    p.add_argument("poly")
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("frey", help="Frey curve invariants and local reports")
    p.add_argument("family", choices=(FAMILY_TWO_POWER, FAMILY_SQUARE))
    p.add_argument("poly")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--p", default="symbolic",
                   help="a concrete prime exponent, or 'symbolic'")
    p.add_argument("--prime", type=int, default=None,
                   help="rational prime at which to emit reduction reports")

    p = sub.add_parser("check", help="evaluate a criterion's hypotheses")
    # thm-7-3 is resolved to thm-7-3-1 or thm-7-3-2 by --mode
    p.add_argument("theorem", choices=(*CONCLUSIONS, "thm-7-3"))
    p.add_argument("poly")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--mode", type=int, default=None)
    p.add_argument("--user-class-number", type=int, default=None)

    p = sub.add_parser("scan", help="candidate totally ramified primes l")
    p.add_argument("poly")
    p.add_argument("--l-max", type=int, default=None)
    return top


def _cmd_field(field, args, cfg):
    # an index divisor at 2 or 3 ends the request here, before the
    # discriminant is factored; verified_field_disc raises nothing
    splitting = {f"splitting_{q}": splitting_type(field, q).to_dict()
                 for q in (2, 3)}
    verified_field_disc(field)
    payload = {"signature": list(field.signature),
               "poly_disc": field.poly_disc,
               "field_disc": field.field_disc, **splitting}
    payload["s_k"] = [p.to_dict() for p in s_k(field)]
    payload["u_k"] = [p.to_dict() for p in u_k(field)]
    return payload, [], EXIT_OK


def _cmd_sunit(field, args, cfg):
    bound = args.bound if args.bound is not None else cfg.sunit_exponent_bound
    search = solve_sunit(field, s_k(field), bound,
                         max_candidates=cfg.max_candidates,
                         user_class_number=cfg.user_class_number,
                         class_enum_bound=cfg.class_enum_bound,
                         height_bound=cfg.unit_height_bound)
    caveats = [f"bounded-search:B={bound}"]
    return search.to_dict(), caveats, EXIT_OK


def _cmd_selmer(field, args, cfg):
    group = selmer_group(field, s_k(field), 2,
                         user_class_number=cfg.user_class_number,
                         class_enum_bound=cfg.class_enum_bound,
                         height_bound=cfg.unit_height_bound)
    return group.to_dict(), [], EXIT_OK


def _cmd_frey(field, args, cfg):
    if args.prime is not None and not is_prime(args.prime):
        raise ParseError(f"--prime must be a prime, got {args.prime}")
    p = None
    if args.p != "symbolic":
        try:
            p = int(args.p)
        except ValueError:
            pass
        if p is None or not is_prime(p):
            raise ParseError(f"--p must be a prime or 'symbolic', got {args.p!r}")
    a = field.element_from_str(args.a)
    b = field.element_from_str(args.b)
    c = field.element_from_str(args.c)
    r = args.r if args.family == FAMILY_TWO_POWER else None
    spec = FreySpec(args.family, a, b, c, r=r, p=p)
    payload = {"family": args.family, "p": args.p, "r": r}
    caveats = []
    if p is not None:
        inv = invariants(spec)
        payload["invariants"] = {
            "delta": list(inv.delta.coords), "c4": list(inv.c4.coords),
            "j": list(inv.j.coords), "forms_agree": inv.forms_agree}
        payload["cross_check"] = concrete_cross_check(spec, inv)
    else:
        payload["invariants"] = invariants(spec).to_dict()
    if args.prime is not None:
        sym = FreySpec(args.family, a, b, c, r=r, p=None)
        reports = []
        for P in factor_rational_prime(field, args.prime):
            va = 0 if a.is_zero() else max(0, valuation(a, P))
            vb = 0 if b.is_zero() else max(0, valuation(b, P))
            vc = 0 if c.is_zero() else max(0, valuation(c, P))
            reports.append(valuation_profile(sym, P, va, vb, vc).to_dict())
        payload["reduction_reports"] = reports
    try:
        rep = None
        if args.family == FAMILY_TWO_POWER:
            info = class_data(field, enum_bound=cfg.class_enum_bound,
                              user_class_number=cfg.user_class_number,
                              height_bound=cfg.unit_height_bound)
            rep = info.reps_H[0] if info.reps_H else None
        shape = conductor_shape(field, args.family, rep,
                                odd_multiplicative_primes(spec))
        payload["conductor"] = shape.to_dict()
    except AfcheckError as exc:
        caveats.append(f"conductor shape unavailable: {exc}")
    return payload, caveats, EXIT_OK


def _cmd_check(field, args, cfg):
    theorem = args.theorem
    if theorem == "thm-7-3":
        if args.mode not in (1, 2):
            raise ParseError("check thm-7-3 needs --mode 1 or --mode 2")
        theorem = f"thm-7-3-{args.mode}"
    if theorem in _SUNIT_CHECKS:
        bound = args.bound if args.bound is not None else cfg.sunit_exponent_bound
        verdict = _SUNIT_CHECKS[theorem](
            field, bound, max_candidates=cfg.max_candidates,
            user_class_number=cfg.user_class_number,
            class_enum_bound=cfg.class_enum_bound,
            height_bound=cfg.unit_height_bound)
    else:
        if args.l is None and theorem in ("thm-7-1", "thm-7-3-1"):
            raise ParseError(f"check {theorem} needs --l")
        verdict = _LOCAL_CHECKS[theorem](field, args.l)
    if args.r is not None and verdict.r is None:
        verdict.r = args.r
    return verdict.to_dict(), list(verdict.caveats), _VERDICT_EXIT[verdict.applies]


def _cmd_scan(field, args, cfg):
    l_max = args.l_max if args.l_max is not None else cfg.l_max
    return {"candidates": scan_ramified_l(field, l_max)}, [], EXIT_OK


_HANDLERS = {"field": _cmd_field, "sunit": _cmd_sunit, "selmer": _cmd_selmer,
             "frey": _cmd_frey, "check": _cmd_check, "scan": _cmd_scan}


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    cfg = RunConfig(output=args.output, seed=args.seed)
    started = time.monotonic()
    field = None  # an error report summarises the field if it was built
    try:
        if args.config:
            _load_config_file(args.config, cfg)
        if getattr(args, "user_class_number", None) is not None:
            cfg.user_class_number = args.user_class_number
        if cfg.user_class_number is not None and cfg.user_class_number < 1:
            raise ParseError("user_class_number must be at least 1, "
                             f"got {cfg.user_class_number}")
        field = make_field(args.poly)
        payload, caveats, code = _HANDLERS[args.command](field, args, cfg)
    except (AfcheckError, ParseError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc),
                           **getattr(exc, "payload", {})}}
        if cfg.output == "json":
            sys.stdout.write(emit_json(build_report(field, _echo(args, cfg),
                                                    error, [], None)))
        else:
            sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")
        return EXIT_ERROR
    report = build_report(field, _echo(args, cfg), payload, caveats,
                          time.monotonic() - started)
    out = emit_json(report) if cfg.output == "json" else emit_human(report)
    sys.stdout.write(out)
    return code


def _echo(args, cfg):
    echo = {"command": args.command, "seed": cfg.seed}
    for key in ("poly", "theorem", "family", "bound", "r", "l", "mode",
                "prime", "a", "b", "c", "l_max", "p"):
        if hasattr(args, key) and getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    return echo


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
