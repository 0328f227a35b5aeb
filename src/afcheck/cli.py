"""Command-line driver.

Subcommands: field, sunit, selmer, frey, check, scan.  Exit codes expose the
three-valued verdict semantics at the shell level: 0 = ran (verdict yes or
data produced), 2 = verdict no, 3 = verdict unknown under bounded search,
1 = error (structured JSON object in json mode).
"""

import re
import sys
import time

from .criteria import CRITERIA, scan_ramified_l
from .errors import AfcheckError
from .frey import (FAMILY_SQUARE, FAMILY_TWO_POWER, FreySpec,
                   concrete_cross_check, conductor_shape, invariants,
                   odd_multiplicative_primes, valuation_profile)
from .integerfactor import PRIME_PROOF_BOUND, is_prime
from .numberfield import make_field
from .parsing import MAX_PARSED_DIGITS, ParseError
from .prime_ideals import (factor_rational_prime, s_k, splitting_type, u_k,
                           valuation, verified_field_disc)
from .report import build_report, emit_human, emit_json
from .sunits import selmer_group, solve_sunit
from .units import class_data, least_odd_prime

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO = 2
EXIT_UNKNOWN = 3

_VERDICT_EXIT = {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}

# the --bound of sunit and of the S-unit criteria, and the --l-max of scan,
# when the command line gives none
DEFAULT_BOUND = 8
DEFAULT_L_MAX = 1000


# The command table.  A command is (help line, positionals, options, the
# options it needs); a positional is (name, choices or None), and options
# map a name to (converter, default, choices or None).  A value is kept
# under its name without dashes, "-" read as "_".
_INT, _STR, _POLY = (int, None, None), (str, None, None), ("poly", None)
_COMMANDS = {
    "field": ("signature, discriminant, S_K and U_K", (_POLY,), {}, ()),
    "sunit": ("bounded S_K-unit equation search", (_POLY,),
              {"--bound": _INT, "--user-class-number": _INT}, ()),
    "selmer": ("2-Selmer square classes K(S_K, 2)", (_POLY,),
               {"--user-class-number": _INT}, ()),
    "frey": ("Frey curve invariants and local reports",
             (("family", (FAMILY_TWO_POWER, FAMILY_SQUARE)), _POLY),
             {"--a": _STR, "--b": _STR, "--c": _STR, "--r": _INT,
              "--p": (str, "symbolic", None), "--prime": _INT,
              "--user-class-number": _INT},
             ("--a", "--b", "--c")),
    # thm-7-3 is resolved to thm-7-3-1 or thm-7-3-2 by --mode
    "check": ("evaluate a criterion's hypotheses",
              (("theorem", (*CRITERIA, "thm-7-3")), _POLY),
              {"--l": _INT, "--bound": _INT, "--mode": _INT,
               "--user-class-number": _INT}, ()),
    "scan": ("candidate totally ramified primes l", (_POLY,),
             {"--l-max": _INT}, ()),
}
_TOP = ("exact checker for asymptotic Fermat criteria over number fields",
        (("command", tuple(_COMMANDS)),),
        {"--output": (str, "human", ("human", "json")),
         "--seed": (int, 0, None)}, ())
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's pattern


class _UsageError(Exception):
    """A command line outside the table: args = (command or None, reason)."""


def _dest(name):
    return name.lstrip("-").replace("-", "_")


def _option(arg, options):
    """(name, value after "=" or None) of the option that arg names, read as
    argparse reads it: the exact name, the name before "=", or the one long
    name that the part before "=" begins.  The name is None for a positional
    ("-", a negative number, a word with a space), "" for an unknown one."""
    if arg[:1] != "-" or arg == "-":
        return None, None
    names = (*options, *_HELP)
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    matches = [name for name in names
               if arg[1] == "-" and name.startswith(head)]
    if len(matches) == 1:
        return matches[0], value if eq else None
    positional = not matches and (" " in arg or _NEGATIVE_NUMBER.match(arg))
    return None if positional else "", None


def _parse_argv(argv):
    """The request as a mapping, or None once -h has printed help; raises
    _UsageError.  Top-level options come before the command word; after it,
    positionals and options mix, and "--" ends the options.  An option's
    value is always the next argument.  Unknown options and surplus words
    are reported last, so that a later -h still prints help."""
    _, positionals, options, required = _TOP
    args = _unset(positionals, options)
    slots, rest = list(positionals), iter(argv)
    command, strays, options_end = None, [], False
    for arg in rest:
        if arg == "--" and command and not options_end:
            options_end = True
            continue
        name, value = (None, None) if options_end else _option(arg, options)
        if name is None and slots:
            slot, choices = slots.pop(0)
            args[slot] = _value(slot, arg, (str, None, choices), command)
            if slot == "command":
                command = arg
                _, positionals, options, required = _COMMANDS[arg]
                slots = list(positionals)
                args.update(_unset(positionals, options))
        elif name in _HELP and value is None:
            sys.stdout.write(_usage(command, full=True))
            return None
        elif not name or name in _HELP:  # unknown, surplus, --help=...
            strays.append(arg)
        elif value is None and (value := next(rest, None)) is None:
            raise _UsageError(command, f"argument {name}: expected one "
                              "argument")
        else:
            args[_dest(name)] = _value(name, value, options[name], command)
    missing = [slot for slot, _ in slots] + [
        name for name in required if args[_dest(name)] is None]
    if missing or strays:
        raise _UsageError(command, "the following arguments are required: "
                          + ", ".join(missing) if missing else
                          "unrecognized arguments: " + " ".join(strays))
    return args


def _unset(positionals, options):
    """The keys of a table entry before the command line is read, in the
    order the report echoes them: the positionals, None until read, then
    the options at their defaults."""
    return {**dict.fromkeys(slot for slot, _ in positionals),
            **{_dest(name): default
               for name, (_, default, _) in options.items()}}


def _value(name, text, entry, command):
    """text converted and checked as the table entry of name asks."""
    convert, _, choices = entry
    try:
        value = convert(text)
    except ValueError:
        raise _UsageError(command, f"argument {name}: invalid "
                          f"{convert.__name__} value: {text!r}") from None
    if choices is not None and value not in choices:
        raise _UsageError(command, f"argument {name}: invalid choice: "
                          f"{value!r} (choose from {', '.join(choices)})")
    return value


def _usage(command, full=False):
    """The usage line of afcheck or of one command; with full, its help."""
    help_line, positionals, options, required = _COMMANDS.get(command, _TOP)
    words = [f"usage: afcheck {command or ''}".rstrip(), "[-h]"]
    for name, (_, _, choices) in options.items():
        word = f"{name} {_metavar(_dest(name).upper(), choices)}"
        words.append(word if name in required else f"[{word}]")
    words += (_metavar(name, choices) for name, choices in positionals)
    lines = [" ".join(words) + ("" if command else " ...")]
    lines += ["", help_line] if full else []
    if full and not command:
        lines += [""] + [f"  {name:8}{spec[0]}"
                         for name, spec in _COMMANDS.items()]
    return "\n".join(lines) + "\n"


def _metavar(name, choices):
    return "{" + ",".join(choices) + "}" if choices else name


def _cmd_field(field, _args):
    # an index divisor at 2 or 3 ends the request here, before the
    # discriminant is factored; verified_field_disc raises nothing
    splitting = {f"splitting_{q}": splitting_type(field, q)
                 for q in (2, 3)}
    verified_field_disc(field)
    payload = {"signature": list(field.signature),
               "poly_disc": field.poly_disc,
               "field_disc": field.field_disc, **splitting}
    payload["s_k"] = [p.to_dict() for p in s_k(field)]
    payload["u_k"] = [p.to_dict() for p in u_k(field)]
    return payload, [], EXIT_OK


def _cmd_sunit(field, args):
    bound = DEFAULT_BOUND if args["bound"] is None else args["bound"]
    search = solve_sunit(field, s_k(field), bound)
    # ("bounded-search", B), or ("proven",), which needs no caveat
    status = search.completeness
    caveats = [] if status[0] == "proven" else [f"{status[0]}:B={status[1]}"]
    return search.to_dict(), caveats, EXIT_OK


def _cmd_selmer(field, _args):
    group = selmer_group(field, s_k(field))
    return group.to_dict(), [], EXIT_OK


def _refuse_unproven(option, n):
    """Refuse an option's integer at or above PRIME_PROOF_BOUND, where
    is_prime proves nothing."""
    if n is not None and n >= PRIME_PROOF_BOUND:
        raise ParseError(f"--{option} must be below {PRIME_PROOF_BOUND}, "
                         f"where primality is proven; got {n}")


def _cmd_frey(field, args):
    family, prime, p_text = args["family"], args["prime"], args["p"]
    for option in ("user_class_number", "r"):
        if family != FAMILY_TWO_POWER and args[option] is not None:
            raise ParseError(f"--{option.replace('_', '-')} is read only by "
                             f"frey {FAMILY_TWO_POWER}, not by frey {family}")
    _refuse_unproven("prime", prime)
    if prime is not None and not is_prime(prime):
        raise ParseError(f"--prime must be a prime, got {prime}")
    p = None
    if p_text != "symbolic":
        try:
            # a longer p_text is refused before int(), whatever the limit
            p = int(p_text) if len(p_text) <= MAX_PARSED_DIGITS else None
        except ValueError:
            pass
        _refuse_unproven("p", p)
        if p is None or not is_prime(p):
            raise ParseError(f"--p must be a prime or 'symbolic', got {p_text!r}")
    a, b, c = (field.element_from_str(args[key]) for key in "abc")
    spec = FreySpec(family, a, b, c, r=args["r"], p=p)
    payload = {"family": family, "p": p_text, "r": args["r"]}
    caveats = []
    if p is not None:
        inv = invariants(spec)
        payload["invariants"] = {
            "delta": list(inv.delta.coords), "c4": list(inv.c4.coords),
            "j": list(inv.j.coords), "forms_agree": inv.forms_agree}
        payload["cross_check"] = concrete_cross_check(spec, inv)
    else:
        payload["invariants"] = invariants(spec)
    if prime is not None:
        reports = []
        for P in factor_rational_prime(field, prime):
            reports.append(valuation_profile(
                spec, P, *(valuation(x, P) for x in (a, b, c))).to_dict())
        payload["reduction_reports"] = reports
    try:
        rep = None
        if family == FAMILY_TWO_POWER:
            # m is printed only where h is known or supplied, as the paper
            # takes it from a set of class representatives
            class_data(field)
            rep = least_odd_prime(field)
        payload["conductor"] = conductor_shape(
            field, family, rep, odd_multiplicative_primes(spec))
    except AfcheckError as exc:
        caveats.append(f"conductor shape unavailable: {exc}")
    return payload, caveats, EXIT_OK


def _cmd_check(field, args):
    named, mode = args["theorem"], args["mode"]
    theorem = named
    if named == "thm-7-3":
        if mode not in (1, 2):
            raise ParseError("check thm-7-3 needs --mode 1 or --mode 2")
        theorem = f"thm-7-3-{mode}"
    criterion = CRITERIA[theorem]
    reads = criterion.reads + (("mode",) if named != theorem else ())
    for option in ("l", "mode", "bound", "user_class_number"):
        if args[option] is not None and option not in reads:
            readers = ("thm-7-3",) if option == "mode" else [
                name for name, c in CRITERIA.items() if option in c.reads]
            raise ParseError(f"--{option.replace('_', '-')} is read only by "
                             f"{', '.join(readers)}, not by {theorem}")
    if "l" in reads and args["l"] is None:
        raise ParseError(f"check {theorem} needs --l")
    _refuse_unproven("l", args["l"])
    values = dict(args, bound=DEFAULT_BOUND if args["bound"] is None
                  else args["bound"])
    # the field carries the class number, so no checker takes it
    verdict = criterion.check(field, *(values[o] for o in criterion.reads
                                       if o != "user_class_number"))
    return (verdict.to_dict(), verdict.caveats,
            _VERDICT_EXIT[verdict.applies])


def _cmd_scan(field, args):
    l_max = DEFAULT_L_MAX if args["l_max"] is None else args["l_max"]
    return {"candidates": scan_ramified_l(field, l_max)}, [], EXIT_OK


_HANDLERS = {"field": _cmd_field, "sunit": _cmd_sunit, "selmer": _cmd_selmer,
             "frey": _cmd_frey, "check": _cmd_check, "scan": _cmd_scan}


def run(argv) -> int:
    try:
        args = _parse_argv(argv)
    except _UsageError as exc:
        command, reason = exc.args
        sys.stderr.write(f"{_usage(command)}afcheck: error: {reason}\n")
        return EXIT_ERROR
    if args is None:  # -h printed help
        return EXIT_OK
    # a derived integer (a discriminant, a Frey delta) can pass the 4300
    # digits Python 3.11+ converts to str by default; the parser caps what a
    # request gives, so the limit is lifted while it is answered
    if not hasattr(sys, "set_int_max_str_digits"):
        return _answer(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _answer(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _answer(args):
    """Write the report of a parsed request; return the exit code."""
    # r is the twist exponent of the 2r family, 2 unless given; it is set
    # here so that every report on the request echoes it
    if args.get("family") == FAMILY_TWO_POWER and args["r"] is None:
        args["r"] = 2
    started = time.monotonic()
    field = None  # an error report summarises the field if it was built
    class_number = args.get("user_class_number")
    try:
        if class_number is not None and class_number < 1:
            raise ParseError("--user-class-number must be at least 1, "
                             f"got {class_number}")
        if args.get("bound") is not None and args["bound"] < 0:
            raise ParseError(f"--bound must be nonnegative, got {args['bound']}")
        if args.get("family") == FAMILY_TWO_POWER and args["r"] < 1:
            raise ParseError(f"--r must be at least 1 for {FAMILY_TWO_POWER}, "
                             f"got {args['r']}")
        field = make_field(args["poly"], class_number)
        # class_data reads the field's class number for cubics only
        if class_number is not None and field.degree != 3:
            raise ParseError("--user-class-number is read only for cubic "
                             f"fields, not for degree {field.degree}")
        payload, caveats, code = _HANDLERS[args["command"]](field, args)
    except (AfcheckError, ParseError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc),
                           **getattr(exc, "payload", {})}}
        if args["output"] == "json":
            sys.stdout.write(emit_json(build_report(field, _echo(args),
                                                    error, [], None)))
        else:
            sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")
        return EXIT_ERROR
    report = build_report(field, _echo(args), payload, caveats,
                          time.monotonic() - started)
    out = emit_json(report) if args["output"] == "json" else emit_human(report)
    sys.stdout.write(out)
    return code


def _echo(args):
    """The request as the report echoes it: every key given a value, but
    the output format."""
    return {key: value for key, value in args.items()
            if value is not None and key != "output"}


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
