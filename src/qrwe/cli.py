"""Command-line front end.

    qrwe [--threads N] COMMAND ...    (N >= 1, accepted and ignored)
    qrwe c14 --q Q [--classical] [--format json|csv]
    qrwe dual --q Q --max-codim M [--classical]
    qrwe brute --q Q --h H [--classical] [--budget N]
    qrwe census --q Q [--kind quartic|weierstrass] [--budget N]
    qrwe trace --level {1|2|4} --weight K --q Q [--dump-table FILE]
    qrwe moments --q Q --R R --flavor {all|2tors|full2tors} [--empirical]
    qrwe classnum --disc D
    qrwe hurwitz --disc D
    qrwe verify --suite {classnumbers|traces|moments|c14|duals|examples|all}
                [--qmax N]

`main` takes the command to be the first argument after any global
`--threads N` or `--threads=N` and builds only that command's
subparser.  No command, an unknown one or `-h`/`--help` before it
builds the full parser, and so does any parse error: the full parser
parses again and reports it, so help and usage text never depend on
which parser was built first.

Exit codes: 0 success, 1 verification failure, broken identity or
budget refusal, 2 usage error.  Counts that may exceed 53 bits are
printed as decimal strings inside JSON.
"""

import argparse
import json
import sys

from . import verify as verify_suites
from .arith import odd_prime_power_split
from .curve_census import (census_json, empirical_moment, quartic_census,
                           weierstrass_census)
from .enumerators import qr_dual_coefficients
from .errors import BudgetExceededError, ConsistencyError, check_budget
from .finite_field import field
from .hecke_traces import DEFAULT_TABLE, moment_formula, trace
from .qr_pipeline import (classical_quartic_code_enumerator, dual_code_report,
                          quartic_code_enumerator)
from .quadratic_forms import class_number, hurwitz_class_number
from .rs_codes import (brute_force_enumerator, reed_solomon_code,
                       reed_solomon_dimension)

_FLAVOR = {"all": "all", "2tors": "two_torsion", "full2tors": "full_two_torsion"}


def _field_for(q: int, walk_steps, budget: int = None):
    """F_q for a walk of walk_steps(p) steps, refused by the budget
    before the field's O(q) tables are built."""
    p, v = odd_prime_power_split(q)
    check_budget(walk_steps(p), budget)
    return field(p, v)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError("need an integer >= %d, got %r" % (low, text))
        return int(text)
    return parse


def _emit_enumerator(enum, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(enum.to_json_dict()))
    else:
        print("i,j,k,A")
        for item in enum.to_json_dict()["terms"]:
            print("%s,%s,%s,%s" % (item["i"], item["j"], item["k"], item["A"]))


def _cmd_c14(args) -> int:
    enum = (classical_quartic_code_enumerator(args.q) if args.classical
            else quartic_code_enumerator(args.q))
    _emit_enumerator(enum, args.format)
    return 0


def _cmd_dual(args) -> int:
    q = args.q
    if args.classical:
        enum = classical_quartic_code_enumerator(q)
        coeffs = qr_dual_coefficients(enum, q, q ** 5, args.max_codim)
        extra = {}
    else:
        report = dual_code_report(q, args.max_codim)
        coeffs = report["coefficients"]
        extra = {"comparisons": report["comparisons"]}
    n = q if args.classical else q + 1
    payload = {
        "q": q, "classical": args.classical, "max_codim": args.max_codim,
        "terms": [{"i": n - j - k, "j": j, "k": k, "A": str(value)}
                  for (j, k), value in sorted(coeffs.items())],
        **extra,
    }
    print(json.dumps(payload))
    return 0


def _cmd_brute(args) -> int:
    ctx = _field_for(args.q, lambda p: args.q ** reed_solomon_dimension(
        args.q, args.h, not args.classical), args.budget)
    code = reed_solomon_code(ctx, args.h, projective=not args.classical)
    enum = brute_force_enumerator(code, budget=args.budget)
    _emit_enumerator(enum, "json")
    return 0


def _cmd_trace(args) -> int:
    value = trace(args.level, args.weight, args.q)
    if args.dump_table:
        try:
            with open(args.dump_table, "w") as handle:
                DEFAULT_TABLE.to_csv(handle)
        except OSError as exc:
            raise ValueError("cannot write --dump-table %s: %s"
                             % (args.dump_table, exc.strerror)) from exc
    print(value)
    return 0


def _cmd_census(args) -> int:
    weierstrass = args.kind == "weierstrass"
    if weierstrass and odd_prime_power_split(args.q)[0] < 5:  # before the field is built
        raise ValueError("--kind weierstrass needs p >= 5; use --kind quartic at p = 3")
    ctx = _field_for(args.q, lambda p: args.q ** (2 if weierstrass else 5), args.budget)
    if weierstrass:
        census = weierstrass_census(ctx, budget=args.budget)
    else:
        census = quartic_census(ctx, budget=args.budget)
    print(json.dumps(census_json(census)))
    return 0


def _cmd_moments(args) -> int:
    flavor = _FLAVOR[args.flavor]
    if args.empirical:
        if args.R < 0:  # before the census and its field
            raise ValueError("moment order R must be >= 0")
        ctx = _field_for(args.q, lambda p: args.q ** (2 if p >= 5 else 5))
        if ctx.p >= 5:
            census = weierstrass_census(ctx)
        else:
            census = quartic_census(ctx)
        print(empirical_moment(census, args.R, flavor))
    else:
        print(moment_formula(args.q, args.R, flavor))
    return 0


def _cmd_classnum(args) -> int:
    print(class_number(args.disc))
    return 0


def _cmd_hurwitz(args) -> int:
    print(hurwitz_class_number(args.disc))
    return 0


def _cmd_verify(args) -> int:
    ok = verify_suites.run_suite(args.suite, qmax=args.qmax, stream=sys.stdout)
    return 0 if ok else 1


# command: (help, handler, its options as (flag, add_argument keywords))
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_BUDGET = {"type": _int_at_least(0)}
_COMMANDS = {
    "c14": ("enumerator of the degree-4 code (formula path)", _cmd_c14, (
        ("--q", _INT), ("--classical", _FLAG),
        ("--format", {"choices": ("json", "csv"), "default": "json"}))),
    "dual": ("truncated dual coefficients", _cmd_dual, (
        ("--q", _INT), ("--max-codim", dict(_INT, dest="max_codim")),
        ("--classical", _FLAG))),
    "brute": ("brute-force enumerator (budget guarded)", _cmd_brute, (
        ("--q", _INT), ("--h", _INT), ("--classical", _FLAG), ("--budget", _BUDGET))),
    "trace": ("Hecke operator trace", _cmd_trace, (
        ("--level", dict(_INT, choices=(1, 2, 4))), ("--weight", _INT), ("--q", _INT),
        ("--dump-table", {"metavar": "FILE", "help": "also write every memoized "
                          "trace as CSV (N,k,q,trace)"}))),
    "census": ("curve census as JSON", _cmd_census, (
        ("--q", _INT), ("--kind", {"choices": ("quartic", "weierstrass"),
                                   "default": "quartic"}), ("--budget", _BUDGET))),
    "moments": ("moment of the trace of Frobenius", _cmd_moments, (
        ("--q", _INT), ("--R", _INT),
        ("--flavor", {"choices": tuple(_FLAVOR), "default": "all"}),
        ("--empirical", dict(_FLAG, help="compute from a census instead of the formula")))),
    "classnum": ("class number h(d)", _cmd_classnum, (("--disc", _INT),)),
    "hurwitz": ("Hurwitz-Kronecker class number", _cmd_hurwitz, (("--disc", _INT),)),
    "verify": ("run a verification suite", _cmd_verify, (
        ("--suite", {"required": True, "choices": tuple(verify_suites.SUITES)}),
        ("--qmax", {"type": _int_at_least(3), "help": "cap every q-list at this q (3, "
                    "the smallest odd prime power, or more)"}))),
}


def _raise(parser, message):
    raise argparse.ArgumentError(None, message)


class _OneCommandParser(argparse.ArgumentParser):
    error = _raise  # argparse reports every parse error through this method


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of every command; given a command, the parser of that
    one alone, which raises argparse.ArgumentError instead of exiting."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="qrwe",
        description="Quadratic-residue weight enumerators of Reed-Solomon "
                    "codes, exactly.")
    parser.add_argument("--threads", type=_int_at_least(1),
                        help="accepted (N >= 1) and ignored: every "
                             "command runs on one thread")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        if command in (None, name):
            cmd = sub.add_parser(name, help=help_text)
            for flag, keywords in options:
                cmd.add_argument(flag, **keywords)
            cmd.set_defaults(func=handler)
    return parser


def _command(argv) -> str:
    """The command named after the global --threads options, or None."""
    at = 0
    while at < len(argv) and argv[at].partition("=")[0] == "--threads":
        at += 2 if argv[at] == "--threads" else 1
    return argv[at] if at < len(argv) and argv[at] in _COMMANDS else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(_command(argv))
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError:  # reported with the usage of every command
        parser = build_parser()
        args = parser.parse_args(argv)
    # exact results can pass the int-to-str digit limit (Python 3.10.7+); argv is parsed under it
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        parser.exit(2, "error: %s\n" % exc)
    except ConsistencyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
