"""Command-line front end.

    qrwe c14 --q Q [--classical] [--format json|csv]
    qrwe dual --q Q --max-codim M [--classical]
    qrwe brute --q Q --h H [--classical] [--budget N]
    qrwe census --q Q [--kind quartic|weierstrass] [--budget N]
    qrwe trace --level {1|2|4} --weight K --q Q
    qrwe moments --q Q --R R --flavor {all|2tors|full2tors} [--empirical]
    qrwe classnum --disc D
    qrwe hurwitz --disc D
    qrwe verify --suite {classnumbers|traces|moments|c14|duals|examples|all}
                [--qmax N]

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
from .errors import BudgetExceededError, ConsistencyError
from .finite_field import field
from .hecke_traces import DEFAULT_TABLE, moment_formula, trace
from .qr_pipeline import (classical_quartic_code_enumerator, dual_code_report,
                          quartic_code_enumerator)
from .quadratic_forms import class_number, hurwitz_class_number
from .rs_codes import brute_force_enumerator, reed_solomon_code

_FLAVOR = {"all": "all", "2tors": "two_torsion", "full2tors": "full_two_torsion"}


def _field_for(q: int):
    return field(*odd_prime_power_split(q))


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
    ctx = _field_for(args.q)
    code = reed_solomon_code(ctx, args.h, projective=not args.classical)
    enum = brute_force_enumerator(code, budget=args.budget)
    _emit_enumerator(enum, "json")
    return 0


def _cmd_trace(args) -> int:
    print(trace(args.level, args.weight, args.q))
    if args.dump_table:
        with open(args.dump_table, "w") as handle:
            DEFAULT_TABLE.to_csv(handle)
    return 0


def _cmd_census(args) -> int:
    ctx = _field_for(args.q)
    if args.kind == "weierstrass":
        census = weierstrass_census(ctx, budget=args.budget)
    else:
        census = quartic_census(ctx, budget=args.budget)
    print(json.dumps(census_json(census)))
    return 0


def _cmd_moments(args) -> int:
    flavor = _FLAVOR[args.flavor]
    if args.empirical:
        ctx = _field_for(args.q)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrwe",
        description="Quadratic-residue weight enumerators of Reed-Solomon "
                    "codes, exactly.")
    parser.add_argument("--threads", type=_int_at_least(1),
                        help="accepted (N >= 1) and ignored: every "
                             "command runs on one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    c14 = sub.add_parser("c14", help="enumerator of the degree-4 code (formula path)")
    c14.add_argument("--q", type=int, required=True)
    c14.add_argument("--classical", action="store_true")
    c14.add_argument("--format", choices=("json", "csv"), default="json")
    c14.set_defaults(func=_cmd_c14)

    dual = sub.add_parser("dual", help="truncated dual coefficients")
    dual.add_argument("--q", type=int, required=True)
    dual.add_argument("--max-codim", type=int, required=True, dest="max_codim")
    dual.add_argument("--classical", action="store_true")
    dual.set_defaults(func=_cmd_dual)

    brute = sub.add_parser("brute", help="brute-force enumerator (budget guarded)")
    brute.add_argument("--q", type=int, required=True)
    brute.add_argument("--h", type=int, required=True)
    brute.add_argument("--classical", action="store_true")
    brute.add_argument("--budget", type=_int_at_least(0), default=None)
    brute.set_defaults(func=_cmd_brute)

    tr = sub.add_parser("trace", help="Hecke operator trace")
    tr.add_argument("--level", type=int, choices=(1, 2, 4), required=True)
    tr.add_argument("--weight", type=int, required=True)
    tr.add_argument("--q", type=int, required=True)
    tr.add_argument("--dump-table", metavar="FILE", default=None,
                    help="also write every memoized trace as CSV (N,k,q,trace)")
    tr.set_defaults(func=_cmd_trace)

    census = sub.add_parser("census", help="curve census as JSON")
    census.add_argument("--q", type=int, required=True)
    census.add_argument("--kind", choices=("quartic", "weierstrass"),
                        default="quartic")
    census.add_argument("--budget", type=_int_at_least(0), default=None)
    census.set_defaults(func=_cmd_census)

    mom = sub.add_parser("moments", help="moment of the trace of Frobenius")
    mom.add_argument("--q", type=int, required=True)
    mom.add_argument("--R", type=int, required=True)
    mom.add_argument("--flavor", choices=tuple(_FLAVOR), default="all")
    mom.add_argument("--empirical", action="store_true",
                     help="compute from a census instead of the formula")
    mom.set_defaults(func=_cmd_moments)

    cn = sub.add_parser("classnum", help="class number h(d)")
    cn.add_argument("--disc", type=int, required=True)
    cn.set_defaults(func=_cmd_classnum)

    hw = sub.add_parser("hurwitz", help="Hurwitz-Kronecker class number")
    hw.add_argument("--disc", type=int, required=True)
    hw.set_defaults(func=_cmd_hurwitz)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=tuple(verify_suites.SUITES))
    ver.add_argument("--qmax", type=_int_at_least(3), default=None,
                     help="cap every q-list at this q (3, the smallest odd "
                          "prime power, or more)")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
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
