import argparse
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qrwe import cli
from qrwe.arith import odd_prime_powers
from qrwe.cli import main
from qrwe.curve_census import census_json, weierstrass_census
from qrwe.errors import ConsistencyError
from qrwe.finite_field import FieldContext, field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trace", "--level", "4", "--weight", "6", "--q", "3")
    assert code == 0 and out.strip() == "-12"


def test_results_past_the_int_digit_limit_are_printed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "trace", lambda level, weight, q: 7 * 10 ** 4999)
    code, out, _ = run_cli(capsys, "trace", "--level", "1", "--weight", "12", "--q", "3")
    assert code == 0 and out.strip() == "7" + "0" * 4999


def test_moments_subcommand(capsys):
    code, out, _ = run_cli(capsys, "moments", "--q", "5", "--R", "0", "--flavor", "all")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "moments", "--q", "7", "--R", "0",
                           "--flavor", "2tors")
    assert code == 0 and out.strip() == "13/3"


def test_moments_empirical_matches_formula(capsys):
    code, formula_out, _ = run_cli(capsys, "moments", "--q", "5", "--R", "2")
    code2, census_out, _ = run_cli(capsys, "moments", "--q", "5", "--R", "2",
                                   "--empirical")
    assert code == code2 == 0 and formula_out == census_out
    # p = 3 takes the quartic-census path
    for flavor in ("2tors", "full2tors"):
        code, formula_out, _ = run_cli(capsys, "moments", "--q", "9", "--R", "2",
                                       "--flavor", flavor)
        code2, census_out, _ = run_cli(capsys, "moments", "--q", "9", "--R", "2",
                                       "--flavor", flavor, "--empirical")
        assert code == code2 == 0 and formula_out == census_out, flavor


def test_census_subcommand(capsys):
    code, out, _ = run_cli(capsys, "census", "--q", "7", "--kind", "weierstrass")
    assert code == 0
    assert out == json.dumps(census_json(weierstrass_census(field(7, 1)))) + "\n"


def test_classnum_and_hurwitz(capsys):
    code, out, _ = run_cli(capsys, "classnum", "--disc", "-23")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "hurwitz", "--disc", "-12")
    assert code == 0 and out.strip() == "4/3"


def test_c14_json_total(capsys):
    code, out, _ = run_cli(capsys, "c14", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["q"] == 5
    assert sum(int(item["A"]) for item in payload["terms"]) == 5 ** 5


def test_c14_csv_format(capsys):
    code, out, _ = run_cli(capsys, "c14", "--q", "5", "--classical",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,k,A"
    assert lines[1].split(",")[3] == "1"


def test_dual_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dual", "--q", "7", "--max-codim", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["comparisons"] and all(c["match"] for c in payload["comparisons"])
    code, out, _ = run_cli(capsys, "dual", "--q", "7", "--max-codim", "4",
                           "--classical")
    assert code == 0 and json.loads(out)["classical"]


def test_brute_subcommand_and_budget(capsys):
    code, out, _ = run_cli(capsys, "brute", "--q", "5", "--h", "2")
    assert code == 0
    assert sum(int(t["A"]) for t in json.loads(out)["terms"]) == 125
    code, out, err = run_cli(capsys, "brute", "--q", "11", "--h", "6",
                             "--budget", "1000")
    assert code == 1 and "budget" in err
    # about 10^15 quartics: refused before the walk starts
    code, out, err = run_cli(capsys, "census", "--q", "1009")
    assert code == 1 and out == "" and err.startswith("refused: ") and "budget" in err


def test_census_budget_flag(capsys, monkeypatch):
    monkeypatch.delenv("QRWE_BUDGET", raising=False)
    # the 9 * 223^2 * 224 = 100253664 quartic cells exceed the default budget of 10^8
    code, out, err = run_cli(capsys, "census", "--q", "223")
    assert code == 1 and out == "" and err.startswith("refused: ")
    code, out, err = run_cli(capsys, "census", "--q", "223", "--budget", "100253663")
    assert code == 1 and out == "" and "budget >= 100253664" in err
    code, out, _ = run_cli(capsys, "census", "--q", "223", "--budget", "100253664")
    assert code == 0 and json.loads(out)["q"] == 223
    code, out, err = run_cli(capsys, "census", "--q", "7", "--kind", "weierstrass",
                             "--budget", "48")
    assert code == 1 and "budget >= 49" in err
    with pytest.raises(SystemExit) as info:
        main(["census", "--q", "7", "--budget", "-1"])
    assert info.value.code == 2


def test_quartic_census_at_q_101_runs_at_the_default_budget(capsys, monkeypatch):
    monkeypatch.delenv("QRWE_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "census", "--q", "101")
    # the digest of `census --q 101 --budget 20000000000` before the quartic
    # census charged its 9 q^2 (q + 1) cells instead of q^5 forms
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "9a705909086800bc5d4e5eab82bd955d40d13caf9d41dac43f27a2a55a0d3dfb")


@pytest.mark.parametrize("argv", [
    ("census", "--q", "1000003"),
    ("census", "--q", "223"),
    ("census", "--q", "1000003", "--kind", "weierstrass"),
    ("brute", "--q", "1000003", "--h", "1"),
    ("moments", "--q", "1000003", "--R", "1", "--empirical"),
    ("moments", "--q", "3486784401", "--R", "1", "--empirical"),
], ids=["quartic", "quartic-223", "weierstrass", "brute", "moments-weierstrass",
        "moments-quartic"])
def test_walks_beyond_the_budget_are_refused_before_the_field_is_built(
        capsys, monkeypatch, argv):
    monkeypatch.delenv("QRWE_BUDGET", raising=False)

    def no_build(self, *args, **kwargs):
        raise AssertionError("a FieldContext was built")
    monkeypatch.setattr(FieldContext, "__init__", no_build)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("refused: ") and "budget" in err


def test_weierstrass_census_at_p_3_is_refused_before_the_field_is_built(
        capsys, monkeypatch):
    def no_build(self, *args, **kwargs):
        raise AssertionError("a FieldContext was built")
    with monkeypatch.context() as patch:
        patch.setattr(FieldContext, "__init__", no_build)
        for q in ("1594323", "243", "3"):  # 3^13, 3^5 and 3
            with pytest.raises(SystemExit) as info:
                main(["census", "--q", q, "--kind", "weierstrass"])
            assert info.value.code == 2
            assert "p >= 5" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "census", "--q", "251", "--kind", "weierstrass")
    assert code == 0 and json.loads(out)["q"] == 251


def test_negative_empirical_moment_order_is_refused_before_the_field_is_built(
        capsys, monkeypatch):
    def no_build(self, *args, **kwargs):
        raise AssertionError("a FieldContext was built")
    monkeypatch.setattr(FieldContext, "__init__", no_build)
    for q in ("3001", "2187"):  # a Weierstrass census and a quartic one (3^7)
        with pytest.raises(SystemExit) as info:
            main(["moments", "--q", q, "--R", "-1", "--empirical"])
        assert info.value.code == 2
        assert capsys.readouterr().err == "error: moment order R must be >= 0\n"


USAGE_ERRORS = (
    ["trace", "--level", "3", "--weight", "6", "--q", "3"],
    ["nonsense"],
    # domain errors surface as usage errors too
    ["moments", "--q", "8", "--R", "1"],
    ["moments", "--q", "7", "--R", "-1", "--empirical"],
    ["dual", "--q", "13", "--max-codim", "-1"],
    ["--threads", "0", "census", "--q", "5"],
    # a classical code of order q has rank q, not q + 1
    ["brute", "--q", "7", "--h", "7", "--classical"],
)


def test_usage_errors_exit_2(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv


def test_unwritable_dump_table_is_a_usage_error(capsys, tmp_path):
    trace = ["trace", "--level", "1", "--weight", "12", "--q", "9"]
    code, out, err = run_cli(capsys, *trace, "--dump-table", str(tmp_path / "x.csv"))
    assert code == 0 and out == "-113643\n"  # tau(9)
    assert (tmp_path / "x.csv").read_text().startswith("N,k,q,trace\n")
    missing = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as info:
        main([*trace, "--dump-table", str(missing)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write --dump-table %s: No such file or directory\n"
                            % missing)


COMMANDS = ("c14", "dual", "brute", "trace", "census", "moments", "classnum", "hurwitz",
            "verify")


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], [], *([command, "--help"] for command in COMMANDS),
    *USAGE_ERRORS,
    ["dual", "--q", "5", "--max-codim", "1", "--bogus"],
    ["dual", "--q", "5", "--max-codim", "1", "--threads", "2"],
    ["--threads=2", "dual", "--q", "13", "--max-codim", "7"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    lean = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_command", lambda argv: None)  # always the full parser
    assert lean == _outcome(capsys, argv)


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kwargs: built.append(name)
                        or add_parser(self, name, **kwargs))
    for command, argv in (("dual", ["dual", "--q", "13", "--max-codim", "7"]),
                          ("trace", ["--threads=2", "trace", "--level", "1", "--weight", "12",
                                     "--q", "9"])):
        built.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out and built == [command], built
    built.clear()
    cli.build_parser()
    assert built == list(COMMANDS)


@pytest.mark.parametrize("argv", [
    ("census", "--q", "7", "--kind", "quartic"),
    ("census", "--q", "7", "--kind", "weierstrass"),
    ("brute", "--q", "7", "--h", "2"),
    ("moments", "--q", "7", "--R", "2", "--empirical"),
    ("verify", "--suite", "c14", "--qmax", "7"),
])
def test_threads_flag_is_a_no_op(capsys, argv):
    outputs = {run_cli(capsys, *flag, *argv)[:2]
               for flag in ((), ("--threads", "1"), ("--threads", "3"))}
    assert len(outputs) == 1
    (code, out), = outputs
    assert code == 0 and out


def test_bad_budget_is_a_usage_error(capsys, monkeypatch):
    for bad in ("-3", "abc"):
        with pytest.raises(SystemExit) as info:
            main(["brute", "--q", "5", "--h", "1", "--budget", bad])
        assert info.value.code == 2
    for bad in ("-5", "abc", "1.5"):
        monkeypatch.setenv("QRWE_BUDGET", bad)
        with pytest.raises(SystemExit) as info:
            main(["brute", "--q", "5", "--h", "1"])
        assert info.value.code == 2
        assert "QRWE_BUDGET" in capsys.readouterr().err, bad
    monkeypatch.setenv("QRWE_BUDGET", "0")
    code, out, err = run_cli(capsys, "brute", "--q", "5", "--h", "1")
    assert code == 1 and out == "" and err.startswith("refused: ")


def test_verify_suite_choices_are_the_suites(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "{classnumbers,traces,moments,c14,duals,examples,all}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense"])
    assert info.value.code == 2


def test_consistency_error_exits_1(capsys, monkeypatch):
    def broken(q, max_codim):
        raise ConsistencyError("dual coefficient X^1 Y^6 Z^0: computed 1, closed form 2")

    monkeypatch.setattr(cli, "dual_code_report", broken)
    code, out, err = run_cli(capsys, "dual", "--q", "7", "--max-codim", "6")
    assert code == 1 and out == ""
    assert err == "error: dual coefficient X^1 Y^6 Z^0: computed 1, closed form 2\n"


def test_verify_suite_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "classnumbers")
    assert code == 0
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_verify_qmax_caps_trace_checks_at_2000(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "traces", "--qmax", "2500")
    rows = out.splitlines()
    assert code == 0 and rows
    assert all(row.startswith("PASS") and row.endswith("<= 2000") for row in rows)


def test_verify_refuses_small_qmax_and_skips_emptied_checks(capsys):
    # a q-cap below 3 leaves no odd prime power to check
    for bad in ("-5", "2"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "traces", "--qmax", bad])
        assert info.value.code == 2
    code, out, _ = run_cli(capsys, "verify", "--suite", "c14", "--qmax", "4")
    assert code == 0
    assert out == "SKIP  degree-4 enumerator matches brute force: none of its q is <= 4\n"
    code, out, _ = run_cli(capsys, "verify", "--suite", "moments", "--qmax", "3")
    assert code == 0 and out.count("PASS") == 3 and "FAIL" not in out
    assert "PASS  census moments and weighted counts match at q = 3\n" in out
    assert ("SKIP  Weierstrass census moments and weighted counts match: "
            "none of its q is <= 3\n") in out
    assert "PASS  Legendre family sum matches the two-torsion moments at p = 3\n" in out
    assert "SKIP  special j-invariant classes match: none of its q is <= 3\n" in out


@pytest.mark.parametrize("argv", [
    ("classnum", "--disc", "-4000000000000"),
    ("hurwitz", "--disc", "-400000000000"),
    ("trace", "--level", "1", "--weight", "12", "--q", "1000000000039"),
    ("moments", "--q", "1000000000039", "--R", "1"),
], ids=lambda argv: argv[0])
def test_class_number_sweeps_beyond_the_budget_are_refused(capsys, argv):
    # each sweep would take O(10^11) steps or more: refused before it starts
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("refused: ") and "budget" in err


def test_prime_power_split_beyond_the_budget_is_refused_at_once(capsys, monkeypatch):
    monkeypatch.delenv("QRWE_BUDGET", raising=False)
    # 10^18 + 3 is prime: its trial division would try 10^9 - 1 divisors
    for argv in (("trace", "--level", "1", "--weight", "12", "--q", "1000000000000000003"),
                 ("dual", "--q", "1000000000000000003", "--max-codim", "7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("refused: ") and "budget" in err
    # 3 divides 3 * 10^17 + 3: the division stops at its second divisor
    for argv in (("trace", "--level", "1", "--weight", "12", "--q", "300000000000000003"),
                 ("dual", "--q", "300000000000000003", "--max-codim", "7")):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "not a prime power" in capsys.readouterr().err


def test_large_q_is_split_at_once_and_refused_by_its_hurwitz_row(capsys, monkeypatch):
    monkeypatch.delenv("QRWE_BUDGET", raising=False)
    trace = ("trace", "--level", "4", "--weight", "6", "--q")
    # (10^9 + 7)(10^9 + 9) has no divisor below 2^10 and is no exact power
    with pytest.raises(SystemExit) as info:
        main([*trace, "1000000016000000063"])
    assert info.value.code == 2
    assert "not a prime power: 1000000016000000063" in capsys.readouterr().err
    # (10^9 + 7)^2 splits, and the trace's first Hurwitz row, m = q, is refused
    code, out, err = run_cli(capsys, *trace, "1000000014000000049")
    assert code == 1 and out == ""
    assert err.startswith("refused: enumeration needs budget >= 1000000014000000049,")


SMALL_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
PRIME_POWERS = tuple(odd_prime_powers(10 ** 4))


def _option(name, values, optional=False):
    """[name, value] for a drawn value; [] half the time if optional."""
    pairs = values.map(lambda value: [name, str(value)])
    return st.one_of(st.just([]), pairs) if optional else pairs


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv_strategy():
    """Random argv for every subcommand but `verify`: q <= 10^4, weight
    <= 64 (trace weight is not charged to the budget), R <= 20, flags
    drawn at random, and --threads before the subcommand now and then."""
    q = _option("--q", st.one_of(st.sampled_from(SMALL_QS), st.sampled_from(PRIME_POWERS),
                                 st.integers(-3, 10 ** 4)))
    budget = _option("--budget", st.integers(-1, 10 ** 6), optional=True)
    weight = st.one_of(st.integers(0, 32).map(lambda half: 2 * half), st.integers(-2, 64))
    disc = _option("--disc", st.one_of(st.integers(-2000, 4), st.integers(-10 ** 6, 4)))
    commands = st.one_of(
        st.tuples(st.just(["c14"]), q, _flag("--classical"),
                  _option("--format", st.sampled_from(["json", "csv"]), optional=True)),
        st.tuples(st.just(["dual"]), q, _option("--max-codim", st.integers(-2, 12)),
                  _flag("--classical")),
        st.tuples(st.just(["brute"]), q, _option("--h", st.integers(-1, 6)),
                  _flag("--classical"), budget),
        st.tuples(st.just(["census"]), q, budget,
                  _option("--kind", st.sampled_from(["quartic", "weierstrass"]), optional=True)),
        st.tuples(st.just(["trace"]), _option("--level", st.integers(1, 4)),
                  _option("--weight", weight), q),
        st.tuples(st.just(["moments"]), q, _option("--R", st.integers(-1, 20)),
                  _option("--flavor", st.sampled_from(["all", "2tors", "full2tors"]),
                          optional=True),
                  _flag("--empirical")),
        st.tuples(st.just(["classnum"]), disc),
        st.tuples(st.just(["hurwitz"]), disc),
    )
    threads = _option("--threads", st.integers(0, 4), optional=True)
    return st.tuples(threads, commands).map(lambda drawn: drawn[0] + sum(drawn[1], []))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv_strategy())
def test_every_command_exits_0_1_or_2(monkeypatch, argv):
    monkeypatch.setenv("QRWE_BUDGET", str(10 ** 5))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
