import json

import pytest

from qrwe import cli
from qrwe.cli import main
from qrwe.curve_census import census_json, weierstrass_census
from qrwe.errors import ConsistencyError
from qrwe.finite_field import field


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
    # 41^5 quartics exceed the default budget of 10^8
    code, out, err = run_cli(capsys, "census", "--q", "41")
    assert code == 1 and out == "" and err.startswith("refused: ")
    code, out, _ = run_cli(capsys, "census", "--q", "41", "--budget", "200000000")
    assert code == 0 and json.loads(out)["q"] == 41
    code, out, err = run_cli(capsys, "census", "--q", "7", "--kind", "weierstrass",
                             "--budget", "48")
    assert code == 1 and "budget >= 49" in err
    with pytest.raises(SystemExit) as info:
        main(["census", "--q", "7", "--budget", "-1"])
    assert info.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["trace", "--level", "3", "--weight", "6", "--q", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    # domain errors surface as usage errors too
    with pytest.raises(SystemExit) as info:
        main(["moments", "--q", "8", "--R", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["moments", "--q", "7", "--R", "-1", "--empirical"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["dual", "--q", "13", "--max-codim", "-1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["--threads", "0", "census", "--q", "5"])
    assert info.value.code == 2
    # a classical code of order q has rank q, not q + 1
    with pytest.raises(SystemExit) as info:
        main(["brute", "--q", "7", "--h", "7", "--classical"])
    assert info.value.code == 2


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
