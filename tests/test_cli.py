import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynmatch import cli, is_phi_solution, parse_matching_text
from dynmatch.concepts import CONCEPT_NAMES
from dynmatch.framework import StableFamily
from dynmatch.reproduce import FIXTURE_NAMES, fixture_text

ROOT = Path(__file__).resolve().parent.parent
# SHA-256 of every fixture x concept `solve --json` report, recorded with the
# benchmark: the reports must stay byte-identical.
REFERENCE_DIGESTS = json.loads((ROOT / "bench" / "reference.json").read_text())

ONE_PAIR = """\
periods: 1
agent a1 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1/2
prefs a1: b1=2
prefs b1: a1=3
"""


@pytest.fixture
def econ_file(tmp_path):
    path = tmp_path / "market.econ"
    path.write_text(ONE_PAIR)
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.econ"
    path.write_text(fixture_text("example1"))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def test_solve_succeeds_on_a_tiny_market(econ_file, capsys):
    assert run_cli("solve", econ_file, "--concept", "stable") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "t=1: a1-b1" in out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_fixture_json_reports_match_the_reference_digests(name, concept, capsys):
    path = ROOT / "src" / "dynmatch" / "fixtures" / f"{name}.econ"
    assert run_cli("solve", str(path), "--concept", concept, "--json") == cli.EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REFERENCE_DIGESTS["fixtures"][f"{name}/{concept}"]


def test_solve_json_report_is_byte_identical(econ_file, capsys):
    assert run_cli("solve", econ_file, "--concept", "re", "--json") == 0
    first = capsys.readouterr().out
    assert run_cli("solve", econ_file, "--concept", "re", "--json") == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["schema"] == cli.SCHEMA
    assert report["concept"] == "re"
    assert report["solutions"] == ["t=1: a1-b1"]
    assert len(report["economy_digest"]) == 64
    assert report["flags"]["threads"] == 1


@pytest.mark.parametrize("cap", ["0", "-5", "x"])
def test_bad_max_matchings_is_a_usage_error(econ_file, capsys, cap):
    code = run_cli("solve", econ_file, "--concept", "stable", "--max-matchings", cap)
    assert code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "--max-matchings" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("threads", ["0", "-3", "1"])
def test_bad_threads_is_a_usage_error(econ_file, capsys, threads):
    code = run_cli("solve", econ_file, "--concept", "stable", "--threads", threads)
    assert code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "--threads" in captured.err
    assert captured.out == ""


def test_unknown_concept_is_a_usage_error(econ_file, capsys):
    assert run_cli("solve", econ_file, "--concept", "bogus") == cli.EXIT_INPUT
    assert "--concept" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli("solve", "--help") == cli.EXIT_OK
    assert "--max-matchings" in capsys.readouterr().out


def test_timing_goes_to_stderr_not_stdout(econ_file, capsys):
    run_cli("solve", econ_file, "--concept", "stable", "--json")
    captured = capsys.readouterr()
    assert "solved in" in captured.err
    assert "solved in" not in captured.out


def test_missing_file_is_an_input_error(capsys):
    assert run_cli("solve", "/no/such/file.econ", "--concept", "stable") == 1


def test_malformed_economy_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.econ"
    path.write_text("periods: 1\nwibble\n")
    assert run_cli("solve", str(path), "--concept", "stable") == 1


def test_a_byte_order_mark_is_skipped(example1_file, tmp_path, capsys):
    bom_file = tmp_path / "bom.econ"
    bom_file.write_bytes(b"\xef\xbb\xbf" + Path(example1_file).read_bytes())
    reports = []
    for path in (example1_file, str(bom_file)):
        assert run_cli("solve", path, "--concept", "re", "--json") == cli.EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    spec = tmp_path / "m.txt"
    spec.write_bytes(b"\xef\xbb\xbft=1: a1-b1 a2-b2 | t=2: a3-b3 a4-b4\n")
    code = run_cli(
        "check", str(bom_file), "--concept", "sds", "--check", "cc",
        "--matching", f"@{spec}",
    )
    assert code == cli.EXIT_OK


def test_violated_ordinal_block_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "ordinal.econ"
    path.write_text(
        "periods: 1\n"
        "agent a1 side A arrives 1 delta 1/2\n"
        "agent b1 side B arrives 1 delta 1/2\n"
        "agent b2 side B arrives 1 delta 1/2\n"
        "prefs a1: b1=3 b2=5\n"
        "ordinal a1: (b1,0) (b2,0)\n"
    )
    assert run_cli("solve", str(path), "--concept", "stable") == cli.EXIT_INPUT
    assert "a1" in capsys.readouterr().err


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_a_tied_market_solves(tmp_path, capsys, concept):
    # a1 is indifferent between b1 and b2, who both want a1.
    path = tmp_path / "tied.econ"
    path.write_text(
        "periods: 1\n"
        "agent a1 side A arrives 1 delta 1/2\n"
        "agent b1 side B arrives 1 delta 1/2\n"
        "agent b2 side B arrives 1 delta 1/2\n"
        "prefs a1: b1=1 b2=1\n"
        "prefs b1: a1=1\n"
        "prefs b2: a1=1\n"
    )
    assert run_cli("solve", str(path), "--concept", concept) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "solutions (2):\n  t=1: a1-b1\n  t=1: a1-b2\n" in out


def test_out_of_range_discount_factor_names_its_line(tmp_path, capsys):
    path = tmp_path / "delta.econ"
    path.write_text(ONE_PAIR.replace("delta 1/2", "delta 3/2", 1))
    assert run_cli("solve", str(path), "--concept", "stable") == cli.EXIT_INPUT
    assert "line 2: discount factor of a1" in capsys.readouterr().err


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_enumeration_cap_exit_code(example1_file, capsys, concept):
    code = run_cli(
        "solve", example1_file, "--concept", concept, "--max-matchings", "5"
    )
    assert code == cli.EXIT_SIZE
    assert capsys.readouterr().err == (
        "error: enumeration exceeded the cap of 5 matchings in an economy "
        "with horizon 1 and 8 agents\n"
    )


# Each agent ranks its namesake first, so the one stable matching pairs all
# six, and check --check cc passes it.
THREE_A_SIDE = """\
periods: 1
agent a1 side A arrives 1 delta 1/2
agent a2 side A arrives 1 delta 1/2
agent a3 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1/2
agent b2 side B arrives 1 delta 1/2
agent b3 side B arrives 1 delta 1/2
prefs a1: b1=3 b2=2 b3=1
prefs a2: b2=3 b3=2 b1=1
prefs a3: b3=3 b1=2 b2=1
prefs b1: a1=3 a2=2 a3=1
prefs b2: a2=3 a3=2 a1=1
prefs b3: a3=3 a1=2 a2=1
"""
PERFECT = "t=1: a1-b1 a2-b2 a3-b3"


@pytest.mark.parametrize(
    "command", (["solve"], ["check", "--check", "cc", "--matching", PERFECT])
)
def test_every_static_scan_counts_its_pair_sets(tmp_path, capsys, command):
    # A 3x3 period has 34 pair sets.  solve scans them for the solutions,
    # check --check cc for the candidates; a cap of 5 stops both, before
    # either filters a pair set.
    path = tmp_path / "three.econ"
    path.write_text(THREE_A_SIDE)
    code = run_cli(*command, str(path), "--concept", "stable")
    assert code == cli.EXIT_OK
    capsys.readouterr()
    code = run_cli(*command, str(path), "--concept", "stable", "--max-matchings", "5")
    assert code == cli.EXIT_SIZE
    assert capsys.readouterr().err == (
        "error: enumeration exceeded the cap of 5 matchings in an economy "
        "with horizon 1 and 6 agents\n"
    )


@pytest.mark.parametrize("concept", ("stable", "sds"))
def test_a_horizon_too_long_to_recurse_is_an_input_error(tmp_path, capsys, concept):
    # Each period nests a few solver calls; 150 periods solve, 200 do not.
    path = tmp_path / "long.econ"
    path.write_text(ONE_PAIR.replace("periods: 1", "periods: 400"))
    assert run_cli("solve", str(path), "--concept", concept) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: horizon too long for the recursive solver\n"
    )


def test_empty_solution_set_exit_code(econ_file, capsys, monkeypatch):
    class EmptySolver:
        def __init__(self, *a, **kw):
            pass

        def solve(self, concept, economy):
            from dynmatch.concepts import SolveReport

            return SolveReport(concept, "vacuous", 10**7, (), (), (), ())

    monkeypatch.setattr(cli, "Solver", EmptySolver)
    assert run_cli("solve", econ_file, "--concept", "re") == cli.EXIT_EMPTY


def test_check_solution_pass_and_fail(econ_file, capsys):
    code = run_cli(
        "check", econ_file, "--concept", "stable",
        "--matching", "t=1: a1-b1",
    )
    assert code == cli.EXIT_OK
    code = run_cli(
        "check", econ_file, "--concept", "stable", "--matching", "t=1: -"
    )
    assert code == cli.EXIT_CHECK_FAILED
    assert "block" in capsys.readouterr().out


def test_witness_lines_name_the_block_and_its_payoffs(econ_file, capsys):
    # Staying single is blocked by the pair: u(a1,b1)=2 and v(b1,a1)=3 both
    # beat the payoff 0 of being single.
    from dynmatch.concepts import SolveReport

    expected = "Pair block at t=1 by a1, b1 (payoffs 2, 0, 3, 0)"
    code = run_cli(
        "check", econ_file, "--concept", "stable", "--matching", "t=1: -"
    )
    assert code == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out == f"solution: fail — {expected}\n"
    economy, _ = cli._load(econ_file)
    single = parse_matching_text(economy, "t=1: -")
    witness = is_phi_solution(economy, single, StableFamily())
    cli._print_report(
        SolveReport("stable", "vacuous", 1, (), (single,), (), ((single, witness),))
    )
    assert f"rejected t=1: -: {expected}\n" in capsys.readouterr().out


def test_the_stepping_market_reports_its_witness(capsys):
    # Under re, the stepping market's one candidate is not a solution: a2,
    # single in period 1, gets 0 against a threshold of 1/10.
    path = str(ROOT / "tests" / "sds_step.econ")
    rejected = "t=1: a1-b3 | t=2: a3-b2"
    assert run_cli("solve", path, "--concept", "re", "--json") == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["witnesses"] == [
        {
            "matching": rejected,
            "kind": "IndividualA",
            "period": 1,
            "agents": ["a2"],
            "payoffs": ["0", "1/10"],
        }
    ]
    assert run_cli("solve", path, "--concept", "re") == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert f"  {rejected}  [inconsistent at (t=1, a2)]" in lines
    assert lines[-1] == (
        f"rejected {rejected}: IndividualA block at t=1 by a2 (payoffs 0, 1/10)"
    )


def test_check_requires_matching_argument(econ_file, capsys):
    assert run_cli("check", econ_file, "--concept", "stable") == cli.EXIT_INPUT


def test_check_matching_from_file(econ_file, tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text("t=1: a1-b1\n")
    code = run_cli(
        "check", econ_file, "--concept", "stable", "--matching", f"@{spec}"
    )
    assert code == cli.EXIT_OK


def test_check_consistency_on_the_reference_market(example1_file, capsys):
    code = run_cli(
        "check", example1_file, "--concept", "re", "--check", "cc",
        "--matching", "t=1: a1-b1 a2-b2 | t=2: a1-b1 a2-b2 a3-b3 a4-b4",
    )
    assert code == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "not conjectured by a3 at t=1" in out
    code = run_cli(
        "check", example1_file, "--concept", "sds", "--check", "cc",
        "--matching", "t=1: a1-b1 a2-b2 | t=2: a3-b3 a4-b4",
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == "consistency: pass\n"


def test_check_non_candidate_is_an_input_error(example1_file, capsys):
    code = run_cli(
        "check", example1_file, "--concept", "re", "--check", "cc",
        "--matching", "t=1: - | t=2: -",
    )
    assert code == cli.EXIT_INPUT


def test_check_generalized_consistency(example1_file, econ_file, capsys):
    code = run_cli("check", example1_file, "--concept", "re", "--check", "gc")
    assert code == cli.EXIT_CHECK_FAILED
    assert run_cli("check", econ_file, "--concept", "stable", "--check", "gc") == 0


def test_check_generalized_consistency_rejects_a_matching(example1_file, capsys):
    code = run_cli(
        "check", example1_file, "--concept", "re", "--check", "gc",
        "--matching", "garbage",
    )
    assert code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--matching is not read by --check gc\n"


def test_reproduce_subcommand(capsys):
    assert run_cli("reproduce", "example2") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_installed_entry_point_runs(econ_file):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dynmatch.cli", "solve", econ_file,
         "--concept", "stable", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solutions"] == ["t=1: a1-b1"]
