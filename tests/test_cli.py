import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynmatch import cli, is_phi_solution, parse_matching_text
from dynmatch.concepts import CONCEPT_NAMES, Solver
from dynmatch.framework import EMPTY_POLICIES, StableFamily
from dynmatch.matching import DEFAULT_MAX_MATCHINGS, matching_text
from dynmatch.reproduce import FIXTURE_NAMES, fixture_text, load_fixture

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


# SHA-256 of the stdout of `check --check gc` on each fixture x concept, with
# its exit code, the same under both empty-conjecture policies; every pair
# not listed prints "generalized consistency: pass" and exits 0.
GC_PASS = "30786f1debd997c335b6e07ce7ea836b5711ee6098d4ac49b947ccf5c8705ac4"
GC_FAILS = {
    "example1/stable": "603cdbf359656d747ef26d181eb01a277533b4436ea9172a11ab112cbc72731d",
    "example1/re": "c34e7d8621cf46121080816b78292dbe50ed6decf17efa54b6214e8986e02976",
    "example1/sds": "a27547998d5a91782e026dd9560b576124bd389383bdb5848aef723d11135c3a",
    "example2/stable": "153f986fdd88440f011fc2f91bea51d8c22a0c991a57776905794772486103e4",
}


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_fixture_gc_checks_match_their_digests(name, concept, policy, capsys):
    path = ROOT / "src" / "dynmatch" / "fixtures" / f"{name}.econ"
    argv = ("--concept", concept, "--check", "gc", "--empty-conjectures", policy)
    code = run_cli("check", str(path), *argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    failing = GC_FAILS.get(f"{name}/{concept}")
    expected = (cli.EXIT_CHECK_FAILED, failing) if failing else (cli.EXIT_OK, GC_PASS)
    assert (code, digest) == expected


# The one candidate of each fixture x concept, the same under both
# empty-conjecture policies, with whether `check --check cc` passes it.  A
# pass prints "consistency: pass" and exits 0; each failure prints "not
# conjectured by a3 at t=1" and exits with EXIT_CHECK_FAILED.
CC_PASS = "c8ec96435d055ae45cf3fbe34ed1bd495772997be19d3e8cd859d163dafe67a8"
CC_FAIL = "e867883d35c21eb382e8020dd12ba6230eb9732738d3fb95b0b0c1a43d0397e8"
EXAMPLE1_CANDIDATE = "t=1: a1-b1 a2-b2 | t=2: a3-b3 a4-b4"
EXAMPLE2_LATE = "t=1: - | t=2: a1-b3 a2-b4 a3-b1 a4-b2"
EXAMPLE2_EARLY = "t=1: a2-b2 | t=2: a1-b3 a3-b1 a4-b4"
CC_CANDIDATES = {
    "example1/stable": (EXAMPLE1_CANDIDATE, False),
    "example1/agree": (EXAMPLE1_CANDIDATE, True),
    "example1/re": (EXAMPLE1_CANDIDATE, False),
    "example1/ds": (EXAMPLE1_CANDIDATE, True),
    "example1/cvr-ds": (EXAMPLE1_CANDIDATE, True),
    "example1/sds": (EXAMPLE1_CANDIDATE, True),
    "example2/stable": ("t=1: a1-b1 a2-b2 | t=2: a3-b4 a4-b3", True),
    "example2/agree": (EXAMPLE2_EARLY, True),
    "example2/re": (EXAMPLE2_LATE, True),
    "example2/ds": (EXAMPLE2_EARLY, True),
    "example2/cvr-ds": (EXAMPLE2_LATE, True),
    "example2/sds": (EXAMPLE2_LATE, True),
}


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_fixture_cc_checks_match_their_digests(name, concept, policy, capsys):
    text, passed = CC_CANDIDATES[f"{name}/{concept}"]
    family = Solver(policy).family(concept)
    candidates = family.candidates(load_fixture(name)[0])
    assert [matching_text(m) for m in candidates] == [text]
    path = ROOT / "src" / "dynmatch" / "fixtures" / f"{name}.econ"
    argv = ("--concept", concept, "--check", "cc", "--empty-conjectures", policy)
    code = run_cli("check", str(path), *argv, "--matching", text)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    expected = (cli.EXIT_OK, CC_PASS) if passed else (cli.EXIT_CHECK_FAILED, CC_FAIL)
    assert (code, digest) == expected


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


def test_one_parser_serves_every_call_of_a_process(econ_file, capsys):
    # The parser is built once per process; a refused flag value must leave
    # nothing behind for the next call, and each report names its own flags.
    assert cli.build_parser() is cli.build_parser()
    solve = ("solve", econ_file, "--concept", "stable")
    assert run_cli(*solve, "--max-matchings", "0") == cli.EXIT_INPUT
    capsys.readouterr()
    for extra, cap in (((), DEFAULT_MAX_MATCHINGS), (("--max-matchings", "5"), 5)):
        assert run_cli(*solve, "--json", *extra) == cli.EXIT_OK
        flags = json.loads(capsys.readouterr().out)["flags"]
        assert flags == {
            "empty_conjectures": "vacuous",
            "max_matchings": cap,
            "threads": 1,
        }
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
    # Solutions read the root's thresholds before they stitch, and ds's
    # thresholds scan the root's period 1 first; the other concepts' first
    # scan is of a horizon-1 continuation.
    horizon = 2 if concept == "ds" else 1
    assert capsys.readouterr().err == (
        "error: enumeration exceeded the cap of 5 matchings in an economy "
        f"with horizon {horizon} and 8 agents\n"
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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --matching is required for --check solution\n"


def test_check_rejects_its_flags_before_reading_the_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.econ")
    for flags in (("--check", "cc"), ("--check", "gc", "--matching", "-")):
        assert run_cli("check", missing, "--concept", "re", *flags) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --matching is ")


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
    assert captured.err == "error: --matching is not read by --check gc\n"


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
