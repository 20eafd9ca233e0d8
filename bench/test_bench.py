"""Tests of the benchmark's own code: python -m pytest -q bench"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ladder import DEFAULT_SEED, TieError, assert_strict, ladder_text  # noqa: E402
from layers import RUN_LEVEL, UNITS  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import COLD, ROOT, WORKLOADS, solve_cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic():
    first = ladder_text(3, 5, random.Random(DEFAULT_SEED))
    again = ladder_text(3, 5, random.Random(DEFAULT_SEED))
    other = ladder_text(3, 5, random.Random(DEFAULT_SEED + 1))
    assert first.encode() == again.encode()
    assert first != other


@pytest.mark.parametrize(
    "utilities",
    [
        # Two partners valued the same now.
        {("a1", "b1"): Fraction(1), ("a1", "b2"): Fraction(1)},
        # b1 one period late (delta 1/2) ties b2 now.
        {("a1", "b1"): Fraction(1), ("a1", "b2"): Fraction(1, 2)},
        # A partner valued like staying single.
        {("a1", "b1"): Fraction(0)},
    ],
)
def test_strictness_check_fires_on_a_tie(utilities):
    with pytest.raises(TieError):
        assert_strict(2, {"a1": Fraction(1, 2)}, utilities)


def test_strictness_check_passes_a_strict_market():
    assert_strict(
        2,
        {"a1": Fraction(3, 4)},
        {("a1", "b1"): Fraction(5, 7), ("a1", "b2"): Fraction(-3, 7)},
    )


def test_reports_under_tracing_are_byte_identical():
    sys.path.insert(0, str(ROOT / "src"))
    import dynmatch
    import dynmatch.cli as cli
    from dynmatch.economy import payoff
    from layers import layer_metrics
    from tracing import Tracer

    ops = COLD["fixtures"](DEFAULT_SEED, None)
    (op,) = [op for op in ops if op.label == "example2/ds"]
    untraced = solve_cli(cli, op)
    tracer = Tracer()
    tracer.install(dynmatch)
    try:
        traced = solve_cli(cli, op)
    finally:
        tracer.restore()
    assert traced == untraced
    assert tracer.missing == []
    assert tracer.calls("cli.main") == 1
    assert dynmatch.framework.payoff is payoff
    assert set(layer_metrics(tracer, 1)) | {name for name, _ in RUN_LEVEL} == set(UNITS)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
