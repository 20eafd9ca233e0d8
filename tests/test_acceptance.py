"""End-to-end acceptance gate.

One test per criterion; each prints a single ``criterion N: pass`` line on
success (visible with ``pytest -s``) and fails loudly otherwise.  All eight
run well under ten minutes on a laptop.
"""

import random

import pytest

from dynmatch.concepts import Solver
from dynmatch.dsl import parse, serialize, validate_ordinal
from dynmatch.economy import payoff
from dynmatch.framework import (
    AgreeFamily,
    candidate_matchings,
    consistency_failures,
    phi_solution_set,
    recursive_solution_set,
)
from dynmatch.matching import enumerate_matchings, next_economy
from dynmatch.reproduce import (
    FIXTURE_NAMES,
    fixture_text,
    load_fixture,
    run_example1,
    run_example2,
)
from dynmatch.statics import StaticEconomy, deferred_acceptance, stable_set

import reference
from corpus import RandomFamily, corpus, random_economy


def report(number: int) -> None:
    print(f"criterion {number}: pass")


@pytest.fixture(scope="module")
def solver():
    return Solver()


@pytest.fixture(scope="module")
def markets():
    """The shared random corpus for criteria 4-7."""
    return corpus(9000, 100, max_per_side=3, max_periods=3)


def test_criterion_1_first_reference_market_reproduces(solver):
    claims = run_example1(solver)
    for label, passed, detail in claims:
        assert passed, f"{label}: {detail}"
    report(1)


def test_criterion_2_second_reference_market_reproduces(solver):
    claims = run_example2(solver)
    for label, passed, detail in claims:
        assert passed, f"{label}: {detail}"
    report(2)


def test_criterion_3_one_period_solutions_equal_the_stable_set():
    rng = random.Random(9100)
    checked = 0
    for _ in range(200):
        e = random_economy(rng, horizon=1, max_per_side=4)
        a, b = e.arrivals[0]
        expected = {
            (pairs,) for pairs in stable_set(StaticEconomy(e, a, b))
        }
        for seed in (1, 2, 3):
            family = RandomFamily(seed)
            got = {m.periods for m in phi_solution_set(e, family)}
            assert got == expected
            checked += 1
    assert checked == 600
    report(3)


def test_criterion_4_candidates_are_consistent_solutions(solver, markets):
    family = solver.family("agree")
    for e in markets:
        solutions = set(solver.solution_set("agree", e))
        assert solutions
        for m_star in candidate_matchings(e, family):
            assert consistency_failures(e, m_star, family) == ()
            assert m_star in solutions
    report(4)


def test_criterion_5_value_respecting_refinement(solver, markets):
    family = solver.family("cvr-ds")
    for e in markets:
        assert solver.solution_set("cvr-ds", e)
        limit, trace = family.fixed_point(e)
        for earlier, later in zip(trace, trace[1:]):
            for k in earlier:
                assert set(later[k]) <= set(earlier[k])
        # Fixed-point identity: filtering the base by the limit's own
        # thresholds reproduces the limit.  No limit set is empty, so each
        # threshold is a worst payoff.
        thresholds = {k: min(payoff(e, m, k, 1) for m in limit[k]) for k in limit}
        for k in limit:
            assert limit[k] == tuple(
                m
                for m in trace[0][k]
                if reference.stable_among_matched(e, m.pairs_at(1), thresholds)
            )
        assert set(solver.solution_set("cvr-ds", e)) <= set(
            solver.solution_set("ds", e)
        )
    e2, _ = load_fixture("example2")
    assert set(solver.solution_set("cvr-ds", e2)) < set(
        solver.solution_set("ds", e2)
    )
    report(5)


def test_criterion_6_sophisticated_stability(solver, markets):
    family = solver.family("sds")
    for e in markets:
        assert solver.solution_set("sds", e)
        for earlier, later in zip(
            family.iterates(e), family.iterates(e)[1:]
        ):
            for k in earlier:
                assert set(earlier[k]) <= set(later[k])
        for m_star in candidate_matchings(e, family):
            assert consistency_failures(e, m_star, family) == ()
    report(6)


def test_criterion_7_oracle_equivalences(solver, markets):
    rng = random.Random(9700)
    for i, e in enumerate(markets[:40]):
        # Exhaustive filter vs period-1-plus-solved-continuations recursion.
        for family in (RandomFamily(9700 + i), solver.family("re")):
            assert recursive_solution_set(e, family) == phi_solution_set(
                e, family
            )
        # Stitched conjectures vs filtering the full enumeration: k single in
        # period 1, ds's period-1 test, and an exhaustively solved tail.
        full = enumerate_matchings(e)
        for concept in ("agree", "ds", "cvr-ds"):
            family = solver.family(concept)
            tails = {}
            for m in full:
                p1 = m.pairs_at(1)
                if p1 not in tails:
                    tails[p1] = set(phi_solution_set(next_economy(e, p1), family))
            if concept == "cvr-ds":
                stitched = family.iterates(e)[0]
            else:
                stitched = family.conjecture_sets(e)
            for k, conjectures in stitched.items():
                oracle = (
                    m
                    for m in full
                    if m.partner(k, 1) == k
                    and (
                        concept != "ds"
                        or reference.stable_among_matched(e, m.pairs_at(1), {})
                    )
                    and m.tail() in tails[m.pairs_at(1)]
                )
                assert conjectures == tuple(sorted(oracle, key=lambda m: m.periods))
    # Deferred acceptance lands in the exhaustive stable set, and the
    # same-unmatched-set property holds across each stable set.
    for _ in range(60):
        e = random_economy(rng, horizon=1, max_per_side=4)
        a, b = e.arrivals[0]
        e1 = StaticEconomy(e, a, b)
        full = stable_set(e1)  # asserts identical unmatched sets
        assert deferred_acceptance(e1, "A") in full
        assert deferred_acceptance(e1, "B") in full
    report(7)


def test_criterion_8_textual_format_round_trips():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        doc = parse(text)
        assert parse(serialize(doc)) == doc
        assert serialize(parse(serialize(doc))) == serialize(doc)
        validate_ordinal(doc.to_economy(), doc)
        assert doc.ordinals  # both preference tables carry ordinal blocks
    report(8)
