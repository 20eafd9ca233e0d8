import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from dynmatch import concepts, framework, matching, statics
from dynmatch.concepts import (
    CONCEPT_NAMES,
    FAMILIES,
    CVRFamily,
    FixedPointFamily,
    SDSFamily,
    Solver,
)
from dynmatch.dsl import parse
from dynmatch.economy import Economy, build_economy, payoff
from dynmatch.errors import (
    DynmatchError,
    EmptyContinuationSolutions,
    EmptyFixedPoint,
    LoneWolfViolation,
    NotAvailable,
    SizeLimitExceeded,
    UnknownAgent,
)
from dynmatch.framework import (
    EMPTY_POLICIES,
    AgreeFamily,
    ConjectureFamily,
    StableFamily,
    _canonical,
    candidate_set,
    check_consistency,
    check_generalized_consistency,
    consistency_failures,
    is_phi_solution,
    recursive_solution_set,
)
from dynmatch.matching import (
    DynamicMatching,
    continuations,
    defer_arrivals,
    enumerate_matchings,
    matching_text,
    next_economy,
)
from dynmatch.reproduce import (
    EXAMPLE1_STAR,
    EXAMPLE2_LEFT,
    EXAMPLE2_RIGHT,
    load_fixture,
    run_example1,
    run_example2,
)
from dynmatch.statics import NEG_INF, POS_INF

import reference
from corpus import DELTAS, ODD_NUMERATORS, corpus, random_economy
from test_statics import THRESHOLDS, idle_rival_market, one_pair_market


@pytest.fixture(scope="module")
def solver():
    return Solver()


@pytest.fixture(scope="module")
def market1(solver):
    return load_fixture("example1")[0]


@pytest.fixture(scope="module")
def market2(solver):
    return load_fixture("example2")[0]


def econ_market(name):
    return parse((Path(__file__).parent / f"{name}.econ").read_text()).to_economy()


@pytest.fixture(scope="module")
def stepping_market():
    return econ_market("sds_step")


@pytest.fixture(scope="module")
def agree_ds_market():
    return econ_market("agree_ds")


@pytest.fixture(scope="module")
def cvr_sds_market():
    return econ_market("cvr_sds")


def test_all_named_claims_hold(solver):
    for claims in (run_example1(solver), run_example2(solver)):
        for label, passed, detail in claims:
            assert passed, f"{label}: {detail}"


def test_concepts_coincide_on_one_period_markets(solver):
    # Every concept's conjectures leave the owner unmatched forever in a
    # one-period market, so all six collapse to the stable set.
    rng = random.Random(51)
    for _ in range(10):
        e = random_economy(rng, horizon=1, max_per_side=3)
        sets = {c: solver.solution_set(c, e) for c in CONCEPT_NAMES}
        assert len(set(sets.values())) == 1


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_solutions_are_nonempty_on_the_reference_markets(
    solver, market1, market2, concept
):
    assert solver.solution_set(concept, market1)
    assert solver.solution_set(concept, market2)


def test_refinement_chain_on_the_reference_markets(
    solver, market1, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    # The proved links of the chain: agree ⊆ stable, ds ⊆ agree and
    # cvr-ds ⊆ ds under both policies, and re ⊆ sds under strict.  Neither
    # sds ⊆ cvr-ds nor re ⊆ sds under vacuous is proved, so neither is
    # asserted.
    markets = (market1, market2, stepping_market, agree_ds_market, cvr_sds_market)
    markets += (*corpus(91, 120, max_per_side=2), *corpus(92, 60, max_per_side=3))
    for e in markets:
        check_proved_links(e)
    for e in (market1, market2):
        sds, ds = (set(solver.solution_set(c, e)) for c in ("sds", "ds"))
        assert sds <= ds


def check_proved_links(e):
    for policy in EMPTY_POLICIES:
        shared = Solver(policy)
        sols = {c: set(shared.solution_set(c, e)) for c in CONCEPT_NAMES}
        assert sols["agree"] <= sols["stable"]
        assert sols["ds"] <= sols["agree"]
        assert sols["cvr-ds"] <= sols["ds"]
        if policy == "strict":
            assert sols["re"] <= sols["sds"]


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_each_link_of_the_refinement_chain_is_strict_somewhere(
    policy, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    # Each concept of the chain keeps fewer solutions than the one before it
    # on a named market, so no link collapses to an equality.
    links = (
        ("stable", "agree", cvr_sds_market),
        ("stable", "agree", market2),
        ("agree", "ds", agree_ds_market),
        ("ds", "cvr-ds", market2),
        ("cvr-ds", "sds", cvr_sds_market),
        ("sds", "re", stepping_market),
    )
    for wider, narrower, e in links:
        shared = Solver(policy)
        kept = [set(shared.solution_set(c, e)) for c in (wider, narrower)]
        assert kept[0] > kept[1], (wider, narrower)


def test_value_respecting_conjectures_refine_plain_ones(solver):
    for e in corpus(52, 10, max_per_side=2):
        a1, b1 = e.arrivals[0]
        for k in (*a1, *b1):
            cvr = set(solver.conjectures("cvr-ds", e, k))
            ds = set(solver.conjectures("ds", e, k))
            assert cvr <= ds


def test_value_respecting_iteration_is_weakly_decreasing(solver, market2):
    trace = solver.family("cvr-ds").iterates(market2)
    for earlier, later in zip(trace, trace[1:]):
        for k in earlier:
            assert set(later[k]) <= set(earlier[k])
    assert len(trace) >= 2  # the reference market needs at least one cut


def test_value_respecting_thresholds_weakly_increase(solver, market2):
    family = solver.family("cvr-ds")
    trace = family.iterates(market2)
    for earlier, later in zip(trace, trace[1:]):
        lo = family.thresholds_of(market2, earlier)
        hi = family.thresholds_of(market2, later)
        for k in earlier:
            assert hi[k] >= lo[k]


def test_sophisticated_iteration_is_weakly_increasing(solver, market1, market2):
    for e in (market1, market2):
        trace = solver.family("sds").iterates(e)
        for earlier, later in zip(trace, trace[1:]):
            for k in earlier:
                assert set(earlier[k]) <= set(later[k])


def test_sophisticated_base_is_the_deferred_arrival_solution_set(solver):
    for e in corpus(53, 8, max_per_side=2):
        base = solver.family("sds").iterates(e)[0]
        a1, b1 = e.arrivals[0]
        for k in (*a1, *b1):
            assert set(base[k]) == set(
                solver.solution_set("sds", defer_arrivals(e, [k]))
            )


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_both_solution_routes_agree_on_random_markets(solver, concept):
    family = solver.family(concept)
    for e in corpus(54, 8, max_per_side=2):
        assert recursive_solution_set(e, family) == reference.solution_set(e, concept)


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_the_full_enumeration_count_is_always_a_sufficient_cap(concept):
    # Every economy the solver visits stitches at most as many matchings as
    # the root economy has, so a cap that admits the full enumeration
    # admits the solve.
    for e in corpus(55, 30):
        Solver(max_matchings=len(enumerate_matchings(e))).solve(concept, e)


def test_both_solution_routes_agree_under_strict_empty_conjectures():
    solver = Solver("strict")
    for e in corpus(54, 8, max_per_side=2):
        oracle = reference.Reference(e, "strict")
        for concept in CONCEPT_NAMES:
            family = solver.family(concept)
            assert recursive_solution_set(e, family) == oracle.solution_set(concept)


@st.composite
def markets(draw, max_per_side, deltas, values, unique):
    """Horizon 1-3, 1 to ``max_per_side`` agents a side arriving in any
    period, discount factors from ``deltas`` and, for every owner and every
    partner on the other side, a utility from ``values``, distinct per owner
    when ``unique``."""
    horizon = draw(st.integers(1, 3))
    a_names = [f"a{i}" for i in range(1, draw(st.integers(1, max_per_side)) + 1)]
    b_names = [f"b{i}" for i in range(1, draw(st.integers(1, max_per_side)) + 1)]
    arrival_of = {n: draw(st.integers(1, horizon)) for n in a_names + b_names}
    arrivals = [
        (
            [n for n in a_names if arrival_of[n] == t],
            [n for n in b_names if arrival_of[n] == t],
        )
        for t in range(1, horizon + 1)
    ]
    deltas = {n: draw(st.sampled_from(deltas)) for n in a_names + b_names}
    utilities = {}
    for owners, partners in ((a_names, b_names), (b_names, a_names)):
        for owner in owners:
            drawn = draw(
                st.lists(
                    st.sampled_from(values),
                    min_size=len(partners),
                    max_size=len(partners),
                    unique=unique,
                )
            )
            utilities.update(((owner, p), u) for u, p in zip(drawn, partners))
    return build_economy(horizon, arrivals, deltas, utilities)


def strict_markets(max_per_side=2):
    """Markets drawn as :func:`corpus.random_economy` draws them: odd
    numerators over 7 distinct per owner, and discount factors from
    ``DELTAS``, so no agent is ever indifferent."""
    values = tuple(Fraction(k, 7) for k in ODD_NUMERATORS)
    return markets(max_per_side, DELTAS, values, unique=True)


def tied_markets(max_per_side=3):
    """Markets with ties: up to ``max_per_side`` agents a side, utilities
    from -1, 0, 1 and 2 (0 ties with staying single, -1 with every unlisted
    partner) and discount factors 1/2 or 1."""
    values = tuple(Fraction(u) for u in (-1, 0, 1, 2))
    return markets(max_per_side, (Fraction(1, 2), Fraction(1)), values, unique=False)


# The concepts whose sets are never empty (AgreeFamily's docstring proves
# it), and with them cvr-ds, which refines agree's sets.
NEVER_EMPTY = ("stable", "agree", "ds")
POLICY_FREE = (*NEVER_EMPTY, "cvr-ds")


def check_never_empty(solver, e):
    for concept in NEVER_EMPTY:
        family = solver.family(concept)
        assert family.solution_set(e)
        assert all(family.conjecture_sets(e).values())


def check_consistent_families(e):
    # The paper's claim: consistency suffices for a nonempty solution set,
    # and the cvr-ds and sds families are consistent.  Generalized
    # consistency is not claimed for sds (example1 has an sds solution that
    # a1, a3 and b1 do not conjecture).  A conjecture leaves its owner
    # single now.
    solver, oracle = Solver(), reference.Reference(e)
    for concept in CONCEPT_NAMES:
        family = solver.family(concept)
        assert family.solution_set(e) == oracle.solution_set(concept)
        assert family.candidates(e) == oracle.candidate_set(concept)
        for k, conjectured in family.conjecture_sets(e).items():
            assert all(m.partner(k, 1) == k for m in conjectured)
    check_never_empty(solver, e)
    for concept in ("cvr-ds", "sds"):
        family = solver.family(concept)
        solutions = family.solution_set(e)
        assert solutions
        for m_star in family.candidates(e):
            assert consistency_failures(e, m_star, family) == ()
            assert m_star in solutions
    # The refinement chain: every concept's solutions are stable ones,
    # cvr-ds's and sds's are ds's, and re's are sds's.
    solved = {c: set(solver.solution_set(c, e)) for c in CONCEPT_NAMES}
    assert all(solved[c] <= solved["stable"] for c in CONCEPT_NAMES)
    assert solved["cvr-ds"] <= solved["ds"] and solved["sds"] <= solved["ds"]
    assert solved["re"] <= solved["sds"]


@st.composite
def among_matched_scans(draw, economies):
    """An economy, 0 to 4 of its agents a side in a drawn order, and a
    threshold for each: a sentinel, a small fraction or a utility of the
    economy, so that some partners sit exactly at a threshold."""
    e = draw(economies)
    a_names, b_names = (
        tuple(draw(st.lists(st.sampled_from(names), unique=True)))
        for names in (sum(side, ()) for side in zip(*e.arrivals))
    )
    values = sorted({u for _, u in e.profile.utilities})
    thresholds = st.one_of(THRESHOLDS, st.sampled_from(values))
    return e, a_names, b_names, {k: draw(thresholds) for k in (*a_names, *b_names)}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(
        among_matched_scans(strict_markets(max_per_side=4)),
        among_matched_scans(tied_markets(max_per_side=4)),
    )
)
def test_the_among_matched_scan_is_unblocked_with_singles_at_pos_inf(scan):
    # Built pair by pair, it must give the exhaustive scan's tuples in the
    # exhaustive scan's order: the solver stitches first periods in it.
    e, a_names, b_names, thresholds = scan
    threshold = thresholds.__getitem__
    exhaustive = statics.unblocked(e, a_names, b_names, threshold, lambda k: POS_INF)
    assert statics.unblocked_among_matched(e, a_names, b_names, threshold) == exhaustive


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(strict_markets())
def test_consistent_families_solve_every_strict_market(e):
    check_consistent_families(e)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(strict_markets(max_per_side=3))
def test_consistent_families_solve_strict_markets_three_a_side(e):
    check_consistent_families(e)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(strict_markets(max_per_side=4))
def test_consistent_families_solve_strict_markets_four_a_side(e):
    check_consistent_families(e)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(tied_markets())
def test_tied_markets_solve_under_every_concept(e):
    # Ties void the lone-wolf theorem, so its check does not run on them:
    # every concept solves, and both routes still agree.
    for policy in EMPTY_POLICIES:
        solver, oracle = Solver(policy), reference.Reference(e, policy)
        for concept in CONCEPT_NAMES:
            report = solver.solve(concept, e)
            assert report.solutions == oracle.solution_set(concept)
            assert report.candidates == oracle.candidate_set(concept)
        check_never_empty(solver, e)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.one_of(strict_markets(max_per_side=3), tied_markets()))
def test_a_search_steered_to_small_re_and_sds_solution_sets_finds_none_empty(e):
    # Whether re or sds can have an empty solution set is open: their
    # conjectures solve deferred economies, so AgreeFamily's proof does not
    # carry over.  Each concept and policy is a target that steers the draws
    # toward fewer solutions; an empty set fails here and is shrunk.
    for policy in EMPTY_POLICIES:
        solver = Solver(policy)
        for concept in ("re", "sds"):
            solutions = solver.solution_set(concept, e)
            target(-len(solutions), label=f"{concept} {policy}")
            assert solutions, (concept, policy)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(strict_markets(max_per_side=3))
def test_the_proved_links_of_the_refinement_chain_hold_on_strict_markets(e):
    check_proved_links(e)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(tied_markets())
def test_the_proved_links_of_the_refinement_chain_hold_on_tied_markets(e):
    check_proved_links(e)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.one_of(strict_markets(max_per_side=3), tied_markets()))
def test_the_empty_policy_changes_no_report_of_a_never_empty_concept(e):
    vacuous, strict = Solver("vacuous"), Solver("strict")
    for concept in POLICY_FREE:
        report = strict.solve(concept, e)
        assert replace(report, empty_policy="vacuous") == vacuous.solve(concept, e)


def check_solution_first_periods_are_stable(e):
    # Every solution's first period is stable among those it matches, under
    # the family's own root thresholds: a pruning of first periods by this
    # test loses no solution.
    for policy in EMPTY_POLICIES:
        solver = Solver(policy)
        for concept in CONCEPT_NAMES:
            family = solver.family(concept)
            thresholds = family.thresholds(e)
            for m in family.solution_set(e):
                assert reference.stable_among_matched(e, m.pairs_at(1), thresholds)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(strict_markets(max_per_side=3))
def test_solution_first_periods_are_stable_on_strict_markets(e):
    check_solution_first_periods_are_stable(e)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(tied_markets())
def test_solution_first_periods_are_stable_on_tied_markets(e):
    check_solution_first_periods_are_stable(e)


@st.composite
def thresholded_one_period_markets(draw):
    """A strict or tied one-period market, and thresholds (numbers or
    sentinels) for a random subset of its agents."""
    one_period = st.one_of(strict_markets(max_per_side=3), tied_markets())
    e = draw(one_period.filter(lambda e: e.horizon == 1))
    thresholds = {}
    for k in e.members():
        thr = draw(st.one_of(st.none(), THRESHOLDS))
        if thr is not None:
            thresholds[k] = thr
    return e, thresholds


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(thresholded_one_period_markets())
@example((idle_rival_market(), {}))
@example((one_pair_market(), {"a1": Fraction(1)}))
@example((one_pair_market(), {"a1": Fraction(3)}))
def test_the_among_matched_scan_is_the_reference_filter(case):
    # ConjectureFamily._among_matched builds, pair by pair, the static scan
    # with every single agent valued at POS_INF, which neither falls short
    # of its threshold nor blocks: so it keeps exactly the pair sets stable
    # among the agents they match, as ds's filter and cvr-ds's refinement
    # need.
    e, thresholds = case
    a1, b1 = e.arrivals[0]
    found = Solver().family("ds")._among_matched(e, thresholds)
    assert len(set(found)) == len(found)
    assert {frozenset(p) for p in found} == {
        p
        for p in reference.pair_sets(a1, b1)
        if reference.stable_among_matched(e, p, thresholds)
    }


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(strict_markets(max_per_side=3))
def test_reports_and_memo_order_do_not_depend_on_earlier_queries(e):
    # Solving each period-1 agent's deferred economy first fills the memo
    # with economies that share keys with e's continuations.
    a1, b1 = e.arrivals[0]
    for concept in CONCEPT_NAMES:
        warm = Solver()
        for k in (*a1, *b1):
            warm.solve(concept, defer_arrivals(e, [k]))
        assert warm.solve(concept, e) == Solver().solve(concept, e)
        if e.horizon > 1:
            cont = next_economy(e, ())
            ca, cb = cont.arrivals[0]
            key_order = [*sorted(ca), *sorted(cb)]
            family = warm.family(concept)
            assert list(family.conjecture_sets(cont)) == key_order
            assert list(family.thresholds(cont)) == key_order


class EmptyingCVRFamily(CVRFamily):
    def _step(self, economy, current):
        return {k: () for k in current}


class FirstConjectureCVRFamily(CVRFamily):
    def _step(self, economy, current):
        return {k: ms[:1] for k, ms in current.items()}


class UnsolvableFamily(StableFamily):
    def solution_set(self, economy):
        return ()


def test_an_empty_fixed_point_is_rejected(market1):
    message = "^conjecture iteration for a1 converged to the empty set$"
    with pytest.raises(EmptyFixedPoint, match=message):
        EmptyingCVRFamily().conjecture_sets(market1)


def test_a_limit_that_its_own_thresholds_do_not_reproduce_is_rejected(market1):
    # Keeping only the first conjecture drops some that the limit's
    # thresholds would keep, so refining the start by them differs.
    message = "^threshold fixed-point identity violated for a1$"
    with pytest.raises(DynmatchError, match=message) as info:
        FirstConjectureCVRFamily().conjecture_sets(market1)
    assert type(info.value) is DynmatchError


class TogglingFamily(FixedPointFamily, AgreeFamily):
    """Steps from agree's sets to each agent's first conjecture and back: a
    cycle of two iterates, neither the limit.  It gives up after 50 steps, so
    an iteration that misses the cycle fails rather than hangs."""

    steps = 0

    def _step(self, economy, current):
        self.steps += 1
        if self.steps > 50:
            raise AssertionError("the iteration ran on through a cycle")
        start = AgreeFamily._conjectures(self, economy)
        return {k: ms[:1] for k, ms in start.items()} if current == start else start


def test_a_fixed_point_iteration_that_cycles_is_rejected(market1):
    family = TogglingFamily()
    start = AgreeFamily._conjectures(family, market1)
    assert any(len(ms) > 1 for ms in start.values())
    message = "^conjecture iteration cycles every 2 steps$"
    with pytest.raises(DynmatchError, match=message) as info:
        family.conjecture_sets(market1)
    assert type(info.value) is DynmatchError
    assert family.steps == 2


class UnsolvedSDSFamily(SDSFamily):
    """sds, but the economy with the arrivals ``unsolved`` has no solution."""

    def __init__(self, unsolved, empty_policy="vacuous"):
        super().__init__(empty_policy)
        self.unsolved = unsolved

    def solution_set(self, economy):
        if economy.arrivals == self.unsolved:
            return ()
        return super().solution_set(economy)


ONE_A_SIDE = """periods: 2
agent a1 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1/2
agent a2 side A arrives 2 delta 1/2
agent b2 side B arrives 2 delta 1/2
prefs a1: b1=3 b2=1
prefs b1: a1=3 a2=1
prefs a2: b2=2 b1=1
prefs b2: a2=2 a1=1
"""


def test_a_round_of_one_agent_a_side_keeps_the_errors_of_its_candidates():
    # The round adds no conjecture there, but it is still run where
    # building its candidates raises.  a1 and b1 rank each other first, so
    # the pair clears both thresholds, and here the economy it leaves has
    # no solution.  If the economy that the empty first period leaves has
    # none, the start sets are empty, and under the strict policy the empty
    # first period is a candidate.  In a one-period market where a2 finds
    # b2 unacceptable, the candidates are the empty period alone, but a cap
    # of 1 is below the period's two pair sets, which their scan rejects.
    e = parse(ONE_A_SIDE).to_economy()
    paired = ((("a2",), ("b2",)),)
    waiting = next_economy(e, ()).arrivals
    assert waiting == ((("a1", "a2"), ("b1", "b2")),)
    for family, unsolved in (
        (UnsolvedSDSFamily(paired), paired),
        (UnsolvedSDSFamily(waiting, "strict"), waiting),
    ):
        with pytest.raises(EmptyContinuationSolutions) as info:
            family.conjecture_sets(e)
        expected = f"no continuation solutions for the arrivals {unsolved}"
        assert str(info.value) == expected
    unacceptable = parse(ONE_A_SIDE.replace("b2=2", "b2=-1")).to_economy()
    last = next_economy(unacceptable, (("a1", "b1"),))
    assert last.arrivals == ((("a2",), ("b2",)),)
    assert SDSFamily(max_matchings=2).conjecture_sets(last)
    message = r"^enumeration exceeded the cap of 1 matchings .* horizon 1 and 2 agents$"
    with pytest.raises(SizeLimitExceeded, match=message):
        SDSFamily(max_matchings=1).conjecture_sets(last)


def test_candidates_need_solved_continuations(market1):
    family = UnsolvableFamily()
    message = (
        r"^no continuation solutions for the arrivals "
        r"\(\(\('a3', 'a4'\), \('b3', 'b4'\)\),\)$"
    )
    with pytest.raises(EmptyContinuationSolutions, match=message):
        candidate_set(market1, family.conjecture_sets(market1), family)


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_each_rule_runs_once_per_economy(monkeypatch, concept):
    cls = FAMILIES[concept]
    rule = cls._conjectures
    calls = Counter()

    def counting(self, economy):
        calls[economy.key] += 1
        return rule(self, economy)

    monkeypatch.setattr(cls, "_conjectures", counting)
    steps = []
    if issubclass(cls, FixedPointFamily):
        step = cls._step

        def counting_step(self, economy, current):
            steps.append(economy.key)
            return step(self, economy, current)

        monkeypatch.setattr(cls, "_step", counting_step)
    for e in corpus(64, 4, max_per_side=2):
        calls.clear()
        solver = Solver()
        family = solver.family(concept)
        solver.solve(concept, e)
        check_generalized_consistency(e, family)
        a1, b1 = e.arrivals[0]
        for k in (*a1, *b1):
            family.conjecture_set(e, k)
        assert calls and set(calls.values()) == {1}
        if not issubclass(cls, FixedPointFamily):
            continue
        stepped = len(steps)
        solver.solve(concept, e)
        family.candidates(e)
        family.conjecture_sets(e)
        assert len(steps) == stepped
        start = {"cvr-ds": "agree", "sds": "re"}[concept]
        trace = family.iterates(e)
        assert trace[0] == Solver().family(start).conjecture_sets(e)
        assert trace[-1] == family.conjecture_sets(e)


@pytest.fixture(scope="module")
def pinned_and_corpus_markets(
    market1, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    """Both fixtures, the three pinned markets and 62 corpus markets of
    horizons 2 and 3, at most 3 agents a side."""
    return (
        market1,
        market2,
        stepping_market,
        agree_ds_market,
        cvr_sds_market,
        *corpus(75, 20, horizon=2, max_per_side=3),
        *corpus(76, 12, horizon=3, max_per_side=3),
        *corpus(77, 30, horizon=2, max_per_side=3),
    )


@pytest.mark.parametrize("concept", ("agree", "re", "ds", "cvr-ds", "sds"))
def test_last_period_thresholds_build_no_conjecture_sets(
    monkeypatch, pinned_and_corpus_markets, concept
):
    # Their horizon-1 thresholds are 0 without asking for a conjecture set,
    # and every candidate's and solution's last pair set is stable at 0, so
    # unconjectured_by never falls back to the conjecture sets: neither the
    # solve nor the cc and gc walks builds a horizon-1 set or, for re and
    # sds, defers an arrival of a horizon-1 economy.
    misses = Counter()
    deferred = Counter()
    defer = concepts.defer_arrivals

    def counting_defer(economy, names):
        deferred[economy.horizon] += 1
        return defer(economy, names)

    monkeypatch.setattr(concepts, "defer_arrivals", counting_defer)
    for policy in EMPTY_POLICIES:
        for e in pinned_and_corpus_markets:
            solver = Solver(policy)
            family = solver.family(concept)
            rule = family._conjectures

            def counting(economy, rule=rule):
                misses[economy.horizon] += 1
                return rule(economy)

            family._conjectures = counting
            solver.solution_set(concept, e)
            solver.solve(concept, e)
            for m in family.candidates(e):
                check_consistency(e, m, family)
            check_generalized_consistency(e, family)
    assert misses and misses[1] == 0
    assert deferred[1] == 0
    assert bool(deferred[2]) == (concept in ("re", "sds"))


def one_sided(economy):
    """The horizon if period 1 lacks side-A or side-B agents, else 0: the
    economies of any horizon whose solutions AgreeFamily stitches straight
    from their continuation."""
    a1, b1 = economy.arrivals[0]
    return 0 if a1 and b1 else economy.horizon


def solved_as_the_definition(markets, concept, policy, selected):
    """Every economy a solve of ``markets`` reaches that ``selected`` picks
    has the solutions of the definition, ConjectureFamily._solutions, on a
    fresh family that takes that route at every economy; the count of those
    checked, by horizon 1 and horizon 2 or more."""
    checked = Counter()
    for e in markets:
        solver = Solver(policy)
        family = solver.family(concept)
        reached = []
        rule = family._solutions

        def recording(economy, rule=rule, reached=reached):
            reached.append(economy)
            return rule(economy)

        family._solutions = recording
        solver.solve(concept, e)
        fresh = Solver(policy).family(concept)
        fresh._solutions = partial(ConjectureFamily._solutions, fresh)
        for d in filter(selected, reached):
            assert family.solution_set(d) == ConjectureFamily._solutions(fresh, d)
            checked[min(d.horizon, 2)] += 1
    return checked


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", ("agree", "re", "ds", "cvr-ds", "sds"))
def test_one_sided_periods_solve_as_the_default_filter(
    pinned_and_corpus_markets, concept, policy
):
    # A rule that also skipped the threshold filter of a two-sided period
    # would show in the continuations.  Since solutions prune their first
    # periods, the solves reach fewer one-sided continuations: 41 of
    # horizon 2 or more for agree and cvr-ds, 39 for ds, 272 for re and
    # sds; 25 of horizon 1 for agree and cvr-ds, 9 for ds, 8 for re and sds.
    checked = solved_as_the_definition(
        pinned_and_corpus_markets, concept, policy, one_sided
    )
    assert checked[2] >= 20 and checked[1] >= 5


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", ("agree", "re", "ds", "cvr-ds", "sds"))
def test_pruned_two_sided_periods_solve_as_the_default_filter(
    pinned_and_corpus_markets, concept, policy
):
    # AgreeFamily._solutions stitches only the first periods stable among
    # the agents they match at the family's thresholds; the definition
    # stitches every one and lets period_witness reject them.
    def pruned(economy):
        return economy.horizon >= 2 and not one_sided(economy)

    checked = solved_as_the_definition(
        pinned_and_corpus_markets, concept, policy, pruned
    )
    # 50 for agree and cvr-ds, 43 for ds, 280 for re and sds.
    assert checked[2] >= 40


@pytest.mark.parametrize("concept", ("re", "sds"))
def test_solutions_solve_no_continuation_of_an_unstable_first_period(
    monkeypatch, pinned_and_corpus_markets, concept
):
    # A solution's first period is stable among the agents it matches, at
    # the family's thresholds, so solving builds no continuation economy
    # of a first period that fails that test.  re's conjectures are the
    # solutions of deferred economies, and sds's candidates are stable at
    # the thresholds of its iterates, which only fall to the limit's.  The
    # conjectures of agree and cvr-ds stitch every first period, and ds's
    # those stable among the matched at 0, below its thresholds, so those
    # three are left out.  Only the continuation memo's misses reach
    # next_economy, so each economy built is recorded once.
    built = []
    step = matching.next_economy

    def recording(economy, pairs):
        built.append((economy, pairs))
        return step(economy, pairs)

    monkeypatch.setattr(matching, "next_economy", recording)
    checked = 0
    for policy in EMPTY_POLICIES:
        for e in pinned_and_corpus_markets:
            family = Solver(policy).family(concept)
            built.clear()
            family.solution_set(e)
            for economy, pairs in tuple(built):
                if pairs:  # the empty first period matches nobody
                    thresholds = family.thresholds(economy)
                    assert reference.stable_among_matched(economy, pairs, thresholds)
                    checked += 1
    # 434 for re and for sds: sds's candidates reuse the continuations its
    # solutions and start sets built (662 derivations without the memo).
    assert checked >= 400


def recording_derivations(monkeypatch):
    """Every (economy key, first period) that next_economy derives outside
    the continuations walk, which the consistency checks and the witnesses
    take without the memo, with the economy derived."""
    derived = []
    step = matching.next_economy

    def recording(economy, pairs):
        cont = step(economy, pairs)
        if sys._getframe(1).f_code.co_name != "continuations":
            derived.append(((economy.key, pairs), cont))
        return cont

    monkeypatch.setattr(matching, "next_economy", recording)
    return derived


def test_each_continuation_economy_is_derived_once_per_solver(
    monkeypatch, market1, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    # A solver's families share one memo of continuation economies, so
    # solving all six concepts (solutions, candidates, consistency and
    # witnesses) derives each (economy key, first period) once.
    derived = recording_derivations(monkeypatch)
    markets = (market1, market2, stepping_market, agree_ds_market, cvr_sds_market)
    total = 0
    for policy in EMPTY_POLICIES:
        for e in (*markets, *corpus(78, 12, max_per_side=3)):
            derived.clear()
            solver = Solver(policy)
            for concept in CONCEPT_NAMES:
                solver.solve(concept, e)
            counts = Counter(key for key, _ in derived)
            assert max(counts.values(), default=1) == 1
            total += len(counts)
    # 754 economies derived.
    assert total >= 500


def test_two_solvers_share_no_continuation_economy(monkeypatch, market1):
    derived = recording_derivations(monkeypatch)
    solvers, seen = (Solver(), Solver()), []
    for solver in solvers:
        derived.clear()
        for concept in CONCEPT_NAMES:
            solver.solve(concept, market1)
        seen.append(dict(derived))
    first, second = seen
    assert first and first.keys() == second.keys()
    assert not {id(cont) for cont in first.values()} & {
        id(cont) for cont in second.values()
    }


def check_derived_economies(root):
    """Every economy derived from ``root`` by next_economy, over each first
    period, and by defer_arrivals, of each period-1 agent, recursively down
    to horizon 0, against the economy Economy(...) builds from scratch on
    its schedule; one economy per key is followed.  Returns the count."""
    everyone, seen = root.members(), set()

    def check(derived):
        if derived.key in seen:
            return
        seen.add(derived.key)
        fresh = Economy(derived.horizon, derived.arrivals, derived.profile)
        assert derived == fresh and hash(derived) == hash(fresh)
        assert (derived.horizon, derived.arrivals) == (fresh.horizon, fresh.arrivals)
        assert derived.key == fresh.key and derived.members() == fresh.members()
        # Attributes set in __init__'s order keep its fast attribute reads.
        assert list(vars(derived)) == list(vars(fresh))
        for k in everyone:
            if k in fresh.members():
                assert derived.side_of(k) == fresh.side_of(k)
                assert derived.arrival_period(k) == fresh.arrival_period(k)
            else:  # matched or left
                with pytest.raises(UnknownAgent):
                    derived.side_of(k)
                with pytest.raises(UnknownAgent):
                    derived.arrival_period(k)
        if derived.horizon:
            a1, b1 = derived.arrivals[0]
            for p1 in matching.period_matchings(a1, b1):
                check(next_economy(derived, p1))
            for k in (*a1, *b1):
                check(defer_arrivals(derived, [k]))

    check(root)
    return len(seen)


def test_derived_economies_equal_economies_built_from_scratch(
    market1, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    # A derived economy takes its index and key from its parent's, with no
    # check; it must read as the economy built from its schedule does.
    # It lists its agents in its parent's declaration order.
    markets = (market1, market2, stepping_market, agree_ds_market, cvr_sds_market)
    tied = tied_one_period_markets(41, 10)
    checked = sum(
        check_derived_economies(e)
        for e in (*markets, *corpus(79, 20, max_per_side=3), *tied)
    )
    # 2,140 economies, one per key.
    assert checked >= 1000


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.one_of(strict_markets(max_per_side=3), tied_markets()))
def test_derived_economies_equal_economies_built_from_scratch_on_drawn_markets(e):
    check_derived_economies(e)


def small_first_period(economy):
    """Is period 1 one-sided, or has it at most one agent a side?"""
    a1, b1 = economy.arrivals[0]
    return not (a1 and b1) or len(a1) == len(b1) == 1


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_sds_rounds_of_small_first_periods_build_no_candidates(
    monkeypatch, pinned_and_corpus_markets, policy
):
    # Such a round adds no conjecture (AgreeFamily._solutions), so the
    # fixed point stops at its start without building candidates, and the
    # sets are still the definition's.
    built = set()
    build = concepts.candidate_set

    def recording(economy, conjectured, family):
        built.add(economy.key)
        return build(economy, conjectured, family)

    monkeypatch.setattr(concepts, "candidate_set", recording)
    checked = Counter()
    for e in pinned_and_corpus_markets:
        solver = Solver(policy)
        family = solver.family("sds")
        reached = []
        rule = family._conjectures

        def recording_rule(economy, rule=rule, reached=reached):
            reached.append(economy)
            return rule(economy)

        family._conjectures = recording_rule
        solver.solve("sds", e)
        oracle = reference.Reference(e, policy)  # its markets share e's profile
        for d in filter(small_first_period, reached):
            assert d.key not in built
            expected = oracle.conjectures("sds", reference.schedule(d))
            assert family.conjecture_sets(d) == {
                k: reference.canonical(ms) for k, ms in expected.items()
            }
            a1, b1 = d.arrivals[0]
            checked[bool(a1 and b1)] += 1
    # 110 periods of one agent a side and 39 one-sided ones.
    assert checked[True] >= 50 and checked[False] >= 20


class EveryRoundSDSFamily(SDSFamily):
    """sds with every round building its candidates."""

    def _step(self, economy, current):
        candidates = candidate_set(economy, current, self)
        return {
            k: _canonical(ms + tuple(m for m in candidates if m.partner(k, 1) == k))
            for k, ms in current.items()
        }


def outcome(call):
    try:
        return call()
    except DynmatchError as exc:
        return type(exc), str(exc)


# Waiting costs nothing, so a1 and b1 conjecture pairing in period 2 or 3,
# worth exactly what pairing now is: the pair clears both thresholds with
# equality, so it cannot block the empty first period.  The candidates of
# period 1 then stitch both first periods, three matchings in all.
WAITING_PAIR = """periods: 3
agent a1 side A arrives 1 delta 1
agent b1 side B arrives 1 delta 1
prefs a1: b1=1
prefs b1: a1=1
"""


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_skipped_sds_rounds_keep_the_results_and_errors_of_every_cap(policy):
    # A round is skipped only where building its candidates would raise
    # nothing: in a 1x1 period a cap of 1 trips their scan, and a cap below
    # |S(C)| plus the pair's solved continuations their stitch, once a
    # threshold ties the pair's utility (WAITING_PAIR at a cap of 2).
    checked = Counter()
    for e in (*corpus(79, 40, max_per_side=2), parse(WAITING_PAIR).to_economy()):
        reached = []
        family = SDSFamily(policy)
        rule = family._conjectures

        def recording_rule(economy, rule=rule, reached=reached):
            reached.append(economy)
            return rule(economy)

        family._conjectures = recording_rule
        family.solution_set(e)
        for d in filter(small_first_period, reached):
            for cap in (1, 2, 3, 4, 6, 8):
                skipping, every = (
                    outcome(lambda: cls(policy, cap).conjecture_sets(d))
                    for cls in (SDSFamily, EveryRoundSDSFamily)
                )
                assert skipping == every
                checked[type(skipping) is tuple] += 1
    # 66 sets and 96 errors under each policy.
    assert checked[False] >= 30 and checked[True] >= 50


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", ("agree", "re", "ds", "cvr-ds", "sds"))
def test_one_sided_periods_build_no_thresholds(
    pinned_and_corpus_markets, concept, policy
):
    # Their solutions read no threshold and build no conjecture set, so re
    # and sds defer no arrival of a one-sided economy and cvr-ds and sds
    # run no fixed point on one.
    calls = Counter()
    for e in pinned_and_corpus_markets:
        family = Solver(policy).family(concept)
        for hook in ("_solutions", "_threshold_rule", "_conjectures"):
            rule = getattr(family, hook)

            def counting(economy, hook=hook, rule=rule):
                calls[hook, min(one_sided(economy), 2)] += 1
                return rule(economy)

            setattr(family, hook, counting)
        family.solution_set(e)
    # Of horizon 2 or more: 41 for agree and cvr-ds, 39 for ds, 237 for re
    # and sds.  Of horizon 1: 25, 9 and 8.
    assert calls["_solutions", 2] >= 20 and calls["_solutions", 1] >= 5
    for horizon in (1, 2):  # 1, and 2 or more
        assert calls["_threshold_rule", horizon] == calls["_conjectures", horizon] == 0


def lone(economy, k):
    """Is k the only period-1 agent on its side?"""
    return (k,) in economy.arrivals[0]


def deferral_conjectures(family, economy):
    """re's conjecture sets, or the sets sds's fixed point starts from."""
    if isinstance(family, FixedPointFamily):
        return family.iterates(economy)[0]
    return family.conjecture_sets(economy)


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", ("re", "sds"))
def test_deferral_conjectures_are_the_solutions_of_the_deferred_economy(
    pinned_and_corpus_markets, concept, policy
):
    # The definition: k's set is the solution set of the economy in which
    # k arrives a period late, here solved on a fresh solver.  A lone agent's
    # set is stitched without building that economy; every economy whose
    # conjectures a solve builds is checked, lone agents or not.
    checked = Counter()
    for e in pinned_and_corpus_markets:
        family = Solver(policy).family(concept)
        reached = [e]
        rule = family._conjectures

        def recording(economy, rule=rule, reached=reached):
            reached.append(economy)
            return rule(economy)

        family._conjectures = recording
        family.solution_set(e)
        fresh = Solver(policy).family(concept)
        for d in reached:
            for k, conjectured in deferral_conjectures(family, d).items():
                assert conjectured == fresh.solution_set(defer_arrivals(d, [k]))
                checked[lone(d, k)] += 1
    # 425 lone agents and 540 others for re, 406 and 531 for sds.
    assert checked[True] >= 50 and checked[False] >= 50


@pytest.mark.parametrize("concept", ("re", "sds"))
def test_a_lone_agent_s_conjectures_defer_no_arrival(
    monkeypatch, pinned_and_corpus_markets, concept
):
    # Deferring the only period-1 agent of a side leaves a one-sided period,
    # whose solutions are the empty first period stitched onto what it
    # leaves, so the lone agents' sets are read from that one stitch.
    deferred, built = [], Counter()
    defer = concepts.defer_arrivals

    def recording(economy, names):
        deferred.append((economy, tuple(names)))
        return defer(economy, names)

    monkeypatch.setattr(concepts, "defer_arrivals", recording)
    for policy in EMPTY_POLICIES:
        for e in pinned_and_corpus_markets:
            family = Solver(policy).family(concept)
            rule = family._conjectures

            def counting(economy, rule=rule):
                a1, b1 = economy.arrivals[0]
                built[True] += sum(lone(economy, k) for k in (*a1, *b1))
                built[False] += sum(not lone(economy, k) for k in (*a1, *b1))
                return rule(economy)

            family._conjectures = counting
            family.solution_set(e)
            family.candidates(e)
    # 738 lone agents and 942 others; each of the others defers once.
    assert built[True] >= 50 and built[False] >= 50
    assert len(deferred) == built[False]
    assert not any(lone(economy, k) for economy, (k,) in deferred)


def tied_one_period_markets(seed, count, max_per_side=4):
    """One-period markets with ties, zero utilities (a tie with staying
    single) and unlisted partners."""
    rng = random.Random(seed)
    markets = []
    for _ in range(count):
        a = [f"a{i}" for i in range(1, rng.randint(1, max_per_side) + 1)]
        b = [f"b{i}" for i in range(1, rng.randint(1, max_per_side) + 1)]
        utilities = {
            (owner, partner): Fraction(rng.choice((-1, 0, 1, 1, 2, 2)))
            for owners, partners in ((a, b), (b, a))
            for owner in owners
            for partner in partners
            if rng.random() < 0.8
        }
        deltas = dict.fromkeys((*a, *b), Fraction(1, 2))
        markets.append(build_economy(1, [(a, b)], deltas, utilities))
    return markets


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", ("agree", "re", "ds", "cvr-ds", "sds"))
def test_last_period_rule_answers_as_the_conjecture_sets(concept, policy):
    # The horizon-1 rule of unconjectured_by against its definition, the
    # conjecture sets, on every pair set and every agent it leaves single.
    outcomes = Counter()
    markets = (
        *corpus(71, 60, horizon=1, max_per_side=4),
        *tied_one_period_markets(72, 60),
    )
    for e in markets:
        family = Solver(policy).family(concept)
        conjectured = family.conjecture_sets(e)
        a1, b1 = e.arrivals[0]
        for m in enumerate_matchings(e):
            answer = family.unconjectured_by(e, m)
            for k in (*a1, *b1):
                if m.partner(k, 1) == k:
                    expected = m not in conjectured[k]
                    assert (k in answer) == expected, (matching_text(m), k)
                    outcomes[expected] += 1
                else:
                    assert k not in answer
            assert list(answer) == sorted(answer, key=(*a1, *b1).index)
    assert outcomes[False]
    assert bool(outcomes[True]) == (concept != "agree")


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_last_period_conjecture_sets_match_the_reference(concept, policy):
    # tests/reference.py builds each concept's horizon-1 sets from the
    # definitions, with its own enumerator and stability test, so a fault in
    # the static layer that moves the solver's sets and its answers together
    # (first_block, unblocked, is_stable) shows here.
    markets = (
        *corpus(71, 60, horizon=1, max_per_side=4),
        *tied_one_period_markets(72, 60),
    )
    for e in markets:
        expected = reference.conjecture_sets(concept, e)
        conjectured = Solver(policy).family(concept).conjecture_sets(e)
        assert set(conjectured) == set(expected)
        for k, ms in conjectured.items():
            firsts = [frozenset(m.pairs_at(1)) for m in ms]
            assert len(set(firsts)) == len(firsts)
            assert set(firsts) == expected[k], k
        if concept == "stable":
            continue
        # The lemma of AgreeFamily._threshold_rule: k's set holds every pair
        # set stable at 0 in the market without k, and there is one.  So a
        # pair set stable in the whole market is conjectured by every agent
        # it leaves single.
        a1, b1 = e.arrivals[0]
        for k in expected:
            without = reference.stable_without(e, k)
            assert without and without <= expected[k], k
        for p in reference.pair_sets(a1, b1):
            if reference.stable_at_zero(e, a1, b1, p):
                single = {*a1, *b1}.difference(*p)
                assert all(p in expected[k] for k in single)


def forced_walk(economy, m, family):
    """The consistency walk with every answer read from the conjecture sets."""
    return tuple(
        (t, k)
        for t, (cont, rest) in enumerate(continuations(economy, m), start=1)
        for k in ConjectureFamily.unconjectured_by(family, cont, rest)
    )


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_consistency_reports_match_the_walk_through_conjecture_sets(
    market1, market2, stepping_market, agree_ds_market, cvr_sds_market, concept, policy
):
    markets = (
        *corpus(73, 20, horizon=2, max_per_side=3),
        *corpus(74, 12, horizon=3, max_per_side=3),
        stepping_market,
        agree_ds_market,
        cvr_sds_market,
        market1,
        market2,
    )
    # A candidate's or solution's last period is stable at thresholds 0, so
    # the five horizon-1 rules name no agent here; the test above is where a
    # wrong rule shows.  This one checks the walk around them.
    for e in markets:
        family = Solver(policy).family(concept)
        report = Solver(policy).solve(concept, e)
        for m, passed, failures in report.consistency:
            assert failures == forced_walk(e, m, family)
            assert passed == (not failures)


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_last_period_solutions_run_no_period_witness(
    monkeypatch, market1, market2, concept
):
    # Horizon-1 thresholds are 0, so a last-period solution set is the static
    # stable set: no stitched horizon-1 matching goes through the filter.
    horizons = Counter()
    real = framework.period_witness

    def counting(cont, rest, family, t=1):
        horizons[cont.horizon] += 1
        return real(cont, rest, family, t)

    monkeypatch.setattr(framework, "period_witness", counting)
    for e in (market1, market2):
        Solver().family(concept).solution_set(e)
    assert horizons and horizons[1] == 0


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_cached_thresholds_are_those_of_the_conjecture_sets(
    monkeypatch, market1, market2, stepping_market, concept, policy
):
    # A cache of cvr-ds's or sds's start thresholds instead of its limit's
    # fails here: the stepping market's sds step moves a threshold.  The
    # expected threshold is computed here, not by the family's thresholds_of.
    empty = NEG_INF if policy == "vacuous" else POS_INF
    real = ConjectureFamily.thresholds
    computed = {}
    economies = {}

    def recording(self, economy):
        result = real(self, economy)
        computed.setdefault(economy.key, []).append(result)
        economies[economy.key] = economy
        return result

    monkeypatch.setattr(ConjectureFamily, "thresholds", recording)
    markets = (
        *corpus(66, 6, max_per_side=2),
        *corpus(5, 40, max_per_side=4, horizon=1),
        market1,
        market2,
        stepping_market,
    )
    for e in markets:
        computed.clear()
        economies.clear()
        solver = Solver(policy)
        family = solver.family(concept)
        solver.solve(concept, e)
        check_generalized_consistency(e, family)
        assert computed
        # A cache miss builds a new mapping; every key gets at most one.
        for results in computed.values():
            assert all(r is results[0] for r in results)
        # Building a conjecture set the solve skipped records more economies.
        for cont in list(economies.values()):
            for k, threshold in family.thresholds(cont).items():
                conjectured = family.conjecture_set(cont, k)
                worst = min(
                    (payoff(cont, m, k, 1) for m in conjectured), default=empty
                )
                assert threshold == worst
                # Every conjecture leaves its owner single in the only period.
                if cont.horizon == 1:
                    assert threshold == 0


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_the_sds_step_moves_a_threshold_of_the_stepping_market(
    stepping_market, policy
):
    solver = Solver(policy)
    texts = {
        c: [matching_text(m) for m in solver.solution_set(c, stepping_market)]
        for c in ("re", "sds", "cvr-ds")
    }
    deferred = "t=1: a2-b3 | t=2: a1-b1 a3-b2"
    assert texts["re"] == [deferred]
    assert texts["sds"] == texts["cvr-ds"] == ["t=1: a1-b3 | t=2: a3-b2", deferred]
    trace = solver.family("sds").iterates(stepping_market)
    assert len(trace) == 2
    start, limit = (
        solver.family("sds").thresholds_of(stepping_market, it) for it in trace
    )
    assert start == {
        "a1": Fraction(5, 42),
        "a2": Fraction(1, 10),
        "b3": Fraction(9, 10),
    }
    assert limit == {**start, "a2": Fraction(0)}
    assert solver.family("sds").thresholds(stepping_market) == limit


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_the_reference_gives_the_solver_sets_of_the_pinned_markets(
    policy, market1, market2, stepping_market, agree_ds_market, cvr_sds_market
):
    # Both fixtures and the three tests/*.econ markets: every concept's
    # solutions and candidates, as tests/reference.py builds them from the
    # definitions, sharing no code with the solver.
    solver = Solver(policy)
    for e in (market1, market2, stepping_market, agree_ds_market, cvr_sds_market):
        oracle = reference.Reference(e, policy)
        for concept in CONCEPT_NAMES:
            family = solver.family(concept)
            assert family.solution_set(e) == oracle.solution_set(concept), concept
            assert family.candidates(e) == oracle.candidate_set(concept), concept


# Draw 118,837 of corpus.random_economy(Random(1), horizon=2, max_per_side=3),
# the first of those draws with three agents a side on which the sds fixed
# point takes a step.
SDS_STEP_THREE_A_SIDE = """\
periods: 2
agent a1 side A arrives 1 delta 7/10
agent a2 side A arrives 1 delta 9/10
agent a3 side A arrives 1 delta 5/6
agent b1 side B arrives 1 delta 5/8
agent b2 side B arrives 1 delta 3/4
agent b3 side B arrives 2 delta 1/2
prefs a1: b1=3/7 b2=1/7 b3=-3/7
prefs a2: b1=9/7 b2=1/7 b3=15/7
prefs a3: b1=-1 b2=3/7 b3=1/7
prefs b1: a1=11/7 a2=19/7 a3=13/7
prefs b2: a1=-9/7 a2=15/7 a3=11/7
prefs b3: a1=9/7 a2=1 a3=13/7
"""


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_sds_steps_on_a_generated_three_a_side_market(policy):
    # The step adds to a1's conjectures the candidate in which a2-b1 and
    # a3-b2 form at once and nobody matches later.  That lowers a1's
    # threshold from 3/10 (its worst deferred-arrival conjecture) to 0, and
    # that candidate becomes an sds solution that re does not have.
    e = parse(SDS_STEP_THREE_A_SIDE).to_economy()
    solver = Solver(policy)
    family = solver.family("sds")
    trace = family.iterates(e)
    assert len(trace) == 2
    start, limit = (family.thresholds_of(e, it) for it in trace)
    assert start["a1"] == Fraction(3, 10) and limit == {**start, "a1": 0}
    added = [m for m in trace[1]["a1"] if m not in trace[0]["a1"]]
    late = "t=1: a2-b1 a3-b2 | t=2: -"
    assert [matching_text(m) for m in added] == [late]
    assert all(trace[1][k] == trace[0][k] for k in trace[0] if k != "a1")
    early = "t=1: a1-b1 a3-b2 | t=2: a2-b3"
    assert [matching_text(m) for m in solver.solution_set("re", e)] == [early]
    assert [matching_text(m) for m in solver.solution_set("sds", e)] == [early, late]
    oracle = reference.Reference(e, policy)
    for concept in CONCEPT_NAMES:
        family = solver.family(concept)
        assert family.conjecture_sets(e) == oracle.conjecture_sets(concept)
        assert family.solution_set(e) == oracle.solution_set(concept)
        assert family.candidates(e) == oracle.candidate_set(concept)


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_ds_refines_agree_strictly_on_the_separating_market(agree_ds_market, policy):
    solver = Solver(policy)
    solved = {c: solver.solution_set(c, agree_ds_market) for c in CONCEPT_NAMES}
    texts = {c: [matching_text(m) for m in ms] for c, ms in solved.items()}
    dynamic = "t=1: - | t=2: a1-b1 a2-b3 a4-b2"
    early = "t=1: a1-b4 | t=2: a2-b3 a4-b2"
    assert texts["stable"] == texts["agree"] == [dynamic, early]
    for concept in ("ds", "re", "cvr-ds", "sds"):
        assert texts[concept] == [dynamic]
    assert set(solved["ds"]) < set(solved["agree"])


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_cvr_ds_and_sds_differ_on_the_separating_market(cvr_sds_market, policy):
    solver = Solver(policy)
    solved = {c: solver.solution_set(c, cvr_sds_market) for c in CONCEPT_NAMES}
    texts = {c: [matching_text(m) for m in ms] for c, ms in solved.items()}
    held = "t=1: - | t=2: a2-b2 a3-b1 | t=3: -"
    late = "t=1: - | t=2: a3-b1 | t=3: a1-b2"
    assert texts["stable"] == [held, late, "t=1: a2-b1 | t=2: - | t=3: a1-b2"]
    for concept in ("agree", "ds", "cvr-ds"):
        assert texts[concept] == [held, late]
    assert texts["re"] == texts["sds"] == [late]
    # At t=2 the worst conjecture of b2 is worth 5/56 under cvr-ds and 25/56
    # under sds, against 1/7 = 8/56 from a2.
    witness = is_phi_solution(cvr_sds_market, solved["cvr-ds"][0], solver.family("sds"))
    assert witness.kind == "IndividualB" and witness.period == 2
    assert witness.agents == ("b2",)
    assert witness.payoffs == (Fraction(1, 7), Fraction(25, 56))


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_horizon_0_has_no_period_1_agent(concept):
    e = build_economy(0, [], {}, {})
    solver = Solver()
    family = solver.family(concept)
    assert family.conjecture_sets(e) == family.thresholds(e) == {}
    message = "^a1 is not available at period 1$"
    with pytest.raises(NotAvailable, match=message):
        family.conjecture_set(e, "a1")
    with pytest.raises(NotAvailable, match=message):
        solver.conjectures(concept, e, "a1")
    assert solver.solve(concept, e).solutions == (DynamicMatching(()),)
    assert family.thresholds_of(e, {}) == {}
    assert family.unconjectured_by(e, DynamicMatching(())) == ()


def test_solve_report_contents(solver, market1):
    report = solver.solve("re", market1)
    assert report.concept == "re"
    assert {c for c, _, _ in report.consistency} == set(report.candidates)
    solved = set(report.solutions)
    assert {c for c, _ in report.witnesses} == set(report.candidates) - solved
    assert EXAMPLE1_STAR in solved
    for c, passed, fails in report.consistency:
        assert passed == (not fails)


def test_reference_market_two_report(solver, market2):
    report = solver.solve("cvr-ds", market2)
    assert EXAMPLE2_RIGHT in report.solutions
    assert EXAMPLE2_LEFT not in report.solutions
    assert EXAMPLE2_LEFT in solver.solution_set("ds", market2)


def test_unknown_concept_is_rejected(solver):
    with pytest.raises(ValueError):
        solver.solution_set("bogus", load_fixture("example1")[0])


def test_solver_reuses_cached_solution_sets(solver, market1):
    assert solver.solution_set("ds", market1) is solver.solution_set(
        "ds", market1
    )


def test_stable_set_caches_belong_to_their_solver(monkeypatch):
    # The scan memo computes a stable set through statics.stable_set, which
    # reads statics.unblocked, and every other scan through framework's
    # import of it, so both are counted.
    calls = []
    real = statics.unblocked

    def counting(economy, *args):
        calls.append(economy)
        return real(economy, *args)

    monkeypatch.setattr(framework, "unblocked", counting)
    monkeypatch.setattr(statics, "unblocked", counting)
    e = load_fixture("example1")[0]
    first = Solver().solve("stable", e)
    first_calls = len(calls)
    assert first_calls > 0
    second = Solver().solve("stable", e)
    assert second == first
    # A fresh solver starts with empty caches and runs every static scan
    # again; nothing is shared through module state.
    assert len(calls) == 2 * first_calls
    # A family built alone starts with a memo of its own, empty too.
    family = StableFamily()
    assert family.solution_set(e) == first.solutions
    assert family.candidates(e) == first.candidates
    assert len(calls) == 3 * first_calls


def test_one_solver_runs_each_static_scan_once(
    monkeypatch, market1, market2, stepping_market, agree_ds_market
):
    # The last-period solutions, the candidates, ds's filter and cvr-ds's
    # refinement of every concept share the solver's scan memo: a scan
    # repeats neither across concepts, nor between a family's solutions and
    # its candidates, nor between the last round of sds's fixed point and
    # its candidates.  So no first period is tested twice against one
    # threshold mapping, however many conjectures share it.  The scans
    # among the matched, built pair by pair, count with the others.
    calls, kinds = [], Counter()
    real, among = statics.unblocked, statics.unblocked_among_matched

    def counting(economy, a_names, b_names, threshold, single):
        agents = sorted((*a_names, *b_names))
        reads = tuple((k, threshold(k), single(k)) for k in agents)
        calls.append((economy.key, reads))
        kinds["unblocked"] += 1
        return real(economy, a_names, b_names, threshold, single)

    def counting_among(economy, a_names, b_names, threshold):
        agents = sorted((*a_names, *b_names))
        reads = tuple((k, threshold(k), POS_INF) for k in agents)
        calls.append((economy.key, reads))
        kinds["among"] += 1
        return among(economy, a_names, b_names, threshold)

    for module in (framework, statics):
        monkeypatch.setattr(module, "unblocked", counting)
        monkeypatch.setattr(module, "unblocked_among_matched", counting_among)
    solver = Solver()
    for e in (market1, market2, stepping_market, agree_ds_market):
        for concept in CONCEPT_NAMES:
            solver.solve(concept, e)
    assert kinds["unblocked"] and kinds["among"]
    assert len(calls) == len(set(calls))


def test_each_stored_stable_set_is_checked_once(monkeypatch, market1, market2):
    # A scan whose single values equal its thresholds is a stable set: the
    # scan memo computes it through statics.stable_set, which checks it
    # once, when it is stored, whichever of the last-period solutions, the
    # candidates or the sds step asks first; a memo hit checks nothing.
    stable_scans, checks = [], []
    real_scan, real_check = statics.unblocked, statics.assert_lone_wolf

    def scanning(economy, a_names, b_names, threshold, single):
        agents = (*a_names, *b_names)
        if all(threshold(k) == single(k) for k in agents):
            stable_scans.append(economy.key)
        return real_scan(economy, a_names, b_names, threshold, single)

    def checking(e1, matchings):
        checks.append(e1.economy.key)
        return real_check(e1, matchings)

    monkeypatch.setattr(framework, "unblocked", scanning)
    monkeypatch.setattr(statics, "unblocked", scanning)
    monkeypatch.setattr(statics, "assert_lone_wolf", checking)
    solver = Solver()
    for e in (market1, market2):
        for concept in CONCEPT_NAMES:
            solver.solve(concept, e)
    assert stable_scans  # 49
    assert checks == stable_scans


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_last_period_solutions_are_checked_by_the_lone_wolf_theorem(
    monkeypatch, concept
):
    # A strict market's stable sets all leave the same agents single, so a
    # scan that kept two pair sets leaving different ones single is wrong:
    # the last-period solutions raise on it before any candidate is read.
    e = one_pair_market()
    wrong = ((), (("a1", "b1"),))
    monkeypatch.setattr(framework, "unblocked", lambda *args: wrong)
    monkeypatch.setattr(statics, "unblocked", lambda *args: wrong)
    family = Solver().family(concept)
    asked = []
    monkeypatch.setattr(family, "candidates", asked.append)
    with pytest.raises(LoneWolfViolation):
        family.solution_set(e)
    assert asked == []


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_reports_do_not_depend_on_the_order_of_concepts(policy):
    # A scan memo hit lists its pair sets in the order of whichever economy
    # with the same key asked first, under whichever concept.  Each concept
    # first solves a twin that declares every period's agents in reverse,
    # so its scans fill the memo in another order; the reports must not
    # show it.
    markets = [load_fixture(name)[0] for name in ("example1", "example2")]
    markets += [econ_market(name) for name in ("agree_ds", "cvr_sds", "sds_step")]
    markets += corpus(67, 60, max_per_side=3)
    for e in markets:
        reversed_arrivals = tuple((a[::-1], b[::-1]) for a, b in e.arrivals)
        twin = Economy(e.horizon, reversed_arrivals, e.profile)
        fresh = {c: Solver(policy).solve(c, e) for c in CONCEPT_NAMES}
        for order in (CONCEPT_NAMES, CONCEPT_NAMES[::-1]):
            shared = Solver(policy)
            for c in order:
                shared.solve(c, twin)
                assert shared.solve(c, e) == fresh[c]
