import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dynmatch.concepts import CONCEPT_NAMES, Solver
from dynmatch.economy import build_economy, payoff
from dynmatch.dsl import load
from dynmatch.errors import (
    DynmatchError,
    HorizonTooLong,
    NotACandidate,
    NotAvailable,
    SizeLimitExceeded,
    UnknownAgent,
)
from dynmatch.framework import (
    EMPTY_POLICIES,
    AgreeFamily,
    BlockWitness,
    StableFamily,
    candidate_matchings,
    candidate_set,
    check_consistency,
    check_generalized_consistency,
    consistency_failures,
    is_phi_solution,
    period_witness,
    phi_solution_set,
    recursive_solution_set,
)
from dynmatch.matching import (
    DynamicMatching,
    continuation,
    defer_arrivals,
    empty_matching,
    enumerate_matchings,
    next_economy,
    pair_set_count,
)
from dynmatch.reproduce import load_fixture
from dynmatch.statics import NEG_INF, POS_INF, StaticEconomy, stable_set

from corpus import RandomFamily, corpus, random_economy


def as_dynamic(pairs):
    return DynamicMatching((tuple(sorted(pairs)),))


def test_one_period_solutions_under_idle_conjectures_are_the_stable_set():
    rng = random.Random(31)
    for _ in range(40):
        e = random_economy(rng, horizon=1, max_per_side=3)
        a, b = e.arrivals[0]
        expected = {as_dynamic(p) for p in stable_set(StaticEconomy(e, a, b))}
        assert set(phi_solution_set(e, StableFamily())) == expected


def test_one_period_solutions_under_random_conjectures_are_still_stable():
    # With thresholds no higher than staying single forever, period-payoff
    # comparisons reduce to static stability in one-period markets.
    rng = random.Random(32)
    for seed in (1, 2, 3):
        family = RandomFamily(seed)
        for _ in range(15):
            e = random_economy(rng, horizon=1, max_per_side=3)
            a, b = e.arrivals[0]
            expected = {
                as_dynamic(p) for p in stable_set(StaticEconomy(e, a, b))
            }
            assert set(phi_solution_set(e, family)) == expected


def test_recursive_route_agrees_with_exhaustive_filter():
    # Conjectures drawn from all matchings may pair their owner now or be
    # empty, so last-period thresholds include nonzero numbers and sentinels.
    for i, e in enumerate(corpus(33, 35, max_per_side=2)):
        for anywhere, policy in itertools.product((False, True), EMPTY_POLICIES):
            family = RandomFamily(i, anywhere, policy)
            assert recursive_solution_set(e, family) == phi_solution_set(e, family)


def test_consistent_candidates_are_solutions_for_arbitrary_families():
    # The paper's key lemma: a candidate that every agent it leaves unmatched
    # conjectures is a solution, whatever the conjectures.  Drawn from all
    # matchings, they may pair their owner now or be empty.
    candidates = consistent = 0
    for i, e in enumerate(corpus(91, 120, max_per_side=3)):
        for anywhere, policy in itertools.product((False, True), EMPTY_POLICIES):
            family = RandomFamily(i, anywhere, policy)
            solutions = set(family.solution_set(e))
            for m in family.candidates(e):
                candidates += 1
                if not consistency_failures(e, m, family):
                    consistent += 1
                    assert m in solutions
    assert (candidates, consistent) == (667, 170)


def test_recursive_route_agrees_for_the_self_referential_family():
    for e in corpus(34, 10, max_per_side=2)[:10]:
        family = AgreeFamily()
        assert recursive_solution_set(e, family) == phi_solution_set(e, family)


def test_witnesses_replay():
    # Every rejected matching yields a witness whose recorded numbers
    # reproduce the violated inequality from primitives.
    for i, e in enumerate(corpus(35, 15, max_per_side=2)):
        family = RandomFamily(100 + i)
        solutions = set(phi_solution_set(e, family))
        for m in enumerate_matchings(e):
            verdict = is_phi_solution(e, m, family)
            if m in solutions:
                assert verdict is True
                continue
            assert isinstance(verdict, BlockWitness)
            t = verdict.period
            if verdict.kind == "Pair":
                a, b = verdict.agents
                u_ab, u_a, v_ba, v_b = verdict.payoffs
                assert u_ab == e.utility(a, b) and v_ba == e.utility(b, a)
                assert u_a == payoff(e, m, a, t) and v_b == payoff(e, m, b, t)
                assert u_ab > u_a and v_ba > v_b
            else:
                (k,) = verdict.agents
                val, thr = verdict.payoffs
                assert val == payoff(e, m, k, t)
                assert val < thr


def test_a_witness_is_falsy():
    # is_phi_solution returns True or a witness, so `if result:` reads as
    # "is a solution".
    assert not BlockWitness("IndividualA", 1, ("a1",), (0, 1))


def test_witness_reports_the_earliest_failing_period():
    for i, e in enumerate(corpus(36, 10, max_per_side=2)):
        if e.horizon < 2:
            continue
        family = RandomFamily(200 + i)
        for m in enumerate_matchings(e):
            verdict = is_phi_solution(e, m, family)
            if verdict is True:
                continue
            for t in range(1, verdict.period):
                # No earlier period can contain a violation.
                cont, rest = continuation(e, m, t)
                assert period_witness(cont, rest, family, t) is None
            cont, rest = continuation(e, m, verdict.period)
            assert period_witness(cont, rest, family, verdict.period) == verdict


def test_is_phi_solution_rejects_an_infeasible_matching():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), ((), ("b2",))],
        {n: Fraction(1, 2) for n in ("a1", "b1", "b2")},
        {("a1", "b1"): Fraction(1), ("a1", "b2"): Fraction(1)},
    )
    doubled = DynamicMatching(((), (("a1", "b1"), ("a1", "b2"))))
    one_period = DynamicMatching(((),))
    for m in (doubled, one_period):
        with pytest.raises(ValueError):
            is_phi_solution(e, m, StableFamily())


WRONG_HORIZON = "matching horizon differs from the economy's"


# Matchings that are not matchings of example1 (two periods).  Unchecked, the
# walk reported 13 failures on the first, 4 on the second, and ran past the
# third's one period with an IndexError.
@pytest.mark.parametrize(
    "m, message",
    [
        (empty_matching(3), WRONG_HORIZON),
        (
            DynamicMatching(((("a1", "zz"),), (("a1", "zz"),))),
            "zz is not a side-B agent arrived by 1",
        ),
        (empty_matching(1), WRONG_HORIZON),
    ],
    ids=["three-periods", "unknown-agent", "one-period"],
)
@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_consistency_walk_rejects_a_matching_of_another_economy(m, message, concept):
    e = load_fixture("example1")[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        consistency_failures(e, m, Solver().family(concept))


def test_conjecture_sets_leave_the_owner_unmatched_now():
    for i, e in enumerate(corpus(37, 10, max_per_side=2)):
        family = RandomFamily(300 + i)
        a1, b1 = e.arrivals[0]
        for k in (*a1, *b1):
            for m in family.conjecture_set(e, k):
                assert m.partner(k, 1) == k


def test_conjecture_set_requires_availability():
    e = build_economy(
        2,
        [(("a1",), ()), ((), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {},
    )
    with pytest.raises(NotAvailable):
        StableFamily().conjecture_set(e, "b1")


def test_conjectures_reduce_to_the_continuation_market():
    # Two histories freeing the same agents lead to one continuation
    # economy, and so to one conjecture set.
    names = ("a1", "a2", "a3", "b1", "b2", "b3")
    e = build_economy(
        2,
        [(("a1", "a2", "a3"), ("b1", "b2", "b3")), ((), ())],
        {n: Fraction(1, 2) for n in names},
        {("a3", "b3"): Fraction(1), ("b3", "a3"): Fraction(1)},
    )
    family = RandomFamily(7)
    # Both histories free exactly a3 and b3 for period 2.
    e_one = next_economy(e, (("a1", "b1"), ("a2", "b2")))
    e_two = next_economy(e, (("a1", "b2"), ("a2", "b1")))
    one = family.conjecture_set(e_one, "a3")
    two = RandomFamily(7).conjecture_set(e_two, "a3")
    assert one == two and one


def test_agree_conjecture_sets_in_the_last_period_are_unrestricted():
    for e in corpus(38, 8, max_per_side=2):
        if e.horizon < 2:
            continue
        family = AgreeFamily()
        T = e.horizon
        for m in enumerate_matchings(e):
            cont, _ = continuation(e, m, T)
            a1, b1 = cont.arrivals[0]
            for k in (*a1, *b1):
                got = set(family.conjecture_set(cont, k))
                base = {
                    continuation(e, c, T)[1]
                    for c in enumerate_matchings(e)
                    if c.periods[: T - 1] == m.periods[: T - 1]
                    and c.partner(k, T) == k
                }
                assert got == base
            break  # one history per economy keeps this cheap


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_candidate_routes_agree_for_every_concept(concept):
    family = Solver().family(concept)
    # In the last market a stable solution leaves a1 and b2 single in period
    # 2, where the induced economy's only stable first period pairs them, so
    # stitching onto solutions (candidate_set) gives one matching more than
    # stitching onto candidates.
    for e in corpus(39, 10, max_per_side=2) + corpus(251, 1, max_per_side=2):
        exhaustive = candidate_matchings(e, family)
        assert family.candidates(e) == exhaustive
        if concept != "stable":
            assert candidate_set(e, family.conjecture_sets(e), family) == exhaustive


def test_horizon_0_candidate_set_is_the_empty_matching():
    e = build_economy(0, [], {}, {})
    assert candidate_set(e, {}, StableFamily()) == (DynamicMatching(()),)


def test_candidate_set_names_the_agents_it_has_no_conjectures_for():
    # thresholds_of is the one conversion from conjecture sets, so it names
    # the agents left out, and candidate_set reports them through it.
    e = load_fixture("example1")[0]
    for family in (StableFamily(), Solver().family("re")):
        partial = dict(family.conjecture_sets(e))
        del partial["a2"], partial["b1"]
        for entry in (family.thresholds_of, lambda e, c: candidate_set(e, c, family)):
            message = "^no conjecture set for period-1 agents a1, a2, a3, b1, b2$"
            with pytest.raises(ValueError, match=message):
                entry(e, {})
            message = "^no conjecture set for period-1 agents a2, b1$"
            with pytest.raises(ValueError, match=message):
                entry(e, partial)


def test_solver_never_calls_the_exhaustive_routes(monkeypatch):
    markets = corpus(41, 6, max_per_side=2)
    oracle = Solver()
    expected = {
        (concept, e.key): (
            phi_solution_set(e, oracle.family(concept)),
            candidate_matchings(e, oracle.family(concept)),
        )
        for concept in CONCEPT_NAMES
        for e in markets
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the solve path called an exhaustive route")

    names = ("phi_solution_set", "candidate_matchings", "enumerate_matchings")
    for module_name, module in list(sys.modules.items()):
        if module_name == "dynmatch" or module_name.startswith("dynmatch."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    solver = Solver()
    for concept in CONCEPT_NAMES:
        for e in markets:
            report = solver.solve(concept, e)
            assert (report.solutions, report.candidates) == expected[concept, e.key]


def test_solutions_are_candidates_for_the_self_referential_family():
    for e in corpus(40, 10, max_per_side=2):
        family = AgreeFamily()
        candidates = set(candidate_matchings(e, family))
        for m in family.solution_set(e):
            assert m in candidates


def test_induced_economy_exposes_available_agents_only():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), (("a2",), ())],
        {n: Fraction(1, 2) for n in ("a1", "a2", "b1")},
        {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)},
    )
    family = StableFamily()
    assert list(family.thresholds_of(e, family.conjecture_sets(e))) == ["a1", "b1"]


def test_thresholds_of_is_worst_case_payoff():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), ((), ("b2",))],
        {"a1": Fraction(1, 2), "b1": Fraction(1), "b2": Fraction(1)},
        {
            ("a1", "b1"): Fraction(4),
            ("a1", "b2"): Fraction(10),
            ("b1", "a1"): Fraction(1),
            ("b2", "a1"): Fraction(1),
        },
    )
    stay_single = DynamicMatching.from_formed([[], []])
    match_late = DynamicMatching.from_formed([[], [("a1", "b2")]])
    family = StableFamily()
    thr = family.thresholds_of(e, {"a1": [stay_single, match_late], "b1": []})
    assert thr["a1"] == Fraction(0)
    thr = family.thresholds_of(e, {"a1": [match_late], "b1": []})
    assert thr["a1"] == Fraction(5)


def test_thresholds_of_follows_the_empty_conjecture_policy():
    # An unknown policy is rejected when the family is built
    # (test_family_rejects_a_bad_configuration).
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)},
    )
    empty = {"a1": (), "b1": ()}
    assert StableFamily("vacuous").thresholds_of(e, empty) == {
        "a1": NEG_INF,
        "b1": NEG_INF,
    }
    assert StableFamily("strict").thresholds_of(e, empty) == {
        "a1": POS_INF,
        "b1": POS_INF,
    }
    single = DynamicMatching.from_formed([[]])
    assert StableFamily("strict").thresholds_of(e, {"a1": [single], "b1": ()}) == {
        "a1": 0,
        "b1": POS_INF,
    }


def rough_markets():
    """Seeded corpus draws with their discount factors redrawn to include 0
    and 1, and their utilities redrawn from four values, so that ties are
    common, and a quarter of them left unlisted: what the corpus, strict by
    design, never draws."""
    rng = random.Random(36)
    markets, deltas = [], (0, 1, Fraction(0), Fraction(1), Fraction(1, 2))
    for e in corpus(36, 24, max_per_side=2):
        drawn = {k: rng.choice(deltas) for k in e.members()}
        utilities = {
            pair: rng.choice((Fraction(-1), 0, Fraction(1), Fraction(2)))
            for pair, _ in e.profile.utilities
            if rng.random() >= 0.25
        }
        markets.append(build_economy(e.horizon, e.arrivals, drawn, utilities))
    return markets


def payoff_markets():
    """Both fixtures, the markets of tests/*.econ and :func:`rough_markets`."""
    econ = sorted(Path(__file__).parent.glob("*.econ"))
    assert len(econ) == 3
    return [
        *(load_fixture(name)[0] for name in ("example1", "example2")),
        *(load(path.read_text())[0] for path in econ),
        *rough_markets(),
    ]


def test_rough_markets_hold_ties_unlisted_partners_and_extreme_deltas():
    markets = rough_markets()
    assert {0, 1} <= {d for e in markets for _, d in e.profile.deltas}
    unlisted = tied = False
    for e in markets:
        for k in e.members():
            listed = [u for (owner, _), u in e.profile.utilities if owner == k]
            partners = sum(e.side_of(n) != e.side_of(k) for n in e.members())
            unlisted |= len(listed) < partners
            tied |= len(set(listed)) < len(listed) or 0 in listed
    assert unlisted and tied


def test_the_payoff_reader_reads_what_payoff_computes():
    # Thresholds and the solution filters read period-1 payoffs from the
    # solver's value table: each read, whether it fills an entry or finds it
    # filled, equals payoff's, type included.
    family = Solver().family("re")
    for e in payoff_markets():
        a1, b1 = e.arrivals[0]
        matchings = enumerate_matchings(e)
        for read in (family._payoff_reader(e), family._payoff_reader(e)):
            for m in matchings:
                for k in (*a1, *b1):
                    expected, value = payoff(e, m, k, 1), read(m, k)
                    assert (value, type(value)) == (expected, type(expected))


@pytest.mark.parametrize(
    "m, error, message",
    [
        (
            empty_matching(3),
            ValueError,
            "a matching of horizon 3 in an economy of horizon 2",
        ),
        (
            DynamicMatching(((("a1", "a2"),),) * 2),
            ValueError,
            "a1 and a2 are on the same side",
        ),
        (DynamicMatching(((("a1", "zz"),),) * 2), UnknownAgent, "zz"),
    ],
    ids=["three-periods", "one-side", "unknown-agent"],
)
def test_thresholds_and_candidates_reject_what_payoff_rejects(m, error, message):
    # The payoff reader hands a matching of another horizon to payoff, and
    # fills a table entry through Economy.utility, which checks the pair,
    # so both public entries still raise what payoff raised.
    e = load_fixture("example1")[0]
    for family in (StableFamily(), Solver().family("re")):
        conjectured = dict(family.conjecture_sets(e))
        conjectured["a1"] += (m,)
        for entry in (family.thresholds_of, lambda e, c: candidate_set(e, c, family)):
            with pytest.raises(error, match=f"^{message}$"):
                entry(e, conjectured)


@pytest.mark.parametrize("policy", EMPTY_POLICIES)
def test_the_solve_route_reads_no_payoff(monkeypatch, policy):
    # Every binding of economy.payoff in the package is counted.  The
    # solve route reads payoffs through the families' reader only;
    # is_phi_solution keeps the checked walk.  Of these markets only
    # sds_step has a candidate that is not a solution (under re).
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return payoff(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dynmatch" or name.startswith("dynmatch."):
            if getattr(module, "payoff", None) is payoff:
                monkeypatch.setattr(module, "payoff", counting)
    solver, rejected = Solver(policy), []
    markets = [load_fixture(name)[0] for name in ("example1", "example2")]
    markets.append(load((Path(__file__).parent / "sds_step.econ").read_text())[0])
    for e in markets:
        for concept in CONCEPT_NAMES:
            family = solver.family(concept)
            solutions = solver.solution_set(concept, e)
            candidates = family.candidates(e)
            assert family.conjecture_sets(e) and family.thresholds(e)
            for m in (*solutions, *candidates):
                consistency_failures(e, m, family)
            rejected += [(e, m, family) for m in candidates if m not in solutions]
    assert calls == []
    assert rejected
    for e, m, family in rejected:
        assert is_phi_solution(e, m, family) is not True
    assert calls


def test_payoff_tables_belong_to_their_solver_and_profile():
    # Two markets of the same agents that differ in a3's utility for b3.
    # One table for both, or one keyed by anything less than the profile,
    # hands one market's values to the other and changes every concept's
    # report of the market solved second, in either order.
    e = load_fixture("example1")[0]
    utilities = dict(e.profile.utilities)
    utilities[("a3", "b3")] = Fraction(20)
    f = build_economy(e.horizon, e.arrivals, dict(e.profile.deltas), utilities)
    fresh = {(c, x): Solver().solve(c, x) for c in CONCEPT_NAMES for x in (e, f)}
    assert all(fresh[c, e] != fresh[c, f] for c in CONCEPT_NAMES)
    for order in ((e, f), (f, e)):
        shared = Solver()
        for x in order:
            for c in CONCEPT_NAMES:
                assert shared.solve(c, x) == fresh[c, x]
    # A solver's families share one memo of tables; two solvers share none,
    # and a family built alone has its own.
    first, second = Solver(), Solver()
    memos = {id(s.family(c)._values) for s in (first, second) for c in CONCEPT_NAMES}
    assert len(memos) == 2
    assert StableFamily()._values is not StableFamily()._values


def test_induced_economy_with_singleton_idle_conjectures_is_plain_ir():
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(2), ("b1", "a1"): Fraction(3)},
    )
    idle = DynamicMatching.from_formed([[]])
    thresholds = StableFamily().thresholds_of(e, {"a1": [idle], "b1": [idle]})
    assert thresholds == {"a1": 0, "b1": 0}
    assert stable_set(StaticEconomy(e, ("a1",), ("b1",), thresholds)) == (
        (("a1", "b1"),),
    )


def test_check_consistency_requires_a_candidate():
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(2), ("b1", "a1"): Fraction(2)},
    )
    # The only stable matching pairs them, so staying single is no candidate.
    single = DynamicMatching(((),))
    with pytest.raises(NotACandidate):
        check_consistency(e, single, StableFamily())


def test_consistency_passes_when_nobody_is_left_unmatched():
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(2), ("b1", "a1"): Fraction(2)},
    )
    paired = DynamicMatching(((("a1", "b1"),),))
    verdict = check_consistency(e, paired, StableFamily())
    assert verdict and verdict.failures == ()


def test_consistency_fails_when_the_conjecture_omits_the_matching():
    # a1 finds b1 unacceptable; the empty matching is stable, but the idle
    # conjecture of the myopic family is the empty matching itself, so
    # consistency holds; under a family conjecturing only the paired
    # matching it must fail.
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(-2), ("b1", "a1"): Fraction(2)},
    )
    single = DynamicMatching(((),))
    assert check_consistency(e, single, StableFamily())

    class PairedFamily(StableFamily):
        def _conjectures(self, economy):
            paired = (DynamicMatching(((("a1", "b1"),),)),)
            return {"a1": paired, "b1": paired}

    assert consistency_failures(e, single, PairedFamily()) == (
        (1, "a1"),
        (1, "b1"),
    )


def test_consistency_report_does_not_depend_on_earlier_queries():
    # a1 and a2 arrive in period 1, b1 in period 3.  The economies that
    # defer a1 or a2 have continuations with the key of e's period-2
    # continuation that declare a2 before a1.  Solving them first fills the
    # conjecture memo in that order, and the report must not follow it.
    e = corpus(7, 2, max_per_side=3, max_periods=3)[1]
    assert e.arrivals == ((("a1", "a2"), ()), ((), ()), ((), ("b1",)))
    cold = Solver().solve("stable", e)
    warm = Solver()
    for k in e.arrivals[0][0]:
        warm.solve("stable", defer_arrivals(e, [k]))
    assert warm.solve("stable", e) == cold
    ((_, passed, failures),) = cold.consistency
    assert not passed
    assert failures == ((1, "a1"), (1, "a2"), (2, "a1"), (2, "a2"), (3, "a1"))


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_memoized_dicts_do_not_depend_on_earlier_queries(concept):
    # The market above: solving the deferred economies first fills the memo
    # entry of e's period-2 continuation from a twin that declares a2 before
    # a1.  The memo lists agents in key order all the same.
    e = corpus(7, 2, max_per_side=3, max_periods=3)[1]
    warm = Solver()
    for k in e.arrivals[0][0]:
        warm.solve(concept, defer_arrivals(e, [k]))
    warm.solve(concept, e)
    cont = next_economy(e, ())
    assert cont.arrivals[0] == (("a1", "a2"), ())
    cold = Solver().family(concept)
    for view in ("conjecture_sets", "thresholds"):
        filled = getattr(warm.family(concept), view)(cont)
        assert list(filled) == list(getattr(cold, view)(cont)) == ["a1", "a2"]


def test_generalized_consistency_holds_for_one_period_agree():
    # In a one-period market the unrestricted family conjectures every
    # matching that leaves the owner single, so each solution that does so
    # is conjectured by construction.
    rng = random.Random(41)
    for _ in range(15):
        e = random_economy(rng, horizon=1, max_per_side=3)
        assert check_generalized_consistency(e, AgreeFamily())


def test_empty_conjecture_policies_change_the_solution_set():
    class EmptyFamily(StableFamily):
        def _conjectures(self, economy):
            a1, b1 = economy.arrivals[0]
            return dict.fromkeys((*a1, *b1), ())

    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(-2), ("b1", "a1"): Fraction(2)},
    )
    single = DynamicMatching(((),))
    paired = DynamicMatching(((("a1", "b1"),),))
    # Vacuous thresholds never bind: even the pairing a1 dislikes survives,
    # because blocking requires a strictly better partner for both sides.
    assert phi_solution_set(e, EmptyFamily("vacuous")) == (single, paired)
    # Strict thresholds reject any matching that leaves someone single, and
    # pairing up is not individually rational for a1: nothing survives.
    assert phi_solution_set(e, EmptyFamily("strict")) == ()
    # Every route reads the policy from the family, so the routes agree.
    for policy in EMPTY_POLICIES:
        family = EmptyFamily(policy)
        solutions = phi_solution_set(e, family)
        assert recursive_solution_set(e, family) == solutions
        assert family.solution_set(e) == solutions
        for m in enumerate_matchings(e):
            assert (is_phi_solution(e, m, family) is True) == (m in solutions)
        assert candidate_matchings(e, family) == candidate_set(
            e, family.conjecture_sets(e), family
        )


def tied_market(arrivals):
    # a1 is indifferent between b1 and b2, and both want a1; anyone else is
    # unlisted.
    return build_economy(
        len(arrivals),
        arrivals,
        {n: Fraction(1, 2) for side in arrivals for n in (*side[0], *side[1])},
        {
            (x, y): Fraction(1)
            for x, y in (("a1", "b1"), ("a1", "b2"), ("b1", "a1"), ("b2", "a1"))
        },
    )


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_tied_last_period_solutions_run_no_lone_wolf_check(concept):
    # Both pairings are stable and leave different agents single, which the
    # lone-wolf theorem rules out only in strict markets.
    e = tied_market([(("a1",), ("b1", "b2"))])
    solver = Solver()
    family = solver.family(concept)
    solutions = family.solution_set(e)
    assert solutions == phi_solution_set(e, family)
    assert len(solutions) == 2
    report = solver.solve(concept, e)
    assert report.solutions == solutions
    assert report.candidates == candidate_matchings(e, family)


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_a_tie_before_a_later_arrival_solves(concept):
    # The tie of the market above, with a2 arriving in period 2: the sds
    # step builds candidates from the tied first period.
    e = tied_market([(("a1",), ("b1", "b2")), (("a2",), ())])
    solver = Solver()
    family = solver.family(concept)
    report = solver.solve(concept, e)
    assert report.solutions == phi_solution_set(e, family)
    assert report.candidates == candidate_matchings(e, family)


@pytest.mark.parametrize("config", [{"empty_policy": "bogus"}, {"max_matchings": 0}])
def test_family_rejects_a_bad_configuration(config):
    with pytest.raises(ValueError):
        StableFamily(**config)


@pytest.mark.parametrize("cap", [10.0**7, True, False, "5"])
def test_a_cap_that_is_not_an_int_is_rejected(cap):
    message = re.escape(f"max_matchings must be an int, got {cap!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Solver(max_matchings=cap)


def test_an_int_cap_solves():
    e = load_fixture("example1")[0]
    solver = Solver(max_matchings=10**7)
    for concept in CONCEPT_NAMES:
        report = solver.solve(concept, e)
        assert report.solutions and report.max_matchings == 10**7


def two_a_side(arrivals):
    # Strict preferences, as in corpus.py: odd/even deltas, odd/7 utilities.
    return build_economy(
        len(arrivals),
        arrivals,
        {
            "a1": Fraction(1, 2),
            "a2": Fraction(3, 4),
            "b1": Fraction(5, 8),
            "b2": Fraction(9, 10),
        },
        {
            ("a1", "b1"): Fraction(3, 7),
            ("a1", "b2"): Fraction(5, 7),
            ("a2", "b1"): Fraction(1, 7),
            ("a2", "b2"): Fraction(9, 7),
            ("b1", "a1"): Fraction(11, 7),
            ("b1", "a2"): Fraction(13, 7),
            ("b2", "a1"): Fraction(15, 7),
            ("b2", "a2"): Fraction(-1, 7),
        },
    )


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_family_memoizes_every_view_by_economy_key(concept):
    # Built apart, with the arrivals declared in another order: equal keys.
    e = two_a_side([(("a1", "a2"), ("b1",)), ((), ("b2",))])
    twin = two_a_side([(("a2", "a1"), ("b1",)), ((), ("b2",))])
    assert twin is not e and twin.arrivals != e.arrivals and twin.key == e.key
    family = Solver().family(concept)
    for view in ("conjecture_sets", "thresholds", "solution_set", "candidates"):
        first = getattr(family, view)(e)
        assert first  # an empty tuple is a singleton and would pass below
        assert getattr(family, view)(twin) is first


@pytest.mark.parametrize("concept", CONCEPT_NAMES)
def test_last_period_cap_counts_its_pair_sets(concept):
    # A 2x2 period has 7 pair sets: a cap of 7 solves, a cap of 6 trips here.
    e = two_a_side([(("a1", "a2"), ("b1", "b2"))])
    assert Solver(max_matchings=7).solve(concept, e).solutions
    with pytest.raises(SizeLimitExceeded) as exc:
        Solver(max_matchings=6).solve(concept, e)
    assert str(exc.value) == (
        "enumeration exceeded the cap of 6 matchings in an economy "
        "with horizon 1 and 4 agents"
    )


def three_a_side(horizon):
    """a1..a3 and b1..b3, all at period 1; strict preferences."""
    names = ("a1", "a2", "a3", "b1", "b2", "b3")
    text = "\n".join(
        [
            f"periods: {horizon}",
            *(f"agent {k} side {k[0].upper()} arrives 1 delta 1/2" for k in names),
            "prefs a1: b1=1 b2=2 b3=3",
            "prefs a2: b1=3 b2=1 b3=2",
            "prefs a3: b1=2 b2=3 b3=1",
            "prefs b1: a1=1 a2=2 a3=3",
            "prefs b2: a1=3 a2=1 a3=2",
            "prefs b3: a1=2 a2=3 a3=1",
        ]
    )
    return load(text + "\n")[0]


@pytest.mark.parametrize("horizon", (1, 2))
def test_candidates_count_their_pair_sets_toward_the_cap(horizon):
    # A 3x3 period has 34 pair sets: the candidates' stable-set scan of
    # period 1 trips a cap of 5 whatever the stable set holds.
    e = three_a_side(horizon)
    assert pair_set_count(3, 3) == 34
    assert StableFamily(max_matchings=34).candidates(e)
    with pytest.raises(SizeLimitExceeded) as exc:
        StableFamily(max_matchings=5).candidates(e)
    assert str(exc.value) == (
        "enumeration exceeded the cap of 5 matchings in an economy "
        f"with horizon {horizon} and 6 agents"
    )


@pytest.mark.parametrize("concept", ("ds", "cvr-ds"))
def test_first_period_filters_count_their_pair_sets_toward_the_cap(concept):
    # ds's filter and cvr-ds's start set each read all 34 pair sets of a 3x3
    # period, so a cap of 33 stops their conjecture sets whatever the
    # filter keeps.  The solve path trips at the same count, in _solutions.
    e = three_a_side(1)
    assert Solver(max_matchings=34).family(concept).conjecture_sets(e)
    with pytest.raises(SizeLimitExceeded) as exc:
        Solver(max_matchings=33).family(concept).conjecture_sets(e)
    assert str(exc.value) == (
        "enumeration exceeded the cap of 33 matchings in an economy "
        "with horizon 1 and 6 agents"
    )


LONG = """\
periods: 400
agent a1 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1/2
prefs a1: b1=2
prefs b1: a1=3
"""


HORIZON_ROUTES = (
    "stable",
    "sds",
    "enumerate_matchings",
    "phi_solution_set",
    "candidate_matchings",
)


def refusing_calls(route, e):
    """The calls that must refuse ``e``: a concept's solve and consistency
    check, or one exhaustive oracle, which stitches through the same
    recursion."""
    if route in CONCEPT_NAMES:
        family = Solver().family(route)
        return (
            lambda: Solver().solve(route, e),
            lambda: check_consistency(e, empty_matching(e.horizon), family),
        )
    oracles = {
        "enumerate_matchings": lambda: enumerate_matchings(e),
        "phi_solution_set": lambda: phi_solution_set(e, StableFamily()),
        "candidate_matchings": lambda: candidate_matchings(e, StableFamily()),
    }
    return (oracles[route],)


@pytest.mark.parametrize("route", HORIZON_ROUTES)
def test_a_horizon_too_long_to_recurse_raises_a_library_error(route):
    # Each period nests a few calls, so 400 periods exhaust the default
    # recursion limit on every supported Python.
    e = load(LONG)[0]
    message = r"^horizon too long for the recursive solver$"
    for call in refusing_calls(route, e):
        with pytest.raises(HorizonTooLong, match=message) as exc:
            call()
        assert isinstance(exc.value, DynmatchError)


@pytest.mark.parametrize("route", HORIZON_ROUTES)
def test_a_horizon_above_the_recursion_limit_is_refused_at_once(route, monkeypatch):
    # Every stitched period nests at least one frame, so such a horizon can
    # never finish: it is refused before any continuation economy is built.
    horizon = sys.getrecursionlimit() + 200
    e = load(LONG.replace("periods: 400", f"periods: {horizon}"))[0]
    steps = []

    def counted(economy, pairs):
        steps.append(pairs)
        return next_economy(economy, pairs)

    monkeypatch.setattr("dynmatch.matching.next_economy", counted)
    message = r"^horizon too long for the recursive solver$"
    for call in refusing_calls(route, e):
        with pytest.raises(HorizonTooLong, match=message):
            call()
    assert steps == []


def test_oracle_routes_are_exported_from_the_package():
    import dynmatch

    assert dynmatch.recursive_solution_set is recursive_solution_set
    assert dynmatch.candidate_matchings is candidate_matchings
    assert {"recursive_solution_set", "candidate_matchings"} <= set(dynmatch.__all__)
