import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.economy import build_economy
from dynmatch.errors import LoneWolfViolation, TiesPresent, UnknownAgent
from dynmatch.framework import ConjectureFamily
from dynmatch.matching import period_matchings
from dynmatch.statics import (
    INDIVIDUAL_A,
    INDIVIDUAL_B,
    NEG_INF,
    PAIR,
    POS_INF,
    StaticEconomy,
    assert_lone_wolf,
    deferred_acceptance,
    first_block,
    is_stable,
    stable_set,
)

import reference
from corpus import random_static_economy


def tiny(utils, thresholds=None):
    a = sorted({x for x, _ in utils if x.startswith("a")})
    b = sorted({x for x, _ in utils if x.startswith("b")})
    deltas = {n: Fraction(1, 2) for n in a + b}
    e = build_economy(1, [(a, b)], deltas, {k: Fraction(v) for k, v in utils.items()})
    return StaticEconomy(e, tuple(a), tuple(b), thresholds or {})


def test_sentinel_ordering():
    # Native comparisons, with the sentinel on either side of the operator.
    for x in (0, -(10**9), 10**9, Fraction(-100), Fraction(10**9, 7)):
        assert NEG_INF < x and x > NEG_INF and NEG_INF <= x and x >= NEG_INF
        assert x < POS_INF and POS_INF > x and x <= POS_INF and POS_INF >= x
        assert not (x < NEG_INF or NEG_INF > x or x <= NEG_INF or NEG_INF >= x)
        assert not (POS_INF < x or x > POS_INF or POS_INF <= x or x >= POS_INF)
        assert NEG_INF != x and x != NEG_INF and POS_INF != x and x != POS_INF
        assert min(x, NEG_INF, POS_INF) is NEG_INF and max(POS_INF, x) is POS_INF
    assert NEG_INF < POS_INF and POS_INF > NEG_INF
    assert not (NEG_INF < NEG_INF or POS_INF > POS_INF or POS_INF < NEG_INF)
    assert NEG_INF <= NEG_INF and NEG_INF >= NEG_INF and POS_INF <= POS_INF
    # Each equals only itself, so a sentinel can key a dict.
    assert NEG_INF == NEG_INF and POS_INF == POS_INF and NEG_INF != POS_INF
    assert {NEG_INF: "low", POS_INF: "high"}[NEG_INF] == "low"
    # Witnesses print thresholds with str().
    assert (str(NEG_INF), str(POS_INF)) == ("-inf", "+inf")


def test_first_block_reports_the_first_violation_in_scan_order():
    u = {("a1", "b1"): 1, ("a1", "b2"): 2, ("a2", "b1"): 3}
    u.update({(y, x): v for (x, y), v in u.items()})

    def utility(owner, partner):
        return Fraction(u.get((owner, partner), -1))

    asked = []

    def zero(k):
        asked.append(k)
        return Fraction(0)

    # Everyone single at threshold 0: three pairs block, the scan is a-major.
    a, b = ("a1", "a2"), ("b1", "b2")
    assert first_block(a, b, utility, zero, zero) == (PAIR, ("a1", "b1"), (1, 0, 1, 0))
    assert first_block(a, ("b2", "b1"), utility, zero, zero)[1] == ("a1", "b2")
    # Individual objections come first, side A before side B, and the scan
    # asks for no value or threshold past the first one.
    thresholds = {"b1": Fraction(1), "a2": Fraction(1)}
    asked.clear()
    block = first_block(a, b, utility, zero, lambda k: thresholds.get(k, 0))
    assert block == (INDIVIDUAL_A, ("a2",), (0, 1))
    assert asked == ["a1", "a2"]
    block = first_block((), b, utility, zero, lambda k: thresholds.get(k, 0))
    assert block == (INDIVIDUAL_B, ("b1",), (0, 1))


def test_empty_economy_has_only_the_empty_matching():
    e = build_economy(1, [((), ())], {}, {})
    e1 = StaticEconomy(e, (), ())
    assert stable_set(e1) == ((),)


def test_mutually_acceptable_pair_must_match():
    e1 = tiny({("a1", "b1"): 2, ("b1", "a1"): 3})
    assert stable_set(e1) == (((("a1", "b1")),),)


def test_mutually_unacceptable_pair_stays_single():
    e1 = tiny({("a1", "b1"): -2, ("b1", "a1"): -3})
    assert stable_set(e1) == ((),)


def random_thresholds(rng, names):
    """Some of the names, each with a threshold that may equal one of its
    utilities (odd sevenths) or be a sentinel."""
    choices = [Fraction(k, 7) for k in range(-14, 22)] + [NEG_INF, POS_INF]
    return {k: rng.choice(choices) for k in names if rng.random() < 0.6}


def test_da_agrees_with_exhaustive_stable_set():
    rng, thresholds_rng = random.Random(21), random.Random(121)
    for _ in range(60):
        e = random_static_economy(rng, max_per_side=4)
        a, b = e.arrivals[0]
        for thresholds in ({}, random_thresholds(thresholds_rng, a + b)):
            e1 = StaticEconomy(e, a, b, thresholds)
            stable = stable_set(e1)
            assert deferred_acceptance(e1, "A") in stable
            assert deferred_acceptance(e1, "B") in stable


def test_da_rejects_ties():
    e1 = tiny(
        {
            ("a1", "b1"): 2,
            ("a1", "b2"): 2,
            ("b1", "a1"): 1,
            ("b2", "a1"): 1,
        }
    )
    with pytest.raises(TiesPresent):
        deferred_acceptance(e1, "A")


def test_da_names_the_tied_receiver_and_checks_proposers_first():
    # b1 ties a1 and a2; every A-side ranking is strict.
    receiver_tie = {("a1", "b1"): 2, ("a2", "b1"): 1, ("b1", "a1"): 1, ("b1", "a2"): 1}
    with pytest.raises(TiesPresent, match="^b1 is indifferent"):
        deferred_acceptance(tiny(receiver_tie), "A")
    with pytest.raises(TiesPresent, match="^b1 is indifferent"):
        deferred_acceptance(tiny(receiver_tie), "B")
    # With a tie on each side, the proposing side's is the one named.
    both_ties = {**receiver_tie, ("a1", "b2"): 2, ("b2", "a1"): 1}
    with pytest.raises(TiesPresent, match="^a1 is indifferent"):
        deferred_acceptance(tiny(both_ties), "A")
    with pytest.raises(TiesPresent, match="^b1 is indifferent"):
        deferred_acceptance(tiny(both_ties), "B")
    # A threshold that leaves one of the tied partners unacceptable breaks
    # the tie.
    assert deferred_acceptance(tiny(receiver_tie, {"b1": POS_INF}), "A") == ()


def test_da_rejects_an_unknown_proposing_side():
    e1 = tiny({("a1", "b1"): 1, ("b1", "a1"): 1})
    message = "^proposing side must be 'A' or 'B', got 'C'$"
    with pytest.raises(ValueError, match=message):
        deferred_acceptance(e1, "C")


def test_a_static_economy_checks_its_names_when_it_is_built():
    # The scans read utilities from the profile unchecked, where an unknown
    # partner would score as unlisted (-1), so the view checks every name
    # once: unknown names and names on the wrong side are refused.
    e = tiny({("a1", "b1"): 1, ("b1", "a1"): 1}).economy
    with pytest.raises(UnknownAgent, match="^zz$"):
        StaticEconomy(e, ("zz",), ("b1",))
    with pytest.raises(ValueError, match="^b1 is not a side-A agent$"):
        StaticEconomy(e, ("a1", "b1"), ())
    with pytest.raises(ValueError, match="^a1 is not a side-B agent$"):
        StaticEconomy(e, (), ("a1",))


def test_static_entry_points_refuse_bad_names_at_once():
    e = tiny({("a1", "b1"): 1, ("b1", "a1"): 1}).economy
    bad = (
        (UnknownAgent, ("zz",), ("b1",)),
        (ValueError, ("b1",), ("b1",)),
        (ValueError, ("a1",), ("a1",)),
    )
    for error, a, b in bad:
        with pytest.raises(error):
            stable_set(StaticEconomy(e, a, b))
        with pytest.raises(error):
            deferred_acceptance(StaticEconomy(e, a, b), "A")
    with pytest.raises(ValueError, match="^a1-zz is not a pair of the static"):
        is_stable(StaticEconomy(e, ("a1",), ("b1",)), (("a1", "zz"),))


def test_da_empty_economy():
    e = build_economy(1, [((), ())], {}, {})
    assert deferred_acceptance(StaticEconomy(e, (), ()), "A") == ()


def test_lone_wolf_assertion_fires_on_manufactured_violation():
    e1 = tiny({("a1", "b1"): 1, ("b1", "a1"): 1})
    with pytest.raises(LoneWolfViolation):
        assert_lone_wolf(e1, [(), (("a1", "b1"),)])


def test_lone_wolf_check_skips_markets_with_ties():
    # Each of b1 and b2 is a1's best partner, so the two stable matchings
    # leave different agents single.
    tied = {("a1", "b1"): 1, ("a1", "b2"): 1, ("b1", "a1"): 1, ("b2", "a1"): 1}
    stable = ((("a1", "b1"),), (("a1", "b2"),))
    assert stable_set(tiny(tied)) == stable
    # A partner valued at the threshold ties with staying single.
    at_threshold = {("a1", "b1"): 1, ("b1", "a1"): 1}
    assert_lone_wolf(tiny(at_threshold, {"a1": Fraction(1)}), [(), (("a1", "b1"),)])
    # a1 leaves b2 and b3 unlisted.  Below a1's threshold they do not
    # count, and the market is strict; under NEG_INF they are acceptable
    # and share one value.
    unlisted = {**at_threshold, ("b2", "a1"): 1, ("b3", "a1"): 1}
    with pytest.raises(LoneWolfViolation):
        assert_lone_wolf(tiny(unlisted), [(), (("a1", "b1"),)])
    assert_lone_wolf(tiny(unlisted, {"a1": NEG_INF}), [(), (("a1", "b1"),)])


def test_lone_wolf_holds_on_random_strict_economies():
    rng = random.Random(22)
    for _ in range(60):
        e = random_static_economy(rng, max_per_side=4)
        a, b = e.arrivals[0]
        stable_set(StaticEconomy(e, a, b))


def test_thresholds_prune_partners():
    # With a threshold above u(a1,b1), the pair can no longer form.
    e1 = tiny({("a1", "b1"): 2, ("b1", "a1"): 3}, {"a1": Fraction(5)})
    assert stable_set(e1) == ((),)


def test_raising_a_threshold_only_breaks_stability_through_that_agent():
    # Blocking comparisons for matched agents never touch thresholds, so a
    # matching that stops being stable after one agent's threshold rises
    # must fail on that agent's own individual-rationality check.
    rng = random.Random(23)
    for _ in range(40):
        e = random_static_economy(rng, max_per_side=3)
        a, b = e.arrivals[0]
        plain = StaticEconomy(e, a, b)
        agent = rng.choice(a + b)
        bumped = StaticEconomy(e, a, b, {agent: Fraction(rng.randint(0, 3))})
        for pairs in period_matchings(a, b):
            if is_stable(plain, pairs) and not is_stable(bumped, pairs):
                partner = next(
                    (y if x == agent else x) for x, y in pairs if agent in (x, y)
                )
                assert e.utility(agent, partner) < bumped.threshold(agent)


def idle_rival_market():
    """a2 and b1 rank each other 5, but a1 and b1 only 1."""
    return build_economy(
        1,
        [(("a1", "a2"), ("b1",))],
        {n: Fraction(1) for n in ("a1", "a2", "b1")},
        {
            ("a1", "b1"): Fraction(1),
            ("a2", "b1"): Fraction(5),
            ("b1", "a1"): Fraction(1),
            ("b1", "a2"): Fraction(5),
        },
    )


def one_pair_market():
    """a1 and b1 rank each other 2."""
    return build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(2), ("b1", "a1"): Fraction(2)},
    )


def test_stability_among_matched_ignores_outside_agents():
    # a2 strictly prefers b1 and is idle, but only matched agents count:
    # a1-b1 is blocked in the whole market and stable among its own agents.
    e = idle_rival_market()
    pairs = (("a1", "b1"),)
    assert not reference.stable_at_zero(e, ("a1", "a2"), ("b1",), pairs)
    assert reference.stable_among_matched(e, pairs, {})
    assert reference.stable_among_matched(e, (), {})
    found = ConjectureFamily()._among_matched(e, {})
    assert set(found) == {(), pairs, (("a2", "b1"),)}


def test_stability_among_matched_enforces_thresholds():
    e = one_pair_market()
    pairs = (("a1", "b1"),)
    family = ConjectureFamily()
    for threshold, stable in ((Fraction(1), True), (Fraction(3), False)):
        assert reference.stable_among_matched(e, pairs, {"a1": threshold}) == stable
        assert (pairs in family._among_matched(e, {"a1": threshold})) == stable


SMALL_FRACTIONS = st.fractions(min_value=-2, max_value=3, max_denominator=3)
THRESHOLDS = st.one_of(SMALL_FRACTIONS, st.sampled_from([NEG_INF, POS_INF]))


@st.composite
def one_period_markets(draw):
    """A one-period static economy, up to 3 agents a side, some utilities
    unlisted, and thresholds that may be sentinels or missing (0)."""
    a = [f"a{i}" for i in range(1, draw(st.integers(0, 3)) + 1)]
    b = [f"b{i}" for i in range(1, draw(st.integers(0, 3)) + 1)]
    utilities = {}
    for x in a:
        for y in b:
            for owner, partner in ((x, y), (y, x)):
                u = draw(st.one_of(st.none(), SMALL_FRACTIONS))
                if u is not None:
                    utilities[(owner, partner)] = u
    thresholds = {}
    for k in a + b:
        thr = draw(st.one_of(st.none(), THRESHOLDS))
        if thr is not None:
            thresholds[k] = thr
    deltas = {k: Fraction(1, 2) for k in a + b}
    e = build_economy(1, [(a, b)], deltas, utilities)
    return StaticEconomy(e, tuple(a), tuple(b), thresholds)


def definition_4(e1, pairs):
    """Stability of pairs relative to thresholds, written out directly:
    matched agents weakly above their threshold, and no pair not matched
    together with both sides strictly above their assignment values, a
    single agent's assignment value being its threshold."""

    def number(v):
        return {NEG_INF: float("-inf"), POS_INF: float("inf")}.get(v, v)

    partner = {x: y for pair in pairs for x, y in (pair, pair[::-1])}

    def assignment(k):
        if k in partner:
            return e1.economy.utility(k, partner[k])
        return number(e1.threshold(k))

    return all(
        e1.economy.utility(k, partner[k]) >= number(e1.threshold(k)) for k in partner
    ) and not any(
        partner.get(x) != y
        and e1.economy.utility(x, y) > assignment(x)
        and e1.economy.utility(y, x) > assignment(y)
        for x in e1.a_names
        for y in e1.b_names
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(one_period_markets())
def test_is_stable_is_definition_4_with_sentinel_thresholds(e1):
    for pairs in period_matchings(e1.a_names, e1.b_names):
        assert is_stable(e1, pairs) == definition_4(e1, pairs)
