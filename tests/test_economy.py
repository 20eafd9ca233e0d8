import random
from fractions import Fraction

import pytest

from dynmatch.economy import (
    Economy,
    PreferenceProfile,
    build_economy,
    payoff,
)
from dynmatch.errors import NotAvailable, UnknownAgent
from dynmatch.matching import DynamicMatching, empty_matching, enumerate_matchings
from dynmatch.reproduce import load_fixture

from corpus import random_economy


def two_period_pair():
    return build_economy(
        2,
        [(("a1",), ("b1",)), ((), ("b2",))],
        {"a1": Fraction(1, 2), "b1": Fraction(3, 4), "b2": Fraction(3, 4)},
        {
            ("a1", "b1"): Fraction(4),
            ("a1", "b2"): Fraction(10),
            ("b1", "a1"): Fraction(1),
            ("b2", "a1"): Fraction(2),
        },
    )


def test_payoff_is_zero_from_any_period_when_never_matched():
    e = two_period_pair()
    never = empty_matching(2)
    assert payoff(e, never, "a1", 1) == payoff(e, never, "a1", 2) == 0
    assert payoff(e, never, "b2", 2) == 0


def test_payoff_discounts_from_first_period_with_partner():
    e = two_period_pair()
    late = DynamicMatching.from_formed([[], [("a1", "b2")]])
    assert payoff(e, late, "a1", 1) == Fraction(1, 2) * 10  # delta * u
    early = DynamicMatching.from_formed([[("a1", "b1")], []])
    assert payoff(e, early, "a1", 1) == Fraction(4)  # u, undiscounted


def test_payoff_discounts_by_delay():
    e = two_period_pair()
    late = DynamicMatching.from_formed([[], [("a1", "b2")]])
    assert payoff(e, late, "a1", 1) == Fraction(5)  # (1/2) * 10
    assert payoff(e, late, "b2", 2) == Fraction(2)


def test_payoff_zero_when_never_matched():
    e = two_period_pair()
    assert payoff(e, empty_matching(2), "a1", 1) == 0


def test_payoff_requires_availability():
    e = two_period_pair()
    early = DynamicMatching.from_formed([[("a1", "b1")], []])
    with pytest.raises(NotAvailable):
        payoff(e, early, "a1", 2)  # matched in period 1 already
    with pytest.raises(NotAvailable):
        payoff(e, empty_matching(2), "b2", 1)  # arrives in period 2
    with pytest.raises(UnknownAgent):
        payoff(e, empty_matching(2), "zz", 1)


@pytest.mark.parametrize("t", [0, 3, 4])
def test_payoff_rejects_a_period_outside_the_horizon(t):
    e = two_period_pair()
    with pytest.raises(ValueError, match=rf"^period {t} outside 1\.\.2$"):
        payoff(e, empty_matching(2), "a1", t)


@pytest.mark.parametrize("horizon", [1, 3])
def test_payoff_rejects_a_matching_of_another_horizon(horizon):
    # A shorter matching used to raise IndexError; a longer one was read
    # silently and paid 0.
    e, _ = load_fixture("example1")
    m = empty_matching(horizon)
    message = rf"^a matching of horizon {horizon} in an economy of horizon 2$"
    with pytest.raises(ValueError, match=message):
        payoff(e, m, "a1", 1)


def test_inexact_numbers_are_rejected_naming_their_agents():
    schedule = [(("a1",), ("b1",)), ((), ("b2",))]
    deltas = {"a1": Fraction(1, 10), "b1": 1, "b2": Fraction(3, 4)}
    utilities = {("a1", "b2"): 3, ("b1", "a1"): Fraction(1), ("b2", "a1"): 2}
    # Ints and Fractions are exact, so they pass.
    e = build_economy(2, schedule, deltas, utilities)
    late = DynamicMatching.from_formed([[], [("a1", "b2")]])
    assert payoff(e, late, "a1", 1) == Fraction(3, 10)
    with pytest.raises(ValueError, match=r"inexact values for a1$"):
        build_economy(2, schedule, {**deltas, "a1": 0.1}, utilities)
    floats = {("a1", "b2"): 3.0, ("b2", "a1"): 2.0}
    with pytest.raises(ValueError, match=r"inexact values for a1, b2$"):
        build_economy(2, schedule, deltas, {**utilities, **floats})


def test_unlisted_partner_has_negative_utility():
    e = build_economy(
        1,
        [(("a1",), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(5)},
    )
    assert e.utility("b1", "a1") == Fraction(-1)
    assert e.utility("a1", "a1") == 0


def test_utility_between_agents_of_one_side_is_rejected():
    e = two_period_pair()
    with pytest.raises(ValueError, match="^b1 and b2 are on the same side$"):
        e.utility("b1", "b2")


def test_discount_factor_above_one_is_rejected():
    message = r"^discount factor of a1 must lie in \[0,1\]$"
    with pytest.raises(ValueError, match=message):
        build_economy(1, [(("a1",), ())], {"a1": Fraction(3, 2)}, {})


def test_duplicate_arrival_rejected():
    with pytest.raises(ValueError):
        build_economy(
            2,
            [(("a1",), ()), (("a1",), ())],
            {"a1": Fraction(1)},
            {},
        )


def test_agent_without_a_discount_factor_is_rejected_at_construction():
    schedule = [(("a1",), ("b1",))]
    deltas = {"a1": Fraction(1, 2)}
    utilities = {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)}
    with pytest.raises(ValueError, match="^agent b1 has no discount factor$"):
        build_economy(1, schedule, deltas, utilities)
    with pytest.raises(ValueError, match="^agent b1 has no discount factor$"):
        Economy(1, (tuple(schedule[0]),), PreferenceProfile.build(deltas, utilities))


@pytest.mark.parametrize(
    "deltas, utilities, message",
    [
        ({}, {("a1", "zz"): 1}, "^utility of a1 for zz: zz is not scheduled$"),
        ({}, {("a1", "a2"): 1}, "^utility of a1 for a2: they are on one side$"),
        ({"zz": 1}, {}, "^discount factor for zz, who is not scheduled$"),
    ],
    ids=["unscheduled-partner", "same-side-pair", "unscheduled-delta"],
)
def test_build_economy_rejects_entries_it_would_ignore(deltas, utilities, message):
    schedule = [(("a1", "a2"), ("b1",))]
    base = {"a1": Fraction(1), "a2": Fraction(1), "b1": Fraction(1)}
    with pytest.raises(ValueError, match=message):
        build_economy(1, schedule, {**base, **deltas}, utilities)


def test_unknown_delta_and_short_schedule_are_rejected():
    profile = one_pair_profile()
    with pytest.raises(UnknownAgent, match="^zz$"):
        profile.delta("zz")
    message = "^arrival schedule length must equal the horizon$"
    with pytest.raises(ValueError, match=message):
        Economy(2, ((("a1",), ("b1",)),), profile)


def test_discounting_is_the_only_time_dependence():
    rng = random.Random(5)
    for _ in range(20):
        e = random_economy(rng, max_per_side=2, max_periods=2)
        for m in enumerate_matchings(e):
            for k in e.members():
                t0 = e.arrival_period(k)
                dates = [s for s in range(t0, e.horizon + 1) if m.partner(k, s) != k]
                expected = Fraction(0)
                if dates:
                    expected = e.delta(k) ** (dates[0] - t0) * e.utility(
                        k, m.final_partner(k)
                    )
                assert payoff(e, m, k, t0) == expected


def test_delta_one_removes_delay_sensitivity():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), ((), ())],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(3), ("b1", "a1"): Fraction(2)},
    )
    now = DynamicMatching.from_formed([[("a1", "b1")], []])
    later = DynamicMatching.from_formed([[], [("a1", "b1")]])
    assert payoff(e, now, "a1", 1) == payoff(e, later, "a1", 1) == Fraction(3)


def test_delta_zero_makes_delay_worthless():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), ((), ())],
        {"a1": Fraction(0), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(3), ("b1", "a1"): Fraction(2)},
    )
    later = DynamicMatching.from_formed([[], [("a1", "b1")]])
    assert payoff(e, later, "a1", 1) == 0


def test_economy_key_ignores_declaration_order():
    e1 = build_economy(
        1,
        [(("a1", "a2"), ("b1",))],
        {"a1": Fraction(1), "a2": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(1)},
    )
    e2 = Economy(1, ((("a2", "a1"), ("b1",)),), e1.profile)
    assert e1.key == e2.key


def one_pair_profile(delta_a1=Fraction(1, 2), u_b1_a1=Fraction(1, 7)):
    return PreferenceProfile.build(
        {"a1": delta_a1, "b1": Fraction(3, 4)},
        {("a1", "b1"): Fraction(4), ("b1", "a1"): u_b1_a1},
    )


def test_profiles_built_apart_are_equal_by_value():
    p, q = one_pair_profile(), one_pair_profile()
    assert p is not q
    assert p == q and hash(p) == hash(q)
    assert p != one_pair_profile(u_b1_a1=Fraction(3, 7))
    assert p != one_pair_profile(delta_a1=Fraction(1, 3))
    assert p != (p.deltas, p.utilities)


def test_profile_repr_and_economy_key_are_as_generated():
    # RandomFamily in tests/corpus.py seeds its conjectures from
    # str(economy.key), which embeds the profile's repr.
    e = Economy(1, ((("a1",), ("b1",)),), one_pair_profile())
    assert str(e.key) == (
        "(1, ((('a1',), ('b1',)),), PreferenceProfile("
        "deltas=(('a1', Fraction(1, 2)), ('b1', Fraction(3, 4))), "
        "utilities=((('a1', 'b1'), Fraction(4, 1)), (('b1', 'a1'), Fraction(1, 7)))))"
    )
    assert e.key is e.key
