import itertools
import math
import random
from fractions import Fraction

import pytest

from dynmatch.economy import build_economy, payoff
from dynmatch.errors import BadMatchingSpec, SizeLimitExceeded
from dynmatch.matching import (
    DynamicMatching,
    continuations,
    defer_arrivals,
    enumerate_matchings,
    matching_text,
    next_economy,
    pair_set_count,
    parse_matching_text,
    period_matchings,
    prepend,
    validate_matching,
)

from corpus import corpus, random_economy


def static_economy(n_a, n_b):
    a = tuple(f"a{i}" for i in range(1, n_a + 1))
    b = tuple(f"b{i}" for i in range(1, n_b + 1))
    deltas = {n: Fraction(1, 2) for n in a + b}
    utils = {}
    for x in a:
        for y in b:
            utils[(x, y)] = Fraction(1)
            utils[(y, x)] = Fraction(1)
    return build_economy(1, [(a, b)], deltas, utils)


def partial_injection_count(n):
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_static_enumeration_matches_combinatorial_count(n):
    e = static_economy(n, n)
    assert len(enumerate_matchings(e)) == partial_injection_count(n)


def test_pair_set_count_counts_period_matchings():
    for m in range(6):
        for n in range(6):
            a = tuple(f"a{i}" for i in range(m))
            b = tuple(f"b{i}" for i in range(n))
            assert pair_set_count(m, n) == len(list(period_matchings(a, b)))


def test_one_pair_one_period_has_two_matchings():
    assert len(enumerate_matchings(static_economy(1, 1))) == 2


def test_two_vs_one_has_three_matchings():
    assert len(enumerate_matchings(static_economy(2, 1))) == 3


def test_enumeration_cap():
    with pytest.raises(SizeLimitExceeded) as exc:
        enumerate_matchings(static_economy(4, 4), max_matchings=10)
    assert str(exc.value) == (
        "enumeration exceeded the cap of 10 matchings in an economy "
        "with horizon 1 and 8 agents"
    )


def test_every_enumerated_matching_validates():
    rng = random.Random(1)
    for _ in range(25):
        e = random_economy(rng, max_per_side=2)
        for m in enumerate_matchings(e):
            validate_matching(e, m)


def test_enumeration_is_duplicate_free_and_deterministic():
    rng = random.Random(2)
    for _ in range(10):
        e = random_economy(rng, max_per_side=2)
        ms = enumerate_matchings(e)
        assert len(set(ms)) == len(ms)
        assert ms == enumerate_matchings(e)


def test_enumeration_is_complete():
    # Every sequence of per-period pair sets over arrived agents that the
    # validator accepts is enumerated, and nothing else is.
    markets = [e for e in corpus(12, 12, max_per_side=2) if e.horizon > 1]
    assert markets
    for e in markets:
        a_names, b_names = (sum(side, ()) for side in zip(*e.arrivals))
        cross = [(a, b) for a in a_names for b in b_names]
        pair_sets = [
            tuple(sorted(c))
            for r in range(len(cross) + 1)
            for c in itertools.combinations(cross, r)
        ]
        valid = set()
        for periods in itertools.product(pair_sets, repeat=e.horizon):
            m = DynamicMatching(periods)
            try:
                validate_matching(e, m)
            except ValueError:
                continue
            valid.add(m)
        assert set(enumerate_matchings(e)) == valid


def test_validator_rejects_dissolved_pairs():
    e = build_economy(
        2,
        [(("a1",), ("b1",)), ((), ())],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)},
    )
    dissolved = DynamicMatching(((("a1", "b1"),), ()))
    with pytest.raises(ValueError):
        validate_matching(e, dissolved)


def test_validator_rejects_premature_pairs():
    e = build_economy(
        2,
        [(("a1",), ()), ((), ("b1",))],
        {"a1": Fraction(1), "b1": Fraction(1)},
        {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)},
    )
    early = DynamicMatching.from_formed([[("a1", "b1")], []])
    with pytest.raises(ValueError):
        validate_matching(e, early)
    # The same pair formed once b1 has arrived is fine.
    validate_matching(e, DynamicMatching.from_formed([[], [("a1", "b1")]]))


def test_validator_rejects_double_matching():
    e = static_economy(2, 1)
    doubled = DynamicMatching(((("a1", "b1"), ("a2", "b1")),))
    with pytest.raises(ValueError):
        validate_matching(e, doubled)


def test_validator_rejects_an_unknown_agent():
    e = static_economy(1, 1)
    with pytest.raises(ValueError, match="^zz is not a side-A agent arrived by 1$"):
        validate_matching(e, DynamicMatching(((("zz", "b1"),),)))


def test_period_lookups_at_the_edges():
    m = DynamicMatching(((("a1", "b1"),),))
    with pytest.raises(IndexError, match=r"^period 0 outside 1\.\.1$"):
        m.pairs_at(0)
    assert DynamicMatching(()).final_partner("a1") == "a1"
    assert m.final_partner("a1") == "b1"


def test_available_agents_tracks_arrivals_and_matches():
    e = build_economy(
        2,
        [(("a1", "a2"), ("b1",)), (("a3",), ("b2",))],
        {n: Fraction(1) for n in ("a1", "a2", "a3", "b1", "b2")},
        {("a1", "b1"): Fraction(1), ("b1", "a1"): Fraction(1)},
    )
    after = next_economy(e, (("a1", "b1"),))
    assert after.horizon == 1
    assert after.arrivals == ((("a2", "a3"), ("b2",)),)
    final = next_economy(after, ())
    assert (final.horizon, final.arrivals) == (0, ())
    assert enumerate_matchings(final) == (DynamicMatching(()),)


def test_continuation_economy_after_empty_history_is_identity():
    rng = random.Random(4)
    e = random_economy(rng, max_per_side=2)
    for m in enumerate_matchings(e):
        assert next(continuations(e, m)) == (e, m)


def test_continuation_depends_only_on_available_agents():
    # Two distinct histories that free the same agents at t=2 induce
    # economies with identical keys.
    e = build_economy(
        2,
        [(("a1", "a2"), ("b1", "b2")), ((), ())],
        {n: Fraction(1) for n in ("a1", "a2", "b1", "b2")},
        {
            ("a1", "b1"): Fraction(1),
            ("b1", "a1"): Fraction(1),
            ("a1", "b2"): Fraction(1),
            ("b2", "a1"): Fraction(1),
        },
    )
    one = next_economy(e, (("a1", "b1"), ("a2", "b2")))
    two = next_economy(e, (("a1", "b2"), ("a2", "b1")))
    assert one.key == two.key


def test_tail_and_prepend_are_inverse():
    rng = random.Random(6)
    for _ in range(10):
        e = random_economy(rng, horizon=2, max_per_side=2)
        for m in enumerate_matchings(e):
            pairs, rest = m.pairs_at(1), m.tail()
            assert prepend(pairs, rest) == m
            after = next_economy(e, pairs)
            validate_matching(after, rest)
            assert list(continuations(e, m)) == [(e, m), (after, rest)]


def test_period_t_payoffs_are_period_1_payoffs_of_the_continuation():
    for e in corpus(11, 12, max_per_side=2):
        for m in enumerate_matchings(e):
            walk = list(continuations(e, m))
            assert len(walk) == e.horizon
            for t, (cont, rest) in enumerate(walk, start=1):
                # Available at t: arrived by t and single through t - 1.
                avail_a, avail_b = (
                    tuple(n for n in names if t == 1 or m.partner(n, t - 1) == n)
                    for names in (sum(side, ()) for side in zip(*e.arrivals[:t]))
                )
                assert cont.arrivals[0] == (avail_a, avail_b)
                for k in (*avail_a, *avail_b):
                    assert payoff(e, m, k, t) == payoff(cont, rest, k, 1)


def test_defer_arrivals_moves_agent_to_period_two():
    e = build_economy(
        2,
        [(("a1", "a2"), ("b1",)), ((), ("b2",))],
        {n: Fraction(1) for n in ("a1", "a2", "b1", "b2")},
        {},
    )
    d = defer_arrivals(e, ["a1"])
    assert d.arrivals[0] == (("a2",), ("b1",))
    assert d.arrivals[1] == (("a1",), ("b2",))


def test_defer_arrivals_drops_agent_in_one_period_economy():
    e = static_economy(2, 1)
    d = defer_arrivals(e, ["a2"])
    assert d.arrivals == ((("a1",), ("b1",)),)


def late_b2():
    """a1 and b1 arrive in period 1, b2 in period 2."""
    return build_economy(
        2,
        [(("a1",), ("b1",)), ((), ("b2",))],
        {n: Fraction(1) for n in ("a1", "b1", "b2")},
        {},
    )


def test_defer_arrivals_requires_a_period_one_arrival():
    with pytest.raises(ValueError, match="^b2 does not arrive in period 1$"):
        defer_arrivals(late_b2(), ["b2"])


def test_parse_matching_text_rejects_bad_chunks_and_infeasible_matchings():
    e = late_b2()
    with pytest.raises(BadMatchingSpec, match="^expected 2 period chunks, got 1$"):
        parse_matching_text(e, "t=1: a1-b1")
    message = "^b2 is not a side-B agent arrived by 1$"
    with pytest.raises(BadMatchingSpec, match=message):
        parse_matching_text(e, "t=1: a1-b2 | t=2: -")


def test_matching_text_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        e = random_economy(rng, max_per_side=2)
        for m in enumerate_matchings(e):
            assert parse_matching_text(e, matching_text(m)) == m


def test_parse_matching_text_accepts_either_pair_order():
    e = static_economy(1, 1)
    assert parse_matching_text(e, "t=1: b1-a1") == parse_matching_text(
        e, "t=1: a1-b1"
    )


def test_parse_matching_text_rejects_garbage():
    e = static_economy(1, 1)
    for bad in ("t=1: a1-a1", "t=2: a1-b1", "t=1: a1-zz", "nope", "t=1: a1+b1"):
        with pytest.raises(BadMatchingSpec):
            parse_matching_text(e, bad)
