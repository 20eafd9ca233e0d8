"""Seeded random economy generators shared across the test suite.

Utility values are odd numerators over 7 and discount factors are odd/even
in lowest terms, so no two discounted utilities of one agent can coincide:
an equality delta^d * k/7 = k'/7 would force an even number to divide an
odd one.  This keeps every preference strict (deferred acceptance applies
and the same-unmatched-set property must hold exactly) without constraining
which partners are acceptable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dynmatch.economy import Economy, build_economy
from dynmatch.framework import ConjectureFamily
from dynmatch.matching import enumerate_matchings

DELTAS = (
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(5, 8),
    Fraction(7, 10),
    Fraction(9, 10),
    Fraction(5, 6),
)

# Odd numerators spanning utilities in [-2, 3] (denominator 7).
ODD_NUMERATORS = tuple(k for k in range(-13, 22) if k % 2)


def random_economy(
    rng: random.Random,
    horizon: int | None = None,
    max_per_side: int = 3,
    max_periods: int = 3,
) -> Economy:
    T = horizon if horizon is not None else rng.choice((1, 2, 2, 3))
    T = min(T, max_periods)
    n_a = rng.choice(tuple(range(1, max_per_side + 1)))
    n_b = rng.choice(tuple(range(1, max_per_side + 1)))
    a_names = [f"a{i}" for i in range(1, n_a + 1)]
    b_names = [f"b{i}" for i in range(1, n_b + 1)]
    arrivals = []
    arrival_of = {n: rng.randint(1, T) for n in (*a_names, *b_names)}
    for t in range(1, T + 1):
        arrivals.append(
            (
                tuple(n for n in a_names if arrival_of[n] == t),
                tuple(n for n in b_names if arrival_of[n] == t),
            )
        )
    deltas = {n: rng.choice(DELTAS) for n in (*a_names, *b_names)}
    utilities = {}
    for owner, partners in ((a, b_names) for a in a_names):
        for k, p in zip(rng.sample(ODD_NUMERATORS, len(partners)), partners):
            utilities[(owner, p)] = Fraction(k, 7)
    for owner, partners in ((b, a_names) for b in b_names):
        for k, p in zip(rng.sample(ODD_NUMERATORS, len(partners)), partners):
            utilities[(owner, p)] = Fraction(k, 7)
    return build_economy(T, arrivals, deltas, utilities)


def random_static_economy(rng: random.Random, max_per_side: int = 4) -> Economy:
    return random_economy(rng, horizon=1, max_per_side=max_per_side)


def corpus(seed: int, count: int, **kwargs) -> list[Economy]:
    rng = random.Random(seed)
    return [random_economy(rng, **kwargs) for _ in range(count)]


class RandomFamily(ConjectureFamily):
    """Arbitrary conjectures, deterministic per (economy, agent): a seeded
    nonempty subset of the matchings that leave the owner unmatched now,
    or, with ``anywhere``, a seeded subset of all matchings, which may pair
    the owner now and may be empty."""

    name = "random"

    def __init__(self, seed: int, anywhere: bool = False, empty_policy="vacuous"):
        super().__init__(empty_policy)
        self.seed = seed
        self.anywhere = anywhere

    def _conjectures(self, economy):
        full = enumerate_matchings(economy)
        a1, b1 = economy.arrivals[0]
        return {k: self._draw(economy, full, k) for k in (*a1, *b1)}

    def _draw(self, economy, full, k):
        base = full if self.anywhere else [m for m in full if m.partner(k, 1) == k]
        # str seeds are hashed deterministically, unlike tuples of str.
        rng = random.Random(f"{self.seed}|{economy.key}|{k}")
        size = rng.randint(0 if self.anywhere else 1, len(base))
        return tuple(sorted(rng.sample(base, size), key=lambda m: m.periods))
