"""Ladder markets: seeded, strictly ordered markets for the benchmark.

A ladder H x N market has horizon H and N agents per side.  Agent i
(0-based, in declaration order) arrives in period (i mod H) + 1.  Each
owner's utilities are distinct odd numerators over 7, drawn with
``rng.sample``; discount factors are 3/4 on side A and 9/10 on side B.
With an odd numerator and a discount factor of odd over even, no two
discounted values of one owner can coincide and none is 0, so every
preference is strict.  :func:`assert_strict` checks that anyway before a
market is emitted: a tie would otherwise surface deep inside the solver
as ``LoneWolfViolation``.

The solver only ever sees the ``.econ`` text this module writes.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 3
ODD_NUMERATORS = tuple(k for k in range(-13, 22) if k % 2)
DELTAS = {"A": Fraction(3, 4), "B": Fraction(9, 10)}


class TieError(ValueError):
    """Two discounted values of one owner coincide, or one equals 0."""


def assert_strict(horizon, deltas, utilities):
    """Raise TieError unless every owner's values delta^d * u are distinct
    and nonzero over all partners and delays d in 0..horizon-1."""
    seen: dict = {}
    for (owner, partner), u in sorted(utilities.items()):
        for d in range(horizon):
            value = deltas[owner] ** d * u
            if value == 0:
                raise TieError(f"{owner} values {partner} at delay {d} as 0")
            clash = seen.setdefault((owner, value), (partner, d))
            if clash != (partner, d):
                raise TieError(
                    f"{owner} ties {clash[0]} at delay {clash[1]} with "
                    f"{partner} at delay {d} (value {value})"
                )


def ladder_text(horizon: int, per_side: int, rng: random.Random) -> str:
    """The .econ text of one ladder market, drawing utilities from rng."""
    names = {
        side: [f"{side.lower()}{i}" for i in range(1, per_side + 1)]
        for side in DELTAS
    }
    deltas = {n: DELTAS[side] for side in DELTAS for n in names[side]}
    utilities = {}
    lines = [f"periods: {horizon}"]
    for side in DELTAS:
        for i, name in enumerate(names[side]):
            lines.append(
                f"agent {name} side {side} arrives {i % horizon + 1} "
                f"delta {DELTAS[side]}"
            )
    for side, other in (("A", "B"), ("B", "A")):
        for owner in names[side]:
            partners = names[other]
            draws = rng.sample(ODD_NUMERATORS, len(partners))
            for partner, k in zip(partners, draws):
                utilities[(owner, partner)] = Fraction(k, 7)
            entries = " ".join(f"{p}={k}/7" for p, k in zip(partners, draws))
            lines.append(f"prefs {owner}: {entries}")
    assert_strict(horizon, deltas, utilities)
    return "\n".join(lines) + "\n"
