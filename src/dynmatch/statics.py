"""One-period economies: stability and deferred acceptance.

A static economy views one period of an economy with a reservation value
(threshold) per agent.  The value of remaining single *is* the threshold, so
individual rationality and blocking both reduce to exact comparisons against
it, made by one scan, :func:`first_block`.  Thresholds admit two sentinels,
ordered below and above every number: ``NEG_INF`` (no constraint — any
partner beats staying single) and ``POS_INF`` (nothing is acceptable — the
agent must stay single).

The exhaustive scan of a period's pair sets, :func:`unblocked`, gives every
stable set (:func:`stable_set`); :func:`unblocked_among_matched` builds the
pair sets stable among the agents they match, pair by pair.

This layer takes thresholds as given and knows nothing of later periods:
a conjecture family turns its conjecture sets into thresholds
(:meth:`~dynmatch.framework.ConjectureFamily.thresholds_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, Optional

from .economy import SIDE_A, SIDE_B, ZERO, Economy
from .errors import LoneWolfViolation, TiesPresent
from .matching import PeriodPairs, period_matchings


@total_ordering
class Infinity:
    """An end of the value order: ``NEG_INF`` lies below and ``POS_INF``
    above every ``int`` and ``Fraction``.  Each equals only itself."""

    def __init__(self, text: str):
        self.text = text

    def __lt__(self, other) -> bool:
        return self is NEG_INF and other is not NEG_INF

    def __repr__(self) -> str:
        return self.text


NEG_INF = Infinity("-inf")
POS_INF = Infinity("+inf")

INDIVIDUAL_A = "IndividualA"
INDIVIDUAL_B = "IndividualB"
PAIR = "Pair"


def first_block(a_names, b_names, utility, value, threshold) -> Optional[tuple]:
    """The first (kind, agents, payoffs) violation of individual rationality
    (side A, then side B) or pairwise stability (a-major), or None.
    ``value(k)``, what k attains, and ``threshold(k)`` are called only when
    the scan reaches k.  ``payoffs`` is (value, threshold) for an individual
    kind, (u(a,b), value(a), u(b,a), value(b)) for a pair.
    """
    for kind, names in ((INDIVIDUAL_A, a_names), (INDIVIDUAL_B, b_names)):
        for k in names:
            thr = threshold(k)
            val = value(k)
            if val < thr:
                return kind, (k,), (val, thr)
    for a in a_names:
        va = value(a)
        for b in b_names:
            uab = utility(a, b)
            if uab > va:
                vb = value(b)
                uba = utility(b, a)
                if uba > vb:
                    return PAIR, (a, b), (uab, va, uba, vb)
    return None


@dataclass(frozen=True, eq=False)
class StaticEconomy:
    """A view of one period of an economy: two agent sets and thresholds,
    0 for an agent the mapping leaves out.  Utilities are read from
    ``economy``'s profile, so every name is checked once, here: an unknown
    one raises UnknownAgent, one on the wrong side ValueError."""

    economy: Economy
    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    thresholds: Mapping[str, Fraction | Infinity] = field(default_factory=dict)

    def __post_init__(self):
        for side, names in ((SIDE_A, self.a_names), (SIDE_B, self.b_names)):
            for name in names:
                if self.economy.side_of(name) != side:
                    raise ValueError(f"{name} is not a side-{side} agent")

    def threshold(self, name: str) -> Fraction | Infinity:
        return self.thresholds.get(name, ZERO)


def attained(utility, pairs: PeriodPairs, single):
    """k -> what k attains under ``pairs``: its partner's utility, or single(k)."""
    partner = {k: p for a, b in pairs for k, p in ((a, b), (b, a))}
    return lambda k: utility(k, partner[k]) if k in partner else single(k)


def is_stable(e1: StaticEconomy, pairs: PeriodPairs) -> bool:
    """Definition-4 stability relative to thresholds.

    Matched agents need their partner weakly above their threshold; a pair
    blocks when both strictly beat their assigned values, where a single
    agent's value is its threshold.  Each pair must join an agent of
    ``a_names`` to one of ``b_names``, or ValueError is raised.
    """
    for a, b in pairs:
        if a not in e1.a_names or b not in e1.b_names:
            raise ValueError(f"{a}-{b} is not a pair of the static economy")
    utility = e1.economy.profile.utility
    value = attained(utility, pairs, e1.threshold)
    return first_block(e1.a_names, e1.b_names, utility, value, e1.threshold) is None


def unblocked(
    economy: Economy, a_names, b_names, threshold, single
) -> tuple[PeriodPairs, ...]:
    """Every pair set of ``a_names`` and ``b_names``, in enumeration order,
    that :func:`first_block` passes against ``threshold(k)`` when a matched
    agent attains its partner's utility and a single agent ``single(k)``:
    the one static scan of stable sets.  Utilities are read from the
    profile unchecked, so ``a_names`` must be side-A agents of ``economy``
    and ``b_names`` side-B ones, as a :class:`StaticEconomy`'s are."""
    u = economy.profile.utility
    return tuple(
        pairs
        for pairs in period_matchings(a_names, b_names)
        if not first_block(a_names, b_names, u, attained(u, pairs, single), threshold)
    )


def unblocked_among_matched(economy: Economy, a_names, b_names, threshold):
    """:func:`unblocked` with every single agent attaining ``POS_INF``, so
    only matched agents are tested and a block joins two pairs: built pair
    by pair in :func:`~dynmatch.matching.period_matchings` order, skipping a
    pair that either side ranks below its threshold or that blocks, or is
    blocked by, a pair already chosen, it gives the same tuples in order."""
    u = economy.profile.utility
    fits = [
        [(a, b) for b in b_names if u(a, b) >= threshold(a) and u(b, a) >= threshold(b)]
        for a in a_names
    ]

    def clash(a, b, x, y):  # one agent twice, or a cross pair that blocks
        return b == y or (u(a, y) > u(a, b) and u(y, a) > u(y, x)) or (
            u(x, b) > u(x, y) and u(b, x) > u(b, a)
        )

    def grow(i, chosen):
        if i == len(fits):
            yield tuple(sorted(chosen))
            return
        yield from grow(i + 1, chosen)
        for a, b in fits[i]:
            if not any(clash(a, b, x, y) for x, y in chosen):
                yield from grow(i + 1, (*chosen, (a, b)))

    return tuple(grow(0, ()))


def stable_set(e1: StaticEconomy) -> tuple[PeriodPairs, ...]:
    """Every stable matching (:func:`is_stable`) in enumeration order, checked
    by :func:`assert_lone_wolf`; the scan memo computes each one it stores here."""
    thr = {k: e1.threshold(k) for k in (*e1.a_names, *e1.b_names)}.__getitem__
    out = unblocked(e1.economy, e1.a_names, e1.b_names, thr, thr)
    assert_lone_wolf(e1, out)
    return out


def _is_strict(e1: StaticEconomy) -> bool:
    """No agent gives one value to two partners it accepts (utility at or
    above its threshold), or to an accepted partner and its threshold.
    Unlisted partners share one value, so two accepted ones tie."""
    utility = e1.economy.profile.utility
    for owners, partners in ((e1.a_names, e1.b_names), (e1.b_names, e1.a_names)):
        for k in owners:
            thr = e1.threshold(k)
            values = [v for v in (utility(k, p) for p in partners) if v >= thr]
            if thr in values or len(set(values)) != len(values):
                return False
    return True


def assert_lone_wolf(e1: StaticEconomy, matchings: Iterable[PeriodPairs]) -> None:
    """In a strict market (:func:`_is_strict`), every stable matching must
    leave the same agents unmatched (McVitie & Wilson 1971; Roth 1984);
    :func:`stable_set` alone checks it.  With ties the theorem fails, so
    it raises only in a strict market, tested once two unmatched sets differ."""
    unmatched_sets = set()
    everyone = set(e1.a_names) | set(e1.b_names)
    for pairs in matchings:
        unmatched_sets.add(frozenset(everyone.difference(*pairs)))
        if len(unmatched_sets) > 1:
            if not _is_strict(e1):
                return
            raise LoneWolfViolation(
                "stable matchings with different unmatched agents: "
                f"{sorted(sorted(s) for s in unmatched_sets)}"
            )


def _rankings(e1: StaticEconomy, owners, partners) -> dict[str, dict[str, int]]:
    """Each owner's partners at or above its threshold, best first, mapped
    to their rank.  Raises TiesPresent at the first owner indifferent
    between two of them."""
    rankings = {}
    utility = e1.economy.profile.utility
    for k in owners:
        thr = e1.threshold(k)
        options = [p for p in partners if utility(k, p) >= thr]
        if len({utility(k, p) for p in options}) != len(options):
            raise TiesPresent(f"{k} is indifferent between acceptable partners")
        options.sort(key=lambda p: utility(k, p), reverse=True)
        rankings[k] = {p: rank for rank, p in enumerate(options)}
    return rankings


def deferred_acceptance(e1: StaticEconomy, proposing: str = "A") -> PeriodPairs:
    """Gale–Shapley with the given proposing side; requires strict rankings.

    Ties among acceptable partners raise TiesPresent rather than being
    broken arbitrarily, the proposers' checked before the receivers'.
    """
    sides = {"A": (e1.a_names, e1.b_names), "B": (e1.b_names, e1.a_names)}
    if proposing not in sides:
        raise ValueError(f"proposing side must be 'A' or 'B', got {proposing!r}")
    proposers, receivers = sides[proposing]
    prefs = _rankings(e1, proposers, receivers)
    ranks = _rankings(e1, receivers, proposers)
    offers = {p: iter(prefs[p]) for p in proposers}

    held: dict[str, str] = {}  # receiver -> the proposer it holds
    free = list(proposers)
    while free:
        p = free.pop()
        for r in offers[p]:
            cur = held.get(r)
            if p in ranks[r] and (cur is None or ranks[r][p] < ranks[r][cur]):
                held[r] = p
                if cur is not None:
                    free.append(cur)
                break

    if proposing == "A":
        return tuple(sorted((p, r) for r, p in held.items()))
    return tuple(sorted(held.items()))
