"""One-period economies: stability, deferred acceptance, induced thresholds.

A static economy views one period of an economy with a reservation value
(threshold) per agent.  The value of remaining single *is* the threshold, so
individual rationality and blocking both reduce to exact comparisons against
it, made by one scan, :func:`first_block`.  Thresholds admit two sentinels:
``NEG_INF`` (no constraint — any partner beats staying single) and
``POS_INF`` (nothing is acceptable — the agent must stay single).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Optional

from .economy import Economy, payoff
from .errors import LoneWolfViolation, TiesPresent
from .matching import DynamicMatching, PeriodPairs, period_matchings

NEG_INF = "-inf"
POS_INF = "+inf"

# How an empty conjecture set constrains its owner: not at all (threshold
# NEG_INF) or completely (threshold POS_INF).
EMPTY_POLICIES = ("vacuous", "strict")

Threshold = object  # Fraction | NEG_INF | POS_INF


def value_ge(x: Threshold, y: Threshold) -> bool:
    """x >= y in the total order NEG_INF < every Fraction < POS_INF."""
    if x is POS_INF or y is NEG_INF:
        return True
    if x is NEG_INF or y is POS_INF:
        return False
    return x >= y


def value_gt(x: Threshold, y: Threshold) -> bool:
    return not value_ge(y, x)


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
            if not value_ge(val, thr):
                return kind, (k,), (val, thr)
    for a in a_names:
        va = value(a)
        for b in b_names:
            uab = utility(a, b)
            if value_gt(uab, va):
                vb = value(b)
                uba = utility(b, a)
                if value_gt(uba, vb):
                    return PAIR, (a, b), (uab, va, uba, vb)
    return None


@dataclass(frozen=True, eq=False)
class StaticEconomy:
    """A view of one period of an economy: two agent sets and thresholds."""

    economy: Economy
    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    thresholds: Mapping[str, Threshold]

    def utility(self, owner: str, partner: str) -> Fraction:
        return self.economy.utility(owner, partner)

    def threshold(self, name: str) -> Threshold:
        return self.thresholds.get(name, Fraction(0))

    def acceptable(self, owner: str, partner: str) -> bool:
        return value_ge(self.utility(owner, partner), self.threshold(owner))

    def assignment_value(self, pairs: PeriodPairs, name: str) -> Threshold:
        """Utility of name's partner under pairs; the threshold if single."""
        for a, b in pairs:
            if a == name:
                return self.utility(a, b)
            if b == name:
                return self.utility(b, a)
        return self.threshold(name)


def static_economy(
    economy: Economy,
    a_names: Iterable[str],
    b_names: Iterable[str],
    thresholds: Optional[Mapping[str, Threshold]] = None,
) -> StaticEconomy:
    """Project a dynamic economy onto one period's agents."""
    return StaticEconomy(
        economy, tuple(a_names), tuple(b_names), dict(thresholds or {})
    )


def is_stable(e1: StaticEconomy, pairs: PeriodPairs) -> bool:
    """Definition-4 stability relative to thresholds.

    Matched agents need their partner weakly above their threshold; a pair
    blocks when both strictly beat their assigned values, where a single
    agent's value is its threshold.
    """
    value = partial(e1.assignment_value, pairs)
    return first_block(e1.a_names, e1.b_names, e1.utility, value, e1.threshold) is None


def stable_set(e1: StaticEconomy) -> tuple[PeriodPairs, ...]:
    """All stable matchings, by exhaustive filter, in enumeration order."""
    return tuple(
        pairs
        for pairs in period_matchings(e1.a_names, e1.b_names)
        if is_stable(e1, pairs)
    )


def assert_lone_wolf(e1: StaticEconomy, matchings: Iterable[PeriodPairs]) -> None:
    """Every stable matching must leave the same agents unmatched."""
    unmatched_sets = set()
    everyone = set(e1.a_names) | set(e1.b_names)
    for pairs in matchings:
        touched = {n for p in pairs for n in p}
        unmatched_sets.add(frozenset(everyone - touched))
        if len(unmatched_sets) > 1:
            raise LoneWolfViolation(
                "stable matchings with different unmatched agents: "
                f"{sorted(sorted(s) for s in unmatched_sets)}"
            )


def checked_stable_set(e1: StaticEconomy) -> tuple[PeriodPairs, ...]:
    out = stable_set(e1)
    assert_lone_wolf(e1, out)
    return out


def deferred_acceptance(e1: StaticEconomy, proposing: str = "A") -> PeriodPairs:
    """Gale–Shapley with the given proposing side; requires strict rankings.

    Ties among acceptable partners (on either side) raise TiesPresent
    rather than being broken arbitrarily.
    """
    if proposing == "A":
        proposers, receivers = e1.a_names, e1.b_names
    elif proposing == "B":
        proposers, receivers = e1.b_names, e1.a_names
    else:
        raise ValueError(f"proposing side must be 'A' or 'B', got {proposing!r}")

    prefs: dict[str, list[str]] = {}
    for p in proposers:
        options = [r for r in receivers if e1.acceptable(p, r)]
        utils = [e1.utility(p, r) for r in options]
        if len(set(utils)) != len(utils):
            raise TiesPresent(f"{p} is indifferent between acceptable partners")
        prefs[p] = sorted(options, key=lambda r: e1.utility(p, r), reverse=True)
    for r in receivers:
        utils = [e1.utility(r, p) for p in proposers if e1.acceptable(r, p)]
        if len(set(utils)) != len(utils):
            raise TiesPresent(f"{r} is indifferent between acceptable partners")

    held: dict[str, str] = {}
    nxt = {p: 0 for p in proposers}
    free = [p for p in proposers if prefs[p]]
    while free:
        p = free.pop(0)
        if nxt[p] >= len(prefs[p]):
            continue
        r = prefs[p][nxt[p]]
        nxt[p] += 1
        if not e1.acceptable(r, p):
            free.append(p)
            continue
        cur = held.get(r)
        if cur is None:
            held[r] = p
        elif e1.utility(r, p) > e1.utility(r, cur):
            held[r] = p
            free.append(cur)
        else:
            free.append(p)

    if proposing == "A":
        return tuple(sorted((p, r) for r, p in held.items()))
    return tuple(sorted((r, p) for r, p in held.items()))


def conjecture_threshold(
    economy: Economy,
    owner: str,
    conjectured: Iterable[DynamicMatching],
    empty_policy: str = "vacuous",
) -> Threshold:
    """Worst (minimum) period-1 payoff of owner over the conjectured matchings."""
    if empty_policy not in EMPTY_POLICIES:
        raise ValueError(f"unknown empty-conjecture policy {empty_policy!r}")
    values = [payoff(economy, m, owner, 1) for m in conjectured]
    if not values:
        return NEG_INF if empty_policy == "vacuous" else POS_INF
    return min(values)


def induced_one_period_economy(
    economy: Economy,
    conjectured: Mapping[str, Iterable[DynamicMatching]],
    empty_policy: str = "vacuous",
) -> StaticEconomy:
    """Static economy over the period-1 agents with worst-conjecture thresholds."""
    a1, b1 = economy.arrivals[0]
    thr = {
        k: conjecture_threshold(economy, k, conjectured[k], empty_policy)
        for k in (*a1, *b1)
    }
    return static_economy(economy, a1, b1, thr)


def stability_among_matched(
    economy: Economy,
    pairs: PeriodPairs,
    thresholds: Mapping[str, Threshold],
) -> bool:
    """Stability of pairs in the static economy over exactly its matched agents."""
    a_names = tuple(a for a, _ in pairs)
    b_names = tuple(b for _, b in pairs)
    e1 = StaticEconomy(economy, a_names, b_names, thresholds)
    return is_stable(e1, pairs)
