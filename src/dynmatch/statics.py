"""One-period economies: stability, deferred acceptance, induced thresholds.

A static economy carries a reservation value (threshold) per agent.  The
value of remaining single *is* the threshold, so individual rationality and
blocking both reduce to exact comparisons against it.  Thresholds admit two
sentinels: ``NEG_INF`` (no constraint — any partner beats staying single)
and ``POS_INF`` (nothing is acceptable — the agent must stay single).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .economy import UNLISTED_UTILITY, Economy, payoff
from .errors import LoneWolfViolation, TiesPresent
from .matching import DynamicMatching, PeriodPairs, period_matchings

NEG_INF = "-inf"
POS_INF = "+inf"

# How an empty conjecture set constrains its owner: not at all (threshold
# NEG_INF) or completely (threshold POS_INF).
EMPTY_POLICIES = ("vacuous", "strict")

Threshold = object  # Fraction | NEG_INF | POS_INF


def _rank(v: Threshold) -> tuple:
    """Total order over Fractions and the two sentinels, as a sortable key."""
    if v is NEG_INF:
        return (0, 0)
    if v is POS_INF:
        return (2, 0)
    return (1, v)


def value_ge(x: Threshold, y: Threshold) -> bool:
    return _rank(x) >= _rank(y)


def value_gt(x: Threshold, y: Threshold) -> bool:
    return _rank(x) > _rank(y)


@dataclass(frozen=True)
class StaticEconomy:
    """Two agent sets, partner utilities in both directions, thresholds."""

    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    utilities: tuple[tuple[tuple[str, str], Fraction], ...]
    thresholds: tuple[tuple[str, Threshold], ...]
    _util_map: Mapping = field(init=False, repr=False, compare=False, default=None)
    _thr_map: Mapping = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_util_map", dict(self.utilities))
        object.__setattr__(self, "_thr_map", dict(self.thresholds))

    def utility(self, owner: str, partner: str) -> Fraction:
        if owner == partner:
            return Fraction(0)
        return self._util_map.get((owner, partner), UNLISTED_UTILITY)

    def threshold(self, name: str) -> Threshold:
        return self._thr_map.get(name, Fraction(0))

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
    """Project a dynamic economy's profile onto one period's agents."""
    a_names = tuple(a_names)
    b_names = tuple(b_names)
    utils = {}
    for a in a_names:
        for b in b_names:
            utils[(a, b)] = economy.utility(a, b)
            utils[(b, a)] = economy.utility(b, a)
    thr = dict(thresholds) if thresholds else {}
    return StaticEconomy(
        a_names, b_names, tuple(sorted(utils.items())), tuple(sorted(thr.items(), key=lambda kv: kv[0]))
    )


def is_stable(e1: StaticEconomy, pairs: PeriodPairs) -> bool:
    """Definition-4 stability relative to thresholds.

    Matched agents need their partner weakly above their threshold; a pair
    blocks when both strictly beat their assigned values.
    """
    for a, b in pairs:
        if not e1.acceptable(a, b) or not e1.acceptable(b, a):
            return False
    for a in e1.a_names:
        va = e1.assignment_value(pairs, a)
        for b in e1.b_names:
            if (a, b) in pairs:
                continue
            if value_gt(e1.utility(a, b), va) and value_gt(
                e1.utility(b, a), e1.assignment_value(pairs, b)
            ):
                return False
    return True


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
    values = [payoff(economy, m, owner, 1) for m in conjectured]
    if not values:
        if empty_policy not in EMPTY_POLICIES:
            raise ValueError(f"unknown empty-conjecture policy {empty_policy!r}")
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
    e1 = static_economy(economy, a_names, b_names, thresholds)
    return is_stable(e1, pairs)
