"""Dynamic matchings: validation, enumeration, the continuation walk.

A matching is stored as one pair set per period.  Irreversibility shows up as
set inclusion between consecutive periods, which makes the validator a pure
structural check and keeps matchings hashable for memoization.

Because matching is irreversible, what happened before period t matters only
through who is still free at t.  :func:`next_economy` is the one place that
decides it: the economy from period 2 on, once a period-1 pair set formed.
``m.tail()`` and :func:`prepend` move a matching into and out of that
economy, and :func:`continuations` walks a matching's periods that way.
:func:`stitch` is the one loop that prepends first periods: it puts each
period-1 pair set in front of the matchings some rule picks in the economy
it leaves, it enforces the size cap, and it is the one recursion guard.
Enumeration and every solve route (solutions, conjectures, candidates) are
built on it, down to the horizon-0 economy, whose only matching is
``DynamicMatching(())``, so all of them refuse a horizon too long to recurse.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from .economy import SIDE_A, SIDE_B, Economy
from .errors import BadMatchingSpec, HorizonTooLong, SizeLimitExceeded, UnknownAgent

DEFAULT_MAX_MATCHINGS = 10**7

Pair = tuple[str, str]
PeriodPairs = tuple[Pair, ...]


def canonical_pairs(pairs: Iterable[Pair]) -> PeriodPairs:
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class DynamicMatching:
    """Cumulative pair sets, one per period (pairs are (a_name, b_name))."""

    periods: tuple[PeriodPairs, ...]

    @staticmethod
    def from_formed(stages: Iterable[Iterable[Pair]]) -> "DynamicMatching":
        """Build from the pairs *formed* in each period (cumulated here)."""
        acc: set[Pair] = set()
        periods = []
        for stage in stages:
            acc |= set(stage)
            periods.append(canonical_pairs(acc))
        return DynamicMatching(tuple(periods))

    @property
    def horizon(self) -> int:
        return len(self.periods)

    def pairs_at(self, t: int) -> PeriodPairs:
        if not 1 <= t <= self.horizon:
            raise IndexError(f"period {t} outside 1..{self.horizon}")
        return self.periods[t - 1]

    def partner(self, k: str, t: int) -> str:
        for a, b in self.pairs_at(t):
            if a == k:
                return b
            if b == k:
                return a
        return k

    def final_partner(self, k: str) -> str:
        if self.horizon == 0:
            return k
        return self.partner(k, self.horizon)

    def tail(self) -> "DynamicMatching":
        """m from period 2 on, with the period-1 pairs left out: m as a
        matching of ``next_economy(economy, m.pairs_at(1))``.  With no
        period-1 pair there is nothing to leave out: the periods are sliced."""
        if not self.periods[0]:
            return DynamicMatching(self.periods[1:])
        first = set(self.periods[0])
        return DynamicMatching(
            tuple(tuple(p for p in ps if p not in first) for ps in self.periods[1:])
        )


def prepend(pairs: PeriodPairs, m: DynamicMatching) -> DynamicMatching:
    """Inverse of :meth:`DynamicMatching.tail`: ``pairs`` form in period 1
    and m, a matching of the next economy, follows."""
    return DynamicMatching(
        (pairs,) + tuple(canonical_pairs(pairs + ps) for ps in m.periods)
    )


def empty_matching(horizon: int) -> DynamicMatching:
    return DynamicMatching(((),) * horizon)


def validate_matching(economy: Economy, m: DynamicMatching) -> None:
    """Check feasibility and irreversibility; raises ValueError on failure.

    Deliberately independent of the enumerator: it checks each pair's
    agents against the economy's index and counts partners from scratch.
    """
    if m.horizon != economy.horizon:
        raise ValueError("matching horizon differs from the economy's")
    prev: set[Pair] = set()
    for t in range(1, m.horizon + 1):
        touched: set[str] = set()
        pairs = set(m.pairs_at(t))
        for a, b in pairs:
            for k, side in ((a, SIDE_A), (b, SIDE_B)):
                try:
                    ok = economy.side_of(k) == side and economy.arrival_period(k) <= t
                except UnknownAgent:
                    ok = False
                if not ok:
                    raise ValueError(f"{k} is not a side-{side} agent arrived by {t}")
            if a in touched or b in touched:
                raise ValueError(f"agent matched twice in period {t}")
            touched.update((a, b))
        if not prev <= pairs:
            raise ValueError(f"a pair dissolved entering period {t}")
        prev = pairs


def next_economy(economy: Economy, pairs: PeriodPairs) -> Economy:
    """The economy from period 2 on, once ``pairs`` formed in period 1.

    Matching is irreversible, so a history matters only through who is
    still free: period 1 of the result lists, in declaration order, the
    period-1 agents that ``pairs`` leaves single, then the period-2
    arrivals.  After the last period this is the horizon-0 economy.  It is
    derived from ``economy``'s checked index and key: only its period 1 is
    sorted anew, and the later periods are sliced from the parent's.
    """
    arrivals = economy.arrivals
    if len(arrivals) == 1:
        return economy._derived((), {}, ())
    matched = {n for pair in pairs for n in pair}
    (a1, b1), (a2, b2) = arrivals[0], arrivals[1]
    single = (
        tuple(n for n in a1 if n not in matched) + a2,
        tuple(n for n in b1 if n not in matched) + b2,
    )
    index = {
        n: entry if entry[1] == 1 else (entry[0], entry[1] - 1)
        for n, entry in economy._index.items()
        if n not in matched
    }
    first = (tuple(sorted(single[0])), tuple(sorted(single[1])))
    return economy._derived(
        (single,) + arrivals[2:], index, (first,) + economy.key[1][2:]
    )


def stitch(
    economy: Economy,
    firsts: Iterable[PeriodPairs],
    rest: Callable[[PeriodPairs], Iterable[DynamicMatching]],
    cap: int,
) -> tuple[DynamicMatching, ...]:
    """Each period-1 pair set p1 of ``firsts``, in order, prepended to every
    matching of ``next_economy(economy, p1)`` that ``rest(p1)`` returns, in
    order; ``rest`` derives that economy or reads it from a memo.

    Raises SizeLimitExceeded, naming this economy, once more than ``cap``
    matchings are stitched.  Each stitched period nests a few frames, so a
    few hundred periods exhaust Python's recursion limit: that raises
    HorizonTooLong, and a horizon above the limit (read at each call) raises
    it at once, before any continuation economy is built.
    """
    if economy.horizon > sys.getrecursionlimit():
        raise HorizonTooLong()
    out: list[DynamicMatching] = []
    try:
        for p1 in firsts:
            out.extend(prepend(p1, m) for m in rest(p1))
            if len(out) > cap:
                raise SizeLimitExceeded(cap, economy.horizon, len(economy.members()))
    except RecursionError:
        raise HorizonTooLong() from None
    return tuple(out)


def continuations(
    economy: Economy, m: DynamicMatching
) -> Iterator[tuple[Economy, DynamicMatching]]:
    """For t = 1..T, the continuation economy at period t and m restricted
    to it, one :func:`next_economy` step apart: an agent available at t gets
    the same payoff from period 1 of either view.  m is not checked."""
    while economy.horizon:
        yield economy, m
        economy, m = next_economy(economy, m.pairs_at(1)), m.tail()


def defer_arrivals(economy: Economy, names: Iterable[str]) -> Economy:
    """Move first-period arrivals one period later.

    With a one-period horizon the deferred agents simply leave the economy:
    there is no later period in which they could match.  The result is
    derived as :func:`next_economy`'s is: only periods 1 and 2 change.
    """
    moved = set(names)
    arrivals, ordered = economy.arrivals, economy.key[1]
    (a1, b1), (sorted_a1, sorted_b1) = arrivals[0], ordered[0]
    for n in moved:
        if n not in a1 and n not in b1:
            raise ValueError(f"{n} does not arrive in period 1")
    kept = (
        tuple(n for n in a1 if n not in moved),
        tuple(n for n in b1 if n not in moved),
    )
    first = (
        tuple(n for n in sorted_a1 if n not in moved),
        tuple(n for n in sorted_b1 if n not in moved),
    )
    index = dict(economy._index)
    if economy.horizon == 1:
        for n in moved:
            del index[n]
        return economy._derived((kept,), index, (first,))
    for n in moved:
        index[n] = (index[n][0], 2)
    a2, b2 = arrivals[1]
    later = (
        a2 + tuple(n for n in a1 if n in moved),
        b2 + tuple(n for n in b1 if n in moved),
    )
    second = (tuple(sorted(later[0])), tuple(sorted(later[1])))
    return economy._derived(
        (kept, later) + arrivals[2:], index, (first, second) + ordered[2:]
    )


def period_matchings(
    a_names: tuple[str, ...], b_names: tuple[str, ...]
) -> Iterator[PeriodPairs]:
    """All pair sets over the given agents, lexicographic in declaration order."""

    def rec(i: int, used_b: frozenset[str]) -> Iterator[tuple[Pair, ...]]:
        if i == len(a_names):
            yield ()
            return
        a = a_names[i]
        for tail in rec(i + 1, used_b):
            yield tail
        for b in b_names:
            if b in used_b:
                continue
            for tail in rec(i + 1, used_b | {b}):
                yield ((a, b),) + tail

    for pairs in rec(0, frozenset()):
        yield canonical_pairs(pairs)


def pair_set_count(m: int, n: int) -> int:
    """How many pair sets :func:`period_matchings` yields over m A-side and
    n B-side agents: sum over k of C(m, k) * C(n, k) * k!."""
    return sum(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))


def enumerate_matchings(
    economy: Economy, max_matchings: int = DEFAULT_MAX_MATCHINGS
) -> tuple[DynamicMatching, ...]:
    """All dynamic matchings of the economy, duplicate-free and deterministic:
    each period-1 pair set, in order, stitched onto every matching of the
    economy it leaves.  Raises SizeLimitExceeded past ``max_matchings``.
    Exhaustive, so the solver never calls it; the benchmark and tests do."""
    if not economy.horizon:
        return (DynamicMatching(()),)
    a1, b1 = economy.arrivals[0]
    return stitch(
        economy,
        period_matchings(a1, b1),
        lambda p1: enumerate_matchings(next_economy(economy, p1), max_matchings),
        max_matchings,
    )


def parse_matching_text(economy: Economy, text: str) -> DynamicMatching:
    """Parse the canonical one-line form, e.g. ``t=1: a1-b1 | t=2: -``.

    Pairs are listed at their formation period; either agent may come first
    in a pair.  The result is validated against the economy.
    """
    chunks = [c.strip() for c in text.strip().split("|")]
    if len(chunks) != economy.horizon:
        raise BadMatchingSpec(
            f"expected {economy.horizon} period chunks, got {len(chunks)}"
        )
    stages = []
    for t, chunk in enumerate(chunks, start=1):
        prefix = f"t={t}:"
        if not chunk.startswith(prefix):
            raise BadMatchingSpec(f"period chunk {chunk!r} must start with {prefix!r}")
        body = chunk[len(prefix):].strip()
        stage = []
        if body != "-" and body:
            for token in body.split():
                left, sep, right = token.partition("-")
                if not sep or not left or not right:
                    raise BadMatchingSpec(f"bad pair {token!r}")
                try:
                    sides = economy.side_of(left), economy.side_of(right)
                except UnknownAgent as exc:
                    raise BadMatchingSpec(f"unknown agent in pair {token!r}") from exc
                if sides == ("A", "B"):
                    stage.append((left, right))
                elif sides == ("B", "A"):
                    stage.append((right, left))
                else:
                    raise BadMatchingSpec(f"pair {token!r} is not across sides")
        stages.append(stage)
    m = DynamicMatching.from_formed(stages)
    try:
        validate_matching(economy, m)
    except ValueError as exc:
        raise BadMatchingSpec(str(exc)) from exc
    return m


def matching_text(m: DynamicMatching) -> str:
    """Canonical one-line rendering; pairs listed at their formation period,
    the first that holds them: period 1 of the matching's successive tails."""
    chunks, earlier = [], set()
    for t, pairs in enumerate(m.periods, start=1):
        formed = " ".join(f"{a}-{b}" for a, b in pairs if (a, b) not in earlier)
        chunks.append(f"t={t}: {formed or '-'}")
        earlier.update(pairs)
    return " | ".join(chunks) or "(empty horizon)"
