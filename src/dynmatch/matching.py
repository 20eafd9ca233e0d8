"""Dynamic matchings: validation, enumeration, histories, continuations.

A matching is stored as one pair set per period.  Irreversibility shows up as
set inclusion between consecutive periods, which makes the validator a pure
structural check and keeps matchings hashable for memoization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .economy import Economy
from .errors import (
    BadMatchingSpec,
    InvalidHistory,
    NotAContinuation,
    SizeLimitExceeded,
    UnknownAgent,
)

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

    def formed_at(self, t: int) -> PeriodPairs:
        """Pairs that first appear in period t."""
        prev = set(self.periods[t - 2]) if t >= 2 else set()
        return tuple(p for p in self.pairs_at(t) if p not in prev)

    def prefix(self, t: int) -> "DynamicMatching":
        """The matching through period t-1 (a history prefix)."""
        return DynamicMatching(self.periods[: t - 1])

    def extends(self, other: "DynamicMatching") -> bool:
        return self.periods[: other.horizon] == other.periods


def empty_matching(horizon: int) -> DynamicMatching:
    return DynamicMatching(((),) * horizon)


@dataclass(frozen=True)
class History:
    """A valid matching prefix; the current period is ``len(prefix)+1``."""

    economy: Economy
    prefix: DynamicMatching

    def __post_init__(self):
        if self.prefix.horizon and self.prefix.horizon >= self.economy.horizon:
            raise InvalidHistory("history prefix must stop before the final period")
        try:
            _check_prefix(self.economy, self.prefix)
        except (ValueError, UnknownAgent) as exc:
            raise InvalidHistory(str(exc)) from exc

    @property
    def t(self) -> int:
        return self.prefix.horizon + 1


def validate_matching(economy: Economy, m: DynamicMatching) -> None:
    """Check feasibility and irreversibility; raises ValueError on failure.

    Deliberately independent of the enumerator: it re-derives arrivals and
    partner multiplicity from scratch.
    """
    if m.horizon != economy.horizon:
        raise ValueError("matching horizon differs from the economy's")
    _check_prefix(economy, m)


def _check_prefix(economy: Economy, m: DynamicMatching) -> None:
    prev: set[Pair] = set()
    for t in range(1, m.horizon + 1):
        a_arrived, b_arrived = economy.arrived_by(t)
        a_set, b_set = set(a_arrived), set(b_arrived)
        touched: set[str] = set()
        pairs = set(m.pairs_at(t))
        for a, b in pairs:
            if a not in a_set:
                raise ValueError(f"{a} is not a side-A agent arrived by {t}")
            if b not in b_set:
                raise ValueError(f"{b} is not a side-B agent arrived by {t}")
            if a in touched or b in touched:
                raise ValueError(f"agent matched twice in period {t}")
            touched.update((a, b))
        if not prev <= pairs:
            raise ValueError(f"a pair dissolved entering period {t}")
        prev = pairs


def available_agents(
    economy: Economy, h: History
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Agents able to match at h's current period, in declaration order."""
    t = h.t
    a_arrived, b_arrived = economy.arrived_by(t)
    if t == 1:
        return a_arrived, b_arrived
    prefix = h.prefix

    def free(names: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(
            n
            for n in names
            if economy.arrival_period(n) == t or prefix.partner(n, t - 1) == n
        )

    return free(a_arrived), free(b_arrived)


def continuation_economy(economy: Economy, h: History) -> Economy:
    """The length T-(t-1) economy induced by matching through h's prefix."""
    avail_a, avail_b = available_agents(economy, h)
    schedule = ((avail_a, avail_b),) + economy.arrivals[h.t:]
    return Economy(economy.horizon - h.t + 1, schedule, economy.profile)


def continuation(
    economy: Economy, m: DynamicMatching, t: int
) -> tuple[Economy, DynamicMatching]:
    """The continuation economy after m's first t-1 periods, and m restricted
    to it.  Period t of m is period 1 of the continuation, and an agent
    available at t gets the same payoff from either view."""
    if t == 1:
        return economy, m
    h = History(economy, m.prefix(t))
    return continuation_economy(economy, h), restrict(economy, m, h)


def defer_arrivals(economy: Economy, names: Iterable[str]) -> Economy:
    """Move first-period arrivals one period later.

    With a one-period horizon the deferred agents simply leave the economy:
    there is no later period in which they could match.
    """
    moved = set(names)
    (a1, b1), rest = economy.arrivals[0], economy.arrivals[1:]
    for n in moved:
        if n not in a1 and n not in b1:
            raise ValueError(f"{n} does not arrive in period 1")
    a1_kept = tuple(n for n in a1 if n not in moved)
    b1_kept = tuple(n for n in b1 if n not in moved)
    if economy.horizon == 1:
        schedule = ((a1_kept, b1_kept),)
    else:
        a2, b2 = rest[0]
        a2_new = a2 + tuple(n for n in a1 if n in moved)
        b2_new = b2 + tuple(n for n in b1 if n in moved)
        schedule = ((a1_kept, b1_kept), (a2_new, b2_new)) + rest[1:]
    return Economy(economy.horizon, schedule, economy.profile)


def period_matchings(
    a_names: tuple[str, ...],
    b_names: tuple[str, ...],
    forbidden: frozenset[str] = frozenset(),
) -> Iterator[PeriodPairs]:
    """All pair sets over the given agents, lexicographic in declaration order.

    Agents in ``forbidden`` stay unmatched.
    """
    a_free = tuple(n for n in a_names if n not in forbidden)
    b_free = tuple(n for n in b_names if n not in forbidden)

    def rec(i: int, used_b: frozenset[str]) -> Iterator[tuple[Pair, ...]]:
        if i == len(a_free):
            yield ()
            return
        a = a_free[i]
        for tail in rec(i + 1, used_b):
            yield tail
        for b in b_free:
            if b in used_b:
                continue
            for tail in rec(i + 1, used_b | {b}):
                yield ((a, b),) + tail

    for pairs in rec(0, frozenset()):
        yield canonical_pairs(pairs)


def enumerate_matchings(
    economy: Economy,
    unmatched_now: Iterable[str] = (),
    max_matchings: int = DEFAULT_MAX_MATCHINGS,
) -> tuple[DynamicMatching, ...]:
    """All dynamic matchings of the economy, duplicate-free and deterministic.

    ``unmatched_now`` agents must stay single in period 1; they may match
    later.  Raises SizeLimitExceeded past ``max_matchings``.
    """
    forbidden = frozenset(unmatched_now)
    a1, b1 = economy.arrived_by(1)
    for k in forbidden:
        if k not in a1 and k not in b1:
            raise InvalidHistory(f"constraint agent {k} is not available")

    out: list[DynamicMatching] = []

    def extend(prefix: DynamicMatching, t: int) -> None:
        hh = History(economy, prefix) if t <= economy.horizon else None
        if hh is None:
            out.append(prefix)
            if len(out) > max_matchings:
                raise SizeLimitExceeded(
                    max_matchings, economy.horizon, len(economy.members())
                )
            return
        a_avail, b_avail = available_agents(economy, hh)
        keep = set(prefix.pairs_at(t - 1)) if t > 1 else set()
        block = forbidden if t == 1 else frozenset()
        for new_pairs in period_matchings(a_avail, b_avail, block):
            full = canonical_pairs(keep | set(new_pairs))
            extend(DynamicMatching(prefix.periods + (full,)), t + 1)

    extend(DynamicMatching(()), 1)
    return tuple(out)


def restrict(
    economy: Economy, m: DynamicMatching, h: History
) -> DynamicMatching:
    """Project m onto the continuation economy after h (periods renumbered)."""
    if not m.extends(h.prefix):
        raise NotAContinuation("matching does not extend the history")
    carried = set(h.prefix.periods[-1]) if h.prefix.horizon else set()
    periods = tuple(
        tuple(p for p in m.pairs_at(s) if p not in carried)
        for s in range(h.t, economy.horizon + 1)
    )
    return DynamicMatching(periods)


def lift(
    economy: Economy, h: History, cont: DynamicMatching
) -> DynamicMatching:
    """Inverse of :func:`restrict`: splice a continuation matching onto h."""
    carried = h.prefix.periods[-1] if h.prefix.horizon else ()
    periods = h.prefix.periods + tuple(
        canonical_pairs(set(carried) | set(p)) for p in cont.periods
    )
    if len(periods) != economy.horizon:
        raise NotAContinuation("continuation length does not fit the horizon")
    return DynamicMatching(periods)


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
    """Canonical one-line rendering; pairs listed at their formation period."""
    chunks = []
    for t in range(1, m.horizon + 1):
        formed = m.formed_at(t)
        body = " ".join(f"{a}-{b}" for a, b in formed) if formed else "-"
        chunks.append(f"t={t}: {body}")
    return " | ".join(chunks) if chunks else "(empty horizon)"
