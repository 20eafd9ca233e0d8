"""Economies, agents, arrivals, and discounted payoffs.

All utilities and discount factors are exact rationals; the solver never
touches floating point, so set membership defined by strict or weak
inequalities is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import NotAvailable, UnknownAgent

if TYPE_CHECKING:  # pragma: no cover
    from .matching import DynamicMatching

SIDE_A = "A"
SIDE_B = "B"

# Partners an agent never listed are unacceptable by convention: strictly
# below the payoff of remaining single, above nothing that is listed.
UNLISTED_UTILITY = Fraction(-1)

# The payoff of remaining single, shared rather than built on every read.
ZERO = Fraction(0)


@dataclass(frozen=True)
class PreferenceProfile:
    """Per-agent discount factors and partner utilities.

    ``utilities`` maps (owner, partner) name pairs to exact rationals; the
    payoff of remaining single is normalized to 0 and never stored.
    Partners without an entry get :data:`UNLISTED_UTILITY`.  Every delta and
    utility must be a :class:`numbers.Rational` (an int or a Fraction): a
    float would break exactness silently, so it is rejected.

    The profile is part of every economy key, so its hash is computed once,
    when it is built; equality is field equality, as generated.
    """

    deltas: tuple[tuple[str, Fraction], ...]
    utilities: tuple[tuple[tuple[str, str], Fraction], ...]
    _delta_map: Mapping[str, Fraction] = field(
        init=False, repr=False, compare=False, default=None
    )
    _util_map: Mapping[tuple[str, str], Fraction] = field(
        init=False, repr=False, compare=False, default=None
    )
    _hash: int = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        def exact(v):  # the two usual types first, then any Rational
            return type(v) in (Fraction, int) or isinstance(v, Rational)

        inexact = sorted(
            {n for n, d in self.deltas if not exact(d)}
            | {o for (o, _), u in self.utilities if not exact(u)}
        )
        if inexact:
            raise ValueError(
                "discount factors and utilities must be exact rationals "
                f"(int or Fraction); inexact values for {', '.join(inexact)}"
            )
        for name, d in self.deltas:
            if not (0 <= d <= 1):
                raise ValueError(f"discount factor of {name} must lie in [0,1]")
        object.__setattr__(self, "_delta_map", dict(self.deltas))
        object.__setattr__(self, "_util_map", dict(self.utilities))
        object.__setattr__(self, "_hash", hash((self.deltas, self.utilities)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(
        deltas: Mapping[str, Fraction],
        utilities: Mapping[tuple[str, str], Fraction],
    ) -> "PreferenceProfile":
        return PreferenceProfile(
            deltas=tuple(sorted(deltas.items())),
            utilities=tuple(sorted(utilities.items())),
        )

    def delta(self, name: str) -> Fraction:
        try:
            return self._delta_map[name]
        except KeyError:
            raise UnknownAgent(name) from None

    def utility(self, owner: str, partner: str) -> Fraction:
        if owner == partner:
            return ZERO
        return self._util_map.get((owner, partner), UNLISTED_UTILITY)


@dataclass(frozen=True)
class Economy:
    """A finite-horizon arrival schedule plus a preference profile.

    ``arrivals[t-1]`` is the pair of name tuples (side A, side B) entering in
    period t, listed in declaration order.  Continuation and deferred
    economies share the root profile; the arrival schedule alone determines
    who exists.  ``key``, built once, is the canonical memoization key:
    arrivals sorted within each period, so declaration order is ignored.
    """

    horizon: int
    arrivals: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    profile: PreferenceProfile

    def __post_init__(self):
        if self.horizon < 0 or len(self.arrivals) != self.horizon:
            raise ValueError("arrival schedule length must equal the horizon")
        # name -> (side, arrival period), built once for every lookup.
        index: dict[str, tuple[str, int]] = {}
        for t, (a_names, b_names) in enumerate(self.arrivals, start=1):
            for side, names in ((SIDE_A, a_names), (SIDE_B, b_names)):
                for name in names:
                    if name in index:
                        raise ValueError(f"agent {name} arrives more than once")
                    if name not in self.profile._delta_map:
                        raise ValueError(f"agent {name} has no discount factor")
                    index[name] = (side, t)
        object.__setattr__(self, "_index", index)
        sorted_arrivals = tuple(
            (tuple(sorted(a)), tuple(sorted(b))) for a, b in self.arrivals
        )
        object.__setattr__(self, "key", (self.horizon, sorted_arrivals, self.profile))

    def members(self) -> tuple[str, ...]:
        return tuple(n for a, b in self.arrivals for n in (*a, *b))

    def _entry(self, name: str) -> tuple[str, int]:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAgent(name) from None

    def side_of(self, name: str) -> str:
        return self._entry(name)[0]

    def arrival_period(self, name: str) -> int:
        return self._entry(name)[1]

    def utility(self, owner: str, partner: str) -> Fraction:
        """Static utility of ``owner`` for ``partner`` (0 for self)."""
        side_o = self.side_of(owner)
        if owner != partner and side_o == self.side_of(partner):
            raise ValueError(f"{owner} and {partner} are on the same side")
        return self.profile.utility(owner, partner)

    def delta(self, name: str) -> Fraction:
        self.side_of(name)
        return self.profile.delta(name)


def build_economy(
    horizon: int,
    arrivals: Iterable[tuple[Iterable[str], Iterable[str]]],
    deltas: Mapping[str, Fraction],
    utilities: Mapping[tuple[str, str], Fraction],
) -> Economy:
    """Convenience constructor used by tests and the DSL; rejects stray entries."""
    schedule = tuple((tuple(a), tuple(b)) for a, b in arrivals)
    economy = Economy(horizon, schedule, PreferenceProfile.build(deltas, utilities))
    side = {name: s for name, (s, _) in economy._index.items()}
    for name in deltas:
        if name not in side:
            raise ValueError(f"discount factor for {name}, who is not scheduled")
    for owner, partner in utilities:
        stray = [n for n in (owner, partner) if n not in side]
        if stray or side[owner] == side[partner]:
            why = f"{stray[0]} is not scheduled" if stray else "they are on one side"
            raise ValueError(f"utility of {owner} for {partner}: {why}")
    return economy


def payoff(economy: Economy, m: "DynamicMatching", k: str, t: int) -> Fraction:
    """Exact payoff of k from m, seen from period t: ``delta_k ** (s - t) *
    u_k(p)`` at the first period s >= t in which k has a partner p, and 0 if
    k never matches.  Raises ValueError if t is not a period of the economy
    or m has another horizon, and NotAvailable unless k is available at t."""
    if not 1 <= t <= economy.horizon:
        raise ValueError(f"period {t} outside 1..{economy.horizon}")
    if len(m.periods) != economy.horizon:
        raise ValueError(
            f"a matching of horizon {len(m.periods)} in an economy of horizon "
            f"{economy.horizon}"
        )
    if economy.arrival_period(k) > t:  # raises UnknownAgent
        raise NotAvailable(f"{k} has not arrived by period {t}")
    if t > 1 and m.partner(k, t - 1) != k:
        raise NotAvailable(f"{k} is already matched before period {t}")
    for s in range(t, economy.horizon + 1):
        p = m.partner(k, s)
        if p != k:
            return economy.delta(k) ** (s - t) * economy.utility(k, p)
    return ZERO
