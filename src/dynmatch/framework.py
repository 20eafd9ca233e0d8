"""Conjecture families, solution verification, candidates, and consistency.

A conjecture family answers "which full matchings does agent k deem possible
if k stays unmatched this period".  Families are defined at period 1 of an
arbitrary economy.  A question about period t of a matching m is asked at
period 1 of the continuation economy at t: the economy of the agents still
available at t, with m restricted to it.  The checks walk the continuations
forward one ``next_economy`` step per period, and both stitching routes
(recursive solutions and recursive candidates) prepend a first period to
the solutions of the economy it leaves, down to the horizon-0 economy.
Payoffs depend only on partner and delay, so an available agent's payoff is
the same from either view, and two histories with the same continuation
share one cache entry.  Only a witness still names the original period t.

Only the public entry point :func:`is_phi_solution` validates its matching;
matchings from ``enumerate_matchings`` are trusted.

A family is its concept: it holds the concept's configuration (the
empty-conjecture policy and the enumeration cap), set once when it is built,
and every function here takes the family and reads the configuration from
it, so the exhaustive and recursive routes cannot disagree about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .economy import Economy, payoff
from .errors import EmptyContinuationSolutions, NotACandidate, NotAvailable
from .matching import (
    DEFAULT_MAX_MATCHINGS,
    DynamicMatching,
    continuations,
    empty_matching,
    enumerate_matchings,
    next_economy,
    period_matchings,
    prepend,
    validate_matching,
)
from .statics import (
    EMPTY_POLICIES,
    StaticEconomy,
    checked_stable_set,
    conjecture_threshold,
    induced_one_period_economy,
    value_ge,
)

# The horizon-0 economy, where every recursion ends, has one matching, and it
# is a solution under every concept.  Returned before any cache lookup,
# because an economy key hashes the whole preference profile.
_HORIZON_0_SOLUTIONS = (DynamicMatching(()),)

INDIVIDUAL_A = "IndividualA"
INDIVIDUAL_B = "IndividualB"
PAIR = "Pair"


@dataclass(frozen=True)
class BlockWitness:
    """A replayable record of why a matching fails at some period.

    For individual kinds, ``payoffs`` is (attained value, conjecture
    threshold); for pair kinds it is (u(a,b), U_t(a,m), v(a,b), V_t(b,m)).
    """

    kind: str
    period: int
    agents: tuple[str, ...]
    payoffs: tuple

    def __bool__(self) -> bool:
        return False


class ConjectureFamily:
    """Base class: deterministic rule (economy, period-1 agent) -> matchings.

    Subclasses implement :meth:`_root_conjectures` for an agent available in
    period 1 of a (continuation) economy; results are cached per canonical
    economy key.  The family also holds its concept's configuration and
    every cache the concept fills: conjecture sets, solution sets and static
    stable sets.
    """

    name = "?"

    def __init__(
        self,
        empty_policy: str = "vacuous",
        max_matchings: int = DEFAULT_MAX_MATCHINGS,
    ):
        if empty_policy not in EMPTY_POLICIES:
            raise ValueError(
                f"unknown empty-conjecture policy {empty_policy!r}; "
                f"expected one of {EMPTY_POLICIES}"
            )
        if max_matchings < 1:
            raise ValueError(f"max_matchings must be at least 1, got {max_matchings}")
        self.empty_policy = empty_policy
        self.max_matchings = max_matchings
        self._cache: dict = {}
        self._solutions: dict = {}
        self.stable_sets: dict = {}

    def conjecture_set(self, economy: Economy, k: str) -> tuple[DynamicMatching, ...]:
        """The conjectures of k, who must be available in period 1."""
        a1, b1 = economy.arrivals[0]
        if k not in a1 and k not in b1:
            raise NotAvailable(f"{k} is not available at period 1")
        key = (economy.key, k)
        if key not in self._cache:
            self._cache[key] = tuple(self._root_conjectures(economy, k))
        return self._cache[key]

    def conjecture_sets(self, economy: Economy) -> dict:
        """Every period-1 agent's conjecture set, in declaration order."""
        a1, b1 = economy.arrivals[0]
        return {k: self.conjecture_set(economy, k) for k in (*a1, *b1)}

    def _root_conjectures(
        self, economy: Economy, k: str
    ) -> Iterable[DynamicMatching]:
        raise NotImplementedError

    def solution_set(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """The concept's solution set, memoized by economy key."""
        if not economy.horizon:
            return _HORIZON_0_SOLUTIONS
        key = economy.key
        if key not in self._solutions:
            self._solutions[key] = phi_solution_set(economy, self)
        return self._solutions[key]

    def continues_as_solution(self, economy: Economy, m: DynamicMatching) -> bool:
        """Is m, from period 2 on, a solution of its continuation economy?"""
        return m.tail() in self.solution_set(next_economy(economy, m.pairs_at(1)))


class StableFamily(ConjectureFamily):
    """Myopic conjectures: the single matching in which nobody ever pairs up.

    Thresholds are therefore 0 everywhere, so solutions are exactly the
    matchings that are individually rational and blocking-free period by
    period.  For one-period economies this is the stable set.
    """

    name = "stable"

    def _root_conjectures(self, economy, k):
        return (empty_matching(economy.horizon),)


class AgreeFamily(ConjectureFamily):
    """Conjectures constrained only in the continuation: the agent believes
    the market produces some solution from next period onward, with no
    restriction on what happens now."""

    name = "agree"

    def _root_conjectures(self, economy, k):
        return [
            m
            for m in enumerate_matchings(
                economy, unmatched_now=[k], max_matchings=self.max_matchings
            )
            if self.continues_as_solution(economy, m)
        ]


def period_witness(
    cont: Economy, rest: DynamicMatching, family: ConjectureFamily, t: int = 1
) -> Optional[BlockWitness]:
    """First violation of the period-1 solution conditions of ``rest`` in
    ``cont``, or None.  ``cont`` is the continuation economy at period t of
    the matching under test, and a witness names period t.

    Scan order is deterministic: individual objections before pair blocks,
    agents in declaration order.
    """
    avail_a, avail_b = cont.arrivals[0]
    for kind, names in ((INDIVIDUAL_A, avail_a), (INDIVIDUAL_B, avail_b)):
        for k in names:
            thr = conjecture_threshold(
                cont, k, family.conjecture_set(cont, k), family.empty_policy
            )
            val = payoff(cont, rest, k, 1)
            if not value_ge(val, thr):
                return BlockWitness(kind, t, (k,), (val, thr))
    for a in avail_a:
        ua = payoff(cont, rest, a, 1)
        for b in avail_b:
            if cont.utility(a, b) > ua:
                vb = payoff(cont, rest, b, 1)
                if cont.utility(b, a) > vb:
                    return BlockWitness(
                        PAIR,
                        t,
                        (a, b),
                        (cont.utility(a, b), ua, cont.utility(b, a), vb),
                    )
    return None


def is_phi_solution(economy: Economy, m: DynamicMatching, family: ConjectureFamily):
    """True, or the first BlockWitness in (period, kind, agent) order.

    Raises ValueError if m is not a matching of the economy.
    """
    validate_matching(economy, m)
    witness = _first_witness(economy, m, family)
    return True if witness is None else witness


def _first_witness(
    economy: Economy, m: DynamicMatching, family: ConjectureFamily
) -> Optional[BlockWitness]:
    """:func:`is_phi_solution` for an m already known to be a matching of
    the economy, with None for a solution."""
    for t, (cont, rest) in enumerate(continuations(economy, m), start=1):
        witness = period_witness(cont, rest, family, t)
        if witness is not None:
            return witness
    return None


def _canonical(matchings: Iterable[DynamicMatching]) -> tuple[DynamicMatching, ...]:
    return tuple(sorted(set(matchings), key=lambda m: m.periods))


def phi_solution_set(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """Exhaustive filter of all matchings by the solution conditions."""
    return _canonical(
        m
        for m in enumerate_matchings(economy, max_matchings=family.max_matchings)
        if _first_witness(economy, m, family) is None
    )


def recursive_solution_set(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """Same set, computed by period-1 conditions plus solved continuations.

    An independent route to :func:`phi_solution_set`, used as an oracle:
    instead of filtering full matchings, it stitches each feasible first
    period onto the recursively solved continuation economy.
    """
    return _recursive_solutions(economy, family, {})


def _recursive_solutions(
    economy: Economy, family: ConjectureFamily, cache: dict
) -> tuple[DynamicMatching, ...]:
    """:func:`recursive_solution_set`, memoized by economy key in ``cache``."""
    if not economy.horizon:
        return _HORIZON_0_SOLUTIONS
    key = economy.key
    if key not in cache:
        a1, b1 = economy.arrivals[0]
        stitched = (
            prepend(p1, cont)
            for p1 in period_matchings(a1, b1)
            for cont in _recursive_solutions(next_economy(economy, p1), family, cache)
        )
        cache[key] = _canonical(
            m for m in stitched if period_witness(economy, m, family) is None
        )
    return cache[key]


def stable_set_checked(e1: StaticEconomy, cache: dict):
    """Exhaustive stable set with the same-unmatched-set assertion, memoized
    in ``cache`` (a family's ``stable_sets``)."""
    if e1 not in cache:
        cache[e1] = checked_stable_set(e1)
    return cache[e1]


def candidate_set(
    economy: Economy,
    conjectured: Mapping[str, Iterable[DynamicMatching]],
    family: ConjectureFamily,
) -> tuple[DynamicMatching, ...]:
    """Stable first periods of the induced economy, stitched to the family's
    solved continuations.  ``conjectured`` maps each period-1 agent to the
    matchings backing their reservation value."""
    if economy.horizon == 0:
        return (DynamicMatching(()),)
    e1 = induced_one_period_economy(economy, conjectured, family.empty_policy)
    out = []
    for m1 in stable_set_checked(e1, family.stable_sets):
        sols = family.solution_set(next_economy(economy, m1))
        if not sols:
            raise EmptyContinuationSolutions(
                f"no continuation solutions after first period {m1}"
            )
        out.extend(prepend(m1, cont) for cont in sols)
    return _canonical(out)


def candidate_matchings(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """Matchings whose newly formed pairs are stable in the induced economy
    of every period — the non-recursive candidate set."""
    out = []
    for m in enumerate_matchings(economy, max_matchings=family.max_matchings):
        for cont, rest in continuations(economy, m):
            e1 = induced_one_period_economy(
                cont, family.conjecture_sets(cont), family.empty_policy
            )
            if rest.pairs_at(1) not in stable_set_checked(e1, family.stable_sets):
                break
        else:
            out.append(m)
    return _canonical(out)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Pass/fail plus every (period, agent[, matching]) where an unmatched
    agent's own conjecture set omits the matching under test."""

    passed: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.passed


def consistency_failures(
    economy: Economy, m_star: DynamicMatching, family: ConjectureFamily
) -> tuple[tuple[int, str], ...]:
    """Every (period, agent) where an available agent m_star leaves unmatched
    does not conjecture m_star."""
    failures = []
    for t, (cont, rest) in enumerate(continuations(economy, m_star), start=1):
        a1, b1 = cont.arrivals[0]
        for k in (*a1, *b1):
            unmatched = rest.partner(k, 1) == k
            if unmatched and rest not in family.conjecture_set(cont, k):
                failures.append((t, k))
    return tuple(failures)


def check_consistency(
    economy: Economy, m_star: DynamicMatching, family: ConjectureFamily
) -> ConsistencyVerdict:
    """Does every agent the candidate leaves unmatched conjecture it?"""
    if m_star not in candidate_matchings(economy, family):
        raise NotACandidate("matching is not in the candidate set")
    failures = consistency_failures(economy, m_star, family)
    return ConsistencyVerdict(not failures, failures)


def check_generalized_consistency(
    economy: Economy, family: ConjectureFamily
) -> ConsistencyVerdict:
    """The same requirement quantified over every solution, not candidates."""
    failures = tuple(
        (m, t, k)
        for m in family.solution_set(economy)
        for t, k in consistency_failures(economy, m, family)
    )
    return ConsistencyVerdict(not failures, failures)
