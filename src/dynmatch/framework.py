"""Conjecture families, solution verification, candidates, and consistency.

A conjecture family answers "which full matchings does agent k deem possible
if k stays unmatched this period".  Families are defined at period 1 of an
arbitrary economy.  A question about period t of a matching m is asked at
period 1 of the continuation economy at t: the economy of the agents still
available at t, with m restricted to it.  Payoffs depend only on partner and
delay, so an available agent's payoff is the same from either view, and two
histories with the same continuation share one cache entry.

The solve path follows the recursive definitions: a solution, a conjecture
and a candidate are each a first period stitched onto a solved continuation
by one family method, :meth:`ConjectureFamily._stitched`.  The exhaustive
:func:`phi_solution_set` and :func:`candidate_matchings` filter every full
matching and are kept only as oracles.  :func:`is_phi_solution` is the
one walk of a matching's periods for a witness, and it validates the
matching first.

A family is its concept: a conjecture rule and the concept's configuration
(the empty-conjecture policy and the size cap), set once when it is built.
Every function here reads the configuration from the family, so the
exhaustive and stitched routes cannot disagree about it.  The family is
also the one place that turns conjecture sets into thresholds, the
reservation values every period check and the candidates compare against
(:meth:`ConjectureFamily.thresholds_of`); the static layer only compares.
What depends only on the economy is memoized by economy key: conjecture,
solution and candidate sets and thresholds by the family, static scans
(:meth:`ConjectureFamily._scan`) in a memo that a solver's families share.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .economy import ZERO, Economy, payoff
from .errors import (
    EmptyContinuationSolutions,
    HorizonTooLong,
    NotACandidate,
    NotAvailable,
    SizeLimitExceeded,
)
from .matching import (
    DEFAULT_MAX_MATCHINGS,
    DynamicMatching,
    continuations,
    empty_matching,
    enumerate_matchings,
    pair_set_count,
    period_matchings,
    stitch,
    validate_matching,
)
from .statics import NEG_INF, POS_INF, StaticEconomy, assert_lone_wolf, first_block
from .statics import stable_set, unblocked

# How an empty conjecture set constrains its owner: not at all (threshold
# NEG_INF) or completely (threshold POS_INF).
EMPTY_POLICIES = ("vacuous", "strict")

# The horizon-0 economy, where every recursion ends, has one matching, and it
# is a solution and a candidate under every concept.  It has no period 1 to
# stitch from and no period-1 agent, so it is returned, as are its empty
# conjecture sets and thresholds, before any memo lookup.
_HORIZON_0 = (DynamicMatching(()),)

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
    """Base class: deterministic rule economy -> {period-1 agent: matchings}.

    Subclasses implement :meth:`_conjectures`, every period-1 agent's set of
    a (continuation) economy at once, and may override
    :meth:`_threshold_rule`; these rule hooks are all that tells one concept
    from another.  The family also holds its concept's configuration and
    one memo: :meth:`_once` computes each of conjecture sets, thresholds,
    solution and candidate sets once per economy key.  :meth:`_scan` keeps
    static scans in a memo that a solver shares among its families.
    """

    name = "?"

    def __init__(
        self,
        empty_policy: str = "vacuous",
        max_matchings: int = DEFAULT_MAX_MATCHINGS,
        scans: Optional[dict] = None,
    ):
        if empty_policy not in EMPTY_POLICIES:
            raise ValueError(
                f"unknown empty-conjecture policy {empty_policy!r}; "
                f"expected one of {EMPTY_POLICIES}"
            )
        if not isinstance(max_matchings, int) or isinstance(max_matchings, bool):
            raise ValueError(f"max_matchings must be an int, got {max_matchings!r}")
        if max_matchings < 1:
            raise ValueError(f"max_matchings must be at least 1, got {max_matchings}")
        self.empty_policy = empty_policy
        self._empty = NEG_INF if empty_policy == "vacuous" else POS_INF
        self.max_matchings = max_matchings
        kinds = ("conjectures", "thresholds", "solutions", "candidates")
        self._memo: dict = {kind: {} for kind in kinds}
        self._scans = {} if scans is None else scans

    def _once(self, kind: str, economy: Economy, compute):
        """``compute(economy)``, memoized under ``kind`` by economy key; a
        hit is one lookup of the key.  A miss computes outside the handler,
        so a failure deep in the recursion chains no KeyError.  Every solver
        recursion passes through here, so a horizon that exhausts Python's
        recursion limit raises HorizonTooLong here (:meth:`_stitched`
        refuses one above the limit itself at once).  A dict by period-1
        agent is stored in key order (names sorted, side A first), so its
        order does not depend on which economy with the key was asked
        first."""
        cache = self._memo[kind]
        try:
            return cache[economy.key]
        except KeyError:
            pass
        try:
            value = compute(economy)
        except RecursionError:
            raise HorizonTooLong() from None
        if isinstance(value, dict):
            a1, b1 = economy.key[1][0]  # period 1 of the sorted schedule
            value = {k: value[k] for k in (*a1, *b1)}
        cache[economy.key] = value
        return value

    def conjecture_set(self, economy: Economy, k: str) -> tuple[DynamicMatching, ...]:
        """The conjectures of k, who must be available in period 1."""
        a1, b1 = economy.arrivals[0] if economy.horizon else ((), ())
        if k not in a1 and k not in b1:
            raise NotAvailable(f"{k} is not available at period 1")
        return self.conjecture_sets(economy)[k]

    def conjecture_sets(self, economy: Economy) -> dict:
        """Every period-1 agent's conjecture set, by agent in key order;
        :meth:`_conjectures` computes them once per economy key."""
        if not economy.horizon:
            return {}
        return self._once("conjectures", economy, self._conjectures)

    def thresholds(self, economy: Economy) -> dict:
        """Every period-1 agent's reservation value, the worst payoff among
        their conjectures, by agent in key order; :meth:`_threshold_rule`
        computes them once per economy key."""
        if not economy.horizon:
            return {}
        return self._once("thresholds", economy, self._threshold_rule)

    def _threshold_rule(self, economy: Economy) -> dict:
        """The thresholds the family's own conjecture sets induce.  A family
        whose thresholds are known without its conjecture sets overrides
        this, as :meth:`AgreeFamily._threshold_rule` does."""
        return self.thresholds_of(economy, self.conjecture_sets(economy))

    def thresholds_of(self, economy: Economy, conjectured: Mapping) -> dict:
        """Each period-1 agent k's worst period-1 payoff over
        ``conjectured[k]``, in declaration order; an empty set gives the
        sentinel of the family's empty-conjecture policy.  This is the one
        conversion from conjecture sets to thresholds."""
        a1, b1 = economy.arrivals[0]
        empty = self._empty
        return {
            k: min((payoff(economy, m, k, 1) for m in conjectured[k]), default=empty)
            for k in (*a1, *b1)
        }

    def _conjectures(self, economy: Economy) -> dict:
        """The concept's rule: every period-1 agent's conjectures at once."""
        raise NotImplementedError

    def solution_set(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """The concept's solution set, computed by :meth:`_solutions` once
        per economy key."""
        if not economy.horizon:
            return _HORIZON_0
        return self._once("solutions", economy, self._solutions)

    def _solutions(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """Every first period stitched onto the solutions of the economy it
        leaves, keeping the matchings with no period-1 witness.

        At the last period a payoff is the partner's utility, or 0 for a
        single agent, so the first periods are the static scan
        :meth:`_scan` against the thresholds, the test
        :func:`period_witness` would make after stitching; the scan's cap
        trips after the thresholds are read, as the candidates' does.
        """
        if economy.horizon == 1:
            thr = self.thresholds(economy)
            firsts = self._scan(economy, thr, dict.fromkeys(thr, ZERO))
            return self._stitched(economy, firsts, self.solution_set)
        a1, b1 = economy.arrivals[0]
        stitched = self._stitched(economy, period_matchings(a1, b1), self.solution_set)
        return tuple(m for m in stitched if period_witness(economy, m, self) is None)

    def candidates(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """Stable first periods of the induced economy, each stitched onto
        the candidates of the economy it leaves; memoized by economy key."""
        if not economy.horizon:
            return _HORIZON_0
        return self._once("candidates", economy, self._candidates)

    def _candidates(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        return self._induced(economy, self.thresholds(economy), self.candidates)

    def _induced(self, economy: Economy, thresholds: Mapping, rest):
        """The stable set that ``thresholds`` induce on period 1, checked by
        :func:`~dynmatch.statics.assert_lone_wolf`, stitched onto ``rest``."""
        firsts = self._scan(economy, thresholds, thresholds)
        e1 = StaticEconomy(economy, *economy.arrivals[0], thresholds)
        assert_lone_wolf(e1, firsts)
        return self._stitched(economy, firsts, rest)

    def _scan(self, economy: Economy, thresholds: Mapping, singles: Mapping):
        """:func:`~dynmatch.statics.unblocked` on period 1, a single agent k
        attaining ``singles[k]``; memoized by economy key, with thresholds
        and singles compared, not hashed.  This is the cap rule of every
        static scan: more period-1 pair sets than the cap raise
        SizeLimitExceeded, naming the economy, before any is tested or the
        memo is read."""
        a1, b1 = economy.arrivals[0]
        if pair_set_count(len(a1), len(b1)) > self.max_matchings:
            horizon, agents = economy.horizon, len(economy.members())
            raise SizeLimitExceeded(self.max_matchings, horizon, agents)
        entries = self._scans.setdefault(economy.key, [])
        for known, single, found in entries:
            if known == thresholds and single == singles:
                return found
        found = unblocked(economy, a1, b1, thresholds.__getitem__, singles.__getitem__)
        entries.append((thresholds, singles, found))
        return found

    def _single_now(self, economy: Economy, keep=lambda p1: True) -> dict:
        """Each period-1 agent's matchings that leave it single now, their
        first periods passing ``keep``.  The first periods are stitched onto
        the solutions of the economies they leave once, and the cap counts
        that one stitch; each agent's set is a subsequence of it."""
        a1, b1 = economy.arrivals[0]
        firsts = filter(keep, period_matchings(a1, b1))
        stitched = self._stitched(economy, firsts, self.solution_set)
        return {
            k: tuple(m for m in stitched if m.partner(k, 1) == k) for k in (*a1, *b1)
        }

    def _stitched(self, economy: Economy, firsts, rest) -> tuple[DynamicMatching, ...]:
        """Each period-1 pair set of ``firsts`` stitched onto every matching
        ``rest`` returns for the economy it leaves, in canonical order; the
        family's size cap bounds the count.  Every stitched period nests at
        least one frame, so a horizon above Python's recursion limit, read at
        each call, raises HorizonTooLong before the first stitch."""
        if economy.horizon > sys.getrecursionlimit():
            raise HorizonTooLong()
        return _canonical(stitch(economy, firsts, rest, self.max_matchings))


class StableFamily(ConjectureFamily):
    """Myopic conjectures: the single matching in which nobody ever pairs up.

    Thresholds are therefore 0 everywhere, so solutions are exactly the
    matchings that are individually rational and blocking-free period by
    period.  For one-period economies this is the stable set.
    """

    name = "stable"

    def _conjectures(self, economy):
        a1, b1 = economy.arrivals[0]
        return dict.fromkeys((*a1, *b1), (empty_matching(economy.horizon),))


class AgreeFamily(ConjectureFamily):
    """Conjectures constrained only in the continuation: the agent believes
    the market produces some solution from next period onward, with no
    restriction on what happens now.

    Under ``stable``, ``agree`` and ``ds`` no economy has an empty solution
    set or conjecture set, ties or not.  By induction on the horizon, with
    the claim that every solution pays each period-1 agent at least 0 (the
    horizon-0 economy has its one matching):

    1. A static market with numeric thresholds has a stable matching, even
       with ties: run Gale–Shapley on a strict refinement of the
       preferences; a strict block under the real ones would also block it.
    2. Under ``agree`` and ``ds`` the all-single first period, stitched onto
       a solution of the economy it leaves, is every period-1 agent's
       conjecture.  So their sets are nonempty and their thresholds are
       numbers, each at least 0: a conjecture leaves its owner single now
       and pays it a discounted continuation payoff.
    3. Take a stable first period of the economy these thresholds induce
       (step 1).  Its matched agents get at least their thresholds, so at
       least 0, and cannot block one another: it passes ``ds``'s filter.
    4. Stitched onto a solution of the economy it leaves, it is then
       conjectured by each agent it leaves single, so it pays every
       period-1 agent at least its threshold (the matched ones by step 3).
       A period-1 pair that blocked it would block the induced economy,
       where a single agent's value is its threshold.  So it is a
       solution, and pays each period-1 agent at least 0.
    5. ``stable`` is the same argument with thresholds of 0.

    ``cvr-ds`` starts from ``agree``'s rule and only removes conjectures,
    so a set that is ever empty is empty in the limit, which
    :class:`~dynmatch.errors.EmptyFixedPoint` rejects.  So no report of
    these four concepts reads the empty-conjecture policy.  For ``re`` and
    ``sds`` the question is open.
    """

    name = "agree"

    def _conjectures(self, economy):
        return self._single_now(economy)

    def _threshold_rule(self, economy):
        """Zero at the last period: with a one-period horizon every
        period-1 agent's threshold is 0, returned without building any
        conjecture set; at any other horizon, the default rule.

        ``agree``, ``ds``, ``re``, ``cvr-ds`` and ``sds`` take this rule.
        Each of their conjectures leaves its owner single in period 1,
        which at horizon 1 is the only period, so it pays its owner 0.  A
        threshold is the minimum over a conjecture set, so it is 0 as soon
        as the set is nonempty, and no set of these rules is empty:

        - ``agree`` and ``ds`` contain the first period in which nobody
          matches (it is stable among its matched agents, of whom there
          are none), stitched onto the one horizon-0 matching;
        - ``cvr-ds`` starts from ``agree``'s sets, and its refinement keeps
          that all-single matching, which is stable among its matched
          agents whatever the thresholds;
        - ``re``'s set for k is the solution set of the one-period market
          without k.  By induction on the number of agents its thresholds
          are 0, so it is that market's stable set with staying single
          worth 0, which is nonempty (Gale & Shapley 1962);
        - ``sds`` starts from ``re``'s sets and only adds to them.

        ``stable`` keeps the default: its one conjecture costs one payoff.
        The zeros spare ``re`` and ``sds`` the deferred last-period markets.
        """
        if economy.horizon != 1:
            return ConjectureFamily._threshold_rule(self, economy)
        a1, b1 = economy.arrivals[0]
        return dict.fromkeys((*a1, *b1), ZERO)


def period_witness(
    cont: Economy, rest: DynamicMatching, family: ConjectureFamily, t: int = 1
) -> Optional[BlockWitness]:
    """First violation of the period-1 solution conditions of ``rest`` in
    ``cont``, or None.  ``cont`` is the continuation economy at period t of
    the matching under test, and a witness names period t.

    The scan is :func:`~dynmatch.statics.first_block` of period-1 payoffs
    against the family's cached thresholds, agents in declaration order.
    """

    def value(k):
        return payoff(cont, rest, k, 1)

    threshold = family.thresholds(cont).__getitem__
    avail_a, avail_b = cont.arrivals[0]
    block = first_block(avail_a, avail_b, cont.utility, value, threshold)
    return None if block is None else BlockWitness(block[0], t, *block[1:])


def is_phi_solution(economy: Economy, m: DynamicMatching, family: ConjectureFamily):
    """True, or the first BlockWitness in (period, kind, agent) order.

    Raises ValueError if m is not a matching of the economy.
    """
    validate_matching(economy, m)
    for t, (cont, rest) in enumerate(continuations(economy, m), start=1):
        witness = period_witness(cont, rest, family, t)
        if witness is not None:
            return witness
    return True


def _canonical(matchings: Iterable[DynamicMatching]) -> tuple[DynamicMatching, ...]:
    return tuple(sorted(set(matchings), key=lambda m: m.periods))


def phi_solution_set(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """Exhaustive filter of all matchings by the solution conditions; an
    oracle for the stitched :meth:`ConjectureFamily.solution_set`."""
    return _canonical(
        m
        for m in enumerate_matchings(economy, max_matchings=family.max_matchings)
        if is_phi_solution(economy, m, family) is True
    )


def recursive_solution_set(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """The same set by the stitching route: the family's memoized
    :meth:`ConjectureFamily.solution_set`.  :func:`phi_solution_set` is its
    independent oracle."""
    return family.solution_set(economy)


def candidate_set(
    economy: Economy,
    conjectured: Mapping[str, Iterable[DynamicMatching]],
    family: ConjectureFamily,
) -> tuple[DynamicMatching, ...]:
    """Stable first periods of the induced economy, stitched to the family's
    solved continuations.  ``conjectured`` maps each period-1 agent to the
    matchings backing their reservation value (ValueError names any left out)."""
    if economy.horizon == 0:
        return _HORIZON_0
    missing = [k for side in economy.arrivals[0] for k in side if k not in conjectured]
    if missing:
        raise ValueError(f"no conjecture set for period-1 agents {', '.join(missing)}")

    def solved(cont: Economy) -> tuple[DynamicMatching, ...]:
        sols = family.solution_set(cont)
        if not sols:
            raise EmptyContinuationSolutions(
                f"no continuation solutions for the arrivals {cont.arrivals}"
            )
        return sols

    return family._induced(economy, family.thresholds_of(economy, conjectured), solved)


def candidate_matchings(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """Matchings whose newly formed pairs are stable in the induced economy
    of every period — the exhaustive candidate set, an oracle for
    :meth:`ConjectureFamily.candidates`."""
    out = []
    for m in enumerate_matchings(economy, max_matchings=family.max_matchings):
        for cont, rest in continuations(economy, m):
            a1, b1 = cont.arrivals[0]
            thresholds = family.thresholds_of(cont, family.conjecture_sets(cont))
            e1 = StaticEconomy(cont, a1, b1, thresholds)
            if rest.pairs_at(1) not in stable_set(e1):
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
    does not conjecture m_star.  Within a period, agents come in the
    declaration order of ``economy``'s continuation."""
    failures = []
    for t, (cont, rest) in enumerate(continuations(economy, m_star), start=1):
        conjectured = family.conjecture_sets(cont)
        a1, b1 = cont.arrivals[0]
        for k in (*a1, *b1):
            if rest.partner(k, 1) == k and rest not in conjectured[k]:
                failures.append((t, k))
    return tuple(failures)


def check_consistency(
    economy: Economy, m_star: DynamicMatching, family: ConjectureFamily
) -> ConsistencyVerdict:
    """Does every agent the candidate leaves unmatched conjecture it?"""
    if m_star not in family.candidates(economy):
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
