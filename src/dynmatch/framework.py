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
by one family method, :meth:`ConjectureFamily._stitched`.  A period with
agents on one side only forms no pair, and under every built-in concept but
``stable`` its solutions are the empty first period stitched onto the
solutions of the economy it leaves, read without a threshold; any other
period of horizon 2 or more stitches only the first periods stable among
the agents they match, at the family's thresholds
(:meth:`AgreeFamily._solutions`).  That is the package's one solution
route: the exhaustive filters that check it are in ``tests/reference.py``,
written from the definitions.  :func:`is_phi_solution` is the one walk of a
matching's periods for a witness, and it validates the matching first.

A family is its concept: a conjecture rule and the concept's configuration
(the empty-conjecture policy and the size cap), set once when it is built.
Every function here reads the configuration from the family, so no two of
them can disagree about it.  The family is also the one place that turns
conjecture sets into thresholds, the reservation values every period check
and the candidates compare against
(:meth:`ConjectureFamily.thresholds_of`); the static layer only compares.
What depends only on the economy is memoized by economy key: conjecture,
solution and candidate sets and thresholds by the family, static scans
(:meth:`ConjectureFamily._scan`, which computes each stable set by
:func:`~dynmatch.statics.stable_set`) and continuation economies
(:meth:`ConjectureFamily._next`) in memos a solver's families share.
Thresholds and the solution filters read payoffs from value tables that
the families share too (:meth:`ConjectureFamily._payoff_reader`);
:func:`is_phi_solution` keeps the checked walk of
:func:`~dynmatch.economy.payoff`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Optional

from .economy import ZERO, Economy, payoff
from .errors import (
    EmptyContinuationSolutions,
    NotACandidate,
    NotAvailable,
    SizeLimitExceeded,
)
from . import matching
from .matching import (
    DEFAULT_MAX_MATCHINGS,
    DynamicMatching,
    continuations,
    empty_matching,
    pair_set_count,
    period_matchings,
    stitch,
    validate_matching,
)
from .statics import NEG_INF, POS_INF, StaticEconomy, first_block, stable_set
from .statics import unblocked, unblocked_among_matched

# How an empty conjecture set constrains its owner: not at all (threshold
# NEG_INF) or completely (threshold POS_INF).
EMPTY_POLICIES = ("vacuous", "strict")

# The horizon-0 economy, where every recursion ends, has one matching, and it
# is a solution and a candidate under every concept.  It has no period 1 to
# stitch from and no period-1 agent (:func:`_period_1`), so it is returned,
# as are its empty conjecture sets and thresholds, before any memo lookup.
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
    static scans, :meth:`_payoff_reader` payoff values and :meth:`_next`
    continuation economies in memos that a solver shares among its families.
    """

    name = "?"

    def __init__(
        self,
        empty_policy: str = "vacuous",
        max_matchings: int = DEFAULT_MAX_MATCHINGS,
        scans: Optional[dict] = None,
        values: Optional[dict] = None,
        economies: Optional[dict] = None,
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
        self._values = {} if values is None else values
        self._economies = {} if economies is None else economies

    def _once(self, kind: str, economy: Economy, compute):
        """``compute(economy)``, memoized under ``kind`` by economy key; a
        hit is one lookup of the key.  A miss computes outside the handler,
        so a failure deep in the recursion chains no KeyError.  A dict by
        period-1 agent is stored in key order (names sorted, side A first),
        so its order does not depend on which economy with the key was
        asked first."""
        cache = self._memo[kind]
        try:
            return cache[economy.key]
        except KeyError:
            pass
        value = compute(economy)
        if isinstance(value, dict):
            a1, b1 = economy.key[1][0]  # period 1 of the sorted schedule
            value = {k: value[k] for k in (*a1, *b1)}
        cache[economy.key] = value
        return value

    def conjecture_set(self, economy: Economy, k: str) -> tuple[DynamicMatching, ...]:
        """The conjectures of k, who must be available in period 1."""
        a1, b1 = _period_1(economy)
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
        conversion from conjecture sets to thresholds; ValueError names any
        period-1 agent that ``conjectured`` leaves out, and, as
        :func:`~dynmatch.economy.payoff` raises it, a conjecture of another
        horizon.  Payoffs are read by :meth:`_payoff_reader`."""
        a1, b1 = _period_1(economy)
        missing = ", ".join(k for k in (*a1, *b1) if k not in conjectured)
        if missing:
            raise ValueError(f"no conjecture set for period-1 agents {missing}")
        empty, read = self._empty, self._payoff_reader(economy)
        return {
            k: min((read(m, k) for m in conjectured[k]), default=empty)
            for k in (*a1, *b1)
        }

    def _payoff_reader(self, economy: Economy) -> Callable:
        """``read(m, k)``, equal to ``payoff(economy, m, k, 1)`` for a
        period-1 agent k: one scan of ``m.periods`` finds k's first partner
        p, s periods on, and ``delta_k ** s * u_k(p)`` is read from a table
        of exact Fractions, filled once per (owner, partner, delay) through
        :meth:`~dynmatch.economy.Economy.utility`, which checks the pair.  A
        matching of another horizon goes to :func:`~dynmatch.economy.payoff`
        to raise its ValueError; nothing else is checked.  The solver's
        families share one table per profile, keyed by the identity of the
        profile, which the entry holds alive, so no read hashes a profile."""
        profile, horizon = economy.profile, economy.horizon
        table = self._values.setdefault(id(profile), (profile, {}))[1]

        def read(m, k):
            if len(m.periods) != horizon:
                return payoff(economy, m, k, 1)
            for s, pairs in enumerate(m.periods):
                for a, b in pairs:
                    if k == a or k == b:
                        key = (k, b if k == a else a, s)
                        try:
                            return table[key]
                        except KeyError:
                            value = profile.delta(k) ** s * economy.utility(k, key[1])
                            table[key] = value
                            return value
            return ZERO

        return read

    def _conjectures(self, economy: Economy) -> dict:
        """The concept's rule: every period-1 agent's conjectures at once."""
        raise NotImplementedError

    def unconjectured_by(self, economy: Economy, m: DynamicMatching) -> tuple[str, ...]:
        """The period-1 agents that ``m`` leaves single and that do not
        conjecture ``m``, in declaration order: the question the consistency
        walk asks of each continuation.  This default reads
        :meth:`conjecture_sets` and is the definition; a family that can
        answer without them overrides it, as
        :meth:`AgreeFamily.unconjectured_by` does at the last period."""
        conjectured = self.conjecture_sets(economy)
        return tuple(k for k in _single(economy, m) if m not in conjectured[k])

    def solution_set(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """The concept's solution set, computed by :meth:`_solutions` once
        per economy key."""
        if not economy.horizon:
            return _HORIZON_0
        return self._once("solutions", economy, self._solutions)

    def _solutions(self, economy: Economy) -> tuple[DynamicMatching, ...]:
        """Every first period stitched onto the solutions of the economy it
        leaves, keeping the matchings with no period-1 witness.  This is the
        definition.  :meth:`AgreeFamily._solutions`, the route of every
        concept but ``stable``, departs from it where a lemma in its
        docstring proves the result the same: a one-sided period skips the
        filter, which keeps everything, and a two-sided period at horizon 2
        or more stitches only the first periods stable among the agents
        they match, as no other first period can survive the filter.

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
        thr = self.thresholds(economy)
        return self._stitched(economy, self._scan(economy, thr, thr), self.candidates)

    def _scan(self, economy: Economy, thresholds: Mapping, singles: Mapping):
        """:func:`~dynmatch.statics.unblocked` on period 1, a single agent k
        attaining ``singles[k]``; memoized by economy key, with thresholds
        and singles compared, not hashed.  A miss computes a stable set
        (singles equal to thresholds) by :func:`~dynmatch.statics.stable_set`,
        so it is checked once, when stored.  This is the cap rule of every
        static scan: more period-1 pair sets than the cap raise
        SizeLimitExceeded, naming the economy, before any is tested or the
        memo is read.  A scan with every single at ``POS_INF`` is built
        pair by pair, by :func:`~dynmatch.statics.unblocked_among_matched`."""
        a1, b1 = economy.arrivals[0]
        if pair_set_count(len(a1), len(b1)) > self.max_matchings:
            horizon, agents = economy.horizon, len(economy.members())
            raise SizeLimitExceeded(self.max_matchings, horizon, agents)
        entries = self._scans.setdefault(economy.key, [])
        for known, single, found in entries:
            if known == thresholds and single == singles:
                return found
        if singles == thresholds:
            found = stable_set(StaticEconomy(economy, a1, b1, thresholds))
        elif all(v is POS_INF for v in singles.values()):
            found = unblocked_among_matched(economy, a1, b1, thresholds.__getitem__)
        else:
            value = singles.__getitem__
            found = unblocked(economy, a1, b1, thresholds.__getitem__, value)
        entries.append((thresholds, singles, found))
        return found

    def _among_matched(self, economy: Economy, thresholds: Mapping):
        """The period-1 pair sets stable among the agents they match, at
        ``thresholds`` (0 for an agent the mapping leaves out): the scan
        with every single agent attaining ``POS_INF``, which can neither
        fall short of a threshold nor join a block."""
        a1, b1 = economy.arrivals[0]
        thr = {k: thresholds.get(k, ZERO) for k in (*a1, *b1)}
        return self._scan(economy, thr, dict.fromkeys(thr, POS_INF))

    def _single_now(self, economy: Economy, firsts) -> dict:
        """Each period-1 agent's matchings that leave it single now, their
        first periods drawn from ``firsts``.  The first periods are stitched
        onto the solutions of the economies they leave once, and the cap
        counts that one stitch; each agent's set is a subsequence of it."""
        a1, b1 = economy.arrivals[0]
        stitched = self._stitched(economy, firsts, self.solution_set)
        return {
            k: tuple(m for m in stitched if m.partner(k, 1) == k) for k in (*a1, *b1)
        }

    def _stitched(self, economy: Economy, firsts, rest) -> tuple[DynamicMatching, ...]:
        """Each period-1 pair set of ``firsts`` stitched onto every matching
        ``rest`` returns for the economy it leaves, read by :meth:`_next`, in
        canonical order; the family's size cap bounds the count, and
        :func:`stitch` refuses a horizon too long to recurse."""
        def leaving(p1):
            return rest(self._next(economy, p1))

        return _canonical(stitch(economy, firsts, leaving, self.max_matchings))

    def _next(self, economy: Economy, pairs) -> Economy:
        """:func:`~dynmatch.matching.next_economy`, once per economy key and
        ``pairs`` for a solver's families; a hit keeps the first asker's order."""
        key = economy.key, pairs
        cont = self._economies.get(key)
        if cont is None:
            cont = self._economies[key] = matching.next_economy(economy, pairs)
        return cont


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
        return self._single_now(economy, period_matchings(*economy.arrivals[0]))

    def _threshold_rule(self, economy):
        """Zero at the last period: with a one-period horizon every
        period-1 agent's threshold is 0, returned without building any
        conjecture set; at any other horizon, the default rule.

        ``agree``, ``ds``, ``re``, ``cvr-ds`` and ``sds`` take this rule,
        :meth:`unconjectured_by` and :meth:`_solutions`.  The first two rest
        on one lemma.  At horizon 1 a conjecture of k is a pair set that
        leaves k single, stitched onto the one horizon-0 matching.  Under
        each of the five, k's set holds every pair set that leaves k single
        and is stable at thresholds 0 in the market without k:

        - ``agree``'s set is every pair set that leaves k single;
        - ``ds``'s tests only stability among the matched agents, whose
          checks are a subset of those of the market without k;
        - ``cvr-ds`` starts from ``agree``'s sets, whose thresholds are 0
          (below), so its first refinement is ``ds``'s filter; ``ds``'s sets
          have thresholds 0 too, so the next refinement changes nothing;
        - ``re``'s set is the solution set of the market without k.  By
          induction on the number of agents its thresholds are 0, so it
          is exactly the pair sets named;
        - ``sds`` starts from ``re``'s sets and only adds to them.

        Such a pair set exists (Gale & Shapley 1962; with ties, on a strict
        refinement), so no set is empty.  Each conjecture leaves its owner
        single in the only period, so it pays 0, and each threshold, the
        minimum over a nonempty set, is 0.

        ``stable`` keeps the default: its one conjecture costs one payoff.
        The zeros spare ``re`` and ``sds`` the deferred last-period markets.
        """
        if economy.horizon != 1:
            return super()._threshold_rule(economy)
        a1, b1 = economy.arrivals[0]
        return dict.fromkeys((*a1, *b1), ZERO)

    def unconjectured_by(self, economy, m):
        """Nobody, at the last period, if ``m`` is a solution; otherwise,
        and at any other horizon, the default.  At horizon 1 the solutions
        are the pair sets stable at thresholds 0 among every period-1
        agent, the memoized scan the candidates share.  Stability in the
        whole market makes a superset of the checks of the market without
        any agent k that ``m`` leaves single, so by the lemma of
        :meth:`_threshold_rule` k conjectures ``m``.  Every candidate and
        solution passes the test, so the walk builds no horizon-1
        conjecture set for them and, for ``re`` and ``sds``, solves no
        deferred last-period market.
        """
        if economy.horizon == 1 and m in self.solution_set(economy):
            return ()
        return super().unconjectured_by(economy, m)

    def _solutions(self, economy):
        """The empty first period stitched onto the solutions S(C) of the
        economy C it leaves, if period 1 lacks side-A or side-B agents; the
        default at horizon 1; otherwise the default on pruned first periods.

        The default keeps each matching of ∅ + S(C) that has no period-1
        witness, and none has one:

        - no pair can form now, so none can block;
        - each waiting agent j conjectures exactly ∅ + S(C): ``agree`` and
          ``ds`` by their rules (``ds``'s test passes the empty pair set);
          ``cvr-ds`` because its refinement keeps every empty first
          period; ``re`` by induction on the period-1 agents, as deferring
          j leaves a one-sided period and the same C; ``sds`` because the
          only candidate first period of a one-sided period is ∅;
        - so j's threshold is the minimum over the very set being
          filtered, and individual rationality removes nothing.

        For ``re``, an agent k alone on its side of a two-sided period
        conjectures ∅ + S(C) too: deferring k leaves a one-sided period,
        so ∅ stitched onto the solutions of the economy that period leaves,
        which has C's schedule and horizon, so C's key, with the same cap
        and guard.  :meth:`REFamily._conjectures` defers no lone agent.

        So no round of ``sds``'s fixed point (:meth:`SDSFamily._step`) adds
        a conjecture in a period that is one-sided or has one agent a side:
        its only pair set that leaves an agent k single is ∅, so k's new
        candidates are in ∅ + S(C), k's start set, ``re``'s, by the two
        paragraphs above, and the iterates only grow.

        If S(C) is empty, both routes stitch nothing and read no threshold.
        So no threshold, conjecture set, fixed point or deferred market of
        a one-sided economy is built for its solutions; the one stitch
        still counts toward the cap and is guarded against a horizon too
        long to recurse.  ``stable`` keeps the default.

        A two-sided period at horizon 2 or more stitches only the first
        periods stable among the agents they match, at the family's
        thresholds (:meth:`_among_matched`), and filters what it stitched
        as the default does.  The prune is exact for any family: a matched
        agent's individual rationality reads only its partner's utility and
        its threshold, and a block by two matched agents reads only
        utilities; only the checks of a single agent read the continuation.
        So no continuation of a first period that cannot survive is built.
        """
        a1, b1 = economy.arrivals[0]
        if not (a1 and b1):
            return self._stitched(economy, ((),), self.solution_set)
        if economy.horizon == 1:
            return super()._solutions(economy)
        firsts = self._among_matched(economy, self.thresholds(economy))
        stitched = self._stitched(economy, firsts, self.solution_set)
        return tuple(m for m in stitched if period_witness(economy, m, self) is None)


def period_witness(
    cont: Economy,
    rest: DynamicMatching,
    family: ConjectureFamily,
    t: int = 1,
    value: Optional[Callable] = None,
) -> Optional[BlockWitness]:
    """First violation of the period-1 solution conditions of ``rest`` in
    ``cont``, or None.  ``cont`` is the continuation economy at period t of
    the matching under test, and a witness names period t.

    The scan is :func:`~dynmatch.statics.first_block` of period-1 payoffs
    against the family's cached thresholds, agents in declaration order.
    ``value(k)`` is k's payoff from ``rest``; by default the family's
    :meth:`~ConjectureFamily._payoff_reader` reads it, as the solution
    filters need, and :func:`is_phi_solution` passes the checked
    :func:`~dynmatch.economy.payoff`.
    """
    if value is None:
        value = partial(family._payoff_reader(cont), rest)
    threshold = family.thresholds(cont).__getitem__
    avail_a, avail_b = cont.arrivals[0]
    block = first_block(avail_a, avail_b, cont.profile.utility, value, threshold)
    return None if block is None else BlockWitness(block[0], t, *block[1:])


def is_phi_solution(economy: Economy, m: DynamicMatching, family: ConjectureFamily):
    """True, or the first BlockWitness in (period, kind, agent) order.

    Raises ValueError if m is not a matching of the economy.
    """
    validate_matching(economy, m)
    for t, (cont, rest) in enumerate(continuations(economy, m), start=1):

        def checked(k):
            return payoff(cont, rest, k, 1)

        witness = period_witness(cont, rest, family, t, checked)
        if witness is not None:
            return witness
    return True


def _single(economy: Economy, m: DynamicMatching) -> tuple[str, ...]:
    """The period-1 agents ``m`` leaves single, in declaration order."""
    a1, b1 = _period_1(economy)
    return tuple(k for k in (*a1, *b1) if m.partner(k, 1) == k)


def _period_1(economy: Economy) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Period 1's side-A and side-B arrivals; none at horizon 0."""
    return economy.arrivals[0] if economy.horizon else ((), ())


def _canonical(matchings: Iterable[DynamicMatching]) -> tuple[DynamicMatching, ...]:
    return tuple(sorted(set(matchings), key=lambda m: m.periods))


def recursive_solution_set(
    economy: Economy, family: ConjectureFamily
) -> tuple[DynamicMatching, ...]:
    """The family's memoized :meth:`ConjectureFamily.solution_set`, by the
    name the benchmark imports.  Its oracle, an exhaustive filter sharing no
    code with the solver, is in ``tests/reference.py``."""
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

    def solved(cont: Economy) -> tuple[DynamicMatching, ...]:
        sols = family.solution_set(cont)
        if not sols:
            raise EmptyContinuationSolutions(
                f"no continuation solutions for the arrivals {cont.arrivals}"
            )
        return sols

    thr = family.thresholds_of(economy, conjectured)
    return family._stitched(economy, family._scan(economy, thr, thr), solved)


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
    does not conjecture m_star, as the family's
    :meth:`~ConjectureFamily.unconjectured_by` answers of each continuation.
    Within a period, agents come in the declaration order of ``economy``'s
    continuation.  Raises ValueError if m_star is not a matching of the
    economy, as :func:`is_phi_solution` does."""
    validate_matching(economy, m_star)
    return tuple(
        (t, k)
        for t, (cont, rest) in enumerate(continuations(economy, m_star), start=1)
        for k in family.unconjectured_by(cont, rest)
    )


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
