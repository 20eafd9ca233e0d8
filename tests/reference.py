"""The solution concepts written from their definitions, sharing no code with
the solver: the oracle for its solution, candidate and conjecture sets.

It imports from ``dynmatch`` only data types and sentinels, and reads only
an economy's arrivals and its profile's discount factors and utilities.  It
has its own pair-set enumerator, its own enumerator of dynamic matchings,
continuation, deferral and payoff, and its own test of individual
rationality and blocking against thresholds.  It is brute force: every set
is a filter of every matching, meant for up to 3 periods and a few agents a
side.

A threshold may be a number or one of the solver's sentinels, which
:func:`stable_at` turns into float infinities, so no comparison goes through
the solver's ordering of them; :class:`Reference` writes an empty
conjecture set's threshold as a float infinity itself.  A pair set is a
frozenset of (side-A agent, side-B agent) pairs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from dynmatch.economy import Economy
from dynmatch.matching import DynamicMatching
from dynmatch.statics import NEG_INF, POS_INF

INF = float("inf")


def pair_sets(a_names, b_names):
    """Every set of disjoint pairs, each joining an agent of ``a_names`` to
    one of ``b_names``, the empty set included."""
    out = []
    for size in range(min(len(a_names), len(b_names)) + 1):
        for chosen_a in combinations(a_names, size):
            for chosen_b in permutations(b_names, size):
                out.append(frozenset(zip(chosen_a, chosen_b)))
    return out


def stable_at(economy, a_names, b_names, pairs, thresholds):
    """No agent of the market gets less from its partner than its threshold
    (``thresholds[k]``, 0 if missing), and no two of its agents, not paired
    together, both strictly prefer each other to what ``pairs`` gives them,
    a single agent getting its threshold."""
    u = economy.profile.utility
    partner = {}
    for a, b in pairs:
        partner[a], partner[b] = b, a

    def threshold(k):
        thr = thresholds.get(k, 0)
        return {NEG_INF: -INF, POS_INF: INF}.get(thr, thr)

    def value(k):
        return u(k, partner[k]) if k in partner else threshold(k)

    if any(value(k) < threshold(k) for k in partner):
        return False
    return not any(
        partner.get(a) != b and u(a, b) > value(a) and u(b, a) > value(b)
        for a in a_names
        for b in b_names
    )


def stable_at_zero(economy, a_names, b_names, pairs):
    return stable_at(economy, a_names, b_names, pairs, {})


def stable_among_matched(economy, pairs, thresholds):
    """``pairs`` is stable at ``thresholds`` in the market of exactly the
    agents it matches."""
    a_names, b_names = [a for a, _ in pairs], [b for _, b in pairs]
    return stable_at(economy, a_names, b_names, pairs, thresholds)


def stable_without(economy, k):
    """The pair sets of period 1 stable at thresholds 0 once k is removed."""
    a1, b1 = ([n for n in side if n != k] for side in economy.arrivals[0])
    return {p for p in pair_sets(a1, b1) if stable_at_zero(economy, a1, b1, p)}


def conjecture_sets(concept, economy):
    """k -> the pair sets of k's horizon-1 conjectures under ``concept``, in
    closed form: ``re``'s and ``sds``'s are the pair sets stable at 0 once k
    is removed (the lemma of ``AgreeFamily._threshold_rule``), where
    :class:`Reference` builds every set from the definitions at any horizon."""
    a1, b1 = economy.arrivals[0]
    everyone = pair_sets(a1, b1)

    def leaving_single(k):
        return {p for p in everyone if all(k not in pair for pair in p)}

    rules = {
        "stable": lambda k: {frozenset()},
        "agree": leaving_single,
        "ds": lambda k: {
            p for p in leaving_single(k) if stable_among_matched(economy, p, {})
        },
        "re": lambda k: stable_without(economy, k),
    }
    rules["cvr-ds"] = rules["ds"]
    rules["sds"] = rules["re"]
    return {k: rules[concept](k) for k in (*a1, *b1)}


# Markets of any horizon.  A market is an arrival schedule: one (side-A
# names, side-B names) pair per period, each sorted, so two schedules of the
# same arrivals are one market.  A matching is a tuple of cumulative pair
# sets, one per period, each a sorted tuple of pairs, as
# ``DynamicMatching.periods`` holds them.


def schedule(economy):
    return tuple((tuple(sorted(a)), tuple(sorted(b))) for a, b in economy.arrivals)


def dynamic_matchings(market):
    """Every matching of ``market``: in each period, any set of disjoint
    pairs among the agents arrived and still single joins the pairs formed
    before, which stay."""
    out = []

    def grow(t, free_a, free_b, formed):
        if t == len(market):
            out.append(formed)
            return
        free_a, free_b = free_a + market[t][0], free_b + market[t][1]
        before = formed[-1] if formed else ()
        for new in pair_sets(free_a, free_b):
            matched = {n for pair in new for n in pair}
            grow(
                t + 1,
                tuple(n for n in free_a if n not in matched),
                tuple(n for n in free_b if n not in matched),
                formed + (tuple(sorted((*before, *new))),),
            )

    grow(0, (), (), ())
    return out


def continuation(market, m, t):
    """The market from period t of m on, and m in it.  Its period 1 holds
    the agents available at t: arrived by t and single through t - 1.  The
    pairs formed before t are left out of m.  Past the last period this is
    the horizon-0 market and its one matching."""
    if t > len(market):
        return (), ()
    before = set(m[t - 2]) if t > 1 else set()
    taken = {n for pair in before for n in pair}

    def free(side):
        return tuple(sorted(n for p in market[:t] for n in p[side] if n not in taken))

    rest = tuple(tuple(p for p in pairs if p not in before) for pairs in m[t - 1 :])
    return ((free(0), free(1)), *market[t:]), rest


def defer(market, k):
    """``market`` with k, a period-1 arrival, arriving a period later; with
    a one-period horizon k has no later period and leaves."""
    first = tuple(tuple(n for n in names if n != k) for names in market[0])
    if len(market) == 1:
        return (first,)
    second = tuple(
        tuple(sorted((*names, k))) if k in market[0][side] else names
        for side, names in enumerate(market[1])
    )
    return (first, second, *market[2:])


def single_now(m, k):
    return all(k not in pair for pair in m[0])


class Reference:
    """Conjecture, solution and candidate sets of the markets of one
    economy, which share its profile.  A rule is a concept name or a
    conjecture family, whose sets are read through ``conjecture_sets`` only.
    An empty conjecture set gives its owner the threshold -inf under the
    ``vacuous`` policy and +inf under ``strict``: ``policy`` for a concept,
    the family's own for a family.  Every set is computed once."""

    def __init__(self, economy, policy="vacuous"):
        self.economy = economy
        self.policy = policy
        self.u = economy.profile.utility
        self.delta = dict(economy.profile.deltas)
        self.memo = {}

    def _once(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def payoff(self, m, k, t):
        """k's payoff from m seen from period t: delta_k ** (s - t) * u_k(p)
        at the first period s >= t in which k has a partner p, else 0."""
        for s in range(t, len(m) + 1):
            for a, b in m[s - 1]:
                if k in (a, b):
                    return self.delta[k] ** (s - t) * self.u(k, b if k == a else a)
        return 0

    def matchings(self, market):
        return self._once(("matchings", market), lambda: dynamic_matchings(market))

    def conjectures(self, rule, market):
        """Period-1 agent -> its conjectures, matchings of ``market``."""
        key = ("conjectures", rule, market)
        return self._once(key, lambda: self._rule(rule, market))

    def thresholds(self, rule, conjectured):
        """Each agent's worst period-1 payoff over its conjectures."""
        policy = rule.empty_policy if not isinstance(rule, str) else self.policy
        empty = -INF if policy == "vacuous" else INF
        return {
            k: min((self.payoff(m, k, 1) for m in ms), default=empty)
            for k, ms in conjectured.items()
        }

    def _thresholds_at(self, rule, market):
        return self._once(
            ("thresholds", rule, market),
            lambda: self.thresholds(rule, self.conjectures(rule, market)),
        )

    def _solutions(self, rule, market):
        return self._filtered("solutions", self._solves, rule, market)

    def _candidates(self, rule, market):
        return self._filtered("candidates", self._candidate, rule, market)

    def _filtered(self, kind, test, rule, market):
        """The matchings of ``market`` that pass ``test``, as a frozenset."""
        matchings = self.matchings(market)
        return self._once(
            (kind, rule, market),
            lambda: frozenset(m for m in matchings if test(rule, market, m)),
        )

    def _period(self, market, m, t):
        """The continuation at period t of m, m in it, and the payoff from
        period t of each agent available at t."""

        def compute():
            cont, rest = continuation(market, m, t)
            a_names, b_names = cont[0]
            return cont, rest, {k: self.payoff(m, k, t) for k in (*a_names, *b_names)}

        return self._once(("period", market, m, t), compute)

    def _solves(self, rule, market, m):
        """At every period t, each agent available at t gets at least its
        threshold in the continuation at t, and no two available agents both
        strictly prefer each other to their payoffs from m."""
        for t in range(1, len(market) + 1):
            cont, _, value = self._period(market, m, t)
            a_names, b_names = cont[0]
            thr = self._thresholds_at(rule, cont)
            if any(value[k] < thr[k] for k in value):
                return False
            for a in a_names:
                for b in b_names:
                    if self.u(a, b) > value[a] and self.u(b, a) > value[b]:
                        return False
        return True

    def _candidate(self, rule, market, m):
        """The pairs formed at every period t are stable among the agents
        available at t, at the thresholds of the continuation at t."""
        for t in range(1, len(market) + 1):
            cont, rest, _ = self._period(market, m, t)
            a_names, b_names = cont[0]
            thr = self._thresholds_at(rule, cont)
            if not stable_at(self.economy, a_names, b_names, rest[0], thr):
                return False
        return True

    def _continues(self, rule, market, m):
        """m's continuation at period 2 is a solution of its market."""
        cont, rest = continuation(market, m, 2)
        return rest in self._solutions(rule, cont)

    def _rule(self, rule, market):
        a1, b1 = market[0]
        agents = (*a1, *b1)
        if not isinstance(rule, str):
            economy = Economy(len(market), market, self.economy.profile)
            conjectured = rule.conjecture_sets(economy)
            return {k: [m.periods for m in ms] for k, ms in conjectured.items()}
        if rule == "stable":  # nobody ever matches again
            return {k: [((),) * len(market)] for k in agents}
        if rule in ("re", "sds"):  # the solutions of k's deferred arrival
            start = {k: self._solutions(rule, defer(market, k)) for k in agents}
            return start if rule == "re" else self._expand(market, start)
        # Any matching that leaves k single now and continues as a solution;
        # ds asks the first period to be stable among the agents it matches.
        start = {
            k: [
                m
                for m in self.matchings(market)
                if single_now(m, k)
                and self._continues(rule, market, m)
                and (rule != "ds" or stable_among_matched(self.economy, m[0], {}))
            ]
            for k in agents
        }
        return start if rule != "cvr-ds" else self._largest_respecting(market, start)

    def _largest_respecting(self, market, start):
        """cvr-ds: the largest sets C, within ``start``, such that C[k] holds
        exactly the matchings of start[k] whose first period is stable among
        the agents it matches at the thresholds that C gives: reached from
        ``start`` by applying that filter until nothing changes."""
        current = start
        while True:
            thr = self.thresholds("cvr-ds", current)
            kept = {
                k: [m for m in ms if stable_among_matched(self.economy, m[0], thr)]
                for k, ms in start.items()
            }
            if kept == current:
                return current
            current = kept

    def _expand(self, market, start):
        """sds: ``start`` grown, until nothing is added, by each candidate
        that leaves its owner single now: a first period stable among the
        period-1 agents at the current sets' thresholds, continued as a
        solution."""
        a1, b1 = market[0]
        current = {k: set(ms) for k, ms in start.items()}
        while True:
            thr = self.thresholds("sds", current)
            firsts = {
                p for p in pair_sets(a1, b1) if stable_at(self.economy, a1, b1, p, thr)
            }
            grown = {
                k: ms
                | {
                    m
                    for m in self.matchings(market)
                    if single_now(m, k)
                    and frozenset(m[0]) in firsts
                    and self._continues("sds", market, m)
                }
                for k, ms in current.items()
            }
            if grown == current:
                return current
            current = grown

    def solution_set(self, rule):
        """The economy's solutions under ``rule``, in canonical order."""
        return canonical(self._solutions(rule, schedule(self.economy)))

    def candidate_set(self, rule):
        return canonical(self._candidates(rule, schedule(self.economy)))

    def conjecture_sets(self, rule):
        """Period-1 agent -> its conjectures in the economy, canonical."""
        conjectured = self.conjectures(rule, schedule(self.economy))
        return {k: canonical(ms) for k, ms in conjectured.items()}


def canonical(matchings):
    return tuple(DynamicMatching(m) for m in sorted(set(matchings)))


def solution_set(economy, rule, policy="vacuous"):
    """The solutions of ``economy`` under a concept name (with ``policy``)
    or a family (with its own policy)."""
    return Reference(economy, policy).solution_set(rule)


def candidate_set(economy, rule, policy="vacuous"):
    return Reference(economy, policy).candidate_set(rule)
