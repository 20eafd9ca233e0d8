"""The named solution concepts and the solver facade.

Each concept is a conjecture family; the family memoizes its own conjecture,
solution and candidate sets, each a first period stitched onto a solved
continuation (see :class:`~dynmatch.framework.ConjectureFamily`):

- ``stable``: myopic conjectures (nobody matches again), i.e. per-period
  individual rationality plus no blocking pair.
- ``agree``: conjectures constrained only to have solution continuations.
- ``re``: rational expectations — an agent's conjectures are the solutions
  of the economy in which that agent's own arrival is deferred one period.
- ``ds``: dynamic stability — conjectured first periods are stable among
  those who match (plain individual rationality), continuations recursively
  dynamically stable.
- ``cvr-ds``: dynamic stability with reservation values raised to each
  agent's own worst-conjecture continuation value, computed as a decreasing
  fixed point.
- ``sds``: sophisticated dynamic stability — deferred-arrival conjectures
  monotonically expanded with candidates that leave the owner unmatched,
  until the set is consistent.

``cvr-ds`` and ``sds`` share the iteration of :class:`FixedPointFamily`,
started, through the class order, from the rule of ``agree`` and of ``re``;
they differ in the step.  Every concept but ``stable`` subclasses
:class:`~dynmatch.framework.AgreeFamily` and inherits its last-period
thresholds and consistency answer and its solutions: one-sided periods
stitched straight from their continuation, other periods pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .economy import Economy
from .errors import DynmatchError, EmptyFixedPoint
from .framework import (
    AgreeFamily,
    BlockWitness,
    ConjectureFamily,
    StableFamily,
    _canonical,
    candidate_set,
    consistency_failures,
    is_phi_solution,
)
from .matching import DEFAULT_MAX_MATCHINGS, DynamicMatching, defer_arrivals


class REFamily(AgreeFamily):
    """Conjectures of k = solutions of the economy where k arrives a period
    late (with a one-period horizon, where k is absent altogether)."""

    name = "re"

    def _conjectures(self, economy):
        """k's set solves the economy where k arrives a period late (its
        matchings leave k single now).  A lone agent's is read, by the lemma
        of :meth:`AgreeFamily._solutions`, from one stitch both sides share."""
        a1, b1 = economy.arrivals[0]
        sets, lone = {}, None
        for k in (*a1, *b1):
            if (k,) not in (a1, b1):
                sets[k] = self.solution_set(defer_arrivals(economy, [k]))
                continue
            if lone is None:
                lone = self._stitched(economy, ((),), self.solution_set)
            sets[k] = lone
        return sets


class DSFamily(AgreeFamily):
    """First period stable among those who match (thresholds 0),
    continuation recursively in the solution set."""

    name = "ds"

    def _conjectures(self, economy):
        return self._single_now(economy, self._among_matched(economy, {}))


class FixedPointFamily(ConjectureFamily):
    """Conjectures of all period-1 agents at once: :meth:`_step` iterated
    from the :meth:`_conjectures` of the next class in the method resolution
    order (a concept lists its start rule's family after this one) until an
    iterate repeats.  One equal to the last is the limit, the family's
    conjecture sets, cached with them; one equal to an earlier iterate
    raises DynmatchError.  :meth:`iterates` recomputes the trace."""

    def _conjectures(self, economy):
        return self.fixed_point(economy)[0]

    def iterates(self, economy: Economy) -> tuple[dict, ...]:
        return self.fixed_point(economy)[1]

    def fixed_point(self, economy: Economy):
        """(limit, iterates), each iterate mapping agent -> matchings."""
        current = super()._conjectures(economy)
        trace = [current]
        while current:  # with no period-1 agent, {} is its own next iterate
            nxt = self._step(economy, current)
            if nxt == current:
                break
            if nxt in trace:
                cycle = len(trace) - trace.index(nxt)
                raise DynmatchError(f"conjecture iteration cycles every {cycle} steps")
            trace.append(nxt)
            current = nxt
        return current, tuple(trace)

    def _step(self, economy: Economy, current: dict) -> dict:
        raise NotImplementedError


class CVRFamily(FixedPointFamily, AgreeFamily):
    """Like ``ds`` but with thresholds equal to each matched agent's own
    worst-conjecture continuation value; computed as the limit of a
    decreasing iteration over all period-1 agents simultaneously."""

    name = "cvr-ds"

    def _refine(self, economy, current, members):
        """``members`` whose first period is stable among the agents it
        matches at the thresholds that ``current`` implies: one memoized
        scan of period 1 per threshold mapping, however many members share
        a first period."""
        thr = self.thresholds_of(economy, current)
        stable = set(self._among_matched(economy, thr))
        return {
            k: tuple(m for m in ms if m.pairs_at(1) in stable)
            for k, ms in members.items()
        }

    def _step(self, economy, current):
        return self._refine(economy, current, current)

    def fixed_point(self, economy):
        """The shared iteration; no limit set may be empty, and filtering the
        first iterate by the limit's own thresholds must give the limit."""
        limit, trace = super().fixed_point(economy)
        for k, ms in limit.items():
            if not ms:
                raise EmptyFixedPoint(
                    f"conjecture iteration for {k} converged to the empty set"
                )
        recomputed = self._refine(economy, limit, trace[0])
        for k in limit:
            if recomputed[k] != limit[k]:
                raise DynmatchError(
                    f"threshold fixed-point identity violated for {k}"
                )
        return limit, trace


class SDSFamily(FixedPointFamily, REFamily):
    """Deferred-arrival conjectures expanded, round by round, with the
    candidates (stable induced first period + solved continuation) that
    leave the owner unmatched; stops at the set-inclusion fixed point."""

    name = "sds"

    def _step(self, economy, current):
        """One Jacobi round: candidates built from ``current`` for every
        agent at once, each added to the sets of the agents it leaves single.
        ``current`` if period 1 is one-sided or has one agent a side, where
        a round adds nothing (:meth:`AgreeFamily._solutions`), unless a set
        is empty or :meth:`_idle` finds that building the candidates raises."""
        a1, b1 = economy.arrivals[0]
        if all(current.values()) and (not (a1 and b1) or self._idle(economy, current)):
            return current
        candidates = candidate_set(economy, current, self)
        return {
            k: _canonical(ms + tuple(m for m in candidates if m.partner(k, 1) == k))
            for k, ms in current.items()
        }

    def _idle(self, economy, current):
        """Would building a 1×1 period's candidates raise nothing?  Solving
        the pair's continuation raises here what it would raise there."""
        (a1, b1), cap = economy.arrivals[0], self.max_matchings
        if len(a1) + len(b1) > 2 or cap < 2:
            return False
        (a,), (b,) = a1, b1
        thr, u = self.thresholds_of(economy, current), economy.profile.utility
        if u(a, b) < thr[a] or u(b, a) < thr[b]:
            return True  # the only candidates are ∅ + S(C)
        paired = self.solution_set(self._next(economy, ((a, b),)))
        return 0 < len(paired) <= cap - len(current[a])


FAMILIES = {
    cls.name: cls
    for cls in (StableFamily, AgreeFamily, REFamily, DSFamily, CVRFamily, SDSFamily)
}
CONCEPT_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class SolveReport:
    """Everything one solver run established about an economy and concept."""

    concept: str
    empty_policy: str
    max_matchings: int
    solutions: tuple[DynamicMatching, ...]
    candidates: tuple[DynamicMatching, ...]
    # per candidate: (matching, consistency passed, (period, agent) failures)
    consistency: tuple[tuple[DynamicMatching, bool, tuple], ...]
    # per candidate outside the solution set: its first blocking witness
    witnesses: tuple[tuple[DynamicMatching, BlockWitness], ...]


class Solver:
    """One conjecture family per concept, each built with this configuration,
    which the family checks and keeps (reports copy it from there), and the
    solver's three memos, of static scans, payoff values and continuation
    economies, which its families share.  Every cache lasts exactly as long
    as the solver, and repeated queries on one economy are cheap."""

    def __init__(self, empty_policy="vacuous", max_matchings=DEFAULT_MAX_MATCHINGS):
        config = (empty_policy, max_matchings, {}, {}, {})  # the shared memos
        self._families = {name: cls(*config) for name, cls in FAMILIES.items()}

    def family(self, concept: str) -> ConjectureFamily:
        try:
            return self._families[concept]
        except KeyError:
            raise ValueError(
                f"unknown concept {concept!r}; expected one of {CONCEPT_NAMES}"
            ) from None

    def solution_set(self, concept: str, economy: Economy):
        return self.family(concept).solution_set(economy)

    def conjectures(self, concept: str, economy: Economy, k: str):
        return self.family(concept).conjecture_set(economy, k)

    def solve(self, concept: str, economy: Economy) -> SolveReport:
        family = self.family(concept)
        solutions = family.solution_set(economy)
        candidates = family.candidates(economy)
        consistency = tuple(
            (c, not fails, fails)
            for c in candidates
            for fails in (consistency_failures(economy, c, family),)
        )
        # The solution set is exactly the witness-free matchings.
        solved = set(solutions)
        witnesses = tuple(
            (c, is_phi_solution(economy, c, family))
            for c in candidates
            if c not in solved
        )
        return SolveReport(
            concept=concept,
            empty_policy=family.empty_policy,
            max_matchings=family.max_matchings,
            solutions=solutions,
            candidates=candidates,
            consistency=consistency,
            witnesses=witnesses,
        )
