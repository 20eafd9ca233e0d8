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
they differ in the step.
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
from .statics import stability_among_matched


class REFamily(ConjectureFamily):
    """Conjectures of k = solutions of the economy where k arrives a period
    late (with a one-period horizon, where k is absent altogether)."""

    name = "re"
    _threshold_rule = AgreeFamily._threshold_rule

    def _conjectures(self, economy):
        # A matching of the deferred economy is literally a matching of the
        # base economy with k unmatched in period 1, and vice versa.
        a1, b1 = economy.arrivals[0]
        return {
            k: self.solution_set(defer_arrivals(economy, [k])) for k in (*a1, *b1)
        }


class DSFamily(AgreeFamily):
    """First period stable among those who match (thresholds 0),
    continuation recursively in the solution set."""

    name = "ds"

    def _conjectures(self, economy):
        # The period-1 test is cheap; it runs first so that rejected first
        # periods are never stitched.  It spares no continuation solve: on
        # the solve path, _solutions has stitched every first period already.
        return self._single_now(
            economy, lambda p1: stability_among_matched(economy, p1, {})
        )


class FixedPointFamily(ConjectureFamily):
    """Conjectures of all period-1 agents at once: the limit of iterating
    :meth:`_step` until an iterate repeats, from the :meth:`_conjectures`
    of the next class in the method resolution order (a concept lists its
    start rule's family after this one).  The limit is the family's
    conjecture sets and is cached with them; :meth:`iterates` recomputes
    the trace, agents in the asked economy's declaration order."""

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
        """``members`` filtered by the thresholds that ``current`` implies.
        The test reads only a member's first period, and agents' conjectures
        share first periods, so it runs once per distinct first period."""
        thr = self.thresholds_of(economy, current)
        firsts = {m.pairs_at(1) for ms in members.values() for m in ms}
        stable = {p1 for p1 in firsts if stability_among_matched(economy, p1, thr)}
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
        # One Jacobi round: candidates built from the previous iterate for
        # every agent at once.
        candidates = candidate_set(economy, current, self)
        return {
            k: _canonical(ms + tuple(m for m in candidates if m.partner(k, 1) == k))
            for k, ms in current.items()
        }


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
    solver's one memo of static scans.  Every cache lasts exactly as long as
    the solver, and repeated queries on one economy are cheap."""

    def __init__(self, empty_policy="vacuous", max_matchings=DEFAULT_MAX_MATCHINGS):
        config = (empty_policy, max_matchings, {})  # {}: the shared scan memo
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
