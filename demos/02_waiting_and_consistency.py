"""Why dynamic markets are different: waiting, conjectures, consistency.

Loads the bundled two-period market ``example1`` in which agent a3 would
rather wait for b3 (who arrives in period 2) than take b2 now.  Whether a3
waits depends on what a3 *conjectures* happens after waiting — and the
headline matching turns out to be a solution that fails the consistency
check precisely at a3.  Run with
``python3 demos/02_waiting_and_consistency.py``.
"""

from dynmatch import Solver
from dynmatch.framework import check_generalized_consistency, consistency_failures
from dynmatch.matching import matching_text
from dynmatch.reproduce import EXAMPLE1_STAR, load_fixture

economy, _ = load_fixture("example1")
solver = Solver()

print("arrivals:", economy.arrivals)
print()

# Under rational-expectations conjectures, an agent who stays unmatched
# expects some solution of the market in which they arrive one period late.
solutions = solver.solution_set("re", economy)
print(f"{len(solutions)} self-confirming outcomes:")
for m in solutions:
    print("  ", matching_text(m))

print()
print("headline matching:", matching_text(EXAMPLE1_STAR))
print("is a solution:", EXAMPLE1_STAR in solutions)

# a3 is left unmatched in period 1 by the headline matching, yet a3's own
# conjectures never include it: the candidate is not self-consistent.
family = solver.family("re")
fails = consistency_failures(economy, EXAMPLE1_STAR, family)
print("consistency failures (period, agent):", fails)

conjectures_a3 = solver.conjectures("re", economy, "a3")
print(f"a3 conjectures {len(conjectures_a3)} matchings if it waits:")
for m in conjectures_a3:
    print("  ", matching_text(m))

verdict = check_generalized_consistency(economy, family)
print("generalized consistency for the whole concept:", verdict.passed)
