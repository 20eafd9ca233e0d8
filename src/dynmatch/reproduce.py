"""Named reference markets and the exact claims the solver must reproduce.

Each runner returns a tuple of (label, passed, detail) triples; the CLI's
``reproduce`` subcommand prints them and the test suite asserts them.
"""

from __future__ import annotations

from importlib import resources

from .concepts import Solver
from .dsl import EconomyDocument, load
from .economy import Economy
from .framework import check_generalized_consistency
from .matching import DynamicMatching, defer_arrivals
from .statics import StaticEconomy, deferred_acceptance, stable_set

Claim = tuple[str, bool, str]

FIXTURE_NAMES = ("example1", "example2")


def fixture_text(name: str) -> str:
    return (
        resources.files("dynmatch.fixtures").joinpath(f"{name}.econ").read_text()
    )


def load_fixture(name: str) -> tuple[Economy, EconomyDocument]:
    return load(fixture_text(name))


# The matchings discussed alongside the fixtures, by formation period.
EXAMPLE1_STAR = DynamicMatching.from_formed(
    [[("a1", "b1"), ("a2", "b2")], [("a3", "b3"), ("a4", "b4")]]
)
EXAMPLE1_CONJ_A2 = DynamicMatching.from_formed(
    [[("a1", "b1")], [("a2", "b2"), ("a3", "b3"), ("a4", "b4")]]
)
EXAMPLE1_CONJ_B1 = DynamicMatching.from_formed(
    [[("a3", "b2")], [("a1", "b1"), ("a2", "b4"), ("a4", "b3")]]
)
EXAMPLE2_LEFT = DynamicMatching.from_formed(
    [[("a2", "b2")], [("a1", "b3"), ("a3", "b1"), ("a4", "b4")]]
)
EXAMPLE2_CENTER = DynamicMatching.from_formed(
    [[("a1", "b1")], [("a2", "b2"), ("a3", "b4"), ("a4", "b3")]]
)
EXAMPLE2_RIGHT = DynamicMatching.from_formed(
    [[], [("a1", "b3"), ("a2", "b4"), ("a3", "b1"), ("a4", "b2")]]
)


def run_example1(solver: Solver | None = None) -> tuple[Claim, ...]:
    solver = solver or Solver()
    economy, _ = load_fixture("example1")
    claims: list[Claim] = []

    # (a) the static market over all eight agents has one stable matching.
    everyone = StaticEconomy(
        economy, ("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4")
    )
    expected = (("a1", "b2"), ("a2", "b4"), ("a3", "b3"), ("a4", "b1"))
    got = stable_set(everyone)
    claims.append(
        (
            "static market over all eight agents has the unique stable "
            "matching a1-b2 a2-b4 a3-b3 a4-b1",
            got == (expected,),
            f"stable set: {list(got)}",
        )
    )

    # (b) the two side-A proposing deferred-acceptance runs.
    da1 = deferred_acceptance(
        StaticEconomy(economy, ("a2", "a3", "a4"), ("b1", "b3", "b4")), "A"
    )
    da2 = deferred_acceptance(
        StaticEconomy(economy, ("a1", "a3", "a4"), ("b1", "b3", "b4")), "A"
    )
    claims.append(
        (
            "A-proposing deferred acceptance among a2,a3,a4 x b1,b3,b4 "
            "yields a2-b4 a3-b3 a4-b1",
            da1 == (("a2", "b4"), ("a3", "b3"), ("a4", "b1")),
            f"got {da1}",
        )
    )
    claims.append(
        (
            "A-proposing deferred acceptance among a1,a3,a4 x b1,b3,b4 "
            "yields a1-b4 a3-b3 a4-b1",
            da2 == (("a1", "b4"), ("a3", "b3"), ("a4", "b1")),
            f"got {da2}",
        )
    )

    # (c) the dissuading conjectures are solutions of the deferred markets.
    conj_a2 = solver.conjectures("re", economy, "a2")
    conj_b1 = solver.conjectures("re", economy, "b1")
    claims.append(
        (
            "the conjectured matching for a2 survives when a2 arrives late",
            EXAMPLE1_CONJ_A2 in conj_a2,
            f"a2 has {len(conj_a2)} conjectures",
        )
    )
    claims.append(
        (
            "the conjectured matching for b1 survives when b1 arrives late",
            EXAMPLE1_CONJ_B1 in conj_b1,
            f"b1 has {len(conj_b1)} conjectures",
        )
    )

    # (d) deferring both a3 and b1: b1 always ends up with a4.
    deferred_both = defer_arrivals(economy, ["a3", "b1"])
    sols = solver.solution_set("re", deferred_both)
    claims.append(
        (
            "with a3 and b1 arriving late, b1 is matched to a4 in every "
            "self-confirming outcome",
            bool(sols) and all(m.final_partner("b1") == "a4" for m in sols),
            f"{len(sols)} outcomes",
        )
    )

    # (e) the headline matching is both a candidate and a solution.
    report = solver.solve("re", economy)
    claims.append(
        (
            "the headline matching is a candidate and a solution under "
            "deferred-arrival conjectures",
            EXAMPLE1_STAR in report.candidates and EXAMPLE1_STAR in report.solutions,
            f"{len(report.candidates)} candidates, {len(report.solutions)} solutions",
        )
    )

    # (f) consistency fails exactly at (period 1, a3); the generalized
    # condition fails for the whole concept.
    fails = next((f for m, _, f in report.consistency if m == EXAMPLE1_STAR), None)
    gc = check_generalized_consistency(economy, solver.family("re"))
    claims.append(
        (
            "consistency fails exactly for a3 at period 1, and generalized "
            "consistency fails",
            fails == ((1, "a3"),) and not gc.passed,
            f"failures {fails}, generalized passed={gc.passed}",
        )
    )
    return tuple(claims)


def run_example2(solver: Solver | None = None) -> tuple[Claim, ...]:
    solver = solver or Solver()
    economy, _ = load_fixture("example2")
    claims: list[Claim] = []

    ds = solver.solution_set("ds", economy)
    claims.append(
        (
            "the early-exit matching (a2-b2 first) is dynamically stable",
            EXAMPLE2_LEFT in ds,
            f"{len(ds)} dynamically stable matchings",
        )
    )

    ds_conj = solver.conjectures("ds", economy, "a2")
    cvr_conj = solver.conjectures("cvr-ds", economy, "a2")
    claims.append(
        (
            "the dissuading matching for a2 is a plain conjecture but not a "
            "continuation-value-respecting one",
            EXAMPLE2_CENTER in ds_conj and EXAMPLE2_CENTER not in cvr_conj,
            f"a2: {len(ds_conj)} plain vs {len(cvr_conj)} value-respecting",
        )
    )

    cvr = solver.solution_set("cvr-ds", economy)
    claims.append(
        (
            "the early-exit matching is not value-respecting stable; the "
            "all-wait matching is, and the refinement is a strict subset",
            EXAMPLE2_LEFT not in cvr
            and EXAMPLE2_RIGHT in cvr
            and set(cvr) < set(ds),
            f"{len(cvr)} of {len(ds)} survive the refinement",
        )
    )
    return tuple(claims)


RUNNERS = {"example1": run_example1, "example2": run_example2}
