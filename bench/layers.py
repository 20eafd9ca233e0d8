"""Per-layer metrics derived from a Tracer, per round of a traced run.

The names follow the modules of src/dynmatch.  Counts and times are divided
by the number of traced rounds; ratios are taken over the whole run and are 0
when nothing was attempted.
"""

from __future__ import annotations

from workloads import CONCEPTS

CALLS = (
    "economy.profile_hash",
    "economy.payoff",
    "matching.enumerate",
    "matching.history",
    "matching.continuation",
    "matching.lift",
    "matching.restrict",
    "matching.defer",
    "statics.threshold",
    "statics.stable_set",
    "statics.induced",
    "statics.stability_among_matched",
    "framework.solution_set",
    "framework.conjecture_set",
    "framework.period_witness",
    "concepts.fixed_point",
)
SELF_S = (
    "economy.payoff",
    "matching.enumerate",
    "matching.history",
    "statics.threshold",
    "statics.stable_set",
    "statics.induced",
    "framework.conjecture_set",
    "framework.period_witness",
    "framework.candidates",
    "framework.consistency",
    "dsl.parse",
)
DERIVED = (
    ("matching.enumerate.matchings", "count"),
    ("framework.solution_set.misses", "count"),
    ("framework.phi.accept_ratio", "ratio"),
    ("framework.conjecture_set.misses", "count"),
    ("framework.conjecture_set.hit_ratio", "ratio"),
    ("framework.candidates.accept_ratio", "ratio"),
    ("framework.stable_cache.hit_ratio", "ratio"),
    ("concepts.fixed_point.rounds", "count"),
    ("cli.overhead_s", "s"),
)
# Measured by run.py from the untraced and traced runs, not from the trace.
RUN_LEVEL = (
    *((f"concepts.{c}.solve_s", "s") for c in CONCEPTS),
    ("raw.wall_s", "s"),
    ("raw.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)

UNITS = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF_S},
    **dict(DERIVED),
    **dict(RUN_LEVEL),
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(t, rounds):
    """Every trace-derived metric of UNITS, as plain numbers."""
    out = {f"{name}.calls": t.calls(name) / rounds for name in CALLS}
    out.update({f"{name}.self_s": t.self_s(name) / rounds for name in SELF_S})
    misses = t.calls("framework.root_conjectures")
    stable_misses = t.edge("framework.stable_cache", "statics.stable_set")[0]
    out.update(
        {
            "matching.enumerate.matchings": t.items("matching.enumerate") / rounds,
            "framework.solution_set.misses": t.edge(
                "framework.solution_set", "framework.phi"
            )[0]
            / rounds,
            "framework.phi.accept_ratio": _ratio(
                t.items("framework.phi"),
                t.edge("framework.phi", "matching.enumerate")[2],
            ),
            "framework.conjecture_set.misses": misses / rounds,
            "framework.conjecture_set.hit_ratio": _ratio(
                t.calls("framework.conjecture_set") - misses,
                t.calls("framework.conjecture_set"),
            ),
            "framework.candidates.accept_ratio": _ratio(
                t.items("framework.candidates"),
                t.edge("framework.candidates", "matching.enumerate")[2],
            ),
            "framework.stable_cache.hit_ratio": _ratio(
                t.calls("framework.stable_cache") - stable_misses,
                t.calls("framework.stable_cache"),
            ),
            "concepts.fixed_point.rounds": t.fixed_point_rounds / rounds,
            "cli.overhead_s": (
                t.total_s("cli.main") - t.edge("cli.main", "concepts.solve")[1]
            )
            / rounds,
        }
    )
    return out
