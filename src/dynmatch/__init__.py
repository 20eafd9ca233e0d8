"""Exact solver for two-sided, one-to-one, irreversible dynamic matching
markets: payoffs, enumeration, static stability, conjecture-based solution
concepts, candidate construction, and consistency checking."""

from .concepts import CONCEPT_NAMES, Solver, SolveReport
from .dsl import load, parse, serialize, validate_ordinal
from .economy import Economy, PreferenceProfile, build_economy, payoff
from .framework import (
    BlockWitness,
    check_consistency,
    check_generalized_consistency,
    is_phi_solution,
    recursive_solution_set,
)
from .matching import (
    DynamicMatching,
    enumerate_matchings,
    matching_text,
    parse_matching_text,
)
from .statics import StaticEconomy, deferred_acceptance, stable_set

__all__ = [
    "BlockWitness",
    "CONCEPT_NAMES",
    "DynamicMatching",
    "Economy",
    "PreferenceProfile",
    "SolveReport",
    "Solver",
    "StaticEconomy",
    "build_economy",
    "check_consistency",
    "check_generalized_consistency",
    "deferred_acceptance",
    "enumerate_matchings",
    "is_phi_solution",
    "load",
    "matching_text",
    "parse",
    "parse_matching_text",
    "payoff",
    "recursive_solution_set",
    "serialize",
    "stable_set",
    "validate_ordinal",
]
