"""One-period conjecture sets written from the definitions, sharing no code
with the solver: an oracle for the horizon-1 rules of every concept.

It reads only ``economy.arrivals`` and ``economy.profile.utility`` and has
its own pair-set enumerator and its own test of individual rationality and
blocking, with thresholds 0: staying single is worth 0.  A pair set is a
frozenset of (side-A agent, side-B agent) pairs.
"""

from __future__ import annotations

from itertools import combinations, permutations


def pair_sets(a_names, b_names):
    """Every set of disjoint pairs, each joining an agent of ``a_names`` to
    one of ``b_names``, the empty set included."""
    out = []
    for size in range(min(len(a_names), len(b_names)) + 1):
        for chosen_a in combinations(a_names, size):
            for chosen_b in permutations(b_names, size):
                out.append(frozenset(zip(chosen_a, chosen_b)))
    return out


def stable_at_zero(economy, a_names, b_names, pairs):
    """No agent of the market prefers single (worth 0) to its partner, and no
    two of its agents, not paired together, both strictly prefer each other
    to what ``pairs`` gives them."""
    u = economy.profile.utility
    partner = {}
    for a, b in pairs:
        partner[a], partner[b] = b, a

    def value(k):
        return u(k, partner[k]) if k in partner else 0

    if any(value(k) < 0 for k in partner):
        return False
    return not any(
        partner.get(a) != b and u(a, b) > value(a) and u(b, a) > value(b)
        for a in a_names
        for b in b_names
    )


def stable_among_matched(economy, pairs):
    return stable_at_zero(economy, [a for a, _ in pairs], [b for _, b in pairs], pairs)


def stable_without(economy, k):
    """The pair sets of period 1 stable at thresholds 0 once k is removed."""
    a1, b1 = ([n for n in side if n != k] for side in economy.arrivals[0])
    return {p for p in pair_sets(a1, b1) if stable_at_zero(economy, a1, b1, p)}


def conjecture_sets(concept, economy):
    """k -> the pair sets of k's horizon-1 conjectures under ``concept``."""
    a1, b1 = economy.arrivals[0]
    everyone = pair_sets(a1, b1)

    def leaving_single(k):
        return {p for p in everyone if all(k not in pair for pair in p)}

    rules = {
        "stable": lambda k: {frozenset()},
        "agree": leaving_single,
        "ds": lambda k: {
            p for p in leaving_single(k) if stable_among_matched(economy, p)
        },
        "re": lambda k: stable_without(economy, k),
    }
    rules["cvr-ds"] = rules["ds"]
    rules["sds"] = rules["re"]
    return {k: rules[concept](k) for k in (*a1, *b1)}
