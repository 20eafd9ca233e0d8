"""One-period conjecture sets written from the definitions, sharing no code
with the solver: an oracle for the horizon-1 rules of every concept.

It reads only ``economy.arrivals`` and ``economy.profile.utility`` and has
its own pair-set enumerator and its own test of individual rationality and
blocking against thresholds: staying single is worth an agent's threshold,
0 unless a mapping names another.  A threshold may be a number or one of the
solver's sentinels, which the test turns into float infinities, so no
comparison goes through the solver's ordering of them.  A pair set is a
frozenset of (side-A agent, side-B agent) pairs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from dynmatch.statics import NEG_INF, POS_INF


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
        return {NEG_INF: float("-inf"), POS_INF: float("inf")}.get(thr, thr)

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
    """k -> the pair sets of k's horizon-1 conjectures under ``concept``."""
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
