"""A first look: one period, three agents per side.

Builds a small static market with exact rational utilities, enumerates
every stable matching, and compares with deferred acceptance from each
side.  Run with ``python3 demos/01_static_market.py``.
"""

from fractions import Fraction

from dynmatch import build_economy
from dynmatch.statics import StaticEconomy, deferred_acceptance, stable_set

a_side = ("a1", "a2", "a3")
b_side = ("b1", "b2", "b3")

# Everyone arrives at once; a one-period market is just a marriage market.
economy = build_economy(
    horizon=1,
    arrivals=[(a_side, b_side)],
    deltas={name: Fraction(9, 10) for name in a_side + b_side},
    utilities={
        # a1 and a2 both like b1 best; b1 disagrees with one of them.
        ("a1", "b1"): Fraction(3),
        ("a1", "b2"): Fraction(2),
        ("a2", "b1"): Fraction(3),
        ("a2", "b3"): Fraction(1),
        ("a3", "b3"): Fraction(2),
        ("b1", "a2"): Fraction(2),
        ("b1", "a1"): Fraction(1),
        ("b2", "a1"): Fraction(1),
        ("b3", "a3"): Fraction(2),
        ("b3", "a2"): Fraction(1),
    },
)

# A static market is a view of one period.  No thresholds are given, so
# staying single is worth 0 to everyone.
market = StaticEconomy(economy, a_side, b_side)

print("stable matchings (exhaustive enumeration):")
for pairs in stable_set(market):
    print("  ", " ".join(f"{a}-{b}" for a, b in pairs) or "(everyone single)")

print("proposing side A:", deferred_acceptance(market, "A"))
print("proposing side B:", deferred_acceptance(market, "B"))
