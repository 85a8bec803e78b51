"""Seiberg-Witten series: gluing rules, basic-class reports, and the two
fiber-sum factor conventions.

Three rules drive the engine: the K3 block contributes 1, each fiber sum
multiplies by (exp(T) - exp(-T))^2 over the unified class T, and each
knot surgery multiplies by the knot's Alexander polynomial evaluated at
exp(2T).  Each rule multiplies by a polynomial in one class, so the
engine keeps one factor per class and reads the report off the factors;
the dense group-ring element is expanded only when asked for.
"""

from fibersum import (
    BraidWord,
    GroupRingElt,
    basic_classes,
    block,
    char_numbers,
    check_conjugation_symmetry,
    connected_sum,
    fiber_class_factor,
    fiber_sum_chain,
    fingerprint,
    knot_surgery,
    sw_factors,
    sw_first_power_formula,
    sw_report,
    sw_series,
    surgered_chain,
)

trefoil = BraidWord(2, (1, 1, 1))
fig8 = BraidWord(3, (1, -2, 1, -2))
unknot = BraidWord(1, ())

print("SW(K3)                =", sw_series(block("K3")))
print("SW(chain of 2)        =", sw_series(fiber_sum_chain(2)))
print("SW(chain of 3)        =", sw_series(fiber_sum_chain(3)))

surgered = knot_surgery(block("K3"), "T2", trefoil)
print("SW(K3 + trefoil @ T2) =", sw_series(surgered))

# One trefoil and one figure-eight on the chain of two.
y = surgered_chain(2, [trefoil, fig8], unknot, unknot)
series = sw_series(y)
print("\nSW of a surgered chain (N=2, trefoil and figure-eight):")
print(" ", series)

report = basic_classes(series, char_numbers(y))
print("  a0 =", report.a0)
print("  basic classes:", report.count, "| rank:", report.rank,
      "| coefficient multiset:", list(report.coeff_multiset))
for cv, coeff in report.basic_pairs:
    print(f"    {str(cv):<28} coefficient {coeff}")
print("  conjugation-symmetric:",
      check_conjugation_symmetry(series, char_numbers(y)))

# The same series as the engine keeps it: one polynomial in t = exp(T)
# per torus class.  A fingerprint needs only these factors, so a chain
# whose expansion has 3^13 = 1,594,323 terms is fingerprinted at once.
print("\nfactors (t = exp(class)):")
for name, factor in sorted(sw_factors(y).factors.items()):
    print(f"  {name:<8} {factor}")
big = surgered_chain(6, [trefoil] * 6, trefoil, trefoil)
fp = fingerprint(big)
print(f"fingerprint of a 6-chain of trefoils: count={fp.count} rank={fp.rank} a0={fp.a0}")

# Stabilizing kills the invariant: the series of X # S2twS2 is zero.
stabilized = connected_sum(y, block("S2twS2"))
print("\nSW after one stabilization =", sw_series(stabilized))

# Two conventions for the fiber-sum factor exist: the engine squares it
# (iterating the gluing rule forces that); the first-power closed form is
# also implemented.  Their exact ratio is the product of the bare factors.
n = 3
unknots = [unknot] * n
engine = sw_series(surgered_chain(n, unknots, unknot, unknot))
printed = sw_first_power_formula(n, unknots, unknot, unknot)
ratio = GroupRingElt.one()
for alpha in range(1, n):
    ratio = ratio * fiber_class_factor(f"T[{alpha},3]")
print("\nengine (N=3, unknots)      =", engine)
print("first-power formula        =", printed)
print("engine == formula * ratio  :", engine == printed * ratio)
