"""The headline phenomenon: families of homotopy equivalent manifolds
that all become diffeomorphic after one stabilization, yet are pairwise
distinguished by their Seiberg-Witten fingerprints.

Varying the knots surgered into a fixed chain never moves the
characteristic numbers (one homotopy type), and the one-stabilization
normal form erases every surgery (one stable diffeomorphism type).  The
invariant fingerprints still separate the members.
"""

from fibersum import (
    BraidWord,
    distinguish,
    family_generate,
    family_report,
    fingerprint,
    homotopy_equivalent,
    null_log_transform,
    one_stabilization_equivalent,
    stable_normal_form,
    fiber_sum_chain,
)
from fibersum.cli import normal_form_text

unknot = BraidWord(1, ())
trefoil = BraidWord(2, (1, 1, 1))
fig8 = BraidWord(3, (1, -2, 1, -2))

members = family_generate(2, {"T[1,2]": [unknot, trefoil, fig8]})
labels = ["unknot", "trefoil", "figure-eight"]

print("family: chain of two K3s, one knot slot at T[1,2]\n")
for label, member in zip(labels, members):
    fp = fingerprint(member)
    print(f"  {label:>12}: count={fp.count:<3} rank={fp.rank} "
          f"coeffs={list(fp.coeff_multiset)} a0={fp.a0}")

print("\npairwise verdicts:")
for i in range(len(members)):
    for j in range(i + 1, len(members)):
        print(
            f"  {labels[i]:>12} vs {labels[j]:<12} "
            f"homotopy={homotopy_equivalent(members[i], members[j])} "
            f"one_stab={one_stabilization_equivalent(members[i], members[j])} "
            f"SW={distinguish(members[i], members[j])}"
        )

print("\nnormal forms after one stabilization:")
for label, member in zip(labels, members):
    print(f"  {label:>12}: {normal_form_text(*stable_normal_form(member))}")

# A geometrically null log transform is likewise invisible after one
# stabilization: the transformed chain has the same normal form.
chain = fiber_sum_chain(2)
transformed = null_log_transform(chain, "T[2,2]")
print("\nlog transform vs original:",
      "one_stab =", one_stabilization_equivalent(chain, transformed))

# The full machine-readable report (members + pairwise matrix).
report = family_report(members)
print("\nreport members:", len(report["members"]),
      "| pairwise entries:", len(report["pairwise"]))
print("first pairwise entry:", report["pairwise"][0])
