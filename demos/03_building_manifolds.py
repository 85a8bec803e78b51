"""Building 4-manifolds: blocks, fiber sums, surgeries, and their
characteristic numbers.

Construction trees are immutable values.  The K3 block carries three
square-zero tori; fiber sums consume two tori and unify their classes;
knot surgery and log transforms keep the homotopy type fixed, which is
why whole families of constructions share one set of numbers.
"""

import json

from fibersum import (
    BraidWord,
    available_tori,
    block,
    char_numbers,
    connected_sum,
    fiber_sum,
    fiber_sum_chain,
    knot_surgery,
    null_log_transform,
    surgered_chain,
    torus_records,
)
from fibersum.cli import construction_to_doc


def show(label, c):
    cn = char_numbers(c)
    print(
        f"{label:<28} chi={cn.chi:<4} sigma={cn.sigma:<5} "
        f"b2+={cn.b2_plus:<3} b2-={cn.b2_minus:<3} parity={cn.parity}"
    )


k3 = block("K3")
show("K3", k3)
print("  tori:", ", ".join(available_tori(k3)))

show("K3 # S2twS2", connected_sum(k3, block("S2twS2")))
show("CP2 # CP2bar", connected_sum(block("CP2"), block("CP2bar")))

# A fiber sum of two K3 copies along tori: chi and sigma add, the glued
# tori are consumed, and their homology class survives under one name.
pair = fiber_sum(block("K3", copy=1), "T[1,3]", block("K3", copy=2), "T[2,1]")
show("(K3,T[1,3]) # (K3,T[2,1])", pair)
print("  tree:", json.dumps(construction_to_doc(pair)))
consumed = [n for n, r in torus_records(pair).items() if r.status == "consumed"]
print("  consumed tori:", ", ".join(sorted(consumed)))
print("  available tori:", ", ".join(available_tori(pair)))

# Chains of n copies: chi = 24n, sigma = -16n, and n + 2 free tori.
print()
for n in (1, 2, 3, 5, 8):
    chain = fiber_sum_chain(n)
    show(f"chain of {n} K3s", chain)
    print(f"  {len(available_tori(chain))} available tori")

# Knot surgery and null log transforms leave all the numbers alone.
trefoil = BraidWord(2, (1, 1, 1))
unknot = BraidWord(1, ())
y = surgered_chain(2, [trefoil, unknot], unknot, trefoil)
show("\nsurgered chain (N=2)", y)
print("  equal numbers as bare chain:", char_numbers(y) == char_numbers(fiber_sum_chain(2)))

transformed = null_log_transform(fiber_sum_chain(2), "T[1,2]")
show("after null log transform", transformed)

# Surgery on a consumed torus is refused.
try:
    knot_surgery(fiber_sum_chain(2), "T[1,3]", trefoil)
except Exception as exc:
    print("\nsurgery on consumed torus ->", type(exc).__name__, "-", exc)
