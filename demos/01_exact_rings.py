"""Exact arithmetic: Laurent polynomials and the torus-class group ring.

Everything in fibersum is built on two sparse exact rings.  This script
walks through their arithmetic, exact division, the canonical text forms,
and the substitution map that carries knot polynomials into the group
ring.
"""

from fibersum import GroupRingElt, LaurentPoly, substitute_exp

# Laurent polynomials are dictionaries {exponent: coefficient}.
p = LaurentPoly({1: 1, 0: -1, -1: 1})  # t - 1 + t^-1
q = LaurentPoly({1: 1, 0: 1})          # t + 1

print("p          =", p)
print("q          =", q)
print("p + q      =", p + q)
print("p * q      =", p * q)
print("p squared  =", p * p)

# Division is exact or refuses: the ring has no floats and no rounding.
product = p * q
print("(p*q)/q    =", product.exact_div(q))
try:
    LaurentPoly({2: 1, 0: 1}).exact_div(q)
except Exception as exc:
    print("inexact    ->", type(exc).__name__, "-", exc)

# Units +-t^k are invisible to divisibility: shifting by t^3 changes nothing.
shifted = LaurentPoly({e + 3: c for e, c in q.terms.items()})
print("shifted div:", product.exact_div(shifted))

# The canonical text form round-trips through the parser.
text = str(p * p)
print("text form  =", text)
print("parsed back:", LaurentPoly.parse(text) == p * p)

# Group ring elements live over a named lattice of torus classes; a class
# is a {name: k} map, the integer combination sum(k * name).
fiber = GroupRingElt.exp({"T[1,3]": 1}) - GroupRingElt.exp({"T[1,3]": -1})
print("\nfiber factor         =", fiber)
print("fiber factor squared =", fiber * fiber)

# Substitution t^k -> exp(k * class) is a ring homomorphism; this is how
# a knot polynomial becomes a multiplicative contribution to a series.
print("p at exp(2*T[1,2])   =", substitute_exp(p, {"T[1,2]": 2}))

# Elements over different lattices merge their symbol tables on demand.
a = GroupRingElt.exp({"A": 1})
b = GroupRingElt.exp({"B": 2})
print("merged product       =", a * b, "over lattice", (a * b).lattice)
