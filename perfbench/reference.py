"""Expected outputs for the benchmark, computed without fibersum.

Nothing here imports the package under test.  Expected values come from
three independent sources:

* a frozen knot table (Alexander polynomials in the symmetric
  normalization, value 1 at t = 1, as printed in standard knot tables);
* the closed form of the Seiberg-Witten fingerprint of a surgered K3
  chain: every torus class carries exactly one one-variable factor, so
  the series is a product over independent variables and its basic-class
  data can be read off the factors;
* the characteristic numbers of a chain of n K3 copies (chi = 24n,
  sigma = -16n) and its one-stabilization normal form (4n CP2, 20n CP2bar).

The module also writes construction documents in the CLI's JSON grammar.
"""

from __future__ import annotations

import re
from collections import Counter

# name -> (strands, braid word, Alexander polynomial {exponent: coefficient})
KNOT_TABLE = {
    "3_1": (2, (1, 1, 1), {1: 1, 0: -1, -1: 1}),
    "4_1": (3, (1, -2, 1, -2), {1: -1, 0: 3, -1: -1}),
    "5_1": (2, (1,) * 5, {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}),
    "5_2": (3, (1, 1, 1, 2, -1, 2), {1: 2, 0: -3, -1: 2}),
    "6_1": (4, (1, 1, 2, -1, -3, 2, -3), {1: -2, 0: 5, -1: -2}),
    "6_2": (3, (1, 1, 1, -2, 1, -2), {2: -1, 1: 3, 0: -3, -1: 3, -2: -1}),
    "6_3": (3, (1, 1, -2, 1, -2, -2), {2: 1, 1: -3, 0: 5, -1: -3, -2: 1}),
    "7_1": (2, (1,) * 7, {3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1}),
    "8_19": (3, (1, 2) * 4, {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}),
}

# Genus-one knots: three-term polynomials, so surgered_chain(n) has
# exactly 3^(2n+1) series terms whichever of them is chosen.
GENUS_ONE = ("3_1", "4_1", "5_2", "6_1")

# (exp(T) - exp(-T))^2 as a polynomial in t = exp(T).
FIBER_FACTOR = {2: 1, 0: -2, -2: 1}


# ------------------------------------------------------------------ braids


def closure_is_knot(strands: int, word) -> bool:
    """True when the strand permutation of the braid is one cycle."""
    position = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    seen, i, length = set(), 0, 0
    while i not in seen:
        seen.add(i)
        i = position[i]
        length += 1
    return length == strands


def conjugated(word, conjugator) -> tuple[int, ...]:
    """g w g^-1; the closure, hence the knot, is unchanged."""
    inverse = tuple(-x for x in reversed(conjugator))
    return tuple(conjugator) + tuple(word) + inverse


# ------------------------------------------------------------- polynomials

_TERM = re.compile(r"(\d*)(?:(t)(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> dict[int, int]:
    """Read the package's polynomial text, e.g. 't^2 - 3t + 5 - 3t^-1'."""
    tokens = text.strip().split(" ")
    terms: dict[int, int] = {}
    sign = 1
    for token in tokens:
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        match = _TERM.fullmatch(token)
        if not match or not token:
            raise ValueError(f"bad polynomial term {token!r} in {text!r}")
        digits, var, exponent = match.groups()
        coeff = int(digits) if digits else 1
        e = (int(exponent) if exponent else 1) if var else 0
        terms[e] = terms.get(e, 0) + sign * coeff
        sign = 1
    return {e: c for e, c in terms.items() if c}


def alexander_shape_error(poly: dict[int, int]) -> str | None:
    """None if poly is symmetric with value 1 at t = 1, as every
    normalized Alexander polynomial of a knot is."""
    if any(poly.get(-e) != c for e, c in poly.items()):
        return "not symmetric"
    if sum(poly.values()) != 1:
        return "value at t=1 is not 1"
    return None


# ------------------------------------------------------------ fingerprints


def fingerprint(factors) -> tuple[int, int, tuple[int, ...], int]:
    """(count, rank, coefficient multiset, a0) of a product of one-variable
    Laurent polynomials in independent torus classes.

    count = prod |supp f_i| - [a0 != 0]; rank = number of non-constant
    factors; a0 = product of constant terms; the multiset lists |coeff| of
    one class per +-K pair, which for a symmetric series is every other
    entry of the sorted list over all nonzero classes.
    """
    states = Counter({(True, 1): 1})  # (exponent vector is zero, coefficient)
    total, rank, a0 = 1, 0, 1
    for f in factors:
        total *= len(f)
        rank += any(e != 0 for e in f)
        a0 *= f.get(0, 0)
        grown: Counter = Counter()
        for (zero, coeff), mult in states.items():
            for e, c in f.items():
                grown[(zero and e == 0, coeff * c)] += mult
        states = grown
    nonzero = sorted(
        abs(coeff) for (zero, coeff), mult in states.items() if not zero
        for _ in range(mult)
    )
    return total - (a0 != 0), rank, tuple(nonzero[::2]), a0


def chain_factors(n: int, surgeries: dict[str, str]) -> dict[str, dict[int, int]]:
    """Torus class -> one-variable factor for a chain of n K3 copies with
    knot surgeries {torus: knot name}.  Each glued class T[a,3], a < n,
    carries the squared fiber-sum factor; a surgered torus carries
    Delta_K(t^2), whose coefficients are those of Delta_K."""
    factors = {f"T[{a},3]": FIBER_FACTOR for a in range(1, n)}
    for torus, knot in surgeries.items():
        factors[torus] = {2 * e: c for e, c in KNOT_TABLE[knot][2].items()}
    return factors


def fingerprint_json(fp) -> dict:
    count, rank, coeffs, a0 = fp
    return {"count": count, "rank": rank, "coeffs": list(coeffs), "a0": a0}


# ------------------------------------------------------------ text outputs


def invariants_text(n: int) -> str:
    """Characteristic numbers of any chain of n K3 copies with surgeries."""
    return (
        f"chi={24 * n} sigma={-16 * n} b2+={4 * n - 1} b2-={20 * n - 1} "
        "parity=even\n"
    )


def stabilize_text(n: int) -> str:
    return f"#{4 * n} CP2 # {20 * n} CP2bar\n"


def compare_text(distinct: bool) -> str:
    return f"homotopy:true distinct:{str(distinct).lower()} one_stab:true\n"


# --------------------------------------------------------------- documents


def braid_doc(strands: int, word) -> dict:
    return {"strands": strands, "word": list(word)}


def chain_doc(n: int) -> dict:
    """Primitive document of fiber_sum_chain(n): copy a is glued along
    T[a,3] to copy a+1 along T[a+1,1], nested to the left."""
    doc = _k3(1)
    for a in range(1, n):
        doc = {"fsum": {"left": doc, "lt": f"T[{a},3]", "right": _k3(a + 1), "rt": f"T[{a + 1},1]"}}
    return doc


def _k3(copy: int) -> dict:
    return {"block": "K3", "tori": [f"T[{copy},{i}]" for i in (1, 2, 3)]}


def surgered_doc(base: dict, surgeries) -> dict:
    """Wrap base in knot surgeries [(torus, braid document)], in order."""
    for torus, braid in surgeries:
        base = {"surgery": {"on": base, "torus": torus, "braid": braid}}
    return base


def chain_surgeries(n: int, mid, first, last) -> list:
    """Surgery order of surgered_chain: T[a,2] for each a, T[1,1], T[n,3]."""
    return [(f"T[{a},2]", b) for a, b in enumerate(mid, start=1)] + [
        ("T[1,1]", first),
        (f"T[{n},3]", last),
    ]


def y_doc(n: int, mid, first, last) -> dict:
    return {"Y": {"N": n, "mid": list(mid), "first": first, "last": last}}
