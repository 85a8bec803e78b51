"""Exact arithmetic for the two rings everything else sits on.

LaurentPoly is Z[t, t^-1] stored sparsely as {exponent: coefficient}.
GroupRingElt is the integral group ring of a free abelian group whose
generators are named torus classes; an element stores its symbol table
(the "lattice", the sorted tuple of the names its terms use) and a sparse
map from integer exponent vectors to coefficients.  FactoredSeries is an
integer times a product of primitive non-constant one-variable Laurent
polynomials in independent named classes, the form the Seiberg-Witten
gluing rules produce; it expands to a GroupRingElt on request.  Both
series types are canonical from construction, so equality and hashing
read their fields, and equal values hash alike across the two types.

Each type prints one canonical text, a FactoredSeries that of its
expansion, written from the factors without expanding.  Every term is
first written in the form it takes after the first (' + x', ' - 2*x'),
and one rule, _first, rewrites the leading one.  product_terms lists the
terms of a product of factors, and block_text writes the terms that share
a prefix as one str.join of the prefix text into a template; the series
writer here and the report's pairs writer (cli) are built from the two.
LaurentPoly.parse and GroupRingElt.parse read it back through
one signed-term reader, by the writers' grammar plus the lenient
spellings their docstrings list, and raise ValueError on anything else.
NAME is the class-name rule of that text; manifolds.Block admits exactly
the torus names it matches.

All three types are immutable by convention: every operation returns a fresh
value and nothing mutates shared state, so values can be shared freely
across threads.  Coefficients are Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import NotDivisible


class _SparseRing:
    """The operations both sparse rings derive from their terms map and
    their own +, unary -, *, one() and _coerce."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are only defined for units")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(_SparseRing):
    """Integer Laurent polynomial in one variable t.

    terms maps exponent -> nonzero coefficient; the zero polynomial is the
    empty map.  Zero coefficients are pruned on construction so equality is
    plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # ---------------------------------------------------------- builders

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls({1: 1})

    # ---------------------------------------------------------- queries

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    @property
    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def coeff(self, exponent: int) -> int:
        return self.terms.get(exponent, 0)

    def evaluate_unit(self, value: int) -> int:
        """Evaluate at t = value for value in {1, -1} (the only integer
        units, so the result stays in Z)."""
        if value == 1:
            return sum(self.terms.values())
        if value == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self.terms.items())
        raise ValueError("only t = 1 or t = -1 keeps the value integral")

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[t, t^-1].

        Returns q with self = q * other, raising NotDivisible when no such
        q exists and ZeroDivisionError on a zero divisor.  Divisibility in
        the Laurent ring ignores units +-t^k, which the valuation shift
        below absorbs.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        va, vb = self.valuation, other.valuation
        da, db = self.degree - va, other.degree - vb
        if da < db:
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        rem = [0] * (da + 1)
        for e, c in self.terms.items():
            rem[e - va] = c
        den = [0] * (db + 1)
        for e, c in other.terms.items():
            den[e - vb] = c
        lead = den[db]
        quot = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[db + k]
            if c % lead != 0:
                raise NotDivisible(f"({self}) is not divisible by ({other})")
            q = c // lead
            quot[k] = q
            if q:
                for j in range(db + 1):
                    rem[j + k] -= q * den[j]
        if any(rem):
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        shift = va - vb
        return LaurentPoly({k + shift: c for k, c in enumerate(quot) if c})

    def reverse(self) -> "LaurentPoly":
        """The substitution t -> t^-1."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    # ---------------------------------------------------------- protocol

    @staticmethod
    def _coerce(value):
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({0: value})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """A constant hashes as its int, which it equals."""
        if self.terms.keys() <= {0}:
            return hash(self.coeff(0))
        return hash(tuple(sorted(self.terms.items())))

    # ---------------------------------------------------------- text form

    def __str__(self):
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            parts.append(f" + {body}" if c > 0 else f" - {body}")
        return _joined_terms(parts)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of str().  Reads signed terms: an integer 'c', or
        'ct^e' where c and '^e' may be left out (each then reads 1) and
        c may be followed by '*'.  Spaces may stand around signs and '*',
        and the first term may carry '+': '2t^-1', '2*t - 3 + 2*t^-1',
        't - 1 + t^-1' and '0' all parse.  A term after the first needs
        its own sign and '^' its exponent right after it, so '1 -',
        '- -1', '2 3', '*t' and 't^ -2' raise ValueError, as does the
        empty text."""
        out: dict[int, int] = {}
        for sign, m in _signed_terms(text, _POLY_TERM):
            if m["k"] is not None:
                e, c = 0, int(m["k"])
            else:
                e, c = int(m["e"] or 1), int(m["c"] or 1)
            out[e] = out.get(e, 0) + sign * c
        return cls(out)


@dataclass(frozen=True)
class ClassVector:
    """An integer homology class written in a named free abelian lattice."""

    lattice: tuple[str, ...]
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.lattice) != len(self.coords):
            raise ValueError("coordinate length must match the symbol table")

    @classmethod
    def from_items(cls, items: dict[str, int]) -> "ClassVector":
        names = tuple(sorted(items))
        return cls(names, tuple(items[n] for n in names))

    def scaled(self, k: int) -> "ClassVector":
        return ClassVector(self.lattice, tuple(k * x for x in self.coords))

    def __neg__(self):
        return self.scaled(-1)

    def items(self):
        return tuple(zip(self.lattice, self.coords))

    def __str__(self):
        return _monomial_text(self.lattice, self.coords) or "0"


def _merge_lattices(a: tuple[str, ...], b: tuple[str, ...]):
    """Union of two symbol tables plus index maps into the union.

    Names are globally unique strings, so the merge is a plain sorted
    union and never fails.
    """
    union = tuple(sorted(set(a) | set(b)))
    pos = {name: i for i, name in enumerate(union)}
    map_a = tuple(pos[name] for name in a)
    map_b = tuple(pos[name] for name in b)
    return union, map_a, map_b


def _relocate(vec, index_map, size):
    out = [0] * size
    for i, x in enumerate(vec):
        out[index_map[i]] = x
    return tuple(out)


# A class name as the series text writes it, bare inside exp(...): it holds
# no whitespace, sign, product sign, parenthesis or caret, so the reader
# finds where it ends.  Block admits exactly these torus names.
NAME = re.compile(r"[^\s+\-*()^]+")


def _class_term(name: str, k: int) -> str:
    """k * name in the form of a term after the first: ' + A', ' - 2*A';
    the empty string for k = 0."""
    if not k:
        return ""
    body = name if abs(k) == 1 else f"{abs(k)}*{name}"
    return f" + {body}" if k > 0 else f" - {body}"


def _monomial_text(lattice, vec) -> str:
    """'A - 2*B' for the vector (1, -2) over ('A', 'B'); the empty string
    for the zero vector."""
    text = "".join(map(_class_term, lattice, vec))
    return _first(text) if text else ""


class GroupRingElt(_SparseRing):
    """Element of the integral group ring over a lattice of torus classes.

    A term maps an exponent vector v to a coefficient c and denotes
    c * exp(sum v_i * class_i).  Adding group elements multiplies the
    exponentials, so ring multiplication convolves over vector addition.
    The constructor drops zero coefficients and keeps only the lattice
    names that some term uses, in sorted order, so each element has one
    form and equality compares the fields.
    """

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice=(), terms=None):
        lattice = tuple(lattice)
        if len(set(lattice)) != len(lattice):
            raise ValueError(f"lattice names repeat: {lattice}")
        clean: dict[tuple[int, ...], int] = {}
        for vec, c in (terms or {}).items():
            vec = tuple(vec)
            if len(vec) != len(lattice):
                raise ValueError("exponent vector does not fit the lattice")
            if c != 0:
                clean[vec] = c
        used = sorted(
            (name, i) for i, name in enumerate(lattice) if any(v[i] for v in clean)
        )
        order = [i for _, i in used]
        if order != list(range(len(lattice))):
            lattice = tuple(name for name, _ in used)
            clean = {tuple(v[i] for i in order): c for v, c in clean.items()}
        self.lattice = lattice
        self.terms = clean

    # ---------------------------------------------------------- builders

    @classmethod
    def zero(cls) -> "GroupRingElt":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElt":
        return cls((), {(): 1})

    @classmethod
    def constant(cls, c: int) -> "GroupRingElt":
        return cls((), {(): c})

    @classmethod
    def exp(cls, cv: ClassVector, coeff: int = 1) -> "GroupRingElt":
        """coeff * exp(cv)."""
        return cls(cv.lattice, {cv.coords: coeff})

    # ---------------------------------------------------------- queries

    def constant_coeff(self) -> int:
        zero = (0,) * len(self.lattice)
        return self.terms.get(zero, 0)

    def sorted_terms(self):
        """(exponent vector, coefficient) for every term, in ascending
        lexicographic order."""
        return sorted(self.terms.items())

    # ---------------------------------------------------------- arithmetic

    def _aligned(self, other):
        lattice, map_a, map_b = _merge_lattices(self.lattice, other.lattice)
        size = len(lattice)
        a = {_relocate(v, map_a, size): c for v, c in self.terms.items()}
        b = {_relocate(v, map_b, size): c for v, c in other.terms.items()}
        return lattice, a, b

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lattice, a, b = self._aligned(other)
        for vec, c in b.items():
            a[vec] = a.get(vec, 0) + c
        return GroupRingElt(lattice, a)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElt(self.lattice, {v: -c for v, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lattice, a, b = self._aligned(other)
        out: dict[tuple[int, ...], int] = {}
        for v1, c1 in a.items():
            for v2, c2 in b.items():
                key = tuple(x + y for x, y in zip(v1, v2))
                out[key] = out.get(key, 0) + c1 * c2
        return GroupRingElt(lattice, out)

    __rmul__ = __mul__

    def conjugate(self) -> "GroupRingElt":
        """The involution exp(K) -> exp(-K) on every term."""
        return GroupRingElt(
            self.lattice,
            {tuple(-x for x in vec): c for vec, c in self.terms.items()},
        )

    # ---------------------------------------------------------- protocol

    @staticmethod
    def _coerce(value):
        if isinstance(value, GroupRingElt):
            return value
        if isinstance(value, int):
            return GroupRingElt.constant(value)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        """The hash FactoredSeries shares (see there).  A constant has the
        empty lattice and hashes as its int, which it equals."""
        if not self.lattice:
            return hash(self.constant_coeff())
        return hash((self.lattice, len(self.terms), self.constant_coeff()))

    # ---------------------------------------------------------- text form

    def __str__(self):
        heads = _Heads()
        return _joined_terms(
            [
                heads.term("".join(map(_class_term, self.lattice, vec)), c)
                for vec, c in sorted(self.terms.items(), reverse=True)
            ]
        )

    @classmethod
    def parse(cls, text: str) -> "GroupRingElt":
        """Inverse of str().  Reads signed terms 'c', 'exp(x)' and
        'c*exp(x)', where x is signed class terms 'N' or 'k*N' and N is a
        class name (see NAME); spaces around signs and an optional leading
        '+' are allowed, and '0' is the zero series.  A term after the
        first needs its own sign, so 'exp(T1)exp(T2)', 'exp(A B)' and
        'exp(T1 - -T2)' raise ValueError, as do a name outside NAME
        ('exp(A(B)', 'exp(A^2)'), an empty 'exp()' and the empty text."""
        read = []
        for sign, m in _signed_terms(text, _SERIES_TERM):
            vec: dict[str, int] = {}
            if m["k"] is not None:
                coeff = int(m["k"])
            else:
                coeff = int(m["c"] or 1)
                for k_sign, km in _signed_terms(m["v"], _CLASS_TERM):
                    name = km["n"]
                    vec[name] = vec.get(name, 0) + k_sign * int(km["c"] or 1)
            read.append((sign * coeff, vec))
        lattice = tuple(sorted({name for _, vec in read for name in vec}))
        terms: dict[tuple[int, ...], int] = {}
        for coeff, vec in read:
            key = tuple(vec.get(name, 0) for name in lattice)
            terms[key] = terms.get(key, 0) + coeff
        return cls(lattice, terms)


class _Heads(dict):
    """Coefficient -> the text of a term up to its monomial, in the form
    of a term after the first: ' + exp(', ' - 2*exp('.  Each text is
    rendered once, on first lookup."""

    def __missing__(self, c):
        body = "exp(" if abs(c) == 1 else f"{abs(c)}*exp("
        head = self[c] = f" + {body}" if c > 0 else f" - {body}"
        return head

    def ends(self, c: int) -> tuple[str, str]:
        """(open, close) of the term of coefficient c, for block_text."""
        return self[c], ")"

    def term(self, tail: str, c: int) -> str:
        """The term c * exp(tail), tail in the form of a term after the
        first (' + A - 2*B'); the constant term c when tail is empty."""
        if not tail:
            return f" + {c}" if c > 0 else f" - {-c}"
        return f"{self[c]}{_first(tail)})"


def _first(text: str) -> str:
    """Rewrite text that starts in the form of a term after the first as
    the first term: _first(' + A - B') == 'A - B', _first(' - A') == '-A'."""
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def _joined_terms(parts: list[str]) -> str:
    """Join term texts written in the form of a term after the first
    (' + x', ' - x'), rewriting the first one by _first; '0' for none."""
    if not parts:
        return "0"
    parts[0] = _first(parts[0])
    return "".join(parts)


def product_terms(axes, scalar: int) -> list[tuple[str, int, int]]:
    """(text, coefficient, sign of the first nonzero exponent) for each
    term of scalar times the product of axes, in the order of the axes.

    axes holds, for each factor, its steps (exponent, coefficient, text)
    in the order wanted; the text of a term is its steps' texts in axis
    order.
    """
    terms = [("", scalar, 0)]
    for steps in axes:
        terms = [
            (f"{text}{step}", k * c, sign or (e > 0) - (e < 0))
            for text, k, sign in terms
            for e, c, step in steps
        ]
    return terms


def block_text(text: str, k: int, rest, ends, sep: str, templates) -> str:
    """The terms of one prefix, of text and coefficient k, times each
    (tail, c, _) of rest, joined by sep: the term of coefficient m = k * c
    is open, text, tail and close, where (open, close) = ends(m).

    templates maps k to the terms with text left out, built on first use,
    so a block is one str.join of text into its template.
    """
    template = templates.get(k)
    if template is None:
        texts = [(tail, *ends(k * c)) for tail, c, _ in rest]  # tail, open, close
        template = templates[k] = [
            texts[0][1],
            *[
                f"{tail}{close}{sep}{following}"
                for (tail, _, close), (_, following, _) in zip(texts, texts[1:])
            ],
            f"{texts[-1][0]}{texts[-1][2]}",
        ]
    return text.join(template)


def _term_pattern(term: str) -> re.Pattern:
    return re.compile(rf"\s*([+-]?)\s*(?:{term})\s*")


_POLY_TERM = _term_pattern(
    r"(?:(?P<c>\d+)\s*\*?\s*)?t(?:\^(?P<e>-?\d+))?|(?P<k>\d+)"
)
_SERIES_TERM = _term_pattern(r"(?:(?P<c>\d+)\*)?exp\((?P<v>[^()]*)\)|(?P<k>\d+)")
_CLASS_TERM = _term_pattern(rf"(?:(?P<c>\d+)\*)?(?P<n>{NAME.pattern})")


def _signed_terms(text: str, term: re.Pattern):
    """(sign, match) for each term of text, read left to right by term:
    optional whitespace, an optional sign, one term, optional whitespace.
    Raise ValueError where no term matches, at the start of the text too,
    and on a term after the first that has no sign."""
    out = []
    pos = 0
    while True:
        m = term.match(text, pos)
        if m is None or (out and not m[1]):
            raise ValueError(f"bad term at {pos}: {text[pos:pos + 30]!r}")
        out.append((-1 if m[1] == "-" else 1, m))
        pos = m.end()
        if pos == len(text):
            return out


def substitute_exp(p: LaurentPoly, cv: ClassVector) -> GroupRingElt:
    """Map a Laurent polynomial into the group ring by t^k -> exp(k * cv).

    This is a ring homomorphism Z[t, t^-1] -> Z[lattice]; callers use it
    with cv = twice a torus class.
    """
    out = GroupRingElt.zero()
    for e, c in p.terms.items():
        out = out + GroupRingElt.exp(cv.scaled(e), c)
    return out


class FactoredSeries:
    """An integer scalar times a product of primitive non-constant
    one-variable Laurent polynomials in independent classes.

    factors maps a torus class name to a LaurentPoly in t = exp(class)
    with a term of nonzero exponent, in sorted name order; lattice is the
    tuple of those names, the lattice of the expansion.  The constructor
    folds every constant factor into scalar, and a zero factor makes
    scalar 0 and drops all factors, so the zero series is scalar 0.  It
    divides every other factor by its content (the gcd of its
    coefficients), signed so that f(1) > 0, or the leading coefficient
    when f(1) = 0, and multiplies scalar by that.  A product of primitive
    polynomials is primitive (Gauss's lemma) and the variables are
    independent, so this form is unique: equality compares the fields.
    Nothing cancels either: the terms are the Cartesian product of the
    factors' terms, so counts, order and text are all read off the
    factors without expanding.
    """

    __slots__ = ("factors", "scalar", "lattice")

    def __init__(self, factors: dict[str, LaurentPoly], scalar: int = 1):
        kept = {}
        for name in sorted(factors):
            f = factors[name]
            if f.terms.keys() - {0}:
                content = math.gcd(*f.terms.values())
                if (f.evaluate_unit(1) or f.terms[f.degree]) < 0:
                    content = -content
                if content != 1:
                    f = LaurentPoly({e: c // content for e, c in f.terms.items()})
                kept[name] = f
                scalar *= content
            else:
                scalar *= f.coeff(0)
        self.factors = kept if scalar else {}
        self.scalar = scalar
        self.lattice = tuple(self.factors)

    @classmethod
    def zero(cls) -> "FactoredSeries":
        return cls({}, 0)

    @classmethod
    def one(cls) -> "FactoredSeries":
        return cls({})

    def is_zero(self) -> bool:
        return not self.scalar

    def times(self, name: str, poly: LaurentPoly) -> "FactoredSeries":
        """This series multiplied by poly(exp(name))."""
        return self * FactoredSeries({name: poly})

    def __mul__(self, other: "FactoredSeries") -> "FactoredSeries":
        """Factors on the same class multiply; the others are kept."""
        if not isinstance(other, FactoredSeries):
            return NotImplemented
        factors = dict(self.factors)
        for name, poly in other.factors.items():
            factors[name] = factors[name] * poly if name in factors else poly
        return FactoredSeries(factors, self.scalar * other.scalar)

    def constant_coeff(self) -> int:
        return self.scalar * math.prod(f.coeff(0) for f in self.factors.values())

    def term_count(self) -> int:
        """Number of terms of the expansion: the product of the factors'
        support sizes."""
        if not self.scalar:
            return 0
        return math.prod(len(f.terms) for f in self.factors.values())

    def sorted_terms(self):
        """(exponent vector over self.lattice, coefficient) for every term,
        in ascending lexicographic order."""
        if not self.scalar:
            return
        exponents = [sorted(f.terms) for f in self.factors.values()]
        coeffs = [
            [f.terms[e] for e in exps]
            for f, exps in zip(self.factors.values(), exponents)
        ]
        for vec, cs in zip(itertools.product(*exponents), itertools.product(*coeffs)):
            yield vec, self.scalar * math.prod(cs)

    def expand(self) -> GroupRingElt:
        """The dense group ring element, over the same lattice."""
        return GroupRingElt(self.lattice, dict(self.sorted_terms()))

    def __str__(self):
        """Same text as str() of the expansion, written from the factors
        without expanding.  Each exponent's text is rendered once, in the
        form it takes after the first (' + A', ' - 2*A').  The terms over
        the first half of the factors are the prefixes: each prefix with
        a nonzero exponent is one block_text over the terms of the second
        half, and the zero prefix writes those terms one by one."""
        if not self.scalar:
            return "0"
        axes = [
            [(e, c, _class_term(name, e)) for e, c in sorted(f.terms.items(), reverse=True)]
            for name, f in self.factors.items()
        ]
        half = (len(axes) + 1) // 2
        rest = product_terms(axes[half:], 1)
        heads = _Heads()
        templates: dict[int, list[str]] = {}
        parts = []
        for text, k, sign in product_terms(axes[:half], self.scalar):
            if sign:
                parts.append(block_text(_first(text), k, rest, heads.ends, "", templates))
            else:
                parts += [heads.term(text + tail, k * c) for tail, c, _ in rest]
        return _joined_terms(parts)

    def __eq__(self, other):
        """Fields against a FactoredSeries; against a GroupRingElt or an
        int, the expansion, only when the hashes agree."""
        if isinstance(other, FactoredSeries):
            return self.scalar == other.scalar and self.factors == other.factors
        other = GroupRingElt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return hash(self) == hash(other) and self.expand() == other

    def __hash__(self):
        """hash((lattice, term count, constant coefficient)), read off the
        factors: the same as the expansion's GroupRingElt hash.  With no
        factors the series is the int scalar and hashes as it."""
        if not self.lattice:
            return hash(self.scalar)
        return hash((self.lattice, self.term_count(), self.constant_coeff()))

    def __bool__(self):
        return bool(self.scalar)

    def __repr__(self):
        return f"FactoredSeries({self.factors!r}, {self.scalar!r})"
