"""Exact arithmetic for the two rings everything else sits on.

LaurentPoly is Z[t, t^-1] stored sparsely as {exponent: coefficient}.
GroupRingElt is the integral group ring of a free abelian group whose
generators are named torus classes; an element stores its symbol table
(the "lattice", a sorted tuple of names) and a sparse map from integer
exponent vectors to coefficients.  FactoredSeries is a product of
one-variable Laurent polynomials in independent named classes, the form
the Seiberg-Witten gluing rules produce; it expands to a GroupRingElt on
request.

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

_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?(?:t(?:\^(-?\d+))?)$")


class LaurentPoly:
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

    def is_zero(self) -> bool:
        return not self.terms

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

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are only defined for units")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"LaurentPoly({self})"

    # ---------------------------------------------------------- text form

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of str(); accepts '2t^-1', '2*t', 't - 1 + t^-1', '0'."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        out: dict[int, int] = {}
        # Split on + and - that are not part of an exponent ("t^-2").
        for sign, body in _split_poly_terms(s):
            if re.fullmatch(r"\d+", body):
                e, c = 0, int(body)
            else:
                m = _TERM_RE.match(body)
                if not m:
                    raise ValueError(f"bad polynomial term: {body!r}")
                c = int(m.group(1)) if m.group(1) else 1
                e = int(m.group(2)) if m.group(2) else 1
            out[e] = out.get(e, 0) + sign * c
        return cls(out)


def _split_poly_terms(s: str):
    """Split 'a - b + c' into (sign, body) pairs, keeping the sign of an
    exponent ('t^-2') attached to its term."""
    out = []
    sign = 1
    buf: list[str] = []
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch in "+-" and buf and "".join(buf).rstrip()[-1:] != "^":
            body = "".join(buf).strip()
            if not body:
                raise ValueError(f"dangling sign in {s!r}")
            out.append((sign, body))
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        i += 1
    body = "".join(buf).strip()
    if not body:
        raise ValueError(f"dangling sign in {s!r}")
    out.append((sign, body))
    return out


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


def _monomial_text(lattice, vec) -> str:
    pieces = []
    for name, k in zip(lattice, vec):
        if k == 0:
            continue
        body = name if abs(k) == 1 else f"{abs(k)}*{name}"
        if not pieces:
            pieces.append(body if k > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if k > 0 else f"- {body}")
    return " ".join(pieces)


class GroupRingElt:
    """Element of the integral group ring over a lattice of torus classes.

    A term maps an exponent vector v to a coefficient c and denotes
    c * exp(sum v_i * class_i).  Adding group elements multiplies the
    exponentials, so ring multiplication convolves over vector addition.
    """

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice=(), terms=None):
        lattice = tuple(lattice)
        clean: dict[tuple[int, ...], int] = {}
        for vec, c in (terms or {}).items():
            vec = tuple(vec)
            if len(vec) != len(lattice):
                raise ValueError("exponent vector does not fit the lattice")
            if c != 0:
                clean[vec] = c
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

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, cv: ClassVector) -> int:
        lattice, map_s, map_v = _merge_lattices(self.lattice, cv.lattice)
        size = len(lattice)
        target = _relocate(cv.coords, map_v, size)
        for vec, c in self.terms.items():
            if _relocate(vec, map_s, size) == target:
                return c
        return 0

    def constant_coeff(self) -> int:
        zero = (0,) * len(self.lattice)
        return self.terms.get(zero, 0)

    def support(self):
        """Nonzero exponent vectors as ClassVectors, in descending
        lexicographic order (canonical term order)."""
        zero = (0,) * len(self.lattice)
        return tuple(
            ClassVector(self.lattice, vec)
            for vec in sorted(self.terms, reverse=True)
            if vec != zero
        )

    def pruned(self) -> "GroupRingElt":
        """Drop lattice symbols that no term touches (canonical form)."""
        if not self.terms:
            return GroupRingElt.zero()
        used = [i for i in range(len(self.lattice)) if any(v[i] for v in self.terms)]
        lattice = tuple(self.lattice[i] for i in used)
        terms = {tuple(vec[i] for i in used): c for vec, c in self.terms.items()}
        return GroupRingElt(lattice, terms)

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

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are only defined for units")
        result = GroupRingElt.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        canon = self.pruned()
        return hash((canon.lattice, tuple(sorted(canon.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"GroupRingElt({self})"

    # ---------------------------------------------------------- text form

    def __str__(self):
        return _series_text(
            (_monomial_text(self.lattice, vec), self.terms[vec])
            for vec in sorted(self.terms, reverse=True)
        )

    @classmethod
    def parse(cls, text: str) -> "GroupRingElt":
        """Inverse of str() on canonical output."""
        s = text.strip()
        if not s:
            raise ValueError("empty group ring text")
        if s == "0":
            return cls.zero()
        names: set[str] = set()
        parsed = []
        for sign, body in _split_signed_terms(s):
            m = re.fullmatch(r"(?:(\d+)\*)?exp\((.*)\)", body)
            if m:
                coeff = sign * (int(m.group(1)) if m.group(1) else 1)
                inner = m.group(2).strip()
                vec: dict[str, int] = {}
                for isign, ibody in _split_signed_terms(inner):
                    im = re.fullmatch(r"(?:(\d+)\*)?(\S+)", ibody)
                    if not im:
                        raise ValueError(f"bad exponent term: {ibody!r}")
                    k = isign * (int(im.group(1)) if im.group(1) else 1)
                    name = im.group(2)
                    vec[name] = vec.get(name, 0) + k
                names.update(vec)
                parsed.append((coeff, vec))
            elif re.fullmatch(r"\d+", body):
                parsed.append((sign * int(body), {}))
            else:
                raise ValueError(f"bad group ring term: {body!r}")
        lattice = tuple(sorted(names))
        pos = {n: i for i, n in enumerate(lattice)}
        terms: dict[tuple[int, ...], int] = {}
        for coeff, vec in parsed:
            key = [0] * len(lattice)
            for name, k in vec.items():
                key[pos[name]] = k
            key = tuple(key)
            terms[key] = terms.get(key, 0) + coeff
        return cls(lattice, terms)


def _series_text(terms) -> str:
    """Canonical text of a series from (monomial text, coefficient) pairs
    in descending order; an empty monomial is the constant term."""
    parts = []
    for mono, c in terms:
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = f"exp({mono})"
        else:
            body = f"{abs(c)}*exp({mono})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _split_signed_terms(s: str):
    """Split 'a - b + c' into (sign, body) pairs at top level (no parens
    nesting deeper than one exp(...) occurs in canonical output)."""
    out = []
    depth = 0
    sign = 1
    buf = []
    i = 0
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            body = "".join(buf).strip()
            if not body:
                raise ValueError(f"dangling sign in {s!r}")
            out.append((sign, body))
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        i += 1
    body = "".join(buf).strip()
    if not body:
        raise ValueError(f"dangling sign in {s!r}")
    out.append((sign, body))
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
    """Product of one-variable Laurent polynomials in independent classes.

    factors maps a torus class name to a LaurentPoly in t = exp(class);
    the product of all of them is the series, and the zero series has
    factors None.  Since the variables are independent, nothing cancels:
    the terms are the Cartesian product of the factors' terms, so counts,
    order and text are all read off the factors without expanding.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: dict[str, LaurentPoly] | None):
        if factors is not None and any(f.is_zero() for f in factors.values()):
            factors = None
        self.factors = factors

    @classmethod
    def zero(cls) -> "FactoredSeries":
        return cls(None)

    @classmethod
    def one(cls) -> "FactoredSeries":
        return cls({})

    def is_zero(self) -> bool:
        return self.factors is None

    def times(self, name: str, poly: LaurentPoly) -> "FactoredSeries":
        """This series multiplied by poly(exp(name))."""
        return self * FactoredSeries({name: poly})

    def __mul__(self, other: "FactoredSeries") -> "FactoredSeries":
        """Factors on the same class multiply; the others are kept."""
        if not isinstance(other, FactoredSeries):
            return NotImplemented
        if self.factors is None or other.factors is None:
            return FactoredSeries.zero()
        factors = dict(self.factors)
        for name, poly in other.factors.items():
            factors[name] = factors[name] * poly if name in factors else poly
        return FactoredSeries(factors)

    @property
    def lattice(self) -> tuple[str, ...]:
        """Names of the non-constant factors, sorted: the lattice of the
        pruned expansion."""
        if self.factors is None:
            return ()
        return tuple(
            sorted(n for n, f in self.factors.items() if any(f.terms.keys() - {0}))
        )

    def constant_coeff(self) -> int:
        if self.factors is None:
            return 0
        out = 1
        for f in self.factors.values():
            out *= f.coeff(0)
        return out

    def _scalar(self) -> int:
        """Product of the constant factors."""
        lattice = set(self.lattice)
        out = 1
        for name, f in self.factors.items():
            if name not in lattice:
                out *= f.coeff(0)
        return out

    def sorted_terms(self, descending: bool = False):
        """(exponent vector over self.lattice, coefficient) for every term,
        in lexicographic order."""
        if self.factors is None:
            return
        scalar = self._scalar()
        exponents = [
            sorted(self.factors[n].terms, reverse=descending) for n in self.lattice
        ]
        coeffs = [
            [self.factors[n].terms[e] for e in exps]
            for n, exps in zip(self.lattice, exponents)
        ]
        for vec, cs in zip(itertools.product(*exponents), itertools.product(*coeffs)):
            yield vec, scalar * math.prod(cs)

    def expand(self) -> GroupRingElt:
        """The dense group ring element, over the pruned lattice."""
        return GroupRingElt(self.lattice, dict(self.sorted_terms()))

    def __str__(self):
        """Same text as str() of the expansion, built term by term with
        each monomial's text shared by all terms that extend it."""
        if self.factors is None:
            return "0"
        terms = [("", self._scalar())]
        for name in self.lattice:
            f = self.factors[name]
            steps = []
            for e in sorted(f.terms, reverse=True):
                body = name if abs(e) == 1 else f"{abs(e)}*{name}"
                first = body if e > 0 else f"-{body}"
                later = f"+ {body}" if e > 0 else f"- {body}"
                steps.append((e, f.terms[e], first, later))
            terms = [
                (mono if not e else f"{mono} {later}" if mono else first, coeff * c)
                for mono, coeff in terms
                for e, c, first, later in steps
            ]
        return _series_text(terms)

    def __eq__(self, other):
        if isinstance(other, FactoredSeries):
            other = other.expand()
        elif not isinstance(other, (GroupRingElt, int)):
            return NotImplemented
        return self.expand() == other

    def __hash__(self):
        return hash(self.expand())

    def __bool__(self):
        return self.factors is not None

    def __repr__(self):
        return f"FactoredSeries({self.factors!r})"
