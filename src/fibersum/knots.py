"""Braid words, knot closures, and the normalized Alexander polynomial.

Two independent routes compute the same invariant:

* ``alexander`` multiplies reduced Burau matrices over Z[t, t^-1], takes
  det(B - I), divides out the weight factor 1 + t + ... + t^(n-1), and
  normalizes.
* ``alexander_oracle`` builds a Seifert matrix directly from braid-band
  linking numbers and returns det(V - t V^T), normalized the same way.
  Its cycles are listed left to right along the braid, and at most n - 1
  of them span any point of the word, so V's nonzero entries lie near the
  diagonal.

Both routes take their determinant with ``linalg.laurent_det``, which
substitutes t = 2^B into the Laurent matrix, takes one lazy integer
Bareiss determinant and reads the coefficients back as signed base-2^B
digits.  B comes from a Hadamard-type bound: no coefficient of the
determinant exceeds prod_r sqrt(sum_c ||p_rc||_1^2), so the digits never
overlap.  The lazy Bareiss skips the rows whose leading entry is 0, so the
oracle's cost follows the band of V, not its full size.  The routes share
only that determinant and polynomial arithmetic.

Both are exact; the test suite insists they agree on every knot they are
handed.  Normalization fixes the symmetric representative with value 1 at
t = 1, which quotients out all unit and mirror ambiguities, so any globally
consistent sign convention below produces the same answers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import NotAKnot, TooFewStrands
from .linalg import laurent_det
from .ring import LaurentPoly


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers; letter L with 1 <= |L| <= strands - 1
    stands for the generator sigma_|L| (inverse when negative).
    """

    strands: int
    word: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "word", tuple(self.word))
        for letter in self.word:
            if letter == 0 or abs(letter) >= self.strands:
                raise ValueError(
                    f"letter {letter} is not a generator on {self.strands} strands"
                )

    # ---------------------------------------------------------- closure

    def permutation(self) -> tuple[int, ...]:
        """Where each strand ends: entry i (0-based) is the final position
        of the strand starting at position i."""
        position = list(range(self.strands))
        for letter in self.word:
            i = abs(letter) - 1
            position[i], position[i + 1] = position[i + 1], position[i]
        ends = [0] * self.strands
        for final_pos, strand in enumerate(position):
            ends[strand] = final_pos
        return tuple(ends)

    # ---------------------------------------------------------- moves

    def conjugated(self, conjugator: tuple[int, ...]) -> "BraidWord":
        """g w g^-1 for a conjugating word g on the same strand count."""
        inverse = tuple(-letter for letter in reversed(conjugator))
        return BraidWord(self.strands, tuple(conjugator) + self.word + inverse)

    def stabilized(self, sign: int = 1) -> "BraidWord":
        """Append sigma_n^(+-1) on one extra strand (Markov stabilization)."""
        if sign not in (1, -1):
            raise ValueError("stabilization sign must be +1 or -1")
        return BraidWord(self.strands + 1, self.word + (sign * self.strands,))

    # ---------------------------------------------------------- text form

    def __str__(self):
        return f"{self.strands}; {','.join(str(x) for x in self.word)}"

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        head, _, tail = text.partition(";")
        strands = int(head.strip())
        tail = tail.strip()
        word = tuple(int(x) for x in tail.split(",")) if tail else ()
        return cls(strands, word)


def closure_components(braid: BraidWord) -> int:
    """Number of components of the braid closure (cycles of the strand
    permutation)."""
    ends = braid.permutation()
    seen = [False] * braid.strands
    count = 0
    for start in range(braid.strands):
        if seen[start]:
            continue
        count += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = ends[i]
    return count


# ------------------------------------------------------------------ Burau


def _burau_generator(n: int, letter: int):
    """Reduced Burau matrix of one generator, size (n-1) x (n-1).

    Convention: sigma_i acts as the identity except for column i, with
    diagonal entry -t; on two strands sigma_1 is the 1 x 1 matrix (-t).
    Inverse letters use the explicit inverse blocks (entries in t^-1),
    keeping everything exact.
    """
    size = n - 1
    i = abs(letter)
    m = [
        [LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(size)]
        for r in range(size)
    ]
    col = i - 1
    if letter > 0:
        m[col][col] = LaurentPoly.monomial(1, -1)
        if i >= 2:
            m[col - 1][col] = LaurentPoly.monomial(1, 1)
        if i <= n - 2:
            m[col + 1][col] = LaurentPoly.one()
    else:
        m[col][col] = LaurentPoly.monomial(-1, -1)
        if i >= 2:
            m[col - 1][col] = LaurentPoly.one()
        if i <= n - 2:
            m[col + 1][col] = LaurentPoly.monomial(-1, 1)
    return m


def _mat_mul(a, b):
    size = len(a)
    out = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = LaurentPoly.zero()
            for k in range(size):
                if a[r][k].is_zero() or b[k][c].is_zero():
                    continue
                acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def burau_reduced(braid: BraidWord):
    """Product of reduced Burau generator matrices, one per letter."""
    if braid.strands < 2:
        raise TooFewStrands("the reduced Burau representation needs n >= 2")
    size = braid.strands - 1
    result = [
        [LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(size)]
        for r in range(size)
    ]
    for letter in braid.word:
        result = _mat_mul(result, _burau_generator(braid.strands, letter))
    return result


def _symmetric_normalize(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the unique unit +-t^k giving reverse(q) == q and
    q(1) == 1.  Inputs are determinants attached to genuine knots, for
    which such a unit always exists."""
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    span = p.degree + p.valuation
    if span % 2 != 0:
        raise ValueError(f"no symmetric unit multiple of ({p})")
    q = LaurentPoly({e - span // 2: c for e, c in p.terms.items()})
    at_one = q.evaluate_unit(1)
    if abs(at_one) != 1:
        raise ValueError(f"({p}) does not evaluate to a unit at 1")
    if at_one == -1:
        q = -q
    if q.reverse() != q:
        raise ValueError(f"({p}) has no palindromic unit multiple")
    return q


def alexander(braid: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the knot closure, via reduced Burau.

    Normalized so reverse(result) == result and result(1) == 1.  Raises
    NotAKnot when the closure has more than one component.
    """
    if closure_components(braid) != 1:
        raise NotAKnot(f"closure of {braid} has {closure_components(braid)} components")
    if braid.strands == 1:
        return LaurentPoly.one()
    b = burau_reduced(braid)
    size = braid.strands - 1
    for r in range(size):
        b[r][r] = b[r][r] - LaurentPoly.one()
    det = laurent_det(b)
    weight = LaurentPoly({e: 1 for e in range(braid.strands)})
    return _symmetric_normalize(det.exact_div(weight))


# ------------------------------------------------------------ Seifert oracle


def seifert_matrix(braid: BraidWord):
    """Integer Seifert matrix of the braid closure's Seifert surface.

    The surface is the usual one from the braid form: one disk per strand,
    one twisted band per letter.  A homology basis has one cycle per pair
    of consecutive bands of the same generator, and the cycles are listed
    left to right along the braid, by their first band.  Linking numbers
    of pushed-off cycles follow three local rules (self-linking from the
    two band twists, one shared-band rule, one interleaving rule for
    adjacent generators).  Each cycle finds its partners by lookups, not
    scans: the shared-band partner is the cycle that starts at its second
    band, and bisecting the adjacent generator's band positions finds the
    two of its cycles that can interleave, the one entering the cycle's
    span and the one leaving it.  Only cycles whose spans overlap link,
    and at most n - 1 cycles span any point of the word, so in this order
    the nonzero entries of V lie near the diagonal, which the lazy Bareiss
    of ``laurent_det`` exploits; a simultaneous row and column permutation
    leaves det(V - t V^T) unchanged.  The handedness convention is fixed
    by anchoring to table values of low-crossing knots; any consistent
    choice gives the same normalized Alexander polynomial.
    """
    if closure_components(braid) != 1:
        raise NotAKnot(f"closure of {braid} has {closure_components(braid)} components")
    occurrences: dict[int, list[int]] = {}
    for pos, letter in enumerate(braid.word):
        occurrences.setdefault(abs(letter), []).append(pos)
    cycles = []  # (generator, first band position, second band position)
    for gen, pos in occurrences.items():
        for k in range(len(pos) - 1):
            cycles.append((gen, pos[k], pos[k + 1]))
    cycles.sort(key=lambda cyc: cyc[1])
    # A band position starts at most one cycle: the one to the next band
    # of its generator.
    start = {first: i for i, (_, first, _) in enumerate(cycles)}
    size = len(cycles)
    v = [[0] * size for _ in range(size)]
    sign_at = [1 if letter > 0 else -1 for letter in braid.word]
    for a, (gen, first, second) in enumerate(cycles):
        # Self-linking: each band half-twist contributes half its sign.
        v[a][a] = (sign_at[first] + sign_at[second]) // 2
        # Consecutive cycles of one generator share the middle band.
        b = start.get(second)
        if b is not None:
            e = sign_at[second]
            v[a][b] += (1 - e) // 2
            v[b][a] += -(1 + e) // 2
        # Interleaved cycles of adjacent generators link once.  Of the
        # cycles of gen + 1, only the one entering the span (first, second)
        # and the one leaving it interleave with this cycle; bands[i:j]
        # are that generator's bands inside the span.
        bands = occurrences.get(gen + 1, [])
        i = bisect_right(bands, first)
        j = bisect_left(bands, second)
        if i < j:
            if i > 0:
                v[a][start[bands[i - 1]]] -= 1
            if j < len(bands):
                v[a][start[bands[j - 1]]] += 1
    return v


def alexander_oracle(braid: BraidWord) -> LaurentPoly:
    """Alexander polynomial via the Seifert matrix: det(V - t V^T),
    normalized exactly as ``alexander``.  Shares no code with the Burau
    route beyond polynomial arithmetic and ``laurent_det``."""
    v = seifert_matrix(braid)
    size = len(v)
    if size == 0:
        return LaurentPoly.one()
    zero = LaurentPoly.zero()
    m = [
        [
            LaurentPoly({0: v[r][c], 1: -v[c][r]}) if v[r][c] or v[c][r] else zero
            for c in range(size)
        ]
        for r in range(size)
    ]
    return _symmetric_normalize(laurent_det(m))
