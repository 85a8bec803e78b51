"""The all-pairs Seifert matrix construction, kept as a test oracle.

``all_pairs_seifert_matrix`` builds the same cycles in the same order as
``fibersum.seifert_matrix`` but applies the shared-band and interleaving
rules by comparing every cycle with every other, straight from their
definitions.  The library finds the same partners by band lookups; the
two must agree entry for entry.
"""

from __future__ import annotations

from fibersum import BraidWord, closure_components
from fibersum.errors import NotAKnot


def all_pairs_seifert_matrix(braid: BraidWord):
    if closure_components(braid) != 1:
        raise NotAKnot(f"closure of {braid} is not a knot")
    occurrences: dict[int, list[int]] = {}
    for pos, letter in enumerate(braid.word):
        occurrences.setdefault(abs(letter), []).append(pos)
    cycles = []  # (generator, first band position, second band position)
    for gen, pos in occurrences.items():
        for k in range(len(pos) - 1):
            cycles.append((gen, pos[k], pos[k + 1]))
    cycles.sort(key=lambda cyc: cyc[1])
    index = {cyc: i for i, cyc in enumerate(cycles)}
    size = len(cycles)
    v = [[0] * size for _ in range(size)]
    sign_at = [1 if letter > 0 else -1 for letter in braid.word]
    for cyc in cycles:
        gen, first, second = cyc
        a = index[cyc]
        # Self-linking: each band half-twist contributes half its sign.
        v[a][a] = (sign_at[first] + sign_at[second]) // 2
        # Consecutive cycles of one generator share the middle band.
        for other in cycles:
            if other[0] == gen and other[1] == second:
                b = index[other]
                e = sign_at[second]
                v[a][b] += (1 - e) // 2
                v[b][a] += -(1 + e) // 2
        # Interleaved cycles of adjacent generators link once.
        for other in cycles:
            if other[0] != gen + 1:
                continue
            b = index[other]
            r1, r2 = other[1], other[2]
            if first < r1 < second < r2:
                v[a][b] += 1
            elif r1 < first < r2 < second:
                v[a][b] -= 1
    return v
