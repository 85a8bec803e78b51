"""The four benchmark workloads, generated from a seed.

Each workload yields rounds: lists of CLI operations covering its size
ladder once, with fresh seeded inputs in every round.  The fibersum CLI
sees only the braid words and JSON documents written here.  Every
operation carries its expected output from ``reference``.

Operations that fail on the current code for a recorded reason are not
mixed into the timed rounds; they are returned by ``probes`` and run
after the timed loop on every run, so the defect stays visible.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import reference as ref

CHAIN2_TORI = ("T[1,1]", "T[1,2]", "T[2,2]", "T[2,3]")


@dataclass
class Op:
    """One CLI call.  ``expect(stdout, oracle)`` returns None when the
    output is right, else the reason it is wrong.  ``oracle`` names a
    braid (strands, word) that the knots workload also runs through
    ``alexander_oracle`` inside the timed region."""

    kind: str
    size: int | None
    argv: list[str]
    expect: Callable[[str, object], str | None]
    oracle: tuple[int, tuple[int, ...]] | None = None
    defect: str | None = None


class Docs:
    """Writes input documents as numbered JSON files in one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.directory / f"{self.count}.json"
        path.write_text(json.dumps(doc))
        return str(path)


@dataclass
class Workload:
    name: str
    why: str
    ladder: tuple
    smoke_ladder: tuple
    rounds: Callable[..., Iterator[list[Op]]] = field(repr=False)
    probes: Callable[..., list[Op]] = field(repr=False)
    nonzero: tuple = ()  # per-layer metrics the traced run must find above 0


def _random_knot(rng: random.Random, names) -> tuple[str, dict]:
    """A table knot under a random short conjugation, possibly mirrored;
    neither move changes the Alexander polynomial."""
    name = rng.choice(names)
    strands, word, _ = ref.KNOT_TABLE[name]
    g = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 2))]
    word = ref.conjugated(word, g)
    if rng.random() < 0.5:
        word = tuple(-x for x in word)
    return name, ref.braid_doc(strands, word)


def _exact(expected: str):
    def expect(stdout, _):
        return None if stdout == expected else f"expected {expected!r}, got {stdout[:120]!r}"

    return expect


# ------------------------------------------------------------------ knots

KNOT_COUNTS = (4, 3, 2, 2)  # ops per round at each word length


def _random_braid(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """Random word whose closure is a knot.  An s-cycle has the parity of
    s - 1 transpositions, so the length is bumped by one when needed."""
    length += (length - strands + 1) % 2
    while True:
        word = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        if ref.closure_is_knot(strands, word):
            return word


def _alexander_op(size: int, strands: int, word, known: dict | None = None) -> Op:
    def expect(stdout, oracle):
        text = stdout[:-1]
        if stdout != text + "\n":
            return "output is not one line"
        if text != str(oracle):
            return f"Burau {text!r} != Seifert {str(oracle)!r}"
        poly = ref.parse_poly(text)
        if known is not None and poly != known:
            return f"{text!r} differs from the knot table"
        return ref.alexander_shape_error(poly)

    argv = ["alexander", "--strands", str(strands), "--word=" + ",".join(map(str, word))]
    return Op("alexander", size, argv, expect, oracle=(strands, tuple(word)))


def knots_rounds(rng, docs, ladder):
    turn = 0
    while True:
        ops = []
        for length, count in zip(ladder, KNOT_COUNTS):
            for _ in range(count):
                strands = 2 + turn % 5
                turn += 1
                ops.append(_alexander_op(length, strands, _random_braid(rng, strands, length)))
        yield ops


def knots_probes(rng, docs, ladder):
    """Table knots, as listed and conjugated up to the shortest rung."""
    ops = []
    for name, (strands, word, poly) in ref.KNOT_TABLE.items():
        ops.append(_alexander_op(len(word), strands, word, poly))
        pad = max(0, (ladder[0] - len(word)) // 2)
        g = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(pad)]
        long_word = ref.conjugated(word, g)
        ops.append(_alexander_op(len(long_word), strands, long_word, poly))
    return ops


# --------------------------------------------------------------- sw-dense

SW_COUNTS = (4, 2, 1)  # sw ops and compare ops per round at each n


def chain_input(rng, n, names):
    """A surgered_chain(n) with random knots: (Y doc, nested doc, torus class -> factor)."""
    knots = [_random_knot(rng, names) for _ in range(n + 2)]
    braids = [doc for _, doc in knots]
    surgeries = ref.chain_surgeries(n, braids[:n], braids[n], braids[n + 1])
    names_at = {torus: name for (torus, _), (name, _) in zip(surgeries, knots)}
    factors = ref.chain_factors(n, names_at)
    y = ref.y_doc(n, braids[:n], braids[n], braids[n + 1])
    nested = ref.surgered_doc(ref.chain_doc(n), surgeries)
    return y, nested, factors


def _sw_op(docs, n, y, factors) -> Op:
    fp = ref.fingerprint(factors.values())
    lattice = sorted(t for t, f in factors.items() if any(e != 0 for e in f))

    def expect(stdout, _):
        lines = stdout.split("\n")
        if len(lines) != 3 or lines[2]:
            return "expected two lines"
        report = json.loads(lines[1])
        got = (report["count"], report["rank"], tuple(report["coeffs"]), report["a0"])
        if got != fp:
            return f"fingerprint {got[:2]}, a0={got[3]} != closed form {fp[:2]}, a0={fp[3]}"
        if report["series"] != lines[0]:
            return "series line and report series differ"
        if lines[0].count("exp(") != fp[0] or len(report["pairs"]) * 2 != fp[0]:
            return "term count differs from the closed form"
        if sorted(report["lattice"]) != lattice:
            return f"lattice {report['lattice']} != {lattice}"
        return None

    return Op("sw", n, ["sw", docs.write(y)], expect)


def _compare_op(docs, kind, size, doc_a, fp_a, doc_b, fp_b) -> Op:
    argv = ["compare", docs.write(doc_a), docs.write(doc_b)]
    return Op(kind, size, argv, _exact(ref.compare_text(fp_a != fp_b)))


def sw_rounds(rng, docs, ladder):
    while True:
        ops = []
        for n, count in zip(ladder, SW_COUNTS):
            for _ in range(count):
                y, _, factors = chain_input(rng, n, ref.GENUS_ONE)
                ops.append(_sw_op(docs, n, y, factors))
            for _ in range(count):
                ya, _, fa = chain_input(rng, n, ref.GENUS_ONE)
                yb, _, fb = chain_input(rng, n, ref.GENUS_ONE)
                fp_a, fp_b = ref.fingerprint(fa.values()), ref.fingerprint(fb.values())
                ops.append(_compare_op(docs, "compare", n, ya, fp_a, yb, fp_b))
        yield ops


def no_probes(rng, docs, ladder):
    return []


# ----------------------------------------------------------------- family

FAMILY_COMPARES = 11  # member-pair compares per round


@dataclass
class _Family:
    slots: dict  # torus -> [(knot name, braid doc)]
    members: list  # [(nested doc, fingerprint, {torus: braid text})] in family_generate order


def _family(rng, sizes) -> _Family:
    tori = sorted(rng.sample(CHAIN2_TORI, len(sizes)))
    slots = {}
    for torus, size in zip(tori, sizes):
        names = rng.sample(ref.GENUS_ONE, size)
        slots[torus] = [_random_knot(rng, [name]) for name in names]
    members = []
    for choice in itertools.product(*(slots[t] for t in tori)):
        doc = ref.surgered_doc(ref.chain_doc(2), [(t, braid) for t, (_, braid) in zip(tori, choice)])
        factors = ref.chain_factors(2, {t: name for t, (name, _) in zip(tori, choice)})
        listing = {t: f"{b['strands']}; {','.join(map(str, b['word']))}" for t, (_, b) in zip(tori, choice)}
        members.append((doc, ref.fingerprint(factors.values()), listing))
    return _Family(slots, members)


def _family_op(docs, fam: _Family) -> Op:
    members = [
        {
            "member_id": i,
            "knots": listing,
            "charnumbers": {"chi": 48, "sigma": -32, "b2_plus": 7, "b2_minus": 39, "parity": "even"},
            "fingerprint": ref.fingerprint_json(fp),
        }
        for i, (_, fp, listing) in enumerate(fam.members)
    ]
    pairwise = [
        {"i": i, "j": j, "homotopy": True, "distinct": fam.members[i][1] != fam.members[j][1], "one_stab": True}
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]

    def expect(stdout, _):
        report = json.loads(stdout)
        got = report["members"]
        if len(got) != len(members):
            return f"{len(got)} members, expected {len(members)}"
        for entry, want in zip(got, members):
            if entry.pop("sw_string").count("exp(") != want["fingerprint"]["count"]:
                return f"member {want['member_id']}: series term count"
            if entry != want:
                return f"member {want['member_id']}: {entry} != {want}"
        if report["pairwise"] != pairwise:
            return "pairwise verdicts differ from the closed form"
        return None

    slots_doc = {t: [braid for _, braid in knots] for t, knots in fam.slots.items()}
    return Op("family", len(members), ["family", "--N", "2", "--slots", docs.write(slots_doc)], expect)


def family_rounds(rng, docs, ladder):
    while True:
        families = [_family(rng, sizes) for sizes in ladder]
        ops = [_family_op(docs, fam) for fam in families]
        for k in range(FAMILY_COMPARES):
            fam = families[k % len(families)]
            (doc_a, fp_a, _), (doc_b, fp_b, _) = rng.sample(fam.members, 2)
            ops.append(_compare_op(docs, "compare", None, doc_a, fp_a, doc_b, fp_b))
        yield ops


def family_probes(rng, docs, ladder):
    """Stabilized member pairs (member # S2twS2): homotopy equivalent,
    SW series zero on both sides, one-stabilization equivalent."""
    fam = _family(rng, ladder[0])
    ops = []
    for _ in range(4):
        pair = [{"csum": [doc, {"block": "S2twS2"}]} for doc, _, _ in rng.sample(fam.members, 2)]
        argv = ["compare"] + [docs.write(doc) for doc in pair]
        defect = "exit 5 (BadSignExponent): no sign for the zero series of a vanishing sum"
        ops.append(Op("compare-stabilized", None, argv, _exact(ref.compare_text(False)), defect=defect))
    return ops


# ------------------------------------------------------------- tree-large

TREE_SMALL_SETS = (3, 1)  # operation sets per round at the two smallest n
DEFECT_N = 48  # stabilize raises RecursionError at n >= 42 (24n nested sums)


def _tree_ops(rng, docs, n, stabilize: bool) -> list[Op]:
    names = tuple(ref.KNOT_TABLE)
    y, nested, _ = chain_input(rng, n, names)
    y_path, nested_path = docs.write(y), docs.write(nested)
    ops = [
        Op("invariants-Y", n, ["invariants", y_path], _exact(ref.invariants_text(n))),
        Op("invariants-nested", n, ["invariants", nested_path], _exact(ref.invariants_text(n))),
        Op("invariants-XN", n, ["invariants", docs.write({"XN": 4 * n})], _exact(ref.invariants_text(4 * n))),
    ]
    if stabilize:
        ops += [
            Op("stabilize-Y", n, ["stabilize", y_path], _exact(ref.stabilize_text(n))),
            Op("stabilize-nested", n, ["stabilize", nested_path], _exact(ref.stabilize_text(n))),
        ]
    return ops


def tree_rounds(rng, docs, ladder):
    """Each round runs every op of the large sizes once, one at a time,
    each after full op sets at the small sizes: large ops recur evenly
    over the run, and every round has the same mix."""
    small, large = ladder[:2], ladder[2:]
    while True:
        ops = []
        for big in [op for n in large for op in _tree_ops(rng, docs, n, stabilize=n < DEFECT_N)]:
            for n, sets in zip(small, TREE_SMALL_SETS):
                for _ in range(sets):
                    ops += _tree_ops(rng, docs, n, stabilize=True)
            ops.append(big)
        yield ops


def tree_probes(rng, docs, ladder):
    ops = [op for op in _tree_ops(rng, docs, DEFECT_N, stabilize=True) if op.kind.startswith("stabilize")]
    for op in ops:
        op.defect = "RecursionError: stable_normal_form nests 24n connected sums"
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "knots",
            "Alexander polynomials of random 2-6 strand knot braids, word length "
            "10/20/30/45, by Burau (CLI) and the Seifert oracle: Laurent Bareiss dominates",
            (10, 20, 30, 45),
            (6, 9),
            knots_rounds,
            knots_probes,
            ("knots.alexander_oracle.self_ms", "knots.seifert_dim_max", "linalg.laurent_det.calls",
             "linalg.laurent_det.dim_max", "linalg.laurent_det.self_ms", "ring.exact_div.calls"),
        ),
        Workload(
            "sw-dense",
            "sw and compare on surgered_chain(n), n=2..4 (243 to 19,683 series "
            "terms): dense group-ring products, basic classes, printing",
            (2, 3, 4),
            (1, 2),
            sw_rounds,
            no_probes,
            ("ring.group_mul.calls", "ring.group_mul.terms_out", "ring.laurent_mul.calls",
             "ring.group_str.self_ms", "swseries.series_terms_max", "swseries.sw_series.visits",
             "swseries.basic_classes.self_ms", "linalg.integer_rank.self_ms", "cli.emit.self_ms",
             "knots.alexander.calls"),
        ),
        Workload(
            "family",
            "family of 8/12/18 members on a 2-chain plus member compares: many tiny "
            "series, per-pair fingerprints and normal forms recomputed",
            ((2, 2, 2), (2, 2, 3), (2, 3, 3)),
            ((1, 1, 2), (1, 2, 2)),
            family_rounds,
            family_probes,
            ("swseries.sw_report.calls", "swseries.sw_report.useful_ratio", "families.fingerprint.calls",
             "families.fingerprint.useful_ratio", "families.stable_normal_form.calls",
             "families.family_report.self_ms", "knots.alexander.useful_ratio"),
        ),
        Workload(
            "tree-large",
            "invariants and stabilize on deep trees (Y, nested, XN) with n=8..48: "
            "builders re-walk torus records, no SW computed",
            (8, 16, 32, 48),
            (2, 3, 4, 5),
            tree_rounds,
            tree_probes,
            ("manifolds.torus_records.visits", "manifolds.torus_records.visits_per_node",
             "manifolds.builders.self_ms", "manifolds.char_numbers.calls",
             "families.stable_normal_form.self_ms", "cli.parse.self_ms"),
        ),
    )
}
