"""Regenerate tests/golden.json, the command line's recorded outputs.

    PYTHONPATH=src python tests/make_golden.py

Each case is an argv and the documents it reads.  It is run in-process
through fibersum.cli.main in a directory of its own that holds those
documents under the names the argv gives, and the file records its exit
code, the sha256 of its stdout (UTF-8) and its stderr text.
tests/test_golden.py replays every case and compares all three.

The cases are the corpus trees and the refused trees, seeded chains
(seeds 0 and 7, n <= 5), every subcommand with and without --json,
compare on consecutive pairs, seeded family slot files and alexander
braids, one document for each documented refusal and limit, and sums of
K3 chains and rational blocks for stabilize and compare.  Only
cases whose bytes are the same on Python 3.10 to 3.13 are kept, so none
depends on argparse's messages, on the depth at which the JSON decoder
refuses nesting, or on the interpreter's integer digit limit.  A change
that alters an output regenerates the file and lists each changed case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from corpus import (
    TABLE,
    named_corpus,
    random_knot_braids,
    refused_sw_trees,
    seeded_chains,
    sw_trees,
)
from fibersum import BraidWord, available_tori, closure_components, fiber_sum_chain
from fibersum.cli import construction_to_doc, main

GOLDEN = Path(__file__).with_name("golden.json")


class _Sha256Sink:
    """A text stdout that keeps only the sha256 of what is written."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode("utf-8"))
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


def replay(case: dict, directory: str) -> dict:
    """The exit code, stdout sha256 and stderr of one case, run with
    directory as the working directory after writing the case's files
    there.  File texts are written as UTF-8 with surrogateescape, so a
    lone surrogate stands for a byte that is not UTF-8."""
    for name, text in case["files"].items():
        Path(directory, name).write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = _Sha256Sink(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout_sha256": out.hash.hexdigest(), "stderr": err.getvalue()}


# ----------------------------------------------------------------- cases


def _doc_text(doc) -> str:
    return json.dumps(doc, ensure_ascii=False)


def _braid_doc(braid: BraidWord) -> dict:
    return {"strands": braid.strands, "word": list(braid.word)}


def _escaped_names_doc() -> dict:
    """One series over names JSON leaves bare and names it escapes (a
    quote, a backslash, non-ASCII, DEL)."""
    trefoil = {"strands": 2, "word": [1, 1, 1]}
    figure_eight = {"strands": 3, "word": [1, -2, 1, -2]}
    left = {"surgery": {"on": {"block": "K3", "tori": ["A", 'B"', "C\\"]},
                        "torus": 'B"', "braid": trefoil}}
    right = {"surgery": {"on": {"block": "K3", "tori": ["T1", "Dé", "E\x7f"]},
                         "torus": "Dé", "braid": figure_eight}}
    return {"surgery": {"on": {"fsum": {"left": left, "lt": "A", "right": right, "rt": "T1"}},
                        "torus": "E\x7f", "braid": trefoil}}


def _tree_docs() -> dict:
    docs = {name: construction_to_doc(c) for name, c in sw_trees().items()}
    docs.update((name, construction_to_doc(c)) for name, (c, _) in refused_sw_trees().items())
    for seed in (0, 7):
        for i, c in enumerate(seeded_chains(seed, max_n=5)):
            docs[f"seeded chain {seed}.{i}"] = construction_to_doc(c)
    docs["escaped names"] = _escaped_names_doc()
    return docs


def _with_and_without_json(name: str, argv: list, files: dict) -> list:
    return [
        {"name": name, "argv": argv, "files": files},
        {"name": f"{name} --json", "argv": ["--json", *argv], "files": files},
    ]


def _tree_cases() -> list:
    cases = []
    docs = _tree_docs()
    for name, doc in docs.items():
        files = {"c.json": _doc_text(doc)}
        for command in ("invariants", "sw", "stabilize"):
            cases += _with_and_without_json(f"{command} {name}", [command, "c.json"], files)
    names = list(docs)
    for a, b in zip(names, names[1:]):
        files = {"a.json": _doc_text(docs[a]), "b.json": _doc_text(docs[b])}
        cases += _with_and_without_json(f"compare {a} | {b}", ["compare", "a.json", "b.json"], files)
    return cases


def _word_args(braid: BraidWord) -> list:
    # A word that starts with an inverse letter is passed as --word=W, so
    # that it is not read as an option.
    return ["--strands", str(braid.strands), f"--word={','.join(map(str, braid.word))}"]


def _alexander_cases() -> list:
    braids = [*TABLE, *named_corpus(), *random_knot_braids(24, 20261020, 5, 20)]
    rng = random.Random(7)
    links = []
    while len(links) < 6:  # seeded braids whose closures are links: exit 4
        strands = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(0, 8)))
        if closure_components(BraidWord(strands, word)) > 1:
            links.append(BraidWord(strands, word))
    cases = []
    for braid in dict.fromkeys([*braids, *links, BraidWord(1, ())]):
        cases += _with_and_without_json(f"alexander {braid}", ["alexander", *_word_args(braid)], {})
    for name, strands, word in [
        ("bad letter", "2", "3"),
        ("non-integer letter", "2", "1,a"),
        ("zero letter", "2", "1,0,1"),
        ("no strands", "0", ""),
        ("over Burau budget", "100", ",".join(map(str, range(1, 100)))),
        ("over Burau budget, 2 strands", "2", ",".join(["1"] * 1251)),
        ("far letter", str(10**12 + 1), str(10**12)),
        ("split braid", "1000000000", "1"),
    ]:
        cases.append({"name": f"alexander {name}", "files": {},
                      "argv": ["alexander", "--strands", strands, f"--word={word}"]})
    return cases


def _family_cases() -> list:
    knots = [*named_corpus(), *random_knot_braids(12, 20261020, 4, 10)]
    cases = []
    for seed, n in [(0, 1), (7, 2), (11, 3), (13, 1), (17, 2)]:
        rng = random.Random(seed)
        tori = sorted(rng.sample(available_tori(fiber_sum_chain(n)), rng.randint(1, 2)))
        slots = {t: [_braid_doc(b) for b in rng.sample(knots, rng.randint(1, 4))] for t in tori}
        files = {"s.json": _doc_text(slots)}
        cases += _with_and_without_json(
            f"family seed {seed}", ["family", "--N", str(n), "--slots", "s.json"], files
        )
    trefoil = {"strands": 2, "word": [1, 1, 1]}
    for name, n, slots in [
        ("unknown torus", 1, {"T[9,9]": [trefoil]}),
        ("consumed torus", 2, {"T[1,3]": [trefoil]}),
        ("link", 1, {"T[1,2]": [{"strands": 2, "word": [1, 1]}]}),
        ("slot not a list", 1, {"a\nb": 1}),
        ("braid not a braid", 1, {"T[1,2]": [trefoil, {"strands": 2}]}),
        ("non-integer strands", 1, {"a\nb": [{"strands": "x", "word": []}]}),
        ("over family budget", 2, {"T[1,1]": [trefoil] * 21, "T[1,2]": [trefoil] * 20}),
        ("over term budget", 14, {"T[1,2]": [trefoil]}),
        ("chain of no blocks", 0, {"T[1,2]": [trefoil]}),
        ("over depth limit", 800, {"T[1,2]": [trefoil]}),
        ("slots not an object", 1, []),
    ]:
        cases.append({"name": f"family {name}", "files": {"s.json": _doc_text(slots)},
                      "argv": ["family", "--N", str(n), "--slots", "s.json"]})
    return cases


K3 = {"block": "K3"}
TREFOIL = {"strands": 2, "word": [1, 1, 1]}
LINK = {"strands": 2, "word": [1, 1]}
UNKNOT = {"strands": 1, "word": []}


def _y(mid, first=UNKNOT, last=UNKNOT, n=1):
    return {"Y": {"N": n, "mid": mid, "first": first, "last": last}}


# (name, command, document text) for each documented refusal and limit.
REFUSALS = [
    ("invalid JSON", "invariants", "{not json"),
    ("empty file", "invariants", ""),
    ("not UTF-8", "invariants", '{"XN": 1}\udcff'),
    ("not an object", "invariants", "[1, 2]"),
    ("unknown node key", "invariants", _doc_text({"wat": 1})),
    ("unknown block", "invariants", _doc_text({"block": "K4"})),
    ("unknown block with tori", "sw", _doc_text({"block": "K4", "tori": ["A", "B", "C"]})),
    ("block name not a string", "invariants", _doc_text({"block": 3})),
    ("tori not a list", "sw", _doc_text({"block": "K3", "tori": "ABC"})),
    ("too few tori", "sw", _doc_text({"block": "K3", "tori": ["A", "B"]})),
    ("tori on a rational block", "sw", _doc_text({"block": "CP2", "tori": ["A"]})),
    ("torus name with a space", "sw", _doc_text({"block": "K3", "tori": ["T1", "A B", "T3"]})),
    ("empty torus name", "sw", _doc_text({"block": "K3", "tori": ["", "T2", "T3"]})),
    ("torus name with a caret", "sw", _doc_text({"block": "K3", "tori": ["T1", "T2", "A^2"]})),
    ("repeated torus name", "sw", _doc_text({"block": "K3", "tori": ["B", "B", "C"]})),
    ("XN 0", "invariants", _doc_text({"XN": 0})),
    ("XN negative", "invariants", _doc_text({"XN": -3})),
    ("XN bool", "invariants", _doc_text({"XN": True})),
    ("XN float", "invariants", _doc_text({"XN": 1.5})),
    ("XN over depth limit", "invariants", _doc_text({"XN": 990})),
    ("XN 10^12", "stabilize", _doc_text({"XN": 10**12})),
    ("Y N 0", "invariants", _doc_text(_y([], n=0))),
    ("Y N bool", "invariants", _doc_text(_y([TREFOIL], n=True))),
    ("Y over depth limit", "invariants", _doc_text(_y([UNKNOT] * 400, n=400))),
    ("Y mid short", "invariants", _doc_text({"csum": [K3, _y([], n=2)]})),
    ("Y mid long", "invariants", _doc_text(_y([UNKNOT] * 3, n=2))),
    ("Y mid not a list", "invariants", _doc_text({"Y": {"N": 1, "mid": None, "first": 1, "last": 1}})),
    ("Y bool strands", "invariants", _doc_text(_y([{"strands": True, "word": []}]))),
    ("Y link", "sw", _doc_text(_y([LINK]))),
    ("Y mid 1 link", "sw", _doc_text(_y([TREFOIL, LINK], first=LINK, n=2))),
    ("Y first link", "sw", _doc_text(_y([TREFOIL], first=LINK, last=LINK))),
    ("Y last link", "sw", _doc_text(_y([TREFOIL], last=LINK))),
    ("braid bool letter", "invariants", _doc_text(
        {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": {"strands": 2, "word": [1, True]}}})),
    ("braid letter out of range", "invariants", _doc_text(
        {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": {"strands": 2, "word": [5]}}})),
    ("braid missing word", "invariants", _doc_text(
        {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": {"strands": 2}}})),
    ("surgery torus not a string", "invariants", _doc_text(
        {"surgery": {"on": {"XN": 1}, "torus": 2, "braid": TREFOIL}})),
    ("csum of one", "invariants", _doc_text({"csum": [K3]})),
    ("fsum keys", "invariants", _doc_text({"fsum": {"left": K3}})),
    ("fsum left torus", "sw", _doc_text(
        {"fsum": {"left": {"XN": 1}, "lt": "T9", "right": K3, "rt": "T1"}})),
    ("fsum right torus", "sw", _doc_text(
        {"fsum": {"left": {"XN": 1}, "lt": "T[1,1]", "right": K3, "rt": "T9"}})),
    ("fsum right torus renamed", "invariants", _doc_text(
        {"fsum": {"left": K3, "lt": "T1", "right": K3, "rt": "T9"}})),
    ("fsum on a rational block", "invariants", _doc_text(
        {"fsum": {"left": K3, "lt": "T1", "right": {"block": "CP2"}, "rt": "T1"}})),
    ("surgery consumed torus", "sw", _doc_text(
        {"surgery": {"on": {"XN": 2}, "torus": "T[1,3]", "braid": TREFOIL}})),
    ("surgery link nested", "sw", _doc_text(
        {"csum": [K3, {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": LINK}}]})),
    ("surgery over Burau budget", "sw", _doc_text(
        {"surgery": {"on": K3, "torus": "T1",
                     "braid": {"strands": 100, "word": list(range(1, 100))}}})),
    ("logt consumed torus", "sw", _doc_text({"logt": {"on": {"XN": 2}, "torus": "T[1,3]"}})),
    ("log transform", "sw", _doc_text({"logt": {"on": {"XN": 1}, "torus": "T[1,2]"}})),
    ("blow-up sum right", "sw", _doc_text({"csum": [K3, {"block": "CP2bar"}]})),
    ("blow-up sum left", "sw", _doc_text({"csum": [{"block": "CP2bar"}, {"XN": 2}]})),
    ("blow-up sum both", "sw", _doc_text({"csum": [{"block": "CP2"}, {"block": "CP2bar"}]})),
    ("rational block", "sw", _doc_text({"block": "S2xS2"})),
    ("vanishing sum", "sw", _doc_text({"csum": [K3, {"block": "S2twS2"}]})),
    ("over term budget", "sw", _doc_text({"XN": 14})),
    ("big log transform", "sw", _doc_text({"logt": {"on": {"XN": 40}, "torus": "T[1,2]"}})),
    ("sum inside fiber sum", "stabilize", _doc_text(
        {"fsum": {"left": {"csum": [K3, {"block": "CP2"}]}, "lt": "T1", "right": K3, "rt": "T2"}})),
    ("deep chain", "stabilize", _doc_text({"XN": 48})),
    ("big chains", "compare", _doc_text({"XN": 19})),
]

# (name, command, document text) for sums of K3 chains and rational blocks,
# which one stabilization dissolves: stabilize reads each as T # S2twS2.
CHAIN_SUMS = [
    ("two chains", "stabilize", _doc_text({"csum": [{"XN": 30}, {"XN": 3}]})),
    ("CP2bar with a chain", "stabilize", _doc_text({"csum": [{"XN": 2}, {"block": "CP2bar"}]})),
    ("S2xS2 alone", "stabilize", _doc_text({"csum": [{"block": "S2xS2"}, {"block": "CP2"}]})),
    ("two chains and S2twS2", "stabilize", _doc_text(
        {"csum": [{"csum": [{"XN": 1}, {"XN": 1}]}, {"block": "S2twS2"}]})),
    ("CP2 with a chain", "stabilize", _doc_text({"csum": [{"XN": 2}, {"block": "CP2"}]})),
    ("CP2bar with a chain and S2twS2", "stabilize", _doc_text(
        {"csum": [{"csum": [{"XN": 1}, {"block": "CP2bar"}]}, {"block": "S2twS2"}]})),
]


def _document_cases() -> list:
    cases = []
    for name, command, text in REFUSALS + CHAIN_SUMS:
        argv = [command, "c.json"] + (["c.json"] if command == "compare" else [])
        cases += _with_and_without_json(f"{command} document: {name}", argv, {"c.json": text})
    # A chain beside CP2 against a surgered chain beside CP2: one stable type.
    files = {"a.json": _doc_text({"csum": [{"XN": 2}, {"block": "CP2"}]}),
             "b.json": _doc_text({"csum": [_y([TREFOIL, UNKNOT], n=2), {"block": "CP2"}]})}
    cases += _with_and_without_json(
        "compare document: CP2 with a chain | CP2 with a surgered chain",
        ["compare", "a.json", "b.json"], files)
    cases.append({"name": "sw missing file", "argv": ["sw", "missing.json"], "files": {}})
    cases.append({"name": "compare missing second file", "argv": ["compare", "c.json", "no\nfile.json"],
                  "files": {"c.json": _doc_text({"XN": 1})}})
    return cases


def cases() -> list:
    out = [*_tree_cases(), *_alexander_cases(), *_family_cases(), *_document_cases()]
    names = [case["name"] for case in out]
    assert len(set(names)) == len(names), "case names repeat"
    return out


def main_() -> None:
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(cases()):
            directory = os.path.join(tmp, str(i))
            os.mkdir(directory)
            recorded.append({**case, **replay(case, directory)})
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"{len(recorded)} cases written to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main_()
