"""Command line surface.

Subcommands: ``invariants FILE``, ``sw FILE``, ``alexander --strands N
--word CSV``, ``family --N N --slots FILE``, ``compare FILE FILE``,
``stabilize FILE``.  A global ``--json`` flag switches the human text to
JSON.  All numeric output is exact integers and all output is
deterministic (terms and keys sorted).

Construction documents are JSON trees:

    {"block": "K3"}
    {"csum": [DOC, DOC]}
    {"fsum": {"left": DOC, "lt": NAME, "right": DOC, "rt": NAME}}
    {"surgery": {"on": DOC, "torus": NAME, "braid": BRAID}}
    {"logt": {"on": DOC, "torus": NAME}}
    {"XN": N}
    {"Y": {"N": N, "mid": [BRAID...], "first": BRAID, "last": BRAID}}

with BRAID = {"strands": N, "word": [ints]}.  Parse errors carry a path
into the document and exit with code 2; unsupported invariant queries
exit 3; non-knot braids exit 4; other violated preconditions exit 5.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    CalculusError,
    DocumentError,
    NotAKnot,
    UnknownBlock,
    UnsupportedNode,
    UnsupportedSum,
)
from .families import (
    DISTINCT,
    distinguish,
    family_generate,
    family_report,
    homotopy_equivalent,
    one_stabilization_equivalent,
    stable_normal_form,
)
from .knots import BraidWord, alexander
from .manifolds import (
    Block,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    block,
    char_numbers,
    connected_sum,
    fiber_sum,
    fiber_sum_chain,
    knot_surgery,
    null_log_transform,
    surgered_chain,
)
from .swseries import sw_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NOT_A_KNOT = 4
EXIT_PRECONDITION = 5


# ------------------------------------------------------------- documents


def parse_braid_doc(doc, path: str) -> BraidWord:
    if not isinstance(doc, dict) or set(doc) != {"strands", "word"}:
        raise DocumentError(f'{path}: expected {{"strands": n, "word": [...]}}')
    strands, word = doc["strands"], doc["word"]
    if not _is_int(strands) or not isinstance(word, list) or not all(
        _is_int(x) for x in word
    ):
        raise DocumentError(f"{path}: braid needs integer strands and letters")
    try:
        return BraidWord(strands, tuple(word))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def parse_construction(doc, path: str = "$") -> Construction:
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    if "block" in doc and set(doc) <= {"block", "tori"}:
        value = doc["block"]
        if not isinstance(value, str):
            raise DocumentError(f"{path}.block: expected a block name")
        try:
            leaf = block(value)
        except UnknownBlock as exc:
            raise DocumentError(f"{path}.block: {exc}") from exc
        if "tori" in doc:
            tori = doc["tori"]
            if not isinstance(tori, list) or not all(isinstance(t, str) for t in tori):
                raise DocumentError(f"{path}.tori: expected a list of torus names")
            if len(tori) != len(leaf.tori):
                raise DocumentError(
                    f"{path}.tori: {value} carries {len(leaf.tori)} tori"
                )
            leaf = Block(value, tuple(tori))
        return leaf
    if len(doc) != 1:
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    key, value = next(iter(doc.items()))
    try:
        if key == "csum":
            if not isinstance(value, list) or len(value) != 2:
                raise DocumentError(f"{path}.csum: expected [left, right]")
            return connected_sum(
                parse_construction(value[0], f"{path}.csum[0]"),
                parse_construction(value[1], f"{path}.csum[1]"),
            )
        if key == "fsum":
            _require_keys(value, {"left", "lt", "right", "rt"}, f"{path}.fsum")
            return fiber_sum(
                parse_construction(value["left"], f"{path}.fsum.left"),
                _require_str(value["lt"], f"{path}.fsum.lt"),
                parse_construction(value["right"], f"{path}.fsum.right"),
                _require_str(value["rt"], f"{path}.fsum.rt"),
            )
        if key == "surgery":
            _require_keys(value, {"on", "torus", "braid"}, f"{path}.surgery")
            return knot_surgery(
                parse_construction(value["on"], f"{path}.surgery.on"),
                _require_str(value["torus"], f"{path}.surgery.torus"),
                parse_braid_doc(value["braid"], f"{path}.surgery.braid"),
            )
        if key == "logt":
            _require_keys(value, {"on", "torus"}, f"{path}.logt")
            return null_log_transform(
                parse_construction(value["on"], f"{path}.logt.on"),
                _require_str(value["torus"], f"{path}.logt.torus"),
            )
        if key == "XN":
            if not _is_int(value):
                raise DocumentError(f"{path}.XN: expected an integer")
            return fiber_sum_chain(value)
        if key == "Y":
            _require_keys(value, {"N", "mid", "first", "last"}, f"{path}.Y")
            n = value["N"]
            if not _is_int(n):
                raise DocumentError(f"{path}.Y.N: expected an integer")
            if not isinstance(value["mid"], list):
                raise DocumentError(f"{path}.Y.mid: expected a list of braids")
            mid = [
                parse_braid_doc(b, f"{path}.Y.mid[{i}]")
                for i, b in enumerate(value["mid"])
            ]
            return surgered_chain(
                n,
                mid,
                parse_braid_doc(value["first"], f"{path}.Y.first"),
                parse_braid_doc(value["last"], f"{path}.Y.last"),
            )
    except CalculusError:
        raise
    except (TypeError, KeyError) as exc:
        raise DocumentError(f"{path}: malformed node ({exc})") from exc
    raise DocumentError(f"{path}: unknown node key {key!r}")


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_keys(value, keys: set[str], path: str):
    if not isinstance(value, dict) or set(value) != keys:
        raise DocumentError(f"{path}: expected keys {sorted(keys)}")


def _require_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{path}: expected a string")
    return value


def construction_to_doc(c: Construction) -> dict:
    """Primitive-form document that re-parses to an equal tree.

    Blocks whose torus names differ from the defaults carry an extra
    "tori" field so the round trip is lossless.
    """
    if isinstance(c, Block):
        if c == block(c.kind):
            return {"block": c.kind}
        return {"block": c.kind, "tori": list(c.tori)}
    if isinstance(c, ConnectedSum):
        return {"csum": [construction_to_doc(c.left), construction_to_doc(c.right)]}
    if isinstance(c, FiberSum):
        return {
            "fsum": {
                "left": construction_to_doc(c.left),
                "lt": c.left_torus,
                "right": construction_to_doc(c.right),
                "rt": c.right_torus,
            }
        }
    if isinstance(c, KnotSurgery):
        return {
            "surgery": {
                "on": construction_to_doc(c.child),
                "torus": c.torus,
                "braid": {"strands": c.braid.strands, "word": list(c.braid.word)},
            }
        }
    if isinstance(c, NullLogTransform):
        return {"logt": {"on": construction_to_doc(c.child), "torus": c.torus}}
    raise TypeError(f"not a construction node: {c!r}")


def _load_doc(filename: str):
    try:
        with open(filename) as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {filename}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{filename}: invalid JSON: {exc}") from exc


def _emit(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(", ", ": "))


# ------------------------------------------------------------- subcommands


def cmd_invariants(args) -> int:
    c = parse_construction(_load_doc(args.file))
    cn = char_numbers(c)
    if args.json:
        print(
            _emit(
                {
                    "chi": cn.chi,
                    "sigma": cn.sigma,
                    "b1": cn.b1,
                    "b2_plus": cn.b2_plus,
                    "b2_minus": cn.b2_minus,
                    "parity": cn.parity,
                    "simply_connected": cn.simply_connected,
                }
            )
        )
    else:
        print(
            f"chi={cn.chi} sigma={cn.sigma} b2+={cn.b2_plus} b2-={cn.b2_minus} "
            f"parity={cn.parity}"
        )
    return EXIT_OK


def cmd_sw(args) -> int:
    c = parse_construction(_load_doc(args.file))
    data = sw_report(c).to_json()
    if args.json:
        print(_emit({"series": data["series"], "report": data}))
    else:
        print(data["series"])
        print(_emit(data))
    return EXIT_OK


def cmd_alexander(args) -> int:
    try:
        word = tuple(int(x) for x in args.word.split(",")) if args.word else ()
    except ValueError as exc:
        raise DocumentError(
            f"--word: expected comma separated integers, got {args.word!r}"
        ) from exc
    try:
        braid = BraidWord(args.strands, word)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    poly = alexander(braid)
    if args.json:
        print(_emit({"alexander": str(poly)}))
    else:
        print(str(poly))
    return EXIT_OK


def cmd_family(args) -> int:
    slots_doc = _load_doc(args.slots)
    if not isinstance(slots_doc, dict):
        raise DocumentError("slots file must map torus names to braid lists")
    slots = {}
    for name, braids in sorted(slots_doc.items()):
        if not isinstance(braids, list):
            raise DocumentError(f"slot {name!r}: expected a list of braids")
        slots[name] = [
            parse_braid_doc(b, f"$.{name}[{i}]") for i, b in enumerate(braids)
        ]
    members = family_generate(args.N, slots)
    report = family_report(members)
    print(_emit(report))
    return EXIT_OK


def cmd_compare(args) -> int:
    a = parse_construction(_load_doc(args.file_a))
    b = parse_construction(_load_doc(args.file_b))
    homotopy = homotopy_equivalent(a, b)
    distinct = distinguish(a, b) == DISTINCT
    one_stab = one_stabilization_equivalent(a, b)
    if args.json:
        print(_emit({"homotopy": homotopy, "distinct": distinct, "one_stab": one_stab}))
    else:
        print(
            f"homotopy:{str(homotopy).lower()} distinct:{str(distinct).lower()} "
            f"one_stab:{str(one_stab).lower()}"
        )
    return EXIT_OK


def cmd_stabilize(args) -> int:
    c = parse_construction(_load_doc(args.file))
    cp2, cp2bar = stable_normal_form(c)
    if args.json:
        print(_normal_form_doc(cp2, cp2bar))
    else:
        print(normal_form_text(cp2, cp2bar))
    return EXIT_OK


def normal_form_text(cp2: int, cp2bar: int) -> str:
    """Connected-sum counts as text, e.g. '#4 CP2 # 20 CP2bar'; zero
    counts are omitted."""
    counts = [(cp2, "CP2"), (cp2bar, "CP2bar")]
    return "#" + " # ".join(f"{n} {kind}" for n, kind in counts if n)


def _normal_form_doc(cp2: int, cp2bar: int) -> str:
    """The canonical left-nested connected sum of cp2 CP2 and cp2bar
    CP2bar blocks (CP2 summands first) as the document text _emit would
    write for it, built straight from the counts: no tree, no recursion."""
    head, *rest = ['{"block": "CP2"}'] * cp2 + ['{"block": "CP2bar"}'] * cp2bar
    return '{"csum": [' * len(rest) + head + "".join(f", {b}]}}" for b in rest)


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibersum",
        description="Exact invariants of fiber-sum constructions of 4-manifolds.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="characteristic numbers of a construction")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("sw", help="Seiberg-Witten series and basic-class report")
    p.add_argument("file")
    p.set_defaults(func=cmd_sw)

    p = sub.add_parser("alexander", help="Alexander polynomial of a braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", default="", help="comma separated letters, e.g. 1,1,1")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("family", help="generate a family and its pairwise report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--slots", required=True, help="JSON file: torus -> braid list")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("compare", help="homotopy / distinct / one-stab verdicts")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stabilize", help="one-stabilization normal form")
    p.add_argument("file")
    p.set_defaults(func=cmd_stabilize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedNode, UnsupportedSum) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NotAKnot as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_KNOT
    except CalculusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
