"""The builder-calling document reader, kept as a test oracle.

``oracle_parse`` reads a construction document the way
``fibersum.cli.parse_construction`` reads it, but ends every node but a
block in one call to its public builder (``connected_sum``,
``fiber_sum``, ``knot_surgery``, ``null_log_transform``,
``fiber_sum_chain`` or ``surgered_chain``), whose checks walk the node's
subtrees through ``torus_records``.  So the reader's checks on merged
name sets are compared with an independent route: the trees must be
equal and every refusal the same, class and text.  The builders walk
their inputs at every node, so reading takes time quadratic in depth.
"""

from __future__ import annotations

from fibersum import (
    connected_sum,
    fiber_sum,
    fiber_sum_chain,
    knot_surgery,
    null_log_transform,
    surgered_chain,
)
from fibersum.cli import FORMS, _is_int, _read_block, _require_depth, parse_braid_doc
from fibersum.errors import CalculusError, DocumentError, NotAKnot
from fibersum.knots import closure_components

BUILDERS = {"fsum": fiber_sum, "surgery": knot_surgery, "logt": null_log_transform}


def oracle_parse(doc, path: str = "$", depth: int = 1):
    """The tree of a document, each node built by its builder; a
    builder's CalculusError is re-raised as its class with the node's
    path in front."""
    _require_depth(depth, path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    if "block" in doc and set(doc) <= {"block", "tori"}:
        return _read_block(doc, path)
    if len(doc) != 1:
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    key, value = next(iter(doc.items()))
    where = f"{path}.{key}"
    if key in FORMS:
        _, fields = FORMS[key]
        builder = BUILDERS[key]
        if not isinstance(value, dict) or value.keys() != fields.keys():
            raise DocumentError(f"{where}: expected keys {sorted(fields)}")
        args = []
        for field, attr in fields.items():
            arg, at = value[field], f"{where}.{field}"
            if attr == "braid":
                arg = parse_braid_doc(arg, at)
            elif attr.endswith("torus"):
                if not isinstance(arg, str):
                    raise DocumentError(f"{at}: expected a string")
            else:
                arg = oracle_parse(arg, at, depth + 1)
            args.append(arg)
    elif key == "csum":
        if not isinstance(value, list) or len(value) != 2:
            raise DocumentError(f"{where}: expected [left, right]")
        builder = connected_sum
        args = [oracle_parse(value[0], f"{where}[0]", depth + 1),
                oracle_parse(value[1], f"{where}[1]", depth + 1)]
    elif key == "XN":
        if not _is_int(value):
            raise DocumentError(f"{where}: expected an integer")
        _require_depth(value, where, value)
        builder, args = fiber_sum_chain, [value]
    elif key == "Y":
        keys = {"N", "mid", "first", "last"}
        if not isinstance(value, dict) or value.keys() != keys:
            raise DocumentError(f"{where}: expected keys {sorted(keys)}")
        n, mid = value["N"], value["mid"]
        if not _is_int(n):
            raise DocumentError(f"{where}.N: expected an integer")
        _require_depth(2 * n + 2, f"{where}.N", n)
        if not isinstance(mid, list):
            raise DocumentError(f"{where}.mid: expected a list of braids")
        if len(mid) != n:
            raise DocumentError(f"{where}.mid: expected {n} middle knots, got {len(mid)}")
        docs = [*mid, value["first"], value["last"]]
        paths = [f"{where}.mid[{i}]" for i in range(n)] + [f"{where}.first", f"{where}.last"]
        braids = [parse_braid_doc(b, at) for b, at in zip(docs, paths)]
        for at, braid in zip(paths, braids):
            if closure_components(braid) != 1:
                raise NotAKnot(f"{at}: closure of {braid} is not a knot")
        builder, args = surgered_chain, [n, braids[:n], *braids[n:]]
    else:
        raise DocumentError(f"{path}: unknown node key {key!r}")
    try:
        return builder(*args)
    except CalculusError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
