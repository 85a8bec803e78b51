"""Complexity pinned by counted work, not by timing.

Each test counts calls through monkeypatch on a ladder of sizes and
asserts the exact count today's code makes.  A change that alters a
shape changes its pin to the new formula.
"""

import pytest

from corpus import TREFOIL, nested_fsum_chain
from fibersum import cli, fiber_sum_chain, manifolds, surgered_chain, swseries
from fibersum.cli import parse_construction


def _count_folds(monkeypatch, module=manifolds) -> dict:
    """Count the fold calls made through module's name for it, and the
    visits they make."""
    counts = {"folds": 0, "visits": 0}
    fold = manifolds.fold

    def counted(root, visit, *args):
        def counted_visit(node, kids):
            counts["visits"] += 1
            return visit(node, kids)

        counts["folds"] += 1
        return fold(root, counted_visit, *args)

    monkeypatch.setattr(module, "fold", counted)
    return counts


@pytest.mark.parametrize("levels", [100, 200, 400, 800])
def test_reading_a_nested_fsum_chain_walks_no_tree(monkeypatch, levels):
    # The reader checks names on the sets its subtrees pass up: no node
    # walks a subtree.
    doc = nested_fsum_chain(levels)
    counts = _count_folds(monkeypatch)
    tree = parse_construction(doc)
    assert counts == {"folds": 0, "visits": 0}
    assert tree.right_torus == f"T[{levels},1]"


@pytest.mark.parametrize("n", [25, 50, 100])
def test_fiber_sum_chain_fold_visits(monkeypatch, n):
    # Each fiber_sum walks its left input twice and its right block twice
    # (the availability check and the clash check): 2n(n - 1) in all.
    counts = _count_folds(monkeypatch)
    fiber_sum_chain(n)
    assert counts["visits"] == 2 * n * (n - 1)


WALKS = {
    "char_numbers": (manifolds, manifolds.char_numbers),
    "sw_factors": (swseries, swseries.sw_factors),
    "construction_to_doc": (cli, cli.construction_to_doc),
}


@pytest.mark.parametrize("walk", list(WALKS))
@pytest.mark.parametrize("n", [25, 50, 100])
def test_one_fold_visit_per_node(monkeypatch, walk, n):
    # surgered_chain(n) has n blocks, n - 1 fiber sums and n + 2 surgeries:
    # 3n + 1 nodes, each visited once by one fold.
    c = surgered_chain(n, [TREFOIL] * n, TREFOIL, TREFOIL)
    module, function = WALKS[walk]
    counts = _count_folds(monkeypatch, module)
    function(c)
    assert counts == {"folds": 1, "visits": 3 * n + 1}


def test_main_builds_its_parser_once(monkeypatch, capsys):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert cli.main(["alexander", "--strands", "2", "--word", "1,1,1"]) == 0
    assert capsys.readouterr().out == "t - 1 + t^-1\n"
    assert len(calls) == 1
