"""Complexity pinned by counted work, not by timing.

Each test counts calls through monkeypatch on a ladder of sizes and
asserts the exact count today's code makes.  A change that alters a
shape changes its pin to the new formula.
"""

import pytest

from corpus import nested_fsum_chain
from fibersum import fiber_sum_chain, manifolds
from fibersum.cli import parse_construction


def _count_folds(monkeypatch) -> dict:
    """Count manifolds.fold calls and the visits they make."""
    counts = {"folds": 0, "visits": 0}
    fold = manifolds.fold

    def counted(root, visit, *args):
        def counted_visit(node, kids):
            counts["visits"] += 1
            return visit(node, kids)

        counts["folds"] += 1
        return fold(root, counted_visit, *args)

    monkeypatch.setattr(manifolds, "fold", counted)
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
