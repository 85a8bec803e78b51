"""The command line surface: output formats, exit codes, round-trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CHAIN_KNOTS, rational_chain, refused_sw_trees, seeded_chains, sw_trees
from dense_oracle import dense_sw_stdout, dense_text
from fibersum import (
    BraidWord,
    available_tori,
    block,
    connected_sum,
    family_generate,
    fiber_sum,
    fiber_sum_chain,
    knot_surgery,
    null_log_transform,
    stable_normal_form,
    surgered_chain,
    sw_factors,
    sw_report,
)
from fibersum.cli import (
    DEPTH_LIMIT,
    _emit,
    construction_to_doc,
    main,
    normal_form_text,
    parse_construction,
)
from fibersum import cli, families, swseries
from fibersum.errors import (
    CalculusError,
    DocumentError,
    FamilyTooLarge,
    NotAKnot,
    TorusUnavailable,
    UnsupportedNode,
)
from fibersum.manifolds import BLOCK_NAMES, Block
from fibersum.ring import FactoredSeries, GroupRingElt

TREFOIL_BRAID = {"strands": 2, "word": [1, 1, 1]}
UNKNOT_BRAID = {"strands": 1, "word": []}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def y_doc(mid, first=UNKNOT_BRAID, last=UNKNOT_BRAID, n=1):
    return {"Y": {"N": n, "mid": mid, "first": first, "last": last}}


# ---------------------------------------------------------------- invariants


def test_invariants_chain(tmp_path, capsys):
    code = main(["invariants", write(tmp_path, "x.json", {"XN": 2})])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "chi=48 sigma=-32 b2+=7 b2-=39 parity=even\n"


def test_invariants_block_json(tmp_path, capsys):
    code = main(["--json", "invariants", write(tmp_path, "k3.json", {"block": "K3"})])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data == {
        "b1": 0,
        "b2_minus": 19,
        "b2_plus": 3,
        "chi": 24,
        "parity": "even",
        "sigma": -16,
        "simply_connected": True,
    }


def test_invariants_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["invariants", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_invariants_unknown_node(tmp_path, capsys):
    assert main(["invariants", write(tmp_path, "bad.json", {"wat": 1})]) == 2
    assert "unknown node key" in capsys.readouterr().err


# ------------------------------------------------------------------------ sw


def test_sw_k3(tmp_path, capsys):
    code = main(["sw", write(tmp_path, "k3.json", {"block": "K3"})])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "1"


def test_sw_trefoil_chain(tmp_path, capsys):
    code = main(["sw", write(tmp_path, "y.json", y_doc([TREFOIL_BRAID]))])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "exp(2*T[1,2]) - 1 + exp(-2*T[1,2])"
    report = json.loads(out[1])
    assert report["a0"] == -1 and report["count"] == 2 and report["rank"] == 1


def test_sw_log_transform_exit_3(tmp_path, capsys):
    doc = {"logt": {"on": {"XN": 1}, "torus": "T[1,2]"}}
    assert main(["sw", write(tmp_path, "lt.json", doc)]) == 3
    assert "log transform" in capsys.readouterr().err


def test_sw_blowup_sum_exit_3(tmp_path, capsys):
    doc = {"csum": [{"block": "K3"}, {"block": "CP2bar"}]}
    assert main(["sw", write(tmp_path, "cs.json", doc)]) == 3
    capsys.readouterr()


LINK_BRAID = {"strands": 2, "word": [1, 1]}


@pytest.mark.parametrize(
    "doc, cls, code, err",
    [
        ({"fsum": {"left": {"XN": 1}, "lt": "T9", "right": {"block": "K3"}, "rt": "T1"}},
         TorusUnavailable, 5, "$.fsum: left torus 'T9' is not available"),
        ({"fsum": {"left": {"XN": 1}, "lt": "T[1,1]", "right": {"block": "K3"}, "rt": "T9"}},
         TorusUnavailable, 5, "$.fsum: right torus 'T9' is not available"),
        # The right side's names clash with the left's, so the builder
        # renames them, but the refusal names the torus the document wrote.
        ({"fsum": {"left": {"block": "K3"}, "lt": "T1", "right": {"block": "K3"}, "rt": "T9"}},
         TorusUnavailable, 5, "$.fsum: right torus 'T9' is not available"),
        ({"surgery": {"on": {"XN": 2}, "torus": "T[1,3]", "braid": TREFOIL_BRAID}},
         TorusUnavailable, 5, "$.surgery: torus 'T[1,3]' is not available"),
        ({"csum": [{"block": "K3"},
                   {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": LINK_BRAID}}]},
         NotAKnot, 4, "$.csum[1].surgery: closure of 2; 1,1 is not a knot"),
        ({"logt": {"on": {"XN": 2}, "torus": "T[1,3]"}},
         TorusUnavailable, 5, "$.logt: torus 'T[1,3]' is not available"),
        # A Y's braids are checked at their own slots, mid first.
        (y_doc([LINK_BRAID]), NotAKnot, 4, "$.Y.mid[0]: closure of 2; 1,1 is not a knot"),
        (y_doc([TREFOIL_BRAID, LINK_BRAID], first=LINK_BRAID, n=2),
         NotAKnot, 4, "$.Y.mid[1]: closure of 2; 1,1 is not a knot"),
        (y_doc([TREFOIL_BRAID], first=LINK_BRAID, last=LINK_BRAID),
         NotAKnot, 4, "$.Y.first: closure of 2; 1,1 is not a knot"),
        (y_doc([TREFOIL_BRAID], last=LINK_BRAID),
         NotAKnot, 4, "$.Y.last: closure of 2; 1,1 is not a knot"),
    ],
    ids=["fsum-left", "fsum-right", "fsum-right-renamed", "surgery-consumed",
         "surgery-link-nested", "logt-consumed", "Y-link", "Y-mid-1", "Y-first", "Y-last"],
)
def test_builder_refusal_names_its_node(tmp_path, capsys, doc, cls, code, err):
    # The builder's own error class and exit code, with the node's path.
    assert main(["sw", write(tmp_path, "c.json", doc)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"
    with pytest.raises(cls) as info:
        parse_construction(doc)
    assert type(info.value) is cls and str(info.value) == err


def test_builders_are_looked_up_at_call_time(monkeypatch):
    # A wrapper set on the cli module's attribute, as a tracer sets one,
    # sees every builder call the parser makes.
    calls = Counter()
    names = ("fiber_sum", "knot_surgery", "null_log_transform", "connected_sum",
             "fiber_sum_chain", "surgered_chain")
    for name in names:
        def counting(*args, name=name, builder=getattr(cli, name)):
            calls[name] += 1
            return builder(*args)
        monkeypatch.setattr(cli, name, counting)
    k3 = {"block": "K3"}
    for doc in (
        {"fsum": {"left": k3, "lt": "T1", "right": k3, "rt": "T2"}},
        {"surgery": {"on": k3, "torus": "T1", "braid": TREFOIL_BRAID}},
        {"logt": {"on": k3, "torus": "T1"}},
        {"csum": [k3, {"block": "CP2"}]},
        {"XN": 2},
        y_doc([TREFOIL_BRAID]),
    ):
        parse_construction(doc)
    assert calls == dict.fromkeys(names, 1)


def test_sw_determinism(tmp_path, capsys):
    path = write(tmp_path, "y.json", y_doc([TREFOIL_BRAID, UNKNOT_BRAID], n=2))
    main(["sw", path])
    first = capsys.readouterr().out
    main(["sw", path])
    second = capsys.readouterr().out
    assert first == second


def test_sw_vanishing_sum_reports_zero(tmp_path, capsys):
    doc = {"csum": [{"block": "K3"}, {"block": "S2twS2"}]}
    assert main(["sw", write(tmp_path, "cs.json", doc)]) == 0
    assert capsys.readouterr().out == (
        "0\n"
        '{"a0": 0, "coeffs": [], "count": 0, "lattice": [], "pairs": [], '
        '"rank": 0, "series": "0"}\n'
    )


@pytest.mark.parametrize("kind", ["CP2", "CP2bar", "S2xS2", "S2twS2"])
def test_sw_rational_block_exit_3(tmp_path, capsys, kind):
    assert main(["sw", write(tmp_path, "b.json", {"block": kind})]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rational block" in captured.err


def _escaped_names_tree():
    """One series over names JSON leaves bare ("A", "T1") and names it
    escapes (a quote, a backslash, non-ASCII, DEL), so sw encodes its text."""
    trefoil, figure_eight = BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))
    left = knot_surgery(Block("K3", ("A", 'B"', "C\\")), 'B"', trefoil)
    right = knot_surgery(Block("K3", ("T1", "Dé", "E\x7f")), "Dé", figure_eight)
    return knot_surgery(fiber_sum(left, "A", right, "T1"), "E\x7f", trefoil)


CLI_TREES = {
    **sw_trees(),
    **{f"seeded chain {i}": c for i, c in enumerate(seeded_chains(20261017))},
    "escaped names": _escaped_names_tree(),
}


# Every corpus tree, including those the SW engine refuses.
ALL_TREES = {**CLI_TREES, **{name: c for name, (c, _) in refused_sw_trees().items()}}


def test_corpus_trees_round_trip():
    for name, c in ALL_TREES.items():
        assert parse_construction(construction_to_doc(c)) == c, name


@pytest.mark.parametrize("name", list(CLI_TREES))
def test_sw_stdout_matches_dense_oracle(tmp_path, capsys, name):
    c = CLI_TREES[name]
    path = write(tmp_path, "c.json", construction_to_doc(c))
    assert main(["sw", path]) == 0
    assert capsys.readouterr().out == dense_sw_stdout(c, as_json=False)
    assert main(["--json", "sw", path]) == 0
    assert capsys.readouterr().out == dense_sw_stdout(c, as_json=True)


def test_sw_chain_of_five_matches_report_json(tmp_path, capsys):
    # Ten factors of three terms (the unknot's factor is 1): 59,049 terms.
    # The writer's bytes against the dense expansion and the library's
    # dict view, each encoded by json.dumps.
    knots = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))] * 3
    c = surgered_chain(5, knots[:5], BraidWord(1, ()), knots[1])
    assert sw_factors(c).term_count() == 59_049
    assert main(["sw", write(tmp_path, "c.json", construction_to_doc(c))]) == 0
    report = json.dumps(sw_report(c).to_json(), sort_keys=True, separators=(", ", ": "))
    assert capsys.readouterr().out == f"{dense_text(sw_factors(c).expand())}\n{report}\n"


def chain_of_four():
    """surgered_chain(4) on trefoils and figure eights: nine three-term
    factors, 19,683 terms, about 3.5 MB of stdout."""
    knots = [CHAIN_KNOTS[1], CHAIN_KNOTS[2]] * 3
    return surgered_chain(4, knots[:4], knots[4], knots[5])


def test_sw_writes_long_texts_without_encoding_them(tmp_path, capsys, monkeypatch):
    # The series text, the pairs and the coeffs are written, never
    # encoded: _emit and json.dumps refuse any text or list over 1,000
    # long, and the bytes still equal those of the library's dict view.
    c = chain_of_four()
    path = write(tmp_path, "c.json", construction_to_doc(c))
    text, report = str(sw_factors(c)), sw_report(c).to_json()
    expected = {
        (): f"{text}\n{_emit(report)}\n",
        ("--json",): _emit({"series": text, "report": report}) + "\n",
    }

    def refusing(encode):
        def encode_short(data, *args, **kwargs):
            if isinstance(data, (str, list, tuple)) and len(data) > 1000:
                raise AssertionError(f"encoded a {type(data).__name__} of {len(data)}")
            return encode(data, *args, **kwargs)

        return encode_short

    monkeypatch.setattr(json, "dumps", refusing(json.dumps))
    monkeypatch.setattr(cli, "_emit", refusing(cli._emit))
    for flags, out in expected.items():
        assert main([*flags, "sw", path]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_sw_over_term_budget_exit_3(tmp_path, capsys, monkeypatch, flags):
    # The budget is read from the factors: over it, no report is built and
    # no term is expanded or written.
    def expands(*args):
        raise AssertionError("the series was read term by term")

    for name in ("__str__", "sorted_terms", "expand"):
        monkeypatch.setattr(FactoredSeries, name, expands)
    monkeypatch.setattr(cli, "factored_report", expands)
    code = main(flags + ["sw", write(tmp_path, "x.json", {"XN": 14})])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: the series has 1594323 terms, over the budget of 1000000\n"
    )


def test_term_budget_boundary(tmp_path, capsys, monkeypatch):
    # The series of {"XN": 3} has 3 * 3 = 9 terms.
    path = write(tmp_path, "x.json", {"XN": 3})
    monkeypatch.setattr(swseries, "TERM_BUDGET", 9)
    for flags in ([], ["--json"]):
        assert main(flags + ["sw", path]) == 0
        assert capsys.readouterr().out == dense_sw_stdout(fiber_sum_chain(3), flags != [])
    monkeypatch.setattr(swseries, "TERM_BUDGET", 8)
    for flags in ([], ["--json"]):
        assert main(flags + ["sw", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the series has 9 terms, over the budget of 8\n"


@pytest.mark.parametrize("name", sorted(refused_sw_trees()))
def test_sw_refused_trees_exit_3(tmp_path, capsys, name):
    c, _ = refused_sw_trees()[name]
    assert main(["sw", write(tmp_path, "c.json", construction_to_doc(c))]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, doc, err",
    [
        (
            "stabilize",
            {"csum": [{"XN": 300}, {"XN": 300}]},
            "outside the stabilization grammar: a sum of 2 K3 chains",
        ),
        (
            "sw",
            {"logt": {"on": {"XN": 600}, "torus": "T[1,2]"}},
            "no gluing formula for a null log transform at torus 'T[1,2]'",
        ),
        (
            "sw",
            {"csum": [{"XN": 300}, {"block": "CP2bar"}]},
            "no formula for a connected sum with b2+ = 0 on the right summand "
            "(a blow-up formula would be needed)",
        ),
    ],
    ids=["stabilize-two-chains", "sw-log-transform", "sw-blowup-sum"],
)
def test_big_tree_refusal_is_one_short_line(tmp_path, capsys, command, doc, err):
    # A refusal names the refused node, never the whole tree.
    assert main([command, write(tmp_path, "big.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"
    assert len(captured.err.encode()) <= 200


# ------------------------------------------------------------ argument errors


@pytest.mark.parametrize(
    "argv",
    [
        # A word that starts with an inverse letter reads as an option;
        # --word=-1,2,-1,2 passes it.
        ["alexander", "--strands", "3", "--word", "-1,2,-1,2"],
        ["alexander", "--strands", "x"],
        ["sw"],
        [],
        ["bogus"],
    ],
    ids=["word-as-option", "strands-not-int", "sw-no-file", "no-command", "unknown-command"],
)
def test_argument_errors_are_one_line(capsys, argv):
    # The shape only: argparse's wording differs across Python versions.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_inverse_first_word_passed_with_equals(capsys):
    assert main(["alexander", "--strands", "3", "--word=-1,2,-1,2"]) == 0
    assert capsys.readouterr().out == "-t + 3 - t^-1\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["alexander", "-h"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: fibersum alexander ")
    assert captured.err == ""


# ------------------------------------------------------------------ alexander


def test_alexander_trefoil(capsys):
    assert main(["alexander", "--strands", "2", "--word", "1,1,1"]) == 0
    assert capsys.readouterr().out == "t - 1 + t^-1\n"


def test_alexander_unknot(capsys):
    assert main(["alexander", "--strands", "1", "--word", ""]) == 0
    assert capsys.readouterr().out == "1\n"


def test_alexander_link_exit_4(capsys):
    assert main(["alexander", "--strands", "2", "--word", "1,1"]) == 4
    capsys.readouterr()


def test_alexander_huge_split_braid_exit_4(capsys):
    # The strands the word never moves are counted, not allocated.
    assert main(["alexander", "--strands", "1000000000", "--word", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closure of 1000000000; 1 has 999999999 components\n"


def test_alexander_far_letter_exit_4(capsys):
    # Only the positions the word touches are tracked, so a letter at
    # 10^12 costs what a letter at 1 does.
    strands, letter = 10**12 + 1, 10**12
    assert main(["alexander", "--strands", str(strands), "--word", str(letter)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: closure of {strands}; {letter} has {letter} components\n"


def test_alexander_bad_letter_exit_2(capsys):
    assert main(["alexander", "--strands", "2", "--word", "3"]) == 2
    capsys.readouterr()


def test_alexander_non_integer_letter_exit_2(capsys):
    assert main(["alexander", "--strands", "2", "--word", "1,a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --word") and captured.err.count("\n") == 1


def test_alexander_over_budget_exit_3(tmp_path, capsys):
    # The 100-strand unknot braid: 9,900 strands x letters, refused at once.
    word = ",".join(str(i) for i in range(1, 100))
    start = time.perf_counter()
    assert main(["alexander", "--strands", "100", "--word", word]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 100 strands x 99 letters is over the Burau budget of 2500\n"
    )
    # The same braid in a surgery slot, and the 2,502 of T(2, 1251).
    braid = {"strands": 100, "word": list(range(1, 100))}
    doc = {"surgery": {"on": {"block": "K3"}, "torus": "T1", "braid": braid}}
    assert main(["sw", write(tmp_path, "s.json", doc)]) == 3
    assert main(["alexander", "--strands", "2", "--word", ",".join(["1"] * 1251)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 2


# --------------------------------------------------------------------- family


def test_family_report(tmp_path, capsys):
    slots = {"T[1,2]": [UNKNOT_BRAID, TREFOIL_BRAID]}
    code = main(["family", "--N", "1", "--slots", write(tmp_path, "s.json", slots)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(data["members"]) == 2
    assert data["pairwise"] == [
        {"distinct": True, "homotopy": True, "i": 0, "j": 1, "one_stab": True}
    ]


def test_family_term_budget(tmp_path, capsys, monkeypatch):
    # Members on a 2-chain: 3 terms with the unknot, 9 with the trefoil.
    slots = write(tmp_path, "s.json", {"T[1,2]": [UNKNOT_BRAID, TREFOIL_BRAID]})
    monkeypatch.setattr(swseries, "TERM_BUDGET", 9)
    assert main(["family", "--N", "2", "--slots", slots]) == 0
    members = json.loads(capsys.readouterr().out)["members"]
    assert [m["sw_string"].count("exp(") for m in members] == [2, 8]
    monkeypatch.setattr(swseries, "TERM_BUDGET", 8)
    assert main(["family", "--N", "2", "--slots", slots]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the series has 9 terms, over the budget of 8\n"


def test_family_unknown_torus_exit_5(tmp_path, capsys):
    slots = {"T[9,9]": [UNKNOT_BRAID]}
    code = main(["family", "--N", "1", "--slots", write(tmp_path, "s.json", slots)])
    assert code == 5
    capsys.readouterr()


def _one_error_line(argv, capsys, err):
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize(
    "slots, err",
    [
        ({"a\nb": [{"strands": "x", "word": []}]},
         '$["a\\nb"][0]: braid needs integer strands and letters'),
        ({"a\nb": 1}, '$["a\\nb"]: expected a list of braids'),
        ({"T[1,2]": [UNKNOT_BRAID, {"strands": 2}]},
         '$["T[1,2]"][1]: expected {"strands": n, "word": [...]}'),
    ],
    ids=["newline-braid", "newline-list", "plain"],
)
def test_family_slot_error_is_one_line(tmp_path, capsys, slots, err):
    # The slot name is JSON-quoted in the path, so no name splits the line.
    _one_error_line(["family", "--N", "1", "--slots", write(tmp_path, "s.json", slots)],
                    capsys, err)


def test_family_budget_boundary(tmp_path, capsys, monkeypatch):
    # The budget bounds the product of the slot sizes.
    monkeypatch.setattr(families, "FAMILY_BUDGET", 4)
    two = [UNKNOT_BRAID, TREFOIL_BRAID]
    slots = write(tmp_path, "s.json", {"T[1,2]": two, "T[1,1]": two})
    assert main(["family", "--N", "1", "--slots", slots]) == 0
    assert len(json.loads(capsys.readouterr().out)["members"]) == 4
    slots = write(tmp_path, "s.json", {"T[1,2]": two, "T[1,1]": two + [UNKNOT_BRAID]})
    assert main(["family", "--N", "1", "--slots", slots]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 6 members is over the budget of 4\n"
    # From the library: refused before the chain or any member is built.
    with pytest.raises(FamilyTooLarge, match=r"^5 members is over the budget of 4$"):
        family_generate(10**12, {"T[1,2]": [BraidWord(1)] * 5})


@pytest.mark.parametrize("n", [0, -1])
def test_family_chain_size_exit_2(tmp_path, capsys, n):
    slots = write(tmp_path, "s.json", {"T[1,2]": [UNKNOT_BRAID]})
    _one_error_line(["family", "--N", str(n), "--slots", slots], capsys,
                    "--N: the chain needs at least one block")


# -------------------------------------------------------------------- compare


def test_compare_family_members(tmp_path, capsys):
    a = write(tmp_path, "a.json", y_doc([TREFOIL_BRAID]))
    b = write(tmp_path, "b.json", y_doc([UNKNOT_BRAID]))
    assert main(["compare", a, b]) == 0
    assert (
        capsys.readouterr().out
        == "homotopy:true distinct:true one_stab:true\n"
    )


def test_compare_different_chains(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"XN": 2})
    b = write(tmp_path, "b.json", {"XN": 3})
    assert main(["--json", "compare", a, b]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["homotopy"] is False and data["one_stab"] is False


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_compare_large_chains_needs_no_expansion(tmp_path, capsys, monkeypatch, flags):
    # 3^18 terms each: the fingerprints are compared as coefficient runs,
    # so nothing is expanded, not even the runs.
    def expands(*args):
        raise AssertionError("the series was expanded")

    for name in ("sorted_terms", "expand"):
        monkeypatch.setattr(FactoredSeries, name, expands)
    monkeypatch.setattr(swseries, "_expand_runs", expands)
    path = write(tmp_path, "x.json", {"XN": 19})
    assert main(flags + ["compare", path, path]) == 0
    out = capsys.readouterr().out
    if flags:
        assert json.loads(out) == {"homotopy": True, "distinct": False, "one_stab": True}
    else:
        assert out == "homotopy:true distinct:false one_stab:true\n"


def test_compare_stabilized_members(tmp_path, capsys):
    a = {"csum": [y_doc([TREFOIL_BRAID]), {"block": "S2twS2"}]}
    b = {"csum": [y_doc([UNKNOT_BRAID]), {"block": "S2twS2"}]}
    assert main(["compare", write(tmp_path, "a.json", a), write(tmp_path, "b.json", b)]) == 0
    assert capsys.readouterr().out == "homotopy:true distinct:false one_stab:true\n"


# ------------------------------------------------------------------- stabilize


def test_stabilize_text(tmp_path, capsys):
    assert main(["stabilize", write(tmp_path, "x.json", {"XN": 1})]) == 0
    assert capsys.readouterr().out == "#4 CP2 # 20 CP2bar\n"


def test_stabilize_json_round_trip(tmp_path, capsys):
    path = write(tmp_path, "y.json", y_doc([TREFOIL_BRAID]))
    assert main(["--json", "stabilize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    reparsed = parse_construction(doc)
    unknot = BraidWord(1, ())
    expected = stable_normal_form(
        surgered_chain(1, [BraidWord(2, (1, 1, 1))], unknot, unknot)
    )
    assert reparsed == rational_chain(*expected)


@pytest.mark.parametrize("n", [21, 48])
def test_stabilize_json_deep_chain(tmp_path, capsys, n):
    # Deeper than the recursion limit allows a nested tree to be written.
    assert main(["--json", "stabilize", write(tmp_path, "x.json", {"XN": n})]) == 0
    out = capsys.readouterr().out
    assert out.count('{"block": ') == 24 * n
    assert out.count('{"csum": [') == 24 * n - 1


def test_stabilize_text_deep_chain(tmp_path, capsys):
    assert main(["stabilize", write(tmp_path, "x.json", {"XN": 48})]) == 0
    assert capsys.readouterr().out == "#192 CP2 # 960 CP2bar\n"


def _tree_doc_text(cp2, cp2bar):
    """_emit(construction_to_doc(...)) of the canonical tree, with the
    recursion limit raised for its nesting depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * (cp2 + cp2bar)))
    try:
        return _emit(construction_to_doc(rational_chain(cp2, cp2bar))) + "\n"
    finally:
        sys.setrecursionlimit(limit)


def test_stabilize_json_is_the_tree_document(tmp_path, capsys):
    knots = [{"strands": b.strands, "word": list(b.word)} for b in CHAIN_KNOTS]
    docs = {name: construction_to_doc(c) for name, c in ALL_TREES.items()}
    for n in range(1, 21):
        docs[f"XN {n}"] = {"XN": n}
        mid = [knots[(n + i) % len(knots)] for i in range(n)]
        docs[f"Y {n}"] = y_doc(mid, knots[n % len(knots)], knots[0], n=n)
    for name, doc in docs.items():
        path = write(tmp_path, "c.json", doc)
        try:
            counts = stable_normal_form(parse_construction(doc))
        except UnsupportedNode:
            assert main(["--json", "stabilize", path]) == 3, name
            assert capsys.readouterr().out == "", name
            continue
        assert main(["--json", "stabilize", path]) == 0, name
        assert capsys.readouterr().out == _tree_doc_text(*counts), name


def test_normal_form_text_omits_zero_counts():
    assert normal_form_text(0, 1) == "#1 CP2bar"
    assert normal_form_text(1, 0) == "#1 CP2"
    assert normal_form_text(1, 1) == "#1 CP2 # 1 CP2bar"


# ----------------------------------------------------------------- documents


def test_document_round_trip():
    y = surgered_chain(
        2,
        [BraidWord(2, (1, 1, 1)), BraidWord(1, ())],
        BraidWord(1, ()),
        BraidWord(3, (1, -2, 1, -2)),
    )
    assert parse_construction(construction_to_doc(y)) == y
    transformed = null_log_transform(fiber_sum_chain(2), "T[1,2]")
    assert parse_construction(construction_to_doc(transformed)) == transformed


def test_document_error_paths():
    with pytest.raises(DocumentError) as info:
        parse_construction({"csum": [{"block": "K3"}, {"block": "Nope"}]})
    assert "csum[1]" in str(info.value)
    with pytest.raises(DocumentError) as info:
        parse_construction(
            {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]",
                         "braid": {"strands": 2, "word": [5]}}}
        )
    assert "braid" in str(info.value)
    # Each node refuses a malformed payload at its own path; no TypeError
    # or KeyError escapes the parser.
    y_junk = {"N": 1, "mid": None, "first": 1, "last": 1}
    for key in ("csum", "fsum", "surgery", "logt", "XN", "Y"):
        for payload in (None, 1.5, "x", [], {}, {"left": 1}, [{"block": "K3"}], y_junk):
            with pytest.raises(DocumentError, match=rf"^\$\.{key}"):
                parse_construction({key: payload})


@pytest.mark.parametrize(
    "doc, err",
    [
        ({"XN": 0}, "$.XN: the chain needs at least one block"),
        ({"XN": -3}, "$.XN: the chain needs at least one block"),
        (y_doc([], n=0), "$.Y.N: the chain needs at least one block"),
        ({"csum": [{"block": "K3"}, y_doc([], n=2)]},
         "$.csum[1].Y.mid: expected 2 middle knots, got 0"),
        (y_doc([UNKNOT_BRAID] * 3, n=2), "$.Y.mid: expected 2 middle knots, got 3"),
    ],
    ids=["XN-0", "XN-negative", "Y-N-0", "Y-mid-short", "Y-mid-long"],
)
def test_chain_size_exit_2_with_path(tmp_path, capsys, doc, err):
    # Checked before anything is built, at the document path.
    _one_error_line(["invariants", write(tmp_path, "c.json", doc)], capsys, err)


def test_file_name_errors_are_one_line(tmp_path, capsys):
    # The file name is JSON-quoted, so a newline in it cannot split the line.
    missing = str(tmp_path / "no\nfile.json")
    _one_error_line(["sw", missing], capsys,
                    f"cannot read {_emit(missing)}: No such file or directory")
    bad = tmp_path / "bad\nname.json"
    bad.write_text("{not json")
    _one_error_line(["sw", str(bad)], capsys,
                    f"{_emit(str(bad))}: invalid JSON: Expecting property name "
                    "enclosed in double quotes: line 1 column 2 (char 1)")


@pytest.mark.parametrize(
    "data",
    [b'{"XN": 1}\xff', b'{"XN": ' + b"9" * 5000 + b"}"],
    ids=["not-utf-8", "5000-digits"],
)
@pytest.mark.parametrize(
    "command", [["invariants"], ["family", "--N", "1", "--slots"]], ids=["invariants", "family"]
)
def test_file_that_is_not_utf8_json_exit_2(tmp_path, capsys, data, command):
    # Read as UTF-8 whatever the locale; a byte that is not UTF-8 and an
    # integer over the interpreter's digit limit are both invalid JSON.
    path = tmp_path / "d.json"
    path.write_bytes(data)
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {_emit(str(path))}: invalid JSON: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def _bool_document_exit_2(tmp_path, capsys, doc, where):
    assert main(["invariants", write(tmp_path, "b.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert where in captured.err


def test_bool_chain_length_exit_2(tmp_path, capsys):
    _bool_document_exit_2(tmp_path, capsys, {"XN": True}, "$.XN")


def test_bool_y_size_exit_2(tmp_path, capsys):
    _bool_document_exit_2(tmp_path, capsys, y_doc([TREFOIL_BRAID], n=True), "$.Y.N")


def test_bool_braid_strands_exit_2(tmp_path, capsys):
    braid = {"strands": True, "word": []}
    _bool_document_exit_2(tmp_path, capsys, y_doc([braid]), "$.Y.mid[0]")


def test_bool_braid_letter_exit_2(tmp_path, capsys):
    braid = {"strands": 2, "word": [1, True, 1]}
    doc = {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]", "braid": braid}}
    _bool_document_exit_2(tmp_path, capsys, doc, "$.surgery.braid")


@pytest.mark.parametrize(
    "bad",
    ["", "A B", "A\tB", "A+B", "A-B", "2*A", "A(", "A)", "A^2"],
    ids=["empty", "space", "tab", "plus", "minus", "star", "open", "close", "caret"],
)
def test_unwritable_torus_name_exit_2(tmp_path, capsys, bad):
    tori = ["T1", "T2", "T3"]
    tori[1] = bad
    doc = {"block": "K3", "tori": tori}
    assert main(["sw", write(tmp_path, "t.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: $.tori[1]: torus name")


def test_repeated_torus_name_exit_2(tmp_path, capsys):
    doc = {"block": "K3", "tori": ["B", "B", "C"]}
    assert main(["sw", write(tmp_path, "t.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.tori[1]: torus name 'B' repeats\n"


def test_admitted_torus_names_round_trip(tmp_path, capsys):
    names = ['A"', "B\\", "Cé"]
    doc = {"surgery": {"on": {"block": "K3", "tori": names}, "torus": "B\\",
                       "braid": TREFOIL_BRAID}}
    assert main(["sw", write(tmp_path, "t.json", doc)]) == 0
    text = capsys.readouterr().out.splitlines()[0]
    series = sw_factors(parse_construction(doc))
    assert text == "exp(2*B\\) - 1 + exp(-2*B\\)"
    assert GroupRingElt.parse(text) == series


# Every torus name a K3 block admits: nonempty, with no whitespace and
# none of + - * ( ) ^.
admitted_names = st.text(
    st.characters(exclude_characters="+-*()^", exclude_categories=("Cs",)),
    min_size=1,
    max_size=4,
).filter(lambda name: not any(ch.isspace() for ch in name))


@st.composite
def library_trees(draw, depth=3):
    """Trees built through the library builders, on K3 blocks whose tori
    take admitted names."""
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(BLOCK_NAMES))
        if kind != "K3":
            return block(kind)
        names = draw(st.lists(admitted_names, min_size=3, max_size=3, unique=True))
        return Block("K3", tuple(names))
    left = draw(library_trees(depth - 1))
    op = draw(st.sampled_from(["csum", "fsum", "surgery", "logt"]))
    if op in ("surgery", "logt"):
        free = available_tori(left)
        if not free:
            return left
        torus = draw(st.sampled_from(free))
        if op == "logt":
            return null_log_transform(left, torus)
        return knot_surgery(left, torus, BraidWord(2, (1, 1, 1)))
    right = draw(library_trees(depth - 1))
    left_free, right_free = available_tori(left), available_tori(right)
    if op == "csum" or not left_free or not right_free:
        return connected_sum(left, right)
    return fiber_sum(
        left, draw(st.sampled_from(left_free)), right, draw(st.sampled_from(right_free))
    )


@settings(max_examples=150, deadline=None)
@given(library_trees())
def test_property_library_tree_document_round_trip(tree):
    doc = json.loads(json.dumps(construction_to_doc(tree)))
    assert parse_construction(doc) == tree


@pytest.mark.parametrize(
    "text, err",
    [
        # A chain past DEPTH_LIMIT is refused before it is built.
        (json.dumps({"XN": 990}), r"\$\.XN: tree depth 990 is over the limit 800"),
        # 3,000 levels of JSON nesting: the decoder's own depth refusal,
        # whose depth depends on the interpreter, or else the parser's.
        (
            '{"csum": [' * 1500 + '{"block": "K3"}' + ', {"block": "CP2"}]}' * 1500,
            r'".*deep\.json": invalid JSON: .*|\$(\.csum\[0\]){800}: '
            r"tree depth 801 is over the limit 800",
        ),
    ],
    ids=["XN-990", "csum-1500"],
)
def test_too_deep_tree_exit_2(tmp_path, capsys, text, err):
    # The run ends with one error line, not a traceback.
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: ({err})\n", captured.err)


def _nested_fsum_chain(levels: int) -> dict:
    """A chain of levels - 1 nested fsum nodes over K3 blocks, built in
    process, so no JSON decoder limits its depth: levels tree levels."""
    doc = {"block": "K3", "tori": ["T[1,1]", "T[1,2]", "T[1,3]"]}
    for alpha in range(1, levels):
        right = {"block": "K3", "tori": [f"T[{alpha + 1},{i}]" for i in (1, 2, 3)]}
        doc = {"fsum": {"left": doc, "lt": f"T[{alpha},3]", "right": right,
                        "rt": f"T[{alpha + 1},1]"}}
    return doc


def test_document_depth_limit_on_every_python():
    # The parser counts the document's own nesting and refuses the first
    # node past DEPTH_LIMIT before it reads that node, whatever the
    # interpreter's recursion limit.  Documents built in process meet no
    # JSON decoder.  800 levels of unknot surgeries build in well under a
    # second (an fsum chain as deep takes seconds).
    doc = {"block": "K3"}
    for _ in range(DEPTH_LIMIT - 1):
        doc = {"surgery": {"on": doc, "torus": "T1", "braid": UNKNOT_BRAID}}
    tree = parse_construction(doc)
    assert available_tori(tree) == ("T1", "T2", "T3")
    assert sw_factors(tree) == FactoredSeries.one()
    over = {"logt": {"on": doc, "torus": "T1"}}
    with pytest.raises(DocumentError) as info:
        parse_construction(over)
    path = "$.logt.on" + ".surgery.on" * (DEPTH_LIMIT - 1)
    assert str(info.value) == f"{path}: tree depth 801 is over the limit 800"
    with pytest.raises(DocumentError) as info:
        parse_construction(_nested_fsum_chain(DEPTH_LIMIT + 1))
    path = "$" + ".fsum.left" * DEPTH_LIMIT
    assert str(info.value) == f"{path}: tree depth 801 is over the limit 800"
    # Counted from the document's root, through any node kind.
    with pytest.raises(DocumentError, match=r"^\$\.csum\[1\](\.surgery\.on){799}: tree depth 801 "):
        parse_construction({"csum": [{"block": "K3"}, doc]})


def test_depth_limit_boundary(tmp_path, capsys, monkeypatch):
    # XN builds N levels, Y builds 2N + 2, a family N plus its slots.
    monkeypatch.setattr(cli, "DEPTH_LIMIT", 4)
    slots = write(tmp_path, "s.json", {"T[1,2]": [UNKNOT_BRAID], "T[1,1]": [UNKNOT_BRAID]})
    admitted = [
        ["invariants", write(tmp_path, "x.json", {"XN": 4})],
        ["invariants", write(tmp_path, "y.json", y_doc([UNKNOT_BRAID]))],
        ["family", "--N", "2", "--slots", slots],
    ]
    for argv in admitted:
        assert main(argv) == 0, argv
    capsys.readouterr()
    refused = [
        (["invariants", write(tmp_path, "x.json", {"XN": 5})], "$.XN: tree depth 5"),
        (
            ["stabilize", write(tmp_path, "y.json", {"csum": [{"block": "K3"}, y_doc([], n=2)]})],
            "$.csum[1].Y.N: tree depth 6",
        ),
        (["family", "--N", "3", "--slots", slots], "--N: tree depth 5"),
    ]
    for argv, err in refused:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err} is over the limit 4\n"
    # From the library: refused before anything is built.
    with pytest.raises(DocumentError, match=r"^\$\.XN: tree depth 1000000000000 is over"):
        parse_construction({"XN": 10**12})


def test_depth_limit_tree_completes(tmp_path, capsys):
    # The deepest admitted chain builds and evaluates.  No walk takes a
    # frame per level; the time, all of it building, is quadratic in depth.
    assert DEPTH_LIMIT == 800
    assert main(["invariants", write(tmp_path, "x.json", {"XN": DEPTH_LIMIT})]) == 0
    assert capsys.readouterr().out.startswith(f"chi={24 * DEPTH_LIMIT} ")


def _read_then_close(args, size):
    """Run the CLI, read size bytes of its stdout, close it, and return
    (exit code, stderr)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
        [sys.executable, "-m", "fibersum.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert len(proc.stdout.read(size)) == size
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), err


def test_closed_stdout_ends_quietly(tmp_path):
    # About 1 MB of output: far more than a pipe buffers, so the writer is
    # still writing when the reader goes away.
    assert _read_then_close(["sw", write(tmp_path, "x.json", {"XN": 10})], 150) == (0, b"")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_closed_stdout_on_a_chain_of_four_ends_quietly(tmp_path, flags):
    # sw writes its 3.5 MB in one writelines; the reader takes 100 bytes.
    path = write(tmp_path, "c.json", construction_to_doc(chain_of_four()))
    assert _read_then_close([*flags, "sw", path], 100) == (0, b"")


# Documents for the exit-code contract: arbitrary JSON values, and
# grammar-shaped trees whose names, kinds and sizes may not fit together.
# Chain sizes include a few over DEPTH_LIMIT, which are refused unbuilt.
# Node keys first, then the keys of their payloads.
DOC_KEYS = ["block", "tori", "csum", "fsum", "surgery", "logt", "XN", "Y"] + [
    "left", "lt", "right", "rt", "on", "torus", "braid", "strands", "word", "N", "mid"
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(DOC_KEYS) | st.text(max_size=2),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)
torus_names = st.sampled_from(["T1", "T2", "T3", "T[1,1]", "T[1,2]", "T[2,1]", "R:T1", "A"])
braid_docs = st.builds(
    lambda n, word: {"strands": n, "word": word},
    st.sampled_from([2, 3, 1]),
    st.lists(st.sampled_from([1, -1, 2]), max_size=4),
)
chain_sizes = st.sampled_from([1, 2, 3, 0, -1, 1, 2, DEPTH_LIMIT + 1, 10**12])
block_kinds = st.sampled_from(("K3",) * 4 + BLOCK_NAMES + ("K4",))
grammar_docs = st.recursive(
    st.builds(lambda kind: {"block": kind}, block_kinds)
    | st.builds(
        lambda tori: {"block": "K3", "tori": tori},
        st.lists(torus_names, min_size=3, max_size=4),
    )
    | st.builds(lambda n: {"XN": n}, chain_sizes)
    | st.builds(lambda key, value: {key: value}, st.sampled_from(DOC_KEYS[:8]), json_values)
    | st.builds(
        lambda n, mid, first, last: {"Y": {"N": n, "mid": mid, "first": first, "last": last}},
        chain_sizes,
        st.lists(braid_docs, max_size=3),
        braid_docs,
        braid_docs,
    ),
    lambda inner: st.builds(lambda a, b: {"csum": [a, b]}, inner, inner)
    | st.builds(
        lambda a, lt, b, rt: {"fsum": {"left": a, "lt": lt, "right": b, "rt": rt}},
        inner,
        torus_names,
        inner,
        torus_names,
    )
    | st.builds(
        lambda a, t, b: {"surgery": {"on": a, "torus": t, "braid": b}},
        inner,
        torus_names,
        braid_docs,
    )
    | st.builds(lambda a, t: {"logt": {"on": a, "torus": t}}, inner, torus_names),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["invariants", "stabilize", "sw", "compare"]),
    st.lists(st.one_of(grammar_docs, grammar_docs, json_values), min_size=2, max_size=2),
    st.booleans(),
)
def test_property_every_document_exits_with_one_line(command, docs, as_json):
    # No exception escapes main: every run exits with a documented code,
    # and a refusal writes nothing to stdout and one "error: " line.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs[: 2 if command == "compare" else 1]):
            paths.append(os.path.join(tmp, f"{i}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main((["--json"] if as_json else []) + [command] + paths)
    assert code in {0, 2, 3, 4, 5}
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


@settings(max_examples=300, deadline=None)
@given(grammar_docs)
def test_property_parse_refusals_name_their_node(doc):
    # Every refusal of the parser, a builder's included, starts with the
    # path of the node it refuses.
    try:
        parse_construction(doc)
    except CalculusError as exc:
        assert str(exc).startswith("$"), str(exc)
