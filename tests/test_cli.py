"""The command line surface: output formats, exit codes, round-trips."""

import json
import sys

import pytest

from corpus import CHAIN_KNOTS, rational_chain, refused_sw_trees, seeded_chains, sw_trees
from dense_oracle import dense_sw_stdout
from fibersum import BraidWord, fiber_sum_chain, null_log_transform, stable_normal_form, surgered_chain
from fibersum.cli import _emit, construction_to_doc, main, normal_form_text, parse_construction
from fibersum.errors import UnsupportedNode

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


def test_sw_consumed_torus_exit_5(tmp_path, capsys):
    doc = {"surgery": {"on": {"XN": 2}, "torus": "T[1,3]", "braid": TREFOIL_BRAID}}
    assert main(["sw", write(tmp_path, "s.json", doc)]) == 5
    capsys.readouterr()


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


CLI_TREES = {
    **sw_trees(),
    **{f"seeded chain {i}": c for i, c in enumerate(seeded_chains(20261017))},
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


@pytest.mark.parametrize("name", sorted(refused_sw_trees()))
def test_sw_refused_trees_exit_3(tmp_path, capsys, name):
    c, _ = refused_sw_trees()[name]
    assert main(["sw", write(tmp_path, "c.json", construction_to_doc(c))]) == 3
    assert capsys.readouterr().out == ""


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


def test_alexander_bad_letter_exit_2(capsys):
    assert main(["alexander", "--strands", "2", "--word", "3"]) == 2
    capsys.readouterr()


def test_alexander_non_integer_letter_exit_2(capsys):
    assert main(["alexander", "--strands", "2", "--word", "1,a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --word") and captured.err.count("\n") == 1


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


def test_family_unknown_torus_exit_5(tmp_path, capsys):
    slots = {"T[9,9]": [UNKNOT_BRAID]}
    code = main(["family", "--N", "1", "--slots", write(tmp_path, "s.json", slots)])
    assert code == 5
    capsys.readouterr()


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
    from fibersum.errors import DocumentError

    with pytest.raises(DocumentError) as info:
        parse_construction({"csum": [{"block": "K3"}, {"block": "Nope"}]})
    assert "csum[1]" in str(info.value)
    with pytest.raises(DocumentError) as info:
        parse_construction(
            {"surgery": {"on": {"XN": 1}, "torus": "T[1,2]",
                         "braid": {"strands": 2, "word": [5]}}}
        )
    assert "braid" in str(info.value)


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
