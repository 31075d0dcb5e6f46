"""CLI contract: exit codes, fixture handling, golden files, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check-liesuper


def test_check_liesuper_pass(capsys):
    code, out, _ = run(["check-liesuper", fx("gl11_lie.json")], capsys)
    assert code == 0 and out.startswith("PASS")


def test_check_liesuper_tampered_jacobi(capsys):
    # the Jacobi and 2-operation lines name the least basis key each
    # relation of the adjoint action fails on
    code, out, _ = run(["check-liesuper", fx("tampered_lie.json"), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["failures"] == [
        "(a) [Y1+Y2,[Y1+Y2,Y1+Y2]] != 0",
        "(c) Jacobi fails on (X2,Y1,Y2)",
        "(c) Jacobi fails on (X2,Y2,Y1)",
        "(c) Jacobi fails on (Y1,Y1,Y2)",
        "(c) Jacobi fails on (Y1,Y2,X2)",
        "(f) [z^<2>,x]=[z,[z,x]] fails on (z=Y1, x=Y2)",
        "(c) Jacobi fails on (Y2,Y1,X2)",
    ]


def test_check_liesuper_flipped_bracket_with_rho(capsys):
    code, out, _ = run(["check-liesuper", fx("flipped_bracket_lie.json")], capsys)
    assert code == 1 and "rho[Y" in out


def test_check_liesuper_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 2 and "schema error" in err


def test_check_liesuper_unknown_key(tmp_path, capsys):
    with open(fx("gl11_lie.json")) as fh:
        doc = json.load(fh)
    doc["surprise"] = 1
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 2 and "unknown keys" in err


_BAD_EO = [[["zz", "0"], ["0", "-1"]], [["0", "0"], ["0", "1"]]]


@pytest.mark.parametrize("key,value", [
    ("field", "F" + "9" * 400),
    ("field", "F" + "9" * 5000),
    ("ee", 5),
    ("shape", 5),
    ("eo", _BAD_EO),
], ids=["F400digits", "F5000digits", "ee-int", "shape-int", "bad-literal"])
def test_check_liesuper_malformed_constants_exit_2(tmp_path, capsys, key, value):
    with open(fx("tampered_lie.json")) as fh:
        doc = json.load(fh)
    doc[key] = value
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 2 and "schema error" in err and "Traceback" not in err


@pytest.mark.parametrize("key,index", [("even", 0), ("odd", 1)])
def test_check_liesuper_generator_size_mismatch_exit_2(tmp_path, capsys, key, index):
    """A generator that is not (p+q)x(p+q) is a schema error, caught before
    the matrices reach from_matrices."""
    with open(fx("gl11_lie.json")) as fh:
        doc = json.load(fh)
    doc[key][index] = [["1"]]
    p = tmp_path / "small_generator.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 2 and "schema error" in err and "2x2" in err
    assert "Traceback" not in err


def _rho_edit(part, edit):
    def apply(rho):
        rho[part] = edit(rho[part])
    return apply


@pytest.mark.parametrize("edit", [
    _rho_edit("even", lambda mats: mats[:1]),
    _rho_edit("odd", lambda mats: mats + mats[:1]),
    _rho_edit("even", lambda mats: [[["1"]]] + mats[1:]),
    _rho_edit("odd", lambda mats: mats[:1] + [[["0", "1", "0"], ["1", "0", "0"]]]),
], ids=["even-count-short", "odd-count-long", "even-1x1", "odd-2x3"])
def test_check_liesuper_rho_count_or_size_exit_2(tmp_path, capsys, edit):
    """A constants fixture whose rho lists do not hold d_plus and d_minus
    matrices of size (p+q)x(p+q) is a schema error, not a traceback or a
    failed check."""
    with open(fx("flipped_bracket_lie.json")) as fh:
        doc = json.load(fh)
    edit(doc["rho"])
    p = tmp_path / "bad_rho.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 2 and "schema error" in err and "rho" in err
    assert "Traceback" not in err


def test_check_liesuper_nonclosing_matrices_exit_1(tmp_path, capsys):
    """Generators whose brackets leave their span are a mathematical
    failure: exit 1 naming the bracket, not a traceback."""
    doc = {"schema": 1, "field": "Q", "kind": "matrices", "shape": [1, 1],
           "even": [[["1", "0"], ["0", "0"]]], "odd": [[["0", "1"], ["1", "0"]]]}
    p = tmp_path / "nonclosing.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["check-liesuper", str(p)], capsys)
    assert code == 1 and "failure: [X1,Y1] left the odd span" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check-shcp


def test_check_shcp_pass(capsys):
    code, out, _ = run(["check-shcp", fx("gl11_pair.json"), "--samples", "8"], capsys)
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_shcp_samples_below_one_exit_2(capsys, samples):
    """A run that samples no point verifies nothing: --samples must be at
    least 1, and the error names the flag."""
    code, out, err = run(["check-shcp", fx("gl11_pair.json"), "--samples", samples], capsys)
    assert code == 2 and "--samples" in err and "PASS" not in out


def test_check_shcp_zero_odd(tmp_path, capsys):
    with open(fx("gl11_pair.json")) as fh:
        doc = json.load(fh)
    doc["lie"]["odd"] = []
    p = tmp_path / "d0.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(["check-shcp", str(p), "--samples", "4"], capsys)
    assert code == 0


def test_check_shcp_ad_unstable(tmp_path, capsys):
    # torus of GL(2|1) with odd line E13+E32: Ad-stability fails
    doc = {
        "schema": 1,
        "even_group": {"name": "diagonal_torus", "p": 2, "q": 1},
        "lie": {
            "schema": 1, "field": "Q", "kind": "constants",
            "d_plus": 3, "d_minus": 1,
            "ee": [[["0", "0", "0"]] * 3] * 3,
            "eo": [[["0"]], [["0"]], [["0"]]],
            "oo": [[["0", "0", "0"]]],
            "q2": [["0", "0", "0"]],
            "shape": [2, 1],
            "rho": {
                "even": [
                    [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                    [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                    [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
                ],
                "odd": [
                    [["0", "0", "1"], ["0", "0", "0"], ["0", "1", "0"]],
                ],
            },
        },
    }
    p = tmp_path / "unstable.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(["check-shcp", str(p), "--samples", "8"], capsys)
    assert code == 1 and "Ad-stability" in out


# ---------------------------------------------------------------------------
# normal-form


def test_normal_form_identity_word(tmp_path, capsys):
    p = tmp_path / "id.json"
    p.write_text(json.dumps({"schema": 1, "tokens": []}))
    code, out, _ = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--coeff", fx("coeff_l2.json"), "--word", str(p)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["etas"] == ["0", "0"]
    assert doc["g_plus"] == [["1", "0"], ["0", "1"]]


def test_normal_form_tokens_not_a_list_exit_2(tmp_path, capsys):
    p = tmp_path / "tokens5.json"
    p.write_text(json.dumps({"schema": 1, "tokens": 5}))
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--coeff", fx("coeff_l2.json"), "--word", str(p)], capsys)
    assert code == 2 and "schema error" in err and "tokens" in err
    assert "Traceback" not in err


def _edited(name, edit):
    with open(fx(name)) as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


@pytest.mark.parametrize("part,doc", [
    ("coeff", {"type": "grassmann", "field": "Q", "rank": True}),
    ("coeff", {"type": "grassmann", "field": "Q", "rank": -1}),
    ("coeff", {"type": "grassmann", "field": "Q", "rank": 17}),
    ("pair", _edited("gl11_pair.json", lambda d: d["even_group"].update(p=True))),
    ("pair", _edited("gl11_pair.json", lambda d: d["even_group"].update(q=-1))),
    ("pair", _edited("gl11_pair.json", lambda d: d["lie"].update(shape=[1, True]))),
    ("word", {"schema": 1, "tokens": [{"odd": [True, "1 * x{1}"]}]}),
], ids=["rank-true", "rank-neg", "rank-17", "group-p-true", "group-q-neg",
        "shape-true", "odd-index-true"])
def test_normal_form_bad_integer_exit_2(tmp_path, capsys, part, doc):
    """A bool where an int is read, or an int out of range, is a schema error
    (the identity word keeps every other part valid at any rank)."""
    (tmp_path / "id.json").write_text(json.dumps({"schema": 1, "tokens": []}))
    paths = {"pair": fx("gl11_pair.json"), "coeff": fx("coeff_l2.json"),
             "word": str(tmp_path / "id.json")}
    paths[part] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, _, err = run(["normal-form", "--pair", paths["pair"], "--coeff", paths["coeff"],
                        "--word", paths["word"]], capsys)
    assert code == 2 and "schema error" in err and "Traceback" not in err


_DUAL_L2 = {"type": "dual", "inner": {"type": "grassmann", "field": "Q", "rank": 2}}


@pytest.mark.parametrize("doc", [_DUAL_L2, {"type": "dual", "inner": _DUAL_L2}],
                         ids=["plain", "nested"])
def test_normal_form_dual_coeff_exit_2(tmp_path, capsys, doc):
    """"dual" is not a coefficient algebra type: the dual numbers over
    Lambda_r are Lambda_{r+2} with eps = x{r+1}x{r+2}, a "grassmann" fixture."""
    (tmp_path / "dual.json").write_text(json.dumps(doc))
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"), "--coeff",
                        str(tmp_path / "dual.json"), "--word", fx("swap_word.json")], capsys)
    assert code == 2 and "unknown coefficient algebra type 'dual'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,name,edit", [
    ("check-shcp", "gl11_pair.json", lambda d: d["even_group"].update(p=400, q=400)),
    ("check-liesuper", "gl11_lie.json", lambda d: d.update(shape=[400, 400])),
    ("check-liesuper", "tampered_lie.json", lambda d: d.update(shape=[5, 4])),
], ids=["group-400-400", "lie-shape-400-400", "constants-shape-5-4"])
def test_block_size_above_cap_exit_2(tmp_path, capsys, command, name, edit):
    """p + q above MAX_BLOCK_SIZE, in an even group or a lie shape, is a
    schema error raised before any matrix is read or group is built."""
    from superpoints.serialize import MAX_BLOCK_SIZE

    (tmp_path / "big.json").write_text(json.dumps(_edited(name, edit)))
    code, _, err = run([command, str(tmp_path / "big.json")], capsys)
    assert code == 2 and "schema error" in err and f"exceeds {MAX_BLOCK_SIZE}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", [["gl_full"], {"gl_full": 1}], ids=["list", "object"])
def test_normal_form_unhashable_group_name_exit_2(tmp_path, capsys, name):
    doc = _edited("gl11_pair.json", lambda d: d["even_group"].update(name=name))
    (tmp_path / "pair.json").write_text(json.dumps(doc))
    code, _, err = run(["normal-form", "--pair", str(tmp_path / "pair.json"),
                        "--coeff", fx("coeff_l2.json"), "--word", fx("swap_word.json")],
                       capsys)
    assert code == 2 and "unknown group" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--field", "F3"], ["--field", "F7"]],
                         ids=["F3", "F7"])
def test_normal_form_field_differs_from_pair_exit_2(capsys, flags):
    """A coefficient field other than the pair's (Q) is a schema error naming
    both fields; any prime field a fixture accepts, the flag accepts too."""
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"), *flags,
                        "--word", fx("swap_word.json")], capsys)
    assert code == 2 and f"coefficient field {flags[1]}" in err and "field Q" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["F4", "R", "F" + "9" * 20])
def test_normal_form_bad_field_flag_exit_2(capsys, field):
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"), "--field", field,
                        "--word", fx("swap_word.json")], capsys)
    assert code == 2 and "schema error: --field:" in err and "Traceback" not in err


_LONG = "1" * 5000


@pytest.mark.parametrize("field,eta", [
    ("F3", _LONG + " * x{1}"),
    ("F3", "1 mod " + _LONG + " * x{1}"),
    ("Q", _LONG + " * x{1}"),
    ("Q", "1e10000000 * x{1}"),
    ("Q", "1 * x{" + _LONG + "}"),
    ("F3", "1 * x{1,,2}"),
], ids=["F3-value", "F3-modulus", "Q-value", "Q-exponent", "Q-index", "F3-empty-index"])
def test_normal_form_overlong_literal_exit_2(tmp_path, capsys, field, eta):
    """A literal of more than 4300 digits (an exponent counts: Fraction would
    build the power), or a generator index int() cannot read, is a schema
    error, and the message cuts the literal short."""
    p = tmp_path / "word.json"
    p.write_text(json.dumps({"schema": 1, "tokens": [{"odd": [1, eta]}]}))
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"), "--field", field,
                        "--grassmann-rank", "2", "--word", str(p)], capsys)
    assert code == 2 and "schema error: word.tokens[0]" in err and "Traceback" not in err
    assert "1" * 100 not in err


@pytest.mark.parametrize("oracle,trace", [("module", []), ("both", []),
                                          ("rewrite", ["--trace"]), ("both", ["--trace"])],
                         ids=["module", "both", "rewrite-trace", "both-trace"])
def test_normal_form_oversized_result_exit_2(tmp_path, capsys, oracle, trace):
    """Every literal is legal, but the swap's bracket correction carries
    10^8000: a result value past MAX_LITERAL_DIGITS is a schema error, from
    either route, traced or not, and without a traceback."""
    p = tmp_path / "word.json"
    p.write_text(json.dumps({"schema": 1, "tokens": [{"odd": [2, "1e4000 * x{1}"]},
                                                     {"odd": [1, "1e4000 * x{2}"]}]}))
    code, out, err = run(["normal-form", "--pair", fx("gl11_pair.json"), "--field", "Q",
                          "--grassmann-rank", "2", "--word", str(p), "--oracle", oracle,
                          *trace], capsys)
    assert code == 2 and "MAX_LITERAL_DIGITS" in err and out == ""


@pytest.mark.parametrize("rank", ["-1", "17"])
def test_normal_form_grassmann_rank_out_of_range_exit_2(capsys, rank):
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"), "--field", "Q",
                        "--grassmann-rank", rank, "--word", fx("swap_word.json")], capsys)
    assert code == 2 and "schema error" in err and "0..16" in err
    assert "Traceback" not in err


def test_normal_form_swap_word_oracles_agree(capsys):
    code, out, _ = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--coeff", fx("coeff_l2.json"),
                        "--word", fx("swap_word.json"),
                        "--oracle", "both"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["etas"] == ["1 * x{2}", "1 * x{1}"]
    assert doc["g_plus"][0][0] == "1 + -1 * x{1,2}"


def test_normal_form_integral_literal_is_its_integer(tmp_path, capsys):
    """A literal 2/2 is the value 1: traced normal-form output is the same
    bytes as for the literal 1."""
    outs = []
    for one in ("2/2", "1"):
        p = tmp_path / "word.json"
        p.write_text(json.dumps({"schema": 1, "tokens": [{"odd": [2, f"{one} * x{{1}}"]},
                                                         {"odd": [1, "1 * x{2}"]}]}))
        code, out, _ = run(["normal-form", "--pair", fx("gl11_pair.json"), "--field", "Q",
                            "--grassmann-rank", "2", "--word", str(p), "--oracle", "both",
                            "--trace"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and "# swapped" in outs[0]


def test_normal_form_field_shortcut_and_trace(capsys):
    code, out, _ = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--field", "Q", "--grassmann-rank", "2",
                        "--word", fx("swap_word.json"),
                        "--oracle", "rewrite", "--trace"], capsys)
    assert code == 0
    assert "# swapped" in out or "# merged" in out


_GOLDEN_ARGS = ["normal-form", "--pair", fx("gl11_pair.json"),
                "--coeff", fx("coeff_l2.json"), "--word", fx("swap_word.json"),
                "--golden", "swap_word_nf.json"]


def test_normal_form_golden_roundtrip(tmp_path, capsys, monkeypatch):
    """A stale golden file fails the comparison; the run's stdout (without
    --trace) is exactly the golden bytes, so writing it there makes the
    next run pass."""
    monkeypatch.setenv("SUPERPOINTS_GOLDEN_DIR", str(tmp_path))
    path = tmp_path / "swap_word_nf.json"
    path.write_text("stale\n")
    code, out1, err = run(_GOLDEN_ARGS, capsys)
    assert code == 1 and "mismatch" in err
    path.write_text(out1)
    code, out2, err = run(_GOLDEN_ARGS, capsys)
    assert code == 0 and err == ""
    assert out1 == out2  # byte-stable across runs


def test_normal_form_missing_golden_exits_2_and_creates_nothing(tmp_path, capsys,
                                                                monkeypatch):
    directory = tmp_path / "golden"
    monkeypatch.setenv("SUPERPOINTS_GOLDEN_DIR", str(directory))
    code, _, err = run(_GOLDEN_ARGS, capsys)
    assert code == 2 and str(directory / "swap_word_nf.json") in err
    assert "Traceback" not in err
    assert not directory.exists()


def test_normal_form_unreadable_golden_path_exits_2(tmp_path, capsys, monkeypatch):
    """A golden path that cannot be read (a directory) is a usage error,
    not a traceback."""
    (tmp_path / "swap_word_nf.json").mkdir()
    monkeypatch.setenv("SUPERPOINTS_GOLDEN_DIR", str(tmp_path))
    code, _, err = run(_GOLDEN_ARGS, capsys)
    assert code == 2 and "schema error" in err and "swap_word_nf.json" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_normal_form_oracle_disagreement_exits_3(capsys, monkeypatch):
    """The exit-3 contract: if the two routes ever disagreed, the CLI must
    report an internal invariant breach (forced here by stubbing a route)."""
    import superpoints.cli as cli_mod
    from superpoints import NormalForm
    from superpoints.serialize import load_coeff, load_pair, loads

    with open(fx("gl11_pair.json")) as fh:
        pair = load_pair(loads(fh.read()))
    with open(fx("coeff_l2.json")) as fh:
        algebra = load_coeff(loads(fh.read()))
    def stub(word, stats=None):
        return NormalForm.identity(word.pair, word.algebra)

    monkeypatch.setattr(cli_mod, "reorder_symbolic", stub)
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--coeff", fx("coeff_l2.json"),
                        "--word", fx("swap_word.json"), "--oracle", "both"], capsys)
    assert code == 3 and "DISAGREEMENT" in err


def test_normal_form_matches_committed_golden(capsys, monkeypatch):
    """The swap-word normal form must stay byte-identical to the golden
    file under version control (serialization stability)."""
    monkeypatch.setenv("SUPERPOINTS_GOLDEN_DIR", os.path.join(FIXTURES, "golden"))
    code, _, err = run(["normal-form", "--pair", fx("gl11_pair.json"),
                        "--coeff", fx("coeff_l2.json"),
                        "--word", fx("swap_word.json"),
                        "--golden", "swap_word_nf.json"], capsys)
    assert code == 0 and err == ""


def test_verify_suite_pass(capsys):
    code, out, _ = run(["verify", "pbw", "--seed", "1"], capsys)
    assert code == 0 and "PASS" in out


def test_verify_deterministic_with_seed(capsys):
    code1, out1, _ = run(["verify", "pbw", "--seed", "3", "--json"], capsys)
    code2, out2, _ = run(["verify", "pbw", "--seed", "3", "--json"], capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "no-such-suite"], capsys)
    assert code == 2 and "unknown suite" in err


# ---------------------------------------------------------------------------
# fixture schema coverage


def test_coeff_fixture_variants():
    from superpoints import GrassmannAlgebra, SuperNumbers
    from superpoints.serialize import dump_coeff, load_coeff

    for spec, cls in (
        ({"type": "grassmann", "field": "F3", "rank": 4}, GrassmannAlgebra),
        ({"type": "super_numbers", "field": "Q"}, SuperNumbers),
    ):
        alg = load_coeff(spec)
        assert isinstance(alg, cls)
        assert load_coeff(dump_coeff(alg)) == alg


def test_coeff_fixture_rejects_unknowns():
    from superpoints import SchemaError
    from superpoints.serialize import load_coeff

    with pytest.raises(SchemaError):
        load_coeff({"type": "grassmann", "field": "Q", "rank": 2, "extra": 1})
    with pytest.raises(SchemaError):
        load_coeff({"type": "polynomial", "field": "Q"})


def test_word_fixture_is_one_based():
    from superpoints.serialize import load_coeff, load_pair, load_word, loads

    with open(fx("gl11_pair.json")) as fh:
        pair = load_pair(loads(fh.read()))
    with open(fx("coeff_l2.json")) as fh:
        algebra = load_coeff(loads(fh.read()))
    word = load_word({"schema": 1, "tokens": [{"odd": [2, "1 * x{1}"]}]},
                     pair, algebra)
    assert word.tokens[0].index == 1


# ---------------------------------------------------------------------------
# fuzzed fixtures: one value changed or one key deleted, never a traceback


def _draw_path(data, node):
    """A path to a node below the root of a JSON document, drawn by walking
    down and stopping at each node with even odds, so keys near the root
    (the schema) are hit as often as the many matrix entries below them."""
    path = ()
    while isinstance(node, (dict, list)) and node and (
            not path or data.draw(st.booleans())):
        k = data.draw(st.sampled_from(list(node.keys()) if isinstance(node, dict)
                                      else range(len(node))))
        path, node = path + (k,), node[k]
    return path


def _mutated(doc, path, value, delete):
    """A copy of doc with the node at path replaced by value, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.just(0.5),
    st.sampled_from(["", "x", "Q", "F7", "F4", "1/0", "2 mod 5", "1 * x{1}",
                     "1 * x{3}", "gl_full", "matrices", "constants"]),
    st.sampled_from([[], {}, [[]], [["1"]], [1, 1], {"schema": 1}]))


@pytest.mark.parametrize("command,flags,names", [
    (["check-liesuper"], [None], ["gl11_lie.json"]),
    (["check-liesuper"], [None], ["tampered_lie.json"]),
    (["check-liesuper"], [None], ["flipped_bracket_lie.json"]),
    (["check-shcp"], [None], ["gl11_pair.json"]),
    (["normal-form", "--oracle", "both"], ["--pair", "--coeff", "--word"],
     ["gl11_pair.json", "coeff_l2.json", "swap_word.json"]),
], ids=["gl11-lie", "tampered-lie", "flipped-lie", "gl11-pair", "normal-form"])
@settings(max_examples=75, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_fixture_maps_to_an_exit_code(command, flags, names, data):
    """flags[t] is the option naming fixture t (None: a positional path)."""
    docs = []
    for name in names:
        with open(fx(name)) as fh:
            docs.append(json.load(fh))
    which = data.draw(st.integers(0, len(docs) - 1))
    path = _draw_path(data, docs[which])
    delete = data.draw(st.booleans())
    value = None if delete else data.draw(_FUZZ_VALUES)
    docs[which] = _mutated(docs[which], path, value, delete)
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(command)
        for t, (flag, doc) in enumerate(zip(flags, docs)):
            fpath = os.path.join(tmp, f"{t}.json")
            with open(fpath, "w") as fh:
                json.dump(doc, fh)
            argv += [fpath] if flag is None else [flag, fpath]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# module entry point


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "superpoints.cli", "verify", "pbw"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
