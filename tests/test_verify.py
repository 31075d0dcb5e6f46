"""The suites' failure reports: each suite of ``verify.SUITES``, with one
function that it calls made to return a wrong answer, fails with the
message that names the broken check, and ``superpoints verify`` reports
it with exit 1 and no traceback."""

import pytest

from superpoints import NormalForm, SpanViolation, SuperMatrix, gp, verify
from superpoints.smat import gl_split, semidirect_split
from superpoints.verify import SUITES

from .test_cli import run


def _no_square(y):
    """Every 2-operation computed as 0."""
    return SuperMatrix.zero(y.shape, y.algebra)


def _rewrite_to_identity(word, stats=None):
    """The rewriting route answering 1 for every word."""
    return NormalForm.identity(word.pair, word.algebra)


def _no_stripping(pair, m):
    raise SpanViolation("odd discrepancy left the pair's odd span")


def _zero_bracket(lie, x, y):
    """Every bracket of the target computed as 0."""
    parity = (x[0] + y[0]) % 2
    return parity, (lie.field.from_int(0),) * (lie.d_minus if parity else lie.d_plus)


# suite, (module, name, wrong answer), a message the report must hold
CASES = {
    "tang-group": ("tang-group", (verify, "gl_2op", _no_square),
                   "identity (e) instance 4 over gl(2, 2), rank 3, Q"),
    "gl-split": ("gl-split", (verify, "gl_split", lambda m: gl_split(m)[::-1]),
                 "sample 0: factors do not reassemble"),
    "semidirect": ("semidirect", (verify, "semidirect_split",
                                  lambda G, g: semidirect_split(G, g)[::-1]),
                   "Lambda3: GL point 0 does not factor"),
    "roundtrip": ("roundtrip", (gp, "gp_commutator", lambda a, b: a),
                  "phi.psi: commutator of one-parameter factors missed [Y1,Y2]"),
    "roundtrip-strip": ("roundtrip", (gp, "strip_matrix_factorization", _no_stripping),
                        "psi.phi: sample 0: stripping failed: odd discrepancy left the "
                        "pair's odd span"),
    "pbw": ("pbw", (verify, "word_action", lambda word, v, *tables: v),
            "Q: eta extraction failed on tuple 0"),
    "charfree": ("charfree", (verify, "gp_inv", lambda nf: nf),
                 "F3: gl(2|1): inverse law fails on sample 0"),
    "generic-point": ("generic-point", (verify, "reorder_symbolic", _rewrite_to_identity),
                      "gl(1|1)/Q: routes disagree on the law word of Y1"),
}


def test_every_suite_has_a_failure_case():
    assert {suite for suite, *_ in CASES.values()} == set(SUITES)


@pytest.mark.parametrize("case", list(CASES))
def test_suite_reports_a_wrong_answer(monkeypatch, case):
    suite, (module, name, wrong), message = CASES[case]
    monkeypatch.setattr(module, name, wrong)
    rep = SUITES[suite](seed=1)
    assert not rep.ok
    assert message in rep.failures, rep.failures[:5]


def test_morphism_check_reports_a_wrong_bracket(monkeypatch):
    """basis_independence reports a morphism whose target brackets are
    wrong by the relation they break, and skips its products."""
    monkeypatch.setattr(gp, "_bracket", _zero_bracket)
    rep = verify.basis_independence(seed=1, count=1)
    assert not rep.ok
    assert "Q/Y1+-Y2: omega[X1,Y1] mismatch" in rep.failures, rep.failures[:5]


def test_cli_verify_reports_a_failing_suite(monkeypatch, capsys):
    """A suite that fails exits 1 and prints its failures, not a traceback."""
    monkeypatch.setattr(verify, "reorder_symbolic", _rewrite_to_identity)
    code, out, err = run(["verify", "generic-point", "--seed", "1"], capsys)
    assert code == 1 and not err
    assert out.startswith("suite generic-point: FAIL\n")
    assert "  FAIL gl(1|1)/Q: routes disagree on the law word of Y1\n" in out
    assert "Traceback" not in out
