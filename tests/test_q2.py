"""The queer pair q(2) in gl(2|2): even tokens act on PBW keys through the
straightening kernel.

Off gl(p|q) the product (Ad g Y_a)(Ad g Y_b)(Ad g Y_c) in U(g) straightens
with [Y_j,Y_k] and Y_j^<2> terms in g_0, so an even point acting on a key of
degree >= 3 is not the exterior product of the Ad(g)Y_i.  Each test here
fails when even tokens act by that exterior product.
"""

import random

import pytest

from superpoints import (
    GF2,
    GF3,
    QQ,
    EvenTok,
    GrassmannAlgebra,
    GroupWord,
    InducedModule,
    OddTok,
    defining_module,
    normal_form,
    reorder_symbolic,
    check_axioms,
    q2_pair,
    strip_matrix_factorization,
)
from superpoints import verify
from superpoints.coeff import GrassmannElement
from superpoints.verify import check_ad_compatibility, check_module_axioms, random_word


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_q2_routes_agree(field):
    """Module route == rewriting route == matrix stripping on seeded words
    of up to 8 tokens over Lambda_4.  Stripping succeeds on every word: each
    round's odd discrepancy lies in the odd span of q(2)."""
    pair = q2_pair(field)
    A = GrassmannAlgebra(field, 4)
    rng = random.Random(13)
    for _ in range(60):
        w = random_word(pair, A, rng, 8)
        nf = normal_form(w)
        assert reorder_symbolic(w) == nf
        assert strip_matrix_factorization(pair, w.rho_matrix()) == nf
        assert nf.rho_matrix() == w.rho_matrix()


def test_q2_minimal_word_over_f2():
    """g.(1 + x1 Y4)(1 + x2 Y2)(1 + x3 Y3): the odd product acts on the
    vacuum by a key of degree 3, which g then moves."""
    pair = q2_pair(GF2)
    A = GrassmannAlgebra(GF2, 3)
    x1, x2, x3 = (A.generator(i) for i in (1, 2, 3))
    rng = random.Random(0)
    for _ in range(20):
        g = pair.even_group.sample(A, rng)
        w = GroupWord(pair, A, [EvenTok(g), OddTok(3, x1), OddTok(1, x2), OddTok(2, x3)])
        assert normal_form(w) == reorder_symbolic(w)


def test_q2_induced_word_acts_as_its_normal_form():
    pair = q2_pair(QQ)
    A = GrassmannAlgebra(QQ, 4)
    module = InducedModule(pair, defining_module(pair))
    rng = random.Random(5)
    for _ in range(40):
        w = random_word(pair, A, rng, 8)
        nf = normal_form(w)
        for t in range(module.v0.dim):
            vac = module.vacuum_with(t, A)
            assert module.apply_word(w, vac) == module.apply_normal_form(nf, vac)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_q2_even_action_intertwines_ad(field):
    rep = check_ad_compatibility(q2_pair(field), random.Random(0))
    assert rep.ok, rep.failures


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_q2_axioms_and_module_axioms(field):
    """q(2) satisfies the superalgebra axioms, and its straightening tables
    satisfy every defining relation: the relation check on a pair whose odd
    brackets and squares are not those of gl(p|q)."""
    lie = q2_pair(field).lie
    rep = check_axioms(lie)
    assert rep.ok, rep.failures
    rep = check_module_axioms(lie)
    assert rep.ok, rep.failures


def exterior_ad_action(field, act, d_minus, ad, v0_matrix, v):
    """g acting on each key Ybar_S (x) e_t as the exterior product of the
    Ad(g)Y_i, i in S (the expansion that drops the [Y_j,Y_k] and Y_j^<2>
    terms of the product in U(g)); exact on gl(p|q) only.  It takes and
    returns term dicts, as wedge_ad_action does, and expands on elements
    of Lambda_16 over the field."""
    A = GrassmannAlgebra(field, 16)
    ad_matrix = [[GrassmannElement(A, x) for x in row] for row in ad()]
    v0_matrix = [[GrassmannElement(A, x) for x in row] for row in v0_matrix]
    v = {key: GrassmannElement(A, c) for key, c in v.items()}
    dm = d_minus
    out = {}

    def add(acc, key, x):
        acc[key] = acc[key] + x if key in acc else x

    for key, c in v.items():
        expanded = {0: c}
        for i in (i for i in range(dm) if key >> i & 1):
            nxt = {}
            for s, cs in expanded.items():
                for j in range(dm):
                    if not s >> j & 1:
                        x = cs * ad_matrix[i][j]
                        # Ybar_j moves left past the factors of s above j
                        add(nxt, s | 1 << j, -x if (s >> (j + 1)).bit_count() % 2 else x)
            expanded = nxt
        for s, cs in expanded.items():
            for r, row in enumerate(v0_matrix):
                add(out, s | r << dm, cs * row[key >> dm])
    return {k: x.terms for k, x in out.items() if not x.is_zero()}


def test_suite_pbw_sees_the_exterior_expansion(monkeypatch):
    """With even points acting by the exterior product, the pbw suite
    fails: q(2)'s Ad compatibility check breaks, the gl pairs' do not."""
    monkeypatch.setattr(verify, "wedge_ad_action", exterior_ad_action)
    rep = verify.suite_pbw(fields=(QQ,))
    assert not rep.ok
    assert all("g.(Y_i.m) != (Ad(g)Y_i).(g.m)" in m for m in rep.failures)
    assert verify.check_ad_compatibility(verify.cached_gl_pair(2, 1, QQ),
                                         random.Random(1)).ok
