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
    strip_matrix_factorization,
)
from superpoints.verify import check_ad_compatibility, check_module_axioms, random_word

from .q2_pair import q2_pair


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
