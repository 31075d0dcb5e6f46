"""Module vectors and the group law accumulate in place on term dicts.

The scaled straightening pass, on term dicts, is checked against its
composition from element operations (``support.straighten_reference``); the
actions and the group law are checked to write to no coefficient they do
not own, the Ad memo's grids and the Ad and g^-1 a normal form carries
included, and return grids they own; and one product, inverse and module
action are pinned to make no GrassmannElement product or sum from inside
liesuper or the group law, no SuperMatrix product or constructor, and no
read of the element view SuperMatrix.rows."""

import random
import sys
from fractions import Fraction

import pytest

from superpoints import (GF2, GF3, QQ, EvenTok, GrassmannAlgebra, GroupWord, InducedModule,
                         NormalForm, OddTok, char2_pair, defining_module, gl_pair, gl_split,
                         normal_form, q2_pair, reorder_symbolic, smat_inv, straighten_action,
                         strip_matrix_factorization, wedge_ad_action, word_action)
from superpoints.coeff import GrassmannElement
from superpoints.gp import factor_product, group_law, gp_inv, gp_mul
from superpoints.liesuper import trivial_action
from superpoints.sampling import rand_element, rand_even_unit, rand_odd
from superpoints.smat import SuperMatrix
from superpoints.verify import random_word

from .support import straighten_reference

PAIRS = [("gl(2|1)", lambda f: gl_pair(2, 1, f)), ("q(2)", q2_pair)]


def rand_vector(algebra, rng, dim, size=5):
    """A vector on `size` random keys below dim, coefficients of mixed parity."""
    v = {}
    for key in rng.sample(range(dim), min(size, dim)):
        c = rand_element(algebra, rng, max_terms=3)
        if not c.is_zero():
            v[key] = c
    return v


def terms_of(v):
    """The vector v with its elements' term dicts as coefficients, shared."""
    return {k: c.terms for k, c in v.items()}


def owned_terms(v):
    """The vector v with fresh copies of its elements' term dicts."""
    return {k: dict(c.terms) for k, c in v.items()}


def modules(pair):
    """(table, dim, v0_action) for wedge(g_1) and the defining module's
    induced module."""
    induced = InducedModule(pair, defining_module(pair))
    return [(pair.lie.odd_action, 1 << pair.d_minus, trivial_action),
            (induced.odd_act, induced.dim, induced.v0.group_action)]


# ---------------------------------------------------------------------------
# the scaled straightening pass


KERNEL_CASES = ([(name, build, f) for name, build in PAIRS for f in (QQ, GF2, GF3)]
                + [("char2", char2_pair, GF2)])


@pytest.mark.parametrize("name,build,field", KERNEL_CASES,
                         ids=[f"{n}-{f}" for n, _, f in KERNEL_CASES])
def test_scaled_pass_matches_element_composition(name, build, field):
    """straighten_action(field, act, i, v, scale, out) adds scale.(Y_i.v)
    into out and returns it; with neither it is Y_i.v; no zero is stored.
    The element vectors of the reference are compared by their term dicts."""
    pair = build(field)
    A = GrassmannAlgebra(field, 4)
    rng = random.Random(5)
    for act, dim, _ in modules(pair):
        for _ in range(12):
            v, out = rand_vector(A, rng, dim), rand_vector(A, rng, dim)
            i = rng.randrange(pair.d_minus)
            scale = rand_element(A, rng, max_terms=3)
            assert (straighten_action(field, act, i, terms_of(v))
                    == terms_of(straighten_reference(act, i, v)))
            want = straighten_reference(act, i, v, scale, out)
            acc = owned_terms(out)
            assert straighten_action(field, act, i, terms_of(v), scale.terms, acc) is acc
            assert acc == terms_of(want)
            assert all(acc.values())


def test_scaled_pass_cancels_to_an_empty_vector():
    """Adding eta.(Y.v) into a copy of -eta.(Y.v) drops every key."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    rng = random.Random(2)
    v, eta = terms_of(rand_vector(A, rng, 8)), rand_odd(A, rng).terms
    act = pair.lie.odd_action
    out = {k: {m: GF3.neg(x) for m, x in c.items()}
           for k, c in straighten_action(GF3, act, 1, v, eta).items()}
    assert out
    assert straighten_action(GF3, act, 1, v, eta, out) == {}


# ---------------------------------------------------------------------------
# ownership: nothing is written that the vector does not own


def snapshot(x):
    """A deep copy of the coefficient data in x, for comparison."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, GrassmannElement):
        return tuple(sorted(x.terms.items()))
    if isinstance(x, SuperMatrix):
        return snapshot(x.grid)
    if isinstance(x, NormalForm):
        return snapshot(x.etas), snapshot(x.g_plus)
    if isinstance(x, dict):
        return {k: snapshot(c) for k, c in x.items()}
    return tuple(snapshot(c) for c in x)


@pytest.mark.parametrize("name,build", PAIRS, ids=[n for n, _ in PAIRS])
@pytest.mark.parametrize("field", [QQ, GF3], ids=str)
def test_actions_and_group_law_write_only_what_they_own(name, build, field):
    """The module action, both kernels, the routes, products and inverses
    leave their inputs as they were, and the Ad memo's grids too: each
    entry's Ad(g) and g^-1, which rewriting and the module action read for
    bare points.  So are the Ad and g^-1 that each normal form carries,
    which gp_mul, gp_inv, the module action and the routes on its tokens
    read, and from which later products compose theirs.  A matrix that *,
    +, smat_inv, gl_split, factor_product, the three routes, gp_mul or
    gp_inv returns, and the Ad a product or inverse composes, share no term
    dict with their arguments, the memo or the carried grids."""
    pair = build(field)
    A = GrassmannAlgebra(field, 4)
    rng = random.Random(11)
    one = NormalForm.identity(pair, A)
    g = pair.even_group.sample(A, rng)
    word = GroupWord(pair, A, [OddTok(0, rand_odd(A, rng)), EvenTok(g),
                               OddTok(pair.d_minus - 1, rand_odd(A, rng)),
                               EvenTok(one.g_plus)])
    a = normal_form(word)
    # b and odd act on v by an odd token first
    b = normal_form(GroupWord(pair, A, [EvenTok(g), OddTok(1, rand_odd(A, rng))]))
    odd = NormalForm(pair, A, [rand_odd(A, rng)] + [A.zero()] * (pair.d_minus - 1),
                     one.g_plus)
    ab = gp_mul(a, b)
    assert any(not e.is_zero() for e in ab.etas)
    for nf in (a, b, ab):
        gp_inv(nf)  # the memo now holds Ad(g) and g^-1 of each even factor
    for h in (g * g, smat_inv(g)):  # and of two more bare points
        pair.ad_action_matrix(h)
    carried = [(nf.ad(), nf.g_inv()) for nf in (one, a, b, ab, odd)]
    ad = pair.ad_action_matrix(g)[0]
    for act, dim, v0_action in modules(pair):
        v0 = v0_action(g)
        v = rand_vector(A, rng, dim, size=6)
        scale = rand_even_unit(A, rng)
        kept = [v, v0, one, a, b, ab, odd, g, scale]
        memo = dict(pair._ad_memo)
        assert len(memo) > 3
        before = snapshot(kept), snapshot(memo), snapshot(carried)
        for w in (word, b, odd):
            word_action(w, v, act, v0_action)
        wedge_ad_action(field, act, pair.d_minus, lambda: ad, v0, terms_of(v))
        straighten_action(field, act, 0, terms_of(v))
        straighten_action(field, act, 0, terms_of(v), scale.terms, owned_terms(v))
        for nf in (a, b, ab):
            gp_inv(gp_inv(nf)).ad()
        for x, y in ((a, b), (one, a), (ab, odd), (b, ab)):
            gp_mul(gp_mul(x, y), gp_inv(x)).ad()
        reorder_symbolic(word)
        for nf in (a, ab):
            normal_form(nf.to_word())
            reorder_symbolic(nf.to_word())
        if v0_action is not trivial_action:
            module = InducedModule(pair, defining_module(pair))
            for nf in (a, b, ab, odd, one):
                module.apply_normal_form(nf, v)
        assert (snapshot(kept), snapshot(memo), snapshot(carried)) == before
    # a matrix the API returns owns its grid: no term dict of it is one of
    # an argument's (grids and etas), of the Ad memo or of a carried grid;
    # everything compared is held alive until the ids are compared
    m = word.rho_matrix()
    results = [g * m, g + m, smat_inv(g), *gl_split(m), factor_product(pair, A, word.tokens),
               factor_product(pair, A, odd.tokens, g), a.rho_matrix(), odd.rho_matrix()]
    made = [gp_mul(a, b), gp_mul(one, a), gp_mul(odd, b), gp_inv(a), gp_inv(ab), gp_inv(odd)]
    results += [nf.g_plus for nf in [
        normal_form(word), reorder_symbolic(word), strip_matrix_factorization(pair, m)] + made]
    composed = [nf.ad() for nf in made]
    args = [g, m, one.g_plus, a.g_plus, b.g_plus, ab.g_plus, odd.g_plus]
    grids = ([x.grid for x in args] + [grid for e in (*memo.values(), *pair._ad_memo.values(),
                                                      *carried) for grid in e])
    owned = {id(x) for grid in grids for row in grid for x in row}
    owned |= {id(e.terms) for nf in (a, b, ab, odd) for e in nf.etas}
    owned |= {id(t.eta.terms) for t in word.tokens if t.kind == "odd"}
    assert not [k for k, r in enumerate(results) for row in r.grid for x in row if id(x) in owned]
    assert not [k for k, ad in enumerate(composed) for row in ad for x in row if id(x) in owned]


# ---------------------------------------------------------------------------
# no GrassmannElement arithmetic inside the rewritten layers


GROUP_LAW_CODE = {"_step", "monomial", "at", "fold", "compose_ad"}


def count_element_ops(monkeypatch):
    """Route GrassmannElement.__mul__ and __add__ through a counter of the
    calls made from liesuper or from the group law (GroupLaw's methods, the
    functions nested in them, and compose_ad), and return the list."""
    calls = []
    for attr in ("__mul__", "__add__"):
        def counted(self, other, _real=getattr(GrassmannElement, attr), _attr=attr):
            code = sys._getframe(1).f_code
            if (code.co_filename.endswith("liesuper.py")
                    or code.co_filename.endswith("gp.py") and code.co_name in GROUP_LAW_CODE):
                calls.append((_attr, code.co_name))
            return _real(self, other)
        monkeypatch.setattr(GrassmannElement, attr, counted)
    return calls


def forbid_rows(monkeypatch):
    """Make every read of SuperMatrix.rows, the element view of a matrix,
    raise: below the API a matrix is read through its grid."""
    def rows(self):
        raise AssertionError("SuperMatrix.rows read below the API")
    monkeypatch.setattr(SuperMatrix, "rows", property(rows))


def test_group_law_and_module_action_make_no_element_arithmetic(monkeypatch):
    """One product, inverse and module action over Lambda_4(F_3): no
    GrassmannElement product or sum from inside liesuper or the group law,
    no SuperMatrix product or constructor inside gp_mul and gp_inv (even
    factors are grids, wrapped once), and no read of SuperMatrix.rows in
    them, in the module action, smat_inv or GroupDescriptor.member."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    rng = random.Random(3)
    module = InducedModule(pair, defining_module(pair))
    g = pair.even_group.sample(A, rng)
    a = normal_form(GroupWord(pair, A, [OddTok(0, rand_odd(A, rng)), EvenTok(g),
                                        OddTok(2, rand_odd(A, rng))]))
    b = normal_form(GroupWord(pair, A, [OddTok(1, rand_odd(A, rng)),
                                        OddTok(3, rand_odd(A, rng)), EvenTok(g)]))
    assert sum(not e.is_zero() for e in b.etas) >= 2
    group_law(pair)  # compiled before counting
    calls = count_element_ops(monkeypatch)
    matrix_calls = []
    for attr in ("__mul__", "__init__"):
        def counted(*args, _real=getattr(SuperMatrix, attr), _attr=attr):
            matrix_calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(SuperMatrix, attr, counted)
    forbid_rows(monkeypatch)
    ab = gp_mul(a, b)
    inv = gp_inv(ab)
    assert matrix_calls == []
    module.apply_normal_form(ab, module.vacuum_with(0, A))
    assert calls == []
    assert pair.even_group.member(smat_inv(g))
    monkeypatch.undo()
    assert ab == normal_form(GroupWord(pair, A, a.tokens + b.tokens))
    assert inv == normal_form(ab.to_word().inverse())


def test_factor_product_and_rewriting_make_no_element_arithmetic(monkeypatch):
    """factor_product and reorder_symbolic run on grids of term dicts and
    wrap each result once: on seeded triangle words (gl(1|1) and gl(2|1)
    over Lambda_4(Q)) no GrassmannElement product or sum and no
    SuperMatrix constructor runs inside them, and none of them, normal_form
    or strip_matrix_factorization reads SuperMatrix.rows."""
    A = GrassmannAlgebra(QQ, 4)
    pairs = [gl_pair(1, 1, QQ), gl_pair(2, 1, QQ)]
    rng = random.Random(2026)
    words = [random_word(pairs[t % 2], A, rng) for t in range(24)]
    calls = []
    for cls, attrs in ((GrassmannElement, ("__mul__", "__add__")), (SuperMatrix, ("__init__",))):
        for attr in attrs:
            def counted(*args, _real=getattr(cls, attr), _name=f"{cls.__name__}.{attr}"):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cls, attr, counted)
    forbid_rows(monkeypatch)
    forms = [(factor_product(w.pair, A, w.tokens), reorder_symbolic(w)) for w in words]
    assert calls == []
    others = [(normal_form(w), strip_matrix_factorization(w.pair, m))
              for (m, _), w in zip(forms, words)]
    monkeypatch.undo()
    assert all(m == w.rho_matrix() and nf == a == c
               for (m, nf), (a, c), w in zip(forms, others, words))
