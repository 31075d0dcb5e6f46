"""Normal forms: the oracle triangle, group law, functoriality, induction."""

import random
import sys

import pytest

from superpoints import (
    GF2,
    GF3,
    QQ,
    EvenTok,
    GroupWord,
    GrassmannAlgebra,
    InducedModule,
    MembershipViolation,
    NormalForm,
    OddTok,
    PairMorphism,
    SpanViolation,
    StructuralError,
    SuperMatrix,
    SuperNumbers,
    char2_pair,
    defining_module,
    dual_numbers,
    gl_pair,
    gp_commutator,
    gp_inv,
    gp_mul,
    normal_form,
    psi_on_morphism,
    q2_pair,
    reorder_symbolic,
    roundtrip_phi_psi,
    roundtrip_psi_phi,
    smat_inv,
    strip_matrix_factorization,
)
from superpoints import gp, shcp, smat, verify
from superpoints.gp import EvenModuleData, group_law, slide_odds
from superpoints.sampling import rand_even_unit, rand_odd
from superpoints.verify import (
    SUITES,
    basis_independence,
    cached_gl_pair,
    nf_semidirect_split,
    oracle_triangle,
    random_word,
    uniqueness_suite,
)

from .oracles import (ad_rows_oracle, k_matmul_oracle, odd_monomial_action_oracle,
                      supermatrix_rep_oracle)
from .support import ad_elements, ad_unstable_pair, negated_eo_pair, trivial_module
from .test_shcp import count_inversions


@pytest.fixture(scope="module")
def pair11():
    return gl_pair(1, 1, QQ)


@pytest.fixture(scope="module")
def L2():
    return GrassmannAlgebra(QQ, 2)


# ---------------------------------------------------------------------------
# words


def test_word_drops_zero_and_validates(pair11, L2):
    w = GroupWord(pair11, L2, [OddTok(0, L2.zero())])
    assert len(w.tokens) == 0
    with pytest.raises(StructuralError):
        GroupWord(pair11, L2, [OddTok(0, L2.one())])  # even coefficient
    with pytest.raises(MembershipViolation):
        bad = SuperMatrix((1, 1), L2, [[L2.one(), L2.generator(1)],
                                       [L2.zero(), L2.one()]])
        GroupWord(pair11, L2, [EvenTok(bad)])


def _foreign_entry_matrix():
    """An entry of Lambda_4 in a 1x1 matrix over Lambda_1: accepted, its
    inverse's series would stop at rank 1 and miss x{1,2,3,4}."""
    L4 = GrassmannAlgebra(QQ, 4)
    e = L4.one() + L4.monomial([1, 2]) + L4.monomial([3, 4])
    return SuperMatrix((1, 0), GrassmannAlgebra(QQ, 1), [[e]])


def _foreign_normal_form(etas_rank, g_rank, field=QQ):
    """A normal form of the gl(1|1) pair over Q, over Lambda_2(field), with
    etas x1, x2 from Lambda_etas_rank and the identity of Lambda_g_rank as
    even factor."""
    A = GrassmannAlgebra(field, etas_rank)
    return NormalForm(gl_pair(1, 1, QQ), GrassmannAlgebra(field, 2),
                      [A.generator(1), A.generator(2)],
                      SuperMatrix.identity((1, 1), GrassmannAlgebra(field, g_rank)))


@pytest.mark.parametrize("make", [
    _foreign_entry_matrix,
    lambda: SuperMatrix((1, 0), GrassmannAlgebra(QQ, 1), [[GrassmannAlgebra(GF3, 1).one()]]),
    lambda: SuperMatrix((1, 0), GrassmannAlgebra(QQ, 1), [[1]]),
    lambda: _foreign_normal_form(4, 4),
    lambda: _foreign_normal_form(4, 2),
    lambda: _foreign_normal_form(2, 4),
    lambda: _foreign_normal_form(2, 2, GF3),
], ids=["matrix-rank", "matrix-field", "matrix-int", "nf-both", "nf-etas", "nf-even-factor",
        "nf-field"])
def test_entries_over_another_algebra_raise(make):
    """The public SuperMatrix constructor and NormalForm take only elements
    of their own algebra, as GroupWord takes only tokens over its own."""
    with pytest.raises(StructuralError):
        make()


def test_word_inverse_is_token_reversal(pair11, L2):
    rng = random.Random(0)
    w = random_word(pair11, L2, rng, 6)
    I = pair11.identity_matrix(L2)
    assert w.rho_matrix() * w.inverse().rho_matrix() == I


# ---------------------------------------------------------------------------
# normal_form: worked instances


def test_single_even_token(pair11, L2):
    rng = random.Random(1)
    g = pair11.even_group.sample(L2, rng)
    nf = normal_form(GroupWord(pair11, L2, [EvenTok(g)]))
    assert all(e.is_zero() for e in nf.etas)
    assert nf.g_plus == g


def test_two_odd_generators_swap_instance(pair11, L2):
    """OddGen(2, x1).OddGen(1, x2): etas read off, even factor from the
    bracket correction; verified against the matrix product oracle."""
    x1, x2 = L2.generator(1), L2.generator(2)
    w = GroupWord(pair11, L2, [OddTok(1, x1), OddTok(0, x2)])
    nf = normal_form(w)
    assert nf.etas[0] == x2 and nf.etas[1] == x1
    assert nf.rho_matrix() == w.rho_matrix()
    # the even factor is the correction (1 + x2 x1 [Y2,Y1]) = 1 - x12 (E11+E22)
    expected = pair11.identity_matrix(L2) + pair11.lie.rho_comb(
        0, pair11.lie.oo[1][0], L2).scale(x2 * x1)
    assert nf.g_plus == expected


def test_repeated_index_square_relation(pair11, L2):
    x1, x2 = L2.generator(1), L2.generator(2)
    w = GroupWord(pair11, L2, [OddTok(0, x1), OddTok(0, x2)])
    nf = normal_form(w)
    assert nf.etas[0] == x1 + x2 and nf.etas[1].is_zero()
    want = pair11.identity_matrix(L2) + pair11.lie.rho_comb(
        0, pair11.lie.q2[0], L2).scale(x2 * x1)
    assert nf.g_plus == want


def test_reorder_agrees_on_spec_instances(pair11, L2):
    x1, x2 = L2.generator(1), L2.generator(2)
    for toks in ([OddTok(1, x1), OddTok(0, x2)],
                 [OddTok(0, x1), OddTok(0, x2)],
                 [OddTok(0, x1)],
                 []):
        w = GroupWord(pair11, L2, toks)
        assert normal_form(w) == reorder_symbolic(w)


def test_already_ordered_word_unchanged(pair11, L2):
    x1, x2 = L2.generator(1), L2.generator(2)
    w = GroupWord(pair11, L2, [OddTok(0, x1), OddTok(1, x2)])
    nf = reorder_symbolic(w)
    assert nf.etas[0] == x1 and nf.etas[1] == x2
    assert nf.g_plus == pair11.identity_matrix(L2)


# ---------------------------------------------------------------------------
# the oracle triangle


def test_oracle_triangle_short():
    st = {}
    rep = oracle_triangle(seed=5, count=60, stats=st)
    assert rep.ok, rep.summary()
    assert st["max_passes"] <= st["bound"]


@pytest.mark.parametrize("route", ["normal_form", "reorder_symbolic",
                                   "strip_matrix_factorization"])
def test_oracle_triangle_reports_a_raising_route_per_word(monkeypatch, route):
    """An exception from one route is a failure of its word, reported with
    its type, and the suite goes on to the next word."""
    def broken(*args, **kwargs):
        raise MembershipViolation("matrix is not a point of the group")

    monkeypatch.setattr(verify, route, broken)
    rep = oracle_triangle(seed=5, count=3)
    assert rep.failures == [f"word {t}: MembershipViolation: matrix is not a point of the group"
                            for t in range(3)]


@pytest.mark.parametrize("field", [GF2, GF3])
def test_oracle_triangle_positive_characteristic(field):
    rep = oracle_triangle(seed=6, count=30, field=field)
    assert rep.ok, rep.summary()


def test_char2_fixture_two_routes():
    rng = random.Random(9)
    pair = char2_pair(GF2)
    A = GrassmannAlgebra(GF2, 4)
    for _ in range(15):
        w = random_word(pair, A, rng, 7)
        assert normal_form(w) == reorder_symbolic(w)


# ---------------------------------------------------------------------------
# group structure


def test_group_axioms(pair11):
    rep = uniqueness_suite(seed=2, count=40)
    assert rep.ok, rep.summary()


def _concat_mul(a, b):
    """The product by word concatenation: the reference for the compiled law."""
    return normal_form(GroupWord(a.pair, a.algebra, a.to_word().tokens + b.to_word().tokens))


def _concat_inv(a):
    return normal_form(a.to_word().inverse())


_LAW_CASES = {
    "gl11-Q": lambda: (gl_pair(1, 1, QQ), GrassmannAlgebra(QQ, 4)),
    "gl11-F2": lambda: (gl_pair(1, 1, GF2), GrassmannAlgebra(GF2, 4)),
    "gl11-F3": lambda: (gl_pair(1, 1, GF3), GrassmannAlgebra(GF3, 4)),
    "gl21-Q": lambda: (gl_pair(2, 1, QQ), GrassmannAlgebra(QQ, 4)),
    "gl21-F2": lambda: (gl_pair(2, 1, GF2), GrassmannAlgebra(GF2, 4)),
    "gl21-F3": lambda: (gl_pair(2, 1, GF3), GrassmannAlgebra(GF3, 4)),
    "char2-F2": lambda: (char2_pair(GF2), GrassmannAlgebra(GF2, 4)),
    "gl11-k[eta]": lambda: (gl_pair(1, 1, QQ), SuperNumbers(QQ)),
    "gl21-dual-L3": lambda: (gl_pair(2, 1, QQ), dual_numbers(GrassmannAlgebra(QQ, 3))[0]),
}


@pytest.mark.parametrize("case", list(_LAW_CASES))
def test_group_law_matches_word_concatenation(case):
    """gp_mul and gp_inv through the compiled law equal the normal form of the
    concatenated (inverted) word, on the identity, an even-only form and
    random forms."""
    pair, A = _LAW_CASES[case]()
    rng = random.Random(47)
    even = NormalForm(pair, A, [A.zero()] * pair.d_minus, pair.even_group.sample(A, rng))
    nfs = [NormalForm.identity(pair, A), even] + \
        [normal_form(random_word(pair, A, rng, 5)) for _ in range(7)]
    for a in nfs:
        assert gp_inv(a) == _concat_inv(a)
        for b in nfs:
            assert gp_mul(a, b) == _concat_mul(a, b)


def test_gp_inv_inverts_once(monkeypatch):
    """A normal form inverts its even factor at most once over any sequence
    of gp_mul and gp_inv: a form made outside the law takes g^-1 and Ad(g)
    from one memo entry (equal points share it), a law result inverts its
    own g_plus when gp_inv first asks.  A product of forms that carry
    their Ad makes no inversion and no odd solve, and neither does reading
    its Ad."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    rng = random.Random(48)
    nfs = [normal_form(random_word(pair, A, rng, 6)) for _ in range(6)]
    assert all(any(not e.is_zero() for e in nf.etas) for nf in nfs)
    want = [_concat_inv(nf) for nf in nfs]
    group_law(pair)  # compiled before counting
    pair._ad_memo.clear()
    calls = count_inversions(monkeypatch, gp, shcp, smat)
    solves = []
    real = shcp.HarishChandraPair.conj_grid
    monkeypatch.setattr(shcp.HarishChandraPair, "conj_grid",
                        lambda self, *args: solves.append(args) or real(self, *args))
    for nf, inv in zip(nfs, want):
        assert gp_inv(nf) == inv
    assert len(calls) == len({repr(nf.g_plus) for nf in nfs}) < len(nfs)  # two points are equal
    before = len(calls), len(solves)
    products = [gp_mul(a, b) for a in nfs for b in nfs]
    assert [len(p.ad()) for p in products] == [pair.d_minus] * len(products)
    assert (len(calls), len(solves)) == before
    forms = nfs + products[::5]
    forms += [gp_inv(x) for x in forms]
    for _ in range(2):
        for x in forms:
            assert gp_mul(x, gp_inv(x)) == NormalForm.identity(pair, A)
            gp_mul(gp_mul(x, nfs[0]), gp_inv(nfs[1]))
    inverted = [id(args[-1]) for args in calls]
    assert len(inverted) == len(set(inverted))
    assert set(inverted) <= {id(x.g_plus.grid) for x in forms}


def _cold_ad(nf):
    """Ad of the even factor computed from scratch: an empty memo, and a
    fresh copy of g_plus."""
    nf.pair._ad_memo.clear()
    copy = SuperMatrix(nf.g_plus.shape, nf.algebra, [[x + nf.algebra.zero() for x in row]
                                                     for row in nf.g_plus.rows])
    return [list(row) for row in nf.pair.ad_action_matrix(copy)[0]]


_HOM_CASES = {f"{name}-{field}": (make, field)
              for name, make in (("gl11", lambda f: gl_pair(1, 1, f)),
                                 ("gl21", lambda f: gl_pair(2, 1, f)),
                                 ("gl12", lambda f: gl_pair(1, 2, f)), ("q2", q2_pair))
              for field in (QQ, GF3)}


@pytest.mark.parametrize("case", list(_HOM_CASES))
def test_law_results_carry_the_ad_of_their_even_factor(case):
    """Ad is a group homomorphism: the Ad that a product or inverse composes
    from its factors' Ad and the law's Ad(c) equals Ad of its even factor
    computed cold, on products, nested products, a . b^-1 and
    a^-1 . (b . c) over Lambda_5.  The carried grids take no part in ==
    or repr."""
    make, field = _HOM_CASES[case]
    pair = make(field)
    A = GrassmannAlgebra(field, 5)
    rng = random.Random(53)
    nfs = [normal_form(random_word(pair, A, rng, 5)) for _ in range(6)]
    checked = 0
    for a, b, c in zip(nfs, nfs[1:] + nfs[:1], nfs[2:] + nfs[:2]):
        for nf in (gp_mul(a, b), gp_mul(gp_mul(a, b), c), gp_mul(a, gp_mul(b, c)),
                   gp_mul(a, gp_inv(b)), gp_mul(gp_inv(a), gp_mul(b, c)), gp_inv(a)):
            twin = NormalForm(pair, A, nf.etas, nf.g_plus)
            shown = repr(nf)
            assert [list(row) for row in nf.ad()] == _cold_ad(nf)
            assert nf == twin and repr(nf) == repr(twin) == shown
            checked += 1
    assert checked == 36


@pytest.mark.parametrize("field", [QQ, GF3], ids=str)
@pytest.mark.parametrize("make", [lambda f: gl_pair(2, 1, f), q2_pair], ids=["gl21", "q2"])
def test_every_ad_handed_out_holds_the_image_of_y_i_in_row_i(make, field):
    """One layout for every Ad the program hands out: row i holds the odd
    coordinates of g Y_i g^-1, as the regular-representation oracle solves
    them (no mac, nothing inverted).  Checked over Lambda_3 on a memo
    entry, on conj_coords(g, g^-1), on the Ad of a form made outside the
    law, and on the Ad that a gp_mul and a gp_inv result compose from
    their fold steps."""
    pair = make(field)
    A = GrassmannAlgebra(field, 3)
    rng = random.Random(55)
    law = []
    while not (law and all(nf._ad.steps for nf in law)):  # the fold steps compose Ad
        a, b = (normal_form(random_word(pair, A, rng, 6)) for _ in range(2))
        law = [gp_mul(a, b), gp_inv(a)]
    g = pair.even_group.sample(A, rng)
    handed = [(g, pair.ad_action_matrix(g)[0]),
              (g, [[x.terms for x in row] for row in pair.conj_coords(g, smat_inv(g))]),
              (a.g_plus, a.ad())] + [(nf.g_plus, nf.ad()) for nf in law]
    for point, ad in handed:
        want = ad_rows_oracle(field, A.rank, pair.shape, pair.lie.rho_odd,
                              [[dict(x) for x in row] for row in point.grid])
        assert [list(row) for row in ad] == want


def test_pending_ad_chains_are_bounded():
    """A product whose Ad is never read holds its factors until it is: a
    right-nested chain of products keeps at most _PENDING_DEPTH of them
    pending, and the Ad at its end is still the cold one."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    rng = random.Random(54)
    nfs = [normal_form(random_word(pair, A, rng, 4)) for _ in range(5)]
    x = nfs[0]
    for k in range(3 * gp._PENDING_DEPTH):
        x = gp_mul(nfs[k % 5], x)
        assert 1 <= x._ad.depth <= gp._PENDING_DEPTH
    assert [list(row) for row in x.ad()] == _cold_ad(x)


def test_second_pass_of_group_triples_inverts_nothing(monkeypatch):
    """Group-law triples as the group-f3 benchmark runs them, over
    Lambda_4(F_3) on gl(2|1): associativity, a . a^-1 = 1 and the induced
    defining module.  The first pass fills each pool form's Ad and g^-1
    once; a second pass over the same triples makes no inversion and asks
    the Ad memo for nothing, since every Ad it reads is carried by a pool
    form or composed by the law."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    rng = random.Random(2026)
    module = InducedModule(pair, defining_module(pair))
    one = NormalForm.identity(pair, A)
    pool = [normal_form(random_word(pair, A, rng, 1 + t % 5)) for t in range(15)]
    triples = list(zip(*(rng.sample(pool, len(pool)) for _ in range(3))))
    group_law(pair)
    pair._ad_memo.clear()
    calls = count_inversions(monkeypatch, gp, shcp, smat)
    asked = []
    real = shcp.HarishChandraPair.ad_action_matrix
    monkeypatch.setattr(shcp.HarishChandraPair, "ad_action_matrix",
                        lambda self, *args, **kw: asked.append(args) or real(self, *args, **kw))

    def run_pass():
        for a, b, c in triples:
            ab = gp_mul(a, b)
            assert gp_mul(ab, c) == gp_mul(a, gp_mul(b, c))
            assert gp_mul(a, gp_inv(a)) == one
            for t in range(module.v0.dim):
                vac = module.vacuum_with(t, A)
                assert (module.apply_normal_form(ab, vac)
                        == module.apply_normal_form(a, module.apply_normal_form(b, vac)))

    run_pass()
    assert 0 < len(calls) <= len(pool)
    del calls[:], asked[:]
    run_pass()
    assert calls == [] and asked == []


def test_triangle_computes_ad_only_where_an_odd_factor_crosses(monkeypatch):
    """The three routes on seeded triangle words over Lambda_4(Q), gl(1|1)
    and gl(2|1), each word on an empty Ad memo: the cold Ad computations
    (inversions made through shcp) are exactly the distinct even tokens
    with an odd factor to their right.  A trailing even token, which no odd
    factor crosses, costs none."""
    rng = random.Random(2026)
    A = GrassmannAlgebra(QQ, 4)
    pairs = [gl_pair(1, 1, QQ), gl_pair(2, 1, QQ)]
    calls = count_inversions(monkeypatch, shcp)
    crossed = trailing = 0
    for t in range(60):
        word = random_word(pairs[t % 2], A, rng)
        word.pair._ad_memo.clear()
        del calls[:]
        crossing = []
        for k, tok in enumerate(word.tokens):
            if tok.kind == "even":
                if any(u.kind == "odd" for u in word.tokens[k + 1:]):
                    if all(tok.matrix != x for x in crossing):
                        crossing.append(tok.matrix)
                else:
                    trailing += 1
        nf = normal_form(word)
        assert reorder_symbolic(word) == nf
        assert strip_matrix_factorization(word.pair, word.rho_matrix()) == nf
        assert len(calls) == len(crossing)
        crossed += len(crossing)
    assert crossed and trailing


def test_slide_passes_a_vanishing_factor_through():
    """A factor with eta.c = 0 leaves slide_odds as its own dict, unmoved
    and uncopied, even where [Z, Y_k] != 0, beside a factor that the
    correction does move.  On gl(2|1), Z = [Y_1, Y_4] has [Z, Y_2] = Y_1
    and [Z, Y_3] = -Y_4."""
    lie, A = gl_pair(2, 1, QQ).lie, GrassmannAlgebra(QQ, 4)
    x1, x2, x3 = (A.generator(i).terms for i in (1, 2, 3))
    c = (A.generator(1) * A.generator(2)).terms
    out = slide_odds(lie, lie.oo[0][3], c, [(0, x1), (1, x3), (2, x2)])
    x3c = (A.generator(3) * A.generator(1) * A.generator(2)).terms
    assert out == [(0, x1), (0, x3c), (1, x3), (2, x2)]
    assert out[0][1] is x1 and out[3][1] is x2 and out[2][1] is not x3


def test_group_law_on_ad_unstable_pair_raises_span_violation():
    """diag(2, 1, 1) moves E13 + E32 off its line: a product or inverse that
    carries an odd factor past it raises SpanViolation, as word
    concatenation does (the Ad matrix is read before the law is compiled)."""
    pair = ad_unstable_pair(QQ)
    A = GrassmannAlgebra(QQ, 3)
    z, one = A.zero(), A.one()
    g = SuperMatrix((2, 1), A, [[A.from_scalar(2), z, z], [z, one, z], [z, z, one]])
    a = NormalForm(pair, A, [z], g)
    b = NormalForm(pair, A, [A.generator(1)], pair.identity_matrix(A))
    for fn in (_concat_mul, gp_mul):
        with pytest.raises(SpanViolation):
            fn(a, b)
    for fn in (_concat_inv, gp_inv):
        with pytest.raises(SpanViolation):
            fn(NormalForm(pair, A, [A.generator(1)], g))


@pytest.mark.parametrize("make,field", [
    (lambda f: gl_pair(1, 1, f), QQ), (lambda f: gl_pair(1, 1, f), GF3),
    (lambda f: gl_pair(2, 1, f), QQ), (lambda f: gl_pair(2, 1, f), GF3), (q2_pair, QQ),
], ids=["gl11-Q", "gl11-F3", "gl21-Q", "gl21-F3", "q2-Q"])
def test_fold_step_corrections_square_to_zero(make, field):
    """Each fold step's N = c - 1 and D = Ad(c) - 1 square to zero in the
    twisted product: every entry carries one r_j of the run, and
    r_j r_k = 0.  Runs 1 + zeta sum_j w_j Y_j over Lambda_10 at sampled xi;
    some N must be nonzero on every pair."""
    pair = make(field)
    A = GrassmannAlgebra(field, 10)
    law, p, d = group_law(pair), pair.shape[0], pair.d_minus
    I = pair.identity_matrix(A)
    rng = random.Random(5)
    nonzero = 0
    for _ in range(40):
        xi = [rand_odd(A, rng) for _ in range(d)]
        zeta = rand_odd(A, rng)
        w = [rand_even_unit(A, rng).terms for _ in range(d)]
        grid = smat.identity_grid(field, sum(pair.shape))
        _, steps = law.fold(A, xi, [(zeta.terms, w)], grid)
        n = (smat.wrap_grid(pair.shape, A, grid) - I).grid
        assert not any(x for row in smat.grid_mul(field, p, n, n) for x in row)
        for D in steps:
            assert not any(x for row in smat.grid_mul(field, d, D, D) for x in row)
        nonzero += any(x for row in n for x in row)
    assert nonzero


@pytest.mark.parametrize("make,field", [
    (lambda f: gl_pair(1, 1, f), QQ), (lambda f: gl_pair(1, 1, f), GF3),
    (lambda f: gl_pair(2, 1, f), QQ), (lambda f: gl_pair(2, 1, f), GF3), (q2_pair, QQ),
    (char2_pair, GF2),
], ids=["gl11-Q", "gl11-F3", "gl21-Q", "gl21-F3", "q2-Q", "char2-F2"])
def test_group_law_compiles_without_ad_or_inversion(monkeypatch, make, field):
    """The law keeps sigma and the g_0-coordinates z of its even correction
    and reads Ad(c) off the bracket table, so compiling it asks for no Ad
    matrix and inverts nothing: it compiles with ad_action_matrix and every
    binding of grid_inv and smat_inv made to raise, and some correction is
    nonzero."""
    pair = make(field)

    def refuse(*args, **kw):
        raise AssertionError("the law's compile asked for an Ad or an inverse")

    monkeypatch.setattr(shcp.HarishChandraPair, "ad_action_matrix", refuse)
    for name, mod in list(sys.modules.items()):
        if name == "superpoints" or name.startswith("superpoints."):
            for attr in ("grid_inv", "smat_inv"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    law = group_law(pair)
    assert len(law.z) == pair.d_minus and any(law.z)


def test_group_law_rejects_d_minus_above_15():
    """gl(4|2) has d_minus = 16: Lambda_17 is past the rank cap, so the law
    refuses before any work, and there is no other product."""
    pair = gl_pair(4, 2, GF3)
    A = GrassmannAlgebra(GF3, 2)
    ident = NormalForm.identity(pair, A)
    with pytest.raises(StructuralError, match="d_minus = 16 exceeds 15"):
        gp_mul(ident, ident)
    with pytest.raises(StructuralError, match="d_minus = 16 exceeds 15"):
        gp_inv(ident)


def test_generic_point_suite():
    rep = SUITES["generic-point"]()
    assert rep.ok, rep.summary()


def test_uniqueness_perturbation_distinct_action(pair11, L2):
    """Perturbing a normal form changes its action on the induced module."""
    rng = random.Random(10)
    module = InducedModule(pair11, defining_module(pair11))
    nf = normal_form(random_word(pair11, L2, rng, 4))
    etas = list(nf.etas)
    etas[0] = etas[0] + L2.generator(1)
    other = NormalForm(pair11, L2, etas, nf.g_plus)
    assert other != nf
    assert any(
        module.apply_normal_form(nf, module.vacuum_with(t, L2))
        != module.apply_normal_form(other, module.vacuum_with(t, L2))
        for t in range(module.v0.dim))


def test_commutator_recovers_bracket(pair11, L2):
    """((1+x1 Y1),(1+x2 Y2)) = (1 + x2 x1 [Y1,Y2])."""
    x1, x2 = L2.generator(1), L2.generator(2)
    nf1 = normal_form(GroupWord(pair11, L2, [OddTok(0, x1)]))
    nf2 = normal_form(GroupWord(pair11, L2, [OddTok(1, x2)]))
    comm = gp_commutator(nf1, nf2)
    expect = pair11.identity_matrix(L2) + pair11.lie.rho_comb(
        0, pair11.lie.oo[0][1], L2).scale(x2 * x1)
    assert all(e.is_zero() for e in comm.etas)
    assert comm.g_plus == expect


def test_tang_group_identities_at_normal_form_level():
    """The one-parameter identity families re-verified as NormalForm
    equalities (both sides normalized as words), not just as matrices."""
    rng = random.Random(23)
    for field in (QQ, GF2, GF3):
        pair = cached_gl_pair(1, 1, field)
        A = GrassmannAlgebra(field, 4)
        I = pair.identity_matrix(A)

        def nf_of(toks):
            return normal_form(GroupWord(pair, A, toks))

        for _ in range(10):
            eta, etap, etapp = (rand_odd(A, rng) for _ in range(3))
            i = rng.randrange(pair.d_minus)
            j = rng.randrange(pair.d_minus)
            g0 = pair.even_group.sample(A, rng)
            # (b): (1+eta Y_i) g0 = g0 (1+eta Ad(g0^-1)Y_i)
            coords = pair.ad_coords(g0, i)
            rhs = [EvenTok(g0)] + [OddTok(t, eta * c)
                                   for t, c in enumerate(coords) if not (eta * c).is_zero()]
            assert nf_of([OddTok(i, eta), EvenTok(g0)]) == nf_of(rhs)
            # (c): swap with the bracket correction
            corr_c = I + pair.lie.rho_comb(0, pair.lie.oo[i][j], A).scale(etapp * etap)
            assert nf_of([OddTok(i, etap), OddTok(j, etapp)]) == \
                nf_of([EvenTok(corr_c), OddTok(j, etapp), OddTok(i, etap)])
            # (d): shared eta factors commute and merge
            if i != j:
                assert nf_of([OddTok(i, eta), OddTok(j, eta)]) == \
                    nf_of([OddTok(j, eta), OddTok(i, eta)])
            # (e): repeated index with the square correction
            corr_e = I + pair.lie.rho_comb(0, pair.lie.q2[i], A).scale(etapp * etap)
            assert nf_of([OddTok(i, etap), OddTok(i, etapp)]) == \
                nf_of([EvenTok(corr_e), OddTok(i, etap + etapp)])
            # (f): even correction factors slide with odd corrections;
            # X is a random even-basis combination, coefficient a in the
            # square of the odd ideal
            from superpoints.sampling import rand_k_vector

            a = etap * etapp
            f = pair.lie.field
            x_coords = rand_k_vector(f, rng, pair.d_plus)
            even_f = I + pair.lie.rho_comb(0, x_coords, A).scale(a)
            lhs = nf_of([OddTok(i, eta), EvenTok(even_f)])
            # [Y_i, X] = -[X, Y_i] expanded through the stored constants
            comb = [f.from_int(0)] * pair.d_minus
            for t_e, c_e in enumerate(x_coords):
                if c_e == f.from_int(0):
                    continue
                br = pair.lie.eo[t_e][i]
                for t_o in range(pair.d_minus):
                    comb[t_o] = f.add(comb[t_o], f.neg(f.mul(c_e, br[t_o])))
            odd_corr = [OddTok(t_o, (eta * a).scale(c))
                        for t_o, c in enumerate(comb)
                        if not (eta * a).scale(c).is_zero()]
            rhs = nf_of([EvenTok(even_f)] + odd_corr + [OddTok(i, eta)])
            assert lhs == rhs
            # (g): the commutator identity on normal forms
            nfi = nf_of([OddTok(i, eta)])
            nfj = nf_of([OddTok(j, etap)])
            expect = nf_of([EvenTok(I + pair.lie.rho_comb(
                0, pair.lie.oo[i][j], A).scale(etap * eta))])
            assert gp_commutator(nfi, nfj) == expect


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_phi_psi(pair11):
    A = GrassmannAlgebra(QQ, 3)
    rep = roundtrip_phi_psi(pair11, A, samples=12)
    assert rep.ok, rep.summary()


def test_roundtrip_psi_phi(pair11):
    A = GrassmannAlgebra(QQ, 3)
    rep = roundtrip_psi_phi(pair11, A, samples=40)
    assert rep.ok, rep.summary()


def test_roundtrip_zero_odd_pair():
    from superpoints import HarishChandraPair, from_matrices, gl_block_diag

    f = QQ
    lie = from_matrices(1, 1,
                        [[[f.from_int(1), f.from_int(0)], [f.from_int(0), f.from_int(0)]],
                         [[f.from_int(0), f.from_int(0)], [f.from_int(0), f.from_int(1)]]],
                        [], f)
    pair = HarishChandraPair(gl_block_diag(1, 1), lie)
    A = GrassmannAlgebra(QQ, 2)
    rep = roundtrip_phi_psi(pair, A, samples=6)
    assert rep.ok, rep.summary()


def test_zero_odd_pair_strips_a_point_outside_g_plus_to_span_violation():
    """With d_minus = 0 the odd span is {0}: a GL(1|1) point with a nonzero
    odd entry is no point of the pair's group, so stripping it raises
    SpanViolation, and roundtrip_psi_phi reports the failure instead of
    crashing.  A point of G+ strips to itself."""
    from superpoints import HarishChandraPair, from_matrices, gl_block_diag

    f = QQ
    one, zero = f.from_int(1), f.from_int(0)
    lie = from_matrices(1, 1, [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]], [], f)
    pair = HarishChandraPair(gl_block_diag(1, 1), lie)
    A = GrassmannAlgebra(f, 2)
    m = SuperMatrix((1, 1), A, [[A.one(), A.generator(1)], [A.zero(), A.from_scalar(2)]])
    with pytest.raises(SpanViolation):
        strip_matrix_factorization(pair, m)
    g = SuperMatrix((1, 1), A, [[A.from_scalar(3), A.zero()], [A.zero(), A.one()]])
    assert strip_matrix_factorization(pair, g) == NormalForm(pair, A, [], g)
    rep = roundtrip_psi_phi(pair, A, samples=2)
    assert rep.failures and all("stripping failed" in x for x in rep.failures)


def test_roundtrip_phi_psi_reports_a_wrong_even_odd_bracket():
    """(iii): the normal form of (1 + eps E11).(1 + eta E12) carries
    eta + eps eta at Y1, the negated table eta - eps eta."""
    rep = roundtrip_phi_psi(negated_eo_pair(QQ), GrassmannAlgebra(QQ, 2), samples=2)
    assert "dual probe missed [X1,Y1] at Y1" in rep.failures


def test_generation():
    """Every sampled GL(2|1) point is reached by the word its stripping
    produces, and the module route normalizes that word back."""
    rep = roundtrip_psi_phi(cached_gl_pair(2, 1, QQ), GrassmannAlgebra(QQ, 3), samples=16, seed=4)
    assert rep.ok, rep.summary()


def test_stripping_equals_other_routes(pair11):
    rng = random.Random(14)
    A = GrassmannAlgebra(QQ, 3)
    for _ in range(10):
        w = random_word(pair11, A, rng, 6)
        m = w.rho_matrix()
        assert strip_matrix_factorization(pair11, m) == normal_form(w)


def test_stripping_inverts_once_per_refining_round(monkeypatch):
    """Each round divides the guessed odd product out by (1 - eta Y)
    factors, so the only inversion is of the diagonal part of a round that
    still has an odd discrepancy: one per odd solve (a grid_inv), none in
    the last round."""
    pair = gl_pair(2, 1, QQ)
    A = GrassmannAlgebra(QQ, 4)
    rng = random.Random(49)
    mats = [random_word(pair, A, rng, 8).rho_matrix() for _ in range(6)]
    solves = []

    def counted_solver(vector, terms, _real=pair.lie.odd_solver):
        solves.append(1)
        return _real(vector, terms)

    monkeypatch.setattr(pair.lie, "_odd_solver", counted_solver)
    calls = count_inversions(monkeypatch, gp, smat)
    for m in mats:
        del solves[:], calls[:]
        assert strip_matrix_factorization(pair, m).rho_matrix() == m
        assert len(solves) >= 1 and len(calls) == len(solves)


@pytest.mark.parametrize("make_pair", [lambda: gl_pair(1, 1, QQ), lambda: gl_pair(2, 1, QQ),
                                       lambda: q2_pair(QQ)], ids=["gl11", "gl21", "q2"])
def test_right_factorization_reexpands(make_pair):
    """The companion RIGHT orientation g = g_plus_r . prod^> (1 + eta_r Y),
    the odd product in descending basis order, read off the inverse's left
    form, re-expands to the word's matrix; q(2) has two nonzeros in each
    rho(Y_i)."""
    from superpoints.gp import factor_product

    pair = make_pair()
    rng = random.Random(29)
    A = GrassmannAlgebra(QQ, 3)
    for _ in range(10):
        w = random_word(pair, A, rng, 6)
        nf = normal_form(w)
        inv = gp_inv(nf)
        g_plus_r, etas_r = smat_inv(inv.g_plus), [-e for e in inv.etas]
        assert pair.even_group.member(g_plus_r)
        descending = [OddTok(i, etas_r[i]) for i in reversed(range(pair.d_minus))
                      if not etas_r[i].is_zero()]
        assert factor_product(pair, A, [EvenTok(g_plus_r)] + descending) == w.rho_matrix()


@pytest.mark.parametrize("make_pair", [lambda: gl_pair(2, 1, QQ), lambda: q2_pair(QQ)],
                         ids=["gl21", "q2"])
def test_factor_product_is_the_left_to_right_product(make_pair):
    """GroupWord.rho_matrix, NormalForm.rho_matrix and the dividing-out step
    evaluate their factors from the right; each equals the dense product,
    left to right, of the even points and the lifted factors
    I + rho(Y_i).eta."""
    pair = make_pair()
    A = GrassmannAlgebra(QQ, 3)
    rng = random.Random(53)
    ident = pair.identity_matrix(A)

    def dense(tokens, m=ident):
        out = ident
        for t in tokens:
            out = out * (t.matrix if t.kind == "even"
                         else ident + pair.lie.rho_odd_matrix(t.index, A).scale(t.eta))
        return out * m

    def odd():
        return OddTok(rng.randrange(pair.d_minus), rand_odd(A, rng))

    def even():
        return EvenTok(pair.even_group.sample(A, rng))

    words = [[even(), odd(), odd()], [odd(), odd(), even()], [odd(), even(), odd(), even()],
             [odd(), odd(), odd()], [even(), even()], []]
    for toks in words:
        w = GroupWord(pair, A, toks)
        m = w.rho_matrix()
        assert m == dense(w.tokens)
        nf = normal_form(w)
        assert nf.rho_matrix() == dense(nf.tokens) == m
        divide = gp._division(nf.etas)
        assert [(t.index, t.eta) for t in divide] == [
            (i, -nf.etas[i]) for i in reversed(range(pair.d_minus)) if not nf.etas[i].is_zero()]
        assert gp.factor_product(pair, A, divide, m) == dense(divide, m) == nf.g_plus
    etas = [rand_odd(A, rng) for _ in range(pair.d_minus)]
    nf = NormalForm(pair, A, etas, ident)
    assert nf.rho_matrix() == dense([OddTok(i, e) for i, e in enumerate(etas)])


@pytest.mark.parametrize("field", [QQ, GF3])
@pytest.mark.parametrize("make_pair", [lambda f: gl_pair(2, 1, f), q2_pair], ids=["gl21", "q2"])
def test_factor_product_matches_regular_representation(make_pair, field):
    """factor_product applies each odd factor in place on one grid; in the
    regular representation over Lambda_4 it equals the plain k-matrix
    product, left to right, of the even points and the lifted factors
    I + rho(Y_i).eta (q(2) has nonzeros at both (a, b) and (b, a))."""
    pair = make_pair(field)
    A = GrassmannAlgebra(field, 4)
    rng = random.Random(61)
    ident = pair.identity_matrix(A)

    def rep(m):
        return supermatrix_rep_oracle(field, A.rank, pair.shape[0],
                                      [[dict(e.terms) for e in row] for row in m.rows])

    for _ in range(3):
        w = random_word(pair, A, rng, 5)
        want = rep(ident)
        for t in w.tokens:
            f = (t.matrix if t.kind == "even"
                 else ident + pair.lie.rho_odd_matrix(t.index, A).scale(t.eta))
            want = k_matmul_oracle(field, want, rep(f))
        assert rep(gp.factor_product(pair, A, w.tokens)) == want


def test_word_token_bound():
    from superpoints.gp import MAX_WORD_TOKENS

    pair = cached_gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 2)
    toks = [OddTok(0, A.generator(1))] * (MAX_WORD_TOKENS + 1)
    with pytest.raises(StructuralError):
        GroupWord(pair, A, toks)


# ---------------------------------------------------------------------------
# basis independence


def test_basis_independence():
    rep = basis_independence(seed=3, count=12)
    assert rep.ok, rep.summary()


# ---------------------------------------------------------------------------
# morphisms


def corner_embedding():
    src = cached_gl_pair(1, 1, QQ)
    tgt = cached_gl_pair(2, 1, QQ)
    f = QQ
    om_even = [[f.from_int(0)] * 2 for _ in range(5)]
    om_even[0][0] = f.from_int(1)
    om_even[4][1] = f.from_int(1)
    om_odd = [[f.from_int(0)] * 2 for _ in range(4)]
    om_odd[0][0] = f.from_int(1)
    om_odd[2][1] = f.from_int(1)

    def omega_plus(g):
        A = g.algebra
        z, o = A.zero(), A.one()
        return SuperMatrix((2, 1), A, [[g.rows[0][0], z, z], [z, o, z],
                                       [z, z, g.rows[1][1]]])

    return PairMorphism(src, tgt, om_even, om_odd, omega_plus)


def test_corner_embedding_checks():
    assert corner_embedding().check(samples=6).ok


def test_morphism_check_inverts_each_sample_and_image_once(monkeypatch):
    """The identity morphism of gl(2|1) over Q: one inversion of each
    sampled g and one of its image, 2 x 16 in all."""
    pair = gl_pair(2, 1, QQ)
    f = QQ
    mor = PairMorphism(
        pair, pair,
        [[f.from_int(int(a == b)) for a in range(pair.d_plus)] for b in range(pair.d_plus)],
        [[f.from_int(int(i == j)) for i in range(pair.d_minus)] for j in range(pair.d_minus)],
        lambda g: g)
    calls = count_inversions(monkeypatch, gp, shcp)
    assert mor.check(samples=16).ok
    assert len(calls) == 32


def test_morphism_check_reports_a_wrong_differential():
    """The identity point map of gl(1|1) with omega swapping E11 and E22:
    d(Omega_+) sends X1 to X1, omega to X2."""
    pair = gl_pair(1, 1, QQ)
    f = QQ
    mor = PairMorphism(
        pair, pair,
        [[f.from_int(int(a != b)) for a in range(2)] for b in range(2)],
        [[f.from_int(int(i == j)) for i in range(2)] for j in range(2)],
        lambda g: g)
    assert "d(Omega_+) != omega on X1" in mor.check(samples=2).failures


def test_psi_on_morphism_identity_and_homomorphism():
    rng = random.Random(15)
    mor = corner_embedding()
    A = GrassmannAlgebra(QQ, 2)
    assert psi_on_morphism(mor, NormalForm.identity(mor.source, A)) == \
        NormalForm.identity(mor.target, A)
    for _ in range(8):
        n1 = normal_form(random_word(mor.source, A, rng, 4))
        n2 = normal_form(random_word(mor.source, A, rng, 4))
        assert psi_on_morphism(mor, gp_mul(n1, n2)) == \
            gp_mul(psi_on_morphism(mor, n1), psi_on_morphism(mor, n2))


def test_zero_morphism_collapses_odd_words():
    src = cached_gl_pair(1, 1, QQ)
    tgt = cached_gl_pair(2, 1, QQ)
    f = QQ
    mor = PairMorphism(src, tgt,
                       [[f.from_int(0)] * 2 for _ in range(5)],
                       [[f.from_int(0)] * 2 for _ in range(4)],
                       lambda g: SuperMatrix.identity((2, 1), g.algebra))
    A = GrassmannAlgebra(QQ, 2)
    nf = normal_form(GroupWord(src, A, [OddTok(0, A.generator(1))]))
    assert psi_on_morphism(mor, nf) == NormalForm.identity(tgt, A)


# ---------------------------------------------------------------------------
# module transport (supergroup modules <-> pair modules)


def test_module_transport_recovers_lie_action(pair11):
    """A pair module integrates to a word action whose dual-number probes
    differentiate back to the given Lie action."""
    from superpoints import dual_probe

    A = GrassmannAlgebra(QQ, 2)
    dual, eps = dual_numbers(A)
    # the defining module of the pair, as matrices
    for x in pair11.lie.rho_even:
        w = GroupWord(pair11, dual, [EvenTok(dual_probe(x, pair11.shape, eps))])
        got = w.rho_matrix()
        want = pair11.identity_matrix(dual) + \
            smat.constant_matrix(pair11.shape, dual, x).scale(eps)
        assert got == want
    for i in range(pair11.d_minus):
        eta = A.generator(1)
        w = GroupWord(pair11, A, [OddTok(i, eta)])
        got = w.rho_matrix()
        want = pair11.identity_matrix(A) + pair11.lie.rho_odd_matrix(i, A).scale(eta)
        assert got == want


# ---------------------------------------------------------------------------
# induction


def test_induced_trivial_coincides_with_word_action(pair11):
    from superpoints import word_action
    from superpoints.liesuper import trivial_action

    rng = random.Random(16)
    A = GrassmannAlgebra(QQ, 3)
    IM = InducedModule(pair11, trivial_module(pair11))
    for _ in range(8):
        w = random_word(pair11, A, rng, 5)
        vec = IM.apply_word(w, IM.vacuum_with(0, A))
        assert vec == word_action(w, {0: A.one()}, pair11.lie.odd_action, trivial_action)


def test_induced_dimension(pair11):
    IM = InducedModule(pair11, defining_module(pair11))
    assert IM.dim == 2 ** pair11.d_minus * 2


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_induced_odd_action_matches_oracle(field):
    """Y_j on Ybar_S (x) e_t of the induced defining module, read off as the
    x1-coefficient of (1 + x1 Y_j).(Ybar_S (x) e_t), equals the free-algebra
    rewriter with X_a acting on e_t by its V0 matrix."""
    A = GrassmannAlgebra(field, 1)
    x1 = A.generator(1)
    for p, q in ((1, 1), (2, 1)):
        pair = gl_pair(p, q, field)
        v0 = defining_module(pair)
        IM = InducedModule(pair, v0)
        dm = pair.d_minus
        for j in range(dm):
            w = GroupWord(pair, A, [OddTok(j, x1)])
            for mask in range(1 << pair.d_minus):
                for t in range(v0.dim):
                    got = IM.apply_word(w, {mask | t << dm: A.one()})
                    x1_part = {(k & ((1 << dm) - 1), k >> dm): c.terms[0b1]
                               for k, c in got.items() if 0b1 in c.terms}
                    want = odd_monomial_action_oracle(pair.lie, j, mask, v0.lie_mats, t)
                    assert x1_part == want, (p, q, j, mask, t)


def test_defining_module_d_compatibility(pair11):
    assert defining_module(pair11).check(pair11, samples=6).ok


def test_module_check_reports_a_wrong_lie_action(pair11):
    """The defining action with E11 and E22 acting by each other's matrix."""
    v0 = defining_module(pair11)
    wrong = EvenModuleData(v0.dim, v0.lie_mats[::-1], v0.group_action)
    rep = wrong.check(pair11, samples=1)
    assert "module action does not differentiate on X1" in rep.failures


def test_induced_action_respects_group_law(pair11):
    rng = random.Random(17)
    A = GrassmannAlgebra(QQ, 3)
    IM = InducedModule(pair11, defining_module(pair11))
    for _ in range(6):
        n1 = normal_form(random_word(pair11, A, rng, 4))
        n2 = normal_form(random_word(pair11, A, rng, 4))
        n12 = gp_mul(n1, n2)
        for t in range(IM.v0.dim):
            via = IM.apply_word(n1.to_word(), IM.apply_normal_form(n2, IM.vacuum_with(t, A)))
            assert via == IM.apply_normal_form(n12, IM.vacuum_with(t, A))


@pytest.mark.parametrize("p,q,field", [(1, 1, QQ), (2, 1, QQ), (1, 1, GF3), (2, 1, GF3)])
def test_apply_normal_form_acts_by_its_tokens(monkeypatch, p, q, field):
    """apply_normal_form equals acting by nf.to_word(), and it does not
    check the even factor's membership again, nor build an identity
    SuperMatrix to tell whether the even factor is 1."""
    from superpoints.smat import GroupDescriptor

    pair = gl_pair(p, q, field)
    A = GrassmannAlgebra(field, 3)
    IM = InducedModule(pair, defining_module(pair))
    rng = random.Random(50)
    nfs = [NormalForm.identity(pair, A)] + \
        [normal_form(random_word(pair, A, rng, 5)) for _ in range(5)]
    vacs = [IM.vacuum_with(t, A) for t in range(IM.v0.dim)]
    want = [[IM.apply_word(nf.to_word(), v) for v in vacs] for nf in nfs]
    checks = []
    real = GroupDescriptor.require_member
    monkeypatch.setattr(GroupDescriptor, "require_member",
                        lambda self, m, context="": checks.append(context) or real(self, m, context))
    monkeypatch.setattr(SuperMatrix, "identity", None)
    assert [[IM.apply_normal_form(nf, v) for v in vacs] for nf in nfs] == want
    assert checks == []


def _fresh_tokens(nf):
    """The tokens of nf computed from scratch: (1 + eta_i Y_i) for each
    nonzero eta_i, then g_plus unless it equals the identity matrix."""
    toks = [("odd", i, e) for i, e in enumerate(nf.etas) if not e.is_zero()]
    if nf.g_plus != SuperMatrix.identity(nf.g_plus.shape, nf.algebra):
        toks.append(("even", nf.g_plus))
    return toks


def _described(tokens):
    return [(t.kind, t.index, t.eta) if t.kind == "odd" else (t.kind, t.matrix) for t in tokens]


@pytest.mark.parametrize("field", [QQ, GF3])
def test_tokens_match_a_fresh_computation(monkeypatch, field):
    """Every read of a form's tokens returns the same tokens, equal to a
    fresh computation (kinds, indices, etas, matrix), with the even factor
    a FormTok of the form exactly when g_plus is not 1, on forms made
    outside the law, on 1 + one soul term, and on law results; reading
    them builds no identity grid."""
    pair = gl_pair(2, 1, field)
    A = GrassmannAlgebra(field, 4)
    rng = random.Random(56)
    nfs = [normal_form(random_word(pair, A, rng, 5)) for _ in range(4)]
    one = NormalForm.identity(pair, A)
    rows = [list(r) for r in pair.identity_matrix(A).rows]
    rows[0][0] = A.one() + A.monomial([1, 2], 1)
    soul = NormalForm(pair, A, [A.zero()] * pair.d_minus, SuperMatrix(pair.shape, A, rows))
    forms = [one, soul] + nfs + [gp_mul(a, b) for a in nfs for b in nfs] + \
        [gp_inv(a) for a in nfs] + [gp_mul(a, gp_inv(a)) for a in nfs]
    built, real = [], smat.identity_grid

    def read_tokens(nf):
        with monkeypatch.context() as m:
            for mod in (smat, gp):
                m.setattr(mod, "identity_grid", lambda *args: built.append(args) or real(*args))
            return nf.tokens

    for nf in forms:
        toks = read_tokens(nf)
        assert _described(toks) == _described(read_tokens(nf)) == _fresh_tokens(nf)
        assert _described(nf.to_word().tokens) == _fresh_tokens(nf) and built == []
        assert all(type(t) is gp.FormTok and t.form is nf for t in toks if t.kind == "even")
    assert [len(f.tokens) for f in forms[:2]] == [0, 1]
    assert [f.tokens for f in forms[-len(nfs):]] == [()] * len(nfs)


@pytest.mark.parametrize("pair,count", [(gl_pair(2, 1, GF3), 5), (q2_pair(QQ), 9)],
                         ids=["gl21", "q2"])
def test_group_law_keeps_each_polynomial_once(pair, count):
    """The compiled law keeps each distinct polynomial of sigma and z once,
    and sigma and z refer to them by index."""
    law = group_law(pair)
    assert len(law.polys) == len(set(law.polys)) == count
    assert {k for uses in law.sigma + law.z for _, k in uses} == set(range(count))


def test_induced_faithful_on_samples(pair11):
    rng = random.Random(18)
    A = GrassmannAlgebra(QQ, 3)
    IM = InducedModule(pair11, defining_module(pair11))
    pairs_checked = 0
    for _ in range(25):
        n1 = normal_form(random_word(pair11, A, rng, 4))
        n2 = normal_form(random_word(pair11, A, rng, 4))
        if n1 == n2:
            continue
        pairs_checked += 1
        assert any(
            IM.apply_normal_form(n1, IM.vacuum_with(t, A))
            != IM.apply_normal_form(n2, IM.vacuum_with(t, A))
            for t in range(IM.v0.dim))
    assert pairs_checked >= 15


# ---------------------------------------------------------------------------
# semidirect splittings at the group level


def test_nf_semidirect_split(pair11):
    rng = random.Random(19)
    A = GrassmannAlgebra(QQ, 3)
    for _ in range(10):
        nf = normal_form(random_word(pair11, A, rng, 5))
        nf_bar, nf_ker = nf_semidirect_split(nf)
        assert gp_mul(nf_bar, nf_ker) == nf
        assert all(e.is_zero() for e in nf_bar.etas)
        assert nf_ker.g_plus.body_lift() == pair11.identity_matrix(A)


@pytest.mark.parametrize("pair", [
    gl_pair(1, 1, QQ), gl_pair(2, 1, QQ), gl_pair(1, 1, GF3), gl_pair(2, 1, GF3),
    char2_pair(GF2),
], ids=["gl11-Q", "gl21-Q", "gl11-F3", "gl21-F3", "char2-F2"])
def test_slide_ad_matrix_is_conjugation(pair):
    """The bracket-table Ad of a rewriting correction 1 + c.rho(Z), c = eta2 eta,
    equals the Ad matrix built by conjugation, for every Z = Y_i^<2> and [Y_i, Y_j]:
    slide_odds carries the factor (k, 1) to row k of that matrix."""
    rng = random.Random(41)
    lie = pair.lie
    A = GrassmannAlgebra(pair.field, 4)
    I = pair.identity_matrix(A)
    dm = pair.d_minus
    zs = [lie.q2[i] for i in range(dm)] + [lie.oo[i][j] for i in range(dm) for j in range(dm)]
    for z in zs:
        for _ in range(2):
            c = A.zero()
            while c.is_zero():
                c = rand_odd(A, rng) * rand_odd(A, rng)
            ad = ad_elements(pair, I + lie.rho_comb(0, z, A).scale(c))
            for k in range(dm):
                row = dict(slide_odds(lie, z, c.terms, [(k, {0: A.field.from_int(1)})]))
                assert row == {j: x.terms for j, x in enumerate(ad[k]) if x.terms}
