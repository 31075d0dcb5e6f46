"""Pair validity, conjugation coordinates, and the forgetful direction."""

import os
import random
import re
import sys

import pytest

from superpoints import (
    GF2,
    GF3,
    QQ,
    GrassmannAlgebra,
    HarishChandraPair,
    LieSuperalgebraData,
    SpanViolation,
    EvenTok,
    GroupWord,
    OddTok,
    SuperMatrix,
    char2_pair,
    dual_numbers,
    from_matrices,
    gl_block_diag,
    gl_fixture,
    gl_full,
    gl_lie,
    gl_pair,
    gl_split,
    normal_form,
    phi_of_group,
    q2_pair,
    scalar_torus,
    serialize,
    smat_inv,
    validate_pair,
)
from superpoints import coeff, gp, liesuper, shcp, smat
from superpoints.sampling import rand_even_unit, rand_odd
from superpoints.shcp import AD_MEMO_SIZE
from superpoints.smat import dual_probe, matrix_units

from .oracles import k_matmul_oracle, supermatrix_rep_oracle
from .support import ad_elements, ad_unstable_pair, invert, negated_eo_pair


def diag(algebra, a, d):
    return SuperMatrix((1, 1), algebra, [[a, algebra.zero()], [algebra.zero(), d]])


def count_inversions(monkeypatch, *modules):
    """Route every inversion made through the given modules' names into a
    list, and return the list: each call of smat_inv, and of grid_inv where
    a module calls it directly (smat's own grid_inv serves smat_inv, so it
    is not counted twice)."""
    calls = []
    for mod in modules:
        for name in ("smat_inv", "grid_inv"):
            if hasattr(mod, name) and not (mod is smat and name == "grid_inv"):
                def counted(*args, _real=getattr(mod, name)):
                    calls.append(args)
                    return _real(*args)
                monkeypatch.setattr(mod, name, counted)
    return calls


# ---------------------------------------------------------------------------
# validate_pair fixtures


def test_gl11_pair_validates():
    rep = validate_pair(gl_pair(1, 1, QQ), samples=24)
    assert rep.ok, rep.summary()


def test_single_odd_line_pair_validates():
    """Odd part spanned by E12 only: conjugation by diag(a,d) scales it."""
    f = QQ
    lie = from_matrices(
        1, 1,
        [[[f.from_int(1), f.from_int(0)], [f.from_int(0), f.from_int(0)]],
         [[f.from_int(0), f.from_int(0)], [f.from_int(0), f.from_int(1)]]],
        [[[f.from_int(0), f.from_int(1)], [f.from_int(0), f.from_int(0)]]], f)
    pair = HarishChandraPair(gl_block_diag(1, 1), lie)
    rep = validate_pair(pair, samples=24)
    # d_plus = 2 equals the tangent dimension of GL1 x GL1: equality certified
    assert rep.ok, rep.summary()
    assert any("certified" in n for n in rep.notes)


def test_ad_unstable_pair_fails():
    rep = validate_pair(ad_unstable_pair(QQ), samples=8)
    assert not rep.ok
    assert any("Ad-stability" in m for m in rep.failures)


def test_validate_pair_reports_an_even_basis_off_the_group():
    """Step (1): 1 + eps E11 is not a scalar point of GL(1|1)."""
    rep = validate_pair(HarishChandraPair(scalar_torus(1, 1), gl_lie(1, 1, QQ)), samples=2)
    assert "1 + eps X1 is not a point of Z(1|1)[eps]" in rep.failures


def test_validate_pair_reports_a_wrong_even_odd_bracket():
    """Step (4): the probe Ad(1 + eps E11)(E12) = E12 + eps E12 disagrees
    with the negated table."""
    rep = validate_pair(negated_eo_pair(QQ), samples=2)
    assert "d(Ad) != bracket on (X1, Y1)" in rep.failures


@pytest.mark.parametrize("field", [GF2])
def test_char2_pair_validates(field):
    rep = validate_pair(char2_pair(field), samples=24)
    assert rep.ok, rep.summary()


def test_validate_pair_inverts_each_sample_and_probe_once(monkeypatch):
    """On the committed gl(1|1) fixture pair: one inversion per sampled
    point and one per dual-number probe (at the 2 x d_minus per sample and
    d_minus per probe of old, 260 for these settings)."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "gl11_pair.json")
    with open(path, "r", encoding="utf-8") as fh:
        pair = serialize.load_pair(serialize.loads(fh.read(), "gl11_pair.json"))
    calls = count_inversions(monkeypatch, shcp)
    rep = validate_pair(pair, samples=64)
    assert rep.ok, rep.summary()
    assert len(calls) == 64 + pair.d_plus


def test_zero_odd_pair_validates_trivially():
    f = QQ
    lie = from_matrices(1, 1,
                        [[[f.from_int(1), f.from_int(0)], [f.from_int(0), f.from_int(0)]],
                         [[f.from_int(0), f.from_int(0)], [f.from_int(0), f.from_int(1)]]],
                        [], f)
    pair = HarishChandraPair(gl_block_diag(1, 1), lie)
    assert validate_pair(pair, samples=4).ok


def test_pair_row_reduces_its_odd_span_once(monkeypatch):
    """gl_pair(2, 1, QQ) runs k_reduce twice, on the even and the odd span
    in from_matrices: the pair solves with the odd solver kept on its Lie
    superalgebra.  A Lie superalgebra given by its tables alone reduces its
    odd span once, when the first pair over it is made, and solves alike."""
    calls = []

    def counted(*args, _real=smat.k_reduce):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(smat, "k_reduce", counted)
    pair = gl_pair(2, 1, QQ)
    assert len(calls) == 2
    lie = pair.lie
    bare = LieSuperalgebraData(QQ, lie.d_plus, lie.d_minus, lie.ee, lie.eo, lie.oo, lie.q2,
                               shape=lie.shape, rho_even=lie.rho_even, rho_odd=lie.rho_odd)
    twin = HarishChandraPair(pair.even_group, bare)
    assert len(calls) == 3
    HarishChandraPair(pair.even_group, bare)
    assert len(calls) == 3
    monkeypatch.undo()
    A = GrassmannAlgebra(QQ, 3)
    g = pair.even_group.sample(A, random.Random(5))
    assert twin.ad_action_matrix(g) == pair.ad_action_matrix(g)


# ---------------------------------------------------------------------------
# ad_coords


def test_ad_coords_identity_is_unit_vector():
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 2)
    for i in range(pair.d_minus):
        coords = pair.ad_coords(SuperMatrix.identity((1, 1), A), i)
        for j, c in enumerate(coords):
            assert c == (A.one() if j == i else A.zero())


def test_ad_coords_diagonal_conjugation():
    """diag(a,d)^-1 E12 diag(a,d) = (a^-1 d) E12: the derived oracle value."""
    rng = random.Random(21)
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    for _ in range(10):
        a, d = rand_even_unit(A, rng), rand_even_unit(A, rng)
        g = diag(A, a, d)
        c = pair.ad_coords(g, 0)
        assert c[0] == invert(a) * d and c[1].is_zero()
        c = pair.ad_coords(g, 1)
        assert c[0].is_zero() and c[1] == invert(d) * a


def test_ad_coords_span_violation():
    pair = ad_unstable_pair(QQ)
    A = GrassmannAlgebra(QQ, 2)
    rng = random.Random(5)
    with pytest.raises(SpanViolation):
        for _ in range(8):
            g = pair.even_group.sample(A, rng)
            pair.ad_coords(g, 0)


def test_ad_is_group_action():
    """ad coordinates of a product compose."""
    rng = random.Random(6)
    pair = gl_pair(2, 1, QQ)
    A = GrassmannAlgebra(QQ, 2)
    for _ in range(6):
        g = pair.even_group.sample(A, rng)
        h = pair.even_group.sample(A, rng)
        mg = [pair.ad_coords(g, i) for i in range(pair.d_minus)]
        mh = [pair.ad_coords(h, i) for i in range(pair.d_minus)]
        mgh = [pair.ad_coords(g * h, i) for i in range(pair.d_minus)]
        # Ad((gh)^-1) = Ad(h^-1) Ad(g^-1): coordinates compose accordingly
        for i in range(pair.d_minus):
            for j in range(pair.d_minus):
                acc = A.zero()
                for t in range(pair.d_minus):
                    acc = acc + mh[t][j] * mg[i][t]
                assert acc == mgh[i][j]


def test_conj_coords_columns_match_ad_matrices():
    """conj_coords(g, g^-1) are the columns of ad_action_matrix(g), and
    conj_coords(g^-1, g, indices) the ad_coords(g, i) in the order asked."""
    rng = random.Random(51)
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 3)
    for _ in range(4):
        g = pair.even_group.sample(A, rng)
        ginv = smat_inv(g)
        a = ad_elements(pair, g)
        assert pair.conj_coords(g, ginv) == [[row[i] for row in a] for i in range(pair.d_minus)]
        assert pair.conj_coords(ginv, g, [3, 1]) == [pair.ad_coords(g, 3), pair.ad_coords(g, 1)]
        assert pair.conj_coords(ginv, g, []) == []


def _conj_reference(pair, left, right):
    """conj_grid's answer from the dense sandwich left * rho(Y_i) * right
    (``SuperMatrix.__mul__``) solved by the odd solver: the columns, or the
    text of the SpanViolation met at the first failing column."""
    lie = pair.lie
    out = []
    for i in range(pair.d_minus):
        m = left * lie.rho_odd_matrix(i, left.algebra) * right
        coords = lie.odd_solver([x for row in m.grid for x in row], terms=True)
        if coords is None:
            return f"the conjugate of Y{i + 1} left the odd span of the pair"
        if any(mask.bit_count() & 1 for c in coords for mask in c):
            return f"Ad coordinate of Y{i + 1} is not even"
        out.append(coords)
    return out


def _gl21_doubled_odds(field):
    """gl(2|1) with each odd basis matrix E_ij doubled: a pair whose
    rho(Y_i) has a nonzero other than 1."""
    units = matrix_units((2, 1), field)
    two = field.from_int(2)
    odds = [[[field.mul(two, v) for v in row] for row in rows] for rows, parity in units if parity]
    lie = from_matrices(2, 1, [rows for rows, parity in units if not parity], odds, field)
    return HarishChandraPair(gl_block_diag(2, 1), lie)


@pytest.mark.parametrize("field", [QQ, GF3], ids=str)
@pytest.mark.parametrize("make", [lambda f: gl_pair(1, 1, f), lambda f: gl_pair(2, 1, f), q2_pair,
                                  _gl21_doubled_odds],
                         ids=["gl11", "gl21", "q2", "gl21-doubled"])
def test_conj_grid_matches_the_dense_sandwich(field, make):
    """conj_grid, which sums left . rho(Y_i) . right over the nonzeros of
    rho(Y_i) straight into the solver's vector, gives the columns of the
    dense product left * rho(Y_i) * right solved by the odd solver, for
    unrelated points of the even group (each rho(Y_i) of q(2) has two
    nonzeros, and of the doubled gl(2|1) a nonzero 2) and for (g, g^-1).  A gl_full left point with odd
    off-diagonal entries takes a conjugate out of the odd span, and a left
    point scaled by 1 + x1 gives an odd coordinate: conj_grid raises each
    SpanViolation where the reference meets it.  So does the odd point
    u = 1 + x1 rho(Y_1) against u^-1 = 1 - x1 rho(Y_1): on q(2), where
    rho(Y_1)^2 != 0, u rho(Y_1) u^-1 = rho(Y_1) + 2 x1 rho(Y_1)^2 leaves
    the span only because of the twist."""
    pair = make(field)
    A = GrassmannAlgebra(field, 3)
    rng = random.Random(61)
    group, full = pair.even_group, gl_full(*pair.shape)
    odd_scale = A.one() + A.generator(1)
    step = pair.lie.rho_odd_matrix(0, A).scale(A.generator(1))
    one = SuperMatrix.identity(pair.shape, A)
    cases = [(one + step, one - step)]
    for _ in range(3):
        g, h = group.sample(A, rng), group.sample(A, rng)
        cases += [(g, h), (g, smat_inv(g)), (full.sample(A, rng), h), (g.scale(odd_scale), h)]
    seen = set()
    for left, right in cases:
        expect = _conj_reference(pair, left, right)
        if isinstance(expect, list):
            assert pair.conj_grid(left.grid, right.grid) == expect
            seen.add("columns")
        else:
            with pytest.raises(SpanViolation, match=re.escape(expect)):
                pair.conj_grid(left.grid, right.grid)
            seen.add("residual" if "odd span" in expect else "odd coordinate")
    assert seen == {"columns", "residual", "odd coordinate"}


def test_cold_ad_sums_no_grid_in_conj_grid(monkeypatch):
    """One cold ad_action_matrix on a seeded gl(2|1) point over Q: conj_grid
    itself calls no grid_mul and no add_into, and makes one coeff.mac per
    nonzero rho(Y_i)_ab, nonzero g_ra and nonzero (g^-1)_bk (counted by
    the caller's code object, so the inversion's and the solver's own
    calls are not counted)."""
    pair = gl_pair(2, 1, QQ)
    g = pair.even_group.sample(GrassmannAlgebra(QQ, 4), random.Random(12))
    code = shcp.HarishChandraPair.conj_grid.__code__
    calls = dict.fromkeys(("grid_mul", "add_into", "mac"), 0)
    for mod in (coeff, liesuper, smat, shcp, gp):
        for name in calls:
            if hasattr(mod, name):
                def counted(*args, _real=getattr(mod, name), _name=name):
                    if sys._getframe(1).f_code is code:
                        calls[_name] += 1
                    return _real(*args)
                monkeypatch.setattr(mod, name, counted)
    pair.ad_action_matrix(g)
    assert calls == {"grid_mul": 0, "add_into": 0, "mac": 8}


def _ad_sides(pair, g, a, i):
    """rep(g) rep(Y_i) and rep(sum_j a[j][i] Y_j) rep(g) on A (x) k^{p|q},
    built by the oracle from raw entries: no inversion, no SuperMatrix product."""
    f, rank, p = pair.field, g.algebra.rank, pair.shape[0]
    n = sum(pair.shape)
    comb = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(pair.d_minus):
        for r in range(n):
            for s in range(n):
                k = pair.lie.rho_odd[j][r][s]
                if not k:
                    continue
                for mask, v in a[j][i].terms.items():
                    comb[r][s][mask] = f.add(comb[r][s].get(mask, f.from_int(0)), f.mul(v, k))
    y = [[{0: k} if k else {} for k in row] for row in pair.lie.rho_odd[i]]
    rep_g = supermatrix_rep_oracle(f, rank, p, [[dict(e.terms) for e in row] for row in g.rows])
    return (k_matmul_oracle(f, rep_g, supermatrix_rep_oracle(f, rank, p, y)),
            k_matmul_oracle(f, supermatrix_rep_oracle(f, rank, p, comb), rep_g))


@pytest.mark.parametrize("pair, full_samples", [
    pytest.param(gl_pair(1, 1, QQ), True, id="gl11-Q"),
    pytest.param(gl_pair(2, 1, QQ), True, id="gl21-Q"),
    pytest.param(gl_pair(1, 1, GF2), True, id="gl11-F2"),
    pytest.param(gl_pair(2, 1, GF2), True, id="gl21-F2"),
    pytest.param(gl_pair(1, 1, GF3), True, id="gl11-F3"),
    pytest.param(gl_pair(2, 1, GF3), True, id="gl21-F3"),
    pytest.param(char2_pair(GF2), True, id="char2-F2"),
    pytest.param(q2_pair(QQ), False, id="q2-Q"),
    pytest.param(q2_pair(GF3), False, id="q2-F3"),
])
def test_ad_action_matrix_single_inversion(pair, full_samples):
    """Column i of ad_action_matrix(g) is ad_coords(g^-1, i), and it satisfies
    g Y_i = (sum_j a[j][i] Y_j) g in the regular representation.  Points come
    from gl_full, from its even factors and from the even group; a full
    sample whose odd part moves Y_i out of the odd span must be rejected by
    both definitions.  On q(2), where each rho(Y_i) has two nonzeros, so
    that conj_grid sums over them, the points are the even group's: a
    block-diagonal point off diag(g, g) moves the odd span."""
    rng = random.Random(31)
    A = GrassmannAlgebra(pair.field, 3)
    full = gl_full(*pair.shape)
    rejected = 0
    for _ in range(3):
        if full_samples:
            g = full.sample(A, rng)
            points = (g, gl_split(g)[0], pair.even_group.sample(A, rng))
        else:
            g, points = None, [pair.even_group.sample(A, rng) for _ in range(3)]
        for point in points:
            try:
                a = ad_elements(pair, point)
            except SpanViolation:
                assert point is g
                rejected += 1
                with pytest.raises(SpanViolation):
                    for i in range(pair.d_minus):
                        pair.ad_coords(smat_inv(point), i)
                continue
            for i in range(pair.d_minus):
                assert [a[j][i] for j in range(pair.d_minus)] == pair.ad_coords(smat_inv(point), i)
                lhs, rhs = _ad_sides(pair, point, a, i)
                assert lhs == rhs
    assert rejected or not full_samples


# ---------------------------------------------------------------------------
# the Ad memo


def _reference_ad(pair, g):
    """ad_action_matrix(g) computed without the memo, column by column."""
    cols = [pair.ad_coords(smat_inv(g), i) for i in range(pair.d_minus)]
    return [[cols[i][j] for i in range(pair.d_minus)] for j in range(pair.d_minus)]


def test_ad_memo_equal_points_share_one_computation(monkeypatch):
    """An equal but distinct point is a memo hit: same matrix, no inversion.
    Dual-number probes share their constant part, so they are told apart
    only by the eps part of the key."""
    rng = random.Random(41)
    pair = gl_pair(2, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    calls = count_inversions(monkeypatch, shcp)
    for _ in range(4):
        g = pair.even_group.sample(A, rng)
        twin = SuperMatrix(g.shape, A, [[e + A.zero() for e in row] for row in g.rows])
        assert twin == g and twin.rows[0][0] is not g.rows[0][0]
        before = len(calls)
        a = pair.ad_action_matrix(g)
        assert len(calls) == before + 1
        assert pair.ad_action_matrix(twin) is a
        assert len(calls) == before + 1
        assert ad_elements(pair, g) == _reference_ad(pair, g)
    _, eps = dual_numbers(A)
    for x in pair.lie.rho_even:
        probe = dual_probe(x, pair.shape, eps)
        assert ad_elements(pair, probe) == _reference_ad(pair, probe)


def test_ad_memo_does_not_store_failures(monkeypatch):
    """diag(2, 1, 1) scales E13 and not E32, so E13 + E32 leaves its line:
    every request recomputes and raises."""
    pair = ad_unstable_pair(QQ)
    A = GrassmannAlgebra(QQ, 2)
    z, one = A.zero(), A.one()
    g = SuperMatrix((2, 1), A, [[A.from_scalar(2), z, z], [z, one, z], [z, z, one]])
    calls = count_inversions(monkeypatch, shcp)
    for k in range(3):
        with pytest.raises(SpanViolation):
            pair.ad_action_matrix(g)
        assert len(calls) == k + 1


def test_ad_memo_is_bounded(monkeypatch):
    """After 100 distinct points the memo holds at most AD_MEMO_SIZE of
    them: the newest is still a hit, the oldest was dropped."""
    pair = gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 2)
    points = [diag(A, A.from_scalar(k), A.one()) for k in range(1, 101)]
    for g in points:
        pair.ad_action_matrix(g)
    assert len(pair._ad_memo) <= AD_MEMO_SIZE
    calls = count_inversions(monkeypatch, shcp)
    pair.ad_action_matrix(points[-1])
    assert not calls
    pair.ad_action_matrix(points[0])
    assert len(calls) == 1


def test_normal_form_of_odd_word_inverts_nothing(monkeypatch):
    """The odd product is divided out factor by factor, (1 + eta Y)^-1 =
    (1 - eta Y), and rewriting moves odd factors by the relations; only an
    even token that an odd factor has to cross inverts (through its Ad
    matrix), once: a trailing even token inverts nothing, in either route."""
    rng = random.Random(43)
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 4)
    calls = count_inversions(monkeypatch, gp, shcp, smat)
    for route in (normal_form, gp.reorder_symbolic):
        for length in range(1, 7):
            toks = [OddTok(rng.randrange(pair.d_minus), rand_odd(A, rng)) for _ in range(length)]
            nf = route(GroupWord(pair, A, toks))
            assert nf.rho_matrix() == GroupWord(pair, A, toks).rho_matrix()
        assert not calls
        g = pair.even_group.sample(A, rng)
        word = GroupWord(pair, A, [OddTok(0, rand_odd(A, rng)), EvenTok(g)])
        assert route(word).rho_matrix() == word.rho_matrix()
        assert not calls
        g = pair.even_group.sample(A, rng)
        word = GroupWord(pair, A, [EvenTok(g), OddTok(0, rand_odd(A, rng))])
        assert route(word).rho_matrix() == word.rho_matrix()
        assert len(calls) == 1
        calls.clear()


def test_relation_b_with_ad_coords():
    """(1+eta Y) g0 = g0 (1 + eta sum c_j Y_j) with c from ad_coords."""
    rng = random.Random(7)
    pair = gl_pair(1, 1, GF3)
    A = GrassmannAlgebra(GF3, 3)
    I = pair.identity_matrix(A)
    for _ in range(12):
        g0 = pair.even_group.sample(A, rng)
        for i in range(pair.d_minus):
            eta = rand_odd(A, rng)
            coords = pair.ad_coords(g0, i)
            rhs = g0
            for j, c in enumerate(coords):
                coeff = eta * c
                if not coeff.is_zero():
                    rhs = rhs * (I + pair.lie.rho_odd_matrix(j, A).scale(coeff))
            lhs = (I + pair.lie.rho_odd_matrix(i, A).scale(eta)) * g0
            assert lhs == rhs


# ---------------------------------------------------------------------------
# phi (the forgetful direction)


@pytest.mark.parametrize("pq", [(1, 1), (2, 1)])
def test_phi_of_gl(pq):
    pair, rep = phi_of_group(gl_fixture(*pq, QQ), samples=8)
    assert rep.ok, rep.summary()
    assert pair.d_minus == 2 * pq[0] * pq[1]
    assert pair.d_plus == pq[0] ** 2 + pq[1] ** 2


def test_phi_degenerate_no_odd_candidates():
    fx = gl_fixture(1, 1, QQ)
    fx.odd_candidates = []
    pair, rep = phi_of_group(fx, samples=4)
    assert pair.d_minus == 0 and rep.ok


def test_phi_validates_composition():
    """validate_pair(phi_of_group(G)) passes for the built-in fixtures."""
    for field in (QQ, GF3):
        pair, rep = phi_of_group(gl_fixture(1, 1, field), samples=8)
        assert rep.ok
        assert validate_pair(pair, samples=8).ok
