"""Supermatrix tests: the sign convention, inversion, splitting, tangent
probes.  The seven one-parameter identity families are the arbiter of the
twisted product and double as its regression net."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superpoints import (
    GF2,
    GF3,
    QQ,
    GrassmannAlgebra,
    NotInvertible,
    StructuralError,
    SuperMatrix,
    SuperNumbers,
    diagonal_torus,
    dual_numbers,
    gl_2op,
    gl_block_diag,
    gl_bracket,
    gl_full,
    gl_pair,
    gl_split,
    gp_mul,
    is_invertible,
    is_odd_unipotent,
    normal_form,
    q2_pair,
    scalar_torus,
    semidirect_split,
    smat_inv,
)
from superpoints import smat
from superpoints.coeff import GrassmannElement, add_into
from superpoints.smat import BUILTIN_GROUPS, dual_probe, matrix_units
from superpoints.sampling import rand_element, rand_even_unit, rand_k_vector
from superpoints.verify import random_word, suite_tang_group

from .oracles import k_matmul_oracle, member_oracle, supermatrix_rep_oracle
from .support import rand_dual


def unit(shape, algebra, i, j):
    """E_{ij} (0-based) over the algebra."""
    rows = [list(r) for r in SuperMatrix.zero(shape, algebra).rows]
    rows[i][j] = algebra.one()
    return SuperMatrix(shape, algebra, rows)


def even_component(m):
    """The part of m with entry parity |i|+|j| (the GL(p|q)(A) pattern)."""
    p = m.shape[0]
    return SuperMatrix(m.shape, m.algebra,
                       [[e.odd_part() if (i < p) != (j < p) else e.even_part()
                         for j, e in enumerate(row)] for i, row in enumerate(m.rows)])


# ---------------------------------------------------------------------------
# the twisted product


def test_identity_is_neutral():
    rng = random.Random(0)
    A = GrassmannAlgebra(QQ, 3)
    I = SuperMatrix.identity((2, 1), A)
    m = SuperMatrix((2, 1), A, [[rand_element(A, rng) for _ in range(3)] for _ in range(3)])
    assert I * m == m and m * I == m


def test_two_odd_factors_twist():
    """(1 + x1 Y')(1 + x2 Y'') = 1 + x1 Y' + x2 Y'' + x2 x1 E11 in gl(1|1)."""
    A = GrassmannAlgebra(QQ, 2)
    sh = (1, 1)
    I = SuperMatrix.identity(sh, A)
    x1, x2 = A.generator(1), A.generator(2)
    lhs = (I + unit(sh, A, 0, 1).scale(x1)) * (I + unit(sh, A, 1, 0).scale(x2))
    rhs = I + unit(sh, A, 0, 1).scale(x1) + unit(sh, A, 1, 0).scale(x2) \
        + unit(sh, A, 0, 0).scale(x2 * x1)
    assert lhs == rhs


def test_swap_relation_instance():
    """(1+x1Y')(1+x2Y'') = (1+x2x1[Y',Y''])(1+x2Y'')(1+x1Y') as 2x2 matrices."""
    A = GrassmannAlgebra(QQ, 2)
    sh = (1, 1)
    I = SuperMatrix.identity(sh, A)
    x1, x2 = A.generator(1), A.generator(2)
    yp, ypp = unit(sh, A, 0, 1), unit(sh, A, 1, 0)
    lhs = (I + yp.scale(x1)) * (I + ypp.scale(x2))
    rhs = (I + gl_bracket(yp, ypp).scale(x2 * x1)) * (I + ypp.scale(x2)) * (I + yp.scale(x1))
    assert lhs == rhs


def test_block_diagonal_points_multiply_naively():
    """For A_0-pattern inputs the twisted product is the row-column product."""
    rng = random.Random(1)
    A = GrassmannAlgebra(GF3, 3)
    G = gl_block_diag(2, 1)
    for _ in range(10):
        g, h = G.sample(A, rng), G.sample(A, rng)
        naive = [[sum(((g.rows[i][t] * h.rows[t][j]) for t in range(3)), A.zero())
                  for j in range(3)] for i in range(3)]
        assert g * h == SuperMatrix((2, 1), A, naive)


def test_twisted_associativity_pins_convention():
    rng = random.Random(5)
    for field in (QQ, GF2, GF3):
        A = GrassmannAlgebra(field, 4)
        for _ in range(15):
            ms = [SuperMatrix((1, 2), A,
                              [[rand_element(A, rng) for _ in range(3)] for _ in range(3)])
                  for _ in range(3)]
            assert (ms[0] * ms[1]) * ms[2] == ms[0] * (ms[1] * ms[2])


def _rep(m):
    """The supermatrix as a k-matrix on A (x) k^{p|q}, via the oracle."""
    entries = [[dict(e.terms) for e in row] for row in m.rows]
    return supermatrix_rep_oracle(m.algebra.field, m.algebra.rank, m.shape[0], entries)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_twisted_product_matches_regular_representation(field, shape):
    """rep(X Y) = rep(X) rep(Y) on entries of mixed parity, and
    rep(g^-1) rep(g) = I on GL(p|q) samples."""
    rng = random.Random(11)
    A = GrassmannAlgebra(field, 3)
    n = shape[0] + shape[1]
    for _ in range(4):
        X, Y = (SuperMatrix(shape, A, [[rand_element(A, rng, max_terms=4) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(2))
        assert _rep(X * Y) == k_matmul_oracle(field, _rep(X), _rep(Y))
    ident = _rep(SuperMatrix.identity(shape, A))
    for _ in range(3):
        g = gl_full(*shape).sample(A, rng)
        assert k_matmul_oracle(field, _rep(smat_inv(g)), _rep(g)) == ident


_CK_PAIRS = {"gl11": lambda f: gl_pair(1, 1, f), "gl21": lambda f: gl_pair(2, 1, f),
             "q2": q2_pair}


def _drawn_by_rand_element(field):
    A = GrassmannAlgebra(field, 4)
    return A, lambda rng, parity=None: rand_element(A, rng, parity)


def _drawn_with_eps():
    """The dual numbers over Lambda_2, each entry drawn as a + b eps."""
    A, eps = dual_numbers(GrassmannAlgebra(QQ, 2))
    return A, lambda rng, parity=None: rand_dual(eps, rng, parity)


_CK_ALGEBRAS = {
    "Q": lambda: _drawn_by_rand_element(QQ),
    "F2": lambda: _drawn_by_rand_element(GF2),
    "F3": lambda: _drawn_by_rand_element(GF3),
    "dual": _drawn_with_eps,
}


@pytest.mark.parametrize("coeffs", list(_CK_ALGEBRAS))
@pytest.mark.parametrize("pair_name", list(_CK_PAIRS))
def test_ck_product_matches_lifted_and_regular_products(pair_name, coeffs):
    """The left factor of ck_grid, (1 + c (x) K) . m, with odd c and
    K = rho(Y_i) and with even c and K = rho(Z) for an even Z, equals the
    twisted product of the lifted factors and, in the regular
    representation, the plain k-matrix product (the second reference shares
    no code with SuperMatrix.__mul__)."""
    A, draw = _CK_ALGEBRAS[coeffs]()
    pair = _CK_PAIRS[pair_name](A.field)
    lie, sh = pair.lie, pair.shape
    n = sh[0] + sh[1]
    I = SuperMatrix.identity(sh, A)
    rng = random.Random(17)

    def rand_matrix():
        return SuperMatrix(sh, A, [[draw(rng) for _ in range(n)] for _ in range(n)])

    cases = [(draw(rng, 1), lie.rho_odd_nz[i], lie.rho_odd_matrix(i, A))
             for i in range(pair.d_minus)]
    for _ in range(2):
        z = rand_k_vector(A.field, rng, pair.d_plus, nonzero=True)
        K = lie.rho_comb(0, z, A)
        cases.append((draw(rng, 0), smat.k_nonzeros(K.body_rows()), K))
    for c, nz, K in cases:
        m = rand_matrix()
        got = smat.wrap_grid(sh, A, smat.ck_grid(A.field, sh[0], c.terms, nz,
                                                 smat.copy_grid(m.grid)))
        lifted = I + K.scale(c)
        assert got == lifted * m
        assert _rep(got) == k_matmul_oracle(A.field, _rep(lifted), _rep(m))


@pytest.mark.parametrize("field", [QQ, GF3])
@pytest.mark.parametrize("pair_name", list(_CK_PAIRS))
def test_in_place_left_factor_matches_regular_representation(pair_name, field):
    """ck_grid turns the grid of m into that of (1 + cK) m in place: odd c with
    K = rho(Y_i), and even c with K = rho(Z) for every Z = Y_i^<2> and
    [Y_i, Y_j] (nonzeros on the diagonal) and every X_a + X_b (on gl(2|1)
    and q(2) some with nonzeros at both (a, b) and (b, a) and none on the
    diagonal): rows that are read and written.
    Checked in the regular representation against the plain k-matrix
    product; c has a body, so (cK)^2 != 0 and the order of the reads
    matters."""
    A = GrassmannAlgebra(field, 4)
    pair = _CK_PAIRS[pair_name](field)
    lie, sh, p = pair.lie, pair.shape, pair.shape[0]
    n = sh[0] + sh[1]
    I = SuperMatrix.identity(sh, A)
    rng = random.Random(23)
    cases = [(rand_element(A, rng, 1), lie.rho_odd_nz[i], lie.rho_odd_matrix(i, A))
             for i in range(pair.d_minus)]
    zs = [lie.q2[i] for i in range(pair.d_minus)] + [
        lie.oo[i][j] for i in range(pair.d_minus) for j in range(i + 1, pair.d_minus)]
    unit = [[field.from_int(int(t == a)) for t in range(pair.d_plus)] for a in range(pair.d_plus)]
    zs += [[field.add(x, y) for x, y in zip(unit[a], unit[b])]
           for a in range(pair.d_plus) for b in range(a + 1, pair.d_plus)]
    cases += [(rand_even_unit(A, rng), smat.k_nonzeros(K.body_rows()), K)
              for K in (lie.rho_comb(0, z, A) for z in zs if any(z))]
    read_and_written, swapped = 0, 0
    for c, nz, K in cases:
        m = SuperMatrix(sh, A, [[rand_element(A, rng) for _ in range(n)] for _ in range(n)])
        grid = smat.copy_grid(m.grid)
        assert smat.ck_grid(A.field, p, c.terms, nz, grid) is grid
        got = smat.wrap_grid(sh, A, grid)
        assert _rep(got) == k_matmul_oracle(A.field, _rep(I + K.scale(c)), _rep(m))
        read_and_written += bool({a for a, _, _ in nz} & {b for _, b, _ in nz})
        swapped += any(a != b and (b, a) in {(x, y) for x, y, _ in nz} for a, b, _ in nz)
    assert read_and_written >= 1 and (swapped or pair_name == "gl11")


@pytest.mark.parametrize("field", [QQ, GF3])
def test_grid_mul_rejects_accumulating_into_its_right_factor(field):
    """grid_mul(xs, ys, out) reads the rows of ys while it writes out, so
    out = ys would read rows already written: it raises StructuralError and
    leaves ys as it was.  Into a copy of ys it gives ys + xs.ys."""
    A = GrassmannAlgebra(field, 3)
    rng = random.Random(29)
    G = gl_full(2, 1)
    x, y = G.sample(A, rng), G.sample(A, rng)
    ys = smat.copy_grid(y.grid)
    with pytest.raises(StructuralError):
        smat.grid_mul(field, 2, x.grid, ys, ys)
    assert ys == y.grid
    got = smat.grid_mul(field, 2, x.grid, ys, smat.copy_grid(ys))
    assert smat.wrap_grid(y.shape, A, got) == y + x * y


def test_shape_mismatch_raises():
    A = GrassmannAlgebra(QQ, 2)
    with pytest.raises(StructuralError):
        SuperMatrix.identity((1, 1), A) * SuperMatrix.identity((2, 1), A)


# ---------------------------------------------------------------------------
# homogeneity patterns


def test_homogeneous_split_unique():
    rng = random.Random(2)
    A = GrassmannAlgebra(QQ, 3)
    m = SuperMatrix((2, 2), A, [[rand_element(A, rng) for _ in range(4)] for _ in range(4)])
    even = even_component(m)
    odd = m - even
    assert even + odd == m
    assert even.is_even_homogeneous()
    assert odd.is_odd_homogeneous()


@pytest.mark.parametrize("dual", [False, True], ids=["lambda3", "dual-lambda3"])
def test_homogeneity_scan_matches_components(dual):
    """is_even_homogeneous / is_odd_homogeneous scan the entry masks; they
    must agree with the components on even-, odd- and mixed-pattern
    matrices, and over the dual extension a wrong parity in the eps part
    alone must count."""
    rng = random.Random(12)
    inner = GrassmannAlgebra(QQ, 3)
    A, eps = dual_numbers(inner) if dual else (inner, None)
    seen = set()
    for shape in [(1, 1), (2, 1)]:
        n, p = sum(shape), shape[0]
        for kind in ("even", "odd", "mixed"):
            for _ in range(8):
                parts = [[[rand_element(inner, rng, parity=None if kind == "mixed"
                                        else ((i < p) != (j < p)) ^ (kind == "odd"))
                           for _ in range(1 + dual)] for j in range(n)] for i in range(n)]
                if dual and kind != "mixed" and rng.random() < 0.5:
                    # flip the parity of the eps part of one entry only
                    i, j = rng.randrange(n), rng.randrange(n)
                    want = ((i < p) != (j < p)) ^ (kind == "odd")
                    parts[i][j][1] = inner.one() if want else inner.generator(1)
                rows = [[A.include(e[0]) + eps * A.include(e[1]) if dual else e[0]
                         for e in row] for row in parts]
                m = SuperMatrix(shape, A, rows)
                even, odd = m.is_even_homogeneous(), m.is_odd_homogeneous()
                assert even == (m - even_component(m)).is_zero()
                assert odd == even_component(m).is_zero()
                seen.add((kind, even, odd))
    assert ("even", True, False) in seen and ("odd", False, True) in seen
    assert ("mixed", False, False) in seen
    if dual:
        assert ("even", False, False) in seen and ("odd", False, False) in seen


# ---------------------------------------------------------------------------
# invertibility and the global splitting


def test_invertibility_examples():
    A = GrassmannAlgebra(QQ, 2)
    sh = (1, 1)
    d = SuperMatrix((1, 1), A, [[A.from_int(2), A.zero()], [A.zero(), A.from_int(-3)]])
    assert is_invertible(d)
    m = SuperMatrix.identity(sh, A) + unit(sh, A, 0, 1).scale(A.generator(1))
    assert smat_inv(m) == SuperMatrix.identity(sh, A) - unit(sh, A, 0, 1).scale(A.generator(1))
    singular = SuperMatrix((1, 1), A, [[A.generator(1) * A.generator(2), A.zero()],
                                       [A.zero(), A.one()]])
    assert not is_invertible(singular)
    with pytest.raises(NotInvertible):
        smat_inv(singular)


_INV_GROUPS = {"gl_block_diag": lambda f: gl_block_diag(2, 1),
               "gl_full": lambda f: gl_full(2, 1),
               "q2": lambda f: q2_pair(f).even_group}


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("rank", [4, 6])
@pytest.mark.parametrize("group", sorted(_INV_GROUPS))
def test_inverse_matches_regular_representation(group, rank, field):
    """rep(g^-1) rep(g) = I on sampled points: the series stops at
    rank // d, and the regular representation says that was soon enough."""
    rng = random.Random(rank)
    A = GrassmannAlgebra(field, rank)
    G = _INV_GROUPS[group](field)
    ident = _rep(SuperMatrix.identity(G.shape, A))
    for _ in range(2):
        g = G.sample(A, rng)
        assert k_matmul_oracle(field, _rep(smat_inv(g)), _rep(g)) == ident


def test_inverse_of_block_diagonal_point_is_one_product(monkeypatch):
    """Over Lambda_4 the soul of a GL2xGL1 point has degree >= 2, so the
    series 1 + u + u^2 stops after u.u: four grid products (u = -B^-1 S,
    u B^-1, u.u and u^2 B^-1), one of them the power u.u, and no
    SuperMatrix product."""
    A = GrassmannAlgebra(QQ, 4)
    g = gl_block_diag(2, 1).sample(A, random.Random(4))
    assert any(k for row in g.rows for e in row for k in e.terms)
    calls, products = [], []
    real, real_grid = SuperMatrix.__mul__, smat.grid_mul

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    def counted_grid(field, p, xs, ys, out=None):
        products.append((xs, ys))
        return real_grid(field, p, xs, ys, out)

    monkeypatch.setattr(SuperMatrix, "__mul__", counted)
    monkeypatch.setattr(smat, "grid_mul", counted_grid)
    ginv = smat_inv(g)
    assert calls == [] and len(products) == 4
    u = products[1][0]  # the second product is u B^-1
    assert [(xs is u, ys is u) for xs, ys in products] == \
        [(False, False), (True, False), (True, True), (False, False)]
    monkeypatch.undo()
    assert ginv * g == SuperMatrix.identity((2, 1), A)


@pytest.mark.parametrize("field", [QQ, GF3])
@pytest.mark.parametrize("group", [gl_block_diag, gl_full])
def test_inverse_sums_its_series_on_term_dicts(monkeypatch, field, group):
    """smat_inv accumulates 1 + u + u^2 + ... into term dicts in place: no
    element or matrix sum, difference or negation runs inside it."""
    A = GrassmannAlgebra(field, 4)
    g = group(2, 1).sample(A, random.Random(7))
    calls = []
    for cls in (GrassmannElement, SuperMatrix):
        for attr in ("__add__", "__sub__", "__neg__"):
            def counted(*args, _real=getattr(cls, attr), _name=f"{cls.__name__}.{attr}"):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cls, attr, counted)
    ginv = smat_inv(g)
    assert calls == []
    monkeypatch.undo()
    assert ginv * g == SuperMatrix.identity((2, 1), A) == g * ginv


def test_inverse_refuses_an_off_diagonal_body():
    """Constants in the off-diagonal blocks (no point of GL(1|1) has them)
    make the body inverse an inhomogeneous k-matrix, which the series
    does not take: StructuralError, although the body is invertible over k."""
    A = GrassmannAlgebra(QQ, 2)
    m = SuperMatrix((1, 1), A, [[A.one(), A.from_int(2)], [A.one(), A.one()]])
    assert is_invertible(m)
    with pytest.raises(StructuralError):
        smat_inv(m)


# ---------------------------------------------------------------------------
# the exact solver


def test_solver_without_columns_answers_only_the_zero_vector():
    """An empty span (a pair with d_minus = 0): the zero vector of any
    length has the empty coordinate list, any other vector is outside the
    span, raw or as term dicts."""
    solve = smat.k_solve_matrix(QQ, [])
    assert solve([]) == [] and solve([0, 0, 0, 0]) == []
    assert solve([0, 1, 0, 0]) is None
    assert solve([{}, {}], terms=True) == []
    assert solve([{}, {0b11: 2}], terms=True) is None


@pytest.mark.parametrize("terms", [False, True], ids=["raw", "terms"])
def test_solver_checks_the_residual_on_every_entry(terms):
    """k_solve_matrix on dense generators of q(2)'s odd span over F3 (a mix
    with no zero coefficient of the flat rho(Y_i)): vectors in the span
    return their exact coordinates, raw or as term dicts over Lambda_3, and
    a vector that leaves the span only at entries the left inverse never
    reads returns None."""
    f, rng = GF3, random.Random(5)
    A = GrassmannAlgebra(f, 3)
    flat = [[v for row in m for v in row] for m in q2_pair(f).lie.rho_odd]
    d, n = len(flat), len(flat[0])
    while True:
        mix = [[rng.randrange(1, 3) for _ in range(d)] for _ in range(d)]
        if smat.k_matrix_inverse(f, mix) is not None:
            break
    columns = [[f.from_int(sum(c * v for c, v in zip(row, entry))) for entry in zip(*flat)]
               for row in mix]
    solve = smat.k_solve_matrix(f, columns)
    left = smat.k_matrix_inverse(f, [list(r) for r in zip(*columns)])[:d]
    unread = [k for k in range(n) if not any(row[k] for row in left)]
    # some unread entries lie in the off-diagonal blocks, where the span lives
    assert any(columns[0][k] for k in unread)
    for _ in range(10):
        if terms:
            elems = [rand_element(A, rng) for _ in range(d)]
            coords = [c.terms for c in elems]
            vector = [sum((A.from_scalar(col[k]) * c for c, col in zip(elems, columns)),
                          A.zero()).terms for k in range(n)]

            def bump(x):
                return (GrassmannElement(A, x) + A.generator(1)).terms
        else:
            coords = rand_k_vector(f, rng, d)
            vector = [f.from_int(sum(c * col[k] for c, col in zip(coords, columns)))
                      for k in range(n)]

            def bump(x):
                return f.add(x, f.from_int(1))
        assert solve(vector, terms=terms) == coords
        for k in unread:
            off = list(vector)
            off[k] = bump(off[k])
            assert solve(off, terms=terms) is None, k


def reference_solver(field, columns):
    """k_solve_matrix as it was before it tested the residual rows of R: the
    coordinates from rows 0..m-1 of R, then the image sum_j coords_j col_j
    rebuilt and compared with the vector by ==."""
    m, n = len(columns), len(columns[0]) if columns else 0
    ops = smat.k_matrix_inverse(field, list(zip(*columns))) if m <= n else None
    assert ops is not None
    left = [[(j, c) for j, c in enumerate(col) if c] for col in zip(*ops[:m])]
    cols = [[(k, c) for k, c in enumerate(col) if c] for col in columns]
    zero = field.from_int(0)

    def solve(vector, terms=False):
        def axpy(acc, c, x):
            return add_into(field, acc, c, x) if terms else field.add(acc, field.mul(c, x))

        coords = [{} for _ in range(m)] if terms else [zero] * m
        for x, row in zip(vector, left):
            if x:
                for j, c in row:
                    coords[j] = axpy(coords[j], c, x)
        size = max(n, len(vector))
        image = [{} for _ in range(size)] if terms else [zero] * size
        for col, x in zip(cols, coords):
            if x:
                for k, c in col:
                    image[k] = axpy(image[k], c, x)
        return coords if image == list(vector) else None

    return solve


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_solver_matches_the_image_rebuild(data):
    """The residual-row test of k_solve_matrix answers as the image rebuild
    did: the same coordinates, or None, over Q and F_3, raw and as term dicts
    over Lambda_2, for vectors in the span, vectors moved at one entry,
    m = 0 and m = n, and vectors shorter or longer than n."""
    field = data.draw(st.sampled_from([QQ, GF3]))

    def scalar():
        num, den = data.draw(st.integers(-3, 3)), data.draw(st.sampled_from([1, 2]))
        return field.mul(field.from_int(num), field.inv(field.from_int(den)))

    def entry():  # a random entry of a raw or term-dict vector
        return {data.draw(st.integers(0, 3)): scalar()} if terms else scalar()

    n = data.draw(st.integers(0, 5))
    m = data.draw(st.integers(0, n))
    columns = [[scalar() for _ in range(n)] for _ in range(m)]
    assume(not columns or smat.k_matrix_inverse(field, list(zip(*columns))) is not None)
    n = n if columns else 0
    solve, reference = smat.k_solve_matrix(field, columns), reference_solver(field, columns)
    terms = data.draw(st.booleans())
    zero = {} if terms else field.from_int(0)
    if terms:  # coordinates over Lambda_2, one raw vector per mask
        coords = [{mask: c for mask in range(4) if (c := scalar())} for _ in range(m)]
        vector = [{} for _ in range(n)]
        for x, col in zip(coords, columns):
            for k, c in enumerate(col):
                if c:
                    add_into(field, vector[k], c, x)
    else:
        coords = [scalar() for _ in range(m)]
        vector = [zero] * n
        for x, col in zip(coords, columns):
            for k, c in enumerate(col):
                vector[k] = field.add(vector[k], field.mul(c, x))
    if vector and data.draw(st.booleans(), label="moved"):
        k = data.draw(st.integers(0, n - 1))
        vector[k] = (add_into(field, dict(vector[k]), field.from_int(1), entry()) if terms
                     else field.add(vector[k], entry()))
    else:
        assert solve(vector, terms=terms) == coords
    cut = data.draw(st.integers(-2, 2), label="length change")
    if cut < 0:
        vector = vector[:max(0, len(vector) + cut)]
    else:
        vector += [entry() if data.draw(st.booleans()) else zero for _ in range(cut)]
    if terms:  # term dicts hold no zero value
        vector = [{mask: c for mask, c in x.items() if c} for x in vector]
    assert solve(vector, terms=terms) == reference(vector, terms=terms)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("shape", [(2, 2), (2, 1)])
def test_random_inverse_and_split(field, shape):
    rng = random.Random(9)
    A = GrassmannAlgebra(field, 3)
    G = gl_full(*shape)
    I = SuperMatrix.identity(shape, A)
    for _ in range(30):
        m = G.sample(A, rng)
        assert m * smat_inv(m) == I
        assert smat_inv(m) * m == I
        ev, od = gl_split(m)
        assert ev * od == m
        assert ev.diagonal_blocks_only()
        assert is_odd_unipotent(od)


def test_gl_split_block_diagonal_is_trivial():
    rng = random.Random(3)
    A = GrassmannAlgebra(QQ, 3)
    g = gl_block_diag(2, 1).sample(A, rng)
    ev, od = gl_split(g)
    assert ev == g and od == SuperMatrix.identity((2, 1), A)


def test_gl_split_unit_diagonal():
    A = GrassmannAlgebra(QQ, 2)
    sh = (1, 1)
    m = SuperMatrix((1, 1), A, [[A.one(), A.generator(1)], [A.generator(2), A.one()]])
    ev, od = gl_split(m)
    assert ev == SuperMatrix.identity(sh, A)
    assert od == m


# ---------------------------------------------------------------------------
# bracket and 2-operation


def test_bracket_and_square_examples():
    A = GrassmannAlgebra(QQ, 1)
    sh = (1, 1)
    e12, e21 = unit(sh, A, 0, 1), unit(sh, A, 1, 0)
    assert gl_bracket(e12, e21) == unit(sh, A, 0, 0) + unit(sh, A, 1, 1)
    assert gl_2op(e12).is_zero()
    assert gl_2op(e12 + e21) == SuperMatrix.identity(sh, A)
    with pytest.raises(StructuralError):
        gl_2op(unit(sh, A, 0, 0))


def test_ad_differential_is_bracket():
    """Ad(1+eps X)(Y) = Y + eps [X,Y] over dual numbers."""
    rng = random.Random(4)
    D, eps = dual_numbers(GrassmannAlgebra(QQ, 2))
    sh = (2, 1)
    f = QQ
    from superpoints.sampling import rand_k_vector
    from superpoints.liesuper import lift_comb

    units = matrix_units(sh, f)
    evens = [rows for rows, parity in units if not parity]
    odds = [rows for rows, parity in units if parity]
    for _ in range(20):
        X = lift_comb(sh, D, evens, rand_k_vector(f, rng, len(evens)))
        Y = lift_comb(sh, D, odds, rand_k_vector(f, rng, len(odds)))
        probe = SuperMatrix.identity(sh, D) + X.scale(eps)
        conj = probe * Y * smat_inv(probe)
        assert conj == Y + gl_bracket(X, Y).scale(eps)


# ---------------------------------------------------------------------------
# the seven identity families (regression net for the convention)


def test_tang_group_families_quick():
    rep = suite_tang_group(seed=3, count=36)
    assert rep.ok, rep.summary()


# ---------------------------------------------------------------------------
# descriptors, tangent probes, semidirect splittings


_GROUPS = {**{name: make(1, 1) for name, make in BUILTIN_GROUPS.items()},
           "q2": q2_pair(QQ).even_group}


def test_descriptor_closure_on_samples():
    rng = random.Random(8)
    A = GrassmannAlgebra(QQ, 3)
    for G in (gl_block_diag(1, 1), gl_full(2, 1), diagonal_torus(1, 1), _GROUPS["q2"]):
        assert G.member(SuperMatrix.identity(G.shape, A))
        for _ in range(10):
            g, h = G.sample(A, rng), G.sample(A, rng)
            assert G.member(g * h)
            assert G.member(smat_inv(g))


@pytest.mark.parametrize("name", sorted(_GROUPS))
def test_member_checks_the_even_parity_pattern(name):
    """GroupDescriptor.member rejects an odd coefficient in a diagonal
    block for every builtin group and q(2)'s diag(g, g), with the cell
    pattern left to accept (1 + x1) times the identity, and accepts the
    identity."""
    A = GrassmannAlgebra(QQ, 2)
    G = _GROUPS[name]
    ident = SuperMatrix.identity(G.shape, A)
    assert G.member(ident)
    assert not G.member(ident.scale(A.one() + A.generator(1)))


def test_member_checks_zero_and_tied_cells():
    """An even-homogeneous invertible matrix is rejected for a nonzero
    entry in a None cell, and for a tie broken in q(2)'s lower block."""
    rng = random.Random(4)
    A = GrassmannAlgebra(QQ, 3)
    G = _GROUPS["q2"]
    for _ in range(5):
        g = G.sample(A, rng)
        assert G.member(g)
        rows = [list(r) for r in g.rows]
        rows[0][2] = A.generator(1)  # an odd entry in an off-diagonal block
        assert not G.member(SuperMatrix(G.shape, A, rows))
        rows = [list(r) for r in g.rows]
        rows[3][3] = rows[3][3] + A.monomial([1, 2], 1)  # g != g' in diag(g, g')
        broken = SuperMatrix(G.shape, A, rows)
        assert broken.is_even_homogeneous() and is_invertible(broken)
        assert not G.member(broken)
    rows = [list(r) for r in SuperMatrix.identity((2, 1), A).rows]
    rows[0][1] = A.from_int(1)  # an even entry off the torus' diagonal
    off = SuperMatrix((2, 1), A, rows)
    assert gl_block_diag(2, 1).member(off) and not diagonal_torus(2, 1).member(off)


_ORACLE_GROUPS = [make(*shape) for make in BUILTIN_GROUPS.values()
                  for shape in [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2)]] + [_GROUPS["q2"]]


def _tied(G, cell):
    """The cell and every cell tied to it: the cells of one label."""
    first = dict(G._ties).get(cell, cell)
    return [first] + [c for c, f in G._ties if f == first]


def _corruptions(G, g):
    """(kind, matrix, whether it is a point) for one change of each kind
    that applies to G: each keeps the other checks passing, so only the
    check it names can reject it."""
    A, field, (p, _) = g.algebra, g.algebra.field, g.shape
    one, n = field.from_int(1), sum(g.shape)
    odd, even_soul = {1: one}, {0b11: one}  # x1 and x1 x2

    def edit(cells, change):
        grid = smat.copy_grid(g.grid)
        for i, j in cells:
            grid[i][j] = change(grid[i][j])
        return smat.wrap_grid(g.shape, A, grid)

    def plus(extra):
        return lambda x: add_into(field, dict(x), one, extra)

    def no_body(x):
        return {m: c for m, c in x.items() if m}

    def singular(blocks):  # the first row of each block loses its body
        return edit({c for b in blocks for j in b for c in _tied(G, (b.start, j))}, no_body)

    def dependent(b):  # body row b+1 := -(body row b), souls kept: no zero row
        grid, minus = smat.copy_grid(g.grid), field.neg(one)
        for j in b:
            body = field.mul(minus, g.grid[b.start][j].get(0, field.from_int(0)))
            for i, k in _tied(G, (b.start + 1, j)):
                grid[i][k] = {**no_body(g.grid[i][k]), **({0: body} if body else {})}
        return smat.wrap_grid(g.shape, A, grid)

    out = [("sample", g, True),
           ("odd term in an even cell", edit(_tied(G, (n - 1, n - 1)), plus(odd)), False),
           ("soul-only change", edit(_tied(G, (n - 1, n - 1)), plus(even_soul)), True),
           ("body singular in every block", singular(G._blocks), False)]
    wide = [b for b in G._blocks if len(b) > 1 and not any((i, j) in G._zeros for i in b for j in b)]
    if wide:
        out.append(("body rank-deficient with no zero row", dependent(wide[0]), False))
    if G.name.startswith("GL(") and 0 < p < n:
        out.append(("even term in an odd cell", edit([(0, p)], plus(even_soul)), False))
    if G._zeros:
        i, j = G._zeros[0]
        out.append(("filled zero cell",
                    edit([(i, j)], plus(odd if (i < p) != (j < p) else even_soul)), False))
    if G._ties:
        out.append(("broken tie", edit([G._ties[0][0]], plus(even_soul)), False))
    elif len(G._blocks) == 2:
        out += [("body singular in one block", singular([b]), False) for b in G._blocks]
    return out


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_member_matches_the_whole_body_oracle(field, rank):
    """member, which reduces the body block by block, gives
    member_oracle's verdict (parity on every cell, the whole body reduced
    at once) on samples of the four builtin groups at five shapes and of
    q(2)'s diag(g, g), and on one corruption of each kind."""
    rng = random.Random(rank)
    A = GrassmannAlgebra(field, rank)
    seen = set()
    for G in _ORACLE_GROUPS:
        for _ in range(2):
            for kind, m, point in _corruptions(G, G.sample(A, rng)):
                assert G.member(m) == member_oracle(G, m) == point, (G, kind)
                seen.add(kind)
    assert len(seen) == 9


def _count_block_checks(monkeypatch, field):
    """Route k_invertible, k_reduce and field.inv through counters: the
    sizes of the blocks k_invertible is given, and the calls of the other
    two."""
    calls = {"k_invertible": [], "k_reduce": 0, "inv": 0}
    real_check, real_reduce, real_inv = smat.k_invertible, smat.k_reduce, type(field).inv

    def check(field, a):
        calls["k_invertible"].append(len(a))
        return real_check(field, a)

    def reduce(*args):
        calls["k_reduce"] += 1
        return real_reduce(*args)

    def inv(self, x):
        calls["inv"] += 1
        return real_inv(self, x)

    monkeypatch.setattr(smat, "k_invertible", check)
    monkeypatch.setattr(smat, "k_reduce", reduce)
    monkeypatch.setattr(type(field), "inv", inv)
    return calls


@pytest.mark.parametrize("pair,sizes", [(gl_pair(1, 1, GF3), [1, 1]),
                                        (gl_pair(2, 1, GF3), [2, 1]), (q2_pair(QQ), [2, 2])],
                         ids=["gl11", "gl21", "q2"])
def test_member_checks_each_diagonal_block_once(monkeypatch, pair, sizes):
    """One membership test runs k_invertible once per nonempty diagonal
    block of the body, on that block alone, and no k_reduce."""
    G = pair.even_group
    g = G.sample(GrassmannAlgebra(pair.field, 3), random.Random(9))
    calls = _count_block_checks(monkeypatch, pair.field)
    assert G.member(g)
    assert calls == {"k_invertible": sizes, "k_reduce": 0, "inv": 0}


def test_member_of_a_law_result_inverts_nothing(monkeypatch):
    """Membership of a seeded gl(2|1) group-law result over Lambda_4(F_3)
    makes no k_reduce and no field.inv call: each body block is decided
    by fraction-free elimination."""
    pair = gl_pair(2, 1, GF3)
    A, rng = GrassmannAlgebra(GF3, 4), random.Random(2026)
    a, b = (normal_form(random_word(pair, A, rng, 5)) for _ in range(2))
    g = gp_mul(a, b).g_plus
    calls = _count_block_checks(monkeypatch, GF3)
    assert pair.even_group.member(g)
    assert calls == {"k_invertible": [2, 1], "k_reduce": 0, "inv": 0}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_k_invertible_agrees_with_k_reduce(data):
    """k_invertible gives k_reduce's verdict on square k-matrices of size
    1..5 over Q, F_2 and F_3, with small entries so that singular matrices
    are common, and on products with a factor whose row is a combination of
    the others (a zero row at size 1), which are singular."""
    field = data.draw(st.sampled_from([QQ, GF2, GF3]), label="field")
    n = data.draw(st.integers(1, 5), label="size")
    dens = {0: [1, 2, 3], 2: [1], 3: [1, 2]}[field.characteristic]

    def scalar():
        num, den = data.draw(st.integers(-2, 2)), data.draw(st.sampled_from(dens))
        return field.mul(field.from_int(num), field.inv(field.from_int(den)))

    def matrix():
        return [[scalar() for _ in range(n)] for _ in range(n)]

    m = matrix()
    singular = data.draw(st.booleans(), label="singular factor")
    if singular:
        s, r = matrix(), data.draw(st.integers(0, n - 1))
        zero = field.from_int(0)
        s[r] = [zero] * n
        for t in range(n):
            if t != r:
                c = scalar()
                s[r] = [field.add(x, field.mul(c, y)) for x, y in zip(s[r], s[t])]
        m = k_matmul_oracle(field, *((m, s) if data.draw(st.booleans()) else (s, m)))
    expect = smat.k_reduce(field, [list(row) for row in m], n)
    assert smat.k_invertible(field, [list(row) for row in m]) == expect
    assert not (singular and expect)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_tangent_dim_counts_the_labels(p, q):
    assert gl_block_diag(p, q).tangent_dim == p * p + q * q
    assert gl_full(p, q).tangent_dim == (p + q) ** 2
    assert diagonal_torus(p, q).tangent_dim == p + q
    assert scalar_torus(p, q).tangent_dim == 1
    assert _GROUPS["q2"].tangent_dim == 4


def test_builtin_samples_are_pinned():
    """The draws of each builtin sampler and the RNG state it leaves, as
    fixed literals: gl_block_diag(2, 1) redraws once at this seed (its
    first body is singular).  Any change to the order or kind of draws
    changes every seeded suite, so it shows here first."""
    cases = [
        (gl_block_diag(2, 1), QQ, 4,
         [['-1/2 + -1/3 * x{2,3} + -2 * x{2,4}', '-3 * x{1,2}', '0'],
          ['-2/3 * x{1,4}', '1 + -4 * x{2,3}', '0'],
          ['0', '0', '1 + -3/2 * x{2,3} + -4 * x{3,4}']],
         0.8455524831173317),
        (gl_full(1, 1), QQ, 4,
         [['1 + -1 * x{1,2} + -1/2 * x{1,3}', '2 * x{1} + 1/3 * x{3}'],
          ['-4 * x{2} + -2 * x{3}', '-1 + -2 * x{2,3} + 3 * x{1,2,3,4}']],
         0.8077992330240374),
        (diagonal_torus(2, 1), GF3, 3,
         [['1 mod 3 + 1 mod 3 * x{1,3}', '0', '0'],
          ['0', '2 mod 3 + 2 mod 3 * x{2,3}', '0'],
          ['0', '0', '2 mod 3 + 1 mod 3 * x{1,3} + 1 mod 3 * x{2,3}']],
         0.6064717622868356),
        (scalar_torus(2, 1), GF3, 3,
         [['1 mod 3 + 1 mod 3 * x{1,3}', '0', '0'],
          ['0', '1 mod 3 + 1 mod 3 * x{1,3}', '0'],
          ['0', '0', '1 mod 3 + 1 mod 3 * x{1,3}']],
         0.08674413114405155),
    ]
    for G, field, rank, strings, after in cases:
        rng = random.Random(71)
        assert G.sample(GrassmannAlgebra(field, rank), rng).to_strings() == strings
        assert rng.random() == after


def lie_points(group, algebra):
    """{index: whether the dual-number probe along matrix unit index is a
    point of group} over matrix_units(group.shape, field); odd units are
    probed along the algebra's first generator."""
    eta = algebra.generator(1)
    _, eps = dual_numbers(algebra)
    units = matrix_units(group.shape, algebra.field)
    return {idx: group.member(dual_probe(rows, group.shape, eps, eta if parity else None))
            for idx, (rows, parity) in enumerate(units)}


def test_matrix_units_row_major_with_parity():
    units = matrix_units((2, 1), GF3)
    assert len(units) == 9
    for k, (rows, parity) in enumerate(units):
        i, j = divmod(k, 3)
        assert rows == [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
        assert parity == int((i < 2) != (j < 2))


def test_lie_points_gl_full_accepts_all_units():
    A = GrassmannAlgebra(QQ, 2)
    res = lie_points(gl_full(1, 1), A)
    assert all(res.values())


def test_lie_points_block_diag_rejects_odd_directions():
    A = GrassmannAlgebra(QQ, 2)
    res = lie_points(gl_block_diag(1, 1), A)
    # candidates are matrix units row-major: E11, E12, E21, E22
    assert res[0] and res[3] and not res[1] and not res[2]


def test_lie_points_torus():
    A = GrassmannAlgebra(GF3, 2)
    res = lie_points(diagonal_torus(1, 1), A)
    assert res[0] and res[3] and not res[1] and not res[2]


def test_semidirect_split_grassmann():
    """G = GL(1|1), A = Lambda_2: pi kills all generators."""
    A = GrassmannAlgebra(QQ, 2)
    G = gl_full(1, 1)
    sh = (1, 1)
    g = SuperMatrix.identity(sh, A) + unit(sh, A, 0, 0).scale(A.monomial([1, 2]))
    g_bar, g_ker = semidirect_split(G, g)
    assert g_bar == SuperMatrix.identity(sh, A)
    assert g_ker == g


def test_semidirect_split_super_numbers():
    """Over k[eta] the even factor is constant and the kernel lies in
    G_1^(1)(k + k.eta)."""
    rng = random.Random(11)
    SN = SuperNumbers(QQ)
    G = gl_full(1, 1)
    for _ in range(25):
        g = G.sample(SN, rng)
        g_bar, g_ker = semidirect_split(G, g)
        assert g_bar * g_ker == g
        assert all(e.soul().is_zero() for row in g_bar.rows for e in row)
        assert g_ker.body_lift() == SuperMatrix.identity((1, 1), SN)
        assert g_ker.entries_in_a1n(1)


def test_semidirect_split_random_lambda3():
    rng = random.Random(12)
    A = GrassmannAlgebra(GF3, 3)
    G = gl_full(2, 1)
    for _ in range(25):
        g = G.sample(A, rng)
        g_bar, g_ker = semidirect_split(G, g)
        assert g_bar * g_ker == g
        assert g_ker.body_lift() == SuperMatrix.identity((2, 1), A)


def test_a1n_matrix_exposure():
    """Products of purely odd one-parameter factors have entries in A_1^(1),
    and their even factors land in A_1^(2) (exposed, not certified)."""
    A = GrassmannAlgebra(QQ, 3)
    sh = (1, 1)
    I = SuperMatrix.identity(sh, A)
    m = (I + unit(sh, A, 0, 1).scale(A.generator(1))) * \
        (I + unit(sh, A, 1, 0).scale(A.generator(2)))
    assert m.entries_in_a1n(1)
    ev, _ = gl_split(m)
    assert ev.entries_in_a1n(2)
