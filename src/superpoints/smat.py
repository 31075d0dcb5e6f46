"""Supermatrices over a coefficient algebra and GL(p|q) group operations.

A matrix of block shape (p, q) lives in the superalgebra A (x) End(k^{p|q}).
THE SIGN CONVENTION: the product implements that superalgebra, i.e.

    (a (x) E)(b (x) F) = (-1)^{|E||b|} ab (x) EF,

entrywise (M.N)_{ik} = sum_j m_{ij} n_{jk}, with n_{jk} replaced by its
twist() (even part minus odd part) where |i|+|j| is odd.  For matrices
whose entries all carry even coefficients this is the naive row-column
product; when odd coefficients at odd positions meet, the twist is what
makes the one-parameter subgroup identities hold exactly.  See the test
suite: those identities are the arbiter of the convention.

A ``SuperMatrix`` is stored as its grid (rows of term dicts), and every
product runs on grids, each output entry accumulated into one term dict by
``coeff.mac``, the twist a flag: ``grid_mul`` for two grids, ``grid_inv``
for the inverse, and ``ck_grid`` for a factor c (x) K, a coefficient times
a raw k-matrix (the representation matrix of a Lie superalgebra element),
which follows the same rule but visits only the nonzeros of K.  A matrix's
grid is read only; ``wrap_grid`` makes the matrix of a new grid, unchecked
and uncopied, and the constructor takes rows of elements, whose algebra it
checks.  GrassmannElements appear only at the API: the constructor, the
``rows`` view, ``scale`` and ``to_strings``.  A left factor applies in
place: ``ck_grid(field, p, None, c, nz, xs, xs)`` makes xs (1 + cK) xs, row
a gaining c K_ab twist(row b), so a row both read and written (nonzeros at
(a, b) and (b, a), as on q(2), or on the diagonal) is read, by a copy,
before it is written; ``grid_mul(field, p, n, xs, xs)`` does the same for
a factor 1 + n with n a grid.

``grid_inv`` inverts m = B + S, body plus soul, as (1 + u + u^2 + ...) B^-1
with u = -B^-1 S; B must be block-diagonal, as the body of every
even-homogeneous point is, so that B^-1 is an even raw k-matrix.  With d
the lowest degree of a term of S, u^j vanishes once j d exceeds the rank,
where the series stops.  Each power u^j is one grid product, and u^j B^-1
accumulates into the result in place.

Row/column parity: |i| = 0 for i < p, |i| = 1 otherwise.  A matrix is
*even-homogeneous* when entry (i,j) is homogeneous of parity |i|+|j| (the
membership pattern of GL(p|q)(A) points), *odd-homogeneous* when parities
are flipped.  ``GroupDescriptor.member`` is the one membership test of a
group point: the shape, this pattern, then the group's cell pattern and
invertibility.
"""

from __future__ import annotations

from .coeff import GrassmannAlgebra, GrassmannElement, _raw, in_a1n, mac
from .errors import MembershipViolation, NotInvertible, StructuralError
from .sampling import rand_element, rand_even_unit, rand_odd


class SuperMatrix:
    """A supermatrix stored as its grid: rows of term dicts, one per entry,
    read only once the matrix is made.  The constructor takes rows of
    GrassmannElements over the algebra; ``rows`` gives them back."""

    __slots__ = ("shape", "algebra", "grid")

    def __init__(self, shape, algebra: GrassmannAlgebra, rows):
        _check_square(shape, rows)
        if any(not isinstance(e, GrassmannElement)
               or (e.algebra is not algebra and e.algebra != algebra) for r in rows for e in r):
            raise StructuralError(f"an entry is not an element of {algebra!r}")
        self.shape = (shape[0], shape[1])
        self.algebra = algebra
        self.grid = [[e.terms for e in r] for r in rows]

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, shape, algebra):
        n = shape[0] + shape[1]
        return wrap_grid((shape[0], shape[1]), algebra, [[{} for _ in range(n)] for _ in range(n)])

    @classmethod
    def identity(cls, shape, algebra):
        return wrap_grid((shape[0], shape[1]), algebra, identity_grid(algebra.field, sum(shape)))

    # -- basic structure ---------------------------------------------------
    @property
    def rows(self):
        """The entries as elements, made on each read and sharing the grid's
        term dicts: for the public boundary, never read by a kernel."""
        alg = self.algebra
        return tuple(tuple(GrassmannElement(alg, x) for x in row) for row in self.grid)

    @property
    def size(self):
        return self.shape[0] + self.shape[1]

    def _check(self, other):
        if (not isinstance(other, SuperMatrix) or other.shape != self.shape
                or (other.algebra is not self.algebra and other.algebra != self.algebra)):
            raise StructuralError("shape or coefficient algebra mismatch")

    def _like(self, grid):
        """The matrix of this shape and algebra stored as grid."""
        return wrap_grid(self.shape, self.algebra, grid)

    def __add__(self, other):
        self._check(other)
        field = self.algebra.field
        one = {0: field.from_int(1)}
        return self._like([[mac(field, dict(x), one, y) for x, y in zip(r, s)]
                           for r, s in zip(self.grid, other.grid)])

    def __neg__(self):
        neg = self.algebra.field.neg
        return self._like([[{m: neg(c) for m, c in x.items()} for x in row] for row in self.grid])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply every entry on the left by a coefficient element c (even
        use only)."""
        if c.algebra != self.algebra:
            raise StructuralError("shape or coefficient algebra mismatch")
        field = self.algebra.field
        return self._like([[mac(field, {}, c.terms, x) for x in row] for row in self.grid])

    def __eq__(self, other):
        return (isinstance(other, SuperMatrix) and other.shape == self.shape
                and other.algebra == self.algebra and other.grid == self.grid)

    __hash__ = None

    def is_zero(self):
        return not any(x for row in self.grid for x in row)

    # -- the twisted product ----------------------------------------------
    def __mul__(self, other):
        """The twisted product, on the grids (``grid_mul``)."""
        self._check(other)
        return self._like(grid_mul(self.algebra.field, self.shape[0], self.grid, other.grid))

    # -- parity structure ---------------------------------------------------
    def _parity_pattern(self, shift):
        """Whether every term of entry (i,j) has parity |i|+|j|+shift (mod 2)."""
        p = self.shape[0]
        for i, row in enumerate(self.grid):
            for j, x in enumerate(row):
                parity = ((i < p) != (j < p)) ^ shift
                if any(m.bit_count() & 1 != parity for m in x):
                    return False
        return True

    def is_even_homogeneous(self):
        return self._parity_pattern(0)

    def is_odd_homogeneous(self):
        return self._parity_pattern(1)

    def homogeneity(self):
        """0, 1 or None, mirroring the entry-parity pattern."""
        if self.is_even_homogeneous():
            return 0
        if self.is_odd_homogeneous():
            return 1
        return None

    # -- functorial coefficient maps -----------------------------------------
    def body_rows(self):
        """Entrywise augmentation: the matrix of raw values over k (off-diagonal
        blocks die for even-homogeneous input since odd elements augment to zero)."""
        zero = self.algebra.field.from_int(0)
        return [[x.get(0, zero) for x in row] for row in self.grid]

    def body_lift(self):
        """G(sigma_A)(G(pi_A)(m)): the body, re-embedded by the unit inclusion
        of k."""
        return constant_matrix(self.shape, self.algebra, self.body_rows())

    def entries_in_a1n(self, n: int) -> bool:
        """Whether every entry lies in the subalgebra A_1^(n)."""
        return in_a1n((m for row in self.grid for x in row for m in x), n)

    def diagonal_blocks_only(self):
        return not any(x for row in block_split(self.shape[0], self.grid)[1] for x in row)

    def to_strings(self):
        return [[e.to_str() for e in row] for row in self.rows]

    def __repr__(self):
        return "[" + "; ".join(", ".join(r) for r in self.to_strings()) + "]"


def _check_square(shape, rows):
    p, q = shape
    n = p + q
    if len(rows) != n or any(len(r) != n for r in rows):
        raise StructuralError("entry grid does not match block shape")


def wrap_grid(shape, algebra, grid):
    """The supermatrix stored as grid, a list of lists of term dicts that it
    takes over: square of the shape's size by construction, so nothing is
    checked or copied."""
    m = object.__new__(SuperMatrix)
    m.shape, m.algebra, m.grid = shape, algebra, grid
    return m


# ---------------------------------------------------------------------------
# products with a factor c (x) K


def grid_mul(field, p, xs, ys, out=None):
    """out + xs . ys for square grids of term dicts with p even rows, in
    place (out None is 0): out_ik gains x_ij . twist^{|i|+|j|}(y_jk) in
    increasing j, one ``coeff.mac`` each.  out may be ys itself, which turns
    ys into (1 + xs) ys: a row of ys both read and written is read from a
    copy."""
    if out is None:
        out = [[{} for _ in row] for row in xs]
    elif out is ys:
        written = {i for i, row in enumerate(xs) if any(row)}
        read = {j for i in written for j, x in enumerate(xs[i]) if x}
        ys = [[dict(y) for y in row] if j in read & written else row for j, row in enumerate(ys)]
    for i, row in enumerate(xs):
        for j, x in enumerate(row):
            if x:
                twist = (i < p) != (j < p)
                for k, y in enumerate(ys[j]):
                    if y:
                        mac(field, out[i][k], x, y, twist)
    return out


def copy_grid(grid):
    """A grid of fresh copies of grid's term dicts, for in-place updates."""
    return [[dict(x) for x in row] for row in grid]


def identity_grid(field, n):
    """The n x n identity as a new grid of term dicts."""
    one = field.from_int(1)
    return [[{0: one} if i == j else {} for j in range(n)] for i in range(n)]


def k_nonzeros(rows):
    """The nonzero entries of a raw k-matrix as ((row, column, value), ...)."""
    return tuple((a, b, v) for a, row in enumerate(rows) for b, v in enumerate(row) if v)


def ck_grid(field, p, left, c, nz, right, out):
    """out + left . (c (x) K) . right on grids of term dicts, in place.

    c is a homogeneous term dict, or None for 1; K is a homogeneous raw
    k-matrix of parity |K|, given by its nonzero entries nz
    (``k_nonzeros``); left and right are grids, or None for the identity,
    but not both None.  out may be right itself when left is None: the
    in-place left factor of the module docstring.  Raw k-values are even,
    so the twisted product of this module gives, with |i| the parity of
    row i and twist^0 the identity,

        (m . cK)_ik    = sum_j m_ij . twist^{|i|+|j|}(c) . K_jk
        (cK . m)_ik    = sum_j c . K_ij . twist^{|K|}(m_jk)
        (L . K . R)_ik = sum_{a,b} L_ia . K_ab . twist^{|i|+|b|}(R_bk)

    the three cases (right None, left None, c None) of
    sum_{a,b} L_ia twist^{|i|+|a|}(c) K_ab twist^{|i|+|b|}(R_bk).
    """
    if left is None and out is right:  # in place: rows both read and written are read from copies
        both = {a for a, _, _ in nz} & {b for _, b, _ in nz}
        right = [[dict(x) for x in row] if b in both else row for b, row in enumerate(right)]
    for a, b, v in nz:
        cv = {0: v} if c is None else {m: field.mul(x, v) for m, x in c.items()}
        if left is None:
            terms = ((a, cv),)
        else:  # the nonzeros L_ia of column a, each times twist^{|i|+|a|}(cv)
            col = [(i, xs, (i < p) != (a < p)) for i, row in enumerate(left) if (xs := row[a])]
            if right is None:
                for i, xs, twist in col:
                    mac(field, out[i][b], xs, cv, twist)
                continue
            terms = [(i, mac(field, {}, xs, cv, twist)) for i, xs, twist in col]
        for i, x in terms:
            if not x:
                continue
            dst, twist = out[i], (i < p) != (b < p)
            for k, y in enumerate(right[b]):
                if y:
                    mac(field, dst[k], x, y, twist)
    return out


# ---------------------------------------------------------------------------
# exact linear algebra over the base field


def k_solve_matrix(field, columns):
    """Row-reduce the system whose columns are the m k-linearly independent
    length-n k-vectors 'columns' (raw values) once, and return a solver
    mapping a length-n vector to its exact coordinates, or None when the
    residual is nonzero.  The vector holds raw k-values, or with terms=True
    term dicts of coefficient-algebra elements, and so do the coordinates.
    The left inverse is kept by columns and the columns as sparse
    (index, value, {0: value}) lists: the coordinates visit only the
    vector's nonzero entries, and the residual vector - sum_j coords_j col_j
    is checked on every entry, those the left inverse never reads included.
    """
    m, n = len(columns), len(columns[0]) if columns else 0
    # more columns than rows are dependent (and n = 0 leaves no rows to count them)
    ops = k_matrix_inverse(field, list(zip(*columns))) if m <= n else None
    if ops is None:
        raise StructuralError("columns are k-linearly dependent")
    left = [[(j, c, {0: c}) for j, c in enumerate(col) if c] for col in zip(*ops[:m])]
    cols = [[(k, c, {0: c}) for k, c in enumerate(col) if c] for col in columns]
    zero = field.from_int(0)

    def raw_mac(acc, c, _, x):
        return field.add(acc, field.mul(c, x))

    def terms_mac(acc, _, c, x):
        return mac(field, acc, x, c)

    def solve(vector, terms=False):
        axpy = terms_mac if terms else raw_mac
        coords = [{} for _ in range(m)] if terms else [zero] * m
        for k, x in enumerate(vector):
            if x:
                for j, c, ct in left[k]:
                    coords[j] = axpy(coords[j], c, ct, x)
        image = [{} for _ in range(n)] if terms else [zero] * n
        for col, x in zip(cols, coords):
            if x:
                for k, c, ct in col:
                    image[k] = axpy(image[k], c, ct, x)
        return coords if image == list(vector) else None

    return solve


def k_matrix_inverse(field, rows):
    """Gauss-Jordan over k on an n x m matrix of raw values, m <= n.

    Returns the n x n row operations R with R.rows = [I_m; 0] (for square
    input, the inverse), or None when the columns are k-linearly dependent:
    ``k_reduce`` on the rows with I_n appended.
    """
    n, m = len(rows), len(rows[0]) if rows else 0
    one, zero = field.from_int(1), field.from_int(0)
    a = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    return [r[m:] for r in a] if k_reduce(field, a, m) else None


def k_reduce(field, a, m):
    """Gauss-Jordan over k in place on the rows a (lists of raw values) in
    their first m columns: True when those are k-linearly independent (they
    end as [I_m; 0]), False at the first column without a pivot.  A pivot
    of 1 leaves its row as it is, and a row update visits only the pivot
    row's nonzero entries."""
    one = field.from_int(1)
    for col in range(m):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        if (x := a[col][col]) != one:
            f = field.inv(x)
            a[col] = [field.mul(f, v) if v else v for v in a[col]]
        nz = [(k, v) for k, v in enumerate(a[col]) if v]
        for i, row in enumerate(a):
            if i != col and (g := row[col]):
                g = field.neg(g)
                for k, v in nz:
                    row[k] = field.add(row[k], field.mul(g, v))
    return True


# ---------------------------------------------------------------------------
# GL(p|q) operations


def is_invertible(m: SuperMatrix) -> bool:
    """Whether the body of m is invertible over k: ``k_reduce`` on the body
    alone, building no inverse."""
    return k_reduce(m.algebra.field, m.body_rows(), m.size)


def smat_inv(m: SuperMatrix) -> SuperMatrix:
    """m^-1 (``grid_inv``)."""
    alg = m.algebra
    return wrap_grid(m.shape, alg, grid_inv(alg.field, m.shape[0], alg.rank, m.grid))


def grid_inv(field, p, rank, grid):
    """The inverse of a grid over Lambda_rank with p even rows, as a new grid:
    (1 + u + u^2 + ... + u^N) B^-1 with u = -B^-1 S and N = rank // d, exact
    (see the module docstring).  StructuralError when the body B has a
    nonzero off-diagonal-block entry, NotInvertible when it is singular."""
    n = len(grid)
    zero = field.from_int(0)
    body = [[x.get(0, zero) for x in row] for row in grid]
    if any(body[i][j] for i in range(n) for j in range(n) if (i < p) != (j < p)):
        raise StructuralError("smat_inv needs a block-diagonal body")
    binv = k_matrix_inverse(field, body)
    if binv is None:
        raise NotInvertible("body matrix is singular over k")
    right = [[{0: v} if v else {} for v in row] for row in binv]
    soul = [[{k: c for k, c in x.items() if k} for x in row] for row in grid]
    d = min((k.bit_count() for row in soul for x in row for k in x), default=0)
    if not d:
        return right
    u = grid_mul(field, p, [[{0: field.neg(v)} if v else {} for v in row] for row in binv], soul)
    out = grid_mul(field, p, u, right, copy_grid(right))
    pw = u
    for _ in range(2, rank // d + 1):
        pw = grid_mul(field, p, pw, u)
        if not any(x for row in pw for x in row):
            break
        grid_mul(field, p, pw, right, out)
    return out


def gl_split(m: SuperMatrix):
    """Unique factorization of a GL(p|q)(A) point as diag(a,d) . (I + odd).

    Returns (even_factor, odd_factor) with exact reassembly
    even_factor * odd_factor == m.
    """
    if not m.is_even_homogeneous():
        raise StructuralError("gl_split needs an even-homogeneous matrix")
    diag, _ = block_split(m.shape[0], copy_grid(m.grid))
    even_factor = wrap_grid(m.shape, m.algebra, diag)
    return even_factor, smat_inv(even_factor) * m


def block_split(p, grid):
    """(diagonal blocks, off-diagonal blocks) of a grid with p even rows: two
    grids that take over grid's term dicts, with new empty dicts elsewhere."""
    rows = list(enumerate(grid))
    return ([[x if (i < p) == (j < p) else {} for j, x in enumerate(r)] for i, r in rows],
            [[{} if (i < p) == (j < p) else x for j, x in enumerate(r)] for i, r in rows])


def is_odd_unipotent(m: SuperMatrix) -> bool:
    """Whether m = I + N with N supported on the off-diagonal blocks (odd
    coefficients at odd positions): the shape of gl_split's odd factor."""
    return (m.is_even_homogeneous() and block_split(m.shape[0], m.grid)[0]
            == identity_grid(m.algebra.field, m.size))


def gl_bracket(m: SuperMatrix, n: SuperMatrix) -> SuperMatrix:
    """[A,B] := AB - (-1)^{|A||B|} BA on homogeneous supermatrices."""
    pm, pn = m.homogeneity(), n.homogeneity()
    if pm is None or pn is None:
        raise StructuralError("bracket needs homogeneous arguments")
    ba = n * m
    return m * n - (-ba if pm * pn else ba)


def gl_2op(m: SuperMatrix) -> SuperMatrix:
    """C^<2> := C C for odd-homogeneous C; the result is even-homogeneous."""
    if not m.is_odd_homogeneous():
        raise StructuralError("2-operation needs an odd-homogeneous matrix")
    return m * m


# ---------------------------------------------------------------------------
# group descriptors


class GroupDescriptor:
    """A computationally linear classical group inside GL(p|q), given by a
    cell pattern: cell(i, j) is None for an entry that is 0 on every point,
    and otherwise a label; entries with the same label are equal.  Each
    label is one free entry, so the tangent dimension is the number of
    labels.

    ``member`` is the one membership test of the package: the block shape,
    the even entry-parity pattern of GL(p|q) points (``is_even_homogeneous``),
    the zero cells, the tied cells, then invertibility.
    membership(identity) must hold; closure under product/inverse is checked
    by the test-suite on samples, never assumed.
    """

    def __init__(self, name, shape, cell):
        self.name, self.shape = name, shape
        p, n = shape[0], shape[0] + shape[1]
        first = {}  # label -> its first cell, row-major
        self._zeros, self._ties = [], []  # cells; (cell, first cell of its label)
        for i in range(n):
            for j in range(n):
                label = cell(i, j)
                if label is None:
                    self._zeros.append((i, j))
                elif label in first:
                    self._ties.append(((i, j), first[label]))
                else:
                    first[label] = (i, j)
        self._even = [(i, j) for i, j in first.values() if (i < p) == (j < p)]
        self._odd = [(i, j) for i, j in first.values() if (i < p) != (j < p)]
        self.tangent_dim = len(first)

    def member(self, m: SuperMatrix) -> bool:
        if m.shape != self.shape or not m.is_even_homogeneous():
            return False
        grid = m.grid
        return (all(not grid[i][j] for i, j in self._zeros)
                and all(grid[i][j] == grid[a][b] for (i, j), (a, b) in self._ties)
                and is_invertible(m))

    def require_member(self, m: SuperMatrix, context=""):
        if not self.member(m):
            raise MembershipViolation(
                f"matrix is not a point of {self.name}" + (f" ({context})" if context else "")
            )

    def sample(self, algebra, rng) -> SuperMatrix:
        """Draw each even label at its first cell, row-major (a unit of A_0
        on the diagonal, an even element elsewhere) and copy the ties, until
        the body is invertible; then draw each odd label and copy its ties."""
        n = self.shape[0] + self.shape[1]
        while True:
            rows = [[algebra.zero()] * n for _ in range(n)]
            for i, j in self._even:
                rows[i][j] = (rand_even_unit(algebra, rng) if i == j
                              else rand_element(algebra, rng, parity=0))
            for (i, j), (a, b) in self._ties:
                rows[i][j] = rows[a][b]
            if is_invertible(SuperMatrix(self.shape, algebra, rows)):
                break
        for i, j in self._odd:
            rows[i][j] = rand_odd(algebra, rng)
        for (i, j), (a, b) in self._ties:
            rows[i][j] = rows[a][b]
        g = SuperMatrix(self.shape, algebra, rows)
        self.require_member(g, "sampler output")
        return g

    def __repr__(self):
        return f"GroupDescriptor({self.name}, shape={self.shape})"


def gl_block_diag(p, q):
    """GL_p x GL_q: block-diagonal even-group descriptor (the even part of
    the general linear supergroup, as a classical group)."""
    return GroupDescriptor(f"GL{p}xGL{q}", (p, q),
                           lambda i, j: (i, j) if (i < p) == (j < p) else None)


def gl_full(p, q):
    """The point groups of the full supergroup GL(p|q): even-homogeneous
    invertible matrices (diagonal blocks even, off-diagonal odd)."""
    return GroupDescriptor(f"GL({p}|{q})", (p, q), lambda i, j: (i, j))


def diagonal_torus(p, q):
    return GroupDescriptor(f"T({p}|{q})", (p, q), lambda i, j: i if i == j else None)


def scalar_torus(p, q):
    """Invertible scalar multiples of the identity; Lie algebra k.I."""
    return GroupDescriptor(f"Z({p}|{q})", (p, q), lambda i, j: 0 if i == j else None)


BUILTIN_GROUPS = {
    "gl_block_diag": gl_block_diag,
    "gl_full": gl_full,
    "diagonal_torus": diagonal_torus,
    "scalar_torus": scalar_torus,
}


# ---------------------------------------------------------------------------
# tangent probes and A-point splittings


def constant_matrix(shape, algebra, scalar_rows):
    """Lift a matrix of k-values (anything ``from_scalar`` takes) into a
    matrix over the algebra."""
    _check_square(shape, scalar_rows)
    field = algebra.field
    return wrap_grid((shape[0], shape[1]), algebra, [[{0: r} if (r := _raw(field, v)) else {}
                                                      for v in row] for row in scalar_rows])


def matrix_units(shape, field):
    """The matrix units E_ij of block shape (p, q) as raw k-matrices, in
    row-major order, each paired with its parity |i| + |j| mod 2."""
    p, q = shape
    n = p + q
    zero, one = field.from_int(0), field.from_int(1)
    units = []
    for i in range(n):
        for j in range(n):
            rows = [[zero] * n for _ in range(n)]
            rows[i][j] = one
            units.append((rows, int((i < p) != (j < p))))
    return units


def dual_probe(candidate_rows, shape, eps, odd_direction=None):
    """1 + eps Z (even Z) or 1 + eps eta Z (odd Z), over the algebra of eps.

    eps comes from ``coeff.dual_numbers(A)``; for odd candidates an odd
    element eta of A (or of the dual algebra) must be supplied: tangent
    vectors along odd directions carry odd coefficients (Lie(G)(A) =
    A_0 (x) g_0 + A_1 (x) g_1).
    """
    dual = eps.algebra
    c = eps if odd_direction is None else eps * dual.include(odd_direction)
    return SuperMatrix.identity(shape, dual) + \
        constant_matrix(shape, dual, candidate_rows).scale(c)


def semidirect_split(group: GroupDescriptor, g: SuperMatrix):
    """Factor g = g_bar . g_ker with G(pi)(g_ker) = 1.

    g_bar = G(sigma)(G(pi)(g)) is the section lift of the reduced point;
    g_ker = g_bar^{-1} g lies in the kernel of G(pi).
    """
    group.require_member(g, "semidirect_split input")
    g_bar = g.body_lift()
    group.require_member(g_bar, "reduced point")
    g_ker = smat_inv(g_bar) * g
    if g_ker.body_lift() != SuperMatrix.identity(g.shape, g.algebra):
        raise MembershipViolation("kernel factor does not reduce to 1")
    return g_bar, g_ker
