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

Products with a factor c (x) K, a coefficient element times a raw k-matrix
(the representation matrix of a Lie superalgebra element), follow the same
rule but visit only the nonzeros of K: ``ck_product``.

Row/column parity: |i| = 0 for i < p, |i| = 1 otherwise.  A matrix is
*even-homogeneous* when entry (i,j) is homogeneous of parity |i|+|j| (the
membership pattern of GL(p|q)(A) points), *odd-homogeneous* when parities
are flipped.  ``GroupDescriptor.member`` is the one membership test of a
group point: the shape, this pattern, then the group's cell pattern and
invertibility.
"""

from __future__ import annotations

from .coeff import GrassmannAlgebra
from .errors import MembershipViolation, NotInvertible, StructuralError
from .sampling import rand_element, rand_even_unit, rand_odd


class SuperMatrix:
    __slots__ = ("shape", "algebra", "rows")

    def __init__(self, shape, algebra: GrassmannAlgebra, rows):
        p, q = shape
        n = p + q
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructuralError("entry grid does not match block shape")
        self.shape = (p, q)
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, shape, algebra):
        n = shape[0] + shape[1]
        z = algebra.zero()
        return cls(shape, algebra, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, shape, algebra):
        n = shape[0] + shape[1]
        z, o = algebra.zero(), algebra.one()
        return cls(shape, algebra, [[o if i == j else z for j in range(n)] for i in range(n)])

    def mutable(self):
        return [list(r) for r in self.rows]

    # -- basic structure ---------------------------------------------------
    @property
    def size(self):
        return self.shape[0] + self.shape[1]

    def _check(self, other):
        if (
            not isinstance(other, SuperMatrix)
            or other.shape != self.shape
            or (other.algebra is not self.algebra and other.algebra != self.algebra)
        ):
            raise StructuralError("shape or coefficient algebra mismatch")

    def __add__(self, other):
        self._check(other)
        return SuperMatrix(
            self.shape,
            self.algebra,
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.size)]
                for i in range(self.size)
            ],
        )

    def __neg__(self):
        return SuperMatrix(
            self.shape, self.algebra, [[-e for e in row] for row in self.rows]
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply every entry on the left by a coefficient element c (even
        use only)."""
        return SuperMatrix(
            self.shape, self.algebra, [[c * e for e in row] for row in self.rows]
        )

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatrix)
            and other.shape == self.shape
            and other.algebra == self.algebra
            and other.rows == self.rows
        )

    __hash__ = None

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    # -- the twisted product ----------------------------------------------
    def __mul__(self, other):
        self._check(other)
        n = self.size
        p = self.shape[0]
        alg = self.algebra
        twisted = [[e.twist() for e in row] for row in other.rows]
        out = []
        for i in range(n):
            # right-factor row j, twisted where |i| + |j| is odd
            right = [other.rows[j] if (i < p) == (j < p) else twisted[j] for j in range(n)]
            row = []
            for k in range(n):
                acc = alg.zero()
                for j in range(n):
                    m, e = self.rows[i][j], right[j][k]
                    if not (m.is_zero() or e.is_zero()):
                        acc = acc + m * e
                row.append(acc)
            out.append(row)
        return SuperMatrix(self.shape, alg, out)

    # -- parity structure ---------------------------------------------------
    def _parity_pattern(self, shift):
        """Whether every term of entry (i,j) has parity |i|+|j|+shift (mod 2)."""
        p = self.shape[0]
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                parity = ((i < p) != (j < p)) ^ shift
                if any(m.bit_count() & 1 != parity for m in e.terms):
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
        return [[e.augment().raw for e in row] for row in self.rows]

    def body_lift(self):
        """G(sigma_A)(G(pi_A)(m)): the body, re-embedded by the unit inclusion
        of k."""
        return SuperMatrix(
            self.shape,
            self.algebra,
            [[self.algebra.from_scalar(s) for s in row] for row in self.body_rows()],
        )

    def entries_in_a1n(self, n: int) -> bool:
        """Whether every entry lies in the subalgebra A_1^(n)."""
        return all(e.a1n_member(n) for row in self.rows for e in row)

    def diagonal_blocks_only(self):
        p = self.shape[0]
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.size)
            for j in range(self.size)
            if (i < p) != (j < p)
        )

    def to_strings(self):
        return [[e.to_str() for e in row] for row in self.rows]

    def __repr__(self):
        return "[" + "; ".join(", ".join(r) for r in self.to_strings()) + "]"


# ---------------------------------------------------------------------------
# products with a factor c (x) K


def k_nonzeros(rows):
    """The nonzero entries of a raw k-matrix as ((row, column, value), ...)."""
    return tuple((a, b, v) for a, row in enumerate(rows) for b, v in enumerate(row) if v)


def ck_product(left, c, nz, right, base=None):
    """base + left . (c (x) K) . right, visiting only the nonzeros of K.

    c is a homogeneous coefficient element, or None for 1 when left is
    given; K is a homogeneous raw k-matrix of parity |K|, given by its
    nonzero entries nz (``k_nonzeros``); left and right are supermatrices,
    or None for the identity, but not both None; base is a supermatrix, or
    None for 0.  Raw k-values are even,
    so the twisted product of this module gives, with |i| the parity of
    row i and twist^0 the identity,

        (m . cK)_ik    = sum_j m_ij . twist^{|i|+|j|}(c) . K_jk
        (cK . m)_ik    = sum_j c . K_ij . twist^{|K|}(m_jk)
        (L . K . R)_ik = sum_{a,b} L_ia . K_ab . twist^{|i|+|b|}(R_bk)

    the three cases (right None, left None, c None) of
    sum_{a,b} L_ia twist^{|i|+|a|}(c) K_ab twist^{|i|+|b|}(R_bk).  So
    m (1 + cK) = ck_product(m, c, nz, None, m), and (1 + cK) m likewise.
    """
    ref = left if left is not None else right
    shape, alg = ref.shape, ref.algebra
    p, n = shape[0], shape[0] + shape[1]
    out = base.mutable() if base is not None else [[alg.zero()] * n for _ in range(n)]
    twisted = {}  # row b of right, twisted, made on first use
    for a, b, v in nz:
        if left is None:
            terms = ((a, c.scale(v)),)
        else:
            col = [(i, row[a]) for i, row in enumerate(left.rows) if not row[a].is_zero()]
            if c is None:
                terms = [(i, e.scale(v)) for i, e in col]
            else:
                cv = (c.scale(v), c.twist().scale(v))
                terms = [(i, e * cv[(i < p) != (a < p)]) for i, e in col]
        for i, x in terms:
            if x.is_zero():
                continue
            if right is None:
                out[i][b] = out[i][b] + x
                continue
            if (i < p) == (b < p):
                row = right.rows[b]
            else:
                row = twisted.get(b)
                if row is None:
                    row = twisted[b] = [e.twist() for e in right.rows[b]]
            dst = out[i]
            for k, e in enumerate(row):
                if not e.is_zero():
                    dst[k] = dst[k] + x * e
    return SuperMatrix(shape, alg, out)


# ---------------------------------------------------------------------------
# exact linear algebra over the base field


def k_solve_matrix(field, columns):
    """Row-reduce the system whose columns are the m k-linearly independent
    length-n k-vectors 'columns' (raw values) once, and return a solver
    mapping a length-n vector to its exact coordinates, or None when the
    residual is nonzero.  The vector holds elements of the coefficient
    algebra passed to the solver, or raw k-values when none is passed.
    """
    m = len(columns)
    n = len(columns[0]) if columns else 0
    rows = list(zip(*columns))
    # more columns than rows are dependent (and n = 0 leaves no rows to count them)
    ops = k_matrix_inverse(field, rows) if m <= n else None
    if ops is None:
        raise StructuralError("columns are k-linearly dependent")
    # the left inverse and the columns as sparse (index, coefficient) rows
    left = [[(i, c) for i, c in enumerate(row) if c] for row in ops[:m]]
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in rows]

    def raw_axpy(acc, c, x):
        return field.add(acc, field.mul(c, x))

    def element_axpy(acc, c, x):
        return acc + x.scale(c)

    def solve(vector, algebra=None):
        if algebra is None:
            zero, axpy = field.from_int(0), raw_axpy
        else:
            zero, axpy = algebra.zero(), element_axpy

        def comb(terms, xs):
            acc = zero
            for k, c in terms:
                if xs[k]:
                    acc = axpy(acc, c, xs[k])
            return acc

        coords = [comb(row, vector) for row in left]
        # exact residual check against the original columns
        if any(comb(row, coords) != x for row, x in zip(rows, vector)):
            return None
        return coords

    return solve


def k_matrix_inverse(field, rows):
    """Gauss-Jordan over k on an n x m matrix of raw values, m <= n.

    Returns the n x n row operations R with R.rows = [I_m; 0] (for square
    input, the inverse), or None when the columns are k-linearly dependent.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    inv = [[field.from_int(1) if i == j else field.from_int(0) for j in range(n)] for i in range(n)]
    for col in range(m):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = field.inv(a[col][col])
        a[col] = [field.mul(f, v) for v in a[col]]
        inv[col] = [field.mul(f, v) for v in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                g = a[i][col]
                a[i] = [field.add(x, field.neg(field.mul(g, y))) for x, y in zip(a[i], a[col])]
                inv[i] = [field.add(x, field.neg(field.mul(g, y))) for x, y in zip(inv[i], inv[col])]
    return inv


def k_matmul(field, a, b):
    """The product of two matrices of raw k-values, skipping zero entries."""
    zero = field.from_int(0)
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                for k, y in enumerate(brow):
                    if y:
                        acc[k] = field.add(acc[k], field.mul(x, y))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# GL(p|q) operations


def is_invertible(m: SuperMatrix) -> bool:
    return k_matrix_inverse(m.algebra.field, m.body_rows()) is not None


def smat_inv(m: SuperMatrix) -> SuperMatrix:
    """Body-lift + Neumann series; exact, terminates by the nilpotency bound."""
    binv_raw = k_matrix_inverse(m.algebra.field, m.body_rows())
    if binv_raw is None:
        raise NotInvertible("body matrix is singular over k")
    binv = constant_matrix(m.shape, m.algebra, binv_raw)
    soul = m - m.body_lift()
    t = binv * soul
    acc = SuperMatrix.identity(m.shape, m.algebra)
    pw = SuperMatrix.identity(m.shape, m.algebra)
    for _ in range(m.algebra.nilpotency_bound):
        pw = -(pw * t)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc * binv


def gl_split(m: SuperMatrix):
    """Unique factorization of a GL(p|q)(A) point as diag(a,d) . (I + odd).

    Returns (even_factor, odd_factor) with exact reassembly
    even_factor * odd_factor == m.
    """
    if not m.is_even_homogeneous():
        raise StructuralError("gl_split needs an even-homogeneous matrix")
    p = m.shape[0]
    rows = m.mutable()
    z = m.algebra.zero()
    for i in range(m.size):
        for j in range(m.size):
            if (i < p) != (j < p):
                rows[i][j] = z
    even_factor = SuperMatrix(m.shape, m.algebra, rows)
    odd_factor = smat_inv(even_factor) * m
    return even_factor, odd_factor


def is_odd_unipotent(m: SuperMatrix) -> bool:
    """Whether m = I + N with N supported on the off-diagonal blocks (odd
    coefficients at odd positions): the shape of gl_split's odd factor."""
    n = m.size
    p = m.shape[0]
    if not m.is_even_homogeneous():
        return False
    ident = SuperMatrix.identity(m.shape, m.algebra)
    return all(
        (m.rows[i][j] - ident.rows[i][j]).is_zero()
        for i in range(n)
        for j in range(n)
        if (i < p) == (j < p)
    )


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
        rows = m.rows
        return (all(rows[i][j].is_zero() for i, j in self._zeros)
                and all(rows[i][j] == rows[a][b] for (i, j), (a, b) in self._ties)
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
    """Lift a matrix of raw k-values into a matrix over the algebra."""
    return SuperMatrix(
        shape, algebra, [[algebra.from_scalar(v) for v in row] for row in scalar_rows]
    )


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
