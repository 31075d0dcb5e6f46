"""Lie superalgebras with 2-operation, given by structure constants.

The axioms checked here are the characteristic-free ones: besides bilinear
antisymmetry and graded Jacobi, the odd part carries a quadratic 2-operation
Y -> Y^<2> into the even part whose polarization is the odd-odd bracket and
which satisfies [z^<2>, x] = [z, [z, x]].  Over fields of characteristic 2
and 3 this refines (and replaces) the usual 1/2 [z,z] square.

from_matrices reads the constants off homogeneous k-matrices over the raw
base field: k-scalars are even, so brackets and squares are plain matrix
products, with no SuperMatrix and no coefficient algebra.  They run on the
generators' nonzeros, as do the solves (smat.k_solve_matrix): over a
Chevalley-type basis most constants are 0.  check_axioms recomputes them
through gl_bracket/gl_2op on supermatrices, an independent cross-check.
LieSuperalgebraData.relations() lists the defining relations (brackets and
2-operation on the basis) once; every homomorphism check reads that list:
rho here, omega in gp.PairMorphism.check, and the one relation loop over
action tables, broken_relations, which builds each ordered product of two
tables once and checks each relation as one sum of those products and the
flattened tables.  That loop checks the wedge(g_1) action in
verify.check_module_axioms and the adjoint action here, which is graded
Jacobi (c) and [z^<2>, x] = [z, [z, x]] (f).

The module also hosts the exterior module wedge(g_1) with its straightening
action: the induced module from the trivial even representation, in the PBW
basis of ordered monomials.  All straightening happens over the base field
in one memoized kernel, StraighteningKernel, which serves wedge(g_1) and
every induced module wedge(g_1) (x) V0 alike: it keys Ybar_S (x) e_t by the
int S | t << d_minus, so on wedge(g_1) (V0 the trivial line) the keys are
the masks S.  An even group point acts through the same kernel, by the
Ad(g)-image of each Y_i (wedge_ad_action).  Coefficient algebras enter only
through the A-linear extension with the sign rule

    (eta (x) Y).(c (x) w) = (-1)^{|Y||c|} eta c (x) Y.w .

A vector over a coefficient algebra A is a plain dict, key -> nonzero
coefficient, with the kernel's key.  word_action takes and returns vectors
of elements; below it vectors are term dicts.  The two kernels,
straighten_action and wedge_ad_action, take the base field and the module's
straightening table (lie.odd_action, or an induced module's odd_act), and
wedge_ad_action d_minus, an even point's V0 matrix as a grid and a callable
returning its Ad matrix as a grid (the pair's shared memo grid, or the Ad a
normal form carries), called only when some key of the vector has odd
part S != 0: a vacuum crosses no odd factor past the point.  word_action
reads V0 matrices through its v0_action argument (trivial_action on
wedge(g_1)); an odd token 1 + eta.Y_i acts in word_action alone, as one
scaled straightening pass into a copy of v.  Sums accumulate in place
(coeff.mac) only into term dicts the vector made itself, never into an
input vector's, a V0 matrix entry or an Ad memo grid's.
"""

from __future__ import annotations

from functools import partial

from .coeff import GrassmannAlgebra, GrassmannElement, add_into, mac
from .errors import ClosureViolation, StructuralError
from .smat import (SuperMatrix, constant_matrix, gl_2op, gl_bracket, k_nonzeros,
                   k_solve_matrix, matrix_units)


def _vcomb(field, n, terms):
    """sum c.v over the (c, v) in terms: a k-vector of length n (raw values);
    zero entries of v are skipped."""
    out = [field.from_int(0)] * n
    for c, v in terms:
        for k, x in enumerate(v):
            if x:
                out[k] = field.add(out[k], field.mul(c, x))
    return tuple(out)


def _unit(field, n, k):
    """The k-th basis vector of k^n (raw values)."""
    return tuple(field.from_int(int(t == k)) for t in range(n))


def _flat(m):
    """A square k-matrix as one k-vector, row by row."""
    return [v for row in m for v in row]


def lift_comb(shape, algebra, mats, coords) -> SuperMatrix:
    """sum_i coords[i] mats[i] for raw k-matrices and raw k-values: summed
    over k, then lifted into a SuperMatrix over the algebra once."""
    n = shape[0] + shape[1]
    v = _vcomb(algebra.field, n * n, ((c, _flat(m)) for c, m in zip(coords, mats) if c))
    return constant_matrix(shape, algebra, [v[r * n:(r + 1) * n] for r in range(n)])


class CheckReport:
    """Outcome of an axiom/validation run: empty failure list means pass."""

    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def summary(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [status]
        lines += [f"  FAIL {m}" for m in self.failures]
        lines += [f"  note {m}" for m in self.notes]
        return "\n".join(lines)


class LieSuperalgebraData:
    """Structure constants on a fixed homogeneous basis X_1..X_{d+},
    Y_1..Y_{d-}; indices are 0-based internally.

    bracket tables (tuples of raw field values):
      ee[a][b] : [X_a, X_b] in the even basis
      eo[a][i] : [X_a, Y_i] in the odd basis
      oo[i][j] : [Y_i, Y_j] in the even basis (symmetric by axiom (b))
      q2[i]    : Y_i^<2>    in the even basis

    Optional representation: shape (p,q) plus raw k-matrices rho_even[a],
    rho_odd[i], with their nonzeros rho_even_nz[a] and rho_odd_nz[i] (the
    one table of each rho(X_a) and rho(Y_i) that the products read); rho
    is checked to be a homomorphism by check_axioms.
    """

    def __init__(self, field, d_plus, d_minus, ee, eo, oo, q2,
                 shape=None, rho_even=None, rho_odd=None, odd_solver=None):
        self.field = field
        self.d_plus = d_plus
        self.d_minus = d_minus
        self.ee = tuple(tuple(tuple(v) for v in row) for row in ee)
        self.eo = tuple(tuple(tuple(v) for v in row) for row in eo)
        self.oo = tuple(tuple(tuple(v) for v in row) for row in oo)
        self.q2 = tuple(tuple(v) for v in q2)
        self.shape = shape
        self.rho_even = (
            [tuple(tuple(r) for r in m) for m in rho_even] if rho_even is not None else None
        )
        self.rho_odd = (
            [tuple(tuple(r) for r in m) for m in rho_odd] if rho_odd is not None else None
        )
        self._validate_shapes()
        # the nonzeros (k_nonzeros) of each rho(X_a) and each rho(Y_i)
        self.rho_even_nz, self.rho_odd_nz = (
            ([k_nonzeros(m) for m in mats] for mats in (self.rho_even, self.rho_odd))
            if rho_even is not None else (None, None))
        self._odd_solver = odd_solver
        self._kernel = StraighteningKernel(self, [((field.from_int(0),),)] * d_plus)

    def _validate_shapes(self):
        dp, dm = self.d_plus, self.d_minus
        if len(self.ee) != dp or any(len(r) != dp for r in self.ee):
            raise StructuralError("even-even table shape")
        if any(len(v) != dp for r in self.ee for v in r):
            raise StructuralError("even-even values must be even vectors")
        if len(self.eo) != dp or any(len(r) != dm for r in self.eo):
            raise StructuralError("even-odd table shape")
        if any(len(v) != dm for r in self.eo for v in r):
            raise StructuralError("even-odd values must be odd vectors")
        if len(self.oo) != dm or any(len(r) != dm for r in self.oo):
            raise StructuralError("odd-odd table shape")
        if any(len(v) != dp for r in self.oo for v in r):
            raise StructuralError("odd-odd values must be even vectors")
        if len(self.q2) != dm or any(len(v) != dp for v in self.q2):
            raise StructuralError("2-operation table shape")
        if (self.rho_even is None) != (self.rho_odd is None):
            raise StructuralError("rho must supply both parities")
        if self.rho_even is None:
            return
        if self.shape is None:
            raise StructuralError("rho needs a block shape")
        n = self.shape[0] + self.shape[1]
        for parity, mats, d in (("even", self.rho_even, dp), ("odd", self.rho_odd, dm)):
            if len(mats) != d:
                raise StructuralError(f"rho.{parity} has {len(mats)} matrices, not {d}")
            if any(len(m) != n or any(len(r) != n for r in m) for m in mats):
                raise StructuralError(f"rho.{parity} matrices must be {n}x{n}")

    # -- brackets over k ----------------------------------------------------
    def _bilinear(self, table, u, v, n):
        """sum_{a,b} u_a v_b table[a][b], a vector of length n."""
        f = self.field
        return _vcomb(f, n, ((f.mul(ua, vb), table[a][b])
                             for a, ua in enumerate(u) if ua
                             for b, vb in enumerate(v) if vb))

    def bracket_ee(self, u, v):
        return self._bilinear(self.ee, u, v, self.d_plus)

    def bracket_eo(self, u, w):
        return self._bilinear(self.eo, u, w, self.d_minus)

    def bracket_oo(self, w, z):
        return self._bilinear(self.oo, w, z, self.d_plus)

    def two_op(self, w):
        """(sum c_i Y_i)^<2> = sum c_i^2 Y_i^<2> + sum_{i<j} c_i c_j [Y_i,Y_j].

        This is axiom (d) enforced representationally: the operation is
        quadratic by construction, with polarization the odd-odd bracket.
        """
        f = self.field
        terms = []
        for i, wi in enumerate(w):
            if not wi:
                continue
            terms.append((f.mul(wi, wi), self.q2[i]))
            terms += [(f.mul(wi, w[j]), self.oo[i][j])
                      for j in range(i + 1, self.d_minus) if w[j]]
        return _vcomb(f, self.d_plus, terms)

    # -- representation lifts ------------------------------------------------
    def rho_odd_matrix(self, i, algebra) -> SuperMatrix:
        return constant_matrix(self.shape, algebra, self.rho_odd[i])

    def rho_comb(self, parity, coords, algebra) -> SuperMatrix:
        """rho of the element with k-coordinates coords in the even (parity
        0) or odd (parity 1) basis, over the algebra."""
        return lift_comb(self.shape, algebra, (self.rho_even, self.rho_odd)[parity], coords)

    @property
    def odd_solver(self):
        """The exact solver (``k_solve_matrix``) for coordinates in the span
        of the flattened rho(Y_i), row-reduced once: from_matrices hands
        over the one it made, any other rho is reduced on first use."""
        if self._odd_solver is None:
            self._odd_solver = k_solve_matrix(self.field, [_flat(m) for m in self.rho_odd])
        return self._odd_solver

    # -- the defining relations ---------------------------------------------
    def relations(self):
        """Each defining relation of g on the basis, once, as
        (name, left, right, sign, (parity, coords)).

        left and right are basis elements (parity, index), X_a = (0, a) and
        Y_i = (1, i).  A bracket [x,y] = xy + sign.yx has the raw k-value
        sign -1 when x is even and +1 for [Y_i,Y_j]; a square (Y_i^<2>) = YY
        has right and sign None.  The right-hand side is the element with
        k-coordinates coords in the basis of that parity.  Order: [X_a,X_b]
        and [X_a,Y_i] for each a, then [Y_i,Y_j] and (Y_i^<2>) for each i.
        Each ordered pair appears once, so [X_a,X_b] and [X_b,X_a] (and
        [Y_i,Y_j] and [Y_j,Y_i]) are both listed and share their two
        products xy and yx.
        """
        minus, one = self.field.from_int(-1), self.field.from_int(1)
        for a in range(self.d_plus):
            for b in range(self.d_plus):
                yield f"[X{a + 1},X{b + 1}]", (0, a), (0, b), minus, (0, self.ee[a][b])
            for i in range(self.d_minus):
                yield f"[X{a + 1},Y{i + 1}]", (0, a), (1, i), minus, (1, self.eo[a][i])
        for i in range(self.d_minus):
            for j in range(self.d_minus):
                yield f"[Y{i + 1},Y{j + 1}]", (1, i), (1, j), one, (0, self.oo[i][j])
            yield f"(Y{i + 1}^<2>)", (1, i), None, None, (0, self.q2[i])

    def broken_relations(self, tables, keys):
        """The defining relations that a module's action tables break, each
        once, as (name, left, right, key) with key the least basis key of
        the module that it fails on.

        tables[parity][index][key] is X_index (parity 0) or Y_index (parity
        1) acting on the basis vector key, a sparse dict key -> nonzero raw
        value; keys are all the basis keys, and every key in a table is one
        of them.  The action respects [x,y] when that of [x,y] is
        x.y + sign.y.x, and (Y^<2>) when that of Y^<2> is the squared action
        of Y.  Each table is flattened once, its entry k on the key m at
        m << shift | k, and each ordered product P_xy = x.y is built once,
        on first use, over the nonzero entries of y's table.  A relation is
        then one sum into a copy of P_xy (P_xx for a square): sign.P_yx for
        a bracket, then -c_b times the flat table of each b on the right.
        """
        f = self.field
        shift = max(keys, default=0).bit_length()
        mask = (1 << shift) - 1
        flat = [[{m << shift | k: v for m in keys for k, v in t[m].items()} for t in ts]
                for ts in tables]
        products = {}

        def product(x, y):
            """P_xy: x.(y.m) at m << shift | k, shared by both orders' relations."""
            if (p := products.get((x, y))) is None:
                p = products[x, y] = {}
                tx = tables[x[0]][x[1]]
                for key, c in flat[y[0]][y[1]].items():
                    if row := tx[key & mask]:
                        add_into(f, p, c, row, key & ~mask)
            return p

        for name, x, right, sign, (parity, coords) in self.relations():
            acc = dict(product(x, right or x))
            if right is not None:
                add_into(f, acc, sign, product(right, x))
            for b, c in enumerate(coords):
                if c:
                    add_into(f, acc, f.neg(c), flat[parity][b])
            if acc:
                yield name, x, right, min(acc) >> shift

    # -- straightening kernel over k (wedge(g_1): keys are the masks S) -------

    def odd_action(self, j, mask):
        """Y_j . Ybar_S, straightened into the PBW basis; memoized."""
        return self._kernel.odd(j, mask)

    def even_action_basis(self, a, mask):
        """X_a . Ybar_S: the derivation action, with X_a killing b."""
        return self._kernel.even(a, mask)


class StraighteningKernel:
    """The PBW straightening action on V = U(g) (x)_{U(g0)} V0, memoized.

    V has basis Ybar_S (x) e_t = Y_{i_1}..Y_{i_s} (x) e_t for ascending index
    sets S, keyed by the int S | t << d_minus.  v0_mats[a] is the raw
    k-matrix of X_a on V0 (X_a e_t = sum_r v0_mats[a][r][t] e_r).  With V0
    the trivial line (each X_a the 1x1 zero matrix) V is wedge(g_1) and the
    keys are the masks S.  Results are dicts key -> nonzero raw value, shared
    with the memo: callers must not mutate them.
    """

    def __init__(self, lie, v0_mats):
        # the tables, not lie: lie owns its wedge(g_1) kernel, and a reference
        # back would leave every dropped lie for the cyclic garbage collector
        self.field, self.d_minus = lie.field, lie.d_minus
        self.eo, self.oo, self.q2 = lie.eo, lie.oo, lie.q2
        self.v0_mats = v0_mats
        self._odd_memo = {}
        self._even_memo = {}

    def odd(self, j, key):
        """Y_j . (Ybar_S (x) e_t)."""
        res = self._odd_memo.get((j, key))
        if res is not None:
            return res
        f = self.field
        if not key & ((2 << j) - 1):
            # every index of S exceeds j: Y_j just prepends
            res = {key | (1 << j): f.from_int(1)}
        else:
            # the lowest set bit of key is i0 = min S, since t sits above S
            i0 = (key & -key).bit_length() - 1
            rest = key & (key - 1)
            if j == i0:
                # Y_j Y_j = Y_j^<2> inside U(g)
                res = self._even_comb(self.q2[j], rest)
            else:
                # Y_j Y_{i0} = -Y_{i0} Y_j + [Y_j, Y_{i0}]
                res = self._even_comb(self.oo[j][i0], rest)
                for k, c in self.odd(j, rest).items():
                    add_into(f, res, f.neg(c), self.odd(i0, k))
        self._odd_memo[(j, key)] = res
        return res

    def even(self, a, key):
        """X_a . (Ybar_S (x) e_t) = [X_a, Ybar_S] (x) e_t + Ybar_S (x) X_a.e_t."""
        res = self._even_memo.get((a, key))
        if res is not None:
            return res
        f = self.field
        dm = self.d_minus
        res = {}
        if not key & ((1 << dm) - 1):
            # S empty: X_a reaches the inducing module
            t = key >> dm
            for r, row in enumerate(self.v0_mats[a]):
                if row[t]:
                    res[r << dm] = row[t]
        else:
            i0 = (key & -key).bit_length() - 1
            rest = key & (key - 1)
            # [X_a, Y_{i0}] . rest
            for m, wm in enumerate(self.eo[a][i0]):
                if wm:
                    add_into(f, res, wm, self.odd(m, rest))
            # Y_{i0} . (X_a . rest)
            for k, c in self.even(a, rest).items():
                add_into(f, res, c, self.odd(i0, k))
        self._even_memo[(a, key)] = res
        return res

    def _even_comb(self, coords, key):
        """(sum_a coords[a] X_a) . key, as a fresh dict."""
        f = self.field
        res = {}
        for a, c in enumerate(coords):
            if c:
                add_into(f, res, c, self.even(a, key))
        return res


# ---------------------------------------------------------------------------
# axiom verification


def _basis_elements(lie):
    f = lie.field
    return ([(0, _unit(f, lie.d_plus, a), f"X{a + 1}") for a in range(lie.d_plus)]
            + [(1, _unit(f, lie.d_minus, i), f"Y{i + 1}") for i in range(lie.d_minus)])


def _bracket(lie, x, y):
    """Graded bracket of homogeneous (parity, vector) pairs; result pair."""
    f = lie.field
    px, vx = x
    py, vy = y
    if px == 0 and py == 0:
        return (0, lie.bracket_ee(vx, vy))
    if px == 0 and py == 1:
        return (1, lie.bracket_eo(vx, vy))
    if px == 1 and py == 0:
        # [w, u] = -[u, w] for |w||u| = 0
        return (1, _vcomb(f, lie.d_minus, [(f.from_int(-1), lie.bracket_eo(vy, vx))]))
    return (0, lie.bracket_oo(vx, vy))


def check_axioms(lie: LieSuperalgebraData) -> CheckReport:
    """Verify axioms (a)-(f); with rho present, also the homomorphism laws.
    (c) and (f) are read off the relations that the adjoint action breaks."""
    rep = CheckReport()
    f = lie.field
    one, minus = f.from_int(1), f.from_int(-1)
    basis = _basis_elements(lie)
    evens = [b for b in basis if b[0] == 0]
    odds = [b for b in basis if b[0] == 1]

    def total(*terms):
        """sum c.v over (c, v) pairs of vectors of one length."""
        return _vcomb(f, len(terms[0][1]), terms)

    def odd_sum(*idx):
        return total(*((one, odds[i][1]) for i in idx))

    def sign(pa, pb):
        return minus if pa * pb else one

    # (a) alternating even brackets; [z,[z,z]] = 0 for odd z incl. polarized
    for p, v, name in evens:
        if any(lie.bracket_ee(v, v)):
            rep.fail(f"(a) [{name},{name}] != 0")
    odd_probes = [(v, n) for _, v, n in odds]
    for i in range(len(odds)):
        for j in range(i + 1, len(odds)):
            odd_probes.append((odd_sum(i, j), f"{odds[i][2]}+{odds[j][2]}"))
            for l in range(j + 1, len(odds)):
                odd_probes.append((odd_sum(i, j, l),
                                   f"{odds[i][2]}+{odds[j][2]}+{odds[l][2]}"))
    for v, name in odd_probes:
        zz = lie.bracket_oo(v, v)
        res = lie.bracket_eo(zz, v)  # [[z,z], z] has parity odd; compare via (b)
        # [z,[z,z]] = -(-1)^{1*0}[[z,z],z] = -[[z,z],z]
        if any(res):
            rep.fail(f"(a) [{name},[{name},{name}]] != 0")

    # (b) graded antisymmetry on homogeneous basis pairs
    for x in basis:
        for y in basis:
            px, vx, nx = x
            py, vy, ny = y
            pb, b1 = _bracket(lie, (px, vx), (py, vy))
            pb2, b2 = _bracket(lie, (py, vy), (px, vx))
            if any(total((one, b1), (sign(px, py), b2))):
                rep.fail(f"(b) antisymmetry fails on ({nx},{ny})")

    # (c) and (f): ad is a g-module.  Given (b) and the quadratic two_op of
    # (d), ad respects every [x,y] exactly when graded Jacobi holds on the
    # basis triples (x,y,z), and every (Y_i^<2>) and [Y_i,Y_j] exactly when
    # [z^<2>,x] = [z,[z,x]] for every odd z.  The key of X_a is a, of Y_i
    # d_plus + i; _bracket keeps the rule [Y,X] = -[X,Y].
    def ad(p, v):
        """The action table of a basis element on the basis keys."""
        rows = [_bracket(lie, (p, v), (q, w)) for q, w, _ in basis]
        return [{pb * lie.d_plus + t: c for t, c in enumerate(b) if c} for pb, b in rows]

    def name(p, i):
        return basis[p * lie.d_plus + i][2]

    tables = ([ad(p, v) for p, v, _ in evens], [ad(p, v) for p, v, _ in odds])
    for _, x, y, key in lie.broken_relations(tables, range(len(basis))):
        if y is None:
            rep.fail(f"(f) [z^<2>,x]=[z,[z,x]] fails on (z={name(*x)}, x={basis[key][2]})")
        else:
            rep.fail(f"(c) Jacobi fails on ({name(*x)},{name(*y)},{basis[key][2]})")

    # (d) is true of the encoding (two_op applies constants quadratically)
    rep.note("(d) quadraticity holds by construction of two_op")

    # (e) polarization: [z1,z2] = (z1+z2)^<2> - z1^<2> - z2^<2> on basis pairs,
    # the diagonal [z,z] = 2 z^<2> included
    for i in range(lie.d_minus):
        for j in range(lie.d_minus):
            zi, zj = odds[i][1], odds[j][1]
            if any(total((one, lie.bracket_oo(zi, zj)), (minus, lie.two_op(odd_sum(i, j))),
                         (one, lie.two_op(zi)), (one, lie.two_op(zj)))):
                rep.fail(f"(e) polarization fails on ({odds[i][2]},{odds[j][2]})")

    if lie.rho_even is not None:
        _check_rho(lie, rep)
    return rep


def _check_rho(lie, rep):
    """rho respects brackets and the 2-operation, with correct parities."""
    before = len(rep.failures)
    k0 = GrassmannAlgebra(lie.field, 0)
    rho = [[constant_matrix(lie.shape, k0, m) for m in mats]
           for mats in (lie.rho_even, lie.rho_odd)]
    for a, m in enumerate(rho[0]):
        if not m.is_even_homogeneous():
            rep.fail(f"rho(X{a + 1}) is not even-homogeneous")
    for i, m in enumerate(rho[1]):
        if not m.is_odd_homogeneous():
            rep.fail(f"rho(Y{i + 1}) is not odd-homogeneous")
    if len(rep.failures) > before:
        return
    for name, (px, x), right, _, (parity, coords) in lie.relations():
        got = (gl_2op(rho[px][x]) if right is None
               else gl_bracket(rho[px][x], rho[right[0]][right[1]]))
        if got != lie.rho_comb(parity, coords, k0):
            rep.fail(f"rho{name} mismatch")


# ---------------------------------------------------------------------------
# structure constants from matrices


def from_matrices(p, q, evens, odds, field) -> LieSuperalgebraData:
    """Extract structure constants from homogeneous k-matrices.

    evens/odds are raw k-matrix rows.  k-scalars are even, so the
    bracket [A,B] = AB - (-1)^{|A||B|} BA and the square Y.Y of an odd Y are
    plain products of raw k-matrices: no coefficient algebra is involved.
    Each product visits the nonzeros of its factors, the right one's by
    row, and a bracket accumulates both products into one flat vector.
    Each span is row-reduced once by smat.k_solve_matrix; a bracket or
    square is solved against it and checked exactly against the generators,
    and one that leaves the span raises ClosureViolation naming it.  The
    odd solver stays on the result as its ``odd_solver``.
    """
    n = p + q
    for parity, mats in ((0, evens), (1, odds)):
        name = ("even", "odd")[parity]
        for m in mats:
            if len(m) != n or any(len(r) != n for r in m):
                raise StructuralError("entry grid does not match block shape")
            if any(v and ((i < p) != (j < p)) != parity
                   for i, r in enumerate(m) for j, v in enumerate(r)):
                raise StructuralError(f"an {name} generator is not {name}-homogeneous")

    solvers = [k_solve_matrix(field, [_flat(m) for m in mats]) for mats in (evens, odds)]
    zero = field.from_int(0)

    def coords(vec, what, parity):
        """k-coordinates of the flat vector vec in the even (parity 0) or
        odd (parity 1) span."""
        c = solvers[parity](vec)
        if c is None:
            left = "left the" if (evens, odds)[parity] else "is nonzero with empty"
            raise ClosureViolation(f"{what} {left} {('even', 'odd')[parity]} span")
        return tuple(c)

    # each generator as its rows' nonzeros, [(column, value), ...] per row
    ev, od = ([[[(c, v) for c, v in enumerate(row) if v] for row in m] for m in mats]
              for mats in (evens, odds))

    def product(a, b, sign=0):
        """ab + sign.ba (sign 1 or -1, or 0 for ab alone) as one flat vector."""
        out = [zero] * (n * n)
        for x, y, neg in [(a, b, False)] + ([(b, a, sign < 0)] if sign else []):
            for r, row in enumerate(x):
                for mid, v in row:
                    if neg:
                        v = field.neg(v)
                    for c, w in y[mid]:
                        k = r * n + c
                        out[k] = field.add(out[k], field.mul(v, w))
        return out

    ee = [[coords(product(x, x2, -1), f"[X{a + 1},X{b + 1}]", 0)
           for b, x2 in enumerate(ev)] for a, x in enumerate(ev)]
    eo = [[coords(product(x, y, -1), f"[X{a + 1},Y{i + 1}]", 1)
           for i, y in enumerate(od)] for a, x in enumerate(ev)]
    oo = [[coords(product(y, y2, 1), f"[Y{i + 1},Y{j + 1}]", 0)
           for j, y2 in enumerate(od)] for i, y in enumerate(od)]
    q2 = [coords(product(y, y), f"Y{i + 1}^<2>", 0) for i, y in enumerate(od)]
    return LieSuperalgebraData(field, len(evens), len(odds), ee, eo, oo, q2, shape=(p, q),
                               rho_even=list(evens), rho_odd=list(odds), odd_solver=solvers[1])


def gl_lie(p, q, field) -> LieSuperalgebraData:
    """gl(p|q) on the matrix-unit basis: evens E_ij (|i|=|j|) then odds."""
    units = matrix_units((p, q), field)
    evens = [rows for rows, parity in units if not parity]
    odds = [rows for rows, parity in units if parity]
    return from_matrices(p, q, evens, odds, field)


# ---------------------------------------------------------------------------
# module vectors over a coefficient algebra: dicts key -> nonzero
# coefficient, Ybar_S (x) e_t keyed S | t << d_minus, coefficients as
# elements in word_action's arguments and result and as term dicts below it
# (ownership rule in the module docstring).


def _mac_into(field, out, key, xs, ys, twist=False):
    """out[key] += x.y, or x.twist(y), for term dicts xs and ys, into the
    term dict out owns at key; a new key gets a new dict, and a key whose
    sum is zero is dropped."""
    prev = out.get(key)
    if prev is None:
        if terms := mac(field, {}, xs, ys, twist):
            out[key] = terms
    elif not mac(field, prev, xs, ys, twist):
        del out[key]


def parity_pattern_ok(v, d_minus):
    """Whether each coefficient of v has the parity |S| of its key
    S | t << d_minus, as on the points of (A (x) wedge(g_1))_0; t does not
    count."""
    mask = (1 << d_minus) - 1
    return all(c.parity() == (key & mask).bit_count() % 2 for key, c in v.items())


def trivial_action(g):
    """An even point g on the trivial line V0 = k: the 1x1 grid [[1]]."""
    return [[{0: g.algebra.field.from_int(1)}]]


def straighten_action(field, act, index, v, scale=None, out=None):
    """out += scale.(Y_index . v) on vectors of term dicts over the field,
    returning out (a new vector when None; scale 1 when None): Y_index acts
    through the straightening table act(index, key) (lie.odd_action, or an
    induced module's odd_act), extended A-linearly with the super sign
    rule, so each table entry raw at k2 adds (scale.raw).twist(c) into
    out[k2] by one mac; an entry raw = 1 uses the scale's dict itself."""
    if out is None:
        out = {}
    one = field.from_int(1)
    if scale is None:
        scale = {0: one}
    for key, c in v.items():
        for k2, raw in act(index, key).items():
            xs = scale if raw == one else {m: field.mul(x, raw) for m, x in scale.items()}
            _mac_into(field, out, k2, xs, c, True)
    return out


def wedge_ad_action(field, act, d_minus, ad, v0_matrix, v):
    """An even group element g acting on the vector v of term dicts over the
    field, in U(g) (x)_{U(g_0)} V0, whose straightening table is act(j, key);
    returns a new vector.

    ad() returns the term dicts of even coefficients a[j][i] with
    Ad(g)(Y_i) = sum_j a[j][i] Y_j, and v0_matrix is g on V0 as a grid of
    term dicts: g.e_t = sum_r v0_matrix[r][t] e_r (for wedge(g_1), V0 is the
    trivial line and v0_matrix is [[1]]).  With i0 = min S and rest the key
    without it, g.(Ybar_S (x) e_t) = (Ad(g)Y_{i0}).(g.rest), and each Y_j
    acts by straighten_action, so the [Y_j,Y_k] and Y_j^<2> terms of the
    product in U(g) act on what stands to their right.  A key with S = 0
    (d_minus low bits) needs only v0_matrix, so ad is called once when some
    key of v has S != 0 and not at all otherwise: on a vacuum no odd factor
    crosses g.
    """
    low = (1 << d_minus) - 1
    ad_matrix = ad() if any(key & low for key in v) else ()
    memo = {}

    def image(key):
        """g . key, memoized for this call; read only."""
        res = memo.get(key)
        if res is None:
            if key & low:
                i0 = (key & -key).bit_length() - 1
                rest = image(key & (key - 1))
                res = {}
                for j, row in enumerate(ad_matrix):
                    if a := row[i0]:
                        straighten_action(field, act, j, rest, a, res)
            else:
                t = key >> d_minus
                res = {r << d_minus: row[t] for r, row in enumerate(v0_matrix) if row[t]}
            memo[key] = res
        return res

    out = {}
    for key, c in v.items():
        for k2, x in image(key).items():
            _mac_into(field, out, k2, c, x)
    return out


def word_action(word, v, odd_act, v0_action):
    """Left action of a group word on the vector v of U(g) (x)_{U(g_0)} V0;
    v itself is left as it is.

    odd_act(j, key) is the module's straightening table (lie.odd_action on
    wedge(g_1), InducedModule.odd_act on an induced module) and
    v0_action(g) the matrix of an even point g on V0, a grid of term dicts
    read only (trivial_action, or EvenModuleData.group_action).  An even
    token acts by wedge_ad_action with the Ad its ``ad(pair)`` hands over, a
    grid read only: the Ad a normal form carries for its own even factor
    (``NormalForm.tokens``), the pair's memo entry for a bare point.  It is
    asked for only when an odd factor has to cross the token, that is when
    the vector to its right has a key with S != 0: an even token acting on
    a vacuum reads no Ad.  An odd token acts as 1 + eta.Y_i.  v and the
    result hold elements; in between the vector runs on term dicts, wrapped
    once at the end.
    """
    tokens = word.tokens
    if not tokens:
        return v
    pair, algebra = word.pair, word.algebra
    field = algebra.field
    vec = {key: c.terms for key, c in v.items()}
    for tok in reversed(tokens):
        if tok.kind == "even":
            vec = wedge_ad_action(field, odd_act, pair.d_minus, partial(tok.ad, pair),
                                  v0_action(tok.matrix), vec)
        else:
            out = {key: dict(c) for key, c in vec.items()}
            vec = straighten_action(field, odd_act, tok.index, vec, tok.eta.terms, out)
    return {key: GrassmannElement(algebra, c) for key, c in vec.items()}
