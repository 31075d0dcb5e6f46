"""Super Harish-Chandra pairs: datatype, validity checker, and the reading
of a pair off a linear supergroup (the forgetful direction).

A pair couples a computationally linear classical group G+ with a Lie
superalgebra carrying representation matrices.  Validity is what the
normal-form machinery depends on: the even basis must be tangent to G+,
conjugation by sampled G+ points must stabilize the odd span exactly, and
the differential of that conjugation must be the stored bracket.  Tangency
and the differential are read off dual-number probes 1 + eps X, points over
``coeff.dual_numbers(A)``: Lambda_{r+2} with eps = x{r+1}x{r+2}.

``ad_action_matrix`` keeps a small memo per pair for bare points: the even
tokens of words and sampled points.  The group law's compile does not ask
it: the law keeps sigma and the g_0-coordinates z of its even correction c,
and reads Ad(c) off the bracket table (``gp.GroupLaw``).  A normal form
does not rely on the memo either: it carries its own Ad(g) and g^-1
(``gp.NormalForm``), filled once from this memo when the form is made
outside the group law, and composed by the law, Ad being a homomorphism,
when the law makes it.  The memo stays because a word's even token is read
by more than one route (the module route and rewriting each ask for its
Ad), and it stays per pair and bounded rather than becoming a cache on each
token, which would keep an Ad alive for every even token of every word a
caller holds.  The key is the exact value of the point: its shape, its
algebra and every entry's sorted ``(mask, value)`` terms.  An entry holds
Ad(g) and g^-1 as grids of term dicts, from the one inversion that Ad(g)
takes; every call returns the entry itself, shared by every caller that
asks for it (rewriting, the module action, a normal form's first read),
so both grids are read only.  The memo holds at most
``AD_MEMO_SIZE`` points and drops the oldest first; a point whose
conjugates leave the odd span is never stored, so it raises
``SpanViolation`` on every request.
"""

from __future__ import annotations

import random

from .coeff import GrassmannAlgebra, GrassmannElement, dual_numbers, mac
from .errors import SpanViolation, StructuralError
from .liesuper import CheckReport, LieSuperalgebraData, check_axioms, from_matrices, gl_lie
from .smat import (
    GroupDescriptor,
    SuperMatrix,
    dual_probe,
    gl_block_diag,
    gl_full,
    grid_inv,
    matrix_units,
    smat_inv,
)

AD_MEMO_SIZE = 32


class HarishChandraPair:
    """(G+, g) with g linearized: rho matrices over k; conjugates of odd
    basis vectors are solved back into the odd basis by g's exact
    ``odd_solver``."""

    def __init__(self, even_group: GroupDescriptor, lie: LieSuperalgebraData):
        if lie.rho_odd is None:
            raise StructuralError("pair needs representation matrices")
        if even_group.shape != lie.shape:
            raise StructuralError("group and representation shapes differ")
        self.even_group = even_group
        self.lie = lie
        self.shape = lie.shape
        self.field = lie.field
        lie.odd_solver  # row-reduced here, once per g: dependent rho(Y_i) raise now
        self._ad_memo = {}  # point key -> (Ad(g), g^-1) as grids, oldest first
        self.group_law = None  # gp.GroupLaw, compiled by the first product

    @property
    def d_minus(self):
        return self.lie.d_minus

    @property
    def d_plus(self):
        return self.lie.d_plus

    # -- conjugation ------------------------------------------------------
    def conj_coords(self, left: SuperMatrix, right: SuperMatrix, indices=None):
        """For each i in indices (all by default), the odd-basis coordinates
        (c_j)_j with left rho(Y_i) right = sum c_j rho(Y_j), as elements
        (``conj_grid`` on the points' grids).

        With right = left^-1 this is row i of Ad(left); the caller passes
        both points, so nothing is inverted here."""
        algebra = left.algebra
        return [[GrassmannElement(algebra, c) for c in col]
                for col in self.conj_grid(left.grid, right.grid, indices)]

    def conj_grid(self, left, right, indices=None):
        """conj_coords on grids of term dicts: the coordinates as term dicts,
        one row per index.
        left . rho(Y_i) . right is summed straight into the flat vector the
        odd solver reads, over the nonzeros (a, b, v) of rho(Y_i), never
        lifted: entry (r, k) gains (left_ra v) . twist^{|r|+|b|}(right_bk),
        one ``coeff.mac`` per nonzero left_ra and right_bk.  That is the
        twisted product by bilinearity, since raw k-values are even, so
        nothing twists between left and rho(Y_i); no grid of left . rho(Y_i)
        is built.  The solver is exact over k applied to algebra entries; a
        nonzero residual or an odd coordinate raises SpanViolation."""
        field, p, n, lie = self.field, self.shape[0], len(left), self.lie
        one, mul = field.from_int(1), field.mul
        out = []
        for i in range(self.d_minus) if indices is None else indices:
            flat = [{} for _ in range(n * n)]
            for a, b, v in lie.rho_odd_nz[i]:
                rb = [(k, y) for k, y in enumerate(right[b]) if y]
                for r, row in enumerate(left):
                    if x := row[a]:
                        if v != one:
                            x = {m: mul(c, v) for m, c in x.items()}
                        twist, base = (r < p) != (b < p), r * n
                        for k, y in rb:
                            mac(field, flat[base + k], x, y, twist)
            coords = lie.odd_solver(flat, terms=True)
            if coords is None:
                raise SpanViolation(
                    f"the conjugate of Y{i + 1} left the odd span of the pair")
            if any(m.bit_count() & 1 for c in coords for m in c):
                raise SpanViolation(f"Ad coordinate of Y{i + 1} is not even")
            out.append(coords)
        return out

    def ad_coords(self, g_plus: SuperMatrix, i: int):
        """Coordinates (c_j)_j with rho(g)^-1 rho(Y_i) rho(g) = sum c_j rho(Y_j):
        row i of Ad(g^-1), the single-row entry point of conj_coords."""
        return self.conj_coords(smat_inv(g_plus), g_plus, [i])[0]

    def ad_action_matrix(self, g_plus: SuperMatrix):
        """(Ad(g), g^-1) as grids of term dicts, read only: row i holds the
        odd coordinates of Ad(g)(Y_i) = sum_j a[i][j] Y_j (note: Ad(g), not
        Ad(g^-1)), solved from g rho(Y_i) g^-1 with g inverted once: the
        layout of ``conj_grid`` and of the bracket table eo[a][i].  Memoized
        by the exact value of g: the memo's entry itself (see the module
        docstring)."""
        g = g_plus.grid
        key = (g_plus.shape, g_plus.algebra,
               tuple(tuple(sorted(x.items())) for row in g for x in row))
        entry = self._ad_memo.get(key)
        if entry is None:
            ginv = grid_inv(self.field, self.shape[0], g_plus.algebra.rank, g)
            entry = self.conj_grid(g, ginv), ginv
            if len(self._ad_memo) >= AD_MEMO_SIZE:
                del self._ad_memo[next(iter(self._ad_memo))]
            self._ad_memo[key] = entry
        return entry

    # -- word representation -------------------------------------------------
    def identity_matrix(self, algebra):
        return SuperMatrix.identity(self.shape, algebra)

    def __repr__(self):
        return f"HarishChandraPair({self.even_group.name}, d+={self.d_plus}, d-={self.d_minus})"


def validate_pair(pair: HarishChandraPair, samples: int = 64, seed: int = 0) -> CheckReport:
    """Run the axioms of g and the pair conditions over Lambda_4 with sampled
    group elements (the dual-number probes over Lambda_6); exact identities,
    so failures are never probabilistic in the coefficients, only in element
    coverage.  All failure families are collected in one report; nothing
    bails early."""
    rep = check_axioms(pair.lie)
    rng = random.Random(seed)
    A = GrassmannAlgebra(pair.field, 4)
    G = pair.even_group

    # (1) Lie(G+) contains g0: dual-number membership of 1 + eps X_a
    dual, eps = dual_numbers(A)
    probes = [dual_probe(x, pair.shape, eps) for x in pair.lie.rho_even]
    for a, probe in enumerate(probes):
        if not G.member(probe):
            rep.fail(f"1 + eps X{a + 1} is not a point of {G.name}[eps]")
    if pair.d_plus == G.tangent_dim:
        rep.note(f"Lie(G+) = g0 certified (tangent dim {G.tangent_dim})")
    else:
        rep.fail(f"dim g0 = {pair.d_plus} but {G.name} has tangent dim {G.tangent_dim}")

    # (2) Ad-stability on samples, and (3) compatibility with the 2-operation
    # (g inverted once per sample)
    for s in range(samples):
        g = G.sample(A, rng)
        ginv = smat_inv(g)
        try:
            coord_rows = pair.conj_coords(ginv, g)
        except SpanViolation as e:
            rep.fail(f"Ad-stability: sample {s}: {e}")
            continue
        for i, coords in enumerate(coord_rows):
            # Ad(g^-1) respects the 2-operation through the constants:
            # (sum c_j Y_j)^<2> must match the conjugate of Y_i^<2>.
            lhs = ginv * pair.lie.rho_comb(0, pair.lie.q2[i], A) * g
            rhs = SuperMatrix.zero(pair.shape, A)
            for j, cj in enumerate(coords):
                if cj.is_zero():
                    continue
                rhs = rhs + pair.lie.rho_comb(0, pair.lie.q2[j], A).scale(cj * cj)
                for l in range(j + 1, pair.d_minus):
                    if coords[l].is_zero():
                        continue
                    rhs = rhs + pair.lie.rho_comb(0, pair.lie.oo[j][l], A).scale(cj * coords[l])
            if lhs != rhs:
                rep.fail(f"sample {s}: Ad(g^-1) does not respect Y{i + 1}^<2>")
    rep.note("Ad compatibility with the 2-operation verified on samples")

    # (4) the differential of Ad is the bracket: Ad(1+eps X)(Y) = Y + eps [X,Y]
    for a, probe in enumerate(probes):
        probe_inv = smat_inv(probe)
        for i in range(pair.d_minus):
            y = pair.lie.rho_odd_matrix(i, dual)
            conj = probe * y * probe_inv
            expect = y + pair.lie.rho_comb(1, pair.lie.eo[a][i], dual).scale(eps)
            if conj != expect:
                rep.fail(f"d(Ad) != bracket on (X{a + 1}, Y{i + 1})")
    return rep


# ---------------------------------------------------------------------------
# Phi: reading the pair off a linear supergroup


class LinearSupergroupFixture:
    """A supergroup presented linearly: point-group membership, its even
    subgroup, a tangent basis for the even part, and odd direction
    candidates to be confirmed by dual-number probing."""

    def __init__(self, name, shape, field, full_group: GroupDescriptor,
                 even_group: GroupDescriptor, even_basis, odd_candidates):
        self.name = name
        self.shape = shape
        self.field = field
        self.full_group = full_group
        self.even_group = even_group
        self.even_basis = even_basis
        self.odd_candidates = odd_candidates

    def __repr__(self):
        return f"LinearSupergroupFixture({self.name})"


def phi_of_group(fixture: LinearSupergroupFixture, samples: int = 32):
    """Phi: G -> (G_0, Lie(G)).  Odd tangent directions are discovered by
    dual-number probes 1 + eps.eta.Z over Lambda_2 (eta = x1) against the
    full point-group membership; the resulting pair is validated (seed 0)
    before being returned."""
    field = fixture.field
    A = GrassmannAlgebra(field, 2)
    eta = A.generator(1)
    _, eps = dual_numbers(A)
    accepted = []
    for rows in fixture.odd_candidates:
        if fixture.full_group.member(dual_probe(rows, fixture.shape, eps, eta)):
            accepted.append(rows)
    lie = from_matrices(fixture.shape[0], fixture.shape[1],
                        fixture.even_basis, accepted, field)
    pair = HarishChandraPair(fixture.even_group, lie)
    report = validate_pair(pair, samples=samples)
    return pair, report


# ---------------------------------------------------------------------------
# built-in pairs and fixtures


def gl_pair(p, q, field) -> HarishChandraPair:
    """The pair of the general linear supergroup: (GL_p x GL_q, gl(p|q))."""
    return HarishChandraPair(gl_block_diag(p, q), gl_lie(p, q, field))


def gl_fixture(p, q, field) -> LinearSupergroupFixture:
    units = matrix_units((p, q), field)
    evens = [rows for rows, parity in units if not parity]
    odds = [rows for rows, parity in units if parity]
    return LinearSupergroupFixture(
        f"GL({p}|{q})", (p, q), field, gl_full(p, q), gl_block_diag(p, q), evens, odds)


def char2_pair(field) -> HarishChandraPair:
    """gl(1|1) over F_2 with the single odd direction E12+E21, whose
    2-operation is E11+E22: the nonzero-square fixture.  Valid over F_2
    because souls square to zero there (Frobenius), making GL1xGL1
    conjugation stabilize the line."""
    if field.characteristic != 2:
        raise StructuralError("this fixture lives in characteristic 2")
    one, zero = field.from_int(1), field.from_int(0)
    evens = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    odds = [[[zero, one], [one, zero]]]
    lie = from_matrices(1, 1, evens, odds, field)
    return HarishChandraPair(gl_block_diag(1, 1), lie)


def q2_pair(field) -> HarishChandraPair:
    """The queer pair (diag(g, g), q(2)) inside gl(2|2) (Kac, "Lie
    superalgebras", 1977): evens E_ij + E_{2+i,2+j}, odds E_{i,2+j} + E_{2+i,j},
    and the even group diag(g, g) with g in GL_2(A_0).  Unlike gl(p|q), G+
    does not preserve a splitting of g_1 into abelian halves, so the product
    (Ad g Y_a)(Ad g Y_b)(Ad g Y_c) in U(g) leaves [Y_j,Y_k] and Y_j^<2> terms
    in g_0 that act on what stands to their right."""
    zero, one = field.from_int(0), field.from_int(1)

    def unit_sum(a, b):
        return [[one if (r, c) in (a, b) else zero for c in range(4)] for r in range(4)]

    idx = [(i, j) for i in range(2) for j in range(2)]
    evens = [unit_sum((i, j), (2 + i, 2 + j)) for i, j in idx]
    odds = [unit_sum((i, 2 + j), (2 + i, j)) for i, j in idx]
    group = GroupDescriptor("diag(g,g) in GL2xGL2", (2, 2),
                            lambda i, j: (i % 2, j % 2) if (i < 2) == (j < 2) else None)
    return HarishChandraPair(group, from_matrices(2, 2, evens, odds, field))
