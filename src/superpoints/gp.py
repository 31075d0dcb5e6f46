"""Words in the generators of the reconstructed supergroup, their canonical
normal forms, and the group structure on normal forms.

A word is a product of even points g+ (matrices over A_0) and odd
one-parameter factors (1 + eta.Y_i).  The canonical (LEFT) normal form is

    g  =  (prod_i^< (1 + eta_i Y_i)) . g+

with the product over the fixed odd-basis order.  ``factor_grid`` is the
one evaluator of such products in the representation, from the right end
on, on one grid of term dicts (odd factors by smat's in-place left-factor
rule); each route wraps its result once, and the even factor it computes
is checked once, by ``NormalForm``, through the even group's ``member``.
Two independent routes compute the form:

* ``normal_form`` -- module extraction: act by ``word_action`` on the
  vacuum ``{0: 1}`` of the exterior module ``wedge(g_1)``; the coefficients
  at the single-index masks ``1 << i`` of the image *are* the etas
  (semi-faithfulness), and the even factor is recovered by dividing out the
  odd product in the representation, factor by factor with
  (1 + eta Y)^-1 = (1 - eta Y); even tokens act by ``wedge_ad_action``.
* ``reorder_symbolic`` -- a rewriting engine using only the one-parameter
  relations: push even tokens right through Ad, remove inversions and
  repeats by the swap/merge relations, slide the even corrections right by
  the bracket table, passing each odd factor that the correction does not
  move (eta.c = 0) through as it is.
  One sweep that steps back after each rewrite leaves the odd factors
  sorted.  It ends because the ideal generated by the word's odd
  coefficients is nilpotent; the rewrite budget trips only on a sign bug.

Both routes read an even token's Ad only when an odd factor has to cross
the token, as ``gp_mul`` does: in the module route when the vector to its
right has a key with odd part S != 0, in rewriting when odd factors stand
to its right.  A trailing even token, ``NormalForm.tokens``' last one
included, costs no Ad, and its memo entry is never made.

A third route, ``strip_matrix_factorization``, peels the etas off the
representing matrix by iterated refinement (each round's odd discrepancy in
the pair's odd span, true on the group's points) and closes the triangle.

The group law on normal forms is compiled once per pair (``GroupLaw``, built
by the first product and kept on the pair).  Psi(P) is a functor on
supercommutative algebras, so with P(xi) = prod^< (1 + xi_i Y_i) the product
P(xi) . (1 + sum_j r_j Y_j) = P(sigma) . c is one universal formula.  For a
*run*, r_j = zeta w_j with one odd zeta and even w_j, any two r's multiply
to 0, so only terms linear in r survive, and the r_j part is the normal form
of (1 + x1 Y_1)...(1 + x_d Y_d)(1 + x_{d+1} Y_j) over Lambda_{d+1}(k)
(``law_words``, one word per j).  The law keeps sigma and the
g_0-coordinates z of c - 1 as polynomials in x_1..x_d, z solved once in
span rho(g_0); every coefficient algebra over k gets them by substituting
x -> (xi, r_j), and Ad(c) = 1 + ad(c - 1) is read off the bracket table, so
compiling the law inverts nothing and asks the Ad memo for nothing.
``gp_mul`` conjugates P(zeta) past g, g P(zeta) g^-1 =
prod_i (1 + zeta_i Ad(g)Y_i), and folds these runs into P(xi) one at a
time; each fold leaves an even correction c, the later runs are carried
past it by Ad(c), and the even factor is c...c . g h, each c applied in
place to the grid of g h.  ``gp_inv`` folds the descending
runs (1 - xi_i Ad(g^-1)Y_i) from P(0) into a copy of g^-1.  A normal form
carries Ad(g_plus) and g_plus^-1: a form made outside the law fills both
from one memo entry (one inversion per even point serves both), and a law
result composes its Ad, Ad(c)...Ad(c) Ad(g) Ad(h), from the factors' and
the fold steps' Ad when first read, so a product inverts nothing and
solves nothing for its Ad.  The law runs on term dicts and grids
throughout; a product or inverse wraps its even factor once.
Lambda_{d+1} has rank at most 16, so the law, and with it ``gp_mul`` and
``gp_inv``, needs d_minus <= 15 (``MAX_LAW_D_MINUS``); a larger pair
raises StructuralError.  The ``generic-point`` suite of
``verify`` checks the module and rewriting routes against each other on
every law word.

``InducedModule`` carries the induced representations wedge(g_1) (x) V0.
It straightens with the same memoized kernel as wedge(g_1) (liesuper's
StraighteningKernel) and acts by the same ``word_action``.  Its vectors are
plain dicts with the kernel's key: Ybar_S (x) e_t is S | t << d_minus, so
``vacuum_with(t, A)`` is ``{t << d_minus: 1}``.
"""

from __future__ import annotations

import random

from .coeff import GrassmannAlgebra, GrassmannElement, add_into, dual_numbers, mac
from .errors import InvariantBreach, NonTermination, SpanViolation, StructuralError
from .liesuper import (CheckReport, StraighteningKernel, _bracket, _flat, _unit, _vcomb,
                       trivial_action, word_action)
from .smat import (SuperMatrix, block_split, ck_grid, copy_grid, dual_probe, gl_split, grid_inv,
                   grid_mul, identity_grid, k_solve_matrix, smat_inv, wrap_grid)

MAX_WORD_TOKENS = 10_000
_REWRITE_BUDGET = 1_000_000


class EvenTok:
    kind = "even"
    __slots__ = ("matrix",)

    def __init__(self, matrix: SuperMatrix):
        self.matrix = matrix

    def ad(self, pair):
        """Ad of the point over the pair, a grid of term dicts read only: a
        bare point carries none, so it is the pair's memo entry."""
        return pair.ad_action_matrix(self.matrix)[0]

    def __repr__(self):
        return f"Even({self.matrix!r})"


class FormTok(EvenTok):
    """The even factor of a normal form as a token (``NormalForm.tokens``):
    over the form's own pair its Ad is the one the form carries."""

    __slots__ = ("form",)

    def __init__(self, form):
        super().__init__(form.g_plus)
        self.form = form

    def ad(self, pair):
        return self.form.ad() if pair is self.form.pair else super().ad(pair)


class OddTok:
    kind = "odd"
    __slots__ = ("index", "eta")

    def __init__(self, index: int, eta):
        self.index = index
        self.eta = eta

    def __repr__(self):
        return f"Odd(Y{self.index + 1}, {self.eta!r})"


def factor_product(pair, algebra, tokens, m=None):
    """tokens[0] ... tokens[-1] . m in the representation over the algebra,
    with m = None for the identity (``factor_grid``), wrapped once."""
    grid = None if m is None else copy_grid(m.grid)
    return wrap_grid(pair.shape, algebra, factor_grid(pair, algebra.field, tokens, grid))


def factor_grid(pair, field, tokens, grid=None):
    """tokens[0] ... tokens[-1] . grid, on a grid of term dicts the caller
    owns (None for the identity), from the right end on: an even token g
    gives g . grid (``grid_mul``; a copy of g while grid is the identity),
    and (1 + eta Y_i) applies in place as a left factor (``ck_grid``)."""
    p, n, nz = pair.shape[0], sum(pair.shape), pair.lie.rho_odd_nz
    for t in reversed(tokens):
        if t.kind == "even":
            g = t.matrix.grid
            grid = copy_grid(g) if grid is None else grid_mul(field, p, g, grid)
        else:
            grid = ck_grid(field, p, t.eta.terms, nz[t.index],
                           identity_grid(field, n) if grid is None else grid)
    return identity_grid(field, n) if grid is None else grid


class GroupWord:
    """Validated token sequence over a pair and a coefficient algebra."""

    def __init__(self, pair, algebra, tokens):
        if algebra.field != pair.field:
            raise StructuralError(f"coefficient field {algebra.field} is not "
                                  f"the pair's field {pair.field}")
        if len(tokens) > MAX_WORD_TOKENS:
            raise StructuralError("word exceeds the token bound")
        self.pair = pair
        self.algebra = algebra
        toks = []
        for t in tokens:
            if t.kind == "even":
                if t.matrix.algebra != algebra:
                    raise StructuralError("even token over the wrong algebra")
                pair.even_group.require_member(t.matrix, "word token")
                toks.append(t)
            else:
                if not (0 <= t.index < pair.d_minus):
                    raise StructuralError("odd generator index out of range")
                if t.eta.algebra != algebra:
                    raise StructuralError("odd token over the wrong algebra")
                if t.eta.is_zero():
                    continue  # (1 + 0.Y_i) = 1
                if not t.eta.is_odd():
                    raise StructuralError("odd token coefficient must be odd")
                toks.append(t)
        self.tokens = tuple(toks)

    def rho_matrix(self) -> SuperMatrix:
        """The word evaluated in the representation (``factor_product``)."""
        return factor_product(self.pair, self.algebra, self.tokens)

    def inverse(self) -> "GroupWord":
        toks = []
        for t in reversed(self.tokens):
            if t.kind == "even":
                toks.append(EvenTok(smat_inv(t.matrix)))
            else:
                toks.append(OddTok(t.index, -t.eta))  # (1+eta Y)^-1 = (1-eta Y)
        return GroupWord(self.pair, self.algebra, toks)

    def __repr__(self):
        return " . ".join(repr(t) for t in self.tokens) or "1"


class NormalForm:
    """etas plus the even factor; LEFT orientation (odd product, then even).

    A form also carries Ad(g_plus) and g_plus^-1, grids of term dicts read
    only, each filled when first read (``ad``, ``g_inv``); ``==`` and
    ``repr`` ignore them.  A form made outside the group law fills both from
    one cold computation, the pair's Ad memo entry of g_plus.  A product or
    inverse made by the law composes its Ad when first read (``gp_mul``,
    ``gp_inv``) and inverts its own g_plus at most once."""

    __slots__ = ("pair", "algebra", "etas", "g_plus", "_ad", "_g_inv")
    orientation = "LEFT"

    def __init__(self, pair, algebra, etas, g_plus: SuperMatrix):
        if algebra.field != pair.field:
            raise StructuralError(f"coefficient field {algebra.field} is not "
                                  f"the pair's field {pair.field}")
        if len(etas) != pair.d_minus:
            raise StructuralError("eta tuple has wrong length")
        for e in etas:
            if e.algebra is not algebra and e.algebra != algebra:
                raise StructuralError("eta over the wrong algebra")
            for m in e.terms:
                if not m.bit_count() & 1:
                    raise StructuralError("etas must be odd or zero")
        if g_plus.algebra is not algebra and g_plus.algebra != algebra:
            raise StructuralError("even factor over the wrong algebra")
        pair.even_group.require_member(g_plus, "normal form even factor")
        self.pair = pair
        self.algebra = algebra
        self.etas = tuple(etas)
        self.g_plus = g_plus
        self._ad = self._g_inv = None  # _ad: a grid, or a law result's _Pending

    @classmethod
    def identity(cls, pair, algebra):
        return cls(pair, algebra, [algebra.zero()] * pair.d_minus,
                   pair.identity_matrix(algebra))

    def __eq__(self, other):
        return (
            isinstance(other, NormalForm)
            and other.pair is self.pair
            and other.algebra == self.algebra
            and other.etas == self.etas
            and other.g_plus == self.g_plus
        )

    __hash__ = None

    def ad(self):
        """Ad(g_plus) as a grid of term dicts, read only: row i holds the odd
        coordinates of Ad(g)(Y_i) = sum_j a[i][j] Y_j."""
        ad = self._ad
        if ad is None:
            self._ad, self._g_inv = self.pair.ad_action_matrix(self.g_plus)
        elif isinstance(ad, _Pending):
            self._ad = compose_ad(self.algebra.field, ad.base(), ad.steps)
        return self._ad

    def g_inv(self):
        """g_plus^-1 as a grid of term dicts, read only: with Ad from the
        memo entry of a form made outside the law, else by one inversion."""
        if self._g_inv is None:
            if self._ad is None:
                self.ad()
            else:
                self._g_inv = grid_inv(self.algebra.field, self.pair.shape[0],
                                       self.algebra.rank, self.g_plus.grid)
        return self._g_inv

    @property
    def tokens(self):
        """The factors (1 + eta_i Y_i) with eta_i != 0, then g_plus unless it
        is 1 (a ``FormTok``, which hands on the Ad the form carries): the
        tokens of the word this normal form spells; g_plus = 1 is tested
        entry by entry, with no grid built."""
        toks = [OddTok(i, e) for i, e in enumerate(self.etas) if e.terms]
        one = {0: self.algebra.field.from_int(1)}
        if any(x != one if i == j else x
               for i, row in enumerate(self.g_plus.grid) for j, x in enumerate(row)):
            toks.append(FormTok(self))
        return tuple(toks)

    def to_word(self) -> GroupWord:
        return GroupWord(self.pair, self.algebra, self.tokens)

    def rho_matrix(self) -> SuperMatrix:
        """(1 + eta_1 Y_1)...(1 + eta_d Y_d) . g_plus (``factor_product``)."""
        return factor_product(self.pair, self.algebra, [
            OddTok(i, e) for i, e in enumerate(self.etas) if not e.is_zero()], self.g_plus)

    def __repr__(self):
        return f"NormalForm(etas={list(self.etas)!r}, g_plus={self.g_plus!r})"


# ---------------------------------------------------------------------------
# route 1: module extraction


def normal_form(word: GroupWord) -> NormalForm:
    """Canonical factorization via the exterior module.

    (1) act on the vacuum; (2) read each eta off the single-index
    coefficient (semi-faithfulness; the even factor fixes the vacuum); (3)
    divide out the odd product in the representation, with no inversion:
    (1 + eta Y)^-1 = (1 - eta Y) since eta^2 = 0, so
    g+ = (1 - eta_d Y_d)...(1 - eta_1 Y_1) . rho(word);
    (4) NormalForm checks that the quotient is an even-group point
    (MembershipViolation for an invalid pair or an Ad-unstable group).
    """
    pair, algebra = word.pair, word.algebra
    v = word_action(word, {0: algebra.one()}, pair.lie.odd_action, trivial_action)
    zero = algebra.zero()
    etas = [v.get(1 << i, zero) for i in range(pair.d_minus)]
    g_plus = factor_grid(pair, algebra.field, _division(etas) + list(word.tokens))
    return NormalForm(pair, algebra, etas, wrap_grid(pair.shape, algebra, g_plus))


def _division(etas):
    """The factors (1 - eta_d Y_d) ... (1 - eta_1 Y_1), whose product divides
    (1 + eta_1 Y_1) ... (1 + eta_d Y_d) out on the left."""
    return [OddTok(i, -etas[i]) for i in reversed(range(len(etas))) if not etas[i].is_zero()]


# ---------------------------------------------------------------------------
# route 2: symbolic rewriting


def _conjugate_odds(field, odds, ad_matrix):
    """Each odd factor (i, eta) of the list expanded through Ad (a grid of
    term dicts, row i the image of Y_i), on term dicts: the factors
    (j, eta a[i][j]) of (1 + eta Ad(Y_i)), which commute (all coefficients
    share the odd factor eta)."""
    return [(j, coeff) for i, eta in odds for j, a in enumerate(ad_matrix[i])
            if a and (coeff := mac(field, {}, eta, a))]


def slide_odds(lie, z, c, odds):
    """The odd factors (k, eta) carried right past 1 + c.rho(Z), for
    Z = sum_a z_a X_a and an even c with c^2 = 0, on term dicts, by the
    bracket table (slide relation, tang-group identity (f)):
    Ad(1 + cZ)(Y_k) = Y_k + c[Z, Y_k], so (k, eta) expands into the factors
    (j, eta (delta_jk + c sum_a z_a eo[a][k][j])); each row [Z, Y_k], the
    rows eo[a][k] summed, is computed once per call, and only for a factor
    with eta.c != 0.  A factor with eta.c = 0 passes through as it is, its
    own dict: odd lists share their dicts and never write into them."""
    field = lie.field
    rows = {}
    out = []
    for k, eta in odds:
        ec = mac(field, {}, eta, c)
        if not ec:
            out.append((k, eta))
            continue
        if (row := rows.get(k)) is None:
            row = rows[k] = _vcomb(field, lie.d_minus,
                                   ((za, lie.eo[a][k]) for a, za in enumerate(z) if za))
        for j, v in enumerate(row):
            coeff = dict(eta) if j == k else {}
            if v:
                add_into(field, coeff, v, ec)
            if coeff:
                out.append((j, coeff))
    return out


def reorder_symbolic(word: GroupWord, stats=None) -> NormalForm:
    """Independent rewriting route to the same normal form.

    The engine keeps the invariant  word = (odd token list) . E  and fixes
    the leftmost violation at each step: even tokens are pushed right
    through Ad, which a token reads only when odd factors stand to its
    right (a trailing even token reads none), adjacent out-of-order odd
    pairs are swapped by the commutation relation, repeated indices merged
    by the square relation;
    the even correction factors 1 + c.Z these emit (c^2 = 0) are pushed
    right immediately, sliding through the tail by the bracket table
    (Ad(1 + cZ)(Y) = Y + c[Z, Y]) with no inversion or odd solve.  A
    rewrite at position s changes only the factors from s on and steps
    back one place, so a single sweep leaves the list sorted.  Every
    coefficient these pushes create gains ideal-degree, so the sweep ends;
    the rewrite budget trips only on a sign bug.  The odd list and E are
    term dicts, wrapped once at the end.  stats["passes"] is always 1;
    stats["rewrites"] counts the steps of the sweep; a list in stats["trace"]
    receives one (format string, args) pair per rewrite, values as elements.
    """
    pair, algebra = word.pair, word.algebra
    field, p, lie = algebra.field, pair.shape[0], pair.lie
    one = field.from_int(1)
    rewrites = 0
    trace = stats.get("trace") if stats is not None else None

    def note(msg, *args):
        # kept unformatted: repr of a value past MAX_LITERAL_DIGITS raises, and
        # the caller decides how that is reported
        if trace is not None:
            trace.append((msg, args))

    # consume the word right-to-left into (odds, E), E the even tokens' product
    odds: list = []
    e_acc = factor_grid(pair, field, [t for t in word.tokens if t.kind == "even"])
    for t in reversed(word.tokens):
        if t.kind == "odd":
            odds.insert(0, (t.index, t.eta.terms))
        else:
            if odds:
                odds = _conjugate_odds(field, odds, t.ad(pair))
            note("pushed even token right through {} odd factor(s) [conjugation relation]", len(odds))

    def emit_right(z, c, position):
        """Push the even correction 1 + c.rho(Z) from `position` through the
        tail into E (``slide_odds``); E gains c.z_a rho(X_a).E in place for
        one basis element X_a at a time, over the nonzeros of rho(X_a)
        (``ck_grid``): exact, since c^2 = 0 makes 1 + c.rho(Z) the product
        of the factors 1 + c.z_a rho(X_a)."""
        odds[position:] = slide_odds(lie, z, c, odds[position:])
        for za, nz in zip(z, lie.rho_even_nz):
            if za:
                ck_grid(field, p, {m: field.mul(x, za) for m, x in c.items()}, nz, e_acc)

    # one sweep: odds[:s + 1] stays strictly ascending, since a rewrite at s
    # changes only odds[s:] and steps back, so the sweep ends sorted
    s = 0
    while s + 1 < len(odds):
        rewrites += 1
        if rewrites > _REWRITE_BUDGET:
            raise NonTermination("rewrite budget exhausted: sign bug suspected")
        (i, eta), (j, eta2) = odds[s], odds[s + 1]
        if i < j:
            s += 1
            continue
        c = mac(field, {}, eta2, eta)
        shown = GrassmannElement(algebra, c) if trace is not None else None
        if i == j:
            # (1+eta Y)(1+eta2 Y) = (1 + eta2 eta Y^<2>)(1 + (eta+eta2) Y)
            merged = add_into(field, dict(eta), one, eta2)
            odds[s:s + 2] = [(i, merged)] if merged else []
            note("merged repeated Y{} factors [square relation]", i + 1)
            if c:
                emit_right(lie.q2[i], c, s)
                note("emitted square correction (1 + {!r}.Y{}^<2>), pushed right [slide relation]",
                     shown, i + 1)
        else:
            # (1+eta Y_i)(1+eta2 Y_j) =
            #   (1 + eta2 eta [Y_i,Y_j])(1+eta2 Y_j)(1+eta Y_i),   i > j
            odds[s], odds[s + 1] = odds[s + 1], odds[s]
            note("swapped Y{} past Y{} [swap relation]", i + 1, j + 1)
            if c:
                emit_right(lie.oo[i][j], c, s)
                note("emitted bracket correction (1 + {!r}.[Y{},Y{}]), pushed right [slide relation]",
                     shown, i + 1, j + 1)
        s = max(0, s - 1)

    if stats is not None:
        stats["passes"] = 1
        stats["rewrites"] = rewrites
    etas = [algebra.zero()] * pair.d_minus
    for (i, eta) in odds:
        if not etas[i].is_zero():
            raise InvariantBreach("sorted word still has a repeated index")
        etas[i] = GrassmannElement(algebra, eta)
    return NormalForm(pair, algebra, etas, wrap_grid(pair.shape, algebra, e_acc))


# ---------------------------------------------------------------------------
# route 3: matrix stripping


def strip_matrix_factorization(pair, m: SuperMatrix) -> NormalForm:
    """Factor a representing matrix directly, by iterated refinement.

    Requires each round's odd discrepancy to lie in the pair's odd span,
    which holds when m represents a point of the reconstructed group;
    SpanViolation otherwise.  Each round divides out the guessed odd
    product, factor by factor with (1 + eta Y)^-1 = (1 - eta Y), as
    normal_form does; the leftover odd part has strictly higher
    ideal-degree, so the loop closes within the nilpotency bound.
    """
    algebra = m.algebra
    field, p = algebra.field, pair.shape[0]
    one = field.from_int(1)
    etas = [algebra.zero()] * pair.d_minus
    for _ in range(algebra.nilpotency_bound + 2):
        diag, off = block_split(p, factor_grid(pair, field, _division(etas),
                                               copy_grid(m.grid)))
        if not any(x for row in off for x in row):
            nf = NormalForm(pair, algebra, etas, wrap_grid(pair.shape, algebra, diag))
            odds = [OddTok(i, e) for i, e in enumerate(etas) if not e.is_zero()]
            if factor_grid(pair, field, odds, copy_grid(diag)) != m.grid:
                raise InvariantBreach("stripping reassembly failed")
            return nf
        delta = grid_mul(field, p, off, grid_inv(field, p, algebra.rank, diag))
        coords = pair.lie.odd_solver([x for row in delta for x in row], terms=True)
        if coords is None:
            raise SpanViolation("odd discrepancy left the pair's odd span")
        etas = [GrassmannElement(algebra, add_into(field, x, one, e.terms)) if x else e
                for e, x in zip(etas, coords)]
    raise NonTermination("matrix stripping did not close within the bound")


# ---------------------------------------------------------------------------
# group structure on normal forms: the compiled odd-times-odd law

MAX_LAW_D_MINUS = 15


def law_words(pair):
    """The generic-point words of the pair's group law, one per j < d:
    (1 + x1 Y_1)...(1 + x_d Y_d)(1 + x_{d+1} Y_j) over Lambda_{d+1}(k).
    StructuralError when d = d_minus exceeds MAX_LAW_D_MINUS (the rank of
    Lambda_{d+1} is capped at 16)."""
    d = pair.d_minus
    if d > MAX_LAW_D_MINUS:
        raise StructuralError(
            f"the group law is compiled over Lambda_(d_minus + 1): "
            f"d_minus = {d} exceeds {MAX_LAW_D_MINUS}")
    B = GrassmannAlgebra(pair.field, d + 1)
    head = [OddTok(i, B.generator(i + 1)) for i in range(d)]
    return [GroupWord(pair, B, head + [OddTok(j, B.generator(d + 1))]) for j in range(d)]


def _tail(terms, top):
    """The x_{d+1} part of a term dict over Lambda_{d+1}, top the bit of
    x_{d+1}: terms = (x_{d+1}-free part) + sum raw x^mask x_{d+1}, and the
    tail is the term dict mask -> raw."""
    return {m ^ top: c for m, c in terms.items() if m & top}


class GroupLaw:
    """P(xi) . (1 + sum_j r_j Y_j) = P(sigma) . c as polynomials in the etas
    xi over the pair's field (P(xi) = prod^< (1 + xi_i Y_i)).

    Exact for any odd r_j with r_j r_k = 0 (a run: r_j = zeta w_j with one odd
    zeta and even w_j): the universal law over Lambda_{2d} then keeps only
    its terms linear in the second block, and its x_{d+j} part is the law of
    ``law_words(pair)[j]``.  So sigma_i = xi_i + sum_j S_ji(xi) r_j and
    c = 1 + sum_a u_a rho(X_a) with u_a = sum_j z_ja(xi) r_j.  The law keeps
    sigma and z; z is the x_{d+1}-tail of each law word's even factor,
    solved in span rho(g_0) at compile by one exact solve per word (a
    nonzero residual would be an internal breach, InvariantBreach).  Each
    distinct polynomial, as (mask, raw) pairs over x_1..x_d, is kept once
    in the list ``polys`` (5 behind 12 uses on gl(2|1), 9 behind 15 on
    q(2)), and sigma[j] and z[j] hold (target, index): a step evaluates
    each polynomial once, into a list slot.  Any two u's multiply to 0, so
    Ad(c) = 1 + sum_a u_a ad(X_a) on g_1 is read off the bracket table
    (tang-group identities (a) and (f)): the law inverts nothing.
    """

    def __init__(self, pair):
        self.lie = pair.lie
        top = 1 << pair.d_minus
        solve = k_solve_matrix(pair.field, [_flat(m) for m in pair.lie.rho_even])
        self.sigma, self.z, index = [], [], {}  # index: polynomial -> its place in polys
        for word in law_words(pair):
            nf = normal_form(word)
            z = solve([_tail(x, top) for row in nf.g_plus.grid for x in row], terms=True)
            if z is None:
                raise InvariantBreach("a law word's even correction left span rho(g_0)")
            self.sigma.append([(i, index.setdefault(tuple(t.items()), len(index)))
                               for i, e in enumerate(nf.etas) if (t := _tail(e.terms, top))])
            self.z.append([(a, index.setdefault(tuple(t.items()), len(index)))
                           for a, t in enumerate(z) if t])
        self.polys = list(index)

    def _step(self, field, xi, r):
        """sigma and u (c = 1 + sum_a u_a rho(X_a)) at (xi, r), on term
        dicts: each sum accumulates in place by ``mac``."""
        mono = {0: {0: field.from_int(1)}}
        polys = self.polys
        values = [None] * len(polys)

        def monomial(m):
            x = mono.get(m)
            if x is None:
                low = m & -m
                x = mono[m] = mac(field, {}, xi[low.bit_length() - 1], monomial(m ^ low))
            return x

        def at(k):  # the caller multiplies by r_j: x^mask x_{d+1} -> xi^mask r_j
            v = values[k]
            if v is None:
                v = values[k] = {}
                for m, raw in polys[k]:
                    add_into(field, v, raw, monomial(m))
            return v

        sigma = [dict(x) for x in xi]
        u = [{} for _ in range(self.lie.d_plus)]
        for j, rj in enumerate(r):
            if not rj:
                continue
            for i, k in self.sigma[j]:
                mac(field, sigma[i], at(k), rj)
            for a, k in self.z[j]:
                mac(field, u[a], at(k), rj)
        return sigma, u

    def fold(self, algebra, xi, runs, grid):
        """P(xi) . R_1 ... R_m . G = P(sigma) . c_m ... c_1 G for runs
        R = 1 + zeta sum_j w_j Y_j given as (zeta, w) on term dicts: each run
        folds into the odd product and leaves c = 1 + sum_a u_a rho(X_a).
        c applies to the grid G in place one basis element at a time, G <-
        G + u_a rho(X_a) G over the nonzeros of rho(X_a) (``ck_grid``), and
        Ad(c) = 1 + D, D[i][l] = sum_a eo[a][i][l] u_a in the bracket
        table's layout, carries the later runs past c: their rows w, a grid
        W, become W + W.D (``grid_mul``).  Both are exact, and c - 1 and D
        square to zero, because u_a u_b = 0: each u_a is a sum of terms that
        each carry one r_j of the run, and r_j r_k = 0 in a run.  The caller
        owns G; xi (elements) and the runs are only read.  Returns sigma (xi
        itself when no run moved anything) and the steps' D in order, from
        which ``compose_ad`` forms Ad(c_m ... c_1)."""
        lie = self.lie
        if algebra.field != lie.field:
            raise StructuralError("coefficient field differs from the pair's field")
        field, p, d = algebra.field, lie.shape[0], lie.d_minus
        sigma, steps = [x.terms for x in xi], []
        runs = list(runs)
        ws = [w for _, w in runs]  # the rows w, carried past each c so far
        for k, (zeta, _) in enumerate(runs):
            r = [mac(field, {}, zeta, a) if a else {} for a in ws[k]]
            if not any(r):
                continue
            sigma, u = self._step(field, sigma, r)
            ad = [[{} for _ in xi] for _ in xi]
            for ua, nz, eo in zip(u, lie.rho_even_nz, lie.eo):
                if ua:
                    ck_grid(field, p, ua, nz, grid)
                    for i, row in enumerate(eo):
                        for l, v in enumerate(row):
                            if v:
                                add_into(field, ad[i][l], v, ua)
            steps.append(ad)
            ws[k + 1:] = grid_mul(field, d, ws[k + 1:], ad, copy_grid(ws[k + 1:]))
        return ([GrassmannElement(algebra, x) for x in sigma] if steps else xi), steps


def compose_ad(field, base, steps):
    """base . (1 + D_1) ... (1 + D_m) for the steps D of ``GroupLaw.fold``:
    Ad(c_m ... c_1) Ad(g) for base = Ad(g), read only, each step A + A.D
    into a copy of A (``grid_mul``; Ad entries are even, so nothing twists)."""
    for d in steps:
        base = grid_mul(field, len(base), base, d, copy_grid(base))
    return base


def group_law(pair) -> GroupLaw:
    """The pair's compiled law, built on first use and kept on the pair."""
    if pair.group_law is None:
        pair.group_law = GroupLaw(pair)
    return pair.group_law


_PENDING_DEPTH = 8


class _Pending:
    """The Ad of a law result before its first read: ``compose_ad`` of
    base() (a new grid) and the fold steps.  depth is the length of the
    longest chain of pending forms it reads, itself included."""

    __slots__ = ("base", "steps", "depth")

    def __init__(self, base, steps, depth):
        self.base, self.steps, self.depth = base, steps, depth


def _held(nf):
    """The depth of nf's pending Ad, 0 once composed or for a form made
    outside the law; at _PENDING_DEPTH it is composed now, so that a law
    result holds a bounded chain of pending forms."""
    ad = nf._ad
    if not isinstance(ad, _Pending):
        return 0
    if ad.depth < _PENDING_DEPTH:
        return ad.depth
    nf.ad()
    return 0


def gp_mul(nf1: NormalForm, nf2: NormalForm) -> NormalForm:
    """(P(xi) g)(P(zeta) h) = P(xi) . prod_i (1 + zeta_i Ad(g)Y_i) . g h: the
    runs, read off the Ad that nf1 carries, fold into P(xi) through the
    pair's law, and each fold step's even correction c applies in place to
    the grid of g h, wrapped once as the even factor.  Ad is a group
    homomorphism, so the result's Ad is Ad(c_m)...Ad(c_1) Ad(g) Ad(h),
    composed from the factors' carried Ad and the steps' Ad(c) when first
    read (``compose_ad``; as rows, Ad(g) Ad(h) is the grid Ad(h) . Ad(g)):
    no inversion and no odd solve."""
    if nf1.pair is not nf2.pair or nf1.algebra != nf2.algebra:
        raise StructuralError("normal forms over different groups")
    pair, algebra = nf1.pair, nf1.algebra
    field = algebra.field
    runs = [(z.terms, nf1.ad()[i]) for i, z in enumerate(nf2.etas) if z.terms]
    grid = grid_mul(field, pair.shape[0], nf1.g_plus.grid, nf2.g_plus.grid)
    etas, steps = group_law(pair).fold(algebra, nf1.etas, runs, grid)
    out = NormalForm(pair, algebra, etas, wrap_grid(pair.shape, algebra, grid))
    depth = 1 + max(_held(nf1), _held(nf2))
    out._ad = _Pending(lambda: grid_mul(field, pair.d_minus, nf2.ad(), nf1.ad()), steps, depth)
    return out


def gp_inv(nf: NormalForm) -> NormalForm:
    """(P(xi) g)^-1 = (1 - xi_d Ad(g^-1)Y_d)...(1 - xi_1 Ad(g^-1)Y_1) . g^-1:
    g^-1 is the one nf carries (``NormalForm.g_inv``: at most one inversion
    per form), Ad(g^-1)Y_i is read off g^-1 rho(Y_i) g for the i with
    xi_i != 0 only, and the descending runs fold through the pair's law
    from P(0) into a copy of g^-1.  The result's Ad, Ad(c_m)...Ad(c_1)
    Ad(g^-1), is composed when first read, every row of Ad(g^-1) read off
    the same conjugates (odd solves, no inversion)."""
    pair, algebra = nf.pair, nf.algebra
    field = algebra.field
    ginv, g = nf.g_inv(), nf.g_plus.grid
    live = [i for i in reversed(range(pair.d_minus)) if nf.etas[i].terms]
    runs = [({m: field.neg(x) for m, x in nf.etas[i].terms.items()}, col)
            for i, col in zip(live, pair.conj_grid(ginv, g, live))]
    grid = copy_grid(ginv)
    etas, steps = group_law(pair).fold(algebra, [algebra.zero()] * pair.d_minus, runs, grid)
    out = NormalForm(pair, algebra, etas, wrap_grid(pair.shape, algebra, grid))
    out._ad = _Pending(lambda: pair.conj_grid(ginv, g), steps, 1)
    return out


def gp_commutator(nf1: NormalForm, nf2: NormalForm) -> NormalForm:
    return gp_mul(gp_mul(nf1, nf2), gp_mul(gp_inv(nf1), gp_inv(nf2)))


# ---------------------------------------------------------------------------
# morphisms (the functor on arrows)


class PairMorphism:
    """(Omega_+, omega): a group map on even points plus a basis map on g.

    omega_even[b][a]: omega(X_a) = sum_b c X_b';   omega_odd[j][i] likewise.
    Omega_plus is a callable on even-group matrices, natural in the
    coefficient algebra.
    """

    def __init__(self, source, target, omega_even, omega_odd, omega_plus):
        self.source = source
        self.target = target
        self.omega_even = omega_even
        self.omega_odd = omega_odd
        self.omega_plus = omega_plus

    def check(self, samples=16, seed=0) -> CheckReport:
        """Sampled morphism conditions over Lambda_3: Lie map, differential,
        equivariance.  Each sampled g and its image are inverted once."""
        rep = CheckReport()
        src, tgt = self.source, self.target
        f = src.field
        A = GrassmannAlgebra(f, 3)
        rng = random.Random(seed)
        we, wo = self.omega_even, self.omega_odd

        def omega(table, coords):
            """omega on a coordinate vector; table[b][a] is coordinate b of
            the image of basis vector a."""
            return _vcomb(f, len(table), zip(coords, zip(*table)))

        xs = [_unit(f, src.d_plus, a) for a in range(src.d_plus)]
        ys = [_unit(f, src.d_minus, i) for i in range(src.d_minus)]

        def image(element):
            """omega of the basis element (parity, index), as (parity, vector)."""
            p, k = element
            return p, omega((we, wo)[p], (xs, ys)[p][k])

        # Lie superalgebra morphism on the defining relations
        for name, x, y, _, (parity, coords), _ in src.lie.relations():
            got = (tgt.lie.two_op(image(x)[1]) if y is None
                   else _bracket(tgt.lie, image(x), image(y))[1])
            if omega((we, wo)[parity], coords) != got:
                rep.fail(f"omega{name} mismatch")

        # d(Omega_+) = omega on g_0: dual-number probes
        dual, eps = dual_numbers(A)
        for a, x in enumerate(xs):
            probe = dual_probe(src.lie.rho_even[a], src.shape, eps)
            expect = tgt.identity_matrix(dual) + \
                tgt.lie.rho_comb(0, omega(we, x), dual).scale(eps)
            if self.omega_plus(probe) != expect:
                rep.fail(f"d(Omega_+) != omega on X{a+1}")

        # equivariance on samples: rho(omega(Ad(g^-1)Y_i)) = Ad(img^-1) rho(omega(Y_i))
        images = [tgt.lie.rho_comb(1, omega(wo, y), A) for y in ys]
        for s in range(samples):
            g = src.even_group.sample(A, rng)
            img = self.omega_plus(g)
            if not tgt.even_group.member(img):
                rep.fail(f"sample {s}: Omega_+(g) not a point of {tgt.even_group.name}")
                continue
            img_inv = smat_inv(img)
            for i, coords in enumerate(src.conj_coords(smat_inv(g), g)):
                lhs = SuperMatrix.zero(tgt.shape, A)
                for c, image in zip(coords, images):
                    if not c.is_zero():
                        lhs = lhs + image.scale(c)
                if lhs != img_inv * images[i] * img:
                    rep.fail(f"sample {s}: Ad-equivariance fails on Y{i+1}")
        return rep


def psi_on_morphism(morphism: PairMorphism, nf: NormalForm) -> NormalForm:
    """Image normal form: map each factor and renormalize in the target.

    (1 + eta omega(Y_i)) expands into target one-parameter factors (they
    commute: common eta), and the even factor maps through Omega_+.
    """
    if nf.pair is not morphism.source:
        raise StructuralError("normal form is not over the morphism source")
    tgt = morphism.target
    toks = []
    for i, eta in enumerate(nf.etas):
        if eta.is_zero():
            continue
        for j in range(tgt.d_minus):
            c = morphism.omega_odd[j][i]
            if c:
                coeff = eta.scale(c)
                if not coeff.is_zero():
                    toks.append(OddTok(j, coeff))
    toks.append(EvenTok(morphism.omega_plus(nf.g_plus)))
    return normal_form(GroupWord(tgt, nf.algebra, toks))


# ---------------------------------------------------------------------------
# round trips


def roundtrip_phi_psi(pair, algebra, samples=32, seed=0) -> CheckReport:
    """Phi(Psi(P)) = P, executably: even points embed bijectively, and the
    one-parameter commutators recover the structure constants exactly."""
    rep = CheckReport()
    rng = random.Random(seed)
    from .sampling import rand_odd

    ident = pair.identity_matrix(algebra)

    # (i) even points: zero-eta normal forms biject with sampled points
    seen = []
    for s in range(samples):
        g = pair.even_group.sample(algebra, rng)
        nf = NormalForm(pair, algebra, [algebra.zero()] * pair.d_minus, g)
        back = normal_form(nf.to_word())
        if back != nf:
            rep.fail(f"even point {s} does not round-trip")
        seen.append((g, nf))
    for (g1, nf1) in seen[:8]:
        for (g2, nf2) in seen[:8]:
            if (g1 == g2) != (nf1 == nf2):
                rep.fail("even-point embedding is not injective")

    # (ii) odd-odd commutators recover the brackets (tang-group (g))
    for i in range(pair.d_minus):
        for j in range(pair.d_minus):
            eta, etap = rand_odd(algebra, rng), rand_odd(algebra, rng)
            nfi = normal_form(GroupWord(pair, algebra, [OddTok(i, eta)]))
            nfj = normal_form(GroupWord(pair, algebra, [OddTok(j, etap)]))
            comm = gp_commutator(nfi, nfj)
            expected_even = ident + pair.lie.rho_comb(
                0, pair.lie.oo[i][j], algebra).scale(etap * eta)
            expected = NormalForm(pair, algebra,
                                  [algebra.zero()] * pair.d_minus, expected_even)
            if comm != expected:
                rep.fail(f"commutator of one-parameter factors missed [Y{i+1},Y{j+1}]")
        # same-index product recovers the 2-operation (tang-group (e))
        eta, etap = rand_odd(algebra, rng), rand_odd(algebra, rng)
        w = GroupWord(pair, algebra, [OddTok(i, eta), OddTok(i, etap)])
        nf = normal_form(w)
        want_eta = eta + etap
        want_even = ident + pair.lie.rho_comb(0, pair.lie.q2[i], algebra).scale(etap * eta)
        ok = nf.g_plus == want_even and all(
            nf.etas[t] == (want_eta if t == i else algebra.zero())
            for t in range(pair.d_minus))
        if not ok:
            rep.fail(f"square relation missed Y{i+1}^<2>")

    # (iii) even-odd: dual-number probe recovers [X_a, Y_i]
    dual, eps = dual_numbers(algebra)
    for a in range(pair.d_plus):
        probe = dual_probe(pair.lie.rho_even[a], pair.shape, eps)
        for i in range(pair.d_minus):
            eta = dual.include(rand_odd(algebra, rng))
            w = GroupWord(pair, dual, [EvenTok(probe), OddTok(i, eta)])
            nf = normal_form(w)
            if nf.g_plus != probe:
                rep.fail(f"even factor drifted in dual probe (X{a+1}, Y{i+1})")
                continue
            for j in range(pair.d_minus):
                c = pair.lie.eo[a][i][j]
                want = eta if j == i else dual.zero()
                if c:
                    want = want + eps * eta.scale(c)
                if nf.etas[j] != want:
                    rep.fail(f"dual probe missed [X{a+1},Y{i+1}] at Y{j+1}")
    return rep


def roundtrip_psi_phi(pair, algebra, samples=32, seed=0) -> CheckReport:
    """Psi(Phi(GL)) = GL on points: every sampled point of the full linear
    supergroup is reached by a word (stripping factors it, and the module
    route normalizes that word back to the same factorization); the
    factorization is compatible with the global gl_split.  A stripping that
    leaves the odd span fails its sample; one that runs past its bound
    (NonTermination) or fails its reassembly is an InvariantBreach and
    propagates."""
    from .smat import gl_full, is_odd_unipotent

    rep = CheckReport()
    rng = random.Random(seed)
    full = gl_full(*pair.shape)
    for s in range(samples):
        m = full.sample(algebra, rng)
        try:
            nf = strip_matrix_factorization(pair, m)
        except SpanViolation as e:
            rep.fail(f"sample {s}: stripping failed: {e}")
            continue
        if nf.rho_matrix() != m:
            rep.fail(f"sample {s}: word does not re-evaluate to the point")
        if normal_form(nf.to_word()) != nf:
            rep.fail(f"sample {s}: the module route does not give the stripped factorization")
        ev, od = gl_split(m)
        if ev * od != m or not ev.diagonal_blocks_only() or not is_odd_unipotent(od):
            rep.fail(f"sample {s}: gl_split factorization broke")
    return rep


# ---------------------------------------------------------------------------
# induction of representations


class EvenModuleData:
    """A G+-module: dimension, matrices for even Lie basis elements, and a
    group action callable (matrix over A_0 -> module matrix over the same
    algebra, a grid of term dicts, read only).  d-compatibility (group
    action differentiates to the Lie action) is sampled by `check`."""

    def __init__(self, dim, lie_mats, group_action):
        self.dim = dim
        self.lie_mats = [tuple(tuple(r) for r in m) for m in lie_mats]
        self.group_action = group_action

    def check(self, pair, samples=8) -> CheckReport:
        """The differential on dual-number probes, and multiplicativity on
        `samples` pairs of points over Lambda_3 (seed 0)."""
        rep = CheckReport()
        A = GrassmannAlgebra(pair.field, 3)
        rng = random.Random(0)
        dual, eps = dual_numbers(A)
        for a in range(pair.d_plus):
            img = self.group_action(dual_probe(pair.lie.rho_even[a], pair.shape, eps))
            n = self.dim
            for r in range(n):
                for c in range(n):
                    want = dual.from_scalar(1 if r == c else 0) + \
                        eps.scale(self.lie_mats[a][r][c])
                    if img[r][c] != want.terms:
                        rep.fail(f"module action does not differentiate on X{a+1}")
        for s in range(samples):
            g = pair.even_group.sample(A, rng)
            h = pair.even_group.sample(A, rng)
            gh = self.group_action(g * h)
            g_, h_ = self.group_action(g), self.group_action(h)
            if gh != grid_mul(A.field, self.dim, g_, h_):  # p = dim: no row is odd, nothing twists
                rep.fail(f"sample {s}: module action is not multiplicative")
        return rep


def defining_module(pair) -> EvenModuleData:
    """The restriction of the defining representation to the even group,
    acting on V0 by the point's own grid (read only)."""

    def act(g):
        return g.grid

    return EvenModuleData(pair.shape[0] + pair.shape[1],
                          [m for m in pair.lie.rho_even], act)


class InducedModule:
    """Carrier wedge(g_1) (x) V0 with basis Ybar_S (x) e_t.

    Tokens act through the straightening kernel of liesuper (even points
    by Ad(g) there and by group_action on V0), where even elements reaching
    the inducing line act through the V0 matrices
    (x.(y (x) v) = ad(x)(y) (x) v + y (x) x.v).  Its vectors are the
    kernel's: dicts S | t << d_minus -> nonzero coefficient for
    Ybar_S (x) e_t.
    """

    def __init__(self, pair, v0: EvenModuleData):
        self.pair = pair
        self.v0 = v0
        self._kernel = StraighteningKernel(pair.lie, v0.lie_mats)

    @property
    def dim(self):
        return (1 << self.pair.d_minus) * self.v0.dim

    def odd_act(self, j, key):
        """Y_j . (Ybar_S (x) e_t) for key = S | t << d_minus; raw values."""
        return self._kernel.odd(j, key)

    # -- A-linear word action ------------------------------------------------
    def vacuum_with(self, t, algebra):
        """1 (x) e_t, keyed t << d_minus."""
        return {t << self.pair.d_minus: algebra.one()}

    def apply_word(self, word, vec):
        """word acting on the vector vec (a dict S | t << d_minus ->
        nonzero coefficient); word is a GroupWord or a NormalForm (anything
        with pair and tokens)."""
        return word_action(word, vec, self.odd_act, self.v0.group_action)

    def apply_normal_form(self, nf: NormalForm, vec):
        """Act by the normal form's own tokens: it was validated when made,
        so no GroupWord is rebuilt and no membership is checked again."""
        return self.apply_word(nf, vec)
