"""Words in the generators of the reconstructed supergroup, their canonical
normal forms, and the group structure on normal forms.

A word is a product of even points g+ (matrices over A_0) and odd
one-parameter factors (1 + eta.Y_i).  The canonical (LEFT) normal form is

    g  =  (prod_i^< (1 + eta_i Y_i)) . g+

with the product over the fixed odd-basis order.  ``factor_product`` is the
one evaluator of such products in the representation, from the right end
on; words, normal forms and the dividing-out step below all call it.  The
even factor a route computes is checked once, by ``NormalForm``, through
the even group's ``member``.  Two independent routes compute the form:

* ``normal_form`` -- module extraction: act by ``word_action`` on the
  vacuum ``{0: 1}`` of the exterior module ``wedge(g_1)``; the coefficients
  at the single-index masks ``1 << i`` of the image *are* the etas
  (semi-faithfulness), and the even factor is recovered by dividing out the
  odd product in the representation, factor by factor with
  (1 + eta Y)^-1 = (1 - eta Y); even tokens act by ``wedge_ad_action``.
* ``reorder_symbolic`` -- a rewriting engine using only the one-parameter
  relations: push even tokens right through Ad, remove inversions and
  repeats by the swap/merge relations, slide the even corrections right by
  the bracket table.
  One sweep that steps back after each rewrite leaves the odd factors
  sorted.  It ends because the ideal generated by the word's odd
  coefficients is nilpotent; the rewrite budget trips only on a sign bug.

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
(``law_words``, one word per j).  The law keeps sigma, c and Ad(c) (by
``ad_action_matrix``) as polynomials in x_1..x_d; every coefficient algebra
over k gets them by substituting x -> (xi, r_j).  ``gp_mul`` conjugates
P(zeta) past g, g P(zeta) g^-1 = prod_i (1 + zeta_i Ad(g)Y_i), and folds these
runs into P(xi) one at a time; each fold leaves an even correction c, the
later runs are carried past it by Ad(c), and the even factor is c...c . g h.
``gp_inv`` folds the descending runs (1 - xi_i Ad(g^-1)Y_i) from P(0), with g
inverted once.  Lambda_{d+1} has rank at most 16, so the law, and with it
``gp_mul`` and ``gp_inv``, needs d_minus <= 15 (``MAX_LAW_D_MINUS``); a
larger pair raises StructuralError.  The ``generic-point`` suite of
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

from .coeff import GrassmannAlgebra, GrassmannElement, dual_numbers, mac
from .errors import NonTermination, SpanViolation, StructuralError
from .liesuper import (CheckReport, StraighteningKernel, _add_row, _bracket, _unit, _vcomb,
                       trivial_action, word_action)
from .smat import SuperMatrix, ck_product, dual_probe, gl_split, smat_inv, wrap_grid

MAX_WORD_TOKENS = 10_000
_REWRITE_BUDGET = 1_000_000


class EvenTok:
    kind = "even"
    __slots__ = ("matrix",)

    def __init__(self, matrix: SuperMatrix):
        self.matrix = matrix

    def __repr__(self):
        return f"Even({self.matrix!r})"


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
    evaluated from the right end on, with m = None for the identity: an even
    token g gives g . m (just g while m is still the identity), and
    (1 + eta Y_i) gives m + eta rho(Y_i) . m, a ``ck_product``."""
    nz = pair.lie.rho_odd_nz
    for t in reversed(tokens):
        if t.kind == "even":
            m = t.matrix if m is None else t.matrix * m
        else:
            if m is None:
                m = pair.identity_matrix(algebra)
            m = ck_product(None, t.eta, nz[t.index], m, m)
    return pair.identity_matrix(algebra) if m is None else m


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
    """etas plus the even factor; LEFT orientation (odd product, then even)."""

    __slots__ = ("pair", "algebra", "etas", "g_plus")
    orientation = "LEFT"

    def __init__(self, pair, algebra, etas, g_plus: SuperMatrix):
        if len(etas) != pair.d_minus:
            raise StructuralError("eta tuple has wrong length")
        for e in etas:
            if not (e.is_zero() or e.is_odd()):
                raise StructuralError("etas must be odd or zero")
        pair.even_group.require_member(g_plus, "normal form even factor")
        self.pair = pair
        self.algebra = algebra
        self.etas = tuple(etas)
        self.g_plus = g_plus

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

    @property
    def tokens(self):
        """The factors (1 + eta_i Y_i) with eta_i != 0, then g_plus unless it
        is 1: the tokens of the word this normal form spells."""
        toks = [OddTok(i, e) for i, e in enumerate(self.etas) if not e.is_zero()]
        if self.g_plus != self.pair.identity_matrix(self.algebra):
            toks.append(EvenTok(self.g_plus))
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
    return NormalForm(pair, algebra, etas, _divide_odd_product(pair, etas, word.rho_matrix()))


def _divide_odd_product(pair, etas, m):
    """(1 - eta_d Y_d)...(1 - eta_1 Y_1) . m, the odd product
    (1 + eta_1 Y_1)...(1 + eta_d Y_d) divided out of m on the left."""
    return factor_product(pair, m.algebra, [
        OddTok(i, -etas[i]) for i in reversed(range(pair.d_minus)) if not etas[i].is_zero()], m)


# ---------------------------------------------------------------------------
# route 2: symbolic rewriting


def _conjugate_odds(odds, ad_matrix):
    """Each odd factor (i, eta) of the list expanded through Ad: the factors
    (j, eta a[j][i]) of (1 + eta Ad(Y_i)), which commute (all coefficients
    share the odd factor eta)."""
    out = []
    for i, eta in odds:
        for j, row in enumerate(ad_matrix):
            if not row[i].is_zero():
                coeff = eta * row[i]
                if not coeff.is_zero():
                    out.append((j, coeff))
    return out


def slide_ad_matrix(lie, z, c):
    """Ad(1 + c.rho(Z)) for Z = sum_a z_a X_a and an even c with c^2 = 0,
    read off the bracket table (slide relation, tang-group identity (f)):
    Ad(1 + cZ)(Y_k) = Y_k + c[Z, Y_k], so a[j][k] = delta_jk + c sum_a z_a eo[a][k][j]."""
    dm, algebra = lie.d_minus, c.algebra
    cols = [lie.bracket_eo(z, _unit(lie.field, dm, k)) for k in range(dm)]
    return [[(algebra.one() if j == k else algebra.zero()) + c.scale(cols[k][j])
             for k in range(dm)] for j in range(dm)]


def reorder_symbolic(word: GroupWord, stats=None) -> NormalForm:
    """Independent rewriting route to the same normal form.

    The engine keeps the invariant  word = (odd token list) . E  and fixes
    the leftmost violation at each step: even tokens are pushed right
    through Ad, adjacent out-of-order odd pairs are swapped by the
    commutation relation, repeated indices merged by the square relation;
    the even correction factors 1 + c.Z these emit (c^2 = 0) are pushed
    right immediately, sliding through the tail by the bracket table
    (Ad(1 + cZ)(Y) = Y + c[Z, Y]) with no inversion or odd solve.  A
    rewrite at position s changes only the factors from s on and steps
    back one place, so a single sweep leaves the list sorted.  Every
    coefficient these pushes create gains ideal-degree, so the sweep ends;
    the rewrite budget trips only on a sign bug.  stats["passes"] is
    always 1; stats["rewrites"] counts the steps of the sweep; a list in
    stats["trace"] receives one (format string, args) pair per rewrite.
    """
    pair, algebra = word.pair, word.algebra
    rewrites = 0
    trace = stats.get("trace") if stats is not None else None

    def note(msg, *args):
        # kept unformatted: repr of a value past MAX_LITERAL_DIGITS raises, and
        # the caller decides how that is reported
        if trace is not None:
            trace.append((msg, args))

    # consume the word right-to-left into (odds, E), E the even tokens' product
    odds: list = []
    e_acc = factor_product(pair, algebra, [t for t in word.tokens if t.kind == "even"])
    for t in reversed(word.tokens):
        if t.kind == "odd":
            odds.insert(0, (t.index, t.eta))
        else:
            odds = _conjugate_odds(odds, pair.ad_action_matrix(t.matrix))
            note("pushed even token right through {} odd factor(s) [conjugation relation]", len(odds))

    def emit_right(z, c, position):
        """Push the even correction 1 + c.rho(Z) from `position` through the
        tail into E; its Ad comes from the bracket table, not conjugation,
        and E gains c.rho(Z).E over the nonzeros of rho(Z) (``ck_product``)."""
        nonlocal e_acc
        odds[position:] = _conjugate_odds(odds[position:], slide_ad_matrix(pair.lie, z, c))
        e_acc = ck_product(None, c, pair.lie.rho_even_nonzeros(z), e_acc, e_acc)

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
        c = eta2 * eta
        if i == j:
            # (1+eta Y)(1+eta2 Y) = (1 + eta2 eta Y^<2>)(1 + (eta+eta2) Y)
            merged = eta + eta2
            odds[s:s + 2] = [(i, merged)] if not merged.is_zero() else []
            note("merged repeated Y{} factors [square relation]", i + 1)
            if not c.is_zero():
                emit_right(pair.lie.q2[i], c, s)
                note("emitted square correction (1 + {!r}.Y{}^<2>), pushed right [slide relation]",
                     c, i + 1)
        else:
            # (1+eta Y_i)(1+eta2 Y_j) =
            #   (1 + eta2 eta [Y_i,Y_j])(1+eta2 Y_j)(1+eta Y_i),   i > j
            odds[s], odds[s + 1] = odds[s + 1], odds[s]
            note("swapped Y{} past Y{} [swap relation]", i + 1, j + 1)
            if not c.is_zero():
                emit_right(pair.lie.oo[i][j], c, s)
                note("emitted bracket correction (1 + {!r}.[Y{},Y{}]), pushed right [slide relation]",
                     c, i + 1, j + 1)
        s = max(0, s - 1)

    if stats is not None:
        stats["passes"] = 1
        stats["rewrites"] = rewrites
    etas = [algebra.zero()] * pair.d_minus
    for (i, eta) in odds:
        if not etas[i].is_zero():
            raise NonTermination("sorted word still has a repeated index")
        etas[i] = eta
    return NormalForm(pair, algebra, etas, e_acc)


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
    p_blk = pair.shape[0]
    size = pair.shape[0] + pair.shape[1]
    etas = [algebra.zero()] * pair.d_minus
    n = algebra.nilpotency_bound
    for _ in range(n + 2):
        r = _divide_odd_product(pair, etas, m)
        rows = r.mutable()
        z = algebra.zero()
        off = [[z] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                if (a < p_blk) != (b < p_blk):
                    off[a][b] = rows[a][b]
                    rows[a][b] = z
        diag = SuperMatrix(pair.shape, algebra, rows)
        offm = SuperMatrix(pair.shape, algebra, off)
        if offm.is_zero():
            nf = NormalForm(pair, algebra, etas, r)
            if nf.rho_matrix() != m:
                raise NonTermination("stripping reassembly failed")
            return nf
        delta = offm * smat_inv(diag)
        coords = pair._odd_solver([e for row in delta.rows for e in row], algebra)
        if coords is None:
            raise SpanViolation("odd discrepancy left the pair's odd span")
        etas = [etas[i] + coords[i] for i in range(pair.d_minus)]
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


def _tails(entries, top):
    """[(key, tail)] for the (key, element) pairs whose element has terms
    with the generator bit `top` (x_{d+1}): element = (x_{d+1}-free part) +
    sum raw x^mask x_{d+1}, and tail = ((mask, raw), ...)."""
    out = []
    for key, e in entries:
        tail = tuple((m ^ top, c) for m, c in e.terms.items() if m & top)
        if tail:
            out.append((key, tail))
    return out


def _cells(rows):
    return (((a, b), e) for a, row in enumerate(rows) for b, e in enumerate(row))


class GroupLaw:
    """P(xi) . (1 + sum_j r_j Y_j) = P(sigma) . c, with Ad(c), as polynomials
    in the etas xi over the pair's field (P(xi) = prod^< (1 + xi_i Y_i)).

    Exact for any odd r_j with r_j r_k = 0 (a run: r_j = zeta w_j with one odd
    zeta and even w_j): the universal law over Lambda_{2d} then keeps only
    its terms linear in the second block, and its x_{d+j} part is the law of
    ``law_words(pair)[j]``.  So sigma_i = xi_i + sum_j S_ji(xi) r_j,
    c = 1 + sum_j C_j(xi) r_j and Ad(c) = 1 + sum_j D_j(xi) r_j, each
    polynomial stored as (mask, raw) pairs over x_1..x_d.
    """

    def __init__(self, pair):
        self.field = pair.field
        self.shape = pair.shape
        top = 1 << pair.d_minus
        self.sigma, self.c, self.ad = [], [], []
        for word in law_words(pair):
            nf = normal_form(word)
            self.sigma.append(_tails(enumerate(nf.etas), top))
            self.c.append(_tails(_cells(nf.g_plus.rows), top))
            self.ad.append(_tails(_cells(pair.ad_action_matrix(nf.g_plus)), top))

    def _step(self, algebra, xi, r, with_ad):
        """sigma, c and Ad(c) - 1 (a dict (k, l) -> entry, or None) at (xi, r),
        all on term dicts but c: each sum accumulates in place by ``mac``, and
        the cells of c are wrapped as elements once, at the end."""
        field = algebra.field
        mono = {0: {0: field.from_int(1)}}
        values = {}

        def monomial(m):
            x = mono.get(m)
            if x is None:
                low = m & -m
                x = mono[m] = mac(field, {}, xi[low.bit_length() - 1], monomial(m ^ low))
            return x

        def at(poly):  # the caller multiplies by r_j: x^mask x_{d+1} -> xi^mask r_j
            v = values.get(poly)
            if v is None:
                v = values[poly] = {}
                for m, raw in poly:
                    _add_row(field, v, raw, monomial(m))
            return v

        sigma = [dict(x) for x in xi]
        size = self.shape[0] + self.shape[1]
        rows = [[{0: field.from_int(1)} if a == b else {} for b in range(size)]
                for a in range(size)]
        ad = {} if with_ad else None
        for j, rj in enumerate(r):
            if not rj:
                continue
            for i, p in self.sigma[j]:
                mac(field, sigma[i], at(p), rj)
            for (a, b), p in self.c[j]:
                mac(field, rows[a][b], at(p), rj)
            if with_ad:
                for kl, p in self.ad[j]:
                    mac(field, ad.setdefault(kl, {}), at(p), rj)
        return sigma, wrap_grid(self.shape, algebra, rows), ad

    def fold(self, algebra, xi, runs):
        """P(xi) . R_1 ... R_m = P(sigma) . E for runs R = 1 + zeta sum_j w_j Y_j
        given as (zeta, w): each run folds into the odd product and leaves c;
        the later runs are carried past c by Ad(c), and E = c_m ... c_1.
        Returns (sigma, E), with E None when no run moved anything.  The sums
        run on term dicts (``mac``); xi and the runs are only read."""
        if algebra.field != self.field:
            raise StructuralError("coefficient field differs from the pair's field")
        field = algebra.field
        e = None
        sigma = [x.terms for x in xi]
        runs = [(zeta.terms, [a.terms for a in w]) for zeta, w in runs]
        for k, (zeta, w) in enumerate(runs):
            r = [mac(field, {}, zeta, a) for a in w]
            if not any(r):
                continue
            last = k == len(runs) - 1
            sigma, c, n = self._step(algebra, sigma, r, not last)
            e = c if e is None else c * e
            if not last and n:
                runs[k + 1:] = [(z, [_row_dot(field, n, kk, v, dict(x)) for kk, x in enumerate(v)])
                                for z, v in runs[k + 1:]]
        return (xi if e is None else [GrassmannElement(algebra, x) for x in sigma]), e


def _row_dot(field, n, k, v, acc):
    """acc += row k of the sparse matrix n applied to the vector v, on term
    dicts, in place; returns acc."""
    for l, x in enumerate(v):
        a = n.get((k, l))
        if a is not None and x:
            mac(field, acc, a, x)
    return acc


def group_law(pair) -> GroupLaw:
    """The pair's compiled law, built on first use and kept on the pair."""
    if pair.group_law is None:
        pair.group_law = GroupLaw(pair)
    return pair.group_law


def gp_mul(nf1: NormalForm, nf2: NormalForm) -> NormalForm:
    """(P(xi) g)(P(zeta) h) = P(xi) . prod_i (1 + zeta_i Ad(g)Y_i) . g h: the
    runs fold into P(xi) through the pair's law, and E g h is the even factor."""
    if nf1.pair is not nf2.pair or nf1.algebra != nf2.algebra:
        raise StructuralError("normal forms over different groups")
    pair, algebra = nf1.pair, nf1.algebra
    runs = [(i, z) for i, z in enumerate(nf2.etas) if not z.is_zero()]
    if runs:
        ad = pair.ad_action_matrix(nf1.g_plus)
        runs = [(z, [row[i] for row in ad]) for i, z in runs]
    etas, e = group_law(pair).fold(algebra, nf1.etas, runs)
    g = nf1.g_plus * nf2.g_plus
    return NormalForm(pair, algebra, etas, g if e is None else e * g)


def gp_inv(nf: NormalForm) -> NormalForm:
    """(P(xi) g)^-1 = (1 - xi_d Ad(g^-1)Y_d)...(1 - xi_1 Ad(g^-1)Y_1) . g^-1:
    g is inverted once, Ad(g^-1)Y_i is read off g^-1 rho(Y_i) g for the i
    with xi_i != 0 only, and the descending runs fold through the pair's
    law from P(0)."""
    pair, algebra = nf.pair, nf.algebra
    g, ginv = nf.g_plus, smat_inv(nf.g_plus)
    live = [i for i in reversed(range(pair.d_minus)) if not nf.etas[i].is_zero()]
    runs = [(-nf.etas[i], col) for i, col in zip(live, pair.conj_coords(ginv, g, live))]
    etas, e = group_law(pair).fold(algebra, [algebra.zero()] * pair.d_minus, runs)
    return NormalForm(pair, algebra, etas, ginv if e is None else e * ginv)


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
        for name, x, y, _, (parity, coords) in src.lie.relations():
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
    factorization is compatible with the global gl_split."""
    from .smat import gl_full, is_odd_unipotent

    rep = CheckReport()
    rng = random.Random(seed)
    full = gl_full(*pair.shape)
    for s in range(samples):
        m = full.sample(algebra, rng)
        try:
            nf = strip_matrix_factorization(pair, m)
        except (SpanViolation, NonTermination) as e:
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
    algebra).  d-compatibility (group action differentiates to the Lie
    action) is sampled by `check`."""

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
                    if img[r][c] != want:
                        rep.fail(f"module action does not differentiate on X{a+1}")
        for s in range(samples):
            g = pair.even_group.sample(A, rng)
            h = pair.even_group.sample(A, rng)
            gh = self.group_action(g * h)
            g_, h_ = self.group_action(g), self.group_action(h)
            prod = [[sum_mul(A, g_, h_, r, c, self.dim) for c in range(self.dim)]
                    for r in range(self.dim)]
            if gh != prod:
                rep.fail(f"sample {s}: module action is not multiplicative")
        return rep


def sum_mul(algebra, a, b, r, c, n):
    """sum_t a[r][t] b[t][c], accumulated into one term dict (``mac``)."""
    acc = {}
    for t in range(n):
        mac(algebra.field, acc, a[r][t].terms, b[t][c].terms)
    return GrassmannElement(algebra, acc)


def defining_module(pair) -> EvenModuleData:
    """The restriction of the defining representation to the even group."""

    def act(g):
        return [list(row) for row in g.rows]

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
