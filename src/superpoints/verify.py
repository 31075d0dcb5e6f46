"""Named verification suites: executable forms of the splitting theorems.

Each suite is deterministic given its seed (sampling uses random.Random,
i.e. seeded Mersenne Twister) and returns a CheckReport.  Identities are
exact; sample counts only govern element coverage.  The CLI exposes the
suites by name; the acceptance tests call the same functions at the
acceptance sample sizes.
"""

from __future__ import annotations

import random

from .coeff import GF2, GF3, QQ, GrassmannAlgebra, SuperNumbers
from .liesuper import (CheckReport, _mac_into, lift_comb, parity_pattern_ok,
                       straighten_action, trivial_action, wedge_ad_action, word_action)
from .gp import (
    EvenTok,
    GroupWord,
    InducedModule,
    NormalForm,
    OddTok,
    PairMorphism,
    defining_module,
    gp_inv,
    gp_mul,
    law_words,
    normal_form,
    psi_on_morphism,
    reorder_symbolic,
    roundtrip_phi_psi,
    roundtrip_psi_phi,
    strip_matrix_factorization,
)
from .sampling import rand_k_vector, rand_odd, rand_square_zero_even
from .shcp import char2_pair, gl_pair, q2_pair
from .smat import (
    SuperMatrix,
    gl_2op,
    gl_block_diag,
    gl_bracket,
    gl_full,
    gl_split,
    is_invertible,
    is_odd_unipotent,
    matrix_units,
    semidirect_split,
    smat_inv,
)

_pair_cache = {}


def cached_gl_pair(p, q, field):
    key = (p, q, field.name)
    if key not in _pair_cache:
        _pair_cache[key] = gl_pair(p, q, field)
    return _pair_cache[key]


# ---------------------------------------------------------------------------
# suite: tang-group (the seven one-parameter identity families)


def suite_tang_group(seed=1, count=200, fields=(QQ, GF2, GF3)) -> CheckReport:
    """Identities (a)-(g) as exact supermatrix identities, `count` random
    instances per identity spread over the (shape, rank, field) grid, with
    shapes (1|1), (2|1), (2|2) and Grassmann ranks 3, 4."""
    rep = CheckReport()
    rng = random.Random(seed)
    grid = [(s, r, f) for f in fields for s in ((1, 1), (2, 1), (2, 2)) for r in (3, 4)]
    for ident in "abcdefg":
        for t in range(count):
            shape, rank, field = grid[t % len(grid)]
            ok = _tang_instance(ident, shape, rank, field, rng)
            if not ok:
                rep.fail(f"identity ({ident}) instance {t} over "
                         f"gl{shape}, rank {rank}, {field}")
    rep.note(f"{count} instances per identity over {len(grid)} grid cells")
    return rep


def _tang_instance(ident, shape, rank, field, rng):
    p, q = shape
    A = GrassmannAlgebra(field, rank)
    I = SuperMatrix.identity(shape, A)
    units = matrix_units(shape, field)
    evens = [rows for rows, parity in units if not parity]
    odds = [rows for rows, parity in units if parity]
    G0 = gl_block_diag(p, q)
    Gfull = gl_full(p, q)

    def rodd():
        return lift_comb(shape, A, odds, rand_k_vector(field, rng, len(odds)))

    def reven():
        return lift_comb(shape, A, evens, rand_k_vector(field, rng, len(evens)))

    eta, etap, etapp = (rand_odd(A, rng) for _ in range(3))
    Y, Yp, Ypp = rodd(), rodd(), rodd()
    X = reven()
    if ident == "a":
        c = rand_square_zero_even(A, rng)
        if not (c * c).is_zero():
            return False
        return (
            Gfull.member(I + X.scale(c))
            and (I + X.scale(c)).diagonal_blocks_only()
            and Gfull.member(I + Y.scale(eta))
            and Gfull.member(I + gl_bracket(Y, Yp).scale(eta * etap))
            and (I + gl_bracket(Y, Yp).scale(eta * etap)).diagonal_blocks_only()
        )
    if ident == "b":
        g0 = G0.sample(A, rng)
        ad = smat_inv(g0) * Y * g0
        return (I + Y.scale(eta)) * g0 == g0 * (I + ad.scale(eta))
    if ident == "c":
        lhs = (I + Yp.scale(etap)) * (I + Ypp.scale(etapp))
        rhs = (I + gl_bracket(Yp, Ypp).scale(etapp * etap)) * \
            (I + Ypp.scale(etapp)) * (I + Yp.scale(etap))
        return lhs == rhs
    if ident == "d":
        lhs = (I + Yp.scale(eta)) * (I + Ypp.scale(eta))
        return lhs == I + (Yp + Ypp).scale(eta) and \
            lhs == (I + Ypp.scale(eta)) * (I + Yp.scale(eta))
    if ident == "e":
        lhs = (I + Y.scale(etap)) * (I + Y.scale(etapp))
        rhs = (I + gl_2op(Y).scale(etapp * etap)) * (I + Y.scale(etap + etapp))
        return lhs == rhs
    if ident == "f":
        a = etap * etapp
        lhs = (I + Y.scale(eta)) * (I + X.scale(a))
        corr = I + gl_bracket(Y, X).scale(eta * a)
        rhs1 = (I + X.scale(a)) * corr * (I + Y.scale(eta))
        rhs2 = (I + X.scale(a)) * (I + Y.scale(eta)) * corr
        return lhs == rhs1 and lhs == rhs2
    if ident == "g":
        def comm(h, k):
            return h * k * smat_inv(h) * smat_inv(k)

        one_y = I + Y.scale(eta)
        one_yp = I + Yp.scale(etap)
        if comm(one_y, one_yp) != I + gl_bracket(Y, Yp).scale(etap * eta):
            return False
        c2 = comm(I + Y.scale(etap), I + Y.scale(etapp))
        return (
            c2 == I + gl_2op(Y).scale((etapp * etap).scale(2))
            and c2 == I + gl_bracket(Y, Y).scale(etapp * etap)
        )
    raise ValueError(ident)


# ---------------------------------------------------------------------------
# suite: gl-split (global strong splitting of GL(p|q))


def suite_gl_split(seed=1) -> CheckReport:
    """gl_split on 300 sampled GL(2|2) points over Lambda_3(Q)."""
    rep = CheckReport()
    rng = random.Random(seed)
    A = GrassmannAlgebra(QQ, 3)
    G = gl_full(2, 2)
    for t in range(300):
        m = G.sample(A, rng)
        ev, od = gl_split(m)
        if ev * od != m:
            rep.fail(f"sample {t}: factors do not reassemble")
        if not ev.diagonal_blocks_only() or not ev.is_even_homogeneous():
            rep.fail(f"sample {t}: even factor has off-diagonal entries")
        if not is_odd_unipotent(od):
            rep.fail(f"sample {t}: odd factor is not I + odd-block")
    return rep


# ---------------------------------------------------------------------------
# suite: semidirect (A-point splittings over special coefficient algebras)


def nf_semidirect_split(nf: NormalForm):
    """The same semidirect factorization on normal forms: reduce, lift, divide."""
    pair, A = nf.pair, nf.algebra
    body = nf.g_plus.body_lift()
    nf_bar = NormalForm(pair, A, [A.zero()] * pair.d_minus, body)
    nf_ker = gp_mul(gp_inv(nf_bar), nf)
    return nf_bar, nf_ker


def suite_semidirect(seed=1) -> CheckReport:
    """Semidirect splittings of 64 GL(1|1) points and 64 group points of the
    gl(1|1) pair, over k[eta] and over Lambda_3(Q)."""
    rep = CheckReport()
    rng = random.Random(seed)
    for A, tag in ((SuperNumbers(QQ), "k[eta]"), (GrassmannAlgebra(QQ, 3), "Lambda3")):
        # the supergroup GL(1|1) on points
        G = gl_full(1, 1)
        for t in range(64):
            g = G.sample(A, rng)
            g_bar, g_ker = semidirect_split(G, g)
            if g_bar * g_ker != g:
                rep.fail(f"{tag}: GL point {t} does not factor")
            if g_ker.body_lift() != SuperMatrix.identity((1, 1), A):
                rep.fail(f"{tag}: kernel factor {t} does not reduce to 1")
            if A.rank == 1:
                # central extension: the even factor lies in G_0(k) and the
                # kernel in G_1^(1) (entries in k + k.eta)
                if any(m for row in g_bar.grid for x in row for m in x):
                    rep.fail(f"{tag}: reduced factor {t} is not constant")
                if not g_ker.entries_in_a1n(1):
                    rep.fail(f"{tag}: kernel factor {t} leaves A_1^(1)")
        # the reconstructed group of the gl(1|1) pair
        pair = cached_gl_pair(1, 1, QQ)
        for t in range(64):
            toks = [OddTok(rng.randrange(pair.d_minus), rand_odd(A, rng)),
                    EvenTok(pair.even_group.sample(A, rng)),
                    OddTok(rng.randrange(pair.d_minus), rand_odd(A, rng))]
            nf = normal_form(GroupWord(pair, A, toks))
            nf_bar, nf_ker = nf_semidirect_split(nf)
            if gp_mul(nf_bar, nf_ker) != nf:
                rep.fail(f"{tag}: group point {t} does not factor")
            if nf_ker.g_plus.body_lift() != pair.identity_matrix(A):
                rep.fail(f"{tag}: group kernel factor {t} does not reduce to 1")
            if any(not e.is_zero() for e in nf_bar.etas):
                rep.fail(f"{tag}: reduced group factor {t} has odd content")
            if A.rank == 1:
                if any(m for row in nf_bar.g_plus.grid for x in row for m in x):
                    rep.fail(f"{tag}: reduced group factor {t} is not in G_0(k)")
    return rep


# ---------------------------------------------------------------------------
# suite: roundtrip (quasi-inverse functors on points)


def suite_roundtrip(seed=1) -> CheckReport:
    """Both round trips on the gl(1|1) pair over Lambda_3(Q): Phi.Psi on 64
    samples, Psi.Phi on 200 sampled GL(1|1) points."""
    rep = CheckReport()
    pair = cached_gl_pair(1, 1, QQ)
    A = GrassmannAlgebra(QQ, 3)
    sub = roundtrip_phi_psi(pair, A, samples=64, seed=seed)
    rep.failures += [f"phi.psi: {m}" for m in sub.failures]
    sub = roundtrip_psi_phi(pair, A, samples=200, seed=seed + 1)
    rep.failures += [f"psi.phi: {m}" for m in sub.failures]
    rep.note("psi.phi checked on 200 sampled GL(1|1) points")
    return rep


# ---------------------------------------------------------------------------
# suite: pbw (exterior module: module axioms, eta extraction)


def check_module_axioms(lie) -> CheckReport:
    """Each defining relation of g (``relations()``) holds for the actions on
    wedge(g_1): the action of [x,y] is x.y + sign.y.x and the action of
    Y^<2> is the squared action of Y.  Exhaustive on basis keys."""
    rep = CheckReport()
    keys = range(1 << lie.d_minus)
    tables = ([[lie.even_action_basis(a, m) for m in keys] for a in range(lie.d_plus)],
              [[lie.odd_action(i, m) for m in keys] for i in range(lie.d_minus)])
    for name, (px, x), right, _ in lie.broken_relations(tables, keys):
        what = (f"action(Y{x + 1})^2" if right is None
                else ("commutator", "graded commutator")[px])
        rep.fail(f"action{name} != {what}")
    return rep


def check_ad_compatibility(pair, rng) -> CheckReport:
    """g.(Y_i.m) = (Ad(g)Y_i).(g.m) on wedge(g_1) over Lambda_2 for 4 sampled
    even points g, every basis key m and every i >= min m: the even action
    intertwines each Y_i with its Ad(g)-image (for i < min m the identity
    is how wedge_ad_action acts).  The failure names the number of broken
    (sample, key, i) cases and the first one."""
    rep = CheckReport()
    lie, dm, field = pair.lie, pair.d_minus, pair.field
    algebra = GrassmannAlgebra(field, 2)
    one = {0: field.from_int(1)}
    act, trivial = lie.odd_action, [[one]]
    bad = []
    for s in range(4):
        ad, _ = pair.ad_action_matrix(pair.even_group.sample(algebra, rng), shared=True)
        for m in range(1, 1 << dm):
            vm = {m: one}
            gm = wedge_ad_action(field, act, ad, trivial, vm)
            for i in range((m & -m).bit_length() - 1, dm):
                lhs = wedge_ad_action(field, act, ad, trivial, straighten_action(field, act, i, vm))
                rhs = {}
                for j in range(dm):
                    for k2, x in straighten_action(field, act, j, gm).items():
                        _mac_into(field, rhs, k2, ad[j][i], x)
                if lhs != rhs:
                    bad.append(f"sample {s}, key {m}, Y{i + 1}")
    if bad:
        rep.fail(f"g.(Y_i.m) != (Ad(g)Y_i).(g.m) on {len(bad)} cases, first {bad[0]}")
    return rep


def suite_pbw(seed=1, count=100, fields=(QQ,)) -> CheckReport:
    """Module axioms and Ad compatibility on gl(1|1), gl(2|1), q(2) and,
    in characteristic 2, the char-2 fixture; eta extraction on `count`
    random tuples of gl(1|1) over Lambda_4.  q(2) is the only pair here on
    which an even point does not act on a key as the exterior product of
    the Ad(g)Y_i, so it is the one that sees that expansion fail."""
    rep = CheckReport()
    rng = random.Random(seed)
    for field in fields:
        pairs = [cached_gl_pair(1, 1, field), cached_gl_pair(2, 1, field), q2_pair(field)]
        if field.characteristic == 2:
            pairs.append(char2_pair(field))
        for pair in pairs:
            sub = check_module_axioms(pair.lie)
            sub.failures += check_ad_compatibility(pair, random.Random(seed)).failures
            rep.failures += [f"{field}: {m}" for m in sub.failures]
        # eta extraction identity on random tuples over Lambda_4:
        # (1 + eta_1 Y_1)...(1 + eta_d Y_d) acting on the vacuum
        pair = pairs[0]
        A = GrassmannAlgebra(field, 4)
        for t in range(count):
            etas = [rand_odd(A, rng) for _ in range(pair.d_minus)]
            word = GroupWord(pair, A, [OddTok(i, e) for i, e in enumerate(etas)])
            v = word_action(word, {0: A.one()}, pair.lie.odd_action, trivial_action)
            if any(v.get(1 << i, A.zero()) != e for i, e in enumerate(etas)):
                rep.fail(f"{field}: eta extraction failed on tuple {t}")
            if not parity_pattern_ok(v, pair.d_minus):
                rep.fail(f"{field}: image vector breaks the parity pattern")
    return rep


# ---------------------------------------------------------------------------
# oracle triangle, uniqueness, basis independence, termination


def random_word(pair, algebra, rng, max_len=12):
    toks = []
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.3:
            toks.append(EvenTok(pair.even_group.sample(algebra, rng)))
        else:
            toks.append(OddTok(rng.randrange(pair.d_minus), rand_odd(algebra, rng)))
    return GroupWord(pair, algebra, toks)


def oracle_triangle(seed=1, count=500, field=QQ, stats=None) -> CheckReport:
    """normal_form == reorder_symbolic == matrix stripping, word by word, on
    words of up to 12 tokens over Lambda_4."""
    rep = CheckReport()
    rng = random.Random(seed)
    pairs = [cached_gl_pair(1, 1, field), cached_gl_pair(2, 1, field)]
    A = GrassmannAlgebra(field, 4)
    max_passes = 0
    for t in range(count):
        pair = pairs[t % len(pairs)]
        w = random_word(pair, A, rng)
        st = {}
        try:  # a route that raises fails its word; the suite goes on
            m = w.rho_matrix()
            a = normal_form(w)
            b = reorder_symbolic(w, stats=st)
            c = strip_matrix_factorization(pair, m)
            evaluated = a.rho_matrix()
        except Exception as e:
            rep.fail(f"word {t}: {type(e).__name__}: {e}")
            continue
        max_passes = max(max_passes, st.get("passes", 0))
        if a != b:
            rep.fail(f"word {t}: module route != rewriting route")
        if a != c:
            rep.fail(f"word {t}: module route != matrix stripping")
        if evaluated != m:
            rep.fail(f"word {t}: normal form does not re-evaluate to the word")
    if max_passes > A.nilpotency_bound + 1:
        rep.fail(f"rewriting exceeded the pass bound: {max_passes}")
    if stats is not None:
        stats["max_passes"] = max_passes
        stats["bound"] = A.nilpotency_bound + 1
    rep.note(f"max rewriting passes: {max_passes} (bound {A.nilpotency_bound + 1})")
    return rep


def uniqueness_suite(seed=1, count=200, field=QQ) -> CheckReport:
    """Group axioms on normal forms over Lambda_3 plus distinguishability of
    perturbed forms on the induced (defining) module."""
    rep = CheckReport()
    rng = random.Random(seed)
    pair = cached_gl_pair(1, 1, field)
    A = GrassmannAlgebra(field, 3)
    ident = NormalForm.identity(pair, A)
    nfs = [normal_form(random_word(pair, A, rng, 5)) for _ in range(max(12, count // 16))]
    for t in range(count):
        a = nfs[rng.randrange(len(nfs))]
        b = nfs[rng.randrange(len(nfs))]
        c = nfs[rng.randrange(len(nfs))]
        if gp_mul(gp_mul(a, b), c) != gp_mul(a, gp_mul(b, c)):
            rep.fail(f"associativity fails on triple {t}")
    for t in range(count):
        nf = nfs[t % len(nfs)]
        if gp_mul(nf, gp_inv(nf)) != ident or gp_mul(gp_inv(nf), nf) != ident:
            rep.fail(f"inverse law fails on sample {t}")
    # perturbed normal forms act distinctly on the induced module
    module = InducedModule(pair, defining_module(pair))
    for t in range(min(count, 48)):
        nf = nfs[t % len(nfs)]
        which = rng.randrange(pair.d_minus + 1)
        if which < pair.d_minus:
            etas = list(nf.etas)
            etas[which] = etas[which] + A.generator(1 + (t % A.rank))
            other = NormalForm(pair, A, etas, nf.g_plus)
        else:
            two = pair.identity_matrix(A).scale(A.from_int(2))
            if not is_invertible(two):
                continue  # char 2: scaling by 2 is not a perturbation
            other = NormalForm(pair, A, nf.etas, nf.g_plus * two)
        if other == nf:
            continue
        distinct = any(
            module.apply_normal_form(nf, module.vacuum_with(t0, A))
            != module.apply_normal_form(other, module.vacuum_with(t0, A))
            for t0 in range(module.v0.dim)
        )
        if not distinct:
            rep.fail(f"perturbed normal form {t} acts identically")
    return rep


def basis_independence(seed=1, count=40) -> CheckReport:
    """The reconstructed group does not depend on the odd basis: the
    change-of-basis morphism {Y1 +- Y2} and order reversal transport
    multiplication tables exactly, over Q and F_3 (char != 2 for the +-
    combination)."""
    rep = CheckReport()
    from .liesuper import from_matrices
    from .shcp import HarishChandraPair

    for field in (QQ, GF3):
        rng = random.Random(seed)
        pair1 = cached_gl_pair(1, 1, field)
        one, zero = field.from_int(1), field.from_int(0)
        half = field.inv(field.from_int(2))
        variants = []
        # {Z1 = Y1+Y2, Z2 = Y1-Y2}: omega columns are Y_i in the Z basis
        zs = [[[zero, one], [one, zero]], [[zero, one], [field.neg(one), zero]]]
        om = [[half, half], [half, field.neg(half)]]
        variants.append((zs, om, "Y1+-Y2"))
        # order reversal {Y2, Y1}
        zs_rev = [[[zero, zero], [one, zero]], [[zero, one], [zero, zero]]]
        om_rev = [[zero, one], [one, zero]]
        variants.append((zs_rev, om_rev, "reversal"))
        for zs, om, tag in variants:
            lie2 = from_matrices(1, 1, [m for m in pair1.lie.rho_even], zs, field)
            pair2 = HarishChandraPair(gl_block_diag(1, 1), lie2)
            om_even = [[one if a == b else zero for b in range(pair1.d_plus)]
                       for a in range(pair1.d_plus)]
            mor = PairMorphism(pair1, pair2, om_even, om, lambda g: g)
            sub = mor.check(samples=8, seed=seed)
            if not sub.ok:
                rep.failures += [f"{field}/{tag}: {m}" for m in sub.failures]
                continue
            A = GrassmannAlgebra(field, 3)
            for t in range(count):
                nf_a = normal_form(random_word(pair1, A, rng, 5))
                nf_b = normal_form(random_word(pair1, A, rng, 5))
                img_prod = psi_on_morphism(mor, gp_mul(nf_a, nf_b))
                prod_img = gp_mul(psi_on_morphism(mor, nf_a), psi_on_morphism(mor, nf_b))
                if img_prod != prod_img:
                    rep.fail(f"{field}/{tag}: tables disagree on product {t}")
                if psi_on_morphism(mor, nf_a).rho_matrix() != nf_a.rho_matrix():
                    rep.fail(f"{field}/{tag}: image point moved in the representation")
    return rep


def suite_charfree(seed=1) -> CheckReport:
    """Criteria 1, 3, 4, 6 re-run over F2 and F3 (60 tang-group instances
    per identity, 60 triangle words, 48 uniqueness samples, 30 PBW tuples),
    and 60 words of the nonzero 2-operation fixture in characteristic 2."""
    rep = CheckReport()
    for field in (GF2, GF3):
        sub = suite_tang_group(seed, count=60, fields=(field,))
        rep.failures += [f"{field}: {m}" for m in sub.failures]
        sub = oracle_triangle(seed, count=60, field=field)
        rep.failures += [f"{field}: {m}" for m in sub.failures]
        sub = uniqueness_suite(seed, count=48, field=field)
        rep.failures += [f"{field}: {m}" for m in sub.failures]
        sub = suite_pbw(seed, count=30, fields=(field,))
        rep.failures += [f"{field}: {m}" for m in sub.failures]
    # the char-2 fixture with Y^<2> = X1+X2 runs through both normal-form routes
    rng = random.Random(seed)
    pair = char2_pair(GF2)
    A = GrassmannAlgebra(GF2, 4)
    for t in range(60):
        w = random_word(pair, A, rng, 8)
        if normal_form(w) != reorder_symbolic(w):
            rep.fail(f"char2 fixture: routes disagree on word {t}")
    rep.note("char-2 fixture with nonzero 2-operation included")
    return rep


def suite_generic_point(seed=1) -> CheckReport:
    """Module route == rewriting route on every word the group law is
    compiled from (``gp.law_words``), for gl(1|1) and gl(2|1) over Q, F2 and
    F3 and the char-2 fixture.  These words have only odd tokens, so neither
    route asks for an Ad matrix; by functoriality the agreement covers the
    odd-times-odd law over every coefficient algebra of that field.  The
    seed is unused: the generic point is one fixed input."""
    rep = CheckReport()
    pairs = [(f"gl({p}|{q})/{f}", cached_gl_pair(p, q, f))
             for f in (QQ, GF2, GF3) for (p, q) in ((1, 1), (2, 1))]
    pairs.append(("char2/F2", char2_pair(GF2)))
    for tag, pair in pairs:
        for j, w in enumerate(law_words(pair)):
            if normal_form(w) != reorder_symbolic(w):
                rep.fail(f"{tag}: routes disagree on the law word of Y{j + 1}")
    rep.note(f"{len(pairs)} pairs checked at the generic point")
    return rep


SUITES = {
    "tang-group": suite_tang_group,
    "gl-split": suite_gl_split,
    "semidirect": suite_semidirect,
    "roundtrip": suite_roundtrip,
    "pbw": suite_pbw,
    "charfree": suite_charfree,
    "generic-point": suite_generic_point,
}
