"""Test fixtures built from the public API: pairs that must fail
validation, the trivial inducing module, a sampler of dual numbers, the
inverse and the sign twist of a Grassmann element, and the odd action on
module vectors composed from element operations."""

from superpoints import (GrassmannAlgebra, HarishChandraPair, LieSuperalgebraData,
                         NotInvertible, diagonal_torus, gl_block_diag, gl_lie)
from superpoints.coeff import GrassmannElement
from superpoints.gp import EvenModuleData
from superpoints.liesuper import trivial_action
from superpoints.sampling import rand_element


def ad_unstable_pair(field) -> HarishChandraPair:
    """Torus of GL(2|1) with the odd line spanned by E13 + E32: conjugation
    by diag(a,b,d) scales the two units differently, so the span breaks.
    Used as the validate_pair failure fixture."""
    one, zero = field.from_int(1), field.from_int(0)
    evens = []
    for i in range(3):
        rows = [[zero] * 3 for _ in range(3)]
        rows[i][i] = one
        evens.append(rows)
    odd = [[zero, zero, one], [zero, zero, zero], [zero, one, zero]]
    return HarishChandraPair(diagonal_torus(2, 1), _span_free_lie(field, evens, [odd]))


def negated_eo_pair(field) -> HarishChandraPair:
    """gl(1|1) with every [X_a, Y_i] of the table negated and rho kept: the
    tables disagree with the matrices only where a dual-number probe
    differentiates Ad, e.g. [E11, E12] = E12 is stored as -E12."""
    lie = gl_lie(1, 1, field)
    eo = [[[field.neg(v) for v in vec] for vec in row] for row in lie.eo]
    tampered = LieSuperalgebraData(field, lie.d_plus, lie.d_minus, lie.ee, eo, lie.oo,
                                   lie.q2, shape=lie.shape, rho_even=lie.rho_even,
                                   rho_odd=lie.rho_odd)
    return HarishChandraPair(gl_block_diag(1, 1), tampered)


def _span_free_lie(field, evens, odds):
    """Structure data with every bracket and square declared zero: a valid
    abelian-superalgebra structure on paper whose rho is not a homomorphism,
    so the pair's failure shows up in the pair conditions (rho checks are
    part of the failure report), not in check_axioms."""
    zero = field.from_int(0)
    dp, dm = len(evens), len(odds)
    ee = [[[zero] * dp for _ in range(dp)] for _ in range(dp)]
    eo = [[[zero] * dm for _ in range(dm)] for _ in range(dp)]
    oo = [[[zero] * dp for _ in range(dm)] for _ in range(dm)]
    q2 = [[zero] * dp for _ in range(dm)]
    return LieSuperalgebraData(field, dp, dm, ee, eo, oo, q2,
                               shape=(2, 1), rho_even=evens, rho_odd=odds)


def trivial_module(pair) -> EvenModuleData:
    """The trivial line: every even element acts by 0, every point by 1."""
    return EvenModuleData(1, [[[pair.field.from_int(0)]] for _ in range(pair.d_plus)],
                          trivial_action)


def rand_dual(eps, rng, parity=None, max_terms=2):
    """a + b eps with a and b drawn by rand_element from Lambda_r, for the
    dual numbers (B, eps) = dual_numbers(Lambda_r): an element of B that
    carries eps, drawn as a then b."""
    dual = eps.algebra
    inner = GrassmannAlgebra(dual.field, dual.rank - 2)
    a = rand_element(inner, rng, parity, max_terms)
    b = rand_element(inner, rng, parity, max_terms)
    return dual.include(a) + eps * dual.include(b)


def invert(u):
    """The inverse of a Grassmann element whose body is a unit: the
    geometric series on the soul.

    u^-1 = body^-1 * sum_{s<=N} (-body^-1 * soul)^s, exact because the
    soul lies in ker(eps_A) and (ker eps_A)^(N+1) = 0.
    """
    alg = u.algebra
    body = u.augment()
    if not body:
        raise NotInvertible("body is not a unit")
    binv = alg.from_scalar(alg.field.inv(body))
    t = binv * u.soul()  # body^-1 * soul, nilpotent
    acc = pw = alg.one()
    for _ in range(alg.nilpotency_bound):
        pw = -(pw * t)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc * binv


def twist(c):
    """even part - odd part: the sign (-1)^{|c|} from moving an odd symbol
    past c, applied term by term."""
    neg = c.algebra.field.neg
    return GrassmannElement(
        c.algebra, {m: neg(x) if m.bit_count() & 1 else x for m, x in c.terms.items()})


def straighten_reference(act, index, v, scale=None, out=None):
    """out + scale . sum twist(c) . raw over the table entries act(index,
    key) of each (key, c) in v, built from GrassmannElement sums and
    products into a new dict (scale 1 and out empty when None): the
    composition straighten_action(act, index, v, scale, out) replaces."""
    res = dict(out or {})
    for key, c in v.items():
        for k2, raw in act(index, key).items():
            term = twist(c).scale(raw)
            if scale is not None:
                term = scale * term
            res[k2] = res[k2] + term if k2 in res else term
    return {k: c for k, c in res.items() if not c.is_zero()}
