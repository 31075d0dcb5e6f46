"""Test fixtures built from the public API: pairs that must fail
validation, the trivial inducing module and a sampler of dual numbers."""

from superpoints import (GrassmannAlgebra, HarishChandraPair, LieSuperalgebraData,
                         diagonal_torus, gl_block_diag, gl_lie)
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
