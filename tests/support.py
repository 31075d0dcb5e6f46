"""Test fixtures built from the public API: a pair that must fail
validation and the trivial inducing module."""

from superpoints import HarishChandraPair, LieSuperalgebraData, diagonal_torus
from superpoints.gp import EvenModuleData
from superpoints.liesuper import trivial_action


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
