"""Seeded random generators for test and verification sampling.

All sampling is driven by ``random.Random`` (Mersenne Twister) seeded
explicitly, so every verification run is reproducible: identities here are
exact, and a failure only depends on which elements were visited.
"""

from __future__ import annotations

from fractions import Fraction


def rand_scalar(field, rng, nonzero=False):
    """A random raw value of field: over Q a small rational n/d, canonical
    (an int when d divides n), drawn as n in -4..4 then d from [1, 1, 2, 3]."""
    p = field.characteristic
    if p == 0:
        while True:
            raw = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            if not nonzero or raw:
                return raw if raw.denominator != 1 else raw.numerator
    while True:
        raw = rng.randrange(p)
        if not nonzero or raw:
            return raw


def rand_unit_scalar(field, rng):
    return rand_scalar(field, rng, nonzero=True)


def rand_element(algebra, rng, parity=None, max_terms=2, min_degree=0):
    """A small random element, optionally of fixed parity."""
    masks = [
        m
        for m in algebra.basis_masks()
        if (parity is None or m.bit_count() % 2 == parity) and m.bit_count() >= min_degree
    ]
    out = algebra.zero()
    if not masks:
        return out
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(masks)
        idx = [i + 1 for i in range(algebra.rank) if m >> i & 1]
        out = out + algebra.monomial(idx, rand_scalar(algebra.field, rng, nonzero=True))
    return out


def rand_odd(algebra, rng, max_terms=2):
    return rand_element(algebra, rng, parity=1, max_terms=max_terms)


def rand_even_soul(algebra, rng, max_terms=2):
    """Even element with zero body (degree >= 2 monomials only)."""
    return rand_element(algebra, rng, 0, max_terms, min_degree=2)


def rand_square_zero_even(algebra, rng):
    """Even c with c*c = 0 exactly: a scalar multiple of one soul monomial."""
    masks = [m for m in algebra.basis_masks() if m.bit_count() % 2 == 0 and m.bit_count() >= 2]
    if not masks:
        return algebra.zero()
    m = rng.choice(masks)
    idx = [i + 1 for i in range(algebra.rank) if m >> i & 1]
    return algebra.monomial(idx, rand_scalar(algebra.field, rng, nonzero=True))


def rand_even_unit(algebra, rng, max_terms=2):
    """Unit lying in A_0: nonzero body plus an even soul."""
    u = algebra.from_scalar(rand_unit_scalar(algebra.field, rng))
    return u + rand_even_soul(algebra, rng, max_terms)


def rand_k_vector(field, rng, n, nonzero=False):
    while True:
        v = [rand_scalar(field, rng) for _ in range(n)]
        if not nonzero or any(v):
            return v
