"""Coefficient algebra tests: exactness, parity, augmentation, inversion."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superpoints import (
    GF2,
    GF3,
    GF5,
    QQ,
    GrassmannAlgebra,
    NotInvertible,
    StructuralError,
    SuperNumbers,
    dual_numbers,
    gl_pair,
    normal_form,
    parse_element,
    reorder_symbolic,
    strip_matrix_factorization,
)
from superpoints.coeff import GrassmannElement, _canonical, _frac, add_into, mac
from superpoints.sampling import rand_element, rand_scalar, rand_unit_scalar
from superpoints.verify import random_word

from .oracles import a1n_masks_oracle, merge_sign_oracle
from .support import invert, rand_dual, twist as twist_of

FIELDS = [QQ, GF2, GF3, GF5]


def mask_indices(m):
    return [i + 1 for i in range(16) if m >> i & 1]


# ---------------------------------------------------------------------------
# products


def test_generator_products():
    L = GrassmannAlgebra(QQ, 2)
    x1, x2 = L.generator(1), L.generator(2)
    assert x1 * x2 == L.monomial([1, 2])
    assert x2 * x1 == L.monomial([1, 2], -1)
    assert (x1 * x1).is_zero()
    one = L.one()
    assert (one + x1 * x2) * (one - x1 * x2) == one


@pytest.mark.parametrize("field", FIELDS)
def test_product_matches_sign_oracle_exhaustive(field):
    """All monomial pairs for rank <= 4 against the transposition oracle."""
    L = GrassmannAlgebra(field, 4)
    for ma in range(16):
        for mb in range(16):
            prod = L.monomial(mask_indices(ma)) * L.monomial(mask_indices(mb))
            sign = merge_sign_oracle(mask_indices(ma), mask_indices(mb))
            if sign == 0:
                assert prod.is_zero()
            else:
                assert prod == L.monomial(mask_indices(ma | mb), sign)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("twist", [False, True])
def test_mac_matches_sign_oracle_and_twist_exhaustive(field, twist):
    """mac on every monomial pair of Lambda_4: the sign of the transposition
    oracle, times (-1)^{|y|} under twist, which is support.twist."""
    L = GrassmannAlgebra(field, 4)
    for ma in range(16):
        for mb in range(16):
            x, y = L.monomial(mask_indices(ma), 2), L.monomial(mask_indices(mb), -3)
            acc = mac(field, {}, x.terms, y.terms, twist)
            assert GrassmannElement(L, acc) == x * (twist_of(y) if twist else y)
            sign = merge_sign_oracle(mask_indices(ma), mask_indices(mb))
            if twist and mb.bit_count() % 2:
                sign = -sign
            expect = {} if sign == 0 else {ma | mb: field.from_int(-6 * sign)}
            assert acc == {m: c for m, c in expect.items() if c}


def test_mac_sign_at_the_largest_rank():
    """The parity mask spans all 16 generators: random monomial pairs of
    Lambda_16 against the transposition oracle."""
    rng = random.Random(16)
    for _ in range(300):
        ia = sorted(rng.sample(range(1, 17), rng.randint(0, 16)))
        ib = sorted(rng.sample(range(1, 17), rng.randint(0, 4)))
        sign = merge_sign_oracle(ia, ib)
        acc = mac(QQ, {}, {sum(1 << (i - 1) for i in ia): 1}, {sum(1 << (i - 1) for i in ib): 1})
        assert acc == ({} if sign == 0 else {sum(1 << (i - 1) for i in set(ia) | set(ib)): sign})


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_mac_accumulates_in_place_and_drops_zeros(field):
    """x.y + (-x).y into one dict leaves it empty, with no zero-valued key,
    and a second product adds onto what the dict holds."""
    rng = random.Random(3)
    L = GrassmannAlgebra(field, 4)
    for _ in range(50):
        x, y, z = (rand_element(L, rng, max_terms=4) for _ in range(3))
        for twist in (False, True):
            acc = {}
            mac(field, acc, x.terms, y.terms, twist)
            assert mac(field, acc, (-x).terms, y.terms, twist) is acc
            assert acc == {}
            mac(field, acc, x.terms, y.terms, twist)
            mac(field, acc, z.terms, y.terms, twist)
            assert all(acc.values())
            yt = twist_of(y) if twist else y
            assert GrassmannElement(L, acc) == x * yt + z * yt


def _reference_sum(field, acc, c, row, base):
    """acc + c.row, the row's keys or-ed with base, in Fraction arithmetic
    reduced mod p at the end, zero sums dropped: no Field method."""
    out = {k: Fraction(v) for k, v in acc.items()}
    for k, v in row.items():
        out[k | base] = out.get(k | base, 0) + Fraction(c) * Fraction(v)
    if p := field.characteristic:
        out = {k: v % p for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_add_into_matches_reference_sum(field):
    """add_into(field, acc, c, row, base) is acc + c.row with the row's keys
    offset by base, in place: it returns acc itself, drops every key whose
    sum is zero, and leaves canonical raw values (over Q an int when
    integral)."""
    rng = random.Random(29)
    L = GrassmannAlgebra(field, 4)
    cancelled = 0
    for t in range(200):
        acc = dict(rand_element(L, rng, max_terms=6).terms)
        c = rand_scalar(field, rng, nonzero=True)
        base = (0, 1 << 4, 0b1010)[t % 3]
        row = dict(rand_element(L, rng, max_terms=4).terms)
        if t % 2 and acc:
            # c.row cancels acc at some keys that base leaves unchanged
            cinv = field.inv(c)
            for k in rng.sample(sorted(acc), rng.randint(1, len(acc))):
                if k | base == k:
                    row[k] = field.neg(field.mul(cinv, acc[k]))
        want = _reference_sum(field, acc, c, row, base)
        before = dict(acc)
        got = add_into(field, acc, c, row, base)
        assert got is acc and acc == want
        assert all(v and type(v) is type(_canonical(v)) for v in acc.values())
        cancelled += bool(set(before) - set(acc))
    assert cancelled >= 20


def test_associativity_exhaustive_rank3():
    L = GrassmannAlgebra(GF3, 3)
    monos = [L.monomial(mask_indices(m)) for m in range(8)]
    for a in monos:
        for b in monos:
            for c in monos:
                assert (a * b) * c == a * (b * c)


def test_associativity_and_supercommutativity_exhaustive_rank4():
    """All monomial pairs and triples for rank 4."""
    L = GrassmannAlgebra(QQ, 4)
    monos = [L.monomial(mask_indices(m)) for m in range(16)]
    for a in monos:
        for b in monos:
            pa, pb = a.parity(), b.parity()
            rhs = b * a
            assert a * b == (-rhs if pa == 1 and pb == 1 else rhs)
            for c in monos:
                assert (a * b) * c == a * (b * c)


@st.composite
def grassmann_elements(draw, algebra):
    terms = draw(st.lists(
        st.tuples(st.integers(0, (1 << algebra.rank) - 1), st.integers(-6, 6)),
        max_size=5))
    out = algebra.zero()
    for mask, c in terms:
        out = out + algebra.monomial(mask_indices(mask), c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_supercommutativity_and_associativity_random(data):
    L = GrassmannAlgebra(QQ, 8)
    x = data.draw(grassmann_elements(L))
    y = data.draw(grassmann_elements(L))
    z = data.draw(grassmann_elements(L))
    assert (x * y) * z == x * (y * z)
    for xh in (x.even_part(), x.odd_part()):
        for yh in (y.even_part(), y.odd_part()):
            sign = -1 if (xh.parity() == 1 and yh.parity() == 1) else 1
            rhs = yh * xh
            assert xh * yh == (rhs if sign > 0 else -rhs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_odd_squares_vanish(data):
    L = GrassmannAlgebra(GF2, 6)
    x = data.draw(grassmann_elements(L))
    odd = x.odd_part()
    assert (odd * odd).is_zero()


# ---------------------------------------------------------------------------
# canonical raw values over Q


def assert_canonical(raw, value):
    """raw is value, held as an int exactly when value is integral: the
    same type, numerator, denominator, hash and str as Fraction arithmetic
    followed by _canonical gives."""
    want = _canonical(Fraction(value))
    assert type(raw) is (int if want.denominator == 1 else Fraction) is type(want)
    assert (raw.numerator, raw.denominator) == (want.numerator, want.denominator)
    assert hash(raw) == hash(want) and str(raw) == str(want)


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6))
# numerators up to 10^40 over denominators up to 10^12 made of shared small
# primes, so that mul's two cross gcds and add's second gcd all fire
wide_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(lambda n, e: Fraction(n, 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3]),
              st.integers(-10**40, 10**40),
              st.tuples(st.integers(0, 10), st.integers(0, 6), st.integers(0, 4),
                        st.integers(0, 3))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(rationals, wide_rationals), st.one_of(rationals, wide_rationals))
@example(Fraction(1, 6), Fraction(1, 3))  # add's second gcd: 1/2
@example(Fraction(1, 6), Fraction(5, 6))  # an integral sum of Fractions
@example(Fraction(6, 35), Fraction(-35, 6))  # both cross gcds: -1
def test_q_raw_values_are_canonical(a, b):
    """Every RationalField operation agrees with Fraction arithmetic and
    returns an int for an integral value, a Fraction otherwise."""
    x, y = _canonical(a), _canonical(b)
    assert_canonical(x, a)
    assert_canonical(QQ.add(x, y), a + b)
    assert_canonical(QQ.mul(x, y), a * b)
    assert_canonical(QQ.neg(x), -a)
    assert_canonical(QQ.add(x, QQ.neg(x)), 0)
    if a:
        assert_canonical(QQ.inv(x), 1 / a)
    assert_canonical(QQ.parse(QQ.format(x)), a)
    assert_canonical(QQ.from_int(a.numerator), a.numerator)


@pytest.mark.parametrize("a", [1, -1, 7, -7, Fraction(1, 3), Fraction(-1, 3),
                               Fraction(6, 35), Fraction(-6, 35), Fraction(10**40 + 1, 2**40)])
def test_q_inv_of_ints_and_fractions_of_both_signs(a):
    assert_canonical(QQ.inv(_canonical(a)), 1 / Fraction(a))


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(-6, 35), Fraction(10**40 + 1, 2**40)])
def test_q_product_by_one_is_the_other_operand(a):
    """A Fraction times the int 1, on either side, is that Fraction itself:
    no gcd runs and no Fraction is built."""
    x = _canonical(a)
    assert QQ.mul(1, x) is x and QQ.mul(x, 1) is x
    assert QQ.mul(1, 7) == QQ.mul(7, 1) == 7 and QQ.mul(1, 1) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_inv_of_zero_is_not_invertible(field):
    with pytest.raises(NotInvertible):
        field.inv(field.from_int(0))


def test_frac_builds_a_plain_fraction():
    """_frac fills Fraction's two slots; Fraction has no __dict__, so an
    interpreter whose Fraction lacks those slots raises AttributeError."""
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    assert not hasattr(Fraction(1, 2), "__dict__")
    for n, d in [(1, 2), (-3, 4), (10**40 + 1, 2**40), (-7, 10**12 + 1)]:
        r, want = _frac(n, d), Fraction(n, d)
        assert type(r) is Fraction
        assert r == want and hash(r) == hash(want) and str(r) == str(want)
        assert (r.numerator, r.denominator) == (n, d)


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__neg__", "__truediv__", "__rtruediv__")


def test_q_normal_form_routes_call_no_fraction_operator(monkeypatch):
    """The three normal-form routes over Lambda_4(Q) run their rational
    arithmetic in RationalField, on numerators and denominators: not one
    Fraction operator is called."""
    rng = random.Random(2026)
    A = GrassmannAlgebra(QQ, 4)
    pairs = [gl_pair(1, 1, QQ), gl_pair(2, 1, QQ)]
    words = [random_word(pairs[t % 2], A, rng) for t in range(24)]
    calls = []
    for attr in FRACTION_OPERATORS:
        def counted(*args, _real=getattr(Fraction, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(Fraction, attr, counted)
    forms = [(normal_form(w), reorder_symbolic(w),
              strip_matrix_factorization(w.pair, w.rho_matrix())) for w in words]
    monkeypatch.undo()
    assert calls == []
    assert all(a == b == c for a, b, c in forms)
    assert any(type(c) is Fraction for a, _, _ in forms for e in a.etas for c in e.terms.values())


def test_q_integral_fraction_embeds_as_int():
    (raw,) = GrassmannAlgebra(QQ, 1).from_scalar(Fraction(4, 2)).terms.values()
    assert_canonical(raw, 2)


# ---------------------------------------------------------------------------
# parity split


def test_parity_split_is_a_splitting():
    rng = random.Random(0)
    L = GrassmannAlgebra(GF5, 5)
    for _ in range(50):
        x = rand_element(L, rng, max_terms=4)
        y = rand_element(L, rng, max_terms=4)
        p = x * y
        assert p.even_part() + p.odd_part() == p
        assert p.even_part().odd_part().is_zero()
    # parity additivity on homogeneous elements
    for _ in range(30):
        x = rand_element(L, rng, parity=1)
        y = rand_element(L, rng, parity=1)
        assert (x * y).parity() in (0, None) and (x * y).odd_part().is_zero()


# ---------------------------------------------------------------------------
# augmentation, bar reduction, nilpotency


def test_reduce_bar_kills_odd_generated_monomials():
    """The bar reduction A -> A/(A_1) = k is the augmentation."""
    L = GrassmannAlgebra(QQ, 2)
    e = L.from_int(3) + L.generator(1) + L.monomial([1, 2], 2)
    assert e.augment() == 3


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_kernel_nilpotency_bound(field):
    """(ker eps_A)^(N+1) = 0 on generators for each algebra's declared N,
    with eps in the kernel of the dual numbers over Lambda_2."""
    dual, eps = dual_numbers(GrassmannAlgebra(field, 2))
    for A, extra in ((GrassmannAlgebra(field, 3), []), (SuperNumbers(field), []),
                     (dual, [eps])):
        n = A.nilpotency_bound
        gens = [A.generator(i) for i in range(1, A.rank + 1)]
        # every product of N+1 kernel generators (with repetition) vanishes
        for combo in itertools.product(gens + extra, repeat=n + 1):
            prod = A.one()
            for g in combo:
                prod = prod * g
            assert prod.is_zero()
        # and the bound is tight: some product of N kernel elements survives
        prod = A.one()
        for g in gens:
            prod = prod * g
        assert not prod.is_zero()


# ---------------------------------------------------------------------------
# inversion


def test_invert_examples():
    L = GrassmannAlgebra(QQ, 2)
    u = L.one() + L.monomial([1, 2])
    assert invert(u) == L.one() - L.monomial([1, 2])
    assert invert(L.from_int(2)) == L.from_scalar("1/2")
    with pytest.raises(NotInvertible):
        invert(L.generator(1))


@pytest.mark.parametrize("field", FIELDS)
def test_invert_random_units(field):
    rng = random.Random(7)
    A = GrassmannAlgebra(field, 4)
    for _ in range(200):
        u = A.from_scalar(rand_unit_scalar(field, rng)) + \
            rand_element(A, rng, max_terms=3, min_degree=1)
        assert invert(u) * u == A.one()
        assert u * invert(u) == A.one()


def test_dual_extension_inversion_and_eps():
    """eps = x3 x4 in Lambda_4 is even, central and squares to zero, and
    Lambda_2 includes with its masks unchanged."""
    A = GrassmannAlgebra(QQ, 2)
    D, eps = dual_numbers(A)
    assert eps == D.monomial([3, 4])
    assert (eps * eps).is_zero()
    assert eps.parity() == 0
    x1 = D.include(A.generator(1))
    assert x1 == D.generator(1) and eps * x1 == x1 * eps
    u = D.one() + eps * D.include(A.generator(1) * A.generator(2))
    assert invert(u) * u == D.one()
    with pytest.raises(NotInvertible):
        invert(eps)
    with pytest.raises(StructuralError):
        A.include(D.generator(3))
    with pytest.raises(StructuralError):
        D.include(GrassmannAlgebra(GF3, 2).one())


# ---------------------------------------------------------------------------
# ring tag discipline


def test_ring_tag_mismatch_raises():
    a = GrassmannAlgebra(QQ, 2).one()
    b = GrassmannAlgebra(QQ, 3).one()
    c = GrassmannAlgebra(GF2, 2).one()
    with pytest.raises(StructuralError):
        a + b
    with pytest.raises(StructuralError):
        a * c


def test_super_numbers_are_lambda_1():
    """k[eta] and Lambda_1 over the same field are one algebra: equal, with
    one hash, and their elements add."""
    SN, L1 = SuperNumbers(QQ), GrassmannAlgebra(QQ, 1)
    assert SN == L1 and L1 == SN and hash(SN) == hash(L1)
    total = SN.one() + L1.one()
    assert total == SN.from_int(2) and total == L1.from_int(2)
    assert L1.one() + SN.one() == SN.from_int(2)
    assert SN != SuperNumbers(GF3) and SN != GrassmannAlgebra(QQ, 2)


# ---------------------------------------------------------------------------
# A_1^(n) membership


def test_a1n_examples_frozen_from_enumeration():
    """Expected values computed by the spanning-monomial oracle."""
    L3 = GrassmannAlgebra(QQ, 3)
    members = a1n_masks_oracle(3, 2)
    # the oracle says: A_1^(2) in Lambda_3 is k + degree-2 monomials
    assert members == {0, 0b011, 0b101, 0b110}
    assert L3.monomial([1, 2, 3]).a1n_member(2) is (0b111 in members)
    assert L3.generator(1).a1n_member(2) is (0b001 in members)
    assert L3.monomial([1, 2]).a1n_member(2)
    assert L3.one().a1n_member(2)


@pytest.mark.parametrize("rank,n", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_a1n_matches_enumeration(rank, n):
    L = GrassmannAlgebra(QQ, rank)
    members = a1n_masks_oracle(rank, n)
    for m in range(1 << rank):
        elem = L.monomial(mask_indices(m))
        assert elem.a1n_member(n) == (m in members), (m, n)


def test_a1n_super_numbers_accepts_k_plus_eta():
    """(A[eta])_1^(1) = k + A.eta; with the base ring k this is everything."""
    SN = SuperNumbers(QQ)
    assert SN.one().a1n_member(1)
    assert SN.generator(1).a1n_member(1)
    assert (SN.one() + SN.generator(1)).a1n_member(1)


def test_a1n_rejects_nonpositive_n():
    L = GrassmannAlgebra(QQ, 2)
    with pytest.raises(StructuralError):
        L.one().a1n_member(0)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("field", FIELDS)
def test_element_string_roundtrip(field):
    rng = random.Random(3)
    A = GrassmannAlgebra(field, 4)
    for _ in range(60):
        x = rand_element(A, rng, max_terms=4)
        assert parse_element(A, x.to_str()) == x
    D, eps = dual_numbers(GrassmannAlgebra(field, 2))
    for _ in range(40):
        x = rand_dual(eps, rng, max_terms=3)
        assert parse_element(D, x.to_str()) == x


def test_literal_formats():
    L = GrassmannAlgebra(QQ, 2)
    assert parse_element(L, "3/2 * x{1,2}") == L.monomial([1, 2], "3/2")
    F = GrassmannAlgebra(GF5, 1)
    assert parse_element(F, "7 mod 5 * x{1}") == F.generator(1).scale(2)
    with pytest.raises(StructuralError):
        parse_element(L, "nonsense * x{1}")
