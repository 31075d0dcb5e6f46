"""Exact scalar fields and the coefficient superalgebras over them.

Every coefficient algebra is a Grassmann algebra, exact and carrying the data
every other module relies on: a parity split, an augmentation onto the base
field, and a nilpotency bound N with (ker eps_A)^(N+1) = 0.

* ``GrassmannAlgebra(field, rank)`` -- the exterior algebra on ``rank`` odd
  generators x{1}..x{rank}, stored sparsely as bitmask -> nonzero raw
  base-field value.
* ``SuperNumbers(field)`` -- one odd generator with square zero, the rank-1
  Grassmann algebra, kept as its own subclass because it is the
  prototypical augmented central extension (odd part squares to zero).
* ``mac(field, acc, xs, ys, twist)`` -- the one product of term dicts,
  accumulated in place: every Grassmann product of this module and of
  ``smat`` runs through it.

Tangent probes need the dual numbers A[eps] with eps even and eps^2 = 0.
For A = Lambda_r they are read inside Lambda_{r+2} with eps = x{r+1}x{r+2}
(``dual_numbers``): that product is even, central and squares to zero, so
a + b eps -> a + b x{r+1}x{r+2} is an injective map of superalgebras.

Base fields are the rationals and prime fields F_p (p = 2 and 3 included as
first-class citizens).  No floating point appears anywhere.  A raw value has
one representation: over Q an ``int`` when it is integral and a ``Fraction``
with denominator >= 2 otherwise, so integral work (the structure constants of
gl(p|q) are 0 and +-1) runs on machine ints; over F_p an ``int`` in [0, p).
``RationalField`` works on numerators and denominators and fills each
non-integral result's slots with ``_frac``: no ``Fraction`` operator runs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

from .errors import NotInvertible, StructuralError

# ---------------------------------------------------------------------------
# base fields


class Field:
    """A supported exact base field; instances act on raw values.

    Raw values are plain numbers, one per field element: over Q an ``int``
    when integral and a ``Fraction`` with denominator >= 2 otherwise, over
    F_p an ``int`` in [0, p).  Every method takes and returns the canonical
    form, and ``int`` and ``Fraction`` compare and hash alike.  0 is the
    only falsy value: ``if c:`` is the zero test.
    """

    name: str

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _canonical(r):
    """r as a canonical raw Q value: an int when integral, else a Fraction."""
    return r if type(r) is int or r.denominator != 1 else r.numerator


def _frac(n, d):
    """The Fraction n/d for coprime n and d >= 2, its two slots filled
    directly: no second gcd, no type dispatch.  A plain Fraction, equal and
    hashing alike; without those slots the assignments raise AttributeError."""
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


class RationalField(Field):
    """Q on the numerators and denominators of canonical inputs (an int, or
    a reduced Fraction with denominator >= 2, as every Field method returns
    them).  int op int comes first; the rest run Knuth's gcd-reduced
    algorithms (TAOCP 2, 4.5.1) and build non-integral results with _frac:
    Fraction's own operators cost more in type dispatch than in arithmetic."""

    name = "Q"

    def add(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a + b
            a, b = b, a
        na, da = a._numerator, a._denominator
        if type(b) is int:  # na + b * da is still coprime to da
            return _frac(na + b * da, da)
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _frac(na * db + nb * da, da * db)
        s = da // g
        n = na * (db // g) + nb * s
        g = gcd(n, g)  # n shares with s * db only factors of g
        d = s * (db // g)
        return n // g if d == 1 else _frac(n // g, d)

    def neg(self, a):
        return -a if type(a) is int else _frac(-a._numerator, a._denominator)

    def mul(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a * b
            a, b = b, a
        na, da = a._numerator, a._denominator
        if type(b) is int:
            g = gcd(b, da)
            n, d = na * (b // g), da // g
        else:
            nb, db = b._numerator, b._denominator
            g, h = gcd(na, db), gcd(nb, da)
            n, d = (na // g) * (nb // h), (da // h) * (db // g)
        return n if d == 1 else _frac(n, d)

    def inv(self, a):
        n, d = (1, a) if type(a) is int else (a._denominator, a._numerator)
        if d < 0:
            n, d = -n, -d
        if d == 0:
            raise NotInvertible("division by zero in Q")
        return n if d == 1 else _frac(n, d)

    def from_int(self, n):
        return int(n)

    def parse(self, text):
        # bound the value's digits before Fraction builds it: an exponent
        # (1e10000000) makes it compute a power of ten
        digits = sum(ch.isdigit() for ch in text)
        exp = re.search(r"[eE]([+-]?\d+)", text)
        if digits > MAX_LITERAL_DIGITS or (
                exp and digits + abs(int(exp.group(1))) > MAX_LITERAL_DIGITS):
            raise StructuralError(f"rational literal {_shown(text)!r} has more "
                                  f"than {MAX_LITERAL_DIGITS} digits")
        try:
            return _canonical(Fraction(text.strip()))
        except ZeroDivisionError:
            raise StructuralError(f"rational literal {_shown(text)!r} divides by zero") from None
        except ValueError:
            raise StructuralError(f"bad rational literal {_shown(text)!r}") from None

    def format(self, a):
        # str() would refuse the value past MAX_LITERAL_DIGITS digits
        if max(a.numerator.bit_length(), a.denominator.bit_length()) > _MAX_FORMAT_BITS:
            raise StructuralError(f"a rational value has more than MAX_LITERAL_DIGITS = "
                                  f"{MAX_LITERAL_DIGITS} digits")
        return str(a)

    @property
    def characteristic(self):
        return 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


# Largest prime field supported: p < 2**31 keeps the primality check (trial
# division up to sqrt(p)) to milliseconds and every product below 2**62.
MAX_PRIME = 2**31
# int() refuses a decimal string of more than 4300 digits (CPython's default
# limit), so longer literals are rejected by digit count before it is called.
MAX_LITERAL_DIGITS = 4300
# values below 2**_MAX_FORMAT_BITS < 10**MAX_LITERAL_DIGITS have at most
# MAX_LITERAL_DIGITS digits
_MAX_FORMAT_BITS = int(MAX_LITERAL_DIGITS * math.log2(10))


def _shown(text):
    """text for an error message: its first 12 characters and ... if long."""
    return text if len(text) <= 24 else text[:12] + "..."


class PrimeField(Field):
    """F_p for prime p < MAX_PRIME; raw values are ints in [0, p)."""

    def __init__(self, p: int):
        if not 2 <= p < MAX_PRIME or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise StructuralError(f"{p} is not a prime below 2**31")
        self.p = p
        self.name = f"F{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertible(f"division by zero in F{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        m = re.fullmatch(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?", text)
        if not m:
            raise StructuralError(f"bad F{self.p} literal: {_shown(text)!r}")
        if len(m.group(1).lstrip("-")) > MAX_LITERAL_DIGITS:
            raise StructuralError(f"F{self.p} literal {_shown(text)!r} has more "
                                  f"than {MAX_LITERAL_DIGITS} digits")
        if m.group(2) and (len(m.group(2)) > len(str(MAX_PRIME))
                           or int(m.group(2)) != self.p):
            raise StructuralError(f"literal {_shown(text)!r} is not mod {self.p}")
        return int(m.group(1)) % self.p

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    @property
    def characteristic(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def field_by_name(name: str) -> Field:
    """Resolve a CLI/fixture field tag: ``Q`` or ``F<p>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        # reject by digit count first: int() of a huge literal is itself an error
        if len(m.group(1)) > len(str(MAX_PRIME)):
            raise StructuralError(f"{name[:12]}... is not a prime field below 2**31")
        return PrimeField(int(m.group(1)))
    raise StructuralError(f"unknown field {name!r}")


def _raw(field: Field, value):
    """The raw value of an int, a Fraction (over Q) or a literal in field."""
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, Fraction) and field == QQ:
        return _canonical(value)
    if isinstance(value, str):
        return field.parse(value)
    raise StructuralError(f"cannot coerce {value!r} into {field}")


# ---------------------------------------------------------------------------
# coefficient algebras

_MAX_RANK = 16


def mac(field, acc: dict, xs: dict, ys: dict, twist: bool = False) -> dict:
    """acc += x . y, or acc += x . twist(y), on term dicts, in place.

    The exterior product of monomials m1, m2 is zero when they share a
    generator and otherwise (-1)^e x^(m1|m2), e counting the pairs (i in m1,
    j in m2) with i > j.  Bit j of ``par`` is the parity of the generators of
    m1 above j, so e = popcount(par & m2) mod 2; twist(y) negates the odd m2,
    which complements par.  A key whose sum is zero is dropped.  Returns acc.
    """
    add, mul, neg = field.add, field.mul, field.neg
    for m1, c1 in xs.items():
        par = m1 >> 1
        par ^= par >> 1
        par ^= par >> 2
        par ^= par >> 4
        par ^= par >> 8
        if twist:
            par = ~par
        nc1 = None  # -c1, made on first use
        for m2, c2 in ys.items():
            if m1 & m2:
                continue
            if (par & m2).bit_count() & 1:
                if nc1 is None:
                    nc1 = neg(c1)
                raw = mul(nc1, c2)
            else:
                raw = mul(c1, c2)
            m = m1 | m2
            prev = acc.get(m)
            if prev is None:
                acc[m] = raw
            else:
                raw = add(prev, raw)
                if raw:
                    acc[m] = raw
                else:
                    del acc[m]
    return acc


class GrassmannAlgebra:
    """Lambda_n = k[x{1}..x{n}], sparse bitmask representation."""

    variant = "grassmann"

    def __init__(self, field: Field, rank: int):
        if not (0 <= rank <= _MAX_RANK):
            raise StructuralError(f"rank must be in 0..{_MAX_RANK}")
        self.field = field
        self.rank = rank
        self.nilpotency_bound = rank

    def __eq__(self, other):
        # SuperNumbers(k) is Lambda_1 over k: equal, and their elements mix
        return (
            isinstance(other, GrassmannAlgebra)
            and other.field == self.field
            and other.rank == self.rank
        )

    def __hash__(self):
        return hash((self.field, self.rank))

    def __repr__(self):
        return f"{self.variant}({self.field}, rank={self.rank})"

    def zero(self):
        return GrassmannElement(self, {})

    def one(self):
        return self.from_scalar(1)

    def from_scalar(self, s):
        """Embed a base-field value: an int, a Fraction over Q, or a literal."""
        s = _raw(self.field, s)
        return GrassmannElement(self, {0: s} if s else {})

    def from_int(self, n: int):
        return self.from_scalar(n)

    def include(self, x):
        """x from a Grassmann algebra over the same field of rank at most
        this one's, with its masks unchanged: x{i} stays x{i}."""
        if x.algebra.field != self.field or x.algebra.rank > self.rank:
            raise StructuralError(f"cannot include {x.algebra!r} in {self!r}")
        return GrassmannElement(self, dict(x.terms))

    def generator(self, i: int):
        """x{i} for 1 <= i <= rank."""
        if not (1 <= i <= self.rank):
            raise StructuralError(f"generator index {i} out of range")
        return GrassmannElement(self, {1 << (i - 1): self.field.from_int(1)})

    def monomial(self, indices, coeff=1):
        mask = 0
        for i in indices:
            if not (1 <= i <= self.rank):
                raise StructuralError(f"generator index {i} out of range")
            if mask & (1 << (i - 1)):
                return self.zero()  # repeated generator squares to zero
            mask |= 1 << (i - 1)
        c = _raw(self.field, coeff)
        return GrassmannElement(self, {mask: c} if c else {})

    def basis_masks(self):
        return range(1 << self.rank)


class SuperNumbers(GrassmannAlgebra):
    """k[eta] with one odd eta: the simplest augmented central extension.

    The base ring of the extension is k itself; A_1^2 = {0} holds because
    eta^2 = 0.  Structurally identical to a rank-1 Grassmann algebra.
    """

    variant = "super_numbers"

    def __init__(self, field: Field):
        super().__init__(field, 1)

    def __repr__(self):
        return f"{self.variant}({self.field})"


class GrassmannElement:
    """Sparse exact multivector; no zero coefficients are ever stored."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GrassmannAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms  # mask -> nonzero raw value; owned, never aliased out

    # -- ring structure -------------------------------------------------
    def _check(self, other):
        if not isinstance(other, GrassmannElement) or (
                other.algebra is not self.algebra and other.algebra != self.algebra):
            raise StructuralError("rank/ring mismatch")

    def __add__(self, other):
        self._check(other)
        add = self.algebra.field.add
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = add(s, c)
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return GrassmannElement(self.algebra, terms)

    def __neg__(self):
        neg = self.algebra.field.neg
        return GrassmannElement(self.algebra, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Exterior product (``mac``)."""
        self._check(other)
        return GrassmannElement(self.algebra, mac(self.algebra.field, {}, self.terms, other.terms))

    def scale(self, s):
        """Multiply by a base-field value (anything ``from_scalar`` takes)."""
        field = self.algebra.field
        s = _raw(field, s)
        if not s:
            return self.algebra.zero()
        return GrassmannElement(self.algebra, {m: field.mul(c, s) for m, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannElement)
            and other.algebra == self.algebra
            and other.terms == self.terms
        )

    __hash__ = None

    def is_zero(self):
        return not self.terms

    # -- super structure -------------------------------------------------
    def even_part(self):
        return GrassmannElement(
            self.algebra,
            {m: c for m, c in self.terms.items() if m.bit_count() % 2 == 0},
        )

    def odd_part(self):
        return GrassmannElement(
            self.algebra,
            {m: c for m, c in self.terms.items() if m.bit_count() % 2 == 1},
        )

    def parity(self):
        """0 or 1 for nonzero homogeneous elements, None otherwise (0 for zero)."""
        ps = {m.bit_count() % 2 for m in self.terms}
        if not ps:
            return 0
        if len(ps) == 1:
            return ps.pop()
        return None

    def is_even(self):
        return self.parity() == 0

    def is_odd(self):
        return self.parity() == 1

    # -- augmentation and friends -----------------------------------------
    def augment(self):
        """eps_A: kill every generator; the constant term, a raw value."""
        return self.terms.get(0, self.algebra.field.from_int(0))

    def soul(self):
        """The element less its constant term."""
        return GrassmannElement(self.algebra, {m: c for m, c in self.terms.items() if m})

    def a1n_member(self, n: int) -> bool:
        """Membership in A_1^(n), the unital subalgebra generated by A_1^[n]
        (``in_a1n`` on the element's masks)."""
        return in_a1n(self.terms, n)

    # -- serialization ----------------------------------------------------
    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.algebra.field.format(self.terms[m])
            if m == 0:
                parts.append(c)
            else:
                idx = ",".join(str(i + 1) for i in range(_MAX_RANK) if m >> i & 1)
                parts.append(f"{c} * x{{{idx}}}")
        return " + ".join(parts)

    def __repr__(self):
        return self.to_str()


def in_a1n(masks, n: int) -> bool:
    """Whether the monomials of the given masks all lie in A_1^(n).

    Monomial criterion: a nonconstant monomial of degree d belongs iff
    d >= t*n and d = t*n (mod 2) for some t >= 1; constants always belong.
    """
    if n <= 0:
        raise StructuralError("n must be positive")
    for m in masks:
        d = m.bit_count()
        if d and not any((d - t * n) % 2 == 0 for t in range(1, d // n + 1)):
            return False
    return True


def dual_numbers(algebra: GrassmannAlgebra):
    """(B, eps): the dual numbers over Lambda_r read inside B = Lambda_{r+2},
    with eps = x{r+1}x{r+2}; ``B.include`` lifts the elements of Lambda_r."""
    dual = GrassmannAlgebra(algebra.field, algebra.rank + 2)
    return dual, dual.monomial([algebra.rank + 1, algebra.rank + 2])


# ---------------------------------------------------------------------------
# parsing of the textual term-list format


_TERM_GEN = re.compile(r"x\{([0-9,\s]*)\}")


def parse_element(algebra: GrassmannAlgebra, text: str):
    """Parse ``c * x{i,j}`` term lists back into an element."""
    text = text.strip()
    if text == "0":
        return algebra.zero()
    result = algebra.zero()
    for chunk in text.split("+"):
        factors = [f.strip() for f in chunk.strip().split("*")]
        coeff = None
        mask_indices = None
        for f in factors:
            if not f:
                raise StructuralError(f"empty factor in term {chunk!r}")
            if _TERM_GEN.fullmatch(f):
                if mask_indices is not None:
                    raise StructuralError("repeated generator factor")
                inner = _TERM_GEN.fullmatch(f).group(1).strip()
                try:
                    mask_indices = [int(t) for t in inner.split(",")] if inner else []
                except ValueError:  # an empty or over-long index
                    raise StructuralError(f"bad generator index in {_shown(f)!r}") from None
            else:
                if coeff is not None:
                    raise StructuralError(f"two scalar factors in {chunk!r}")
                coeff = algebra.field.parse(f)
        if coeff is None:
            coeff = algebra.field.from_int(1)
        result = result + algebra.monomial(mask_indices or [], coeff)
    return result
