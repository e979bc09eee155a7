"""Interval layer: outward rounding, exact ops, sqrt, complex rectangles.

The integer-numerator ``Enclosure`` is checked endpoint for endpoint against
``FractionEnclosure``, the ``Fraction`` implementation it replaced, kept
here as the oracle together with its rounding and square-root helpers.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triboverify.enclosure import (ComplexEnclosure, Enclosure,
                                   round_down, round_up, sqrt_down, sqrt_up,
                                   sqrt_split)


# ---------------------------------------------------------------------------
# the Fraction oracle
# ---------------------------------------------------------------------------

def _oracle_round(x: Fraction, bits: int, up: bool) -> Fraction:
    if bits < 1:
        raise ValueError("bits must be >= 1")
    n, d = x.numerator, x.denominator
    if n == 0:
        return x
    e = n.bit_length() - d.bit_length()
    s = bits - e
    if s >= 0:
        num, den = n << s, d
    else:
        num, den = n, d << (-s)
    q, r = divmod(num, den)
    if up and r:
        q += 1
    if s >= 0:
        return Fraction(q, 1 << s)
    return Fraction(q << (-s))


def _oracle_sqrt_down(x: Fraction, bits: int) -> Fraction:
    if x < 0:
        raise ValueError("sqrt of negative rational")
    n, d = x.numerator, x.denominator
    if n == 0:
        return Fraction(0)
    e = (n.bit_length() - d.bit_length()) // 2
    s = max(bits - e + 2, 0)
    m = (n << (2 * s)) // d
    return Fraction(isqrt(m), 1 << s)


def _oracle_sqrt_up(x: Fraction, bits: int) -> Fraction:
    if x < 0:
        raise ValueError("sqrt of negative rational")
    n, d = x.numerator, x.denominator
    if n == 0:
        return Fraction(0)
    e = (n.bit_length() - d.bit_length()) // 2
    s = max(bits - e + 2, 0)
    num = n << (2 * s)
    m, rem = divmod(num, d)
    if rem:
        m += 1
    r = isqrt(m)
    if r * r < m:
        r += 1
    return Fraction(r, 1 << s)


@dataclass(frozen=True, slots=True)
class FractionEnclosure:
    """Closed interval with reduced ``Fraction`` endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    def intersects(self, other):
        return self.lo <= other.hi and other.lo <= self.hi

    def encloses(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def __neg__(self):
        return FractionEnclosure(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, FractionEnclosure):
            return FractionEnclosure(self.lo + other.lo, self.hi + other.hi)
        return FractionEnclosure(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FractionEnclosure):
            return FractionEnclosure(self.lo - other.hi, self.hi - other.lo)
        return FractionEnclosure(self.lo - other, self.hi - other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FractionEnclosure):
            p = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
            return FractionEnclosure(min(p), max(p))
        if other >= 0:
            return FractionEnclosure(self.lo * other, self.hi * other)
        return FractionEnclosure(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FractionEnclosure):
            return self * other.inv()
        f = Fraction(other)
        return self * Fraction(f.denominator, f.numerator)

    def inv(self):
        if self.contains_zero():
            raise ZeroDivisionError("interval contains zero")
        return FractionEnclosure(1 / self.hi, 1 / self.lo)

    def square(self):
        a, b = self.lo * self.lo, self.hi * self.hi
        if self.contains_zero():
            return FractionEnclosure(Fraction(0), max(a, b))
        return FractionEnclosure(min(a, b), max(a, b))

    def abs(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return FractionEnclosure(Fraction(0), max(-self.lo, self.hi))

    def sqrt(self, bits):
        if self.hi < 0:
            raise ValueError("sqrt of negative interval")
        lo = self.lo if self.lo > 0 else Fraction(0)
        return FractionEnclosure(_oracle_sqrt_down(lo, bits),
                                 _oracle_sqrt_up(self.hi, bits))

    def rounded(self, bits):
        return FractionEnclosure(_oracle_round(self.lo, bits, up=False),
                                 _oracle_round(self.hi, bits, up=True))


def _same(enc: Enclosure, oracle: FractionEnclosure) -> None:
    assert isinstance(enc, Enclosure)
    assert (enc.lo, enc.hi) == (oracle.lo, oracle.hi)


# Dyadic and non-dyadic rationals, zero and negatives; the scale factor
# re-expresses an interval with numerators and denominator sharing a factor
# (odd or a power of two), which the integer core does not reduce.
_big = st.integers(-10 ** 40, 10 ** 40)
_rational = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, k: Fraction(n, 1 << k), _big, st.integers(0, 160)),
    st.builds(Fraction, _big, st.integers(1, 10 ** 30)),
    st.fractions(-20, 20, max_denominator=50),
)
_scale = st.sampled_from([1, 2, 3, 6, 10, 64, 105])


@st.composite
def _pair(draw, rational=_rational):
    """(Enclosure, FractionEnclosure) over the same endpoints."""
    lo, hi = sorted((draw(rational), draw(rational)))
    k = draw(_scale)
    enc = Enclosure(lo, hi) * k * Fraction(1, k)
    return enc, FractionEnclosure(lo, hi)


_straddle = st.tuples(
    st.one_of(_rational.map(lambda q: -abs(q) - 1), st.just(Fraction(0))),
    _rational.map(lambda q: abs(q) + Fraction(1, 3)),
).map(lambda p: (Enclosure(*p) * 3 / 3, FractionEnclosure(*p)))
_pairs = st.one_of(_pair(), _straddle)
_scalar = st.one_of(st.integers(-10 ** 20, 10 ** 20), _rational)
_bits = st.integers(1, 300)
_props = settings(deadline=None)


@_props
@given(_pairs, _pairs)
def test_binary_ops_match_oracle(a, b):
    (x, ox), (y, oy) = a, b
    _same(x + y, ox + oy)
    _same(x - y, ox - oy)
    _same(x * y, ox * oy)
    if not oy.contains_zero():
        _same(x / y, ox / oy)
    assert x.intersects(y) == ox.intersects(oy)
    assert x.encloses(y) == ox.encloses(oy)
    assert (x == y) == (ox == oy)


@_props
@given(_pairs, _scalar)
def test_scalar_ops_match_oracle(a, s):
    x, ox = a
    _same(x + s, ox + s)
    _same(s + x, s + ox)
    _same(x - s, ox - s)
    _same(s - x, s - ox)
    _same(x * s, ox * s)
    _same(s * x, s * ox)
    if s != 0:
        _same(x / s, ox / s)
    assert x.contains(s) == (ox.lo <= s <= ox.hi)
    assert x.definitely_lt(s) == (ox.hi < s)
    assert x.definitely_gt(s) == (ox.lo > s)


@_props
@given(_pairs, _bits)
# 15/21 and 5/7 sit on different grids unless the shared 3 is removed:
# their roots differ at 7 bits, their roundings at 5
@example((Enclosure(Fraction(5, 7), 1) * 3 / 3,
          FractionEnclosure(Fraction(5, 7), 1)), 7)
@example((Enclosure(Fraction(5, 7), 1) * 3 / 3,
          FractionEnclosure(Fraction(5, 7), 1)), 5)
def test_unary_ops_match_oracle(a, bits):
    x, ox = a
    _same(-x, -ox)
    _same(x.square(), ox.square())
    _same(x.abs(), ox.abs())
    _same(x.rounded(bits), ox.rounded(bits))
    if not ox.contains_zero():
        _same(x.inv(), ox.inv())
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    if ox.hi >= 0:
        _same(x.sqrt(bits), ox.sqrt(bits))
    else:
        with pytest.raises(ValueError):
            x.sqrt(bits)
    assert x.width() == ox.hi - ox.lo
    assert x.mid() == (ox.lo + ox.hi) / 2
    assert x.is_positive() == (ox.lo > 0)
    assert x.is_negative() == (ox.hi < 0)
    assert x.contains_zero() == ox.contains_zero()


@_props
@given(_pairs, st.integers(1, 200))
def test_refined_rounding_lies_inside(a, bits):
    x, _ = a
    coarse = x.rounded(bits)
    fine = x.rounded(2 * bits)
    assert coarse.encloses(fine)
    assert fine.encloses(x)


@_props
@given(_rational, _bits)
def test_rounding_functions_match_oracle(q, bits):
    assert round_down(q, bits) == _oracle_round(q, bits, up=False)
    assert round_up(q, bits) == _oracle_round(q, bits, up=True)
    if q >= 0:
        assert sqrt_down(q, bits) == _oracle_sqrt_down(q, bits)
        assert sqrt_up(q, bits) == _oracle_sqrt_up(q, bits)


def test_equality_and_hash_by_value():
    a = Enclosure(Fraction(1, 2), 1)
    b = Enclosure(Fraction(2, 4), Fraction(4, 4))
    assert a == b and hash(a) == hash(b)
    c = Enclosure(Fraction(1, 3), Fraction(5, 7)) * 6 / 6
    d = Enclosure(Fraction(1, 3), Fraction(5, 7))
    assert c == d and hash(c) == hash(d)
    assert c != Enclosure(Fraction(1, 3), Fraction(6, 7))
    assert len({a, b, c, d}) == 2


@_props
@given(_rational, _rational)
def test_inverted_interval_raises(p, q):
    assume(p != q)
    lo, hi = sorted((p, q))
    with pytest.raises(ValueError):
        Enclosure(hi, lo)


def test_rounding_brackets_value():
    rng = random.Random(20260822)
    for _ in range(300):
        x = Fraction(rng.randint(-10 ** 12, 10 ** 12),
                     rng.randint(1, 10 ** 9))
        for bits in (8, 32, 100):
            lo = round_down(x, bits)
            hi = round_up(x, bits)
            assert lo <= x <= hi
            assert hi - lo <= Fraction(2, 1 << bits) * (1 + abs(x))


def test_rounding_exact_on_grid():
    x = Fraction(5, 8)
    assert round_down(x, 10) == x
    assert round_up(x, 10) == x
    assert round_down(Fraction(0), 50) == 0


def test_rounding_refinement_monotone():
    # doubling bits must never loosen the bracket (nested dyadic grids)
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        for bits in (16, 32, 64):
            assert round_down(x, 2 * bits) >= round_down(x, bits)
            assert round_up(x, 2 * bits) <= round_up(x, bits)


def test_sqrt_bounds():
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(0, 10 ** 10), rng.randint(1, 10 ** 5))
        lo = sqrt_down(x, 80)
        hi = sqrt_up(x, 80)
        assert lo * lo <= x <= hi * hi
        assert lo >= 0


def test_sqrt_two_window():
    lo = sqrt_down(Fraction(2), 200)
    hi = sqrt_up(Fraction(2), 200)
    assert hi - lo < Fraction(1, 1 << 190)


def test_enclosure_invariants():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.contains(Fraction(2, 5))
    assert not e.contains(Fraction(2))
    assert e.is_positive()
    assert not e.contains_zero()
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


def _rand_enclosure(rng, lo=-50, hi=50):
    a = Fraction(rng.randint(lo * 100, hi * 100), 100)
    b = a + Fraction(rng.randint(0, 300), 100)
    return Enclosure(a, b)


def test_arithmetic_encloses_pointwise():
    rng = random.Random(20260822)
    for _ in range(300):
        e1 = _rand_enclosure(rng)
        e2 = _rand_enclosure(rng)
        x1 = e1.lo + (e1.hi - e1.lo) * Fraction(rng.randint(0, 16), 16)
        x2 = e2.lo + (e2.hi - e2.lo) * Fraction(rng.randint(0, 16), 16)
        assert (e1 + e2).contains(x1 + x2)
        assert (e1 - e2).contains(x1 - x2)
        assert (e1 * e2).contains(x1 * x2)
        if not e2.contains_zero():
            assert (e1 / e2).contains(x1 / x2)
        assert e1.square().contains(x1 * x1)
        assert e1.abs().contains(abs(x1))


def test_square_tight_around_zero():
    e = Enclosure(Fraction(-2), Fraction(3))
    sq = e.square()
    assert sq.lo == 0 and sq.hi == 9


def test_inv_rejects_zero_straddle():
    with pytest.raises(ZeroDivisionError):
        Enclosure(Fraction(-1), Fraction(1)).inv()


def test_sqrt_enclosure():
    e = Enclosure(Fraction(2), Fraction(3))
    s = e.sqrt(100)
    assert s.lo * s.lo <= 2 and s.hi * s.hi >= 3
    # a point input gives a sqrt window at the requested precision
    p = Enclosure.point(Fraction(2)).sqrt(100)
    assert p.width() < Fraction(1, 1 << 90)


def test_point_and_comparisons():
    p = Enclosure.point(Fraction(7, 2))
    assert p.width() == 0
    assert p.definitely_lt(4)
    assert p.definitely_gt(3)
    assert not p.definitely_lt(Fraction(7, 2))


def test_complex_mul_encloses():
    rng = random.Random(5)
    for _ in range(200):
        z1 = ComplexEnclosure(_rand_enclosure(rng), _rand_enclosure(rng))
        z2 = ComplexEnclosure(_rand_enclosure(rng), _rand_enclosure(rng))
        a, b = z1.re.mid(), z1.im.mid()
        c, d = z2.re.mid(), z2.im.mid()
        prod = z1 * z2
        assert prod.re.contains(a * c - b * d)
        assert prod.im.contains(a * d + b * c)
        sq = z1.square()
        assert sq.re.contains(a * a - b * b)
        assert sq.im.contains(2 * a * b)


def test_complex_abs_and_inv():
    z = ComplexEnclosure.point(Fraction(3), Fraction(4))
    assert z.abs2().contains(25)
    a = z.abs(100)
    assert a.contains(5)
    w = z.inv()
    assert w.re.contains(Fraction(3, 25))
    assert w.im.contains(Fraction(-4, 25))


def test_complex_div_roundtrip():
    z = ComplexEnclosure.point(Fraction(5), Fraction(-2))
    w = ComplexEnclosure.point(Fraction(1), Fraction(3))
    q = z / w
    back = q * w
    assert back.re.contains(5) and back.im.contains(-2)


def test_sqrt_split_candidates():
    # u + iv or u - iv must square back onto the rectangle
    z = ComplexEnclosure.point(Fraction(-7), Fraction(24))
    u, v = sqrt_split(z, 120)
    # true root of -7+24i is 3+4i
    assert u.contains(3)
    assert v.contains(4)


def test_rounded_keeps_enclosure():
    e = Enclosure(Fraction(10 ** 30 + 1, 10 ** 30), Fraction(10 ** 30 + 7, 10 ** 30))
    r = e.rounded(64)
    assert r.encloses(e)
    assert r.lo.denominator <= 1 << 70
