"""Interval layer: outward rounding, exact ops, sqrt, complex rectangles.

The integer-numerator ``Enclosure`` is checked endpoint for endpoint against
``FractionEnclosure``, the ``Fraction`` implementation it replaced, kept
here as the oracle together with its rounding and square-root helpers.
"""

import importlib
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triboverify import gcdbound, splitfield
from triboverify.constants import cmp_alpha_power, constants
from triboverify.enclosure import (ComplexEnclosure, Enclosure,
                                   PrecisionFailure, _add_rounded_product,
                                   _enc, affine_abs, integer_combination,
                                   precision_ladder, round_down, round_up,
                                   sqrt_split)
from triboverify.splitfield import CubicElement

from enclosure_queries import contains

# the package rebinds the name ``constants`` to the function
constants_module = importlib.import_module("triboverify.constants")


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
# denominator 1 and wider than any value the batteries meet
_WIDE = Enclosure(-10 ** 30, 10 ** 30)
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
    assert contains(x, s) == (ox.lo <= s <= ox.hi)
    assert x.definitely_lt(s) == (ox.hi < s)
    assert x.definitely_gt(s) == (ox.lo > s)


# the factors factor_bounds scales alpha**z by; multiplying by them leaves
# denominators that are neither dyadic nor reduced
_bound_factor = st.sampled_from([1, Fraction(6, 10), Fraction(28561, 10000)])


@_props
@given(_pairs, _pairs, _bound_factor)
def test_enclosure_comparisons_match_oracle(a, b, factor):
    (x, ox), (y, oy) = a, b
    y, oy = y * factor, oy * factor
    assert x.definitely_lt(y) == (ox.hi < oy.lo)
    assert x.definitely_gt(y) == (ox.lo > oy.hi)
    # touching endpoints decide neither way
    t = Enclosure(ox.hi, ox.hi + 1) * 7 / 7
    assert not x.definitely_lt(t) and not t.definitely_gt(x)
    assert x.definitely_lt(t + Fraction(1, 10 ** 9))


# The integer kernels of factor_bounds and of the expansion's inner sums,
# against the Fraction oracle.  A bound or a rectangle part takes a factor
# from _bound_factor, so denominators are dyadic, odd multiples, or carry
# 10000; the real and imaginary parts draw theirs independently, and two
# unlike non-dyadic denominators cannot be aligned by a shift.
_multiplier = st.integers(-10 ** 20, 10 ** 20)


def _scaled(pair, factor):
    x, ox = pair
    return x * factor, ox * factor


@_props
@given(_pairs, st.integers(1, 4), _pairs, _bound_factor)
@example((Enclosure(Fraction(-3, 8), Fraction(5, 4)),
          FractionEnclosure(Fraction(-3, 8), Fraction(5, 4))), 4,
         (Enclosure(3, 4), FractionEnclosure(3, 4)), Fraction(28561, 10000))
def test_cmp_abs_power_matches_oracle(a, k, b, factor):
    (x, ox), (bound, obound) = a, _scaled(b, factor)
    mag = ox.abs()
    want = (-1 if mag.hi ** k < obound.lo
            else 1 if mag.lo ** k > obound.hi else 0)
    assert x.cmp_abs_power(k, bound) == want
    # the comparisons factor_bounds made before, on the built power
    power = x.abs()
    for _ in range(k - 1):
        power = power * x.abs()
    assert (want == -1) == power.definitely_lt(bound)
    assert (want == 1) == power.definitely_gt(bound)


# cmp_abs_power on raw numerators: denominators a power of two or odd and
# left unreduced, x intervals that may straddle or touch zero, and bound
# ends within a bit or so of |x|**k, where the bit-length filter leaves the
# comparison open, or at or below zero
_denominator = st.one_of(st.integers(0, 90).map(lambda j: 1 << j),
                         st.integers(0, 10 ** 30).map(lambda j: 2 * j + 1))
_NEAR = ((1, 1), (1, 2), (2, 1), (3, 2), (2, 3), (255, 256), (257, 256))


@st.composite
def _abs_power_case(draw):
    k = draw(st.integers(1, 4))
    d, e = draw(_denominator), draw(_denominator)
    n0 = draw(st.integers(-10 ** 40, 10 ** 40))
    n1 = draw(st.sampled_from([n0, -n0, 0])
              | st.integers(n0, n0 + 10 ** 40))
    n0, n1 = min(n0, n1), max(n0, n1)
    big = max(-n0, n1)
    least = n0 if n0 > 0 else -n1 if n1 < 0 else 0
    mul, div = draw(st.sampled_from(_NEAR))
    near = ((draw(st.sampled_from([big, least])) ** k * e * mul)
            // (d ** k * div) + draw(st.integers(-2, 2)))
    other = draw(st.sampled_from([near, 0, -near])
                 | st.integers(-10 ** 40, 10 ** 40))
    b0, b1 = sorted((near, other))
    return _enc(n0, n1, d), k, _enc(b0, b1, e)


def _cmp_abs_power_oracle(x: Enclosure, k: int, bound: Enclosure) -> int:
    big = max(-x.lo, x.hi)
    least = x.lo if x.lo > 0 else -x.hi if x.hi < 0 else 0
    return -1 if big ** k < bound.lo else 1 if least ** k > bound.hi else 0


@settings(max_examples=500, deadline=None)
@given(_abs_power_case())
# the filter leaves these open: exact ties and one-bit gaps
@example((_enc(-3, 2, 1), 4, _enc(81, 81, 1)))
@example((_enc(-3, 2, 1), 4, _enc(82, 90, 1)))
@example((_enc(2, 3, 1), 4, _enc(0, 16, 1)))
@example((_enc(2, 3, 1), 4, _enc(-5, 15, 1)))
@example((_enc(0, 0, 7), 2, _enc(0, 0, 3)))
@example((_enc(0, 0, 7), 2, _enc(-1, 0, 3)))
@example((_enc(-5, 0, 1 << 40), 3, _enc(1, 1, 1)))
@example((_enc(7, 9, 3), 1, _enc(5, 9, 5)))
# equal bit-length brackets: |x|**k * e in [2**(top-1), 2**top), the bound
# side in [2**(top-1), ...), here tied with it
@example((_enc(3, 3, 1), 1, _enc(8, 9, 3)))
@example((_enc(3, 3, 1), 1, _enc(8, 8, 3)))
@example((_enc(15, 15, 1), 4, _enc(151875, 151875, 3)))
@example((_enc(15, 15, 1), 4, _enc(151874, 151874, 3)))
def test_filtered_cmp_abs_power_matches_exact_oracle(case):
    x, k, bound = case
    assert x.cmp_abs_power(k, bound) == _cmp_abs_power_oracle(x, k, bound)


def _raw(x: Enclosure) -> tuple[int, int, int]:
    return x._n0, x._n1, x._d


# the enclosures an integer combination meets: those of the oracle tests,
# over any denominator, and unreduced ones over a few powers of two, as
# the rounded factors of the truncated series are
_summand = st.one_of(
    st.tuples(_pairs, _bound_factor).map(lambda t: _scaled(*t)[0]),
    st.builds(lambda n, w, j: _enc(n, n + w, 1 << j), _big,
              st.integers(0, 10 ** 40), st.integers(0, 6)))


@_props
@given(st.lists(st.tuples(_summand, _multiplier), max_size=6), _summand,
       st.randoms(use_true_random=False))
# the pair of weight 0 is over 8, the one it joins over 2
@example([(_enc(1, 3, 2), 1)], _enc(5, 7, 8), random.Random(0))
# over 2, 4 and 2 the order decides where denominators are met, so a sum
# that cross-multiplied powers of two would depend on it
@example([(_enc(1, 3, 2), 1), (_enc(1, 3, 4), -1), (_enc(1, 1, 2), 5)],
         _enc(0, 0, 1), random.Random(0))
def test_integer_combination_is_independent_of_the_order_of_its_pairs(
        pairs, zero, rng):
    # summed in any order, the pairs give the same numerators over the
    # same denominator when every denominator is a power of two, and the
    # same rational otherwise; a pair of weight 0 changes no value but
    # still counts towards the denominator
    want = integer_combination(pairs)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    got = integer_combination(shuffled)
    assert got == want
    if not any(e._d & (e._d - 1) for e, _ in pairs):
        assert _raw(got) == _raw(want)
    padded = integer_combination(pairs + [(zero, 0)])
    assert padded == want
    assert padded._d % zero._d == 0 and padded._d % want._d == 0


@_props
@given(_pairs, _bound_factor, _pairs, _bound_factor, _pairs, _bound_factor,
       _multiplier, _multiplier)
@example((_WIDE, FractionEnclosure(-10 ** 30, 10 ** 30)), 1,
         (_WIDE, FractionEnclosure(-10 ** 30, 10 ** 30)), 1,
         (_WIDE, FractionEnclosure(-10 ** 30, 10 ** 30)), 1, -7, 10 ** 12)
@example((Enclosure(Fraction(1, 3), Fraction(2, 3)),
          FractionEnclosure(Fraction(1, 3), Fraction(2, 3))), 1,
         (Enclosure(Fraction(-5, 32), Fraction(3, 32)),
          FractionEnclosure(Fraction(-5, 32), Fraction(3, 32))),
         Fraction(28561, 10000),
         (Enclosure(Fraction(1, 3), Fraction(2, 3)),
          FractionEnclosure(Fraction(1, 3), Fraction(2, 3))), 1, 5, -2)
def test_affine_abs_matches_oracle(point, point_factor, real, real_factor,
                                   imag, imag_factor, m, c):
    x, ox = _scaled(point, point_factor)
    (u, ou), (v, ov) = _scaled(real, real_factor), _scaled(imag, imag_factor)
    rect = ComplexEnclosure(u, v)
    got, got2 = affine_abs(x, rect, m, c)
    _same(got, (ox * m - c).abs())
    _same(got2, (ou * m - c).square() + (ov * m).square())
    assert got == (x * m - c).abs()
    assert got2 == (rect * m - c).abs2()


# affine_abs on raw numerators: each of the interval and the rectangle's
# two parts over its own power-of-two or odd denominator, unreduced, so
# the parts' squares meet over equal denominators, by a shift or by
# cross-multiplying; m of either sign, and c drawn near m times a
# midpoint, so that m*x - c and m*re - c straddle or touch 0
@st.composite
def _affine_case(draw):
    def interval(den):
        n0 = draw(st.integers(-10 ** 40, 10 ** 40))
        n1 = draw(st.sampled_from([n0, -n0, 0])
                  | st.integers(n0, n0 + 10 ** 40))
        return _enc(min(n0, n1), max(n0, n1), den)

    d = draw(_denominator)
    e = draw(st.just(d) | _denominator)
    f = draw(st.just(e) | _denominator)
    x, re, im = interval(d), interval(e), interval(f)
    m = draw(st.sampled_from([0, 1, -1]) | _multiplier)
    near = draw(st.sampled_from([x, re]))
    c = draw(st.integers(-10 ** 60, 10 ** 60)
             | st.integers(-2, 2).map(lambda k: floor(m * near.mid()) + k))
    return x, ComplexEnclosure(re, im), m, c


@settings(max_examples=500, deadline=None)
@given(_affine_case())
# m*x - c straddles 0, with ends of unequal size either way round
@example((_enc(-3, 5, 4), ComplexEnclosure(_enc(1, 2, 3), _enc(-1, 1, 5)),
          -3, 1))
@example((_enc(3, 7, 4), ComplexEnclosure(_enc(1, 3, 8), _enc(2, 3, 32)),
          5, 6))
# m*re - c ends on 0 exactly, below and above
@example((_enc(1, 2, 1), ComplexEnclosure(_enc(4, 6, 2), _enc(-3, -1, 2)),
          1, 2))
@example((_enc(1, 2, 1), ComplexEnclosure(_enc(2, 4, 2), _enc(-3, -1, 2)),
          1, 2))
def test_affine_abs_matches_the_chain_on_numerators(case):
    x, w, m, c = case
    real, cplx2 = affine_abs(x, w, m, c)
    want, want2 = (x * m - c).abs(), (w * m - c).abs2()
    assert real == want and cplx2 == want2
    # not only the values: the numerators and denominators the chain of
    # operations gives, so the kernel moves no enclosure a test freezes
    assert _raw(real) == _raw(want) and _raw(cplx2) == _raw(want2)


# The product kernel on raw numerators: intervals on either side of 0,
# straddling it, with an end at 0 or equal to it, each over a power-of-two
# or an odd denominator, unreduced, so that every sign case of the rule
# and both ways of forming the denominator are met
@st.composite
def _signed_interval(draw, denominator=_denominator):
    a, b = sorted((draw(st.integers(0, 10 ** 40)),
                   draw(st.integers(0, 10 ** 40))))
    n0, n1 = draw(st.sampled_from([(a, b), (-b, -a), (-a, b), (-b, a),
                                   (0, b), (-b, 0), (0, 0)]))
    return _enc(n0, n1, draw(denominator))


def _four_products(x: Enclosure, y: Enclosure) -> tuple[int, int, int]:
    """The oracle product: the least and the greatest of all four end
    products, over d * e."""
    p = (x._n0 * y._n0, x._n0 * y._n1, x._n1 * y._n0, x._n1 * y._n1)
    return min(p), max(p), x._d * y._d


# one small interval of each sign case, three of them with an end at 0,
# where end products tie, met by every drawn interval on either side
_EDGES = [_enc(0, 3, 1), _enc(-3, 0, 1), _enc(0, 0, 1), _enc(2, 5, 4),
          _enc(-5, -2, 3), _enc(-2, 5, 1), _enc(-5, 2, 8)]


@settings(max_examples=500, deadline=None)
@given(_signed_interval(), _signed_interval())
@example(_enc(-2, 5, 1), _enc(-7, 3, 1))
@example(_enc(-7, 3, 1), _enc(-2, 5, 1))
def test_product_matches_the_four_product_oracle(x, y):
    assert _raw(x * y) == _four_products(x, y)
    for edge in _EDGES:
        assert _raw(x * edge) == _four_products(x, edge)
        assert _raw(edge * x) == _four_products(edge, x)


@settings(max_examples=500, deadline=None)
@given(_signed_interval(), _signed_interval(), _signed_interval(),
       _signed_interval())
def test_complex_product_matches_the_six_operation_chain(a, b, c, d):
    # re*re' - im*im' and re*im' + im*re', each product formed by the
    # four-product oracle and the two combined by Enclosure - and +
    got = ComplexEnclosure(a, b) * ComplexEnclosure(c, d)

    def product(x, y):
        return _enc(*_four_products(x, y))

    assert _raw(got.re) == _raw(product(a, c) - product(b, d))
    assert _raw(got.im) == _raw(product(a, d) + product(b, c))


@settings(max_examples=500, deadline=None)
@given(_signed_interval())
def test_square_matches_the_product_of_denominators(x):
    n0, n1, d = _raw(x)
    ends = sorted((n0 * n0, n1 * n1))
    if n0 <= 0 <= n1:
        ends[0] = 0
    assert _raw(x.square()) == (*ends, d * d)


# intervals of every sign case over 2**j, from 1 to far past the working
# precisions drawn below, unreduced, as the memoised factors, the group
# sums and the running total of a truncation are
_dyadic_interval = _signed_interval(st.integers(0, 160).map(lambda j: 1 << j))


@settings(max_examples=500, deadline=None)
@given(_dyadic_interval,
       st.lists(st.tuples(_dyadic_interval, st.lists(
           st.tuples(_dyadic_interval, st.sampled_from([0, 1, -1])
                     | _multiplier), min_size=1, max_size=4)),
           min_size=1, max_size=4),
       st.integers(1, 200))
# a factor and an inner sum that both straddle 0, the sum from a negative
# weight over 8 and a positive one over 2
@example(_enc(0, 0, 1),
         [(_enc(-3, 5, 4), [(_enc(-7, 2, 8), -3), (_enc(1, 9, 2), 5)])], 3)
# ends that round to 0, and a running total over a finer grid than both
@example(_enc(-1, 1, 1 << 90),
         [(_enc(-1, 0, 1 << 60), [(_enc(1, 1, 1 << 70), -1)]),
          (_enc(2, 3, 1), [(_enc(-5, -3, 4), 7), (_enc(0, 0, 1 << 9), -2)])],
         1)
def test_add_rounded_product_matches_the_chain_on_numerators(start, groups,
                                                             bits):
    # the truncation's pass, group by group: the kernel gives the
    # numerators and the denominator of the chain it replaces
    got = want = start
    for factor, pairs in groups:
        inner = integer_combination(pairs)
        got = _add_rounded_product(got, factor, inner, bits)
        want = want + (factor * inner.rounded(bits)).rounded(bits)
        assert _raw(got) == _raw(want)


@_props
@given(st.lists(st.tuples(_pairs, _bound_factor, _multiplier), max_size=6))
@example([((_WIDE, FractionEnclosure(-10 ** 30, 10 ** 30)), 1, -3),
          ((Enclosure(Fraction(1, 8), Fraction(3, 4)),
            FractionEnclosure(Fraction(1, 8), Fraction(3, 4))), 1, 5),
          ((Enclosure(Fraction(-1, 64), Fraction(1, 2)),
            FractionEnclosure(Fraction(-1, 64), Fraction(1, 2))),
           Fraction(28561, 10000), -2)])
def test_integer_combination_matches_oracle(terms):
    scaled = [(_scaled(pair, factor), n) for pair, factor, n in terms]
    got = integer_combination((x, n) for (x, _), n in scaled)
    want = FractionEnclosure(0, 0)
    chained = Enclosure.point(0)
    for (x, ox), n in scaled:
        want = want + ox * n
        chained = chained + x * n
    _same(got, want)
    assert got == chained


def test_no_module_reads_enclosure_internals():
    # every other module goes through the Enclosure API
    package = Path(__file__).resolve().parents[1] / "src" / "triboverify"
    for path in package.glob("*.py"):
        if path.name != "enclosure.py":
            text = path.read_text()
            assert not re.search(r"\._(n0|n1|d)\b", text), path.name


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
        root = Enclosure(q, q).sqrt(bits)
        assert root.lo == _oracle_sqrt_down(q, bits)
        assert root.hi == _oracle_sqrt_up(q, bits)


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
@given(_big, st.integers(0, 160), _big, st.integers(0, 160))
def test_constructor_keeps_the_larger_dyadic_denominator(n0, k0, n1, k1):
    lo, hi = sorted((Fraction(n0, 1 << k0), Fraction(n1, 1 << k1)))
    enc = Enclosure(lo, hi)
    assert enc._d == max(lo.denominator, hi.denominator)
    assert (enc.lo, enc.hi) == (lo, hi)


def test_dyadic_constants_keep_their_denominators():
    # the alpha bracket is [a, a + 1] / 2**224 at 192 bits; one endpoint
    # reduces, and multiplying the two denominators would give 2**447.
    # beta.re = (1 - alpha) / 2 needs one more bit: one endpoint has an odd
    # numerator over 2**225
    cs = constants(192)
    assert cs.alpha._d <= 1 << 224
    assert cs.beta.re._d <= 1 << 225


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
        root = Enclosure(x, x).sqrt(80)
        assert root.lo * root.lo <= x <= root.hi * root.hi
        assert root.lo >= 0


def test_sqrt_two_window():
    root = Enclosure(2, 2).sqrt(200)
    assert root.hi - root.lo < Fraction(1, 1 << 190)


def test_enclosure_invariants():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert contains(e, Fraction(2, 5))
    assert not contains(e, Fraction(2))
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
        assert contains(e1 + e2, x1 + x2)
        assert contains(e1 - e2, x1 - x2)
        assert contains(e1 * e2, x1 * x2)
        if not e2.contains_zero():
            assert contains(e1 / e2, x1 / x2)
        assert contains(e1.square(), x1 * x1)
        assert contains(e1.abs(), abs(x1))


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
        assert contains(prod.re, a * c - b * d)
        assert contains(prod.im, a * d + b * c)
        sq = z1.square()
        assert contains(sq.re, a * a - b * b)
        assert contains(sq.im, 2 * a * b)


def test_complex_abs_and_inv():
    z = ComplexEnclosure.point(Fraction(3), Fraction(4))
    assert contains(z.abs2(), 25)
    a = z.abs(100)
    assert contains(a, 5)
    w = z.inv()
    assert contains(w.re, Fraction(3, 25))
    assert contains(w.im, Fraction(-4, 25))


def test_complex_div_roundtrip():
    z = ComplexEnclosure.point(Fraction(5), Fraction(-2))
    w = ComplexEnclosure.point(Fraction(1), Fraction(3))
    q = z / w
    back = q * w
    assert contains(back.re, 5) and contains(back.im, -2)


def test_sqrt_split_candidates():
    # u + iv or u - iv must square back onto the rectangle
    z = ComplexEnclosure.point(Fraction(-7), Fraction(24))
    u, v = sqrt_split(z, 120)
    # true root of -7+24i is 3+4i
    assert contains(u, 3)
    assert contains(v, 4)


def test_rounded_keeps_enclosure():
    e = Enclosure(Fraction(10 ** 30 + 1, 10 ** 30), Fraction(10 ** 30 + 7, 10 ** 30))
    r = e.rounded(64)
    assert r.encloses(e)
    assert r.lo.denominator <= 1 << 70


# ---------------------------------------------------------------------------
# the precision ladder every adaptive loop climbs
# ---------------------------------------------------------------------------

def test_precision_ladder_doubles_then_tries_the_cap():
    assert list(precision_ladder(24, 100)) == [24, 48, 96, 100]
    assert list(precision_ladder(24, 96)) == [24, 48, 96]
    assert list(precision_ladder(64, 64)) == [64]
    assert list(precision_ladder(128, 64)) == [128]


# a ladder from start 0 never reaches its cap (2*0 = 0), so a regression
# grows a list until memory runs out: run the calls in a child process with
# a time limit and a 256 MiB address-space limit, so it fails instead
_LADDER_PROBE = """
from triboverify.enclosure import precision_ladder
from triboverify.gcdbound import prop1_holds
from triboverify.records import check_record, prop1_record
for call in (lambda: precision_ladder(0, 64),
             lambda: precision_ladder(-8, 64),
             lambda: prop1_holds(6, 10, precision_bits=0),
             lambda: check_record(prop1_record(6, 10, 2, True), 0)):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))


def test_precision_ladder_refuses_a_start_below_one():
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _LADDER_PROBE], env=env,
                          preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _recording(seen, result):
    def fn(arg, bits):
        seen.append(bits)
        assert len(seen) <= 10, "the precision loop ignores its cap"
        return result
    return fn


def _record_constants(monkeypatch, seen):
    real = constants_module.constants
    monkeypatch.setattr(splitfield, "constants",
                        lambda bits: seen.append(bits) or real(bits))


def _cmp_alpha_power(monkeypatch, seen):
    monkeypatch.setattr(constants_module, "alpha_power",
                        _recording(seen, Enclosure(0, 10 ** 9)))
    return lambda: cmp_alpha_power(3, 4, 24, 100)


def _factor_bounds(monkeypatch, seen):
    monkeypatch.setattr(gcdbound, "beta_power",
                        _recording(seen, ComplexEnclosure(_WIDE, _WIDE)))
    return lambda: gcdbound.factor_bounds(20, 22, 24, 100)


def _sqrt_sign(monkeypatch, seen):
    _record_constants(monkeypatch, seen)
    monkeypatch.setattr(splitfield, "_cubic_embed",
                        lambda t, root: Enclosure(-1, 1))
    return lambda: splitfield._cubic_sqrt_reconstruct(
        CubicElement((2, 0, 0)), 24, 100, 10)


def _sqrt_reconstruction(monkeypatch, seen):
    # sqrt(2) is not in the cubic field, and no width meets a denominator
    # bound this large
    _record_constants(monkeypatch, seen)
    return lambda: splitfield._cubic_sqrt_reconstruct(
        CubicElement((2, 0, 0)), 24, 100, 10 ** 200)


@pytest.mark.parametrize("setup, message", [
    (_cmp_alpha_power, r"cmp_alpha_power\(3, 4\) unresolved at 100 bits"),
    (_factor_bounds, r"factor bounds unresolved at \(20,22\)"),
    (_sqrt_sign, "sign of real embedding unresolved"),
    (_sqrt_reconstruction, "square root reconstruction unresolved"),
])
def test_adaptive_loop_climbs_the_ladder_to_the_cap(monkeypatch, setup,
                                                    message):
    seen = []
    call = setup(monkeypatch, seen)
    with pytest.raises(PrecisionFailure, match=message):
        call()
    assert seen == [24, 48, 96, 100]
