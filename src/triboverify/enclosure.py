"""Interval arithmetic with exact rational endpoints.

Every numeric quantity in this package that is not an integer is carried as an
enclosure: a closed interval with exact rational endpoints that is guaranteed
to contain the exact real value.  An enclosure keeps its endpoints as two
integer numerators over one shared positive denominator, not reduced, so exact
operations are plain integer arithmetic with no gcd normalisation.  Arithmetic
on enclosures is exact; precision only enters through explicit outward
rounding (``rounded``), which snaps endpoints to a dyadic grid of roughly
``bits`` significant bits, always widening.  Refining the same computation at
a higher bit count therefore never widens any enclosure, and a comparison
decided from an enclosure is a theorem about the exact value, not a floating
point impression.

Complex values are axis-aligned rectangles (an enclosure for the real part and
one for the imaginary part).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rat = Union[int, Fraction]


class PrecisionFailure(ArithmeticError):
    """Raised when adaptive refinement reaches its precision ceiling
    without resolving a comparison or a sign."""


def round_down(x: Fraction, bits: int) -> Fraction:
    """Largest grid point <= x on the dyadic grid with ~bits significant bits.

    >>> round_down(Fraction(5, 3), 8)
    Fraction(213, 128)
    """
    return _round(x, bits, up=False)


def round_up(x: Fraction, bits: int) -> Fraction:
    """Smallest grid point >= x.

    >>> round_up(Fraction(5, 3), 8)
    Fraction(107, 64)
    """
    return _round(x, bits, up=True)


def _round(x: Fraction, bits: int, up: bool) -> Fraction:
    if bits < 1:
        raise ValueError("bits must be >= 1")
    q, s = _round_int(x.numerator, x.denominator, bits, up)
    return Fraction(q, 1 << s) if s >= 0 else Fraction(q << -s)


def _round_int(n: int, d: int, bits: int, up: bool) -> tuple[int, int]:
    """(q, s) such that q * 2**-s is the grid point at or below n/d, or at
    or above it when ``up``.  n/d must be in lowest terms or d a power of
    two: the grid depends on bit lengths, which a common power of two
    shifts alike but a common odd factor need not."""
    if n == 0:
        return 0, 0
    # |n/d| lies within a factor 2 of 2**e, e = len(n) - len(d), so the
    # grid step 2**-s with s = bits - e leaves about `bits` significant bits
    s = bits - n.bit_length() + d.bit_length()
    if not d & (d - 1):
        shift = d.bit_length() - 1 - s
        if shift <= 0:
            return n << -shift, s
        return (-(-n >> shift) if up else n >> shift), s
    if s >= 0:
        q, r = divmod(n << s, d)
    else:
        q, r = divmod(n, d << -s)
    if up and r:
        q += 1
    return q, s


def sqrt_down(x: Fraction, bits: int) -> Fraction:
    """Lower bound for sqrt(x), x >= 0, accurate to ~bits bits."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    r, s = _sqrt_int(x.numerator, x.denominator, bits, up=False)
    return Fraction(r, 1 << s)


def sqrt_up(x: Fraction, bits: int) -> Fraction:
    """Upper bound for sqrt(x), x >= 0, accurate to ~bits bits."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    r, s = _sqrt_int(x.numerator, x.denominator, bits, up=True)
    return Fraction(r, 1 << s)


def _sqrt_int(n: int, d: int, bits: int, up: bool) -> tuple[int, int]:
    """(r, s) with r * 2**-s a lower bound for sqrt(n/d), or an upper
    bound when ``up``; n >= 0, and n/d as for ``_round_int``."""
    if n == 0:
        return 0, 0
    e = (n.bit_length() - d.bit_length()) // 2
    s = max(bits - e + 2, 0)
    m, rem = divmod(n << (2 * s), d)
    if not up:
        return isqrt(m), s
    if rem:
        m += 1
    r = isqrt(m)
    if r * r < m:
        r += 1
    return r, s


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d ready for the grid kernels: a power-of-two d stays as it is,
    any other goes to lowest terms."""
    if d & (d - 1):
        g = gcd(n, d)
        if g != 1:
            return n // g, d // g
    return n, d


def _num_den(v) -> tuple[int, int]:
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return v.numerator, v.denominator


def _align(n0: int, n1: int, d: int,
           m0: int, m1: int, e: int) -> tuple[int, int, int, int, int]:
    """[n0, n1]/d and [m0, m1]/e over one common denominator: the four
    numerators and the denominator.  Equal denominators are kept, two
    powers of two align by a shift, any others cross-multiply."""
    if d == e:
        return n0, n1, m0, m1, d
    if not (d & (d - 1) or e & (e - 1)):
        k = e.bit_length() - d.bit_length()
        if k > 0:
            return n0 << k, n1 << k, m0, m1, e
        return n0, n1, m0 << -k, m1 << -k, d
    return n0 * e, n1 * e, m0 * d, m1 * d, d * e


_new = object.__new__


def _enc(n0: int, n1: int, d: int) -> "Enclosure":
    """[n0/d, n1/d] without checks: d > 0 and n0 <= n1."""
    out = _new(Enclosure)
    out._n0 = n0
    out._n1 = n1
    out._d = d
    return out


def _dyadic(q0: int, s0: int, q1: int, s1: int) -> "Enclosure":
    """[q0 * 2**-s0, q1 * 2**-s1] over the denominator 2**max(s0, s1, 0)."""
    s = max(s0, s1, 0)
    return _enc(q0 << (s - s0), q1 << (s - s1), 1 << s)


class Enclosure:
    """Closed interval [lo, hi] certified to contain an exact real value.

    The endpoints are _n0/_d and _n1/_d, integer numerators over one
    positive denominator, not reduced.  ``lo`` and ``hi`` give them as
    exact fractions; equality and hashing go by value.
    """

    __slots__ = ("_n0", "_n1", "_d")

    def __init__(self, lo: Rat, hi: Rat):
        n0, d0 = _num_den(lo)
        n1, d1 = _num_den(hi)
        if d0 != d1:
            n0, n1, d0 = n0 * d1, n1 * d0, d0 * d1
        if n0 > n1:
            raise ValueError(
                f"inverted interval [{Fraction(lo)}, {Fraction(hi)}]")
        self._n0 = n0
        self._n1 = n1
        self._d = d0

    @classmethod
    def point(cls, v: Rat) -> "Enclosure":
        n, d = _num_den(v)
        return _enc(n, n, d)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._n0, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._n1, self._d)

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return (self._n0 * other._d == other._n0 * self._d
                and self._n1 * other._d == other._n1 * self._d)

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- queries ---------------------------------------------------------

    def width(self) -> Fraction:
        return Fraction(self._n1 - self._n0, self._d)

    def mid(self) -> Fraction:
        return Fraction(self._n0 + self._n1, 2 * self._d)

    def contains(self, v: Rat) -> bool:
        p, q = _num_den(v)
        return self._n0 * q <= p * self._d <= self._n1 * q

    def intersects(self, other: "Enclosure") -> bool:
        a0, a1, b0, b1, _ = _align(self._n0, self._n1, self._d,
                                   other._n0, other._n1, other._d)
        return a0 <= b1 and b0 <= a1

    def encloses(self, other: "Enclosure") -> bool:
        a0, a1, b0, b1, _ = _align(self._n0, self._n1, self._d,
                                   other._n0, other._n1, other._d)
        return a0 <= b0 and b1 <= a1

    def is_positive(self) -> bool:
        """True only if every value in the interval is > 0."""
        return self._n0 > 0

    def is_negative(self) -> bool:
        return self._n1 < 0

    def contains_zero(self) -> bool:
        return self._n0 <= 0 <= self._n1

    def definitely_lt(self, v: Rat) -> bool:
        if type(v) is int:
            return self._n1 < v * self._d
        p, q = _num_den(v)
        return self._n1 * q < p * self._d

    def definitely_gt(self, v: Rat) -> bool:
        if type(v) is int:
            return self._n0 > v * self._d
        p, q = _num_den(v)
        return self._n0 * q > p * self._d

    # -- arithmetic (exact; round explicitly where chains grow) ----------

    def __neg__(self) -> "Enclosure":
        return _enc(-self._n1, -self._n0, self._d)

    def __add__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            a0, a1, b0, b1, d = _align(self._n0, self._n1, self._d,
                                       other._n0, other._n1, other._d)
        elif isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            a0, a1, b0, b1, d = _align(self._n0, self._n1, self._d, p, p, q)
        else:
            return NotImplemented
        return _enc(a0 + b0, a1 + b1, d)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            a0, a1, b0, b1, d = _align(self._n0, self._n1, self._d,
                                       other._n0, other._n1, other._d)
        elif isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            a0, a1, b0, b1, d = _align(self._n0, self._n1, self._d, p, p, q)
        else:
            return NotImplemented
        return _enc(a0 - b1, a1 - b0, d)

    def __rsub__(self, other) -> "Enclosure":
        return (-self) + other

    def __mul__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            a, b, c, d = self._n0, self._n1, other._n0, other._n1
            p = (a * c, a * d, b * c, b * d)
            return _enc(min(p), max(p), self._d * other._d)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p >= 0:
                return _enc(self._n0 * p, self._n1 * p, self._d * q)
            return _enc(self._n1 * p, self._n0 * p, self._d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return self * other.inv()
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError
            return self * Fraction(f.denominator, f.numerator)
        return NotImplemented

    def inv(self) -> "Enclosure":
        """1/[lo, hi]; the interval must not contain zero."""
        a, b, d = self._n0, self._n1, self._d
        if a <= 0 <= b:
            raise ZeroDivisionError("interval contains zero")
        # 1/hi = d/b = d*a/(a*b) and 1/lo = d/a = d*b/(a*b), with a*b > 0
        return _enc(d * a, d * b, a * b)

    def square(self) -> "Enclosure":
        """Tight [lo, hi]**2; unlike self*self this maps 0-straddling
        intervals to [0, max**2]."""
        n0, n1 = self._n0, self._n1
        a, b = n0 * n0, n1 * n1
        if n0 <= 0 <= n1:
            return _enc(0, max(a, b), self._d * self._d)
        return _enc(min(a, b), max(a, b), self._d * self._d)

    def abs(self) -> "Enclosure":
        if self._n0 >= 0:
            return self
        if self._n1 <= 0:
            return -self
        return _enc(0, max(-self._n0, self._n1), self._d)

    def sqrt(self, bits: int) -> "Enclosure":
        """Enclosure of sqrt; a slightly negative lo (numeric noise around a
        true zero) is clamped to 0, but a decidedly negative interval is an
        error."""
        n0, n1, d = self._n0, self._n1, self._d
        if n1 < 0:
            raise ValueError("sqrt of negative interval")
        r0, s0 = _sqrt_int(*_reduced(max(n0, 0), d), bits, up=False)
        r1, s1 = _sqrt_int(*_reduced(n1, d), bits, up=True)
        return _dyadic(r0, s0, r1, s1)

    def rounded(self, bits: int) -> "Enclosure":
        if bits < 1:
            raise ValueError("bits must be >= 1")
        q0, s0 = _round_int(*_reduced(self._n0, self._d), bits, up=False)
        q1, s1 = _round_int(*_reduced(self._n1, self._d), bits, up=True)
        return _dyadic(q0, s0, q1, s1)

    def __repr__(self):
        return f"Enclosure({float(self.lo):.17g}, {float(self.hi):.17g})"


@dataclass(frozen=True, slots=True)
class ComplexEnclosure:
    """Axis-aligned rectangle certified to contain an exact complex value."""

    re: Enclosure
    im: Enclosure

    @classmethod
    def point(cls, re: Rat, im: Rat = 0) -> "ComplexEnclosure":
        return cls(Enclosure.point(re), Enclosure.point(im))

    @classmethod
    def real(cls, enc: Enclosure) -> "ComplexEnclosure":
        return cls(enc, Enclosure.point(0))

    def conj(self) -> "ComplexEnclosure":
        return ComplexEnclosure(self.re, -self.im)

    def width(self) -> Fraction:
        return max(self.re.width(), self.im.width())

    def __neg__(self) -> "ComplexEnclosure":
        return ComplexEnclosure(-self.re, -self.im)

    def __add__(self, other) -> "ComplexEnclosure":
        if isinstance(other, ComplexEnclosure):
            return ComplexEnclosure(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction, Enclosure)):
            return ComplexEnclosure(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexEnclosure":
        if isinstance(other, ComplexEnclosure):
            return ComplexEnclosure(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction, Enclosure)):
            return ComplexEnclosure(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other) -> "ComplexEnclosure":
        return (-self) + other

    def __mul__(self, other) -> "ComplexEnclosure":
        if isinstance(other, ComplexEnclosure):
            return ComplexEnclosure(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction, Enclosure)):
            return ComplexEnclosure(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def square(self) -> "ComplexEnclosure":
        return ComplexEnclosure(
            self.re.square() - self.im.square(),
            self.re * self.im * 2,
        )

    def abs2(self) -> Enclosure:
        return self.re.square() + self.im.square()

    def abs(self, bits: int) -> Enclosure:
        return self.abs2().sqrt(bits)

    def inv(self) -> "ComplexEnclosure":
        m = self.abs2()
        if m.contains_zero():
            raise ZeroDivisionError("rectangle may contain zero")
        w = m.inv()
        return ComplexEnclosure(self.re * w, -(self.im * w))

    def __truediv__(self, other) -> "ComplexEnclosure":
        if isinstance(other, ComplexEnclosure):
            return self * other.inv()
        if isinstance(other, (int, Fraction)):
            return ComplexEnclosure(self.re / other, self.im / other)
        if isinstance(other, Enclosure):
            return self * other.inv()
        return NotImplemented

    def rounded(self, bits: int) -> "ComplexEnclosure":
        return ComplexEnclosure(self.re.rounded(bits), self.im.rounded(bits))

    def __repr__(self):
        return (f"ComplexEnclosure({float(self.re.mid()):.17g} "
                f"{float(self.im.mid()):+.17g}j)")


def sqrt_split(z: ComplexEnclosure, bits: int) -> tuple[Enclosure, Enclosure]:
    """Nonnegative enclosures (u, v) with u + iv and u - iv the two candidate
    square roots of z (up to a global sign).

    Uses |w|**2 = |z| and Re(w**2) = u**2 - v**2, so u = sqrt((|z|+x)/2) and
    v = sqrt((|z|-x)/2).  Which sign of the imaginary part is correct depends
    on the sign of Im(z); callers that reconstruct exact values try both
    candidates and verify exactly, so no branch-cut bookkeeping is needed.
    """
    m = z.abs(bits)
    u2 = (m + z.re) * Fraction(1, 2)
    v2 = (m - z.re) * Fraction(1, 2)
    return u2.sqrt(bits), v2.sqrt(bits)
