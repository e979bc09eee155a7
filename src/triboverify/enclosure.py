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

The hot loops of the interval batteries call integer kernels here rather
than chains of enclosure operations, so that no other module reads the
numerators: ``Enclosure.cmp_abs_power`` compares a power of |x| with a
bound, ``affine_abs`` gives both |m*x - c| and |m*w - c|**2 for an
interval x, a rectangle w and integers m and c in one pass,
``integer_combination`` sums enclosures at integer weights in one pass
over their numerators, and ``_add_rounded_product`` adds
(f * x.rounded(bits)).rounded(bits) into a running sum, rounding on the
numerators with no enclosure built but the rounded x.  Each returns
exactly what the chain of operations it replaces would give: the same
numerators over the same denominator.
``_scaled`` multiplies an enclosure by a rational given as two integers,
with no ``Fraction`` built.

A product of two enclosures (``_product``) forms two end products, not
four, unless both intervals straddle 0.  The least and the greatest of
a*c, a*d, b*c, b*d for [a, b] times [c, d] are fixed by the signs of the
ends (Moore's sign rule; R. E. Moore, *Interval Analysis*, 1966): for
a >= 0 they are a*c and b*d when c >= 0, b*c and a*d when d <= 0, and b*c
and b*d when [c, d] straddles 0, and likewise for the other signs; only
two straddling intervals need min(a*d, b*c) and max(a*c, b*d).  The
denominators multiply by a shift when either is a power of two, as that of
every rounded enclosure is, and ``square`` squares its denominator the
same way.  The integers are those the four products and their min and max
give, so every enclosure is bit for bit the same.  ``ComplexEnclosure``
multiplies in one pass: both parts come from this kernel on the
numerators, each pair of products aligned by ``_align`` as their
difference or sum as enclosures would be.

``cmp_abs_power`` decides |x|**k against a bound as the integer comparison
M**k * e < b * d**k of numerators M, b over denominators d, e.  It filters
by bit length first: a positive integer a lies in [2**(len(a) - 1),
2**len(a)), so M**k * e < 2**(k*len(M) + len(e)) and b * d**k >=
2**(len(b) - 1 + k*log2(d)), with k*log2(d) = k*(len(d) - 1) exact for a
power of two and bracketed by k*(len(d) - 1) and k*len(d) otherwise.  When
the two ranges do not overlap the comparison is decided with no power
taken; only when they overlap (within about k + 2 bits of a tie) are the
k-th powers formed and cross-multiplied.  Both ranges are proved, so the
filter changes no decision, only its cost (the classical filter-then-exact
predicate; Shewchuk, Discrete Comput. Geom. 18, 1997).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

Rat = Union[int, Fraction]


class PrecisionFailure(ArithmeticError):
    """Raised when adaptive refinement reaches its precision ceiling
    without resolving a comparison or a sign."""


@lru_cache(maxsize=64)
def precision_ladder(start: int, cap: int) -> tuple[int, ...]:
    """The working precisions an adaptive loop tries: start, 2*start, 4*start,
    ... while below cap, then cap itself.  A loop that exhausts the ladder
    raises PrecisionFailure.  Cached as a tuple: cmp_alpha_power runs twice
    per growth index and once per prop1 record that check-records re-checks,
    and a fresh generator per call added about 0.4 us to its 2-3 us
    (Python 3.11).  A start below 1 would never double past the cap, so it
    is refused."""
    if start < 1:
        raise ValueError("precision ladder needs start >= 1")
    ladder = [start]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    return tuple(ladder)


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
    """Numerator and denominator of an exact endpoint; a float, a string or
    any other value is refused, so nothing reaches an interval inexactly."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"an endpoint must be an int or a Fraction, "
                        f"not {type(v).__name__}")
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


def _product(x: "Enclosure", y: "Enclosure") -> tuple[int, int, int]:
    """The numerators and the denominator of x * y, by the sign rule and
    the shift that the module docstring states."""
    a, b, c, d = x._n0, x._n1, y._n0, y._n1
    e, f = x._d, y._d
    if not f & (f - 1):
        den = e << f.bit_length() - 1
    elif not e & (e - 1):
        den = f << e.bit_length() - 1
    else:
        den = e * f
    if a >= 0:
        if c >= 0:
            return a * c, b * d, den
        if d <= 0:
            return b * c, a * d, den
        return b * c, b * d, den
    if b <= 0:
        if c >= 0:
            return a * d, b * c, den
        if d <= 0:
            return b * d, a * c, den
        return a * d, a * c, den
    if c >= 0:
        return a * d, b * d, den
    if d <= 0:
        return b * c, a * c, den
    return min(a * d, b * c), max(a * c, b * d), den


def _square_ends(n0: int, n1: int) -> tuple[int, int]:
    """The numerators of [n0, n1]**2 over the squared denominator: from 0
    when the interval straddles 0."""
    a, b = n0 * n0, n1 * n1
    if n0 <= 0 <= n1:
        return 0, max(a, b)
    return (a, b) if a < b else (b, a)


def _scale_pow(b: int, d: int, k: int) -> int:
    """b * d**k, by a shift when d is a power of two."""
    if d & (d - 1):
        return b * d ** k
    return b << k * (d.bit_length() - 1)


def integer_combination(pairs) -> "Enclosure":
    """The exact enclosure of sum(n * e) over the (e, n) pairs, n integers.

    The sum is kept as two integer numerators over one denominator: n * e
    adds n * lo to the lower numerator for n >= 0 and n * hi for n < 0,
    and a new denominator is aligned as ``_align`` does, so terms over
    powers of two add up over the largest of them by shifts alone, in any
    order of the pairs.  A pair of weight 0 still counts towards the
    denominator."""
    lo = hi = 0
    d = 1
    for e, n in pairs:
        if n >= 0:
            a, b = e._n0 * n, e._n1 * n
        else:
            a, b = e._n1 * n, e._n0 * n
        if e._d != d:
            lo, hi, a, b, d = _align(lo, hi, d, a, b, e._d)
        lo += a
        hi += b
    return _enc(lo, hi, d)


def _add_rounded_product(total: "Enclosure", factor: "Enclosure",
                         x: "Enclosure", bits: int) -> "Enclosure":
    """total + (factor * x.rounded(bits)).rounded(bits) in one pass: the
    ends of x rounded by ``_round_int``, the product by ``_product``, its
    ends rounded again and added into the numerators of total, aligned as
    ``_align`` aligns a sum.  The numerators and the denominator are those
    of the chain of enclosure operations; only the rounded x is built."""
    q0, s0 = _round_int(*_reduced(x._n0, x._d), bits, False)
    q1, s1 = _round_int(*_reduced(x._n1, x._d), bits, True)
    lo, hi, d = _product(factor, _dyadic(q0, s0, q1, s1))
    q0, s0 = _round_int(*_reduced(lo, d), bits, False)
    q1, s1 = _round_int(*_reduced(hi, d), bits, True)
    s = max(s0, s1, 0)
    n0, n1, p0, p1, d = _align(total._n0, total._n1, total._d,
                               q0 << s - s0, q1 << s - s1, 1 << s)
    return _enc(n0 + p0, n1 + p1, d)


_new = object.__new__


def _enc(n0: int, n1: int, d: int) -> "Enclosure":
    """[n0/d, n1/d] without checks: d > 0 and n0 <= n1."""
    out = _new(Enclosure)
    out._n0 = n0
    out._n1 = n1
    out._d = d
    return out


def _scaled(x: "Enclosure", p: int, q: int) -> "Enclosure":
    """x * (p/q) for integers p >= 0 and q > 0, with no Fraction: the
    numerators times p over the denominator times q, which is what
    ``x * Fraction(p, q)`` gives when p/q is in lowest terms."""
    return _enc(x._n0 * p, x._n1 * p, x._d * q)


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
        n0, _, n1, _, d0 = _align(n0, n0, d0, n1, n1, d1)
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

    def definitely_lt(self, v: "Rat | Enclosure") -> bool:
        """True only if every value in the interval is < v, or < every
        value in v when v is an enclosure."""
        if type(v) is int:
            return self._n1 < v * self._d
        if type(v) is Enclosure:
            return self._n1 * v._d < v._n0 * self._d
        p, q = _num_den(v)
        return self._n1 * q < p * self._d

    def definitely_gt(self, v: "Rat | Enclosure") -> bool:
        """True only if every value in the interval is > v, or > every
        value in v when v is an enclosure."""
        if type(v) is int:
            return self._n0 > v * self._d
        if type(v) is Enclosure:
            return self._n0 * v._d > v._n1 * self._d
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
        """The exact product.  Of two enclosures, only the two end products
        that the signs of the ends select are formed, all four only when
        both straddle 0 (Moore's sign rule), and the denominators multiply
        by a shift when either is a power of two; the result is the
        min/max of all four over the product of the denominators."""
        if isinstance(other, Enclosure):
            return _enc(*_product(self, other))
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
        intervals to [0, max**2].  A power-of-two denominator is squared
        by a shift."""
        d = self._d
        return _enc(*_square_ends(self._n0, self._n1),
                    d * d if d & (d - 1) else d << d.bit_length() - 1)

    def cmp_abs_power(self, k: int, bound: "Enclosure") -> int:
        """-1 if |x|**k lies below every value of ``bound`` for every x in
        the interval, 1 if above, 0 if the enclosures leave it open.

        The largest |x| is tested for "below" first, the smallest for
        "above" only when that failed.  Each test is decided by bit
        lengths where they suffice (the module docstring says how), and
        otherwise by integer cross-multiplication of numerators, with only
        the endpoint the test reads raised to the k-th power.
        """
        n0, n1, d = self._n0, self._n1, self._d
        b0, b1, e = bound._n0, bound._n1, bound._d
        # for a >= 1, a**k * e lies in [2**(top - k - 1), 2**top) with
        # top = k*len(a) + len(e), and for b >= 1, b * d**k lies in
        # [2**(rhs - 1), 2**(rhs + dspan)) with rhs = len(b) + dlo, since
        # log2(d**k) lies in [dlo, dlo + dspan], exactly dlo for a power
        # of two.  dspan is taken only when top < rhs leaves the test open
        dlo = k * (d.bit_length() - 1)
        el = e.bit_length()
        if b0 > 0:
            # max(-n0, n1) is n1 when n0 >= 0, as for every magnitude;
            # the builtin call costs half of a decided comparison
            big = n1 if n0 >= 0 else max(-n0, n1)
            if not big:
                return -1
            top = k * big.bit_length() + el
            rhs = b0.bit_length() + dlo
            if top < rhs:
                return -1
            dspan = k if d & (d - 1) else 0
            if (top - k - 1 < rhs + dspan
                    and big ** k * e < _scale_pow(b0, d, k)):
                return -1
        least = n0 if n0 > 0 else -n1 if n1 < 0 else 0
        if b1 <= 0:
            return 1 if least or b1 else 0
        if not least:
            return 0
        top = k * least.bit_length() + el
        rhs = b1.bit_length() + dlo
        if top < rhs:
            return 0
        dspan = k if d & (d - 1) else 0
        if top - k - 1 >= rhs + dspan:
            return 1
        return 1 if least ** k * e > _scale_pow(b1, d, k) else 0

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


class _Frozen:
    """Base of the slotted value classes whose fields are set once, in
    ``__init__`` through ``object.__setattr__``: any later assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r}")


_set = object.__setattr__


class ComplexEnclosure(_Frozen):
    """Axis-aligned rectangle certified to contain an exact complex value.

    Equality and hashing go by value, and only against another
    ComplexEnclosure.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Enclosure, im: Enclosure):
        _set(self, "re", re)
        _set(self, "im", im)

    def __eq__(self, other):
        if type(other) is not ComplexEnclosure:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        return ComplexEnclosure, (self.re, self.im)

    @classmethod
    def point(cls, re: Rat, im: Rat = 0) -> "ComplexEnclosure":
        return cls(Enclosure.point(re), Enclosure.point(im))

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
            # re*re' - im*im' and re*im' + im*re', each part's two
            # products aligned as the sum or difference of enclosures
            a, b, c, d = self.re, self.im, other.re, other.im
            p0, p1, e = _product(a, c)
            q0, q1, f = _product(b, d)
            p0, p1, q0, q1, e = _align(p0, p1, e, q0, q1, f)
            re = _enc(p0 - q1, p1 - q0, e)
            p0, p1, e = _product(a, d)
            q0, q1, f = _product(b, c)
            p0, p1, q0, q1, e = _align(p0, p1, e, q0, q1, f)
            return ComplexEnclosure(re, _enc(p0 + q0, p1 + q1, e))
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


def affine_abs(x: Enclosure, w: ComplexEnclosure, m: int,
               c: int) -> tuple[Enclosure, Enclosure]:
    """|m*x - c| and |m*w - c|**2 for integers m and c, in one pass over
    the numerators: the enclosures that ``(x * m - c).abs()`` and
    ``(w * m - c).abs2()`` give, with no intermediate enclosure or
    rectangle.  Each part of m*w - c is squared inline, from 0 when it
    straddles 0; the two squares meet over one denominator as ``_align``
    puts them, by a shift when both parts' denominators are powers of
    two."""
    n0, n1, d = x._n0, x._n1, x._d
    re, im = w.re, w.im
    p0, p1, e = re._n0, re._n1, re._d
    q0, q1, f = im._n0, im._n1, im._d
    if m < 0:
        n0, n1, p0, p1, q0, q1 = n1, n0, p1, p0, q1, q0
    cd = c * d
    r0, r1 = n0 * m - cd, n1 * m - cd
    if r0 >= 0:
        real = _enc(r0, r1, d)
    elif r1 <= 0:
        real = _enc(-r1, -r0, d)
    else:
        real = _enc(0, max(-r0, r1), d)
    ce = cd if e == d else c * e
    r0, r1 = p0 * m - ce, p1 * m - ce
    if r0 >= 0:
        a0, a1 = r0 * r0, r1 * r1
    elif r1 <= 0:
        a0, a1 = r1 * r1, r0 * r0
    else:
        a0, a1 = 0, max(-r0, r1) ** 2
    r0, r1 = q0 * m, q1 * m
    if r0 >= 0:
        b0, b1 = r0 * r0, r1 * r1
    elif r1 <= 0:
        b0, b1 = r1 * r1, r0 * r0
    else:
        b0, b1 = 0, max(-r0, r1) ** 2
    if e == f:
        den = e * e
    elif not (e & (e - 1) or f & (f - 1)):
        k = 2 * (f.bit_length() - e.bit_length())
        if k > 0:
            a0, a1, den = a0 << k, a1 << k, f * f
        else:
            b0, b1, den = b0 << -k, b1 << -k, e * e
    else:
        ee, ff = e * e, f * f
        a0, a1, b0, b1, den = a0 * ff, a1 * ff, b0 * ee, b1 * ee, ee * ff
    return real, _enc(a0 + b0, a1 + b1, den)


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
