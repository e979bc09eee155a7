"""Truncated series for the inverted value u and its measured error.

A solution at indices x < y < z forces u = sqrt((T_x-1)(T_y-1)/(T_z-1)).
Each factor splits through the closed form as T_n - 1 = a*alpha^n*(1 + d_n)
with

    d_n = (a1 + b1*beta^n + c1*gamma^n) / alpha^n,
    a1 = -1/a,  b1 = b/a,  c1 = c/a,

so u = sqrt(a) * alpha^((x+y-z)/2) * (1+d_x)^(1/2) (1+d_y)^(1/2)
(1+d_z)^(-1/2).  Expanding the three binomial factors to a truncation
order turns the product into a finite sum of monomials

    q * a1^pa b1^pb c1^pc * alpha^(A.v) beta^(B.v) gamma^(C.v),
    v = (x, y, z),

with exact rational q, A componentwise <= 0 and B, C componentwise >= 0.
Every q is a product of binomials binom(+-1/2, k) and multinomials, with
4^k binom(1/2, k) and 4^k binom(-1/2, k) integers, so the terms are built
and kept in integers as q * Q_SCALE, with no Fraction arithmetic.
Since |beta| = |gamma| = alpha^(-1/2) and x <= y <= z, a monomial's
magnitude is at most alpha^((sum A - (sum B + sum C)/2) * x); monomials
where that ceiling drops below alpha^(-(order+1)*x) are discarded.  The cut
is monotone in the order, so each order keeps the previous order's
monomials plus a new shell.

Because c1 = conj(b1) and gamma = conj(beta), a monomial is
q * R(pa, A.v) * P(pb, B.v) * conj(P(pc, C.v)) with the real table
R(p, m) = a1^p alpha^m and the complex table P(p, m) = b1^p beta^m.  The
evaluation groups the kept monomials at v by (pb, B.v, pc, C.v) and sums
their exact q by (pa, A.v) inside each group, so interval work is spent
only on the two small tables and on one product per group.  A group's
inner sum, the R(pa, A.v) weighted by their integer q * Q_SCALE, is an
exact integer combination: integer numerators summed over the largest
power-of-two denominator of its entries, the same rational that a chain of
enclosure products and sums gives.
The table entries depend on (p, m) and the precision alone, so they are
memoised per precision in bounded caches that every order and every
triple shares: a decay report builds each entry once, not once per order.
So is each mirror pair's rounded real factor (``_pair_factor``).

Swapping B with C maps the kept set onto itself with equal q, so every
group has a mirror (pc, C.v, pb, B.v) with identical exact inner sums.
This is checked exactly, and the pair then adds up to the real number
2 * Re(P_b * conj(P_c)) * (inner sum); the kept sum is real by
construction rather than by an interval straddling the real axis.

The kept terms of order t are those of order t - 1 followed by a shell,
so the exact group weights are carried from order to order rather than
summed again (``_GroupSums``): a bounded memo keyed by (x, y, z) keeps
each group's exact (pa, A.v) weights, and order t adds only its shell.
The weights do not depend on the precision, so one entry serves every
precision a caller climbs to.  Each order then sums each group it reads
once, as one ``integer_combination`` of the real factors at their
weights, and rounds it as before; over power-of-two denominators an
integer combination is fixed by its entries and weights alone, so every
enclosure is bit-identical to summing the whole group afresh.  A memo
entry is used only while the kept terms asked for start with the terms
it has summed; otherwise, as for a lower order or a patched
``expansion_terms``, the sums start afresh.  The enclosures of u and of
the prefactor sqrt(a) * alpha^((x+y-z)/2) are taken once per (x, y, z,
bits).

The error of the truncation is not estimated a priori: it is the measured
gap |u - truncation|, both sides evaluated in certified interval
arithmetic tight enough to order consecutive errors.  ``expansion_error``
keeps its last MAX_ORDER + 1 results, keyed by all six of its arguments,
which every caller here passes positionally, so the record checker,
reading orders t and t - 1 of each record of one triple, computes each
order once.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from .constants import (DEFAULT_PRECISION, MAX_PRECISION, alpha_power,
                        beta_power, constants)
from .enclosure import (ComplexEnclosure, Enclosure, PrecisionFailure,
                        integer_combination, precision_ladder)
from .tribonacci import trib

MAX_ORDER = 8
# Every q is dyadic with a denominator dividing 4^(k1+k2+k3), and
# k1 + k2 + k3 <= order + 1, so q * Q_SCALE is an integer at every order.
Q_SCALE = 4 ** (MAX_ORDER + 1)


class ExpansionTerm(NamedTuple):
    """One kept monomial: q * a1^pa b1^pb c1^pc * alpha^(a_vec.v)
    beta^(b_vec.v) gamma^(c_vec.v) with v = (x, y, z), where pb = sum
    b_vec, pc = sum c_vec and pa = -sum a_vec - pb - pc.  The exact q is
    held as the integer q_scaled = q * Q_SCALE."""

    q_scaled: int
    a_vec: tuple[int, int, int]
    b_vec: tuple[int, int, int]
    c_vec: tuple[int, int, int]


class ExpansionParams(NamedTuple):
    """The truncation order, every kept term, and the powers a1^p and b1^p
    (a1 = -1/a, b1 = b/a) for p = 0..order+1, enclosed at the working
    precision.  Terms are index-free: the integer vectors get dotted with
    (x, y, z) at evaluation time."""

    order: int
    terms: tuple[ExpansionTerm, ...]
    a1_pows: tuple[Enclosure, ...]
    b1_pows: tuple[ComplexEnclosure, ...]


def _splits(k: int, mixed: int) -> tuple[tuple[int, int, int], ...]:
    """Every (nb, nc, k! / (na! nb! nc!)) with na + nb + nc = k and
    nb + nc = mixed, in increasing nb."""
    return tuple((nb, mixed - nb, factorial(k) // (
        factorial(k - mixed) * factorial(nb) * factorial(mixed - nb)))
        for nb in range(mixed + 1))


_SPLITS = tuple(tuple(_splits(k, mixed) for mixed in range(k + 1))
                for k in range(MAX_ORDER + 1))
# 4^k binom(1/2, k) = (-1)^(k-1) C(2k, k) / (2k - 1) for k >= 1 (twice a
# Catalan number) and 4^k binom(-1/2, k) = (-1)^k C(2k, k): both integers
_HALF = (1,) + tuple((-1) ** (k - 1) * comb(2 * k, k) // (2 * k - 1)
                     for k in range(1, MAX_ORDER + 1))
_NEG_HALF = tuple((-1) ** k * comb(2 * k, k) for k in range(MAX_ORDER + 1))


@lru_cache(maxsize=None)
def _symbolic_terms(order: int) -> tuple[ExpansionTerm, ...]:
    """Exact kept terms: those of order - 1, then the new shell.

    Outer powers (k1, k2, k3) each run to the truncation order; with m the
    mixed count sum B + sum C, a monomial survives when
    2*(k1+k2+k3) + m <= 2*order + 2, the integer form of the
    magnitude-ceiling cut.  Order - 1 kept exactly the monomials with every
    k below the order and 2*(k1+k2+k3) + m <= 2*order, so the shell is
    the rest.  A term's q is binom(1/2, k1) binom(1/2, k2) binom(-1/2, k3)
    times three multinomials, so q * Q_SCALE is the product of the scaled
    half-binomials, 4^(MAX_ORDER + 1 - k1 - k2 - k3) and the multinomials,
    all integers.
    """
    out = list(_symbolic_terms(order - 1)) if order else []
    for k1 in range(order + 1):
        for k2 in range(min(order, order + 1 - k1) + 1):
            for k3 in range(min(order, order + 1 - k1 - k2) + 1):
                room = 2 * (order + 1 - k1 - k2 - k3)
                least = 0 if order in (k1, k2, k3) else room - 1
                scale = (_HALF[k1] * _HALF[k2] * _NEG_HALF[k3]
                         << 2 * (MAX_ORDER + 1 - k1 - k2 - k3))
                a_vec = (-k1, -k2, -k3)
                for m1, m2, m3 in product(range(k1 + 1), range(k2 + 1),
                                          range(k3 + 1)):
                    if not least <= m1 + m2 + m3 <= room:
                        continue
                    for (b1, c1, w1), (b2, c2, w2), (b3, c3, w3) in product(
                            _SPLITS[k1][m1], _SPLITS[k2][m2],
                            _SPLITS[k3][m3]):
                        out.append(ExpansionTerm(scale * w1 * w2 * w3, a_vec,
                                                 (b1, b2, b3), (c1, c2, c3)))
    return tuple(out)


@lru_cache(maxsize=8)
def _coefficient_powers(bits: int) -> tuple[tuple[Enclosure, ...],
                                            tuple[ComplexEnclosure, ...]]:
    """a1^p and b1^p (a1 = -1/a, b1 = b/a) for p = 0..MAX_ORDER+1 at one
    working precision; every order takes a prefix."""
    cs = constants(bits)
    work = bits + 32
    a1 = -cs.a.inv().rounded(work)
    b1 = (cs.b / cs.a).rounded(work)
    # pa, pb and pc never exceed k1 + k2 + k3 <= MAX_ORDER + 1
    a1_pows = [Enclosure.point(1)]
    b1_pows = [ComplexEnclosure.point(1)]
    for _ in range(MAX_ORDER + 1):
        a1_pows.append((a1_pows[-1] * a1).rounded(work))
        b1_pows.append((b1_pows[-1] * b1).rounded(work))
    return tuple(a1_pows), tuple(b1_pows)


@lru_cache(maxsize=64)
def expansion_terms(order: int,
                    precision_bits: int = DEFAULT_PRECISION) -> ExpansionParams:
    """All kept terms at the given truncation order, with the a1 and b1
    powers they need enclosed at the given working precision."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must lie in 0..{MAX_ORDER}")
    a1_pows, b1_pows = _coefficient_powers(precision_bits)
    return ExpansionParams(order, _symbolic_terms(order),
                           a1_pows[:order + 2], b1_pows[:order + 2])


# The factor tables R(p, m) and P(p, m) depend on (p, m, bits) alone, so
# every order and every triple at one precision shares them.  Orders 0..8
# at (51, 99, 100) read about 1700 entries of R and 200 of P.
FACTOR_CACHE_SIZE = 4096


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _real_factor(p: int, m: int, bits: int) -> Enclosure:
    """R(p, m) = a1^p alpha^m."""
    return (_coefficient_powers(bits)[0][p]
            * alpha_power(m, bits)).rounded(bits + 32)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _complex_factor(p: int, m: int, bits: int) -> ComplexEnclosure:
    """P(p, m) = b1^p beta^m."""
    return (_coefficient_powers(bits)[1][p]
            * beta_power(m, bits)).rounded(bits + 32)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _pair_factor(pb: int, mb: int, pc: int, mc: int,
                 bits: int) -> Enclosure:
    """The real factor of a group (pb, mb, pc, mc) and its mirror (pc, mc,
    pb, mb) together, rounded: 2 * Re(P(pb, mb) * conj(P(pc, mc))), or
    |P(pb, mb)|**2 for a group that is its own mirror."""
    p_b = _complex_factor(pb, mb, bits)
    if (pb, mb) == (pc, mc):
        re_part = p_b.abs2()
    else:
        p_c = _complex_factor(pc, mc, bits)
        re_part = p_b.re * p_c.re + p_b.im * p_c.im
        re_part = re_part + re_part
    return re_part.rounded(bits + 32)


class _GroupSums:
    """The kept terms summed so far at one (x, y, z).  The terms at
    v = (x, y, z) are grouped by (pb, B.v, pc, C.v); each group maps to
    its exact weights, (pa, A.v) to the sum of its q scaled by Q_SCALE."""

    __slots__ = ("kept", "groups")

    def __init__(self):
        self.kept: tuple[ExpansionTerm, ...] = ()
        self.groups: dict = {}

    def extend(self, terms, v: tuple[int, int, int]) -> None:
        """Add the terms past the kept prefix, which terms must start
        with, each to its weight."""
        x, y, z = v
        groups = self.groups
        for n, (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) in terms[
                len(self.kept):]:
            pb, pc = b0 + b1 + b2, c0 + c1 + c2
            key = (pb, b0 * x + b1 * y + b2 * z, pc, c0 * x + c1 * y + c2 * z)
            weights = groups.get(key)
            if weights is None:
                weights = groups[key] = {}
            entry = (-a0 - a1 - a2 - pb - pc, a0 * x + a1 * y + a2 * z)
            weights[entry] = weights.get(entry, 0) + n
        self.kept = terms


class _SumsMemo:
    """A bounded, locked map from (x, y, z) to ``_GroupSums``.

    A caller takes an entry out, extends it and puts it back, so no
    caller sees an entry half extended, and one whose extension raises
    leaves none behind.  Of two entries for one key the one with more
    kept terms stays; past ``maxsize`` keys the oldest goes.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def take(self, key) -> _GroupSums | None:
        with self._lock:
            return self._entries.pop(key, None)

    def put(self, key, sums: _GroupSums) -> None:
        with self._lock:
            held = self._entries.pop(key, None)
            if held is not None and len(held.kept) > len(sums.kept):
                sums = held
            self._entries[key] = sums
            while len(self._entries) > self.maxsize:
                del self._entries[next(iter(self._entries))]

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


# The weights are exact, so a decay report, or check-records on one
# triple, reads one key whatever precision it climbs to.
TRUNCATION_SUMS_SIZE = 8
_truncation_sums = _SumsMemo(TRUNCATION_SUMS_SIZE)


@lru_cache(maxsize=TRUNCATION_SUMS_SIZE)
def _anchors(x: int, y: int, z: int, bits: int) -> tuple[Enclosure,
                                                          Enclosure]:
    """u = sqrt((T_x-1)(T_y-1)/(T_z-1)) and the prefactor
    sqrt(a) * alpha^((x+y-z)/2), each enclosed at bits + 32."""
    work = bits + 32
    ratio = Fraction((trib(x) - 1) * (trib(y) - 1), trib(z) - 1)
    u = Enclosure.point(ratio).sqrt(work)
    prefactor = (constants(bits).a.sqrt(work)
                 * alpha_power(x + y - z, bits).sqrt(work))
    return u, prefactor


def _truncation_value(x: int, y: int, z: int, order: int,
                      bits: int) -> Enclosure:
    """Enclosure of sqrt(a) * alpha^((x+y-z)/2) * (kept-term sum).

    Raises ArithmeticError unless every group of terms has a mirror with
    the same exact inner sums, which is what makes the sum real.
    """
    work = bits + 32
    memo_key = (x, y, z)
    terms = expansion_terms(order, bits).terms
    sums = _truncation_sums.take(memo_key)
    if sums is None or terms[:len(sums.kept)] != sums.kept:
        if sums is not None:
            _truncation_sums.put(memo_key, sums)
        sums = _GroupSums()
    sums.extend(terms, memo_key)
    groups = sums.groups
    total = Enclosure.point(0)
    for key, weights in groups.items():
        pb, mb, pc, mc = key
        mirror = (pc, mc, pb, mb)
        if groups.get(mirror) != weights:
            raise ArithmeticError(
                f"kept-term sum failed to be real: group {key} has no "
                "mirror with the same exact coefficients")
        if mirror < key:
            continue  # added with its mirror
        inner = integer_combination((_real_factor(pa, ma, bits), n)
                                    for (pa, ma), n in weights.items())
        total = total + (_pair_factor(pb, mb, pc, mc, bits)
                         * inner.rounded(work)).rounded(work)
    _truncation_sums.put(memo_key, sums)
    prefactor = _anchors(x, y, z, bits)[1]
    return (total * prefactor * Fraction(1, Q_SCALE)).rounded(work)


@lru_cache(maxsize=MAX_ORDER + 1)
def expansion_error(x: int, y: int, z: int, order: int,
                    precision_bits: int = DEFAULT_PRECISION,
                    max_precision_bits: int = MAX_PRECISION) -> Enclosure:
    """Measured gap |u - truncation| with u = sqrt((T_x-1)(T_y-1)/(T_z-1))
    as a real number.

    Precision is raised until the gap is bounded away from zero with
    relative width below 2^-12, so consecutive orders can be compared;
    reaching max_precision_bits first raises PrecisionFailure.
    """
    if not (5 <= x < y < z and x + y > z):
        raise ValueError("need 5 <= x < y < z with x + y > z")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must lie in 0..{MAX_ORDER}")
    for bits in precision_ladder(precision_bits, max_precision_bits):
        u_real = _anchors(x, y, z, bits)[0]
        gap = (u_real - _truncation_value(x, y, z, order, bits)).abs()
        if gap.is_positive() and (gap.hi - gap.lo) * 4096 <= gap.lo:
            return gap
    raise PrecisionFailure(
        f"truncation gap at order {order} not resolved within {bits} bits")


def _pow12(e: Enclosure) -> Enclosure:
    sq = e.square()
    four = sq.square()
    return four.square() * four


class DecayReport(NamedTuple):
    """Errors at orders 0..order_max plus pairwise verdicts.

    decreasing[i] certifies error(i+2) < error(i+1); ratio_ok[i] certifies
    error(i+2)/error(i+1) <= 2*alpha^(-x/12), checked in 12th powers to
    keep the exponent integral.
    """

    x: int
    y: int
    z: int
    order_max: int
    errors: tuple[Enclosure, ...]
    decreasing: tuple[bool, ...]
    ratio_ok: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.decreasing) and all(self.ratio_ok)

    def __bool__(self) -> bool:
        return self.all_ok


def decay_report(x: int, y: int, z: int, order_max: int = 6,
                 precision_bits: int = DEFAULT_PRECISION,
                 max_precision_bits: int = MAX_PRECISION) -> DecayReport:
    """Errors at every order up to order_max and decay verdicts over the
    orders 1..order_max."""
    if order_max < 2:
        raise ValueError("need order_max >= 2 to compare consecutive errors")
    errors = tuple(expansion_error(x, y, z, t, precision_bits,
                                   max_precision_bits)
                   for t in range(order_max + 1))
    decreasing, ratio_ok = decay_verdicts(x, errors[1:], precision_bits)
    return DecayReport(x, y, z, order_max, errors, decreasing, ratio_ok)


def decay_verdicts(x: int, errors, precision_bits: int = DEFAULT_PRECISION
                   ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Verdicts on each pair of consecutive errors: decreasing[i]
    certifies errors[i+1] < errors[i], ratio_ok[i] certifies
    errors[i+1]/errors[i] <= 2*alpha^(-x/12) in 12th powers.

    Nothing here refines, so no precision cap applies: alpha^(-x) is
    enclosed once at precision_bits, and a verdict the enclosures leave
    open is False.
    """
    bound = alpha_power(-x, precision_bits) * 4096
    decreasing = []
    ratio_ok = []
    for cur, nxt in zip(errors, errors[1:]):
        decreasing.append(nxt.definitely_lt(cur))
        rhs = bound * _pow12(cur)
        ratio_ok.append(_pow12(nxt).definitely_lt(rhs))
    return tuple(decreasing), tuple(ratio_ok)
