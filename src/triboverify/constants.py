"""Certified enclosures for the roots of x**3 = x**2 + x + 1.

The cubic has one real root alpha = 1.839286... and a conjugate pair beta,
gamma with |beta| = alpha**(-1/2).  This module isolates alpha by exact sign
changes of the integer-scaled polynomial, so the bracket [a/2**k, (a+1)/2**k]
is a proof, not a float artifact, and derives rectangles for beta and gamma
and for the coefficients of the closed form of the sequence:

    a = alpha / (alpha**2 + 2*alpha + 3),   b = 1/((beta-alpha)*(beta-gamma)),

with c the conjugate of b.  Every cached constant is dyadic: its endpoints
sit over a power of two, at about precision + 32 bits, so the exact
arithmetic built on them stays at that size.  Powers alpha**p and beta**k
are memoised per precision (``alpha_power``, ``beta_power``).  On top of
the enclosures sit certified integer comparisons against powers of alpha
(``cmp_alpha_power``) and the two checkable numeric claims:
``verify_numeric_window`` for the decimal windows of the constants and
``verify_growth`` for alpha**(n-3) <= T_n <= alpha**(n-2).
"""

from __future__ import annotations

import threading
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

from .enclosure import (ComplexEnclosure, Enclosure, PrecisionFailure,
                        precision_ladder)

DEFAULT_PRECISION = 192
MIN_PRECISION = 8
MAX_PRECISION = 65536

# float seed for first guesses only; every decision goes through enclosures
_ALPHA_SEED = 1.8392867552141612


class Cmp(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


# reading a member off an Enum class costs about 0.2 us (Python 3.11), as
# much as the integer comparison that decides a prop1 pair
_GREATER, _LESS = Cmp.GREATER, Cmp.LESS


def _cubic_sign(num: int, k: int) -> int:
    """Sign of f(num / 2**k) for f(t) = t**3 - t**2 - t - 1, computed in
    integers (value scaled by 8**k)."""
    v = num * num * num - ((num * num) << k) - (num << (2 * k)) - (1 << (3 * k))
    return (v > 0) - (v < 0)


def _alpha_bracket(bits: int) -> Enclosure:
    """Dyadic bracket of width 2**-bits around the real root, certified by a
    sign change of the exact polynomial at both endpoints."""
    # Newton in exact rationals, truncated each step to keep numerators
    # small; `correct` tracks a conservative count of converged bits
    x = Fraction(_ALPHA_SEED)
    correct = 40
    target = bits + 12
    while correct < target:
        work = 2 * correct + 16
        fx = x * x * x - x * x - x - 1
        dfx = 3 * x * x - 2 * x - 1
        x = x - fx / dfx
        x = Fraction((x.numerator << work) // x.denominator, 1 << work)
        correct = 2 * correct - 4
    a = (x.numerator << bits) // x.denominator
    steps = 0
    while _cubic_sign(a, bits) > 0:
        a -= 1
        steps += 1
        if steps > 64:
            raise PrecisionFailure("root bracket walk diverged")
    while _cubic_sign(a + 1, bits) <= 0:
        a += 1
        steps += 1
        if steps > 64:
            raise PrecisionFailure("root bracket walk diverged")
    # f(a/2**k) < 0 < f((a+1)/2**k) and f is increasing here
    return Enclosure(Fraction(a, 1 << bits), Fraction(a + 1, 1 << bits))


class RealConstants(NamedTuple):
    """Enclosures for the three roots and the closed-form coefficients.

    gamma and c are componentwise conjugates of beta and b.  Every enclosure
    has width at most 2**-precision_bits and dyadic endpoints at about
    precision_bits + 32 bits: alpha and beta come out dyadic, and a and b
    are rounded outward onto that grid.
    """

    precision_bits: int
    alpha: Enclosure
    beta: ComplexEnclosure
    gamma: ComplexEnclosure
    a: Enclosure
    b: ComplexEnclosure
    c: ComplexEnclosure


# The caches below take a lock only to add an entry, as
# ``tribonacci.TribTable`` and ``triples.SearchSweep`` do: an entry is built
# in full under the lock and only then stored, so a read that finds it takes
# no lock, and a read that misses takes the lock and looks again.
_constants_cache: dict[int, RealConstants] = {}
_constants_lock = threading.Lock()


def constants(precision_bits: int = DEFAULT_PRECISION) -> RealConstants:
    if precision_bits < MIN_PRECISION:
        raise ValueError("precision_bits too small")
    hit = _constants_cache.get(precision_bits)
    if hit is None:
        with _constants_lock:
            hit = _constants_cache.get(precision_bits)
            if hit is None:
                hit = _constants_cache[precision_bits] = _build_constants(
                    precision_bits)
    return hit


def _build_constants(bits: int) -> RealConstants:
    guard = 32
    tol = Fraction(1, 1 << bits)
    while True:
        work = bits + guard
        alpha = _alpha_bracket(work)
        # beta = (1-alpha)/2 + i*sqrt(1/alpha - ((1-alpha)/2)**2), because
        # beta+gamma = 1-alpha and beta*gamma = |beta|**2 = 1/alpha
        re_b = (1 - alpha) * Fraction(1, 2)
        im_b = (alpha.inv() - re_b.square()).sqrt(work)
        beta = ComplexEnclosure(re_b, im_b)
        gamma = beta.conj()
        # a and b come out over non-dyadic denominators of thousands of
        # bits; round them onto the grid of alpha and beta
        a = (alpha / (alpha.square() + 2 * alpha + 3)).rounded(work)
        denom = (beta - alpha) * ComplexEnclosure(Enclosure.point(0), im_b * 2)
        b = denom.inv().rounded(work)
        c = b.conj()
        widths = [alpha.width(), a.width(), re_b.width(), im_b.width(),
                  b.re.width(), b.im.width()]
        if max(widths) <= tol:
            return RealConstants(bits, alpha, beta, gamma, a, b, c)
        guard *= 2
        if bits + guard > 4 * MAX_PRECISION:
            raise PrecisionFailure("could not meet width target")


class _PowerTable:
    """alpha**p and beta**k enclosures, extended on demand, one table per
    precision."""

    def __init__(self, bits: int):
        self.bits = bits
        base = constants(bits)
        self.lock = threading.Lock()
        self.pos = [Enclosure.point(1), base.alpha]
        self.neg = [Enclosure.point(1), base.alpha.inv().rounded(bits + 32)]
        # beta**(2**j), each the rounded square of the last
        self.beta_squares = [base.beta]
        self.beta: dict[int, ComplexEnclosure] = {0: ComplexEnclosure.point(1)}

    def power(self, p: int) -> Enclosure:
        tab, k = (self.pos, p) if p >= 0 else (self.neg, -p)
        if k < len(tab):
            return tab[k]
        with self.lock:
            if k < len(tab):
                return tab[k]
            step = tab[1]
            cur = tab[-1]
            while len(tab) <= k:
                cur = (cur * step).rounded(self.bits + 32)
                tab.append(cur)
            return tab[k]

    def beta_power(self, k: int) -> ComplexEnclosure:
        """beta**k by square-and-multiply, low bits first: the product over
        the bits of k below j is beta**(k mod 2**j), so every prefix is
        itself a memoised power and each new power costs one product."""
        hit = self.beta.get(k)
        if hit is not None:
            return hit
        work = self.bits + 32
        with self.lock:
            hit = self.beta.get(k)
            if hit is not None:
                return hit
            squares = self.beta_squares
            while len(squares) < k.bit_length():
                squares.append(squares[-1].square().rounded(work))
            out = self.beta[0]
            low = 0
            for j in range(k.bit_length()):
                if k >> j & 1:
                    low |= 1 << j
                    nxt = self.beta.get(low)
                    if nxt is None:
                        nxt = self.beta[low] = (out * squares[j]).rounded(work)
                    out = nxt
            return out


_power_tables: dict[int, _PowerTable] = {}
_power_lock = threading.Lock()


def _power_table(precision_bits: int) -> _PowerTable:
    tab = _power_tables.get(precision_bits)
    if tab is None:
        with _power_lock:
            tab = _power_tables.get(precision_bits)
            if tab is None:
                tab = _power_tables[precision_bits] = _PowerTable(
                    precision_bits)
    return tab


def alpha_power(p: int, precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of alpha**p for any integer p."""
    return _power_table(precision_bits).power(p)


def beta_power(k: int,
               precision_bits: int = DEFAULT_PRECISION) -> ComplexEnclosure:
    """Enclosure of beta**k for k >= 0, memoised per precision.

    Built by repeated squaring with every product rounded at
    precision_bits + 32, never as a chain of k products: multiplying a
    rectangle by a rotation can widen it by sqrt(2) relative to its value
    (the wrapping effect), so a chain loses about half a bit per step of k
    while squaring takes O(log k) products.  Gamma**k is the conjugate.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _power_table(precision_bits).beta_power(k)


def cmp_alpha_power(p: int, n: int,
                    precision_bits: int = DEFAULT_PRECISION,
                    max_precision_bits: int = MAX_PRECISION) -> Cmp:
    """Certified comparison of alpha**p against the positive integer n.

    Equality happens only in the degenerate case alpha**0 = 1: for p != 0
    the power is irrational, so the adaptive loop always terminates with a
    strict answer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Cmp(0 if p == 0 else (1 if p > 0 else -1))
    if p == 0:
        return _LESS  # 1 < n
    for bits in precision_ladder(precision_bits, max_precision_bits):
        enc = alpha_power(p, bits)
        if enc.definitely_lt(n):
            return _LESS
        if enc.definitely_gt(n):
            return _GREATER
    raise PrecisionFailure(
        f"cmp_alpha_power({p}, {n}) unresolved at "
        f"{max_precision_bits} bits")


class WindowCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


class WindowReport(NamedTuple):
    precision_bits: int
    checks: tuple[WindowCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_numeric_window(precision_bits: int = 96) -> WindowReport:
    """Check the standard decimal windows for the constants.

    Verified claims, each decided from enclosures of width <= 2**-64:
    1.83 < alpha < 1.84; 0.73 < |beta| < 0.74; |beta|**2 agrees with 1/alpha
    (enclosure intersection); 0.18 < a < 0.19; 0.35 < |b| = |c| < 0.36.
    """
    bits = max(precision_bits, 96)
    cs = constants(bits)
    tol = Fraction(1, 1 << 64)
    checks = []

    def window(name: str, enc: Enclosure, lo: Fraction, hi: Fraction):
        ok = enc.width() <= tol and enc.lo > lo and enc.hi < hi
        checks.append(WindowCheck(
            name, ok,
            f"[{float(enc.lo):.15f}, {float(enc.hi):.15f}] vs ({lo}, {hi})"))

    window("alpha_window", cs.alpha, Fraction(183, 100), Fraction(184, 100))
    babs = cs.beta.abs(bits)
    window("beta_abs_window", babs, Fraction(73, 100), Fraction(74, 100))

    babs2 = cs.beta.abs2()
    inva = cs.alpha.inv()
    ok = (babs2.width() <= tol and inva.width() <= tol
          and babs2.intersects(inva))
    checks.append(WindowCheck(
        "beta_abs_is_alpha_inv_sqrt", ok,
        f"|beta|^2 in [{float(babs2.lo):.18f}, {float(babs2.hi):.18f}], "
        f"1/alpha in [{float(inva.lo):.18f}, {float(inva.hi):.18f}]"))

    window("a_window", cs.a, Fraction(18, 100), Fraction(19, 100))
    window("b_abs_window", cs.b.abs(bits), Fraction(35, 100), Fraction(36, 100))
    cabs = cs.c.abs(bits)
    window("c_abs_window", cabs, Fraction(35, 100), Fraction(36, 100))

    conj_ok = (cs.gamma.re == cs.beta.re and cs.gamma.im == -cs.beta.im
               and cs.c.re == cs.b.re and cs.c.im == -cs.b.im)
    checks.append(WindowCheck("conjugate_pairs", conj_ok,
                              "gamma, c are componentwise conjugates"))
    return WindowReport(bits, tuple(checks))


class GrowthReport(NamedTuple):
    n_max: int
    checked: int
    failures: tuple[tuple[int, str], ...] = ()

    @property
    def all_ok(self) -> bool:
        return not self.failures


def verify_growth(n_max: int, precision_bits: int = DEFAULT_PRECISION,
                  max_precision_bits: int = MAX_PRECISION) -> GrowthReport:
    """Certify alpha**(n-3) <= T_n <= alpha**(n-2) for 2 <= n <= n_max.

    Both inequalities are non-strict: they hold with equality at n = 2
    (upper) and n = 3 (lower) where T_n = 1.
    """
    from .tribonacci import trib  # deferred to avoid an import cycle

    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        t = trib(n)
        lower = cmp_alpha_power(n - 3, t, precision_bits,
                                max_precision_bits)
        if lower == _GREATER:
            failures.append((n, "lower"))
        upper = cmp_alpha_power(n - 2, t, precision_bits,
                                max_precision_bits)
        if upper == _LESS:
            failures.append((n, "upper"))
        checked += 1
    return GrowthReport(n_max, checked, tuple(failures))
