"""Certified enclosures for the roots of x**3 = x**2 + x + 1.

The cubic has one real root alpha = 1.839286... and a conjugate pair beta,
gamma with |beta| = alpha**(-1/2).  This module isolates alpha by exact sign
changes of the integer-scaled polynomial, so the bracket [a/2**k, (a+1)/2**k]
is a proof, not a float artifact, and derives rectangles for beta and gamma
and for the coefficients of the closed form of the sequence:

    a = alpha / (alpha**2 + 2*alpha + 3),   b = 1/((beta-alpha)*(beta-gamma)),

with c the conjugate of b.  On top of the enclosures sit certified integer
comparisons against powers of alpha (``cmp_alpha_power``), a certified
floor-log (``floor_log_alpha``), and the two checkable numeric claims:
``verify_numeric_window`` for the decimal windows of the constants and
``verify_growth`` for alpha**(n-3) <= T_n <= alpha**(n-2).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from .enclosure import ComplexEnclosure, Enclosure, PrecisionFailure

DEFAULT_PRECISION = 192
MAX_PRECISION = 65536

# float seed for first guesses only; every decision goes through enclosures
_ALPHA_SEED = 1.8392867552141612
_LN_ALPHA = math.log(_ALPHA_SEED)


class Cmp(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


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


@dataclass(frozen=True)
class RealConstants:
    """Enclosures for the three roots and the closed-form coefficients.

    gamma and c are componentwise conjugates of beta and b.  Every enclosure
    has width at most 2**-precision_bits.
    """

    precision_bits: int
    alpha: Enclosure
    beta: ComplexEnclosure
    gamma: ComplexEnclosure
    a: Enclosure
    b: ComplexEnclosure
    c: ComplexEnclosure


_constants_cache: dict[int, RealConstants] = {}
_constants_lock = threading.Lock()


def constants(precision_bits: int = DEFAULT_PRECISION) -> RealConstants:
    if precision_bits < 8:
        raise ValueError("precision_bits too small")
    with _constants_lock:
        hit = _constants_cache.get(precision_bits)
    if hit is not None:
        return hit
    built = _build_constants(precision_bits)
    with _constants_lock:
        _constants_cache[precision_bits] = built
    return built


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
        a = alpha / (alpha.square() + 2 * alpha + 3)
        denom = (beta - alpha) * ComplexEnclosure(Enclosure.point(0), im_b * 2)
        b = denom.inv()
        c = b.conj()
        widths = [alpha.width(), a.width(), re_b.width(), im_b.width(),
                  b.re.width(), b.im.width()]
        if max(widths) <= tol:
            return RealConstants(bits, alpha, beta, gamma, a, b, c)
        guard *= 2
        if bits + guard > 4 * MAX_PRECISION:
            raise PrecisionFailure("could not meet width target")


class _PowerTable:
    """alpha**p enclosures, extended on demand, one table per precision."""

    def __init__(self, bits: int):
        self.bits = bits
        base = constants(bits)
        self.lock = threading.Lock()
        self.pos = [Enclosure.point(1), base.alpha]
        self.neg = [Enclosure.point(1), base.alpha.inv().rounded(bits + 32)]

    def power(self, p: int) -> Enclosure:
        tab, k = (self.pos, p) if p >= 0 else (self.neg, -p)
        with self.lock:
            if k < len(tab):
                return tab[k]
            step = tab[1]
            cur = tab[-1]
            while len(tab) <= k:
                cur = (cur * step).rounded(self.bits + 32)
                tab.append(cur)
            return tab[k]


_power_tables: dict[int, _PowerTable] = {}
_power_lock = threading.Lock()


def alpha_power(p: int, precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of alpha**p for any integer p."""
    with _power_lock:
        tab = _power_tables.get(precision_bits)
        if tab is None:
            tab = _PowerTable(precision_bits)
            _power_tables[precision_bits] = tab
    return tab.power(p)


def cmp_alpha_power(p: int, q: int, n: int,
                    precision_bits: int = DEFAULT_PRECISION,
                    max_precision_bits: int = MAX_PRECISION) -> Cmp:
    """Certified comparison of alpha**(p/q) against the positive integer n.

    Equivalent to comparing alpha**p with n**q.  Equality happens only in the
    degenerate case alpha**0 = 1: for p != 0 the power is irrational, so the
    adaptive loop always terminates with a strict answer.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Cmp(0 if p == 0 else (1 if p > 0 else -1))
    if p == 0:
        return Cmp.LESS  # 1 < n**q
    target = n ** q
    bits = precision_bits
    while True:
        enc = alpha_power(p, bits)
        if enc.definitely_lt(target):
            return Cmp.LESS
        if enc.definitely_gt(target):
            return Cmp.GREATER
        bits *= 2
        if bits > max_precision_bits:
            raise PrecisionFailure(
                f"cmp_alpha_power({p}, {q}, {n}) unresolved at "
                f"{max_precision_bits} bits")


def floor_log_alpha(n: int, precision_bits: int = DEFAULT_PRECISION,
                    max_precision_bits: int = MAX_PRECISION) -> int:
    """The unique k with alpha**k <= n < alpha**(k+1), certified."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    k = int(math.log(n) / _LN_ALPHA)
    while cmp_alpha_power(k + 1, 1, n, precision_bits,
                          max_precision_bits) != Cmp.GREATER:
        k += 1
    while cmp_alpha_power(k, 1, n, precision_bits,
                          max_precision_bits) == Cmp.GREATER:
        k -= 1
    return k


@dataclass(frozen=True)
class WindowCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class WindowReport:
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


@dataclass(frozen=True)
class GrowthReport:
    n_max: int
    checked: int
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)

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
        lower = cmp_alpha_power(n - 3, 1, t, precision_bits,
                                max_precision_bits)
        if lower == Cmp.GREATER:
            failures.append((n, "lower"))
        upper = cmp_alpha_power(n - 2, 1, t, precision_bits,
                                max_precision_bits)
        if upper == Cmp.LESS:
            failures.append((n, "upper"))
        checked += 1
    return GrowthReport(n_max, checked, tuple(failures))
