"""Certified bounds on d = gcd(T_y - 1, T_z - 1).

The claim checked at desk scale: for 4 <= y < z, d < alpha**(3*z/4).  Since d
divides both shifted values, it divides

    eta = alpha**lam * (T_y - 1) - (T_z - 1),      lam = z - y,

inside Z[alpha], so d**3 divides the (degree-3) field norm of eta, and that
norm is a nonzero integer; hence d**3 <= |N(eta)|.  The norm is the product
of the three embeddings of eta, whose absolute values the growth of the
sequence keeps small: in the regime 4*y > 3*z + 8 the real embedding stays
below 1.3*alpha**(z/4) and each complex one below 0.6*alpha**z, giving
|N(eta)| < alpha**(9*z/4) and the bound.  In the complementary regime the
chain d <= T_y - 1 < alpha**(3*z/4) is already enough.

``norm_witness`` certifies the exact divisibility and norm inequality for a
pair, ``factor_bounds`` certifies the embedding bounds, ``prop1_holds``
checks the headline inequality itself, and ``sweep`` runs everything over a
range of pairs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .constants import (Cmp, DEFAULT_PRECISION, MAX_PRECISION, alpha_power,
                        cmp_alpha_power, constants)
from .enclosure import ComplexEnclosure, Enclosure, PrecisionFailure
from .splitfield import CubicElement, norm3, norm6
from .tribonacci import trib


class IntegrityError(RuntimeError):
    """An exact relation that the mathematics guarantees failed to hold;
    never expected, always surfaced."""


_pow_cubic_cache: list[tuple[int, int, int]] = [(1, 0, 0), (0, 1, 0)]
_pow_cubic_lock = threading.Lock()


def _alpha_power_coords(k: int) -> tuple[int, int, int]:
    """The integer coordinates of alpha**k in the basis 1, alpha, alpha**2.

    One multiplication by alpha sends (c0, c1, c2) to (c2, c0+c2, c1+c2).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    with _pow_cubic_lock:
        while len(_pow_cubic_cache) <= k:
            c0, c1, c2 = _pow_cubic_cache[-1]
            _pow_cubic_cache.append((c2, c0 + c2, c1 + c2))
        return _pow_cubic_cache[k]


def alpha_power_cubic(k: int) -> CubicElement:
    """alpha**k with integer coordinates in the basis 1, alpha, alpha**2."""
    return CubicElement(_alpha_power_coords(k))


def _shifted(n: int) -> int:
    return trib(n) - 1


def gcd_shifted(y: int, z: int) -> int:
    """gcd(T_y - 1, T_z - 1) for 4 <= y < z."""
    if not 4 <= y < z:
        raise ValueError("need 4 <= y < z")
    return gcd(_shifted(y), _shifted(z))


def prop1_holds(y: int, z: int,
                precision_bits: int = DEFAULT_PRECISION,
                max_precision_bits: int = MAX_PRECISION) -> bool:
    """Certified check of gcd(T_y - 1, T_z - 1) < alpha**(3*z/4), decided by
    comparing the fourth power of the gcd against alpha**(3*z)."""
    d = gcd_shifted(y, z)
    return cmp_alpha_power(3 * z, 1, d ** 4, precision_bits,
                           max_precision_bits) == Cmp.GREATER


@dataclass(frozen=True)
class GcdWitness:
    """Exact norm certificate for one pair (y, z).

    eta is alpha**lam*(T_y-1) - (T_z-1); norm3_value its integer norm.
    ``tight`` marks |norm3_value| == d**3, where the norm inequality admits
    no slack at all (realized at (y, z) = (6, 7)).
    """

    y: int
    z: int
    lam: int
    d: int
    eta: CubicElement
    norm3_value: int
    tight: bool


def norm_witness(y: int, z: int) -> GcdWitness:
    """Certify d**3 | N(eta), N(eta) != 0 and |N(eta)| >= d**3 exactly.

    Also recomputes the norm through the degree-6 field as an independent
    route and insists it equals the square of the degree-3 norm.  Any
    violation raises IntegrityError.
    """
    d = gcd_shifted(y, z)
    lam = z - y
    # alpha**lam * (T_y - 1) - (T_z - 1), built from integer coordinates
    c0, c1, c2 = _alpha_power_coords(lam)
    ty = _shifted(y)
    eta = CubicElement((c0 * ty - _shifted(z), c1 * ty, c2 * ty))
    n3 = norm3(eta)
    if n3.denominator != 1:
        raise IntegrityError(f"norm of integral element not integral: {n3}")
    n3i = n3.numerator
    if n3i == 0:
        raise IntegrityError(f"eta({y},{z}) has zero norm")
    if n3i % d ** 3 != 0:
        raise IntegrityError(f"d^3 does not divide norm at ({y},{z})")
    if abs(n3i) < d ** 3:
        raise IntegrityError(f"|norm| < d^3 at ({y},{z})")
    n6 = norm6(eta.to_field())
    if n6 != Fraction(n3i) ** 2:
        raise IntegrityError(f"degree-6 norm disagrees at ({y},{z})")
    return GcdWitness(y, z, lam, d, eta, n3i, abs(n3i) == d ** 3)


@dataclass(frozen=True)
class FactorBoundsReport:
    """Embedding magnitudes for eta and their certified comparison against
    1.3*alpha**(z/4) (the two embeddings fixing alpha) and 0.6*alpha**z
    (the other four)."""

    y: int
    z: int
    lam: int
    real_abs: Enclosure
    complex_abs: Enclosure
    ok: bool

    def __bool__(self):
        return self.ok

    @property
    def embedding_abs(self) -> tuple[Enclosure, ...]:
        """All six |embedding| values; conjugate pairs repeat."""
        return (self.real_abs, self.real_abs,
                self.complex_abs, self.complex_abs,
                self.complex_abs, self.complex_abs)


def factor_bounds(y: int, z: int,
                  precision_bits: int = DEFAULT_PRECISION,
                  max_precision_bits: int = MAX_PRECISION
                  ) -> FactorBoundsReport:
    """Certify the embedding bounds for eta in the regime 4*y > 3*z + 8."""
    if not 4 <= y < z:
        raise ValueError("need 4 <= y < z")
    if not 4 * y > 3 * z + 8:
        raise ValueError(f"pair ({y},{z}) outside the regime 4y > 3z + 8")
    ty, tz = _shifted(y), _shifted(z)
    lam = z - y
    bits = precision_bits
    while True:
        cs = constants(bits)
        # embedding fixing alpha
        real_val = alpha_power(lam, bits) * ty - tz
        real_abs = real_val.abs()
        bound_r = alpha_power(z, bits).sqrt(bits).sqrt(bits) * Fraction(13, 10)
        # embedding sending alpha to beta; the gamma one is its conjugate
        bpow = _complex_pow(cs.beta, lam, bits)
        cplx_val = bpow * ty - tz
        cplx_abs = cplx_val.abs(bits)
        bound_c = alpha_power(z, bits) * Fraction(6, 10)
        ok_r = real_abs.hi <= bound_r.lo
        ok_c = cplx_abs.hi <= bound_c.lo
        if ok_r and ok_c:
            return FactorBoundsReport(y, z, lam, real_abs, cplx_abs, True)
        # distinguish a genuine violation from insufficient precision
        fail_r = real_abs.lo > bound_r.hi
        fail_c = cplx_abs.lo > bound_c.hi
        if fail_r or fail_c:
            return FactorBoundsReport(y, z, lam, real_abs, cplx_abs, False)
        bits *= 2
        if bits > max_precision_bits:
            raise PrecisionFailure(f"factor bounds unresolved at ({y},{z})")


def _complex_pow(base: ComplexEnclosure, e: int,
                 bits: int) -> ComplexEnclosure:
    out = ComplexEnclosure.point(1)
    b = base
    while e:
        if e & 1:
            out = (out * b).rounded(bits + 32)
        b = (b * b).rounded(bits + 32)
        e >>= 1
    return out


@dataclass(frozen=True)
class SweepReport:
    z_max: int
    pairs_checked: int
    prop1_failures: tuple[tuple[int, int], ...]
    chain_checked: int
    chain_failures: tuple[tuple[int, int], ...]
    deep_checked: int
    deep_failures: tuple[tuple[int, int], ...]
    tight_pairs: tuple[tuple[int, int], ...]

    @property
    def all_ok(self) -> bool:
        return not (self.prop1_failures or self.chain_failures
                    or self.deep_failures)


def _regime_split(z_max: int):
    low, high = [], []
    for z in range(5, z_max + 1):
        for y in range(4, z):
            (high if 4 * y > 3 * z + 8 else low).append((y, z))
    return low, high


def sweep(z_max: int, deep_samples: int = 200, jobs: int = 1,
          precision_bits: int = DEFAULT_PRECISION,
          max_precision_bits: int = MAX_PRECISION) -> SweepReport:
    """Run the full gcd-bound verification over all pairs 4 <= y < z <= z_max.

    Every pair gets the headline inequality check.  Pairs with
    4*y <= 3*z + 8 additionally get the short chain
    d <= T_y - 1 < alpha**(3*z/4) verified.  From the remaining pairs an
    evenly spaced sample of ``deep_samples`` receives the exact norm witness
    and the embedding bounds.
    """
    if z_max < 5:
        raise ValueError("z_max must be >= 5")
    low, high = _regime_split(z_max)
    pairs = sorted(low + high, key=lambda p: (p[1], p[0]))

    def check_prop1(p):
        return p, prop1_holds(p[0], p[1], precision_bits, max_precision_bits)

    prop1_failures = []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(check_prop1, pairs, chunksize=64))
    else:
        results = map(check_prop1, pairs)
    for p, ok in results:
        if not ok:
            prop1_failures.append(p)

    chain_failures = []
    for y, z in low:
        d = gcd_shifted(y, z)
        ty = _shifted(y)
        # d divides T_y - 1, so d <= T_y - 1 unless that value is 0 (y = 4
        # gives T_y - 1 = 1, so it never is); then T_y - 1 < alpha**(3z/4)
        ok = (d <= ty and cmp_alpha_power(3 * z, 4, ty, precision_bits,
                                          max_precision_bits) == Cmp.GREATER)
        if not ok:
            chain_failures.append((y, z))

    if deep_samples <= 0 or not high:
        sample = []
    elif deep_samples >= len(high):
        sample = list(high)
    else:
        step = len(high) / deep_samples
        sample = [high[int(i * step)] for i in range(deep_samples)]
    deep_failures = []
    tight = []
    for y, z in sample:
        w = norm_witness(y, z)  # raises IntegrityError on violation
        if w.tight:
            tight.append((y, z))
        fb = factor_bounds(y, z, precision_bits, max_precision_bits)
        if not fb.ok:
            deep_failures.append((y, z))
    return SweepReport(z_max, len(pairs), tuple(prop1_failures),
                       len(low), tuple(chain_failures),
                       len(sample), tuple(deep_failures), tuple(tight))


@dataclass(frozen=True)
class NormSweepReport:
    z_max: int
    witnesses: tuple[GcdWitness, ...]
    tight_pairs: tuple[tuple[int, int], ...]


def norm_sweep(z_max: int, jobs: int = 1) -> NormSweepReport:
    """Exact norm certificates for every pair 5 <= y < z <= z_max."""
    if z_max < 6:
        raise ValueError("z_max must be >= 6")
    pairs = [(y, z) for z in range(6, z_max + 1) for y in range(5, z)]

    def work(p):
        return norm_witness(p[0], p[1])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            ws = list(ex.map(work, pairs, chunksize=16))
    else:
        ws = [work(p) for p in pairs]
    tight = tuple((w.y, w.z) for w in ws if w.tight)
    return NormSweepReport(z_max, tuple(ws), tight)


@dataclass(frozen=True)
class FactorSweepReport:
    z_max: int
    reports: tuple[FactorBoundsReport, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports)


def factor_sweep(z_max: int, jobs: int = 1,
                 precision_bits: int = DEFAULT_PRECISION,
                 max_precision_bits: int = MAX_PRECISION) -> FactorSweepReport:
    """Embedding bounds for every pair in the regime 4*y > 3*z + 8 with
    z <= z_max."""
    pairs = [(y, z) for z in range(5, z_max + 1) for y in range(4, z)
             if 4 * y > 3 * z + 8]

    def work(p):
        return factor_bounds(p[0], p[1], precision_bits, max_precision_bits)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            rs = list(ex.map(work, pairs, chunksize=16))
    else:
        rs = [work(p) for p in pairs]
    return FactorSweepReport(z_max, tuple(rs))
