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
chain d <= T_y - 1 < alpha**(3*z/4) is already enough; the test suite
checks that chain, and no battery repeats it.

``norm_witness`` certifies the exact divisibility and norm inequality for a
pair, ``factor_bounds`` certifies the embedding bounds, and ``prop1_holds``
checks the headline inequality itself.  ``factor_bounds`` takes no root: it
decides the real bound in fourth powers, |eta_alpha|**4 < (13/10)**4 *
alpha**z, and the complex one in squares, |eta_beta|**2 < (9/25) *
alpha**(2*z), with |eta_beta|**2 taken from the memoised beta**lam of
``constants.beta_power`` by ``ComplexEnclosure.affine_abs2``.  The two
bounds depend on (z, bits) alone and come from a bounded cache; the real
magnitude |alpha**lam * (T_y - 1) - (T_z - 1)| is one
``Enclosure.affine_abs``, and both tests are ``Enclosure.cmp_abs_power``,
which settles most comparisons by bit lengths and raises an endpoint to its
power only when they leave the comparison open.  T_n - 1 is read as
``trib(n) - 1`` from the sequence's one memo table, and so are the integer
coordinates of alpha**lam in the basis 1, alpha, alpha**2: (T_(lam+2) -
T_(lam+1) - T_lam, T_(lam+1) - T_lam, T_lam), by induction on lam from
alpha**0 = 1, since one multiplication by alpha sends (c0, c1, c2) to (c2,
c0 + c2, c1 + c2).

The headline inequality has two routes.  The prop1 battery
(``prop1_results``) decides it against one integer threshold per z:
m_z = ``prop1_threshold(z)`` is the largest m with m**4 < alpha**(3*z),
read off the integer power sum s_p = alpha**p + beta**p + gamma**p, which
lies within 1 of alpha**p (``tribonacci.cmp_alpha_power_trace``), so each
pair costs one gcd and one integer comparison d <= m_z.  ``prop1_holds``
and the record checker enclose alpha**(3*z) itself, and never read a power
sum.  ``prop1_holds`` compares d**4 with that enclosure
(``_prop1_verdict`` through ``constants.cmp_alpha_power``).  The checker
(``records._check_prop1``) takes one floor per z from it, r_z =
isqrt(isqrt(floor(lo))) for the enclosure's lower end lo, so r_z**4 <
alpha**(3*z): a d <= r_z passes by one integer comparison, and a larger d
goes to ``_prop1_verdict``, which escalates as far as the precision cap.
So a fault in one route shows up as a record that the other one fails.
Neither route calls ``gcd_shifted``: the battery reads T_n - 1 from one
list per run, and the checker reads T_y and T_z off the sequence table's
own list.  In the package ``gcd_shifted`` serves ``prop1_holds`` and
``norm_witness``, so the norms battery and the norm checker; outside it,
the benchmark's record generator.

Each battery has one generator, which yields one result per pair as it is
computed, and the command line builds its records from it:
``prop1_results`` yields plain (y, z, d, ok) tuples, and ``norm_witnesses``
yields ``GcdWitness`` objects.  The norms battery also runs
``factor_bounds`` on the evenly spaced pairs of ``regime_sample``.
``index_pairs`` enumerates the pairs in (z, y) order, and ``in_regime`` is
the test 4*y > 3*z + 8.  ``factor_sweep`` collects ``factor_bounds`` over
every regime pair into one report.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .constants import (_GREATER, DEFAULT_PRECISION, MAX_PRECISION,
                        alpha_power, beta_power, cmp_alpha_power)
from .enclosure import Enclosure, PrecisionFailure, precision_ladder
from .splitfield import CubicElement, norm3, norm6
from .tribonacci import alpha_power_trace, cmp_alpha_power_trace, trib


class IntegrityError(RuntimeError):
    """An exact relation that the mathematics guarantees failed to hold;
    never expected, always surfaced."""


def gcd_shifted(y: int, z: int) -> int:
    """gcd(T_y - 1, T_z - 1) for 4 <= y < z."""
    if not 4 <= y < z:
        raise ValueError("need 4 <= y < z")
    return gcd(trib(y) - 1, trib(z) - 1)


def prop1_holds(y: int, z: int,
                precision_bits: int = DEFAULT_PRECISION,
                max_precision_bits: int = MAX_PRECISION) -> bool:
    """Certified check of gcd(T_y - 1, T_z - 1) < alpha**(3*z/4), decided by
    comparing the fourth power of the gcd against alpha**(3*z)."""
    return _prop1_verdict(z, gcd_shifted(y, z), precision_bits,
                          max_precision_bits)


def _prop1_verdict(z: int, d: int, precision_bits: int,
                   max_precision_bits: int) -> bool:
    """d < alpha**(3*z/4), decided as alpha**(3*z) > d**4."""
    return cmp_alpha_power(3 * z, d ** 4, precision_bits,
                           max_precision_bits) == _GREATER


class GcdWitness(NamedTuple):
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
    # with those of alpha**lam read off the sequence table
    t0, t1, t2 = trib(lam), trib(lam + 1), trib(lam + 2)
    ty = trib(y) - 1
    eta = CubicElement(((t2 - t1 - t0) * ty - (trib(z) - 1), (t1 - t0) * ty,
                        t0 * ty))
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
    if n6 != n3i ** 2:
        raise IntegrityError(f"degree-6 norm disagrees at ({y},{z})")
    return GcdWitness(y, z, lam, d, eta, n3i, abs(n3i) == d ** 3)


class FactorBoundsReport(NamedTuple):
    """Embedding magnitudes for eta and their certified comparison against
    1.3*alpha**(z/4) (the two embeddings fixing alpha) and 0.6*alpha**z
    (the other four).

    The complex magnitude is held squared, as compared; ``complex_abs``
    takes its root at the precision ``bits`` of the deciding rung.
    """

    y: int
    z: int
    lam: int
    real_abs: Enclosure
    complex_abs2: Enclosure
    ok: bool
    bits: int

    @property
    def complex_abs(self) -> Enclosure:
        return self.complex_abs2.sqrt(self.bits)


# factor_sweep and the norms battery's regime_sample walk their pairs in z
# order, so every y of one z reads the same entry, and a walk only ever
# re-reads the entries of its current z, one per rung it climbed.
EMBEDDING_BOUND_CACHE_SIZE = 64


@lru_cache(maxsize=EMBEDDING_BOUND_CACHE_SIZE)
def _embedding_bounds(z: int, bits: int) -> tuple[Enclosure, Enclosure]:
    """(13/10)**4 * alpha**z and (6/10)**2 * alpha**(2*z): the bounds of
    ``factor_bounds`` in fourth powers and in squares."""
    alpha_z = alpha_power(z, bits)
    return alpha_z * Fraction(28561, 10000), alpha_z.square() * Fraction(9, 25)


def factor_bounds(y: int, z: int,
                  precision_bits: int = DEFAULT_PRECISION,
                  max_precision_bits: int = MAX_PRECISION
                  ) -> FactorBoundsReport:
    """Certify the embedding bounds for eta in the regime 4*y > 3*z + 8."""
    if not 4 <= y < z:
        raise ValueError("need 4 <= y < z")
    if not in_regime(y, z):
        raise ValueError(f"pair ({y},{z}) outside the regime 4y > 3z + 8")
    ty, tz = trib(y) - 1, trib(z) - 1
    lam = z - y
    for bits in precision_ladder(precision_bits, max_precision_bits):
        bound_r4, bound_c2 = _embedding_bounds(z, bits)
        # embedding fixing alpha, against 1.3*alpha**(z/4) in fourth powers
        real_abs = alpha_power(lam, bits).affine_abs(ty, tz)
        real = real_abs.cmp_abs_power(4, bound_r4)
        # embedding sending alpha to beta, the gamma one its conjugate;
        # against 0.6*alpha**z in squares, so no root is taken
        cplx2 = beta_power(lam, bits).affine_abs2(ty, tz)
        cplx = cplx2.cmp_abs_power(1, bound_c2)
        if real < 0 and cplx < 0:
            return FactorBoundsReport(y, z, lam, real_abs, cplx2, True, bits)
        # distinguish a genuine violation from insufficient precision
        if real > 0 or cplx > 0:
            return FactorBoundsReport(y, z, lam, real_abs, cplx2, False, bits)
    raise PrecisionFailure(f"factor bounds unresolved at ({y},{z})")


def index_pairs(z_max: int, y_min: int = 4):
    """Every pair y_min <= y < z <= z_max, in (z, y) order."""
    for z in range(y_min + 1, z_max + 1):
        for y in range(y_min, z):
            yield y, z


def in_regime(y: int, z: int) -> bool:
    """4*y > 3*z + 8: the pairs whose embedding bounds are certified."""
    return 4 * y > 3 * z + 8


def regime_pairs(z_max: int) -> list[tuple[int, int]]:
    """The pairs 4 <= y < z <= z_max in the regime, in (z, y) order: for
    each z, y runs from the least integer above (3*z + 8)/4 (and from 4)
    up to z - 1."""
    return [(y, z) for z in range(5, z_max + 1)
            for y in range(max(4, (3 * z + 8) // 4 + 1), z)]


def regime_sample(z_max: int, samples: int) -> list[tuple[int, int]]:
    """At most ``samples`` evenly spaced regime pairs: every step-th pair
    from the first, step = max(1, len(regime) // samples)."""
    if samples <= 0:
        return []
    regime = regime_pairs(z_max)
    return regime[::max(1, len(regime) // samples)][:samples]


def prop1_threshold(z: int, precision_bits: int = DEFAULT_PRECISION,
                    max_precision_bits: int = MAX_PRECISION) -> int:
    """m_z, the largest m with m**4 < alpha**(3*z), for z >= 1.

    With s = s_(3*z) and r = isqrt(isqrt(s)) = floor(s**(1/4)): every
    integer below s is below alpha**(3*z) and every one above it is above,
    so m_z = r, unless r**4 = s and alpha**(3*z) does not exceed s, which
    ``cmp_alpha_power_trace`` decides from the sign of Re(beta**(3*z)); a
    sign unresolved at max_precision_bits raises PrecisionFailure.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    p = 3 * z
    s = alpha_power_trace(p)
    r = isqrt(isqrt(s))
    if r ** 4 == s and cmp_alpha_power_trace(
            p, s, precision_bits, max_precision_bits) != _GREATER:
        return r - 1
    return r


def prop1_results(z_max: int, precision_bits: int = DEFAULT_PRECISION,
                  max_precision_bits: int = MAX_PRECISION):
    """Yield (y, z, d, ok) for every pair 4 <= y < z <= z_max, in (z, y)
    order, where d is gcd(T_y - 1, T_z - 1) and ok whether
    d < alpha**(3*z/4).

    ok is the verdict of ``prop1_holds``, reached by the other route: d**4 <
    alpha**(3*z) exactly when d <= ``prop1_threshold(z)``, taken once per z.
    The values T_n - 1 come from one list per call, so each pair is one
    ``gcd`` and one integer comparison.
    """
    tm = [trib(n) - 1 for n in range(z_max + 1)]
    for z in range(5, z_max + 1):
        m = prop1_threshold(z, precision_bits, max_precision_bits)
        b = tm[z]
        for y in range(4, z):
            d = gcd(tm[y], b)
            yield y, z, d, d <= m


def norm_witnesses(z_max: int):
    """Yield ``norm_witness(y, z)`` for every pair 5 <= y < z <= z_max."""
    for y, z in index_pairs(z_max, 5):
        yield norm_witness(y, z)


class FactorSweepReport(NamedTuple):
    z_max: int
    reports: tuple[FactorBoundsReport, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports)


def factor_sweep(z_max: int,
                 precision_bits: int = DEFAULT_PRECISION,
                 max_precision_bits: int = MAX_PRECISION) -> FactorSweepReport:
    """Embedding bounds for every pair in the regime 4*y > 3*z + 8 with
    z <= z_max."""
    return FactorSweepReport(z_max, tuple(
        factor_bounds(y, z, precision_bits, max_precision_bits)
        for y, z in regime_pairs(z_max)))
