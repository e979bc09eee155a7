"""Certified constants for the cubic and alpha-power comparisons, checked
against an mpmath oracle at high precision."""

from fractions import Fraction

import mpmath
import pytest

from triboverify.constants import (Cmp, alpha_power, beta_power,
                                   cmp_alpha_power, constants, verify_growth,
                                   verify_numeric_window)
from triboverify.enclosure import ComplexEnclosure
from triboverify.records import PAIR_Z_MAX_CAP
from triboverify.tribonacci import cmp_alpha_power_trace

mpmath.mp.prec = 300
MP_ALPHA = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, 1.84)


@pytest.fixture(autouse=True)
def _pin_mp_precision():
    # mpmath precision is process-global and other test modules set their
    # own; re-pin for every test here so run order cannot matter
    old = mpmath.mp.prec
    mpmath.mp.prec = 300
    yield
    mpmath.mp.prec = old


def _contains_mp(enc, value, slack=mpmath.mpf(2) ** -250):
    return (mpmath.mpf(enc.lo.numerator) / enc.lo.denominator - slack
            <= value
            <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator + slack)


def test_alpha_against_oracle():
    cs = constants(256)
    assert _contains_mp(cs.alpha, MP_ALPHA)
    assert cs.alpha.width() <= Fraction(1, 1 << 256)


def test_alpha_width_scales():
    for bits in (64, 128, 512):
        cs = constants(bits)
        assert cs.alpha.width() <= Fraction(1, 1 << bits)
        # defining cubic straddles zero on the interval
        f_lo = cs.alpha.lo ** 3 - cs.alpha.lo ** 2 - cs.alpha.lo - 1
        f_hi = cs.alpha.hi ** 3 - cs.alpha.hi ** 2 - cs.alpha.hi - 1
        assert f_lo <= 0 <= f_hi


def test_beta_against_oracle():
    cs = constants(192)
    disc = mpmath.sqrt((1 - MP_ALPHA) ** 2 - 4 / MP_ALPHA)
    beta = ((1 - MP_ALPHA) + disc) / 2
    assert _contains_mp(cs.beta.re, beta.real)
    assert _contains_mp(cs.beta.im, beta.imag)
    assert cs.beta.im.is_positive()


def test_closed_form_coefficients_against_oracle():
    cs = constants(192)
    a = 1 / (3 * MP_ALPHA ** 2 - 2 * MP_ALPHA - 1)
    assert _contains_mp(cs.a, a)
    disc = mpmath.sqrt((1 - MP_ALPHA) ** 2 - 4 / MP_ALPHA)
    beta = ((1 - MP_ALPHA) + disc) / 2
    gamma = ((1 - MP_ALPHA) - disc) / 2
    b = 1 / ((beta - MP_ALPHA) * (beta - gamma))
    assert _contains_mp(cs.b.re, b.real)
    assert _contains_mp(cs.b.im, b.imag)


@pytest.mark.parametrize("p", [96, 192, 1024])
def test_cached_constants_are_dyadic_tight_and_sound(p):
    cs = constants(p)
    with mpmath.workprec(p + 80):
        alpha = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, MP_ALPHA)
        disc = mpmath.sqrt((1 - alpha) ** 2 - 4 / alpha)
        beta = ((1 - alpha) + disc) / 2
        gamma = ((1 - alpha) - disc) / 2
        a = 1 / (3 * alpha ** 2 - 2 * alpha - 1)
        b = 1 / ((beta - alpha) * (beta - gamma))
        c = 1 / ((gamma - alpha) * (gamma - beta))
        slack = mpmath.mpf(2) ** -(p + 64)
        pairs = [(cs.alpha, alpha), (cs.beta.re, beta.real),
                 (cs.beta.im, beta.imag), (cs.a, a), (cs.b.re, b.real),
                 (cs.b.im, b.imag), (cs.c.re, c.real), (cs.c.im, c.imag)]
        for enc, value in pairs:
            for end in (enc.lo, enc.hi):
                den = end.denominator
                assert den & (den - 1) == 0
                assert abs(end.numerator).bit_length() <= p + 40
            assert enc.width() <= Fraction(1, 1 << p)
            assert _contains_mp(enc, value, slack)
    assert cs.c == cs.b.conj()


def test_alpha_power_against_oracle():
    for p in (0, 1, 2, 7, 40, -1, -13, 100):
        enc = alpha_power(p, 192)
        assert _contains_mp(enc, MP_ALPHA ** p)


def test_alpha_power_multiplicativity():
    e1 = alpha_power(9, 160)
    e2 = alpha_power(16, 160)
    prod = e1 * e2
    assert prod.intersects(alpha_power(25, 160))


def _cpow(base: ComplexEnclosure, n: int, bits: int) -> ComplexEnclosure:
    out = ComplexEnclosure.point(1)
    sq = base
    while n:
        if n & 1:
            out = (out * sq).rounded(bits)
        n >>= 1
        if n:
            sq = (sq.square()).rounded(bits)
    return out


def _endpoints(c):
    return c.re.lo, c.re.hi, c.im.lo, c.im.hi


@pytest.mark.parametrize("bits, k_max", [(192, 300), (1024, 60)])
def test_beta_power_matches_square_and_multiply(bits, k_max):
    # _cpow, square-and-multiply rounded at bits + 32, is the oracle
    beta = constants(bits).beta
    for k in range(k_max + 1):
        assert (_endpoints(beta_power(k, bits))
                == _endpoints(_cpow(beta, k, bits + 32)))


def test_beta_power_against_oracle():
    disc = mpmath.sqrt((1 - MP_ALPHA) ** 2 - 4 / MP_ALPHA)
    beta = ((1 - MP_ALPHA) + disc) / 2
    for k in (0, 1, 2, 7, 100, 1000):
        enc = beta_power(k, 192)
        assert _contains_mp(enc.re, (beta ** k).real)
        assert _contains_mp(enc.im, (beta ** k).imag)


def test_beta_power_is_memoised():
    assert beta_power(77, 192) is beta_power(77, 192)
    assert beta_power(0, 192) == ComplexEnclosure.point(1)
    with pytest.raises(ValueError):
        beta_power(-1, 192)


def test_beta_power_relative_width():
    # |beta**k| = alpha**(-k/2), so width**2 * alpha**k <= 4**-bits says
    # the relative width stays below 2**-bits; a chain of k products
    # would lose about half a bit per product
    bits = 192
    for k in range(2001):
        enc = beta_power(k, bits)
        width = max(enc.re.width(), enc.im.width())
        assert width * width * alpha_power(k, bits).hi <= Fraction(1, 4 ** bits)


def test_cmp_alpha_power_exactness():
    # alpha**2 vs small rationals and a few integer powers of T-values
    assert cmp_alpha_power(2, 3) == Cmp.GREATER
    assert cmp_alpha_power(2, 4) == Cmp.LESS
    assert cmp_alpha_power(0, 1) == Cmp.EQUAL
    assert cmp_alpha_power(-3, 1) == Cmp.LESS
    assert cmp_alpha_power(12, 6 ** 4) == Cmp.GREATER   # alpha^12 vs 6^4
    # alpha^12 = 1498.97...
    assert cmp_alpha_power(12, 1498) == Cmp.GREATER
    assert cmp_alpha_power(12, 1499) == Cmp.LESS


def test_cmp_alpha_power_never_equal_for_n_ge_2():
    # alpha is irrational so alpha**p = n cannot hold for n >= 2
    for p in range(1, 30):
        for n in (2, 3, 5, 1490):
            assert cmp_alpha_power(p, n) != Cmp.EQUAL


def test_cmp_alpha_power_coarse_start():
    # starting from a deliberately tiny precision must still decide
    assert cmp_alpha_power(100, 10 ** 26, precision_bits=16) == Cmp.GREATER
    assert cmp_alpha_power(100, 10 ** 27, precision_bits=16) == Cmp.LESS


def _floor_alpha_powers(ps):
    """floor(alpha**p) from mpmath at enough bits to separate alpha**p
    from its nearest integer (alpha**p is within 2*alpha**(-p/2) of one)."""
    with mpmath.workprec(2 * max(ps) + 64):
        root = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, 1.84)
        return {p: int(mpmath.floor(root ** p)) for p in ps}


def test_trace_route_agrees_with_the_enclosure_route():
    # at floor(alpha**p) and the next integer, one of which is the power sum
    # s_p: the hardest integers to compare alpha**p with
    floors = _floor_alpha_powers(range(3, 601))
    for p, f in floors.items():
        for n in (f, f + 1):
            assert cmp_alpha_power_trace(p, n) == cmp_alpha_power(p, n), p
    # a stride sample up to 3 * PAIR_Z_MAX_CAP, the largest exponent a
    # prop1 record can need; 8192 bits decide every one of these without
    # escalation, so only one table of powers is built
    p_max = 3 * PAIR_Z_MAX_CAP
    floors = _floor_alpha_powers(list(range(601, p_max, 599)) + [p_max])
    for p, f in floors.items():
        for n in (f, f + 1):
            assert (cmp_alpha_power_trace(p, n)
                    == cmp_alpha_power(p, n, 8192)), p


def test_numeric_window_report():
    rep = verify_numeric_window()
    assert rep.all_ok
    names = [c.name for c in rep.checks]
    assert names == ["alpha_window", "beta_abs_window",
                     "beta_abs_is_alpha_inv_sqrt", "a_window",
                     "b_abs_window", "c_abs_window", "conjugate_pairs"]


def test_growth_bounds_small():
    rep = verify_growth(200)
    assert rep.all_ok
    assert rep.checked == 199


def test_growth_equality_edges():
    # T_2 = 1 = alpha^0 and T_3 = 1 = alpha^0: both ends touch
    assert cmp_alpha_power(2 - 2, 1) == Cmp.EQUAL
    assert cmp_alpha_power(3 - 3, 1) == Cmp.EQUAL


def test_growth_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_growth(1)
