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
Since |beta| = |gamma| = alpha^(-1/2) and x <= y <= z, a monomial's
magnitude is at most alpha^((sum A - (sum B + sum C)/2) * x); monomials
where that ceiling drops below alpha^(-(order+1)*x) are discarded.  Each
discarded monomial pairs with its image under swapping B with C, so the
kept sum stays real.

The error of the truncation is not estimated a priori: it is the measured
gap |u - truncation|, both sides evaluated in certified interval
arithmetic tight enough to order consecutive errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .constants import DEFAULT_PRECISION, MAX_PRECISION, alpha_power, constants
from .enclosure import ComplexEnclosure, Enclosure, PrecisionFailure
from .tribonacci import trib

MAX_ORDER = 8


@dataclass(frozen=True)
class ExpansionTerm:
    """One kept monomial: coeff * alpha^(a_vec.v) beta^(b_vec.v)
    gamma^(c_vec.v) with v = (x, y, z).  The coefficient has the exact
    rational and the a1/b1/c1 powers already folded in."""

    coeff: ComplexEnclosure
    a_vec: tuple[int, int, int]
    b_vec: tuple[int, int, int]
    c_vec: tuple[int, int, int]


@dataclass(frozen=True)
class ExpansionParams:
    """The base quantities a1 = -1/a, b1 = b/a, c1 = conj(b1), the
    truncation order, and every kept term.  Terms are index-free: the
    integer vectors get dotted with (x, y, z) at evaluation time."""

    a1: Enclosure
    b1: ComplexEnclosure
    c1: ComplexEnclosure
    order: int
    terms: tuple[ExpansionTerm, ...]


def _half_binom(k: int, negative: bool = False) -> Fraction:
    """binom(1/2, k), or binom(-1/2, k) when negative."""
    top = Fraction(-1, 2) if negative else Fraction(1, 2)
    out = Fraction(1)
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


def _splits(k: int):
    """All (na, nb, nc) with na + nb + nc = k."""
    for nb in range(k + 1):
        for nc in range(k + 1 - nb):
            yield k - nb - nc, nb, nc


@lru_cache(maxsize=None)
def _symbolic_terms(order: int) -> tuple:
    """Exact kept-term data (q, A, B, C), ordered by generation.

    Outer powers (k1, k2, k3) each run to the truncation order; a monomial
    survives when 2*(k1+k2+k3) + (sum B + sum C) <= 2*order + 2, the
    integer form of the magnitude-ceiling cut.
    """
    out = []
    limit = 2 * order + 2
    for k1 in range(order + 1):
        if 2 * k1 > limit:
            break
        q1 = _half_binom(k1)
        for k2 in range(order + 1):
            if 2 * (k1 + k2) > limit:
                break
            q2 = q1 * _half_binom(k2)
            for k3 in range(order + 1):
                if 2 * (k1 + k2 + k3) > limit:
                    break
                q3 = q2 * _half_binom(k3, negative=True)
                base = 2 * (k1 + k2 + k3)
                for s1 in _splits(k1):
                    for s2 in _splits(k2):
                        for s3 in _splits(k3):
                            mixed = (s1[1] + s1[2] + s2[1] + s2[2]
                                     + s3[1] + s3[2])
                            if base + mixed > limit:
                                continue
                            q = q3
                            for k, s in ((k1, s1), (k2, s2), (k3, s3)):
                                q *= (factorial(k) // (factorial(s[0])
                                      * factorial(s[1]) * factorial(s[2])))
                            out.append((q,
                                        (-k1, -k2, -k3),
                                        (s1[1], s2[1], s3[1]),
                                        (s1[2], s2[2], s3[2])))
    return tuple(out)


@lru_cache(maxsize=64)
def expansion_terms(order: int,
                    precision_bits: int = DEFAULT_PRECISION) -> ExpansionParams:
    """All kept terms at the given truncation order, coefficients enclosed
    at the given working precision."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must lie in 0..{MAX_ORDER}")
    cs = constants(precision_bits)
    work = precision_bits + 32
    a1 = -cs.a.inv().rounded(work)
    b1 = (cs.b / cs.a).rounded(work)
    c1 = b1.conj()

    max_pow = order + 2
    a1_pows = [Enclosure.point(1)]
    b1_pows = [ComplexEnclosure.point(1)]
    for _ in range(max_pow):
        a1_pows.append((a1_pows[-1] * a1).rounded(work))
        b1_pows.append((b1_pows[-1] * b1).rounded(work))

    terms = []
    for q, avec, bvec, cvec in _symbolic_terms(order):
        pb = sum(bvec)
        pc = sum(cvec)
        pa = -sum(avec) - pb - pc
        coeff = b1_pows[pb] * b1_pows[pc].conj() * (a1_pows[pa] * q)
        terms.append(ExpansionTerm(coeff.rounded(work), avec, bvec, cvec))
    return ExpansionParams(a1, b1, c1, order, tuple(terms))


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


def _dot(vec: tuple[int, int, int], v: tuple[int, int, int]) -> int:
    return vec[0] * v[0] + vec[1] * v[1] + vec[2] * v[2]


def _truncation_value(x: int, y: int, z: int, order: int,
                      bits: int) -> Enclosure:
    """Enclosure of sqrt(a) * alpha^((x+y-z)/2) * (kept-term sum).

    The sum is real by conjugate pairing; its rectangle must straddle the
    real axis, and the real part is returned.
    """
    params = expansion_terms(order, bits)
    work = bits + 32
    v = (x, y, z)
    cs = constants(bits)
    beta_pows: dict[int, ComplexEnclosure] = {}

    def beta_pow(m: int) -> ComplexEnclosure:
        if m not in beta_pows:
            beta_pows[m] = _cpow(cs.beta, m, work)
        return beta_pows[m]

    total = ComplexEnclosure.point(0)
    for term in params.terms:
        val = ComplexEnclosure.real(alpha_power(_dot(term.a_vec, v), bits))
        val = (val * term.coeff).rounded(work)
        mb = _dot(term.b_vec, v)
        if mb:
            val = (val * beta_pow(mb)).rounded(work)
        mc = _dot(term.c_vec, v)
        if mc:
            val = (val * beta_pow(mc).conj()).rounded(work)
        total = total + val

    if not total.im.contains_zero():
        raise ArithmeticError("kept-term sum failed to be real")
    prefactor = cs.a.sqrt(work) * alpha_power(x + y - z, bits).sqrt(work)
    return (total.re * prefactor).rounded(work)


def expansion_error(x: int, y: int, z: int, order: int,
                    precision_bits: int | None = None) -> Enclosure:
    """Measured gap |u - truncation| with u = sqrt((T_x-1)(T_y-1)/(T_z-1))
    as a real number.

    Precision is raised until the gap is bounded away from zero with
    relative width below 2^-12, so consecutive orders can be compared.
    """
    if not (5 <= x < y < z and x + y > z):
        raise ValueError("need 5 <= x < y < z with x + y > z")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must lie in 0..{MAX_ORDER}")
    ratio = Fraction((trib(x) - 1) * (trib(y) - 1), trib(z) - 1)
    bits = precision_bits or DEFAULT_PRECISION
    while True:
        u_real = Enclosure.point(ratio).sqrt(bits + 32)
        gap = (u_real - _truncation_value(x, y, z, order, bits)).abs()
        if gap.is_positive() and (gap.hi - gap.lo) * 4096 <= gap.lo:
            return gap
        if bits >= MAX_PRECISION:
            raise PrecisionFailure(
                f"truncation gap at order {order} not resolved "
                f"within {bits} bits")
        bits = min(2 * bits, MAX_PRECISION)


def _pow12(e: Enclosure) -> Enclosure:
    sq = e.square()
    four = sq.square()
    return four.square() * four


@dataclass(frozen=True)
class DecayReport:
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
                 precision_bits: int | None = None) -> DecayReport:
    """Errors at every order up to order_max and decay verdicts over the
    orders 1..order_max."""
    if order_max < 2:
        raise ValueError("need order_max >= 2 to compare consecutive errors")
    errors = tuple(expansion_error(x, y, z, t, precision_bits)
                   for t in range(order_max + 1))
    decreasing, ratio_ok = decay_verdicts(x, errors[1:], precision_bits)
    return DecayReport(x, y, z, order_max, errors, decreasing, ratio_ok)


def decay_verdicts(x: int, errors, precision_bits: int | None = None
                   ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Verdicts on each pair of consecutive errors: decreasing[i]
    certifies errors[i+1] < errors[i], ratio_ok[i] certifies
    errors[i+1]/errors[i] <= 2*alpha^(-x/12) in 12th powers."""
    bits = precision_bits or DEFAULT_PRECISION
    bound = alpha_power(-x, bits) * 4096
    decreasing = []
    ratio_ok = []
    for cur, nxt in zip(errors, errors[1:]):
        decreasing.append(nxt.definitely_lt(cur.lo))
        rhs = bound * _pow12(cur)
        ratio_ok.append(_pow12(nxt).definitely_lt(rhs.lo))
    return tuple(decreasing), tuple(ratio_ok)
