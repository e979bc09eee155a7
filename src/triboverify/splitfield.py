"""Exact arithmetic in the splitting field of x**3 - x**2 - x - 1.

The cubic has discriminant -44, so its splitting field K is the degree-6
field Q(alpha, sqrt(-11)).  We model K as Q(eps) with

    p(x) = x**6 - x**5 + 2*x**4 - 3*x**3 + 2*x**2 - x + 1,

where eps satisfies eps + 1/eps = alpha.  Throughout the package the numeric
embedding of eps is the unit-circle root rho = (alpha + i*sqrt(4-alpha**2))/2
with positive imaginary part; under that choice alpha itself lands on the real
root of the cubic, beta = eps**3 - eps**2 + eps - 1 lands on the root with
positive imaginary part, and gamma is its conjugate.

Roots of unity in K are exactly +-1.  Sketch: a primitive m-th root of unity
inside K forces phi(m) to divide 6.  phi(m) = 2 would put one of Q(i),
Q(sqrt(-3)) inside K, but the only quadratic subfield of K is Q(sqrt(-11))
(the Galois group is S3, whose only index-2 subgroup is A3, and the fixed
field of A3 is generated by the square root of the discriminant, -44).
phi(m) = 6 would make K itself abelian over Q, contradicting S3.  So m <= 2.
``is_root_of_unity`` therefore reduces to an exact comparison with +-1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .constants import DEFAULT_PRECISION, MAX_PRECISION, RealConstants, constants
from .enclosure import (ComplexEnclosure, Enclosure, PrecisionFailure,
                        sqrt_split)

# ascending coefficients of p(x); _P_TAIL rewrites eps**6
_P_COEFFS = (1, -1, 2, -3, 2, -1, 1)
_P_TAIL = (-1, 1, -2, 3, -2, 1)

DEFAULT_WITNESS_PRIME_BOUND = 10 ** 6
DEFAULT_DENOMINATOR_BOUND = 10 ** 12


def _cubic_discriminant() -> int:
    # 18bcd - 4b**3 d + b**2 c**2 - 4c**3 - 27d**2 for x**3 + bx**2 + cx + d
    b, c, d = -1, -1, -1
    return (18 * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * c ** 3 - 27 * d ** 2)


CUBIC_DISCRIMINANT = _cubic_discriminant()
if CUBIC_DISCRIMINANT != -44:
    raise AssertionError("cubic discriminant must be -44; the quadratic "
                         "subfield arguments depend on it")


class InconclusiveSquareTest(ArithmeticError):
    """Neither a verified square root nor a pair of witness primes was found
    within the configured bounds."""


# ---------------------------------------------------------------------------
# generic dense polynomial helpers, coefficients ascending
# ---------------------------------------------------------------------------

def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a.pop()
    return q, a


def _poly_inv_mod(u, m) -> list[Fraction]:
    """Inverse of u modulo m over Q, by the extended Euclidean algorithm.

    Maintains s_k * u = r_k (mod m); when the remainder chain ends at a
    constant gcd, s/gcd is the inverse.
    """
    r0 = _poly_trim([Fraction(c) for c in m])
    r1 = _poly_trim([Fraction(c) for c in u])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while True:
        q, r = _poly_divmod(r0, r1)
        r = _poly_trim(r)
        if not r:
            break
        qs1 = _poly_mul(q, s1)
        n = max(len(s0), len(qs1))
        s = _poly_trim([x - y for x, y in zip(_pad(s0, n), _pad(qs1, n))]
                       ) or [Fraction(0)]
        r0, s0, r1, s1 = r1, s1, r, s
    if len(r1) != 1:
        raise ZeroDivisionError("element not invertible (gcd not constant)")
    c = 1 / r1[0]
    return [x * c for x in s1]


def _pad(c, n):
    return list(c) + [Fraction(0)] * (n - len(c))


# ---------------------------------------------------------------------------
# the degree-6 field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldElement:
    """Element of Q(eps), coordinates in the power basis 1, eps, ..., eps**5."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coords)
        if len(cs) != 6:
            raise ValueError("need 6 coordinates")
        object.__setattr__(self, "coords", cs)

    @classmethod
    def from_rational(cls, v) -> "FieldElement":
        return cls((Fraction(v), _F0, _F0, _F0, _F0, _F0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __add__(self, other):
        other = _coerce6(other)
        if other is None:
            return NotImplemented
        return FieldElement(tuple(a + b for a, b in
                                  zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce6(other)
        if other is None:
            return NotImplemented
        return FieldElement(tuple(a - b for a, b in
                                  zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(tuple(a * other for a in self.coords))
        other = _coerce6(other)
        if other is None:
            return NotImplemented
        prod = _poly_mul(list(self.coords), list(other.coords))
        return FieldElement(_reduce6(prod))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError
        c = _poly_inv_mod(list(self.coords), [Fraction(x) for x in _P_COEFFS])
        return FieldElement(tuple(_pad(c, 6)[:6]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return self * Fraction(f.denominator, f.numerator)
        other = _coerce6(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        out = ONE_K
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"FieldElement({', '.join(str(c) for c in self.coords)})"


_F0 = Fraction(0)


def _coerce6(v):
    if isinstance(v, FieldElement):
        return v
    if isinstance(v, (int, Fraction)):
        return FieldElement.from_rational(v)
    return None


def _reduce6(cs: list[Fraction]) -> tuple[Fraction, ...]:
    for i in range(len(cs) - 1, 5, -1):
        c = cs[i]
        if c:
            for j, pc in enumerate(_P_TAIL):
                cs[i - 6 + j] += c * pc
        cs.pop()
    return tuple(_pad(cs, 6))


ZERO_K = FieldElement((0, 0, 0, 0, 0, 0))
ONE_K = FieldElement((1, 0, 0, 0, 0, 0))
EPS = FieldElement((0, 1, 0, 0, 0, 0))
# alpha = eps + 1/eps, expanded in the power basis
ALPHA_K = FieldElement((1, -1, 3, -2, 1, -1))
# integer eps-coordinates of alpha and alpha**2, for CubicElement.to_field
_ALPHA_EPS = tuple(c.numerator for c in ALPHA_K.coords)
_ALPHA_SQ_EPS = tuple(c.numerator for c in (ALPHA_K * ALPHA_K).coords)


def embed_alpha() -> FieldElement:
    """The real root of the cubic as an element of the degree-6 field."""
    return ALPHA_K


def norm6(u: FieldElement) -> Fraction:
    """Field norm down to Q: determinant of multiplication by u.

    Denominators are cleared first.  The rows are the integer coordinates
    of u, eps*u, ..., eps**5*u (the transpose of the multiplication matrix,
    with the same determinant), taken by fraction-free elimination.
    """
    den, row = _clear_denominators(u.coords)
    rows = [row]
    for _ in range(5):
        top = row[5]
        row = [top * _P_TAIL[0]] + [row[j - 1] + top * _P_TAIL[j]
                                    for j in range(1, 6)]
        rows.append(row)
    return Fraction(_bareiss_det(rows), den ** 6)


def _clear_denominators(coords) -> tuple[int, list[int]]:
    """(den, nums) with den the lcm of the denominators and
    coords[i] == nums[i] / den."""
    den = lcm(*(c.denominator for c in coords))
    return den, [c.numerator * (den // c.denominator) for c in coords]


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Gauss-Bareiss elimination
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2).

    Each step divides by the previous pivot, and that division is exact,
    so every entry stays an integer.  A zero pivot is swapped for a lower
    row; m is overwritten.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        rk = m[k]
        pk = rk[k]
        for ri in m[k + 1:]:
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - rik * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# the cubic subfield Q(alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicElement:
    """Element of Q(alpha), coordinates in the basis 1, alpha, alpha**2."""

    coords: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coords)
        if len(cs) != 3:
            raise ValueError("need 3 coordinates")
        object.__setattr__(self, "coords", cs)

    @classmethod
    def from_rational(cls, v) -> "CubicElement":
        return cls((Fraction(v), _F0, _F0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        other = _coerce3(other)
        if other is None:
            return NotImplemented
        return CubicElement(tuple(a + b for a, b in
                                  zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce3(other)
        if other is None:
            return NotImplemented
        return CubicElement(tuple(a - b for a, b in
                                  zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CubicElement(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CubicElement(tuple(a * other for a in self.coords))
        other = _coerce3(other)
        if other is None:
            return NotImplemented
        c = _poly_mul(list(self.coords), list(other.coords))
        c = _pad(c, 5)
        # alpha**3 = alpha**2 + alpha + 1, alpha**4 = 2*alpha**2 + 2*alpha + 1
        c0 = c[0] + c[3] + c[4]
        c1 = c[1] + c[3] + 2 * c[4]
        c2 = c[2] + c[3] + 2 * c[4]
        return CubicElement((c0, c1, c2))

    __rmul__ = __mul__

    def inv(self) -> "CubicElement":
        if self.is_zero():
            raise ZeroDivisionError
        f = [Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1)]
        c = _poly_inv_mod(list(self.coords), f)
        return CubicElement(tuple(_pad(c, 3)[:3]))

    def __truediv__(self, other):
        other = _coerce3(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int) -> "CubicElement":
        if n < 0:
            return self.inv() ** (-n)
        out = CubicElement.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def to_field(self) -> FieldElement:
        den, (c0, c1, c2) = _clear_denominators(self.coords)
        nums = [c1 * a + c2 * a2 for a, a2 in zip(_ALPHA_EPS, _ALPHA_SQ_EPS)]
        nums[0] += c0
        field = FieldElement(tuple(nums))
        return field if den == 1 else field / den

    def __repr__(self):
        return f"CubicElement({', '.join(str(c) for c in self.coords)})"


def _coerce3(v):
    if isinstance(v, CubicElement):
        return v
    if isinstance(v, (int, Fraction)):
        return CubicElement.from_rational(v)
    return None


ALPHA_C = CubicElement((0, 1, 0))


def norm3(t: CubicElement) -> Fraction:
    """Norm of Q(alpha) down to Q; for integer coordinates this is an
    integer, and norm6 of the same element is its square.

    The 3x3 integer determinant has the coordinates of t, alpha*t and
    alpha**2*t as rows, after denominators are cleared.
    """
    den, (a0, a1, a2) = _clear_denominators(t.coords)
    # one multiplication by alpha sends (x0, x1, x2) to (x2, x0+x2, x1+x2)
    b0, b1, b2 = a2, a0 + a2, a1 + a2
    c0, c1, c2 = b2, b0 + b2, b1 + b2
    det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
           + a2 * (b0 * c1 - b1 * c0))
    return Fraction(det, den ** 3)


# ---------------------------------------------------------------------------
# numeric embeddings
# ---------------------------------------------------------------------------

def rho_enclosure(precision_bits: int = DEFAULT_PRECISION) -> ComplexEnclosure:
    """Rectangle for the distinguished embedding of eps: the unit-circle root
    (alpha + i*sqrt(4 - alpha**2))/2, imaginary part positive."""
    cs = constants(precision_bits)
    half = Fraction(1, 2)
    im = (4 - cs.alpha.square()).sqrt(precision_bits) * half
    return ComplexEnclosure(cs.alpha * half, im)


def embed_field(u: FieldElement,
                precision_bits: int = DEFAULT_PRECISION) -> ComplexEnclosure:
    """Numeric value of u under eps -> rho, as a complex rectangle."""
    rho = rho_enclosure(precision_bits)
    acc = ComplexEnclosure.point(0)
    for c in reversed(u.coords):
        acc = (acc * rho + c).rounded(precision_bits + 32)
    return acc


def all_embeddings(u: FieldElement,
                   precision_bits: int = DEFAULT_PRECISION
                   ) -> list[ComplexEnclosure]:
    """Rectangles for u under all six embeddings of the field.

    The six images of eps are the roots of x**2 - tau*x + 1 = 0 as tau runs
    over the three roots of the cubic.
    """
    bits = precision_bits
    cs = constants(bits)
    eps_images = []
    half = Fraction(1, 2)
    # tau = alpha: eps**2 - alpha*eps + 1 has the two unit-circle roots
    im = (4 - cs.alpha.square()).sqrt(bits) * half
    r = ComplexEnclosure(cs.alpha * half, im)
    eps_images += [r, r.conj()]
    # tau = beta: pick the candidate square root of beta**2 - 4 whose square
    # has negative imaginary part, matching Im(beta**2 - 4) < 0
    d = cs.beta.square() - 4
    if not d.im.is_negative():
        raise PrecisionFailure("discriminant sign unresolved; raise precision")
    ur, vr = sqrt_split(d, bits)
    w = ComplexEnclosure(ur, -vr)
    r1 = (cs.beta + w) * half
    r2 = (cs.beta - w) * half
    eps_images += [r1, r2, r1.conj(), r2.conj()]

    out = []
    for rho in eps_images:
        acc = ComplexEnclosure.point(0)
        for c in reversed(u.coords):
            acc = (acc * rho + c).rounded(bits + 32)
        out.append(acc)
    return out


def _cubic_embed_real(t: CubicElement, cs: RealConstants) -> Enclosure:
    c0, c1, c2 = t.coords
    return cs.alpha.square() * c2 + cs.alpha * c1 + c0


def _cubic_embed_beta(t: CubicElement, cs: RealConstants) -> ComplexEnclosure:
    c0, c1, c2 = t.coords
    return cs.beta.square() * c2 + cs.beta * c1 + c0


# ---------------------------------------------------------------------------
# closed-form constants as exact field elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinetConstants:
    """The three roots and the closed-form coefficients, all exact.

    T_n = a*alpha**n + b*beta**n + c*gamma**n; the identities defining that
    statement for n = 0, 1, 2 are asserted on construction.
    """

    alpha: FieldElement
    beta: FieldElement
    gamma: FieldElement
    a: FieldElement
    b: FieldElement
    c: FieldElement


_binet_lock = threading.Lock()
_binet_cache: list[BinetConstants] = []
_sqrt11_cache: list[FieldElement] = []


def binet_constants() -> BinetConstants:
    with _binet_lock:
        if not _binet_cache:
            _binet_cache.append(_build_binet())
        return _binet_cache[0]


def _check(cond: bool, what: str):
    if not cond:
        raise ArithmeticError(f"exact identity failed: {what}")


def _build_binet() -> BinetConstants:
    alpha = ALPHA_K
    # beta, gamma solve x**2 - (1-alpha)x + 1/alpha = 0.  The discriminant
    # (1-alpha)**2 - 4/alpha factors as (alpha**2-1)(alpha**2-4), and
    # alpha**2 - 4 = (2*eps - alpha)**2 exactly (from eps**2 = alpha*eps - 1),
    # so only sqrt(alpha**2 - 1) needs reconstruction.
    s = _cubic_sqrt_reconstruct(CubicElement((-1, 0, 1)),
                                DEFAULT_PRECISION, MAX_PRECISION,
                                DEFAULT_DENOMINATOR_BOUND)
    _check(s is not None, "sqrt(alpha**2 - 1) reconstruction")
    psi = s.to_field() * (EPS * 2 - alpha)
    disc = (alpha - 1) * (alpha - 1) - alpha.inv() * 4
    _check(psi * psi == disc, "psi**2 = (alpha-1)**2 - 4/alpha")

    half = Fraction(1, 2)
    beta = (ONE_K - alpha + psi) * half
    gamma = (ONE_K - alpha - psi) * half
    # orient beta to the root with positive imaginary part
    bits = DEFAULT_PRECISION
    while True:
        emb = embed_field(beta, bits)
        if emb.im.is_positive():
            break
        if emb.im.is_negative():
            beta, gamma = gamma, beta
            break
        bits *= 2
        if bits > MAX_PRECISION:
            raise PrecisionFailure("could not orient beta")

    for root, name in ((beta, "beta"), (gamma, "gamma")):
        _check(root * root * root - root * root - root - ONE_K == ZERO_K,
               f"f({name}) = 0")
    _check(alpha * beta * gamma == ONE_K, "alpha*beta*gamma = 1")
    _check(beta * gamma == alpha.inv(), "beta*gamma = 1/alpha")
    _check(alpha + beta + gamma == ONE_K, "trace = 1")

    a = CubicElement((-1, -2, 3)).inv().to_field()  # 1/f'(alpha)
    b = ((beta - alpha) * (beta - gamma)).inv()
    c = ((gamma - alpha) * (gamma - beta)).inv()
    _check(a + b + c == ZERO_K, "sum of coefficients is 0")
    _check(a * alpha + b * beta + c * gamma == ZERO_K, "closed form at n=1")
    _check(a * alpha ** 2 + b * beta ** 2 + c * gamma ** 2 == ONE_K,
           "closed form at n=2")
    return BinetConstants(alpha, beta, gamma, a, b, c)


def sqrt_minus_11() -> FieldElement:
    """A square root of -11 inside the field: half the product of root
    differences (the square root of the cubic's discriminant, -44)."""
    with _binet_lock:
        if _sqrt11_cache:
            return _sqrt11_cache[0]
    bc = binet_constants()
    v = ((bc.alpha - bc.beta) * (bc.alpha - bc.gamma)
         * (bc.beta - bc.gamma)) * Fraction(1, 2)
    _check(v * v == FieldElement.from_rational(-11), "sqrt(-11)**2 = -11")
    with _binet_lock:
        if not _sqrt11_cache:
            _sqrt11_cache.append(v)
        return _sqrt11_cache[0]


# coordinate vectors of a and alpha*a over the common denominator 22
_A_NUM_22 = (6, -13, 19, -14, 9, -5)
_ALPHA_A_NUM_22 = (-2, 8, 1, 1, -3, -2)


def field_identity_report() -> dict[str, bool]:
    """Every exact identity the construction rests on, re-checked from
    scratch with zero tolerance.  Returns an ordered name -> verdict map."""
    bc = binet_constants()
    alpha, beta, gamma = bc.alpha, bc.beta, bc.gamma
    a, b, c = bc.a, bc.b, bc.c
    fprime = (alpha * alpha * 3) - alpha * 2 - 1
    v11 = sqrt_minus_11()
    checks: dict[str, bool] = {}
    checks["cubic_discriminant_minus_44"] = _cubic_discriminant() == -44
    checks["alpha_is_eps_plus_inv"] = alpha == EPS + EPS.inv()
    checks["alpha_root_of_cubic"] = (
        alpha ** 3 - alpha ** 2 - alpha - ONE_K == ZERO_K)
    checks["root_sum_is_1"] = alpha + beta + gamma == ONE_K
    checks["pair_sum_is_minus_1"] = (
        alpha * beta + alpha * gamma + beta * gamma
        == FieldElement.from_rational(-1))
    checks["root_product_is_1"] = alpha * beta * gamma == ONE_K
    checks["beta_gamma_times_alpha_is_1"] = beta * gamma * alpha == ONE_K
    checks["beta_plus_gamma"] = beta + gamma == ONE_K - alpha
    checks["a_inverts_fprime"] = a * fprime == ONE_K
    checks["a_over_22"] = a * 22 == FieldElement(_A_NUM_22)
    checks["alpha_a_over_22"] = alpha * a * 22 == FieldElement(_ALPHA_A_NUM_22)
    checks["closed_form_n0"] = a + b + c == ZERO_K
    checks["closed_form_n1"] = a * alpha + b * beta + c * gamma == ZERO_K
    checks["closed_form_n2"] = (
        a * alpha ** 2 + b * beta ** 2 + c * gamma ** 2 == ONE_K)
    checks["sqrt_minus_11_squares"] = v11 * v11 == FieldElement.from_rational(-11)
    return checks


# ---------------------------------------------------------------------------
# square testing in the cubic subfield and in the full field
# ---------------------------------------------------------------------------

def _rationalize(enc: Enclosure, max_den: int) -> Fraction:
    return enc.mid().limit_denominator(max_den)


def _cubic_sqrt_reconstruct(t: CubicElement, precision_bits: int,
                            max_precision_bits: int,
                            denominator_bound: int) -> CubicElement | None:
    """Search for s in Q(alpha) with s**2 = t by taking square roots of the
    numeric embeddings, interpolating back to the power basis, rounding to
    nearby rationals, and verifying exactly.

    Returns None when no square root with denominators up to the bound
    exists; exact verification makes false positives impossible.
    """
    bits = precision_bits
    # enough precision that a true rational coordinate within the bound is
    # recovered by continued-fraction rounding of the midpoint
    need = Fraction(1, 2 * denominator_bound ** 2)
    while True:
        cs = constants(bits)
        sa = _cubic_embed_real(t, cs)
        if sa.is_negative():
            return None  # real embedding negative: no square root in Q(alpha)
        if sa.contains_zero() and not t.is_zero():
            bits *= 2
            if bits > max_precision_bits:
                raise PrecisionFailure("sign of real embedding unresolved")
            continue
        sb = _cubic_embed_beta(t, cs)
        ea = sa.sqrt(bits)
        u, v = sqrt_split(sb, bits)
        # fix the real embedding to the nonnegative square root and try all
        # four sign placements of the complex one; exactly one combination
        # is consistent when t is a square
        w1 = ComplexEnclosure(u, v)
        w2 = ComplexEnclosure(u, -v)
        for w in (w1, w2, -w1, -w2):
            # Lagrange interpolation through the three roots; the divided
            # denominators are exactly the closed-form coefficients:
            # 1/((alpha-beta)(alpha-gamma)) = a, etc.
            wc = w.conj()
            coeff2 = (cs.a * ea) + (cs.b * w + cs.c * wc).re
            coeff1 = -((cs.a * ea) * (cs.beta + cs.gamma).re
                       + ((cs.b * w) * (cs.alpha + cs.gamma)
                          + (cs.c * wc) * (cs.alpha + cs.beta)).re)
            coeff0 = ((cs.a * ea) * cs.beta.abs2()
                      + ((cs.b * w) * (cs.alpha * cs.gamma)
                         + (cs.c * wc) * (cs.alpha * cs.beta)).re)
            cand = CubicElement((_rationalize(coeff0, denominator_bound),
                                 _rationalize(coeff1, denominator_bound),
                                 _rationalize(coeff2, denominator_bound)))
            if cand * cand == t:
                return cand
        widths = [coeff0.width(), coeff1.width(), coeff2.width()]
        if max(widths) <= need:
            return None
        bits *= 2
        if bits > max_precision_bits:
            raise PrecisionFailure("square root reconstruction unresolved")


# -- witness primes ---------------------------------------------------------

def _prime_iter(bound: int):
    """Primes 3, 5, 7, ... up to bound."""
    known = [2]
    n = 3
    while n <= bound:
        is_p = True
        for p in known:
            if p * p > n:
                break
            if n % p == 0:
                is_p = False
                break
        if is_p:
            known.append(n)
            yield n
        n += 2


def _legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def _sqrt_mod(a: int, q: int) -> int | None:
    """Tonelli-Shanks square root mod an odd prime, None for non-residues."""
    a %= q
    if a == 0:
        return 0
    if _legendre(a, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while _legendre(n, q) != -1:
        n += 1
    x = pow(a, (s + 1) // 2, q)
    b = pow(a, s, q)
    g = pow(n, s, q)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % q
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (r - m - 1), q)
        g = gs * gs % q
        x = x * gs % q
        b = b * g % q
        r = m


def _pmul_mod(a, b, mod_poly, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _pmod(out, mod_poly, q)


def _pmod(a, m, q):
    a = [x % q for x in a]
    dm = len(m) - 1
    inv = pow(m[-1], -1, q)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv % q
        k = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[k + i] = (a[k + i] - f * c) % q
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd(a, b, q):
    a = [x % q for x in a]
    b = [x % q for x in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _pmod(a, b, q)
    if a:
        inv = pow(a[-1], -1, q)
        a = [x * inv % q for x in a]
    return a


def _ppow(base, e, mod_poly, q):
    out = [1]
    b = _pmod(list(base), mod_poly, q)
    while e:
        if e & 1:
            out = _pmul_mod(out, b, mod_poly, q)
        b = _pmul_mod(b, b, mod_poly, q)
        e >>= 1
    return out


def roots_of_cubic_mod(q: int) -> list[int]:
    """Roots of x**3 - x**2 - x - 1 modulo an odd prime q != 11, sorted.

    The polynomial is squarefree away from 2 and 11 (discriminant -44), so
    there are 0, 1 or 3 roots.
    """
    f = [q - 1, q - 1, q - 1, 1]
    if q <= 3000:
        return [r for r in range(q)
                if (((r - 1) * r - 1) * r - 1) % q == 0]
    xq = _ppow([0, 1], q, f, q)
    g = _pgcd(f, [(c - d) % q for c, d in
                  zip(_pad_int(xq, 4), _pad_int([0, 1], 4))], q)
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) * pow(g[1], -1, q) % q]
    # fully split: peel one root, then solve the deflated quadratic.
    # synthetic division of x**3 + a2 x**2 + a1 x + a0 by (x - root) gives
    # x**2 + (a2 + root) x + (a1 + root*(a2 + root)).
    root = _peel_root(g, q)
    b1 = (g[2] + root) % q
    b0 = (g[1] + root * b1) % q
    disc = (b1 * b1 - 4 * b0) % q
    sq = _sqrt_mod(disc, q)
    roots = [root]
    if sq is not None:
        inv2 = pow(2, -1, q)
        roots.append((-b1 + sq) * inv2 % q)
        roots.append((-b1 - sq) * inv2 % q)
    return sorted(set(roots))


def _pad_int(c, n):
    return list(c) + [0] * (n - len(c))


def _peel_root(g, q) -> int:
    """One root of a fully split squarefree monic polynomial mod q, found by
    splitting with (x+a)**((q-1)/2) - 1 for successive shifts a."""
    h = [c % q for c in g]
    for a in range(512):
        val = 0
        for c in reversed(h):
            val = (val * (q - a) + c) % q
        if val == 0:
            return (q - a) % q
        e = _ppow([a, 1], (q - 1) // 2, h, q)
        e = _pad_int(list(e), 1)
        e[0] = (e[0] - 1) % q
        d = _pgcd(h, e, q)
        if 1 < len(d) < len(h):
            h = d
            if len(h) == 2:
                return (-h[0]) * pow(h[1], -1, q) % q
    raise PrecisionFailure("root splitting stalled")


def _cubic_nonsquare_witness(t: CubicElement,
                             prime_bound: int) -> tuple[int, int] | None:
    """A pair (q, r) with r a root of the cubic mod q and the image of t a
    quadratic non-residue mod q; existence of one such pair proves t is not
    a square in Q(alpha).

    Skips q = 2 (no Legendre symbol), q = 11 (divides the discriminant) and
    primes dividing a coordinate denominator.
    """
    den, nums = _clear_denominators(t.coords)
    for q in _prime_iter(prime_bound):
        if q == 11 or den % q == 0:
            continue
        for r in roots_of_cubic_mod(q):
            num = (nums[0] + r * (nums[1] + r * nums[2])) % q
            if num == 0:
                continue
            val = num * pow(den, -1, q) % q
            if _legendre(val, q) == -1:
                return q, r
    return None


@dataclass(frozen=True)
class SquareCertificate:
    """Outcome of a squareness test in the degree-6 field.

    For a positive verdict, ``root`` squares exactly to the element tested.
    For a negative verdict, ``witness_self`` refutes squareness of the
    element itself in Q(alpha) and ``witness_twisted`` refutes it for the
    element times -11; together these rule out a square root anywhere in the
    field, because the field is the quadratic extension of Q(alpha) by
    sqrt(-11).
    """

    element: CubicElement
    verdict: bool
    root: FieldElement | None = None
    witness_self: tuple[int, int] | None = None
    witness_twisted: tuple[int, int] | None = None


def is_square_in_K(t: CubicElement,
                   precision_bits: int = DEFAULT_PRECISION,
                   max_precision_bits: int = MAX_PRECISION,
                   witness_prime_bound: int = DEFAULT_WITNESS_PRIME_BOUND,
                   denominator_bound: int = DEFAULT_DENOMINATOR_BOUND
                   ) -> SquareCertificate:
    """Decide whether a nonzero element of Q(alpha) is a square in the
    degree-6 field, with a checkable certificate either way.

    An element t of Q(alpha) is a square in the big field exactly when t or
    -11*t is a square already in Q(alpha).  Square roots are found by numeric
    reconstruction and verified exactly; non-squareness is certified by
    witness primes for both t and -11*t.
    """
    if t.is_zero():
        raise ValueError("zero is a trivial square; pass a nonzero element")
    s = _cubic_sqrt_reconstruct(t, precision_bits, max_precision_bits,
                                denominator_bound)
    if s is not None:
        root = s.to_field()
        _check(root * root == t.to_field(), "certificate root squares back")
        return SquareCertificate(t, True, root=root)
    t11 = t * (-11)
    s11 = _cubic_sqrt_reconstruct(t11, precision_bits, max_precision_bits,
                                  denominator_bound)
    if s11 is not None:
        root = s11.to_field() * sqrt_minus_11().inv()
        _check(root * root == t.to_field(), "certificate root squares back")
        return SquareCertificate(t, True, root=root)
    w1 = _cubic_nonsquare_witness(t, witness_prime_bound)
    w2 = _cubic_nonsquare_witness(t11, witness_prime_bound)
    if w1 is not None and w2 is not None:
        return SquareCertificate(t, False, witness_self=w1,
                                 witness_twisted=w2)
    raise InconclusiveSquareTest(
        f"no certificate for {t} within prime bound {witness_prime_bound}")


# ---------------------------------------------------------------------------
# root-of-unity tests for monomials in the three roots
# ---------------------------------------------------------------------------

def monomial(m_alpha: int, m_beta: int, m_gamma: int) -> FieldElement:
    """alpha**m_alpha * beta**m_beta * gamma**m_gamma, exactly."""
    bc = binet_constants()
    return bc.alpha ** m_alpha * bc.beta ** m_beta * bc.gamma ** m_gamma


def is_root_of_unity(u: FieldElement) -> bool:
    """Exact test; the only roots of unity in the field are +-1 (see the
    module docstring)."""
    if u.is_zero():
        return False
    return u == ONE_K or u == -ONE_K


def fast_path_refutes(m_alpha: int, m_beta: int, m_gamma: int) -> bool:
    """Cheap sign test: for m_alpha < 0 < m_beta, m_gamma the monomial has
    absolute value alpha**((2*m_alpha - m_beta - m_gamma)/2) != 1 at the real
    embedding (|beta| = |gamma| = alpha**(-1/2)), so it cannot be a root of
    unity.  Returns True when that criterion applies and refutes."""
    return (m_alpha < 0 and m_beta > 0 and m_gamma > 0
            and 2 * m_alpha - m_beta - m_gamma < 0)
