"""Exact arithmetic in the splitting field of x**3 - x**2 - x - 1.

The cubic has discriminant -44, so its splitting field K is the degree-6
field Q(alpha, sqrt(-11)).  Elements of the cubic field Q(alpha)
(``CubicElement``) and of K (``FieldElement``) share one power-basis
arithmetic, ``_Element``; the two classes differ only in ``_TAIL``, the
tail of the minimal polynomial that reduces their products.  We model K as
Q(eps) with

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

Non-squareness in Q(alpha) is certified by a witness pair (q, r): r a root
of the cubic mod an odd prime q != 11 at which the element's image is a
quadratic non-residue.  ``roots_of_cubic_mod`` finds the roots by one scan
of the residues mod q, so the witness search stops at WITNESS_PRIME_BOUND =
3000.  The witnesses for a and alpha*a are q = 7 and q = 17, far below it.
An element with no witness costs the search through all 429 odd primes up
to 3000: about 0.12 s on a shared 2-core VM with Python 3.11.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .constants import DEFAULT_PRECISION, MAX_PRECISION, constants
from .enclosure import (ComplexEnclosure, Enclosure, PrecisionFailure, Rat,
                        _Frozen, _set, precision_ladder, sqrt_split)

# tail of p(x), ascending: eps**6 = -1 + eps - 2*eps**2 + ... + eps**5
_P_TAIL = (-1, 1, -2, 3, -2, 1)

# witness primes are searched up to this bound (see the module docstring),
# and a lemma2 record may name none above it
WITNESS_PRIME_BOUND = 3000
# square roots in Q(alpha) are reconstructed with denominators up to this
DENOMINATOR_BOUND = 10 ** 12


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
    within DENOMINATOR_BOUND and WITNESS_PRIME_BOUND."""


# ---------------------------------------------------------------------------
# dense polynomial product, coefficients ascending
# ---------------------------------------------------------------------------

def _poly_mul(a, b) -> list[Rat]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# power-basis elements: one arithmetic for Q(alpha) and for Q(eps)
# ---------------------------------------------------------------------------

class _Element(_Frozen):
    """Element of a number field Q(x) in the power basis 1, x, ..., x**(n-1)
    (Cohen, A Course in Computational Algebraic Number Theory, 4.2).

    The one field is ``coords``, set once.  A subclass sets ``_TAIL``, the
    tail of the monic minimal polynomial of x: x**n == sum(_TAIL[j] * x**j).
    Coordinates are ``int`` or ``Fraction``: integers stay plain ints,
    anything else becomes a Fraction, and the two compare and hash alike.
    An element equals only an element of its own class with the same
    coordinates, and mixes only with rationals and with elements of its
    own class, so Q(alpha) never meets Q(eps) implicitly.
    """

    __slots__ = ("coords",)
    _TAIL: tuple[int, ...]

    def __init__(self, coords: tuple[Rat, ...]):
        cs = tuple(c if type(c) is int else Fraction(c) for c in coords)
        if len(cs) != len(self._TAIL):
            raise ValueError(f"need {len(self._TAIL)} coordinates")
        _set(self, "coords", cs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __reduce__(self):
        return type(self), (self.coords,)

    @classmethod
    def from_rational(cls, v):
        return cls((v,) + (0,) * (len(cls._TAIL) - 1))

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, cls):
            return v
        if isinstance(v, (int, Fraction)):
            return cls.from_rational(v)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(tuple(a + b for a, b in
                                zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(tuple(a - b for a, b in
                                zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)(tuple(a * other for a in self.coords))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cs = _poly_mul(self.coords, other.coords)
        # top-down: x**i = sum(tail[j] * x**(i - n + j)), highest i first
        n = len(self._TAIL)
        for i in range(len(cs) - 1, n - 1, -1):
            c = cs.pop()
            if c:
                for j, t in enumerate(self._TAIL):
                    cs[i - n + j] += c * t
        return type(self)(tuple(cs))

    __rmul__ = __mul__

    def inv(self):
        """1/u by Cramer's rule over integer rows.

        With den*u = nums cleared of denominators and r_i the coordinates
        of x**i * nums (``_shift_rows``), v = 1/nums solves
        sum(v_i * r_i) = e_0.  So v_i is the determinant of the rows with
        r_i replaced by e_0, over the determinant of the rows (the norm of
        nums, nonzero for u != 0); expanding along e_0 turns the first into
        (-1)**i times the minor without row i and column 0.
        """
        if self.is_zero():
            raise ZeroDivisionError
        den, nums = _clear_denominators(self.coords)
        rows = _shift_rows(nums, self._TAIL)
        det = _bareiss_det([list(r) for r in rows])
        coords = []
        for i in range(len(rows)):
            minor = _bareiss_det([r[1:] for k, r in enumerate(rows)
                                  if k != i])
            c = Fraction(-den * minor if i & 1 else den * minor, det)
            coords.append(c.numerator if c.denominator == 1 else c)
        return type(self)(tuple(coords))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return (f"{type(self).__name__}"
                f"({', '.join(str(c) for c in self.coords)})")


# ---------------------------------------------------------------------------
# the degree-6 field
# ---------------------------------------------------------------------------

class FieldElement(_Element):
    """Element of Q(eps), coordinates in the power basis 1, eps, ..., eps**5.

    The arithmetic is ``_Element``'s; only ``_TAIL``, the tail of p(x),
    differs from ``CubicElement``.
    """

    __slots__ = ()
    _TAIL = _P_TAIL


ZERO_K = FieldElement((0, 0, 0, 0, 0, 0))
ONE_K = FieldElement((1, 0, 0, 0, 0, 0))
EPS = FieldElement((0, 1, 0, 0, 0, 0))
# alpha = eps + 1/eps, expanded in the power basis
ALPHA_K = FieldElement((1, -1, 3, -2, 1, -1))
# integer eps-coordinates of alpha and alpha**2, for CubicElement.to_field
_ALPHA_EPS = ALPHA_K.coords
_ALPHA_SQ_EPS = (ALPHA_K * ALPHA_K).coords


def norm6(u: FieldElement) -> Rat:
    """Field norm down to Q: determinant of multiplication by u.

    An ``int`` for integral u, a ``Fraction`` otherwise.  Denominators are
    cleared first.  The rows are the integer coordinates
    of u, eps*u, ..., eps**5*u (the transpose of the multiplication matrix,
    with the same determinant), taken by fraction-free elimination.
    """
    den, nums = _clear_denominators(u.coords)
    det = _bareiss_det(_shift_rows(nums, _P_TAIL))
    return det if den == 1 else Fraction(det, den ** 6)


def _shift_rows(nums: list[int], tail) -> list[list[int]]:
    """The coordinates of u, x*u, ..., x**(n-1)*u for u = nums in the power
    basis of Q(x) with x**n = sum(tail[j] * x**j): a multiplication by x
    shifts every coordinate up one place and folds the top one back in
    through the tail."""
    row = nums
    rows = [row]
    for _ in range(len(tail) - 1):
        top = row[-1]
        row = [top * tail[0]] + [row[j - 1] + top * tail[j]
                                 for j in range(1, len(tail))]
        rows.append(row)
    return rows


def _clear_denominators(coords) -> tuple[int, list[int]]:
    """(den, nums) with den the lcm of the denominators and
    coords[i] == nums[i] / den."""
    if all(type(c) is int for c in coords):
        return 1, list(coords)
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

class CubicElement(_Element):
    """Element of Q(alpha), coordinates in the basis 1, alpha, alpha**2.

    The arithmetic is ``_Element``'s; only ``_TAIL`` differs from
    ``FieldElement``.
    """

    __slots__ = ()
    _TAIL = (1, 1, 1)  # alpha**3 = 1 + alpha + alpha**2

    def to_field(self) -> FieldElement:
        den, (c0, c1, c2) = _clear_denominators(self.coords)
        nums = [c1 * a + c2 * a2 for a, a2 in zip(_ALPHA_EPS, _ALPHA_SQ_EPS)]
        nums[0] += c0
        field = FieldElement(tuple(nums))
        return field if den == 1 else field / den


ALPHA_C = CubicElement((0, 1, 0))


def norm3(t: CubicElement) -> Rat:
    """Norm of Q(alpha) down to Q: an ``int`` for integral t, a
    ``Fraction`` otherwise; norm6 of the same element is its square.

    The 3x3 integer determinant has the coordinates of t, alpha*t and
    alpha**2*t as rows, after denominators are cleared.
    """
    den, (a0, a1, a2) = _clear_denominators(t.coords)
    # one multiplication by alpha sends (x0, x1, x2) to (x2, x0+x2, x1+x2)
    b0, b1, b2 = a2, a0 + a2, a1 + a2
    c0, c1, c2 = b2, b0 + b2, b1 + b2
    det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
           + a2 * (b0 * c1 - b1 * c0))
    return det if den == 1 else Fraction(det, den ** 3)


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


def _horner(coords, root: ComplexEnclosure, bits: int) -> ComplexEnclosure:
    """sum(coords[i] * root**i) by Horner's rule, rounded at bits + 32."""
    acc = ComplexEnclosure.point(0)
    for c in reversed(coords):
        acc = (acc * root + c).rounded(bits + 32)
    return acc


def embed_field(u: FieldElement,
                precision_bits: int = DEFAULT_PRECISION) -> ComplexEnclosure:
    """Numeric value of u under eps -> rho, as a complex rectangle."""
    return _horner(u.coords, rho_enclosure(precision_bits), precision_bits)


def _cubic_embed(t: CubicElement, root: Enclosure | ComplexEnclosure
                 ) -> Enclosure | ComplexEnclosure:
    """t under alpha -> root, a root of the cubic as either enclosure."""
    c0, c1, c2 = t.coords
    return root.square() * c2 + root * c1 + c0


# ---------------------------------------------------------------------------
# closed-form constants as exact field elements
# ---------------------------------------------------------------------------

class BinetConstants(NamedTuple):
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


def _check(cond: bool, what: str):
    if not cond:
        raise ArithmeticError(f"exact identity failed: {what}")


@functools.cache
def binet_constants() -> BinetConstants:
    alpha = ALPHA_K
    # beta = eps**3 - eps**2 + eps - 1 is the root that the module docstring
    # names, and the trace gives gamma; the checks below prove both roots
    beta = FieldElement((-1, 1, -1, 1, 0, 0))
    gamma = ONE_K - alpha - beta
    _check(embed_field(beta).im.is_positive(),
           "beta lands on the root with positive imaginary part")

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


@functools.cache
def sqrt_minus_11() -> FieldElement:
    """A square root of -11 inside the field: half the product of root
    differences (the square root of the cubic's discriminant, -44)."""
    bc = binet_constants()
    v = ((bc.alpha - bc.beta) * (bc.alpha - bc.gamma)
         * (bc.beta - bc.gamma)) * Fraction(1, 2)
    _check(v * v == FieldElement.from_rational(-11), "sqrt(-11)**2 = -11")
    return v


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
    # enough precision that a true rational coordinate within the bound is
    # recovered by continued-fraction rounding of the midpoint
    need = Fraction(1, 2 * denominator_bound ** 2)
    for bits in precision_ladder(precision_bits, max_precision_bits):
        cs = constants(bits)
        sa = _cubic_embed(t, cs.alpha)
        if sa.is_negative():
            return None  # real embedding negative: no square root in Q(alpha)
        if sa.contains_zero() and not t.is_zero():
            failure = "sign of real embedding unresolved"
            continue
        sb = _cubic_embed(t, cs.beta)
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
        failure = "square root reconstruction unresolved"
    raise PrecisionFailure(failure)


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


def roots_of_cubic_mod(q: int) -> list[int]:
    """Roots of x**3 - x**2 - x - 1 modulo an odd prime q != 11, sorted,
    by a scan of every residue.

    The polynomial is squarefree away from 2 and 11 (discriminant -44), so
    there are 0, 1 or 3 roots.
    """
    return [r for r in range(q) if (((r - 1) * r - 1) * r - 1) % q == 0]


def _cubic_nonsquare_witness(t: CubicElement) -> tuple[int, int] | None:
    """A pair (q, r) with r a root of the cubic mod q and the image of t a
    quadratic non-residue mod q; existence of one such pair proves t is not
    a square in Q(alpha).

    Skips q = 2 (no Legendre symbol), q = 11 (divides the discriminant) and
    primes dividing a coordinate denominator.
    """
    den, nums = _clear_denominators(t.coords)
    for q in _prime_iter(WITNESS_PRIME_BOUND):
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


class SquareCertificate(NamedTuple):
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
                   max_precision_bits: int = MAX_PRECISION
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
                                DENOMINATOR_BOUND)
    if s is not None:
        root = s.to_field()
        _check(root * root == t.to_field(), "certificate root squares back")
        return SquareCertificate(t, True, root=root)
    t11 = t * (-11)
    s11 = _cubic_sqrt_reconstruct(t11, precision_bits, max_precision_bits,
                                  DENOMINATOR_BOUND)
    if s11 is not None:
        root = s11.to_field() * sqrt_minus_11().inv()
        _check(root * root == t.to_field(), "certificate root squares back")
        return SquareCertificate(t, True, root=root)
    w1 = _cubic_nonsquare_witness(t)
    w2 = _cubic_nonsquare_witness(t11)
    if w1 is not None and w2 is not None:
        return SquareCertificate(t, False, witness_self=w1,
                                 witness_twisted=w2)
    raise InconclusiveSquareTest(
        f"no certificate for {t} within prime bound {WITNESS_PRIME_BOUND}")


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

