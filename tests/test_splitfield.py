"""Exact arithmetic in the degree-6 field, embeddings, squareness
certificates, roots of unity.

Inverses are checked against the extended Euclidean algorithm modulo the
minimal polynomial, the implementation that Cramer's rule replaced, kept
here as the oracle."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triboverify.splitfield import (ALPHA_C, ALPHA_K, EPS, ONE_K, ZERO_K,
                                    CubicElement, FieldElement,
                                    binet_constants, embed_field,
                                    field_identity_report, is_root_of_unity,
                                    is_square_in_K, monomial, norm3, norm6,
                                    roots_of_cubic_mod, sqrt_minus_11,
                                    _legendre, _poly_mul)

from fast_path import fast_path_refutes

mpmath.mp.prec = 120
MP_ALPHA = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, 1.84)


@pytest.fixture(autouse=True)
def _pin_mp_precision():
    old = mpmath.mp.prec
    mpmath.mp.prec = 120
    yield
    mpmath.mp.prec = old


def _rand_elt(rng) -> FieldElement:
    return FieldElement([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(6)])


def test_ring_axioms_sampled():
    rng = random.Random(20260822)
    for _ in range(40):
        u, v, w = _rand_elt(rng), _rand_elt(rng), _rand_elt(rng)
        assert u * (v + w) == u * v + u * w
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u + ZERO_K == u
        assert u * ONE_K == u


def test_inverse_sampled():
    rng = random.Random(7)
    for _ in range(30):
        u = _rand_elt(rng)
        if u.is_zero():
            continue
        assert u * u.inv() == ONE_K


def test_minimal_polynomial_of_eps():
    # eps satisfies the sextic: coefficients 1,-1,2,-3,2,-1,1
    acc = ZERO_K
    for i, c in enumerate((1, -1, 2, -3, 2, -1, 1)):
        acc = acc + EPS ** i * c
    assert acc == ZERO_K


def test_alpha_coordinates():
    assert ALPHA_K == EPS + EPS.inv()
    assert EPS.inv() == FieldElement((1, -2, 3, -2, 1, -1))
    assert ALPHA_K ** 3 - ALPHA_K ** 2 - ALPHA_K - ONE_K == ZERO_K


def test_known_norms():
    assert norm6(ALPHA_K) == 1
    assert norm6(EPS) == 1
    assert norm6(FieldElement.from_rational(2)) == 64
    a = CubicElement((-1, -2, 3)).inv()
    assert norm3(a) == Fraction(1, 44)
    assert norm6(a.to_field()) == Fraction(1, 1936)


def _det(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination: the oracle for the
    integer norm kernels."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _oracle_norm(element, generator) -> Fraction:
    """Determinant of multiplication by element, the columns built by
    repeated Fraction multiplication by the field generator."""
    cols = []
    cur = element
    for _ in range(len(element.coords)):
        cols.append(cur.coords)
        cur = cur * generator
    n = len(cols)
    return _det([[cols[j][i] for j in range(n)] for i in range(n)])


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pad(c, n):
    return list(c) + [0] * (n - len(c))


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    while _poly_trim(a) and len(a) >= len(b):
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


def _oracle_inv(element):
    """1/element by Euclid modulo the minimal polynomial, in Fractions."""
    n = len(element.coords)
    modulus = [-t for t in element._TAIL] + [1]
    return type(element)(tuple(_pad(_poly_inv_mod(element.coords, modulus),
                                    n)))


# coordinates: zero often (so pivots vanish), big integers, small fractions
_coord = st.one_of(st.just(Fraction(0)),
                   st.integers(-10 ** 12, 10 ** 12).map(Fraction),
                   st.fractions(-100, 100, max_denominator=30))
_cubic = st.tuples(_coord, _coord, _coord).map(CubicElement)
_field = st.tuples(*[_coord] * 6).map(FieldElement)
_props = settings(deadline=None)


@_props
@given(_cubic)
@example(CubicElement((0, 0, 0)))
@example(CubicElement((0, 0, Fraction(-3, 7))))
def test_norm3_matches_fraction_oracle(t):
    assert norm3(t) == _oracle_norm(t, ALPHA_C)


@_props
@given(_field)
@example(ZERO_K)
@example(EPS)
@example(FieldElement((0, 0, 0, 0, 0, Fraction(5, 2))))
def test_norm6_matches_fraction_oracle(u):
    assert norm6(u) == _oracle_norm(u, EPS)


# coordinates of either type: plain ints as well as Fractions
_mixed = st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12), _coord)
_BC = binet_constants()


@_props
@given(st.one_of(st.tuples(_mixed, _mixed, _mixed).map(CubicElement),
                 st.tuples(*[_mixed] * 6).map(FieldElement)))
@example(ALPHA_C)
@example(CubicElement((-1, -2, 3)))  # f'(alpha)
@example(EPS)
@example(_BC.alpha)
@example(_BC.a)
@example(_BC.b)
@example(_BC.beta - _BC.alpha)
@example(FieldElement((0, 0, 0, 0, 0, Fraction(5, 2))))
def test_inverse_matches_euclid_oracle(u):
    assume(not u.is_zero())
    inv = u.inv()
    assert inv == _oracle_inv(u)
    assert u * inv == type(u).from_rational(1)


@_props
@given(_field, _field)
def test_norm_multiplicative_sampled(u, v):
    assert norm6(u * v) == norm6(u) * norm6(v)


@_props
@given(_cubic)
def test_norm6_is_norm3_squared_sampled(t):
    assert norm6(t.to_field()) == norm3(t) ** 2


@_props
@given(_cubic)
def test_to_field_matches_fraction_route(t):
    c0, c1, c2 = t.coords
    assert t.to_field() == (FieldElement.from_rational(c0) + ALPHA_K * c1
                            + (ALPHA_K * ALPHA_K) * c2)


# integral elements built twice: from ints and from the equal Fractions
_int_coord = st.one_of(st.just(0), st.integers(-3, 3),
                       st.integers(-10 ** 12, 10 ** 12))


def _two_builds(cls, n):
    return st.tuples(*[_int_coord] * n).map(
        lambda cs: (cls(cs), cls(tuple(Fraction(c) for c in cs))))


def _no_floats(u) -> bool:
    return not any(type(c) is float for c in u.coords)


def _same_element(x, fx) -> bool:
    return x == fx and hash(x) == hash(fx)


@_props
@given(_two_builds(CubicElement, 3), _two_builds(CubicElement, 3))
@example((ALPHA_C, CubicElement((Fraction(0), Fraction(1), Fraction(0)))),
         (CubicElement((2, 0, 0)), CubicElement.from_rational(Fraction(2))))
def test_integral_cubic_builds_agree(a, b):
    (x, fx), (y, fy) = a, b
    assert all(type(c) is int for c in x.coords)
    assert _same_element(x, fx)
    assert _same_element(x * y, fx * fy)
    assert all(type(c) is int for c in (x * y).coords)
    assert _same_element(x.to_field(), fx.to_field())
    assert norm3(x) == norm3(fx) == _oracle_norm(fx, ALPHA_C)
    assert type(norm3(x)) is type(norm3(fx)) is int
    assert type(norm6(x.to_field())) is type(norm6(fx.to_field())) is int
    assert norm6(x.to_field()) == _oracle_norm(fx.to_field(), EPS)
    if not y.is_zero():
        assert _same_element(y.inv(), fy.inv())
        assert _same_element(x / y, fx / fy)
        assert _no_floats(y.inv()) and _no_floats(x / y)
        assert _no_floats(x / 7)


@_props
@given(_two_builds(FieldElement, 6), _two_builds(FieldElement, 6))
@example((EPS, FieldElement((0, Fraction(1), 0, 0, 0, 0))),
         (ONE_K, FieldElement.from_rational(Fraction(1))))
def test_integral_field_builds_agree(a, b):
    (u, fu), (v, fv) = a, b
    assert all(type(c) is int for c in u.coords)
    assert _same_element(u, fu)
    assert _same_element(u * v, fu * fv)
    assert all(type(c) is int for c in (u * v).coords)
    assert norm6(u) == norm6(fu) == _oracle_norm(fu, EPS)
    assert type(norm6(u)) is type(norm6(fu)) is int
    if not v.is_zero():
        assert _same_element(v.inv(), fv.inv())
        assert _same_element(u / v, fu / fv)
        assert _no_floats(v.inv()) and _no_floats(u / v)
        assert _no_floats(u / 7)


def test_norms_are_ints_exactly_for_integral_input():
    t = CubicElement((3, Fraction(-1), 2))
    assert type(norm3(t)) is int and norm3(t) == _oracle_norm(t, ALPHA_C)
    assert type(norm6(t.to_field())) is int
    assert norm6(t.to_field()) == norm3(t) ** 2
    half = CubicElement((Fraction(1, 2), 0, 0))
    assert type(norm3(half)) is Fraction and norm3(half) == Fraction(1, 8)
    assert type(norm6(half.to_field())) is Fraction
    assert norm6(half.to_field()) == Fraction(1, 64)
    # mixed denominators 2 and 3 clear to a common 6
    t = CubicElement((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3)))
    assert type(norm3(t)) is Fraction and norm3(t) == _oracle_norm(t, ALPHA_C)
    assert type(norm6(t.to_field())) is Fraction
    assert norm6(t.to_field()) == norm3(t) ** 2


@_props
@given(_cubic, _cubic, st.integers(-2, 4))
@example(ALPHA_C, CubicElement((-1, -2, 3)), -1)
def test_to_field_is_a_ring_homomorphism(s, t, k):
    fs, ft = s.to_field(), t.to_field()
    assert (s + t).to_field() == fs + ft
    assert (s - t).to_field() == fs - ft
    assert (-s).to_field() == -fs
    assert (s * t).to_field() == fs * ft
    if k >= 0 or not s.is_zero():
        assert (s ** k).to_field() == fs ** k
    if not t.is_zero():
        assert t.inv().to_field() == ft.inv()
        assert (s / t).to_field() == fs / ft


@_props
@given(_cubic, _field, st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_scalar_division_is_multiplication(s, u, n):
    assert s / n == s * Fraction(1, n)
    assert u / n == u * Fraction(1, n)
    assert s / Fraction(n, 7) == s * Fraction(7, n)


def test_division_by_zero_raises():
    for x in (ALPHA_C, EPS):
        for zero in (0, Fraction(0), type(x).from_rational(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        with pytest.raises(ZeroDivisionError):
            type(x).from_rational(0).inv()


def test_cubic_and_sextic_elements_do_not_mix():
    for mixed in (lambda: ALPHA_C + ALPHA_K, lambda: ALPHA_C * EPS,
                  lambda: EPS - ALPHA_C, lambda: ALPHA_K / ALPHA_C):
        with pytest.raises(TypeError):
            mixed()
    assert ALPHA_C != ALPHA_K
    assert repr(ALPHA_C) == "CubicElement(0, 1, 0)"
    assert repr(EPS / 2) == "FieldElement(0, 1/2, 0, 0, 0, 0)"


def _close(enc, value, slack=mpmath.mpf(2) ** -100) -> bool:
    mid = mpmath.mpf(enc.mid().numerator) / enc.mid().denominator
    return abs(mid - value) < slack


def test_embed_alpha_is_real_root():
    emb = embed_field(ALPHA_K, 128)
    assert emb.im.contains_zero()
    assert _close(emb.re, MP_ALPHA)


def test_embedding_respects_products():
    rng = random.Random(19)
    u, v = _rand_elt(rng), _rand_elt(rng)
    eu = embed_field(u, 160)
    ev = embed_field(v, 160)
    euv = embed_field(u * v, 160)
    prod = eu * ev
    assert prod.re.intersects(euv.re)
    assert prod.im.intersects(euv.im)


def test_binet_constants_exact():
    bc = binet_constants()
    assert bc.alpha == ALPHA_K
    assert bc.beta == FieldElement((-1, 1, -1, 1, 0, 0))
    assert bc.alpha * bc.beta * bc.gamma == ONE_K
    assert bc.beta * bc.gamma == bc.alpha.inv()
    # b = (-8, 13, -13, 13, -4, 4)/22
    assert bc.b * 22 == FieldElement((-8, 13, -13, 13, -4, 4))
    emb = embed_field(bc.beta, 128)
    assert emb.im.is_positive()


def test_beta_embedding_against_oracle():
    disc = mpmath.sqrt((1 - MP_ALPHA) ** 2 - 4 / MP_ALPHA)
    beta = ((1 - MP_ALPHA) + disc) / 2
    emb = embed_field(binet_constants().beta, 160)
    assert _close(emb.re, beta.real)
    assert _close(emb.im, beta.imag)


def test_sqrt_minus_11():
    v = sqrt_minus_11()
    assert v * v == FieldElement.from_rational(-11)
    assert v == FieldElement((1, -4, 4, 0, 2, 0)) or \
        v == -FieldElement((1, -4, 4, 0, 2, 0))


def test_field_identity_report():
    rep = field_identity_report()
    assert all(rep.values())
    assert len(rep) == 15


def test_square_certificates_negative():
    a = CubicElement((-1, -2, 3)).inv()
    cert = is_square_in_K(a)
    assert not cert.verdict
    assert cert.witness_self == (7, 3)
    assert cert.witness_twisted == (17, 14)

    cert2 = is_square_in_K(ALPHA_C * a)
    assert not cert2.verdict
    assert cert2.witness_self == (17, 14)
    assert cert2.witness_twisted == (7, 3)


def test_square_certificates_positive():
    cert = is_square_in_K(ALPHA_C * ALPHA_C)
    assert cert.verdict
    assert cert.root * cert.root == ALPHA_K * ALPHA_K

    cert11 = is_square_in_K(CubicElement((-11, 0, 0)))
    assert cert11.verdict
    assert cert11.root * cert11.root == FieldElement.from_rational(-11)


def test_square_certificate_rational_nonsquare():
    cert = is_square_in_K(CubicElement((2, 0, 0)))
    assert not cert.verdict
    assert cert.witness_self is not None and cert.witness_twisted is not None


def test_witnesses_recheck_from_scratch():
    a = CubicElement((-1, -2, 3)).inv()
    for element, (q, r) in ((a, (7, 3)), (a * -11, (17, 14))):
        assert (r ** 3 - r ** 2 - r - 1) % q == 0
        den = 1
        for c in element.coords:
            den = den * c.denominator // __import__("math").gcd(
                den, c.denominator)
        nums = [c.numerator * (den // c.denominator)
                for c in element.coords]
        val = (nums[0] + r * (nums[1] + r * nums[2])) % q
        val = val * pow(den, -1, q) % q
        assert _legendre(val, q) == -1


def test_roots_mod_q_match_brute_force():
    rng = random.Random(5)
    primes = [3, 5, 7, 11, 13, 47, 101, 257, 1009, 104729]
    for q in primes:
        got = roots_of_cubic_mod(q)
        want = [r for r in range(q) if (r * r * r - r * r - r - 1) % q == 0]
        assert got == want


def test_roots_mod_q_obey_vieta():
    # x**3 - x**2 - x - 1 = (x - r1)(x - r2)(x - r3) when it splits:
    # r1 + r2 + r3 = 1 and r1*r2*r3 = 1 mod q
    primes = [q for q in range(3, 3001)
              if all(q % p for p in range(2, int(q ** 0.5) + 1))]
    assert len(primes) == 429
    counts = set()
    for q in primes:
        if q == 11:
            continue
        roots = roots_of_cubic_mod(q)
        assert roots == sorted(set(roots)), q
        assert all(0 <= r < q for r in roots), q
        assert len(roots) in (0, 1, 3), q
        counts.add(len(roots))
        if len(roots) == 3:
            r1, r2, r3 = roots
            assert (r1 + r2 + r3) % q == 1, q
            assert r1 * r2 * r3 % q == 1, q
    assert counts == {0, 1, 3}


def test_roots_of_unity_basic():
    assert is_root_of_unity(ONE_K)
    assert is_root_of_unity(-ONE_K)
    assert not is_root_of_unity(ALPHA_K)
    assert not is_root_of_unity(EPS * 2)


def test_eps_is_not_torsion():
    # eps has modulus 1 at two embeddings but is not a root of unity
    assert not is_root_of_unity(EPS)


def test_monomial_grid():
    for ma in range(-6, 0):
        for mb in range(1, 7):
            for mg in range(1, 7):
                u = monomial(ma, mb, mg)
                exact = is_root_of_unity(u)
                assert not exact
                if fast_path_refutes(ma, mb, mg):
                    # fast path may only refute, never contradict
                    assert not exact


def test_monomial_identity():
    # alpha*beta*gamma = 1 is the only unit monomial on the closed grid
    assert monomial(1, 1, 1) == ONE_K
    assert is_root_of_unity(monomial(1, 1, 1))


def test_fast_path_scope():
    assert fast_path_refutes(-1, 1, 1)
    assert fast_path_refutes(-3, 2, 2)
    assert not fast_path_refutes(1, 1, 1)   # wrong sign pattern
    assert not fast_path_refutes(-3, 0, 2)  # criterion needs m_beta > 0
