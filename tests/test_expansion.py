"""Truncated series for the square-root quantity driving the linear forms:
term bookkeeping, measured truncation error, decay certificates."""

import hashlib
import random
import sys
import threading
from fractions import Fraction
from itertools import product
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triboverify import cli, expansion
from triboverify.constants import DEFAULT_PRECISION, alpha_power, constants
from triboverify.enclosure import (ComplexEnclosure, Enclosure,
                                   PrecisionFailure, integer_combination)
from triboverify.expansion import (FACTOR_CACHE_SIZE, MAX_ORDER, Q_SCALE,
                                   TRUNCATION_SUMS_SIZE, DecayReport,
                                   _symbolic_terms, _truncation_value,
                                   decay_report, expansion_error,
                                   expansion_terms)
from triboverify.tribonacci import trib

from enclosure_queries import real
from test_constants import _cpow

mpmath.mp.prec = 240
MP_ALPHA = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, 1.84)


# sha256 of the records `verify expansion --x 20 --y 25 --z 30 --t-max 8
# --out` writes, frozen when the inner sums became integer sums
EXPANSION_RECORDS_SHA256 = (
    "530c7116a2d58e8c0cba26d31fdcb85ee0fbf68acdc2960b894a7c0b7b6660c9")


@pytest.fixture(autouse=True)
def _pin_mp_precision():
    old = mpmath.mp.prec
    mpmath.mp.prec = 240
    yield
    mpmath.mp.prec = old

# measured gaps at (20, 25, 30); each successive order gains 4-5 digits
LADDER = (6.011008621086651e-4, 4.013854719694171e-9, 5.578197707866363e-14,
          9.710079237922654e-19, 1.893267208553583e-23, 3.955168504185376e-28,
          8.656047128622318e-33, 1.9589822763975985e-37,
          4.547093136313194e-42)

TERM_COUNTS = {0: 1, 1: 13, 2: 62, 3: 176, 4: 439, 5: 1061, 6: 2252,
               7: 4474, 8: 8651}


def _half_binom(k, negative=False):
    """binom(1/2, k), or binom(-1/2, k) when negative."""
    top = Fraction(-1, 2) if negative else Fraction(1, 2)
    out = Fraction(1)
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


def _splits(k, mixed):
    """All (na, nb, nc) with na + nb + nc = k and nb + nc = mixed."""
    return [(k - mixed, nb, mixed - nb) for nb in range(mixed + 1)]


def _multinomial(k, s):
    return factorial(k) // (factorial(s[0]) * factorial(s[1])
                            * factorial(s[2]))


def _oracle_terms(order):
    """The kept terms with exact Fraction q, built from Fraction
    half-binomials in the same shell order as _symbolic_terms."""
    out = _oracle_terms(order - 1) if order else []
    for k1 in range(order + 1):
        for k2 in range(min(order, order + 1 - k1) + 1):
            for k3 in range(min(order, order + 1 - k1 - k2) + 1):
                room = 2 * (order + 1 - k1 - k2 - k3)
                least = 0 if order in (k1, k2, k3) else room - 1
                q = (_half_binom(k1) * _half_binom(k2)
                     * _half_binom(k3, negative=True))
                for m1, m2, m3 in product(range(k1 + 1), range(k2 + 1),
                                          range(k3 + 1)):
                    if not least <= m1 + m2 + m3 <= room:
                        continue
                    for s1, s2, s3 in product(_splits(k1, m1),
                                              _splits(k2, m2),
                                              _splits(k3, m3)):
                        out.append((
                            q * (_multinomial(k1, s1) * _multinomial(k2, s2)
                                 * _multinomial(k3, s3)),
                            (-k1, -k2, -k3),
                            (s1[1], s2[1], s3[1]),
                            (s1[2], s2[2], s3[2])))
    return out


def test_integer_terms_match_fraction_oracle():
    for order in range(MAX_ORDER + 1):
        terms = _symbolic_terms(order)
        oracle = _oracle_terms(order)
        assert len(terms) == len(oracle)
        for (n, *vecs), (q, *oracle_vecs) in zip(terms, oracle):
            assert Fraction(n, Q_SCALE) == q
            assert vecs == oracle_vecs


def test_term_counts():
    for order, n in TERM_COUNTS.items():
        assert len(_symbolic_terms(order)) == n


def test_order_zero_is_bare_prefactor():
    ((q_scaled, a_vec, b_vec, c_vec),) = _symbolic_terms(0)
    assert q_scaled == Q_SCALE
    assert a_vec == b_vec == c_vec == (0, 0, 0)


def test_sign_structure():
    for q, a_vec, b_vec, c_vec in _symbolic_terms(3):
        assert all(k <= 0 for k in a_vec)
        assert all(k >= 0 for k in b_vec)
        assert all(k >= 0 for k in c_vec)
        big = -sum(a_vec)
        mixed = sum(b_vec) + sum(c_vec)
        assert all(-k <= 3 for k in a_vec)
        assert 2 * big + mixed <= 2 * 3 + 2


def test_conjugate_pairing():
    # at every order, swapping B and C maps the kept set onto itself with
    # equal exact q
    for order in range(MAX_ORDER + 1):
        terms = _symbolic_terms(order)
        kept = set(terms)
        assert len(kept) == len(terms)
        for q, a_vec, b_vec, c_vec in terms:
            assert (q, a_vec, c_vec, b_vec) in kept


def test_scaled_coefficients_are_integers():
    for q_scaled, *_ in _symbolic_terms(MAX_ORDER):
        assert type(q_scaled) is int
    for q, *_ in _oracle_terms(MAX_ORDER):
        assert (q * Q_SCALE).denominator == 1


def test_each_order_extends_the_last():
    for order in range(1, MAX_ORDER + 1):
        prev = _symbolic_terms(order - 1)
        assert _symbolic_terms(order)[:len(prev)] == prev


def _lopsided(past):
    """A stand-in for _symbolic_terms with the q of the first term at or
    past index ``past`` that has pb != pc doubled, in every order that
    keeps it, so that term's group no longer equals its mirror."""
    terms = list(_symbolic_terms(MAX_ORDER))
    i = next(i for i, t in enumerate(terms)
             if i >= past and sum(t.b_vec) != sum(t.c_vec))
    terms[i] = terms[i]._replace(q_scaled=2 * terms[i].q_scaled)
    return lambda order: tuple(terms[:TERM_COUNTS[order]])


def test_term_without_equal_mirror_is_refused(monkeypatch):
    # doubling one q with pb != pc leaves its group unlike its mirror, so
    # the kept sum is not real and no interval check is needed to see it
    _clear_shared_tables()
    monkeypatch.setattr(expansion, "_symbolic_terms", _lopsided(0))
    with pytest.raises(ArithmeticError, match="failed to be real"):
        _truncation_value(20, 25, 30, 2, DEFAULT_PRECISION)
    _clear_shared_tables()


def test_term_without_equal_mirror_is_refused_over_a_genuine_memo(
        monkeypatch):
    # the genuine weights of order 1 are cached; a lopsided shell of order
    # 2 on top of them is refused and leaves no entry behind, and the
    # genuine order 2 comes back unchanged afterwards
    _clear_shared_tables()
    genuine = _endpoints(_truncation_value(20, 25, 30, 2, DEFAULT_PRECISION))
    _clear_shared_tables()
    _truncation_value(20, 25, 30, 1, DEFAULT_PRECISION)
    weights = expansion._group_weights
    assert weights.cache_info().currsize == 2
    with monkeypatch.context() as patch:
        patch.setattr(expansion, "_symbolic_terms",
                      _lopsided(TERM_COUNTS[1]))
        with pytest.raises(ArithmeticError, match="failed to be real"):
            _truncation_value(20, 25, 30, 2, DEFAULT_PRECISION)
    assert weights.cache_info().currsize == 2
    assert _endpoints(
        _truncation_value(20, 25, 30, 2, DEFAULT_PRECISION)) == genuine
    assert weights.cache_info().currsize == 3


def _coefficient(params, term) -> ComplexEnclosure:
    """q * a1^pa b1^pb c1^pc rebuilt from the enclosed powers."""
    q_scaled, a_vec, b_vec, c_vec = term
    pb, pc = sum(b_vec), sum(c_vec)
    pa = -sum(a_vec) - pb - pc
    return (params.b1_pows[pb] * params.b1_pows[pc].conj()
            * (params.a1_pows[pa] * Fraction(q_scaled, Q_SCALE)))


def test_materialized_terms_have_enclosed_coefficients():
    params = expansion_terms(2)
    assert params.order == 2
    assert len(params.terms) == TERM_COUNTS[2]
    assert len(params.a1_pows) == len(params.b1_pows) == 4
    for a1p, b1p in zip(params.a1_pows, params.b1_pows):
        assert a1p.width() < Fraction(1, 2 ** 40)
        assert b1p.re.width() + b1p.im.width() < Fraction(1, 2 ** 40)
    for term in params.terms:
        coeff = _coefficient(params, term)
        w = coeff.re.width() + coeff.im.width()
        assert w < Fraction(1, 2 ** 40)


def _dot(vec, v):
    return sum(a * b for a, b in zip(vec, v))


def _oracle_truncation(x, y, z, order, bits):
    """The truncation evaluated one monomial at a time: each coefficient
    enclosed from the powers, times alpha, beta and gamma powers as three
    rounded complex products, and the real part of the total."""
    params = expansion_terms(order, bits)
    work = bits + 32
    v = (x, y, z)
    cs = constants(bits)
    beta_pows = {}

    def beta_pow(m):
        if m not in beta_pows:
            beta_pows[m] = _cpow(cs.beta, m, work)
        return beta_pows[m]

    total = ComplexEnclosure.point(0)
    for term in params.terms:
        _, a_vec, b_vec, c_vec = term
        val = real(alpha_power(_dot(a_vec, v), bits))
        val = (val * _coefficient(params, term).rounded(work)).rounded(work)
        mb = _dot(b_vec, v)
        if mb:
            val = (val * beta_pow(mb)).rounded(work)
        mc = _dot(c_vec, v)
        if mc:
            val = (val * beta_pow(mc).conj()).rounded(work)
        total = total + val
    assert total.im.contains_zero()
    prefactor = cs.a.sqrt(work) * alpha_power(x + y - z, bits).sqrt(work)
    return (total.re * prefactor).rounded(work)


@st.composite
def _admissible(draw):
    """x < y < z with 5 <= x <= 40 and x + y > z."""
    x = draw(st.integers(5, 40))
    y = draw(st.integers(x + 1, 2 * x))
    z = draw(st.integers(y + 1, x + y - 1))
    return x, y, z


@settings(max_examples=25, deadline=None)
@given(_admissible(), st.integers(0, 6))
@example((20, 25, 30), 6)
@example((5, 6, 10), 6)
def test_grouped_truncation_matches_oracle(xyz, order):
    grouped = _truncation_value(*xyz, order, DEFAULT_PRECISION)
    assert grouped.intersects(_oracle_truncation(*xyz, order,
                                                 DEFAULT_PRECISION))
    err = expansion_error(*xyz, order)
    assert err.is_positive()
    assert (err.hi - err.lo) * 4096 <= err.lo


def _clear_shared_tables():
    for cached in (expansion.expansion_terms, expansion._coefficient_powers,
                   expansion._real_factor, expansion._complex_factor,
                   expansion._pair_factor, expansion._anchors,
                   expansion._group_weights, expansion.expansion_error):
        cached.cache_clear()


def _endpoints(enc):
    return enc.lo, enc.hi


def test_shared_tables_are_keyed_by_precision():
    # the factor tables outlive a call and are keyed by precision, so an
    # entry built at one precision must never serve another; the carried
    # weights are exact and serve every precision, and no order may see
    # another's residue
    runs = [(6, 192), (2, 256), (2, 192)]
    _clear_shared_tables()
    mixed = [_truncation_value(20, 25, 30, order, bits)
             for order, bits in runs]
    for (order, bits), got in zip(runs, mixed):
        _clear_shared_tables()
        fresh = _truncation_value(20, 25, 30, order, bits)
        assert _endpoints(got) == _endpoints(fresh)


def test_factor_tables_stay_within_their_bound():
    _clear_shared_tables()
    first = _endpoints(expansion_error(20, 25, 30, 4))
    for x in range(20, 120, 9):
        expansion_error(x, x + 1, x + 2, 6)
    for cached in (expansion._real_factor, expansion._complex_factor):
        info = cached.cache_info()
        assert info.maxsize == FACTOR_CACHE_SIZE
        assert info.currsize <= FACTOR_CACHE_SIZE
    # the real table overflowed, so the first triple's entries were
    # evicted and come back rebuilt to the same endpoints
    assert expansion._real_factor.cache_info().currsize == FACTOR_CACHE_SIZE
    expansion.expansion_error.cache_clear()
    assert _endpoints(expansion_error(20, 25, 30, 4)) == first


def _regrouped_truncation(x, y, z, order, bits):
    """The truncation with every group summed afresh at this order: the
    whole kept set grouped at once, each group's inner sum one
    integer_combination, and each pair's real factor built in place."""
    work = bits + 32
    v = (x, y, z)
    groups = {}
    for n, a_vec, b_vec, c_vec in _symbolic_terms(order):
        pb, pc = sum(b_vec), sum(c_vec)
        inner = groups.setdefault((pb, _dot(b_vec, v), pc, _dot(c_vec, v)),
                                  {})
        entry = (-sum(a_vec) - pb - pc, _dot(a_vec, v))
        inner[entry] = inner.get(entry, 0) + n
    total = Enclosure.point(0)
    for (pb, mb, pc, mc), inner in groups.items():
        if (pc, mc, pb, mb) < (pb, mb, pc, mc):
            continue
        inner_sum = integer_combination(
            (expansion._real_factor(pa, ma, bits), n)
            for (pa, ma), n in inner.items())
        p_b = expansion._complex_factor(pb, mb, bits)
        if (pb, mb) == (pc, mc):
            re_part = p_b.abs2()
        else:
            p_c = expansion._complex_factor(pc, mc, bits)
            re_part = (p_b.re * p_c.re + p_b.im * p_c.im) * 2
        total = total + (re_part.rounded(work)
                         * inner_sum.rounded(work)).rounded(work)
    cs = constants(bits)
    prefactor = cs.a.sqrt(work) * alpha_power(x + y - z, bits).sqrt(work)
    return (total * prefactor * Fraction(1, Q_SCALE)).rounded(work)


@settings(max_examples=12, deadline=None)
@given(_admissible(),
       st.lists(st.tuples(st.integers(0, MAX_ORDER), st.sampled_from(
           [192, 256])), min_size=2, max_size=6))
@example((20, 25, 30), [(8, 192), (0, 192), (3, 256), (4, 256), (2, 192)])
def test_carried_sums_are_bit_identical_in_any_order(xyz, runs):
    # orders asked for in any order, each built on whatever the cache
    # holds, give the endpoints of a run with every memo cleared, and the
    # truncations those of summing each group afresh
    _clear_shared_tables()
    carried = [(_endpoints(expansion_error(*xyz, t, bits)),
                _endpoints(_truncation_value(*xyz, t, bits)))
               for t, bits in runs]
    for (t, bits), (err, trunc) in zip(runs, carried):
        _clear_shared_tables()
        assert _endpoints(expansion_error(*xyz, t, bits)) == err
        assert _endpoints(_regrouped_truncation(*xyz, t, bits)) == trunc


def test_truncation_memo_is_keyed_by_triple_alone():
    # the weights are exact, so a second precision reads the entries the
    # first left, with no weights built again, and both errors are those
    # of fresh runs
    runs = [(20, 25, 30, 6, 192), (20, 25, 30, 6, 256)]
    fresh = []
    for run in runs:
        _clear_shared_tables()
        fresh.append(_endpoints(expansion_error(*run)))
    _clear_shared_tables()
    weights = expansion._group_weights
    assert _endpoints(expansion_error(*runs[0])) == fresh[0]
    # orders 0..6 of the one triple, each built once
    assert weights.cache_info().misses == weights.cache_info().currsize == 7
    assert _endpoints(expansion_error(*runs[1])) == fresh[1]
    assert weights.cache_info().misses == weights.cache_info().currsize == 7


def test_truncation_memo_stays_within_its_bound_and_clears():
    _clear_shared_tables()
    bound = TRUNCATION_SUMS_SIZE * (MAX_ORDER + 1)
    # orders 0..3 of a triple take four entries, so these fill twice the
    # bound
    for x in range(20, 20 + bound // 2):
        expansion_error(x, x + 1, x + 2, 3)
    info = expansion._group_weights.cache_info()
    assert info.maxsize == bound
    assert info.currsize == bound
    _clear_shared_tables()
    assert expansion._group_weights.cache_info().currsize == 0


def test_truncation_memo_shared_between_threads():
    # threads asking for the orders of one triple in different orders, at
    # two precisions, share one cache; each sees the endpoints of a fresh
    # run
    runs = [(t, 192) for t in range(7)] + [(t, 256) for t in (2, 5)]
    _clear_shared_tables()
    fresh = {}
    for run in runs:
        _clear_shared_tables()
        fresh[run] = _endpoints(_truncation_value(20, 25, 30, *run))
    _clear_shared_tables()
    start = threading.Barrier(6)
    wrong = []

    def ask_all(seed):
        start.wait(timeout=60)
        order = runs[:]
        random.Random(seed).shuffle(order)
        for run in order:
            if _endpoints(_truncation_value(20, 25, 30, *run)) != fresh[run]:
                wrong.append((seed, run))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask_all, args=(seed,))
                   for seed in range(start.parties)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_error_ladder_frozen():
    for order, expected in enumerate(LADDER):
        enc = expansion_error(20, 25, 30, order)
        mid = enc.mid()
        assert abs(float(mid) / expected - 1) < 1e-9
        assert enc.is_positive()
        # the enclosure itself is certified narrow
        assert (enc.hi - enc.lo) * 4096 <= enc.lo


def test_error_order_zero_against_oracle():
    # at order 0 the truncation is just sqrt(a) * alpha**((x+y-z)/2)
    x, y, z = 20, 25, 30
    ratio = Fraction((trib(x) - 1) * (trib(y) - 1), trib(z) - 1)
    u = mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator)
    a = 1 / (3 * MP_ALPHA ** 2 - 2 * MP_ALPHA - 1)
    lead = mpmath.sqrt(a) * MP_ALPHA ** mpmath.mpf((x + y - z) / 2)
    expected = abs(u - lead)
    mid = expansion_error(x, y, z, 0).mid()
    got = mpmath.mpf(mid.numerator) / mid.denominator
    assert abs(got / expected - 1) < mpmath.mpf(2) ** -60


def test_error_second_point():
    # a second index triple, smaller x: slower decay but same structure
    e0 = expansion_error(12, 14, 16, 0)
    e1 = expansion_error(12, 14, 16, 1)
    e2 = expansion_error(12, 14, 16, 2)
    assert e1.definitely_lt(e0.lo)
    assert e2.definitely_lt(e1.lo)


def test_decay_report():
    rep = decay_report(20, 25, 30, order_max=6)
    assert isinstance(rep, DecayReport)
    assert rep.all_ok and bool(rep)
    assert len(rep.errors) == 7
    assert len(rep.decreasing) == len(rep.ratio_ok) == 5
    assert all(rep.decreasing) and all(rep.ratio_ok)


def test_error_precision_doubles_up_to_the_cap(monkeypatch):
    seen = []

    def unresolved(x, y, z, order, bits):
        seen.append(bits)
        assert len(seen) <= 10, "the precision loop ignores its cap"
        return Enclosure(-1, 1)

    monkeypatch.setattr(expansion, "_truncation_value", unresolved)
    with pytest.raises(PrecisionFailure):
        expansion_error(20, 25, 30, 2, 24, 100)
    assert seen == [24, 48, 96, 100]


def test_preconditions():
    with pytest.raises(ValueError):
        expansion_error(4, 6, 7, 1)     # x too small
    with pytest.raises(ValueError):
        expansion_error(6, 6, 7, 1)     # not strictly increasing
    with pytest.raises(ValueError):
        expansion_error(5, 6, 12, 1)    # x + y <= z
    with pytest.raises(ValueError):
        expansion_error(20, 25, 30, 9)  # past the supported order
    with pytest.raises(ValueError):
        expansion_error(20, 25, 30, -1)
    with pytest.raises(ValueError):
        decay_report(20, 25, 30, order_max=1)


# sha256 of the decay_report(x, y, z, 6) enclosures and verdicts over the
# triples the deep-numerics bench draws (x in 19..21, steps 1..4), frozen
# before the group sums were carried from order to order
BAND_TRIPLES = [(x, x + dy, x + dy + dz) for x in (19, 20, 21)
                for dy in range(1, 5) for dz in range(1, 5)]
BAND_DECAY_SHA256 = (
    "0fe270027be8b4f35d455f4b536c27e1f464d101b3f96ff3dfed3f0cd9b88388")


def test_band_decay_reports_are_frozen():
    digest = hashlib.sha256()
    for x, y, z in BAND_TRIPLES:
        rep = decay_report(x, y, z, 6)
        for t, err in enumerate(rep.errors):
            digest.update(f"{x} {y} {z} {t} {err.lo} {err.hi}\n".encode())
        digest.update(f"{rep.decreasing} {rep.ratio_ok}\n".encode())
    assert len(BAND_TRIPLES) == 48
    assert digest.hexdigest() == BAND_DECAY_SHA256


def test_expansion_records_are_frozen(tmp_path, capsys):
    out = tmp_path / "expansion.jsonl"
    assert cli.run(["verify", "expansion", "--x", "20", "--y", "25",
                    "--z", "30", "--t-max", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EXPANSION_RECORDS_SHA256
