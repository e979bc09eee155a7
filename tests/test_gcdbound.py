"""Gcd growth bound: exact norm certificates, embedding bounds, the chain
check outside the regime, and the prop1 and norms batteries' generators."""

import hashlib
import importlib
from fractions import Fraction

import pytest

from triboverify import cli, gcdbound, records, tribonacci
from triboverify.constants import (DEFAULT_PRECISION, Cmp, alpha_power,
                                   beta_power, constants)
from triboverify.enclosure import (ComplexEnclosure, Enclosure,
                                   PrecisionFailure, precision_ladder)
from triboverify.gcdbound import (FactorBoundsReport, IntegrityError,
                                  factor_bounds, factor_sweep, gcd_shifted,
                                  in_regime, index_pairs, norm_witness,
                                  norm_witnesses, prop1_holds, prop1_results,
                                  prop1_threshold, regime_pairs,
                                  regime_sample)
from triboverify.splitfield import ALPHA_C, CubicElement, norm3, norm6
from triboverify.tribonacci import cmp_alpha_power_trace, trib

# the package's ``constants`` attribute is the function of that name
constants_module = importlib.import_module("triboverify.constants")


def test_alpha_power_coords_match_generic_power():
    # the coordinates of alpha**lam come off the sequence table; the field's
    # own power must give the same eta at every lam up to 120
    for lam in range(1, 121):
        for y in (4, 9):
            z = y + lam
            expected = ALPHA_C ** lam * (trib(y) - 1) - (trib(z) - 1)
            assert norm_witness(y, z).eta == expected, (y, z)
    with pytest.raises(ValueError):
        norm_witness(9, 9)     # lam = 0 names no pair


def test_gcd_shifted_values():
    assert gcd_shifted(5, 6) == 3      # gcd(3, 6)
    assert gcd_shifted(6, 7) == 6      # gcd(6, 12)
    assert gcd_shifted(5, 7) == 3
    assert gcd_shifted(4, 5) == 1
    with pytest.raises(ValueError):
        gcd_shifted(5, 5)
    with pytest.raises(ValueError):
        gcd_shifted(3, 6)


def test_norm_witness_eta_is_the_field_expression():
    for z in range(5, 41):
        for y in range(4, z):
            expected = (ALPHA_C ** (z - y) * (trib(y) - 1)
                        - CubicElement.from_rational(trib(z) - 1))
            assert norm_witness(y, z).eta == expected, (y, z)


def test_norm_witness_frozen_values():
    w = norm_witness(6, 7)
    assert (w.d, w.lam, w.norm3_value, w.tight) == (6, 1, -216, True)

    w = norm_witness(5, 7)
    assert (w.d, w.norm3_value, w.tight) == (3, -297, False)
    assert w.norm3_value % w.d ** 3 == 0

    w = norm_witness(5, 6)
    assert (w.d, w.norm3_value, w.tight) == (3, -27, True)


def test_norm_witness_eta_construction():
    w = norm_witness(7, 10)
    eta = ALPHA_C ** 3 * (trib(7) - 1) - (trib(10) - 1)
    assert w.eta == eta
    assert norm3(eta) == w.norm3_value
    assert norm6(eta.to_field()) == Fraction(w.norm3_value) ** 2


def test_degree6_cross_check_fires(monkeypatch):
    true_norm6 = gcdbound.norm6
    monkeypatch.setattr(gcdbound, "norm6", lambda u: true_norm6(u) + 1)
    with pytest.raises(IntegrityError, match="degree-6"):
        norm_witness(6, 7)
    assert cli.run(["verify", "norms", "--z-max", "8"]) == 1


def test_prop1_small_pairs():
    for z in range(5, 40):
        for y in range(4, z):
            assert prop1_holds(y, z)


def test_factor_bounds_inside_regime():
    r = factor_bounds(18, 20)
    assert r.ok and r.lam == 2
    r = factor_bounds(19, 20)
    assert r.ok
    # the real-embedding magnitude is a genuine positive quantity
    assert r.real_abs.is_positive()


def _oracle_complex_pow(base, e, bits):
    out = ComplexEnclosure.point(1)
    b = base
    while e:
        if e & 1:
            out = (out * b).rounded(bits + 32)
        b = (b * b).rounded(bits + 32)
        e >>= 1
    return out


def _oracle_factor_bounds(y, z, precision_bits=192,
                          max_precision_bits=65536):
    """factor_bounds as it was before beta powers were memoised: square
    roots of alpha**z, a fresh beta power per call, Fraction endpoints,
    and the complex magnitude compared as a root.  The report holds it
    squared, as factor_bounds' own does."""
    ty, tz = gcdbound.trib(y) - 1, gcdbound.trib(z) - 1
    lam = z - y
    bits = precision_bits
    while True:
        cs = constants(bits)
        real_val = alpha_power(lam, bits) * ty - tz
        real_abs = real_val.abs()
        bound_r = alpha_power(z, bits).sqrt(bits).sqrt(bits) * Fraction(13, 10)
        bpow = _oracle_complex_pow(cs.beta, lam, bits)
        cplx_val = bpow * ty - tz
        cplx_abs = cplx_val.abs(bits)
        bound_c = alpha_power(z, bits) * Fraction(6, 10)
        ok_r = real_abs.hi <= bound_r.lo
        ok_c = cplx_abs.hi <= bound_c.lo
        if ok_r and ok_c:
            return FactorBoundsReport(y, z, lam, real_abs,
                                      cplx_val.abs2(), True, bits)
        fail_r = real_abs.lo > bound_r.hi
        fail_c = cplx_abs.lo > bound_c.hi
        if fail_r or fail_c:
            return FactorBoundsReport(y, z, lam, real_abs,
                                      cplx_val.abs2(), False, bits)
        bits *= 2
        if bits > max_precision_bits:
            raise PrecisionFailure(f"factor bounds unresolved at ({y},{z})")


def _same_verdict(y, z, bits):
    new = factor_bounds(y, z, bits)
    old = _oracle_factor_bounds(y, z, bits)
    assert new.ok == old.ok
    assert new.real_abs.intersects(old.real_abs)
    assert new.complex_abs.intersects(old.complex_abs)
    return new.ok


@pytest.mark.parametrize("bits, z_max", [(192, 120), (1024, 48)])
def test_factor_bounds_matches_oracle(bits, z_max):
    assert all(_same_verdict(y, z, bits) for y, z in regime_pairs(z_max))


@pytest.mark.parametrize("scale, shift, ok", [
    (Fraction(2, 10), Fraction(129, 100), True),
    (Fraction(2, 10), Fraction(131, 100), False),
    (Fraction(59, 100), 0, True),
    (Fraction(61, 100), 0, False),
])
def test_factor_bounds_decides_next_to_each_bound(monkeypatch, scale, shift,
                                                  ok):
    # forged shifted values with T_y - 1 ~ scale * alpha**y and T_z - 1 ~
    # alpha**lam (T_y - 1) + shift * alpha**(z/4): the real embedding lands
    # on shift * alpha**(z/4) against 1.3 * alpha**(z/4), the complex one
    # on scale * alpha**z against 0.6 * alpha**z
    y, z = 60, 70
    alpha = float(constants(192).alpha.mid())
    ty = round(scale * Fraction(alpha ** y))
    tz = round(alpha_power(z - y, 192).mid() * ty
               + shift * Fraction(alpha ** (z / 4)))
    monkeypatch.setattr(gcdbound, "trib", {y: ty + 1, z: tz + 1}.__getitem__)
    assert _same_verdict(y, z, 192) is ok


@pytest.mark.parametrize("margin, ok", [
    (-Fraction(1, 10 ** 12), True),
    (Fraction(1, 10 ** 12), False),
])
def test_factor_bounds_decides_next_to_the_complex_bound_at_1024_bits(
        monkeypatch, margin, ok):
    # forged shifted values with the real embedding alpha**lam (T_y - 1) -
    # (T_z - 1) below 1 and the complex one |beta**lam (T_y - 1) - (T_z -
    # 1)| within 10**-12 relative of 0.6 * alpha**z, on either side: the
    # comparison in squares must decide where the root was compared
    y, z, bits = 60, 70, 1024
    lam = z - y
    a_lam = alpha_power(lam, bits)
    spread = (beta_power(lam, bits) - a_lam).abs(bits).mid()
    target = (Fraction(6, 10) + margin) * alpha_power(z, bits).mid()
    ty = round(target / spread)
    tz = round(a_lam.mid() * ty)
    monkeypatch.setattr(gcdbound, "trib", {y: ty + 1, z: tz + 1}.__getitem__)
    report = factor_bounds(y, z, bits)
    assert report.real_abs.hi < 1
    ratio = report.complex_abs.mid() / alpha_power(z, bits).mid()
    assert abs(ratio - Fraction(6, 10)) < Fraction(2, 10 ** 12)
    assert _same_verdict(y, z, bits) is ok


def test_factor_bounds_report_keeps_the_squared_complex_magnitude():
    report = factor_bounds(100, 120, 192)
    assert report.complex_abs.square().encloses(report.complex_abs2)
    assert report.complex_abs == (
        beta_power(20, 192) * (trib(100) - 1) - (trib(120) - 1)).abs(192)


def test_factor_bounds_escalates_until_decided():
    # at 8 bits the cancellation in alpha**lam (T_y - 1) - (T_z - 1) leaves
    # the real embedding undecided: a cap there is inconclusive, not False
    with pytest.raises(PrecisionFailure):
        factor_bounds(110, 120, 8, 16)
    assert _same_verdict(110, 120, 8)


def test_factor_bounds_regime_guard():
    with pytest.raises(ValueError):
        factor_bounds(10, 20)   # 40 <= 68
    with pytest.raises(ValueError):
        factor_bounds(20, 18)


def test_chain_bound_outside_the_regime(monkeypatch):
    # outside the regime 4y > 3z + 8 the proof takes the chain
    # d <= T_y - 1 < alpha**(3z/4): d divides T_y - 1, which is at least 1
    # for y >= 4, and the power sums decide alpha**(3z) > (T_y - 1)**4 in
    # integers, with no enclosure of a power of alpha or beta
    def enclosing(*args):
        raise AssertionError(f"enclosure used: {args}")

    for module in (constants_module, gcdbound):
        monkeypatch.setattr(module, "cmp_alpha_power", enclosing)
    monkeypatch.setattr(tribonacci, "beta_power", enclosing)
    pairs = [(y, z) for y, z in index_pairs(500) if not in_regime(y, z)]
    assert len(pairs) == 93244
    for y, z in pairs:
        ty = trib(y) - 1
        assert gcd_shifted(y, z) <= ty, (y, z)
        assert cmp_alpha_power_trace(3 * z, ty ** 4) == Cmp.GREATER, (y, z)


def _power_sums(k_max):
    """s_p = alpha**p + beta**p + gamma**p for -k_max <= p <= k_max: the
    recurrence s_(p+3) = s_(p+2) + s_(p+1) + s_p from s_0, s_1, s_2 = 3, 1,
    3, and run backwards, s_p = s_(p+3) - s_(p+2) - s_(p+1)."""
    s = {0: 3, 1: 1, 2: 3}
    for p in range(3, k_max + 1):
        s[p] = s[p - 1] + s[p - 2] + s[p - 3]
    for p in range(-1, -k_max - 1, -1):
        s[p] = s[p + 3] - s[p + 2] - s[p + 1]
    return s


def test_norm_by_power_sums_matches_norm3():
    # the three conjugates of alpha**lam multiply to (alpha beta gamma)**lam
    # = 1, their pairwise products sum to s_(-lam) and they sum to s_lam, so
    # N(a alpha**lam - b) = a**3 - a**2 b s_(-lam) + a b**2 s_lam - b**3
    s = _power_sums(120)
    assert (s[-1], s[-2]) == (-1, -1)
    alpha_pows = [ALPHA_C ** lam for lam in range(120)]
    for y, z in index_pairs(120, 5):
        lam = z - y
        a, b = trib(y) - 1, trib(z) - 1
        eta = alpha_pows[lam] * a - b
        assert norm3(eta) == (a ** 3 - a * a * b * s[-lam]
                              + a * b * b * s[lam] - b ** 3), (y, z)


def test_norm_witnesses_tight_pairs():
    ws = list(norm_witnesses(12))
    tight = [(w.y, w.z) for w in ws if w.tight]
    assert (5, 6) in tight
    assert (6, 7) in tight
    for w in ws:
        assert w.norm3_value % w.d ** 3 == 0
        assert abs(w.norm3_value) >= w.d ** 3


def test_factor_sweep_all_ok():
    rep = factor_sweep(30)
    assert rep.all_ok
    want = [(y, z) for z in range(5, 31) for y in range(4, z)
            if 4 * y > 3 * z + 8]
    assert [(r.y, r.z) for r in rep.reports] == want


# sha256 over one line per report, "y z lam real_abs.lo real_abs.hi
# complex_abs2.lo complex_abs2.hi ok bits", of factor_sweep(z_max, bits):
# every exact endpoint, verdict and deciding rung, frozen when the bounds
# moved to integer kernels.  From 8 bits, 279 of the 612 pairs climb to 16
# or 32 bits.
SWEEP_DIGESTS = {
    (80, 192):
        "29c2dd285e097d5593e1063728f043877f05b316cf3a5a1fa46b4ac38a15a188",
    (48, 1024):
        "e2cf4d30b95a12ba3c67d215be5b52eb97bf9e6d9047d5225655bb42ca2df8cd",
    (80, 8):
        "c3b0ba954047a6fe263014920043339ec45b5cd14fecf85c3ad4d85fea5d5aac",
}


@pytest.mark.parametrize("z_max, bits", sorted(SWEEP_DIGESTS))
def test_factor_sweep_reports_are_frozen(z_max, bits):
    digest = hashlib.sha256()
    for r in factor_sweep(z_max, bits).reports:
        digest.update(
            f"{r.y} {r.z} {r.lam} {r.real_abs.lo} {r.real_abs.hi} "
            f"{r.complex_abs2.lo} {r.complex_abs2.hi} {r.ok} {r.bits}\n"
            .encode())
    assert digest.hexdigest() == SWEEP_DIGESTS[z_max, bits]


def test_embedding_bounds_cache_is_bounded_and_recomputes_alike():
    cached = gcdbound._embedding_bounds
    size = gcdbound.EMBEDDING_BOUND_CACHE_SIZE
    cached.cache_clear()
    # the bounds scaled on the numerators are the Fraction products
    for bits in (64, 192, 1024):
        for z in (5, 20, 47, 80, 333):
            alpha_z = alpha_power(z, bits)
            assert cached(z, bits) == (alpha_z * Fraction(28561, 10000),
                                       alpha_z.square() * Fraction(9, 25))
    cached.cache_clear()
    first = cached(20, 64)
    for z in range(21, 21 + size):
        cached(z, 64)
    info = cached.cache_info()
    assert info.maxsize == size and info.currsize == size
    again = cached(20, 64)   # evicted, so built anew
    assert cached.cache_info().misses == size + 2
    assert again is not first
    assert [(b.lo, b.hi) for b in again] == [(b.lo, b.hi) for b in first]


def test_index_pairs_order_and_regime():
    assert list(index_pairs(7)) == [(4, 5), (4, 6), (5, 6), (4, 7), (5, 7),
                                    (6, 7)]
    assert list(index_pairs(7, 5)) == [(5, 6), (5, 7), (6, 7)]
    assert list(index_pairs(4)) == []
    assert in_regime(18, 20) and not in_regime(17, 20)   # 68 against 68
    assert regime_pairs(30) == [(y, z) for z in range(5, 31)
                                for y in range(4, z) if 4 * y > 3 * z + 8]


def test_regime_pairs_are_the_index_pairs_in_the_regime():
    # index_pairs(z_max) is the run of index_pairs(300) with z <= z_max
    regime = [(y, z) for y, z in index_pairs(300) if in_regime(y, z)]
    for z_max in range(301):
        assert regime_pairs(z_max) == [p for p in regime if p[1] <= z_max]


def test_regime_sample_is_evenly_spaced():
    regime = regime_pairs(60)
    for samples in (1, 7, 25, len(regime) - 1, len(regime), 10 ** 6):
        step = max(1, len(regime) // samples)
        picked = regime_sample(60, samples)
        assert picked == regime[::step][:samples]
        assert len(picked) == min(samples, len(regime))
    assert regime_sample(60, 0) == regime_sample(60, -3) == []
    assert regime_sample(6, 5) == []


@pytest.mark.parametrize("argv, samples", [
    (["--samples", "9"], 9), (["--samples", "0"], 0), ([], 25)],
    ids=["samples-9", "samples-0", "default"])
def test_verify_norms_checks_the_regime_sample(monkeypatch, capsys, argv,
                                               samples):
    seen = []
    true_factor_bounds = cli.factor_bounds

    def recording(y, z, *args):
        seen.append((y, z))
        return true_factor_bounds(y, z, *args)

    monkeypatch.setattr(cli, "factor_bounds", recording)
    assert cli.run(["verify", "norms", "--z-max", "40"] + argv) == 0
    capsys.readouterr()
    assert seen == regime_sample(40, samples)
    assert len(seen) == samples


def test_prop1_results_and_norm_witnesses_yield_every_pair():
    results = list(prop1_results(25))
    assert [(y, z) for y, z, _, _ in results] == list(index_pairs(25))
    assert all(d == gcd_shifted(y, z) and ok is prop1_holds(y, z)
               for y, z, d, ok in results)
    ws = list(norm_witnesses(20))
    assert ws == [norm_witness(y, z) for y, z in index_pairs(20, 5)]


def test_prop1_results_match_the_checker_route():
    # prop1_results takes the gcd once per pair; the checker's own route,
    # prop1_holds, takes it again and must agree on every pair
    assert list(prop1_results(120)) == [
        (y, z, gcd_shifted(y, z), prop1_holds(y, z))
        for y, z in index_pairs(120)]


def test_prop1_results_take_each_gcd_once(monkeypatch):
    # one gcd per pair, of T_y - 1 and T_z - 1 from the run's list, and one
    # threshold per z
    gcds, thresholds = [], []
    true_gcd, true_threshold = gcdbound.gcd, gcdbound.prop1_threshold

    def counting_gcd(a, b):
        gcds.append((a, b))
        return true_gcd(a, b)

    def counting_threshold(z, *args):
        thresholds.append(z)
        return true_threshold(z, *args)

    monkeypatch.setattr(gcdbound, "gcd", counting_gcd)
    monkeypatch.setattr(gcdbound, "prop1_threshold", counting_threshold)
    list(prop1_results(30))
    assert gcds == [(trib(y) - 1, trib(z) - 1) for y, z in index_pairs(30)]
    assert thresholds == list(range(5, 31))


def test_prop1_threshold_is_the_largest_fourth_root_below():
    for z in (1, 2, 5, 18, 100, 500):
        m = prop1_threshold(z)
        assert cmp_alpha_power_trace(3 * z, m ** 4) == Cmp.GREATER
        assert cmp_alpha_power_trace(3 * z, (m + 1) ** 4) == Cmp.LESS
    with pytest.raises(ValueError):
        prop1_threshold(0)


def test_prop1_threshold_agrees_with_the_per_pair_comparison():
    # every pair with z <= 500: d <= m_z exactly when the power sums say
    # alpha**(3*z) > d**4
    results = list(prop1_results(500))
    assert len(results) == 123256
    assert results == [
        (y, z, d, cmp_alpha_power_trace(3 * z, d ** 4) == Cmp.GREATER)
        for y, z, d in ((y, z, gcd_shifted(y, z))
                        for y, z in index_pairs(500))]


def test_prop1_threshold_encloses_nothing_off_a_tie(monkeypatch):
    # no s_(3z) with z <= 200 is a fourth power, so no threshold reads a
    # power of beta
    def enclosing(*args):
        raise AssertionError(f"tie branch taken: {args}")

    monkeypatch.setattr(gcdbound, "cmp_alpha_power_trace", enclosing)
    assert all(ok for *_, ok in prop1_results(200))


# s_(3z) planted as d**4 for the largest gcd d at z: alpha**(3z) > s exactly
# when Re(beta**(3z)) < 0, which holds at z = 18 (d = 39) and fails at
# z = 22 (d = 34)
_TIE_SIGNS = {18: True, 22: False}


def _plant_tie(monkeypatch, z):
    """Make s_(3z) the fourth power of the largest gcd at z; return it."""
    d = max(gcd_shifted(y, z) for y in range(4, z))
    true_trace = tribonacci.alpha_power_trace

    def planted(p):
        return d ** 4 if p == 3 * z else true_trace(p)

    for module in (tribonacci, gcdbound):
        monkeypatch.setattr(module, "alpha_power_trace", planted)
    return d


@pytest.mark.parametrize("z", sorted(_TIE_SIGNS))
def test_prop1_threshold_tie_branch_both_ways(monkeypatch, z):
    d = _plant_tie(monkeypatch, z)
    greater = _TIE_SIGNS[z]
    assert beta_power(3 * z).re.is_negative() is greater
    assert d > 1
    assert prop1_threshold(z) == (d if greater else d - 1)
    got = [(y, ok) for y, z2, _, ok in prop1_results(z) if z2 == z]
    want = [(y, gcd_shifted(y, z) < d or greater) for y in range(4, z)]
    assert got == want
    assert (all(ok for _, ok in got)) is greater


def test_prop1_threshold_tie_at_the_cap_is_exit_3(monkeypatch, tmp_path,
                                                   capsys):
    # a tie whose sign of Re(beta**(3z)) no rung of the ladder resolves
    d = _plant_tie(monkeypatch, 18)
    bits_seen = []

    def straddling(k, bits):
        bits_seen.append(bits)
        return ComplexEnclosure(Enclosure(-1, 1), Enclosure.point(0))

    monkeypatch.setattr(tribonacci, "beta_power", straddling)
    with pytest.raises(PrecisionFailure):
        prop1_threshold(18, 16, 100)
    assert bits_seen == list(precision_ladder(16, 100))
    out = tmp_path / "prop1.jsonl"
    assert cli.run(["verify", "prop1", "--z-max", "20", "--out",
                    str(out)]) == 3
    assert "inconclusive:" in capsys.readouterr().err
    assert not out.exists()
    # below z = 18 no threshold ties
    assert cli.run(["verify", "prop1", "--z-max", "17"]) == 0
    assert d == 39


def test_prop1_battery_never_encloses_alpha_powers(monkeypatch, tmp_path,
                                                   capsys):
    # the battery decides by power sums; the checker reads one enclosure of
    # alpha**z per z for its floor, and no genuine pair gets past it to
    # cmp_alpha_power
    powers, compared, betas = [], [], []

    def counting(calls, true_fn):
        def fn(*args):
            calls.append(args)
            return true_fn(*args)
        return fn

    power = counting(powers, constants_module.alpha_power)
    cmp = counting(compared, constants_module.cmp_alpha_power)
    beta = counting(betas, constants_module.beta_power)
    for module in (constants_module, gcdbound, records):
        monkeypatch.setattr(module, "alpha_power", power)
    for module in (constants_module, gcdbound, tribonacci):
        monkeypatch.setattr(module, "cmp_alpha_power", cmp)
        monkeypatch.setattr(module, "beta_power", beta)
    out = tmp_path / "prop1.jsonl"
    assert cli.run(["verify", "prop1", "--z-max", "30", "--out",
                    str(out)]) == 0
    assert powers == compared == betas == []
    records._prop1_floor.cache_clear()
    assert cli.run(["check-records", str(out)]) == 0
    capsys.readouterr()
    assert powers == [(z, DEFAULT_PRECISION) for z in range(5, 31)]
    assert compared == betas == []
    # the same binding does see the per-pair enclosure route
    assert prop1_holds(12, 18)
    assert [args[:2] for args in compared] == [(54, gcd_shifted(12, 18) ** 4)]
