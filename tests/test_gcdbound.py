"""Gcd growth bound: exact norm certificates, embedding bounds, sweeps."""

from fractions import Fraction

import pytest

from triboverify import cli, gcdbound
from triboverify.gcdbound import (FactorBoundsReport, GcdWitness,
                                  IntegrityError, alpha_power_cubic,
                                  factor_bounds, factor_sweep, gcd_shifted,
                                  norm_sweep, norm_witness, prop1_holds,
                                  sweep)
from triboverify.splitfield import ALPHA_C, CubicElement, norm3, norm6
from triboverify.tribonacci import trib


def test_alpha_power_cubic_matches_generic_power():
    for k in (0, 1, 2, 3, 7, 25, 60):
        assert alpha_power_cubic(k) == ALPHA_C ** k
    with pytest.raises(ValueError):
        alpha_power_cubic(-1)


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
            expected = (alpha_power_cubic(z - y) * (trib(y) - 1)
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
    eta = alpha_power_cubic(3) * (trib(7) - 1) - (trib(10) - 1)
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
    assert len(r.embedding_abs) == 6
    r = factor_bounds(19, 20)
    assert r.ok
    # the real-embedding magnitude is a genuine positive quantity
    assert r.real_abs.is_positive()


def test_factor_bounds_regime_guard():
    with pytest.raises(ValueError):
        factor_bounds(10, 20)   # 40 <= 68
    with pytest.raises(ValueError):
        factor_bounds(20, 18)


def test_sweep_small():
    rep = sweep(30, deep_samples=10)
    assert rep.all_ok
    assert rep.pairs_checked == sum(z - 4 for z in range(5, 31))
    assert rep.deep_checked == 10
    assert not rep.prop1_failures
    assert not rep.chain_failures
    assert not rep.deep_failures


def test_norm_sweep_tight_pairs():
    rep = norm_sweep(12)
    assert (5, 6) in rep.tight_pairs
    assert (6, 7) in rep.tight_pairs
    for w in rep.witnesses:
        assert w.norm3_value % w.d ** 3 == 0
        assert abs(w.norm3_value) >= w.d ** 3
    with pytest.raises(ValueError):
        norm_sweep(5)


def test_norm_sweep_jobs_deterministic():
    assert norm_sweep(20, jobs=1) == norm_sweep(20, jobs=4)


def test_factor_sweep_all_ok():
    rep = factor_sweep(30)
    assert rep.all_ok
    want = [(y, z) for z in range(5, 31) for y in range(4, z)
            if 4 * y > 3 * z + 8]
    assert [(r.y, r.z) for r in rep.reports] == want
