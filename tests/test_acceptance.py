"""Desk-scale acceptance battery.

Eleven headline checks, one test each, every test printing a single
PASS/FAIL line to the live terminal (bypassing capture) so the verdicts
survive into logged pytest output.  Stated runtime budgets are asserted.
"""

import time
from fractions import Fraction
from math import lcm

from triboverify.constants import verify_growth, verify_numeric_window
from triboverify.expansion import decay_report
from triboverify.gcdbound import factor_sweep, norm_witnesses, prop1_holds
from triboverify.splitfield import (ALPHA_C, ALPHA_K, CubicElement,
                                    field_identity_report, is_root_of_unity,
                                    is_square_in_K, monomial, _legendre)
from triboverify.triples import brute_force, search, uvw_from_xyz
from triboverify.tribonacci import trib, trib_fast

from fast_path import fast_path_refutes


def _emit(capsys, num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_recurrence_and_fast_path(capsys):
    t0 = time.perf_counter()
    ok = all(trib(n + 3) == trib(n + 2) + trib(n + 1) + trib(n)
             for n in range(0, 9998))
    ok = ok and all(trib_fast(n) == trib(n) for n in range(0, 2001))
    dt = time.perf_counter() - t0
    _emit(capsys, 1, "recurrence to 10000, fast path to 2000",
          ok and dt < 5.0, f"{dt:.2f}s")


def test_02_growth_bounds(capsys):
    t0 = time.perf_counter()
    rep = verify_growth(2000)
    dt = time.perf_counter() - t0
    ok = rep.all_ok and rep.checked == 1999 and dt < 10.0
    _emit(capsys, 2, "growth envelope 2..2000", ok,
          f"checked={rep.checked} failures={len(rep.failures)} {dt:.2f}s")


def test_03_numeric_windows(capsys):
    rep = verify_numeric_window(96)
    windows = [c for c in rep.checks if c.name.endswith("_window")]
    ok = rep.all_ok and len(windows) == 5
    names = {c.name for c in rep.checks}
    ok = ok and "beta_abs_is_alpha_inv_sqrt" in names
    _emit(capsys, 3, "five constant windows at 2^-64", ok,
          f"checks={len(rep.checks)}")


def test_04_gcd_inequality_sweep(capsys):
    t0 = time.perf_counter()
    bad = [(y, z) for z in range(5, 501) for y in range(4, z)
           if not prop1_holds(y, z)]
    dt = time.perf_counter() - t0
    _emit(capsys, 4, "gcd bound for 4<=y<z<=500",
          not bad and dt < 60.0, f"violations={len(bad)} {dt:.2f}s")


def test_05_norm_certificates(capsys):
    ws = list(norm_witnesses(120))
    ok = len(ws) == sum(z - 5 for z in range(6, 121))
    tight = next((w for w in ws if (w.y, w.z) == (6, 7)), None)
    ok = ok and tight is not None and tight.tight
    ok = ok and abs(tight.norm3_value) == 216 == tight.d ** 3
    _emit(capsys, 5, "norm certificates 5<=y<z<=120", ok,
          f"witnesses={len(ws)} tight_pairs={sum(w.tight for w in ws)}")


def test_06_embedding_factor_bounds(capsys):
    rep = factor_sweep(200)
    want = [(y, z) for z in range(5, 201) for y in range(4, z)
            if 4 * y > 3 * z + 8]
    ok = rep.all_ok and [(r.y, r.z) for r in rep.reports] == want
    _emit(capsys, 6, "embedding bounds in regime, z<=200", ok,
          f"pairs={len(rep.reports)}")


def test_07_exact_field_identities(capsys):
    rep = field_identity_report()
    bad = [k for k, v in rep.items() if not v]
    _emit(capsys, 7, "exact field identities", not bad,
          f"checks={len(rep)} failed={bad or 'none'}")


def test_08_squareness_certificates(capsys):
    t0 = time.perf_counter()
    a = CubicElement((-1, -2, 3)).inv()
    cert_a = is_square_in_K(a)
    cert_aa = is_square_in_K(ALPHA_C * a)
    ok = not cert_a.verdict and not cert_aa.verdict

    # re-verify every witness from first principles
    for element, cert in ((a, cert_a), (ALPHA_C * a, cert_aa)):
        for target, (q, r) in ((element, cert.witness_self),
                               (element * -11, cert.witness_twisted)):
            ok = ok and q not in (2, 11)
            ok = ok and (r ** 3 - r ** 2 - r - 1) % q == 0
            den = lcm(*(c.denominator for c in target.coords))
            ok = ok and den % q != 0
            n0, n1, n2 = (c.numerator * (den // c.denominator)
                          for c in target.coords)
            val = (n0 + r * (n1 + r * n2)) * pow(den, -1, q) % q
            ok = ok and _legendre(val, q) == -1

    cert_sq = is_square_in_K(ALPHA_C * ALPHA_C)
    ok = ok and cert_sq.verdict
    ok = ok and cert_sq.root * cert_sq.root == ALPHA_K * ALPHA_K
    cert_11 = is_square_in_K(CubicElement((-11, 0, 0)))
    ok = ok and cert_11.verdict
    dt = time.perf_counter() - t0
    _emit(capsys, 8, "squareness certificates with witnesses",
          ok and dt < 5.0, f"{dt:.2f}s")


def test_09_search_agreement_and_emptiness(capsys):
    t0 = time.perf_counter()
    plain = search(60)
    pruned = search(60, use_gcd_prune=True)
    brute = brute_force(2000)
    inverted = uvw_from_xyz(5, 6, 7)
    dt = time.perf_counter() - t0
    ok = plain == pruned == brute == [] and inverted is None and dt < 60.0
    _emit(capsys, 9, "search empty, strategies agree", ok,
          f"index={len(plain)} value={len(brute)} {dt:.2f}s")


def test_10_root_of_unity_grid(capsys):
    checked = 0
    ok = True
    for ma in range(-6, 0):
        for mb in range(1, 7):
            for mg in range(1, 7):
                exact = is_root_of_unity(monomial(ma, mb, mg))
                fast = fast_path_refutes(ma, mb, mg)
                ok = ok and not exact and fast
                checked += 1
    _emit(capsys, 10, "root-of-unity grid 6x6x6", ok and checked == 216,
          f"monomials={checked}")


def test_11_expansion_decay(capsys):
    rep = decay_report(20, 25, 30, order_max=6)
    ok = (len(rep.decreasing) == 5 and all(rep.decreasing)
          and len(rep.ratio_ok) == 5 and all(rep.ratio_ok))
    _emit(capsys, 11, "expansion error decay at (20,25,30)", ok,
          f"orders=0..6 decreasing={sum(rep.decreasing)}/5 "
          f"ratio={sum(rep.ratio_ok)}/5")
