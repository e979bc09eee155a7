"""Sequence engine: table, 3x3 matrix powering, membership by bisection, power
sums."""

import random
import sys
import threading

import pytest

from triboverify import tribonacci
from triboverify.constants import Cmp, beta_power, verify_growth
from triboverify.enclosure import (ComplexEnclosure, Enclosure,
                                   PrecisionFailure, precision_ladder)
from triboverify.records import GROWTH_N_MAX_CAP, PAIR_Z_MAX_CAP
from triboverify.tribonacci import (TribTable, alpha_power_trace,
                                    cmp_alpha_power_trace, default_table,
                                    is_tribonacci, trib, trib_fast,
                                    verify_growth_trace)

FIRST = [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705,
         3136, 5768, 10609, 19513, 35890, 66012]


def test_first_values():
    for n, want in enumerate(FIRST):
        assert trib(n) == want


def test_recurrence_long():
    t = default_table()
    for n in range(3, 5000):
        assert t.value(n) == t.value(n - 1) + t.value(n - 2) + t.value(n - 3)


def test_fast_matches_table():
    for n in range(0, 400):
        assert trib_fast(n) == trib(n)
    rng = random.Random(20260822)
    for _ in range(50):
        n = rng.randint(400, 3000)
        assert trib_fast(n) == trib(n)


def test_values_upto():
    t = TribTable()
    vals = t.values_upto(100)
    assert vals[-1] == (10, 81)
    assert [v for _, v in vals] == [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81]
    assert t.values_upto(0) == [(0, 0), (1, 0)]


def test_membership_known():
    for n, v in enumerate(FIRST):
        assert is_tribonacci(v) is not None
    assert is_tribonacci(0) == 0          # smallest index for the duplicate 0
    assert is_tribonacci(1) == 2          # smallest index for the duplicate 1
    assert is_tribonacci(2) == 4
    assert is_tribonacci(81) == 10


def test_membership_rejects():
    for v in (3, 5, 6, 8, 12, 23, 43, 80, 82, 10 ** 18):
        assert is_tribonacci(v) is None


def test_membership_large():
    t = default_table()
    v = t.value(700)
    assert is_tribonacci(v) == 700
    assert is_tribonacci(v - 1) is None
    assert is_tribonacci(v + 1) is None


def test_first_index():
    t = default_table()
    assert t.first_index(1) == 2
    assert t.first_index(0) == 0
    assert t.first_index(44) == 9
    assert t.first_index(45) is None


def _first_indices(n_max):
    """value -> smallest n <= n_max with T_n = value, by a linear scan."""
    first = {}
    for n in range(n_max + 1):
        first.setdefault(trib(n), n)
    return first


def test_first_index_matches_a_linear_scan():
    # every value up to T_20 + 1, each on a fresh table
    first = _first_indices(21)
    for v in range(trib(20) + 2):
        assert TribTable().first_index(v) == first.get(v), v
    # and around T_n on a stride of n up to 3000
    first = _first_indices(3001)
    t = default_table()
    for n in range(4, 3001, 7):
        for v in (trib(n) - 1, trib(n), trib(n) + 1):
            assert t.first_index(v) == first.get(v), (n, v)


def test_first_index_grows_the_table_only_as_far_as_it_must():
    for value in (0, 1, 2, 44, 45, trib(300) - 1, trib(300), trib(300) + 1):
        t = TribTable()
        t.first_index(value)
        first_at_least = next(n for n in range(400) if trib(n) >= value)
        assert len(t) == max(3, first_at_least + 1), value


def test_a_table_shared_between_threads_agrees_with_matrix_powering():
    # more threads than cores and a short switch interval; the threads
    # start each fresh table together and grow it through all three of its
    # entry points, each thread in its own order, and a lost or doubled
    # append would shift every later value
    top = 300
    expected = [trib_fast(n) for n in range(top + 1)]
    asks = ([("value", n) for n in range(0, top + 1, 7)]
            + [("first_index", n) for n in range(4, top + 1, 11)]
            + [("values_upto", n) for n in range(3, top + 1, 37)])
    tables = [TribTable() for _ in range(20)]
    wrong = []
    start = threading.Barrier(6)

    def agrees(table, kind, n):
        if kind == "value":
            return table.value(n) == expected[n]
        if kind == "first_index":
            return table.first_index(expected[n]) == n
        return table.values_upto(expected[n]) == list(
            enumerate(expected[:n + 1]))

    def ask_all(seed):
        rng = random.Random(seed)
        for table in tables:
            start.wait(timeout=60)
            order = asks[:]
            rng.shuffle(order)
            for kind, n in order:
                if not agrees(table, kind, n):
                    wrong.append((seed, kind, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask_all, args=(seed,))
                   for seed in range(start.parties)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_negative_handling():
    with pytest.raises(ValueError):
        trib(-1)
    # membership of a negative is simply false, not an error
    assert is_tribonacci(-5) is None


def test_alpha_power_trace_is_the_power_sum_sequence():
    # the power sums of the roots follow the recurrence from (3, 1, 3)
    p_max = 3 * PAIR_Z_MAX_CAP
    sums = [3, 1, 3]
    while len(sums) <= p_max:
        sums.append(sums[-1] + sums[-2] + sums[-3])
    assert [alpha_power_trace(p) for p in range(p_max + 1)] == sums
    # and the same closed form over the table-free matrix power
    for p in list(range(200)) + list(range(200, p_max + 1, 347)) + [p_max]:
        assert sums[p] == (3 * trib_fast(p + 2) - 2 * trib_fast(p + 1)
                           - trib_fast(p))
    with pytest.raises(ValueError):
        alpha_power_trace(-1)


@pytest.mark.parametrize("p", [-1, 0, 1, 2])
def test_cmp_alpha_power_trace_refuses_p_below_3(p):
    # |alpha**p - s_p| < 1 needs p >= 3: alpha**2 = 3.38... and s_2 = 3
    with pytest.raises(ValueError):
        cmp_alpha_power_trace(p, 3)


def _counting_beta_power(monkeypatch):
    calls = []

    def counting(k, bits):
        calls.append((k, bits))
        return beta_power(k, bits)

    monkeypatch.setattr(tribonacci, "beta_power", counting)
    return calls


def test_cmp_alpha_power_trace_decides_a_tie_by_the_sign_of_re_beta(
        monkeypatch):
    calls = _counting_beta_power(monkeypatch)
    # alpha**p = s_p - 2*Re(beta**p): a neighbour of s_p needs no enclosure
    for p in range(3, 40):
        s = alpha_power_trace(p)
        assert cmp_alpha_power_trace(p, s - 1) == Cmp.GREATER
        assert cmp_alpha_power_trace(p, s + 1) == Cmp.LESS
    assert calls == []
    # alpha**3 = 6.22... < s_3 = 7, so Re(beta**3) > 0
    assert alpha_power_trace(3) == 7
    assert cmp_alpha_power_trace(3, 7) == Cmp.LESS
    assert calls == [(3, 192)]
    for p in range(4, 40):
        want = Cmp.GREATER if beta_power(p).re.is_negative() else Cmp.LESS
        assert cmp_alpha_power_trace(p, alpha_power_trace(p)) == want
    assert [k for k, _ in calls] == list(range(3, 40))


def test_cmp_alpha_power_trace_unresolved_tie_raises(monkeypatch):
    bits_seen = []

    def straddling(k, bits):
        bits_seen.append(bits)
        return ComplexEnclosure(Enclosure(-1, 1), Enclosure.point(0))

    monkeypatch.setattr(tribonacci, "beta_power", straddling)
    s = alpha_power_trace(57)
    with pytest.raises(PrecisionFailure, match=r"beta\*\*57\)"):
        cmp_alpha_power_trace(57, s, 16, 100)
    assert bits_seen == list(precision_ladder(16, 100))
    # away from the tie the stub is never consulted
    assert cmp_alpha_power_trace(57, s - 1, 16, 100) == Cmp.GREATER
    assert bits_seen == list(precision_ladder(16, 100))


def test_growth_trace_route_matches_the_enclosure_route():
    # the battery's route (power sums from n = 6) against the checker's
    for n_max in (2, 3, 5, 6, 7, 100, GROWTH_N_MAX_CAP):
        assert verify_growth_trace(n_max) == verify_growth(n_max), n_max


@pytest.mark.parametrize("scale", [(1, 2), (2, 1), (7, 8), (17, 10)])
def test_growth_routes_report_the_same_failures(monkeypatch, scale):
    # T_n lies between 1.13*alpha**(n-3) and 0.62*alpha**(n-2) for large n,
    # so a sequence scaled by num/den below 0.88 or above 1.62 leaves the
    # envelope, and both routes (verify_growth reads trib from this module)
    # name the same n
    num, den = scale
    true_trib = tribonacci.trib
    monkeypatch.setattr(tribonacci, "trib",
                        lambda n: true_trib(n) * num // den or 1)
    by_traces = verify_growth_trace(300)
    assert by_traces.failures
    assert by_traces == verify_growth(300)


def test_growth_trace_route_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_growth_trace(1)
