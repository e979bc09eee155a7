"""Triple search: index inversion, value-side brute force, and their
agreement, including on synthetic tables with planted solutions."""

import random
import sys
import threading
from bisect import bisect_left
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triboverify import triples
from triboverify.records import SEARCH_Z_MAX_CAP
from triboverify.triples import (SearchSweep, TripleCandidate, admissible,
                                 brute_force, search, uvw_from_xyz,
                                 verify_triple)
from triboverify.tribonacci import trib


class ListTable:
    """A sequence table over a fixed list of values."""

    def __init__(self, vals):
        self.vals = vals

    def value(self, n):
        return self.vals[n]

    def values_upto(self, bound):
        return [(n, v) for n, v in enumerate(self.vals) if v <= bound]

    def first_index(self, value):
        for n, v in enumerate(self.vals):
            if v == value:
                return n
        return None


class FakeTable(ListTable):
    """Fake sequence with a planted triple (1, 2, 3) at indices (5, 6, 7)."""

    VALS = [0, 0, 1, 1, 2, 3, 4, 7, 13, 24, 44, 81, 149]

    def __init__(self):
        super().__init__(self.VALS)


def test_inversion_rejects_known_index_triples():
    # u**2 = 18/12, then 36/23, then 72/43: none are integers
    assert uvw_from_xyz(5, 6, 7) is None
    assert uvw_from_xyz(5, 7, 8) is None
    assert uvw_from_xyz(6, 7, 9) is None
    with pytest.raises(ValueError):
        uvw_from_xyz(3, 6, 7)
    with pytest.raises(ValueError):
        uvw_from_xyz(6, 6, 7)


def test_verify_triple_rejects_near_misses():
    assert verify_triple(1, 3, 6) is None    # 19 not in the sequence
    assert verify_triple(1, 2, 3) is None    # 3 not in the sequence
    assert verify_triple(1, 3, 12) is None   # 37 not in the sequence
    with pytest.raises(ValueError):
        verify_triple(2, 2, 3)
    with pytest.raises(ValueError):
        verify_triple(0, 1, 2)


def test_admissible():
    assert admissible(5, 6, 7)
    assert not admissible(5, 6, 12)   # x + y <= z
    assert not admissible(4, 6, 7)    # x below the floor
    assert not admissible(6, 6, 7)
    assert admissible(5, 20, 24, use_gcd_prune=True)   # floor is 4
    assert not admissible(7, 38, 40, use_gcd_prune=True)  # floor is 8
    assert admissible(8, 38, 40, use_gcd_prune=True)


def test_search_empty_on_real_sequence():
    assert search(6) == []
    assert search(8) == []
    assert search(30) == []


def test_search_prune_does_not_change_answer():
    assert search(60) == search(60, use_gcd_prune=True) == []


def test_gcd_prune_never_narrows_search():
    # up to the record cap, the prune's floor ceil(z/4) - 2 lies below the
    # bisection floor of every non-empty x-range, so it drops no index that
    # search tests; y <= (z + 1) / 2 leaves no x with x + y > z.  The pairs
    # that pass the dead-pair test are exactly those with a non-empty range
    tm = [trib(n) - 1 for n in range(SEARCH_Z_MAX_CAP + 1)]
    margins = []
    for z in range(12, SEARCH_Z_MAX_CAP + 1):
        for y in range((z + 3) // 2, z):
            m = tm[z] // gcd(tm[y], tm[z])
            xs = range(bisect_left(tm, m, max(5, z - y + 1), y), y)
            live = triples._x_range(y, z, tm)
            assert (live is not None) == bool(xs)
            if xs:
                assert live == (xs, m)
                margins.append((xs.start - (-(-z // 4) - 2), y, z))
    assert len(margins) == 1245
    assert min(margins) == (10, 15, 18)


def _block_rows(tm):
    rows = [tm]
    triples._add_blocks(rows)
    return rows


def _screened(monkeypatch, table, z_top):
    """The pairs (y, z), 7 <= z <= z_top, that ``_search_at`` skips
    without calling ``_x_range``, and the number of pairs its loop covers;
    tm[n] = T_n - 1 for the table."""
    tm = [table.value(n) - 1 for n in range(z_top + 1)]
    rows = _block_rows(tm)
    tested = set()
    x_range = triples._x_range

    def recorded(y, z, tm):
        tested.add((y, z))
        return x_range(y, z, tm)
    monkeypatch.setattr(triples, "_x_range", recorded)
    pairs = [(y, z) for z in range(7, z_top + 1)
             for y in range(max(6, (z + 3) // 2), z)]
    for z in range(7, z_top + 1):
        triples._search_at(z, rows, table)
    monkeypatch.undo()
    assert tested <= set(pairs)
    return [p for p in pairs if p not in tested], len(pairs), tm


def test_screen_skips_only_dead_pairs_on_the_real_table(monkeypatch):
    # the shared gcd per z stands in for the gcd of each skipped pair; every
    # pair it drops is one that _x_range itself finds dead
    skipped, total, tm = _screened(monkeypatch, triples.default_table(),
                                   SEARCH_Z_MAX_CAP)
    assert total == 248_995
    assert len(skipped) >= 230_000
    assert len(skipped) == 235_694
    assert all(triples._x_range(y, z, tm) is None for y, z in skipped)


def test_fresh_sweep_to_200_takes_few_gcds(monkeypatch):
    # one gcd per pair would be 9,795; the screen leaves one per z plus one
    # per pair after its prefix
    calls = Counter()

    def counted(*args):
        calls["gcd"] += 1
        return gcd(*args)
    monkeypatch.setattr(triples, "gcd", counted)
    assert SearchSweep().upto(200) == []
    assert 194 <= calls["gcd"] <= 2000
    assert calls["gcd"] == 1772


def test_brute_force_skips_divisor_scans_of_small_gcds(monkeypatch):
    # a gcd below ceil((b - 1)/w_max) has no divisor in the u range, so
    # about half of the 303 pairs at w_max = 10**5 need no trial division
    calls = Counter()
    divisors_between = triples._divisors_between

    def counted(*args):
        calls["scan"] += 1
        return divisors_between(*args)
    monkeypatch.setattr(triples, "_divisors_between", counted)
    assert brute_force(10 ** 5) == []
    assert 0 < calls["scan"] <= 160


def test_brute_force_empty_on_real_sequence():
    assert brute_force(3) == []
    assert brute_force(100) == []
    assert brute_force(500) == []


def test_planted_triple_found_by_both_strategies():
    ft = FakeTable()
    assert uvw_from_xyz(5, 6, 7, ft) == (1, 2, 3)
    assert verify_triple(1, 2, 3, ft) == (5, 6, 7)
    fs = search(12, table=ft)
    fb = brute_force(10, table=ft)
    planted = TripleCandidate(5, 6, 7, 1, 2, 3)
    assert planted in fs
    assert planted in fb
    # the fake table happens to admit a second triple; both routes agree on
    # the complete answer, not just the planted row
    assert fs == fb == [planted, TripleCandidate(5, 7, 8, 1, 2, 6)]


def test_candidates_satisfy_defining_equations():
    ft = FakeTable()
    for c in search(12, table=ft):
        assert c.u * c.v + 1 == ft.value(c.x)
        assert c.u * c.w + 1 == ft.value(c.y)
        assert c.v * c.w + 1 == ft.value(c.z)
        assert c.u < c.v < c.w
        assert c.x < c.y < c.z


def test_divisibility_shortcut_is_sound():
    # every surviving index triple satisfies (T_x-1)(T_y-1) % (T_z-1) == 0;
    # check the contrapositive on a window of real index triples
    for z in range(7, 16):
        tz = trib(z) - 1
        for y in range(6, z):
            for x in range(5, y):
                if (trib(x) - 1) * (trib(y) - 1) % tz == 0:
                    # divisibility alone does not make a triple
                    assert uvw_from_xyz(x, y, z) is None


# ---------------------------------------------------------------------------
# oracles: the per-pair index loop that ``search`` replaces with loop bounds,
# and the per-u value scan over every u < w_max that ``brute_force``
# replaces with the divisors of gcd(a - 1, b - 1) over pairs of values a < b
# ---------------------------------------------------------------------------

def _oracle_search(z_max, use_gcd_prune, t):
    out = []
    for z in range(7, z_max + 1):
        tz = t.value(z) - 1
        for y in range(6, z):
            ty = t.value(y) - 1
            for x in range(5, y):
                if not admissible(x, y, z, use_gcd_prune):
                    continue
                if (t.value(x) - 1) * ty % tz:
                    continue
                uvw = uvw_from_xyz(x, y, z, t)
                if uvw is not None:
                    out.append(TripleCandidate(x, y, z, *uvw))
    return out


def _oracle_brute_force(w_max, t):
    if w_max < 3:
        return []
    out = []
    for u in range(1, w_max - 1):
        partners = []
        for _, val in t.values_upto(u * w_max + 1):
            if val <= u * u + 1:
                continue
            if (val - 1) % u == 0:
                partners.append((val - 1) // u)
        for i, v in enumerate(partners):
            for w in partners[i + 1:]:
                if w > w_max:
                    break
                if t.first_index(v * w + 1) is None:
                    continue
                xyz = verify_triple(u, v, w, t)
                if xyz is not None:
                    out.append(TripleCandidate(*xyz, u, v, w))
    out.sort(key=lambda c: (c.z, c.y, c.x, c.u))
    return out


_props = settings(deadline=None, max_examples=60)

_planted = st.lists(st.integers(1, 40), min_size=3, max_size=3,
                    unique=True).map(sorted)


@st.composite
def synthetic_tables(draw, distinct=False):
    """0, 0, 1, 1 and then non-decreasing values >= 2 (increasing when
    distinct): either a geometric run b**k + 1, where T_z - 1 divides
    (T_x - 1)(T_y - 1) whenever x + y >= z, so survivors and triples abound,
    or a positive linear recurrence; both with the values uv+1, uw+1, vw+1
    of up to three planted triples mixed in."""
    length = draw(st.integers(8, 32))
    if draw(st.booleans()):
        b, k0 = draw(st.integers(2, 5)), draw(st.integers(0, 3))
        seq = [b ** k + 1 for k in range(k0, k0 + length)]
    else:
        c0, c1, c2 = (draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                      draw(st.integers(1, 2)))
        seq = draw(st.lists(st.integers(2, 9), min_size=3, max_size=3))
        while len(seq) < length:
            seq.append(c0 * seq[-3] + c1 * seq[-2] + c2 * seq[-1])
    for u, v, w in draw(st.lists(_planted, max_size=3)):
        seq += [u * v + 1, u * w + 1, v * w + 1]
    return ListTable([0, 0, 1, 1] + sorted(set(seq) if distinct else seq))


@_props
@given(synthetic_tables(), st.booleans())
def test_search_matches_oracle_on_synthetic_tables(table, prune):
    z_max = len(table.vals) - 1
    assert (search(z_max, prune, table=table)
            == _oracle_search(z_max, prune, table))


# a value taken twice gives a partner twice, which verify_triple refuses
@_props
@given(synthetic_tables(distinct=True), st.integers(3, 200))
def test_brute_force_matches_oracle_on_synthetic_tables(table, w_max):
    assert brute_force(w_max, table=table) == _oracle_brute_force(w_max,
                                                                  table)


def test_searches_match_oracles_on_fake_table():
    ft = FakeTable()
    for z_max in range(7, len(ft.VALS)):
        for prune in (False, True):
            assert (search(z_max, prune, table=ft)
                    == _oracle_search(z_max, prune, ft))
    for w_max in range(3, 60):
        assert brute_force(w_max, table=ft) == _oracle_brute_force(w_max, ft)


def test_synthetic_tables_reach_the_survivor_path():
    # on the real sequence no index triple up to z = 120 passes the filter
    # and the divisibility test, so only synthetic tables like this one
    # carry the oracle comparisons into uvw_from_xyz
    table = ListTable([0, 0, 1, 1] + [2 ** k + 1 for k in range(1, 20)])
    found = search(20, table=table)
    assert len(found) > 10 and found == _oracle_search(20, False, table)
    assert brute_force(300, table=table) == _oracle_brute_force(300, table)
    assert brute_force(300, table=table)


@settings(deadline=None)
@given(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(1, 10 ** 30), st.booleans())
def test_reduced_modulus_decides_divisibility(a, b, d, divisor_of_product):
    c = gcd(a * b, d) if divisor_of_product else d
    assert (a * b % c == 0) == (a % (c // gcd(b, c)) == 0)


def test_x_range_is_exactly_the_admissible_divisible_indices():
    # without the prune; search applies that as a filter on its candidates
    tm = [trib(n) - 1 for n in range(61)]
    for z in range(6, 61):
        for y in range(4, z):
            allowed = {x for x in range(y) if admissible(x, y, z)}
            divisible = {x for x in allowed if tm[x] * tm[y] % tm[z] == 0}
            live = triples._x_range(y, z, tm)
            if live is None:
                assert not divisible
                continue
            xs, m = live
            assert set(xs) <= allowed
            assert divisible <= set(xs)
            assert {x for x in xs if tm[x] % m == 0} == divisible


@_props
@given(table=synthetic_tables())
def test_screen_skips_only_dead_pairs_on_synthetic_tables(table):
    # geometric runs share large factors, so there the screen skips little;
    # whatever it skips must still be dead
    with pytest.MonkeyPatch.context() as mp:
        skipped, _, tm = _screened(mp, table, len(table.vals) - 1)
    assert all(triples._x_range(y, z, tm) is None for y, z in skipped)


def test_block_residue_equals_stepwise_product_up_to_the_cap():
    # the product the screen takes its gcd with, one factor at a time
    tm = [trib(n) - 1 for n in range(SEARCH_Z_MAX_CAP + 1)]
    rows = _block_rows(tm)
    for z in range(7, SEARCH_Z_MAX_CAP + 1):
        lo, b = max(6, (z + 3) // 2), tm[z]
        p = 1
        for a in tm[lo:z]:
            p = p * a % b
        assert triples._window_residue(rows, lo, z, b) == p


@_props
@given(synthetic_tables(), st.data())
def test_block_residue_is_the_window_product_on_synthetic_tables(table,
                                                                 data):
    tm = [v - 1 for v in table.vals]
    hi = data.draw(st.integers(6, len(tm)))
    lo = data.draw(st.integers(6, hi))
    b = data.draw(st.integers(1, 2 ** 200))
    assert (triples._window_residue(_block_rows(tm), lo, hi, b)
            == prod(tm[lo:hi]) % b)


class _Unread:
    """A block entry that the search must never reduce or multiply in."""

    def __mod__(self, other):
        raise AssertionError("a block over an index below 6 was read")

    __rmod__ = __mul__ = __rmul__ = __mod__


def test_no_block_over_an_index_below_6_is_read(monkeypatch):
    # every window starts at lo >= 6, clear of the entries -1, -1, 0, 0 at
    # indices 0-3: each window the search takes is computed again from rows
    # where every entry over indices 0-5 raises when reduced
    real = _block_rows([trib(n) - 1 for n in range(201)])
    poisoned = [[_Unread() if i << k < 6 else v for i, v in enumerate(row)]
                for k, row in enumerate(real)]
    window_residue = triples._window_residue
    windows = []

    def on_poisoned(rows, lo, hi, b):
        assert rows is real
        windows.append(hi)
        p = window_residue(poisoned, lo, hi, b)
        assert p == window_residue(rows, lo, hi, b)
        return p
    monkeypatch.setattr(triples, "_window_residue", on_poisoned)
    for z in range(7, 201):
        assert triples._search_at(z, real, triples.default_table()) == []
    assert windows == list(range(7, 201))


def test_block_rows_grow_in_steps_like_a_sweep_grown_at_once():
    # steps across powers of two in len(tm) = z_max + 1; row k keeps the
    # len(tm) >> k complete blocks, each the product of its entries
    stepped, whole = SearchSweep(), SearchSweep()
    for z in (7, 8, 31, 32, 33, 63, 64, 65, 200, 511, 512, 513, 1000):
        assert stepped.upto(z) == []
        rows = stepped._rows
        assert len(rows) == len(rows[0]).bit_length()
        assert [len(row) for row in rows] == [len(rows[0]) >> k
                                              for k in range(len(rows))]
    assert whole.upto(SEARCH_Z_MAX_CAP) == []
    assert stepped._rows == whole._rows
    tm = whole._rows[0]
    for k, row in enumerate(whole._rows):
        assert row == [prod(tm[i << k:(i + 1) << k]) for i in range(len(row))]
    # about 0.53 MB at the cap; a prefix product kept per z would take tens
    # of MB
    assert sum(sys.getsizeof(v) for row in whole._rows for v in row) < 700_000


def test_brute_force_returns_each_triple_once_despite_repeated_values():
    # FakeTable with its value 3 taken twice (indices 5 and 6)
    table = ListTable(FakeTable.VALS[:6] + [3] + FakeTable.VALS[6:])
    ft = FakeTable()
    for w_max in range(3, 60):
        got = [(c.u, c.v, c.w) for c in brute_force(w_max, table=table)]
        want = [(c.u, c.v, c.w) for c in brute_force(w_max, table=ft)]
        assert got == want
        assert len(set(got)) == len(got)
    assert [(c.x, c.y, c.z, c.u, c.v, c.w)
            for c in brute_force(3, table=table)] == [(5, 7, 8, 1, 2, 3)]


@_props
@given(synthetic_tables(), st.integers(3, 200))
def test_brute_force_ignores_repeated_values(table, w_max):
    # each distinct value keeps its first index, so the order is unchanged
    distinct = ListTable([0, 0, 1, 1] + list(dict.fromkeys(table.vals[4:])))
    assert ([(c.u, c.v, c.w) for c in brute_force(w_max, table=table)]
            == [(c.u, c.v, c.w) for c in brute_force(w_max, table=distinct)])


@_props
@given(synthetic_tables(distinct=True), st.integers(3, 2000))
def test_brute_force_matches_oracle_up_to_w_max_2000(table, w_max):
    assert brute_force(w_max, table=table) == _oracle_brute_force(w_max,
                                                                  table)


@pytest.mark.parametrize("uvw", [(1, 2, 3), (2, 3, 10), (3, 4, 50),
                                 (5, 6, 7), (4, 9, 400), (30, 31, 2000)])
def test_brute_force_finds_planted_triples_at_the_ends_of_the_u_range(uvw):
    # with w = w_max, u = (b - 1)/w_max is the lower end of the range
    # u runs over; with v = u + 1, u = isqrt(a - 2) is the upper end
    u, v, w = uvw
    table = ListTable([0, 0, 1, 1] + sorted({u * v + 1, u * w + 1,
                                             v * w + 1}))
    xyz = verify_triple(u, v, w, table)
    assert xyz is not None
    for w_max in (w - 1, w, w + 1, 3 * w):
        found = brute_force(w_max, table=table)
        assert found == _oracle_brute_force(w_max, table)
        assert (TripleCandidate(*xyz, u, v, w) in found) == (w <= w_max)


def test_brute_force_takes_every_u_of_one_partner_set():
    # u = 1 has partners 2, 4 and 8, each pair of which closes a triple,
    # and (2, 4, 8) closes one as well
    table = ListTable([0, 0, 1, 1, 3, 5, 9, 17, 33])
    want = [TripleCandidate(4, 5, 6, 1, 2, 4),
            TripleCandidate(4, 6, 7, 1, 2, 8),
            TripleCandidate(5, 6, 8, 1, 4, 8),
            TripleCandidate(6, 7, 8, 2, 4, 8)]
    assert brute_force(8, table=table) == want
    assert brute_force(7, table=table) == want[:1]
    assert _oracle_brute_force(8, table) == want


def test_brute_force_reads_several_u_off_one_gcd():
    # on 2**k + 1, g = gcd(a - 1, b - 1) is a power of 2 with many divisors,
    # and one pair of values (indices x, y) gives a triple for several u
    table = ListTable([0, 0, 1, 1] + [2 ** k + 1 for k in range(1, 24)])
    for w_max in (2 ** 10 - 1, 2 ** 10, 2 ** 10 + 1):
        found = brute_force(w_max, table=table)
        assert found == _oracle_brute_force(w_max, table)
    per_pair = Counter((c.x, c.y) for c in found)
    assert max(per_pair.values()) >= 3
    assert max(c.w for c in found) == 2 ** 10


@_props
@given(synthetic_tables(),
       st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=1,
                max_size=8))
def test_search_is_a_prefix_in_z_and_a_sweep_matches_separate_runs(
        table, asks):
    # results come ordered by z, so search(a) is the z <= a part of
    # search(b) for a <= b; one sweep asked for both flags in any order
    # answers each like the oracle
    z_top = len(table.vals) - 1
    full = {prune: search(z_top, prune, table=table)
            for prune in (False, True)}
    sweep = SearchSweep(table)
    for z_max, prune in asks:
        z_max = min(z_max, z_top)
        want = _oracle_search(z_max, prune, table)
        assert [c for c in full[prune] if c.z <= z_max] == want
        assert sweep.upto(z_max, prune) == want


def test_a_sweep_shared_between_threads_searches_each_z_once(monkeypatch):
    # more threads than cores and a short switch interval; a lost update of
    # the sweep would search some z twice or hand back a duplicate
    table = ListTable([0, 0, 1, 1] + [2 ** k + 1 for k in range(1, 26)])
    z_top = len(table.vals) - 1
    full = {prune: _oracle_search(z_top, prune, table)
            for prune in (False, True)}
    asks = [(z, prune) for z in range(7, z_top + 1) for prune in (False, True)]
    runs = Counter()
    search_at = triples._search_at

    def counted(z, *args):
        runs[z] += 1
        return search_at(z, *args)
    monkeypatch.setattr(triples, "_search_at", counted)
    sweep = SearchSweep(table)
    wrong = []
    start = threading.Barrier(6)

    def ask_all(seed):
        start.wait(timeout=60)
        order = asks[:]
        random.Random(seed).shuffle(order)
        for z_max, prune in order:
            if sweep.upto(z_max, prune) != [c for c in full[prune]
                                            if c.z <= z_max]:
                wrong.append((seed, z_max, prune))

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
    assert runs == {z: 1 for z in range(7, z_top + 1)}
