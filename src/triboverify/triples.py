"""Search for triples u < v < w with uv+1, uw+1, vw+1 all in the sequence.

Two independent strategies over a finite range, expected to agree (and, for
the real sequence, to agree on emptiness):

* ``search`` enumerates index triples x < y < z and inverts the defining
  equations: a valid triple forces u = sqrt((T_x-1)(T_y-1)/(T_z-1)) and
  cyclically, so integrality of those square roots decides everything.
* ``brute_force`` enumerates pairs of sequence values a < b: a valid
  triple has a = uv + 1 and b = uw + 1, so u divides gcd(a - 1, b - 1) and
  is read off its divisors; membership of v*w + 1 decides the rest.

For each pair y < z, ``search`` starts x at the larger of two lower bounds
and never tests an index below it:

* x >= max(5, z - y + 1): (T_z-1) divides (T_x-1)(T_y-1), a nonzero
  multiple is at least its modulus, and the growth bounds turn that into
  x + y > z.
* with the reduced modulus m = (T_z-1) / g, g = gcd(T_y-1, T_z-1),
  (T_z-1) | (T_x-1)(T_y-1) holds exactly when m | (T_x-1); a positive
  multiple of m is at least m, so x starts at the first index with
  T_x - 1 >= m, found by bisection.  When g * (T_(y-1) - 1) < T_z - 1 no
  x < y gets there, and the pair is dropped before any division: for
  z <= 1000 that leaves 1247 of 248,995 pairs.

Most pairs are dropped without a gcd of their own.  For each z, with
b = T_z - 1, one gcd G = gcd(b, p) is taken, where p is the product of the
T_y - 1 over every y the loop visits, reduced mod b.  p comes from aligned
blocks: beside tm[n] = T_n - 1, row k keeps the product of
tm[i * 2**k : (i + 1) * 2**k] for each complete block, and the window of
the loop is covered by at most two blocks per row, about 2 log2 z in all,
each reduced mod b and multiplied in: O(log z) reductions, not one per y.
Every window starts at index 6 or above, so no block over the entries
-1, -1, 0, 0 at indices 0-3 is ever read.  Each pair's g divides
both b and p, so it divides G, and g * (T_(y-1) - 1) <= G * (T_(y-1) - 1).
Every y with G * (T_(y-1) - 1) < b is therefore dead, and since the table
does not decrease these y form a prefix of the loop, found by one
bisection for the first T_(y-1) - 1 >= ceil(b / G).  Only the y after it
take their own gcd.  When the product shares a large factor with b, G is
b and nothing is skipped, so the screen never changes the answer.  For
z <= 200 it leaves 1772 gcds of 9795, and for z <= 1000 14,295 of 248,995.

Each x left in the range is then tested by m | (T_x-1), and every survivor
still goes through ``uvw_from_xyz`` and its exact checks.

The optional gcd prune, x >= ceil(z/4) - 2 for z >= 12, is a filter on
the candidates of that one search.  On a table that is non-decreasing from
index 5, cutting the bisection's range at the floor f leaves exactly the
x >= f of the uncut range, so the filter gives what a pruned search would.
For every z <= 1000 the floor lies at least 10 below the start of each
pair's range with an index left to test (closest at (y, z) = (15, 18)), so
the prune never narrows the search there; a test checks every pair.

Results come ordered by z, so ``search(a)`` is the z <= a prefix of
``search(b)``.  ``SearchSweep`` keeps a search between calls on that
account, and ``search`` shares one sweep of the default table within a
process: a run of calls, for both prune flags, costs one search at the
largest z_max asked.  That sweep holds T_n - 1 for n up to that z_max, the
block rows over them (about 0.53 MB of ints in all at z = 1000, 0.44 MB of
it in blocks; 26 kB at z = 200) and the candidates, none for the real
sequence.

``brute_force`` reads the sequence once into a sorted list of distinct
values.  For a pair a < b of them, u runs over the divisors of
g = gcd(a - 1, b - 1), by trial division up to isqrt(g), that satisfy
u < v = (a - 1)/u and w = (b - 1)/u <= w_max, that is
ceil((b - 1)/w_max) <= u <= isqrt(a - 2).  No divisor of g exceeds g, so a
pair with g below that lower end skips the trial division.  The work is
one gcd per pair plus isqrt(g) per pair whose g reaches the range, not one
step per u <= w_max: the real sequence has about 45 values up to 10**12,
and at w_max = 10**5 155 of its 303 pairs need trial division.

Both entry points accept an alternative sequence table so that structural
properties (agreement of the two strategies, behavior on planted solutions)
can be exercised against synthetic data.  Bisection and slicing assume that
the table's values are non-decreasing from index 5 on, as the real sequence
is; an alternative table must be too.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import gcd, isqrt
from typing import NamedTuple

from .tribonacci import TribTable, default_table


class TripleCandidate(NamedTuple):
    """A surviving candidate: indices x < y < z and values u < v < w with
    uv + 1 = T_x, uw + 1 = T_y, vw + 1 = T_z."""

    x: int
    y: int
    z: int
    u: int
    v: int
    w: int


def _exact_sqrt_ratio(num: int, den: int) -> int | None:
    """Integer square root of num/den when that quotient is a perfect
    square, else None."""
    if num % den:
        return None
    q = num // den
    r = isqrt(q)
    return r if r * r == q else None


def uvw_from_xyz(x: int, y: int, z: int,
                 table: TribTable | None = None) -> tuple[int, int, int] | None:
    """Invert uv+1 = T_x, uw+1 = T_y, vw+1 = T_z for given indices.

    Returns (u, v, w) when all three square roots are integers and positive,
    with the defining products re-verified exactly; otherwise None.
    """
    if not 4 <= x < y < z:
        raise ValueError("need 4 <= x < y < z")
    t = table or default_table()
    tx, ty, tz = t.value(x) - 1, t.value(y) - 1, t.value(z) - 1
    u = _exact_sqrt_ratio(tx * ty, tz)
    if not u:
        return None
    v = _exact_sqrt_ratio(tx * tz, ty)
    if not v:
        return None
    w = _exact_sqrt_ratio(ty * tz, tx)
    if not w:
        return None
    if not (u * v == tx and u * w == ty and v * w == tz and u < v < w):
        return None
    return u, v, w


def admissible(x: int, y: int, z: int, use_gcd_prune: bool = False) -> bool:
    """Index filter: 5 <= x < y < z, x + y > z, and optionally the gcd-bound
    floor x >= ceil(z/4) - 2 for z >= 12."""
    if not (5 <= x < y < z and x + y > z):
        return False
    if use_gcd_prune and z >= 12 and x < -(-z // 4) - 2:
        return False
    return True


def verify_triple(u: int, v: int, w: int,
                  table: TribTable | None = None
                  ) -> tuple[int, int, int] | None:
    """Indices (x, y, z) with uv+1 = T_x, uw+1 = T_y, vw+1 = T_z, membership
    decided by bisection of the exact table; None if any product misses the
    sequence.  Duplicated values resolve to the smallest index."""
    if not 1 <= u < v < w:
        raise ValueError("need 1 <= u < v < w")
    t = table or default_table()
    x = t.first_index(u * v + 1)
    if x is None:
        return None
    y = t.first_index(u * w + 1)
    if y is None:
        return None
    z = t.first_index(v * w + 1)
    if z is None:
        return None
    return x, y, z


def _x_range(y: int, z: int, tm: list[int]) -> tuple[range, int] | None:
    """The indices x that ``search`` tests against the pair y < z, and the
    reduced modulus m that T_x - 1 must be a multiple of; tm[n] = T_n - 1.
    None when the pair is dead: with g = gcd(T_y - 1, T_z - 1),
    g * (T_(y-1) - 1) < T_z - 1 says that no x < y reaches m = (T_z - 1)/g,
    so the pair costs one gcd and no division.

    The range starts at the larger of max(5, z - y + 1) and the first x with
    T_x - 1 >= m, and ends below y.
    """
    g = gcd(tm[y], tm[z])
    if g * tm[y - 1] < tm[z]:
        return None
    m = tm[z] // g
    return range(bisect_left(tm, m, max(5, z - y + 1), y), y), m


def _add_blocks(rows: list[list[int]]) -> None:
    """Bring the block rows up to date with rows[0] = tm: row k holds the
    product of tm[i * 2**k : (i + 1) * 2**k] for each complete block, so
    len(tm) >> k entries.  Only the blocks completed since the last call are
    multiplied, each from the two halves one row below."""
    k = 1
    while len(rows[k - 1]) >= 2:
        if k == len(rows):
            rows.append([])
        below, row = rows[k - 1], rows[k]
        row += [below[2 * i] * below[2 * i + 1]
                for i in range(len(row), len(below) // 2)]
        k += 1


def _window_residue(rows: list[list[int]], lo: int, hi: int, b: int) -> int:
    """The product of tm[lo:hi] mod b from the aligned blocks that cover
    [lo, hi), at most two per row: each block is reduced mod b before it is
    multiplied in.  Only blocks inside the window are read."""
    p, k = 1 % b, 0
    while lo < hi:
        row = rows[k]
        if lo & 1:
            p = p * (row[lo] % b) % b
            lo += 1
        if hi & 1:
            hi -= 1
            p = p * (row[hi] % b) % b
        lo, hi, k = lo >> 1, hi >> 1, k + 1
    return p


def _search_at(z: int, rows: list[list[int]],
               t: TribTable) -> list[TripleCandidate]:
    """The candidates with this z, without the gcd prune, ordered by
    (y, x); rows are the block rows of ``_add_blocks`` over
    tm[n] = T_n - 1 for n <= z."""
    out = []
    tm = rows[0]
    # for y <= (z + 1) / 2 no x < y has x + y > z
    lo, b = max(6, (z + 3) // 2), tm[z]
    # every pair's gcd(T_y - 1, b) divides gcd(b, p), so each y with
    # gcd(b, p) * (T_(y-1) - 1) < b is dead: those y form a prefix
    c = -(-b // gcd(b, _window_residue(rows, lo, z, b)))
    for y in range(bisect_left(tm, c, lo - 1, z - 1) + 1, z):
        live = _x_range(y, z, tm)
        if live is None:
            continue
        xs, m = live
        for x in xs:
            if tm[x] % m:
                continue
            uvw = uvw_from_xyz(x, y, z, t)
            if uvw is not None:
                out.append(TripleCandidate(x, y, z, *uvw))
    return out


class SearchSweep:
    """``search`` for one table and both prune flags, kept between calls.

    ``upto(z_max, use_gcd_prune)`` searches only the z beyond the highest it
    has done, without the prune, and answers by filtering: candidates beyond
    z_max go, and with the prune on so do those below its floor.  A run of
    calls in any order and with either flag costs one search at the largest
    z_max asked.  It keeps tm[n] = T_n - 1 up to that z_max, the rows of
    aligned block products over tm that each z's screen reads its product
    from (``_add_blocks``; 0.53 MB of ints in all at z = 1000, 26 kB at
    z = 200), and the candidates found.  Extension appends only the
    entries and blocks completed since the last, and holds a lock; reads of
    what is done do not.
    """

    def __init__(self, table: TribTable | None = None):
        self._t = table or default_table()
        self._rows: list[list[int]] = [[]]
        self._found: list[TripleCandidate] = []
        self._z_done = 6
        self._lock = threading.Lock()

    def upto(self, z_max: int,
             use_gcd_prune: bool = False) -> list[TripleCandidate]:
        """All candidates with z <= z_max, ordered by (z, y, x)."""
        if z_max > self._z_done:
            with self._lock:
                tm = self._rows[0]
                tm.extend(self._t.value(n) - 1
                          for n in range(len(tm), z_max + 1))
                _add_blocks(self._rows)
                for z in range(self._z_done + 1, z_max + 1):
                    self._found += _search_at(z, self._rows, self._t)
                    self._z_done = z
        return [c for c in self._found
                if c.z <= z_max and admissible(c.x, c.y, c.z, use_gcd_prune)]


# the sweep that search shares within a process for the default table
_DEFAULT_SWEEP = SearchSweep()


def search(z_max: int, use_gcd_prune: bool = False,
           table: TribTable | None = None) -> list[TripleCandidate]:
    """All candidates with z <= z_max, ordered by (z, y, x).

    Without a table this extends and filters the one ``SearchSweep`` of the
    default table, so within a process each z is searched once for both
    prune flags; an explicit table gets a fresh sweep.  For the real
    sequence this comes back empty; the route to that emptiness (with or
    without the gcd prune) must not change the answer.
    """
    sweep = _DEFAULT_SWEEP if table is None else SearchSweep(table)
    return sweep.upto(z_max, use_gcd_prune)


def _divisors_between(g: int, lo: int, hi: int) -> list[int]:
    """The divisors u of g >= 1 with lo <= u <= hi, by trial division up to
    isqrt(g)."""
    out = []
    for d in range(1, isqrt(g) + 1):
        if g % d == 0:
            out += [u for u in {d, g // d} if lo <= u <= hi]
    return out


def brute_force(w_max: int,
                table: TribTable | None = None) -> list[TripleCandidate]:
    """All triples with w <= w_max, found from the value side.

    For each pair of distinct sequence values a < b, each u in
    ``_divisors_between(gcd(a - 1, b - 1), ceil((b - 1)/w_max),
    isqrt(a - 2))`` gives u < v = (a - 1)/u < w = (b - 1)/u <= w_max, and
    every such (u, v, w) arises from exactly one pair and one u; it survives
    when v*w + 1 is in the sequence.  A pair whose gcd lies below
    ceil((b - 1)/w_max) is passed over without trial division, since no
    divisor of the gcd reaches that bound.  Results are ordered by
    (z, y, x) to align with ``search``.
    """
    if w_max < 3:
        return []
    t = table or default_table()
    # a repeated value would yield the same triple twice; a = uv + 1 >= 3
    vals = list(dict.fromkeys(
        v for _, v in t.values_upto((w_max - 2) * w_max + 1) if v >= 3))
    out = []
    for i, a in enumerate(vals):
        hi = isqrt(a - 2)
        for b in vals[i + 1:]:
            lo = -(-(b - 1) // w_max)
            if lo > hi:
                break   # lo only grows with b
            g = gcd(a - 1, b - 1)
            if g < lo:
                continue    # no divisor of g reaches lo
            for u in _divisors_between(g, lo, hi):
                v, w = (a - 1) // u, (b - 1) // u
                if t.first_index(v * w + 1) is None:
                    continue
                xyz = verify_triple(u, v, w, t)
                if xyz is not None:
                    out.append(TripleCandidate(*xyz, u, v, w))
    out.sort(key=lambda c: (c.z, c.y, c.x, c.u))
    return out
