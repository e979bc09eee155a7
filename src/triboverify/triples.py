"""Search for triples u < v < w with uv+1, uw+1, vw+1 all in the sequence.

Two independent strategies over a finite range, expected to agree (and, for
the real sequence, to agree on emptiness):

* ``search`` enumerates index triples x < y < z and inverts the defining
  equations: a valid triple forces u = sqrt((T_x-1)(T_y-1)/(T_z-1)) and
  cyclically, so integrality of those square roots decides everything.
* ``brute_force`` enumerates u directly, reads candidate v, w off divisors
  shifted into the sequence, and checks membership of v*w + 1.

For each pair y < z, ``search`` starts x at the largest of three lower
bounds and never tests an index below it:

* x >= max(5, z - y + 1): (T_z-1) divides (T_x-1)(T_y-1), a nonzero
  multiple is at least its modulus, and the growth bounds turn that into
  x + y > z.
* with the optional gcd prune and z >= 12, x >= ceil(z/4) - 2.
* with the reduced modulus m = (T_z-1) / gcd(T_y-1, T_z-1),
  (T_z-1) | (T_x-1)(T_y-1) holds exactly when m | (T_x-1); a positive
  multiple of m is at least m, so x starts at the first index with
  T_x - 1 >= m, found by bisection.

Each x left in the range is then tested by m | (T_x-1), and every survivor
still goes through ``uvw_from_xyz`` and its exact checks.  ``brute_force``
reads the sequence once into a sorted list of distinct values and takes each
u's partner values as one slice of it.

Both entry points accept an alternative sequence table so that structural
properties (agreement of the two strategies, behavior on planted solutions)
can be exercised against synthetic data.  Bisection and slicing assume that
the table's values are non-decreasing from index 5 on, as the real sequence
is; an alternative table must be too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, isqrt

from .tribonacci import TribTable, default_table


@dataclass(frozen=True)
class TripleCandidate:
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


def _x_range(y: int, z: int, use_gcd_prune: bool,
             tm: list[int]) -> tuple[range, int]:
    """The indices x that ``search`` tests against the pair y < z, and the
    reduced modulus m that T_x - 1 must be a multiple of; tm[n] = T_n - 1.

    The range starts at the largest of max(5, z - y + 1), the gcd prune's
    floor (when on) and the first x with T_x - 1 >= m, and ends below y.
    """
    lo = max(5, z - y + 1)
    if use_gcd_prune and z >= 12:
        lo = max(lo, -(-z // 4) - 2)
    m = tm[z] // gcd(tm[y], tm[z])
    return range(bisect_left(tm, m, lo, y), y), m


def search(z_max: int, use_gcd_prune: bool = False,
           table: TribTable | None = None) -> list[TripleCandidate]:
    """All candidates with z <= z_max, ordered by (z, y, x).

    For the real sequence this comes back empty; the route to that emptiness
    (with or without the gcd prune) must not change the answer.
    """
    if z_max < 7:
        return []
    t = table or default_table()
    tm = [t.value(n) - 1 for n in range(z_max + 1)]
    out = []
    for z in range(7, z_max + 1):
        # for y <= (z + 1) / 2 no x < y has x + y > z
        for y in range(max(6, (z + 3) // 2), z):
            xs, m = _x_range(y, z, use_gcd_prune, tm)
            for x in xs:
                if tm[x] % m:
                    continue
                uvw = uvw_from_xyz(x, y, z, t)
                if uvw is not None:
                    out.append(TripleCandidate(x, y, z, *uvw))
    return out


def brute_force(w_max: int,
                table: TribTable | None = None) -> list[TripleCandidate]:
    """All triples with w <= w_max, found from the value side.

    For each u, candidate partners are (T - 1)/u over sequence values
    u*u + 1 < T <= u*w_max + 1 with u | T - 1; pairs of partners v < w
    survive when v*w + 1 is in the sequence.  Results are ordered by
    (z, y, x) to align with ``search``.
    """
    if w_max < 3:
        return []
    t = table or default_table()
    # a repeated value would yield the same partner twice
    vals = list(dict.fromkeys(
        v for _, v in t.values_upto((w_max - 2) * w_max + 1)))
    out = []
    for u in range(1, w_max - 1):
        partners = [(val - 1) // u
                    for val in vals[bisect_right(vals, u * u + 1):
                                    bisect_right(vals, u * w_max + 1)]
                    if (val - 1) % u == 0]
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
