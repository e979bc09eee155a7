"""The sequence T_0 = T_1 = 0, T_2 = 1, T_{n+3} = T_{n+2} + T_{n+1} + T_n.

Values are served from an append-only memo table.  The sequence never
decreases, so membership is one bisection of that table, grown until its
last value reaches the query: exact integers throughout, no enclosure.

The same table gives the power sums s_p = alpha**p + beta**p + gamma**p of
the three roots, which are integers (``alpha_power_trace``).  Since
|beta| = |gamma| = alpha**(-1/2), alpha**p lies within 1 of s_p for p >= 3,
so ``cmp_alpha_power_trace`` compares alpha**p with an integer in integers,
and needs an enclosure only when the integer is s_p itself.  The growth
battery decides alpha**(n-3) <= T_n <= alpha**(n-2) that way
(``verify_growth_trace``); ``constants.verify_growth`` decides it on
enclosures of alpha**p, and the record checker takes that route.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right

from .constants import (_GREATER, _LESS, DEFAULT_PRECISION, MAX_PRECISION,
                        Cmp, GrowthReport, beta_power, cmp_alpha_power)
from .enclosure import PrecisionFailure, precision_ladder


class TribTable:
    """Thread-safe cache of sequence values.

    Reads of already-computed prefixes take no lock; extension is serialized.
    """

    def __init__(self):
        self._vals = [0, 0, 1]
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._vals)

    def extend_to(self, n: int) -> list[int]:
        """The table's own list of values, T_0 .. T_m with m >= n.

        The list is append-only and callers only read it: T_k is its
        entry k.  The lock is taken only when the list is short of n.
        """
        v = self._vals
        if len(v) <= n:
            with self._lock:
                while len(v) <= n:
                    v.append(v[-1] + v[-2] + v[-3])
        return v

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("index must be >= 0")
        if n >= len(self._vals):
            self.extend_to(n)
        return self._vals[n]

    def values_upto(self, bound: int) -> list[tuple[int, int]]:
        """All (n, T_n) with T_n <= bound, in index order."""
        self.first_index(bound + 1)
        v = self._vals
        return list(enumerate(v[:bisect_right(v, bound)]))

    def first_index(self, value: int) -> int | None:
        """Smallest n with T_n = value, or None.

        T_n never decreases, so the first n with T_n >= value decides.  The
        only value taken twice (beyond the leading zeros) is 1, at indices 2
        and 3; the smallest index wins, so 1 maps to 2 and 0 to 0.
        """
        v = self._vals
        if v[-1] < value:
            with self._lock:
                while v[-1] < value:
                    v.append(v[-1] + v[-2] + v[-3])
        n = bisect_left(v, value)
        return n if v[n] == value else None


_TABLE = TribTable()


def default_table() -> TribTable:
    return _TABLE


def trib(n: int) -> int:
    """T_n from the shared memo table."""
    return _TABLE.value(n)


def alpha_power_trace(p: int) -> int:
    """s_p = alpha**p + beta**p + gamma**p, read from the shared table.

    The power sums follow the sequence's recurrence from s_0 = 3, s_1 = 1,
    s_2 = 3 (Newton's identities), which in this indexing makes
    s_p = 3*T_(p+2) - 2*T_(p+1) - T_p (Spickerman, Fibonacci Quart. 20,
    1982).
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    v = _TABLE.extend_to(p + 2)
    return 3 * v[p + 2] - 2 * v[p + 1] - v[p]


def cmp_alpha_power_trace(p: int, n: int,
                          precision_bits: int = DEFAULT_PRECISION,
                          max_precision_bits: int = MAX_PRECISION) -> Cmp:
    """Certified comparison of alpha**p against the integer n, for p >= 3.

    alpha**p = s_p - 2*Re(beta**p) with s_p = ``alpha_power_trace(p)``, and
    2*|beta|**p = 2*alpha**(-p/2) < 0.81 for p >= 3, so every n other than
    s_p is decided in integers.  For n = s_p, alpha**p > n exactly when
    Re(beta**p) < 0, which is never 0 because alpha**p is irrational; the
    sign is read from ``beta_power`` up the precision ladder, and a sign
    still unresolved at the cap raises PrecisionFailure.
    """
    if p < 3:
        raise ValueError("p must be >= 3")
    s = alpha_power_trace(p)
    if n < s:
        return _GREATER
    if n > s:
        return _LESS
    for bits in precision_ladder(precision_bits, max_precision_bits):
        re = beta_power(p, bits).re
        if re.is_negative():
            return _GREATER
        if re.is_positive():
            return _LESS
    raise PrecisionFailure(
        f"cmp_alpha_power_trace({p}, {n}): sign of Re(beta**{p}) "
        f"unresolved at {max_precision_bits} bits")


def verify_growth_trace(n_max: int, precision_bits: int = DEFAULT_PRECISION,
                        max_precision_bits: int = MAX_PRECISION
                        ) -> GrowthReport:
    """The report of ``constants.verify_growth``, alpha**(n-3) <= T_n <=
    alpha**(n-2) for 2 <= n <= n_max, with both bounds decided by power
    sums (``cmp_alpha_power_trace``) from n = 6 on, where n - 3 >= 3, and
    by ``cmp_alpha_power`` below.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    failures = []
    for n in range(2, n_max + 1):
        t = trib(n)
        cmp = cmp_alpha_power_trace if n >= 6 else cmp_alpha_power
        if cmp(n - 3, t, precision_bits, max_precision_bits) == _GREATER:
            failures.append((n, "lower"))
        if cmp(n - 2, t, precision_bits, max_precision_bits) == _LESS:
            failures.append((n, "upper"))
    return GrowthReport(n_max, n_max - 1, tuple(failures))


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3))


def trib_fast(n: int) -> int:
    """T_n by 3x3 matrix powering; independent of the memo table, used to
    cross-check it."""
    if n < 0:
        raise ValueError("index must be >= 0")
    m = ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    r = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e = n
    while e:
        if e & 1:
            r = _mat_mul(r, m)
        m = _mat_mul(m, m)
        e >>= 1
    return r[2][0]


def is_tribonacci(value: int) -> int | None:
    """Smallest index n with T_n = value, or None if value never occurs."""
    return _TABLE.first_index(value)
