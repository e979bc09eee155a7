"""Walk the sequence engine: values, growth envelope, membership.

Run:  python3 demos/sequence_growth.py [n_max]
"""

import sys

from triboverify.constants import verify_growth
from triboverify.tribonacci import is_tribonacci, trib, trib_fast


def main() -> None:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 25

    print("first values:")
    print(" ", ", ".join(str(trib(n)) for n in range(n_max + 1)))

    n = 10 * n_max
    assert trib_fast(n) == trib(n)
    print(f"\n3x3 matrix powering agrees with the table at n={n}:")
    print(f"  T_{n} = {trib_fast(n)}")

    rep = verify_growth(2 * n_max)
    print(f"\ngrowth envelope alpha^(n-3) <= T_n <= alpha^(n-2) "
          f"for 2 <= n <= {rep.n_max}: "
          f"{'holds' if rep.all_ok else rep.failures}")

    print("\nmembership probes:")
    for v in (81, 82, 66012, trib(100), trib(100) - 1):
        idx = is_tribonacci(v)
        verdict = f"T_{idx}" if idx is not None else "not in the sequence"
        print(f"  {v} -> {verdict}")


if __name__ == "__main__":
    main()
