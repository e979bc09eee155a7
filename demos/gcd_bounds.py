"""Why two shifted sequence values cannot share a huge gcd.

Every pair (y, z) gets the headline inequality gcd(T_y-1, T_z-1) <
alpha^(3z/4); close pairs additionally get an exact norm certificate for
eta = alpha^(z-y) (T_y-1) - (T_z-1), whose integer norm is a nonzero
multiple of gcd^3, and certified magnitude bounds at all six embeddings.

Run:  python3 demos/gcd_bounds.py [z_max]
"""

import sys

from triboverify.gcdbound import (factor_bounds, gcd_shifted, index_pairs,
                                  norm_witness, sweep)


def main() -> None:
    z_max = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    print("the tight pair (6, 7): every drop of slack is used")
    w = norm_witness(6, 7)
    print(f"  gcd(T_6-1, T_7-1) = {w.d}")
    print(f"  eta coordinates: {tuple(str(c) for c in w.eta.coords)}")
    print(f"  integer norm = {w.norm3_value}, gcd^3 = {w.d ** 3}, "
          f"tight = {w.tight}")

    print("\na slack pair (5, 7):")
    w = norm_witness(5, 7)
    print(f"  norm = {w.norm3_value} = {w.norm3_value // w.d ** 3} "
          f"* {w.d}^3")

    y, z = 18, 20
    fb = factor_bounds(y, z)
    print(f"\nembedding magnitudes at (y, z) = ({y}, {z}):")
    print(f"  real embeddings:    |eta| in [{float(fb.real_abs.lo):.6f}, "
          f"{float(fb.real_abs.hi):.6f}]  (bound 1.3*alpha^(z/4))")
    print(f"  complex embeddings: |eta| in [{float(fb.complex_abs.lo):.6f}, "
          f"{float(fb.complex_abs.hi):.6f}]  (bound 0.6*alpha^z)")

    print(f"\nfull sweep to z = {z_max}:")
    rep = sweep(z_max, deep_samples=50)
    print(f"  pairs checked: {rep.pairs_checked}, "
          f"chain checks: {rep.chain_checked}, "
          f"deep certificates: {rep.deep_checked}")
    print(f"  failures: {len(rep.prop1_failures)} headline, "
          f"{len(rep.chain_failures)} chain, {len(rep.deep_failures)} deep")
    print(f"  tight pairs seen: {rep.tight_pairs or '(none sampled)'}")
    print(f"  verdict: {'all bounds hold' if rep.all_ok else 'FAILED'}")

    print(f"\nlargest gcd over the range: "
          f"{max(gcd_shifted(y, z) for y, z in index_pairs(z_max))}")


if __name__ == "__main__":
    main()
