"""Why two shifted sequence values cannot share a huge gcd.

Every pair (y, z) gets the headline inequality gcd(T_y-1, T_z-1) <
alpha^(3z/4) from the prop1 battery's generator, ``prop1_results``.  Every
pair with y >= 5 gets an exact norm certificate from the norms battery's
generator, ``norm_witnesses``: the integer norm of
eta = alpha^(z-y) (T_y-1) - (T_z-1) is a nonzero multiple of gcd^3.  A
sample of close pairs gets certified magnitude bounds on eta's real and
complex embeddings from ``factor_bounds``.

Run:  python3 demos/gcd_bounds.py [z_max]
"""

import sys

from triboverify.gcdbound import (factor_bounds, norm_witness,
                                  norm_witnesses, prop1_results,
                                  regime_sample)


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

    print(f"\nevery pair to z = {z_max}:")
    results = list(prop1_results(z_max))
    headline = sum(not ok for _, _, _, ok in results)
    witnesses = list(norm_witnesses(z_max))  # raises IntegrityError on a fault
    tight = [(w.y, w.z) for w in witnesses if w.tight]
    sample = regime_sample(z_max, 50)
    deep = sum(not factor_bounds(y, z).ok for y, z in sample)
    print(f"  pairs checked: {len(results)}, "
          f"norm certificates: {len(witnesses)}, "
          f"embedding bounds: {len(sample)} sampled pairs")
    print(f"  failures: {headline} headline, {deep} embedding")
    print(f"  tight pairs: {tight or '(none)'}")
    print(f"  verdict: "
          f"{'all bounds hold' if headline == deep == 0 else 'FAILED'}")

    print(f"\nlargest gcd over the range: "
          f"{max(d for _, _, d, _ in results)}")


if __name__ == "__main__":
    main()
