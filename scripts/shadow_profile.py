#!/usr/bin/env python3
"""Profile shadow size against cross-section eccentricity.

Usage: python scripts/shadow_profile.py [STEPS]

Sweeps the axis ratio f/e of a perimeter-matched elliptic section from
1 (circular, zero shadow) upward and reports the peak shadow sample
magnitude and the holomorphic coefficient for each ratio.
"""

import sys

from qmodular import geometry


def main() -> None:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    r_a = r_d = 1.0
    print(f"{'f/e':>6}  {'r_ref':>10}  {'c_hol':>10}  {'max|shadow|':>12}")
    for i in range(steps + 1):
        ratio = 1.0 + 0.25 * i
        term = geometry.torus_term(r_a, r_d, 1.0, ratio, 256)
        peak = max(abs(s) for s in term.shadow_samples)
        print(
            f"{ratio:>6.2f}  {term.ellipse.r_ref:>10.6f}  "
            f"{term.c_hol:>10.6f}  {peak:>12.6f}"
        )


if __name__ == "__main__":
    main()
