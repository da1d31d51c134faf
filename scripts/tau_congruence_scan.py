#!/usr/bin/env python3
"""Scan tau congruences and print residue statistics.

Usage: python scripts/tau_congruence_scan.py [N_MAX]

For n up to N_MAX, tabulates how often tau(n) agrees with sigma_11(n)
modulo 691 (always), modulo 2^11 on the residue class n = 1 mod 8, and
how the Deligne margin |tau(p)| / 2 p^(11/2) distributes over primes.
"""

import sys

from qmodular import forms


def main() -> None:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 1000

    sigma_11 = forms.eisenstein_e12(n_max + 1).coeffs  # sigma_11(n) at index n
    mismatches_691 = [
        n for n in range(1, n_max + 1) if (forms.tau(n) - sigma_11[n]) % 691
    ]
    class_8 = range(1, n_max + 1, 8)
    mismatches_2048 = [n for n in class_8 if (forms.tau(n) - sigma_11[n]) % 2048]
    print(f"n <= {n_max}")
    print(f"  mod 691 mismatches: {len(mismatches_691)} {mismatches_691[:5]}")
    print(f"  mod 2^11 on n=1(8): {len(mismatches_2048)} of {len(class_8)} checked")

    margins = []
    for p in forms.primes_up_to(n_max):
        margins.append((abs(forms.tau(p)) / (2.0 * p**5.5), p))
    margins.sort(reverse=True)
    print("  largest Deligne ratios |tau(p)| / 2p^(11/2):")
    for ratio, p in margins[:8]:
        print(f"    p={p:5d}  ratio={ratio:.6f}")


if __name__ == "__main__":
    main()
