"""Fixed reference job that measures the host's current speed; imports no qmodular code.

The benchmark runs it in a fresh process between passes.  It mixes the
kinds of work the workloads do: exact big-integer multiply-adds over
lists, and a float loop with exp and powers, as in the quadrature.
"""

import math


def main() -> None:
    a = [(-1) ** k * (k * k + 1) ** 6 for k in range(500)]
    acc = 0
    for i in range(500):
        ai = a[i]
        for j in range(500 - i):
            acc += ai * a[j]
    total = 0.0
    for n in range(1, 80_000):
        total += math.exp(-n * 1e-4) * n**-1.5
    if acc == 0 or not total > 0.0:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
