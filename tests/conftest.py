"""Shared brute-force oracles, kept independent of the library internals.

Everything here recomputes expected values from first principles with
naive algorithms (dense polynomial products, explicit partition
enumeration, lattice scans), so library results are checked against a
second, slower route rather than against themselves.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest


# -- naive polynomial arithmetic (dense int lists, no library code) -----------


def poly_mul(a: list, b: list, order: int) -> list:
    out = [0] * order
    for i, av in enumerate(a[:order]):
        if av:
            for j, bv in enumerate(b[: order - i]):
                if bv:
                    out[i + j] += av * bv
    return out


def dense_product_one_minus_qn(exponent: int, order: int) -> list:
    """prod_{n=1}^{order-1} (1 - q^n)^exponent by repeated dense products."""
    assert exponent >= 0
    acc = [1] + [0] * (order - 1)
    for n in range(1, order):
        factor = [0] * order
        factor[0] = 1
        if n < order:
            factor[n] = -1
        for _ in range(exponent):
            acc = poly_mul(factor, acc, order)  # sparse factor drives the loop
    return acc


def naive_inverse(coeffs: list, order: int) -> list[Fraction]:
    """Series inverse by the textbook recurrence, exact Fractions."""
    a = [Fraction(c) for c in coeffs[:order]] + [Fraction(0)] * max(
        0, order - len(coeffs)
    )
    assert a[0] != 0
    b = [1 / a[0]] + [Fraction(0)] * (order - 1)
    for k in range(1, order):
        b[k] = -b[0] * sum(a[i] * b[k - i] for i in range(1, k + 1))
    return b


# -- partitions ---------------------------------------------------------------


def enumerate_partitions(n: int, max_part: int | None = None):
    """Yield every partition of n as a weakly decreasing tuple."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


def partition_count_by_enumeration(n: int) -> int:
    return sum(1 for _ in enumerate_partitions(n))


def partition_counts_by_pentagonal_recurrence(n_max: int) -> list[int]:
    """p(0) .. p(n_max) by Euler's pentagonal-number recurrence.

    p(m) = sum_{k>=1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)),
    with p of a negative argument read as zero.
    """
    p = [1]
    for m in range(1, n_max + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def rank_counts_by_enumeration(n: int) -> dict[int, int]:
    """N(n, m) by listing partitions and taking largest part minus parts."""
    out: dict[int, int] = {}
    for part in enumerate_partitions(n):
        m = part[0] - len(part)
        out[m] = out.get(m, 0) + 1
    return out


def rank_entries_by_triple_loop(n_max: int) -> dict[tuple[int, int], int]:
    """N(n, m) for n <= n_max by the per-element (part, n, k) DP.

    D[n][k] counts partitions of n into k parts each <= the current part
    bound l; the partitions with largest part exactly l and k parts are
    D[n - l][k - 1] once D holds bound l, and they have rank l - k.
    Every cell is updated one at a time and the counts go into a dict.
    """
    D = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    D[0][0] = 1
    entries: dict[tuple[int, int], int] = {}
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            row, prev = D[n], D[n - part]
            for k in range(1, n + 1):
                if prev[k - 1]:
                    row[k] += prev[k - 1]
        for n in range(part, n_max + 1):
            prev = D[n - part]
            for k in range(1, n + 1):
                c = prev[k - 1]
                if c:
                    key = (n, part - k)
                    entries[key] = entries.get(key, 0) + c
    return entries


# -- lattice counts -----------------------------------------------------------


def lattice_vectors_with_norm(k: int, m: int) -> int:
    """Number of integer k-vectors with squared norm exactly m."""
    if k == 0:
        return 1 if m == 0 else 0
    total = 0
    for v in range(-isqrt(m), isqrt(m) + 1):
        total += lattice_vectors_with_norm(k - 1, m - v * v)
    return total


def unary_theta_by_terms(eps, kappa: Fraction, order: int):
    """(offset, coeffs) of sum_{n>=1} 2 eps(n) n q^(kappa n^2), one term per n.

    Each exponent is the Fraction kappa n^2, and the window holds the
    ``order`` integer steps from the first term's exponent; None when a
    nonzero term in that window lies off the first term's lattice.
    """
    period = len(eps)
    first = next((n for n in range(1, period + 1) if eps[n % period]), None)
    if first is None:
        return 0, [0] * order
    offset = kappa * first * first
    coeffs = [0] * order
    n = first
    while kappa * n * n < offset + order:
        if eps[n % period]:
            step = kappa * n * n - offset
            if step.denominator != 1:
                return None
            coeffs[step.numerator] += 2 * eps[n % period] * n
        n += 1
    return offset, coeffs


# -- Hecke operators -------------------------------------------------------------


def naive_hecke(coeffs: list, offset: int, k: int, eps, n: int) -> list[Fraction]:
    """T_n by its defining formula on Fractions.

    ``coeffs[j]`` is the coefficient of q^(offset + j); the result holds
    the coefficients of q^0 .. q^(len(coeffs) // n - 1) of
    sum_{d | gcd(m, n)} eps(d) d^(k-1) a(m n / d^2).
    """

    def a(e: int) -> Fraction:
        return Fraction(0) if e < offset else Fraction(coeffs[e - offset])

    out = []
    for m in range(len(coeffs) // n):
        total = Fraction(0)
        for d in range(1, n + 1):
            if n % d == 0 and m % d == 0:
                total += eps(d) * Fraction(d) ** (k - 1) * a(m * n // (d * d))
        out.append(total)
    return out


# -- mock theta series ---------------------------------------------------------


def mock_theta_f_by_appell_lerch(order: int) -> list:
    """Ramanujan's f(q) to q^(order-1) from Watson's (1936) Appell-Lerch form.

    f(q) (q; q)_inf = 1 + 4 sum_{m>=1} (-1)^m q^(m(3m+1)/2) / (1 + q^m),
    with 1/(1 + q^m) written out as sum_j (-1)^j q^(mj) and 1/(q; q)_inf
    taken by the textbook inverse of the dense Euler product.
    """
    numer = [1] + [0] * (order - 1)
    m = 1
    while m * (3 * m + 1) // 2 < order:
        sign = 4 * (-1) ** m
        for e in range(m * (3 * m + 1) // 2, order, m):
            numer[e] += sign
            sign = -sign
        m += 1
    inv_euler = naive_inverse(dense_product_one_minus_qn(1, order), order)
    return poly_mul(numer, inv_euler, order)


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="session")
def tau_by_dense_convolution() -> list:
    """tau(1..11) from a fully dense product expansion (independent route)."""
    prod = dense_product_one_minus_qn(24, 11)
    return [None] + prod[:11]  # tau(n) = coefficient of q^(n-1) in the product


@pytest.fixture(scope="session")
def rank_entries_80() -> dict[tuple[int, int], int]:
    """N(n, m) for n <= 80 by the triple-loop DP (independent of the library)."""
    return rank_entries_by_triple_loop(80)


@pytest.fixture(scope="session")
def mock_f_by_appell_lerch_400() -> list:
    """f(q) to q^399 by the Appell-Lerch route (independent of the library)."""
    return mock_theta_f_by_appell_lerch(400)
