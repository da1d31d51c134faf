"""Correctness gates for the benchmark, with their independent reference routes.

Every gate takes the bytes or data a pass produced and returns a list of
problems; an empty list means the output is correct.  The references are
computed here, in the benchmark's own code, by routes that share no code
with the library: J.C.P. Miller's power recurrence over Euler's
pentagonal series for eta-type products, and the Appell-Lerch form of
the mock theta series f(q).  They run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of the stdout of `qmodular verify all` at default bounds, recorded
# at the commit that introduced this benchmark.  The CLI documents that
# output as byte-deterministic, so any change to it is a failure.
VERIFY_ALL_SHA256 = "a678c908913cd995339e3197d7ee4d90ca6aeabdcaeea77cc1b8baca3239cc48"


# -- reference routes -----------------------------------------------------------


def pentagonal(n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k) below q^n (Euler's theorem)."""
    f = [0] * n
    f[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < n:
        sign = -1 if k % 2 else 1
        f[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 < n:
            f[k * (3 * k + 1) // 2] = sign
        k += 1
    return f


def euler_power(e: int, n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k)^e below q^n.

    Miller's recurrence for g = f^e: m g_m = sum_{k>=1} ((e+1)k - m) f_k g_{m-k},
    with f the pentagonal series; every division is exact.
    """
    f = pentagonal(n)
    support = [k for k in range(1, n) if f[k]]
    g = [0] * n
    g[0] = 1
    for m in range(1, n):
        s = 0
        for k in support:
            if k > m:
                break
            s += ((e + 1) * k - m) * f[k] * g[m - k]
        q, r = divmod(s, m)
        if r:
            raise ArithmeticError(f"inexact division at m={m}")
        g[m] = q
    return g


def mock_theta_f(n: int) -> list[int]:
    """Coefficients of f(q) below q^n from its Appell-Lerch form.

    f(q) = (1 + 4 sum_{m>=1} (-1)^m q^(m(3m+1)/2) / (1 + q^m)) / (q; q)_inf,
    where dividing by (q; q)_inf solves against the sparse pentagonal series.
    """
    s = [0] * n
    s[0] = 1
    m = 1
    while m * (3 * m + 1) // 2 < n:
        c = 4 if m % 2 == 0 else -4
        e = m * (3 * m + 1) // 2
        while e < n:
            s[e] += c
            c, e = -c, e + m
        m += 1
    f = pentagonal(n)
    support = [k for k in range(1, n) if f[k]]
    g = [0] * n
    for i in range(n):
        acc = s[i]
        for k in support:
            if k > i:
                break
            acc -= f[k] * g[i - k]
        g[i] = acc
    return g


# -- gates ------------------------------------------------------------------------


def _laurent(lo: int, coeffs: list[int]) -> dict[int, int]:
    """Nonzero terms {exponent: coefficient} of a Laurent polynomial in w."""
    return {lo + j: c for j, c in enumerate(coeffs) if c}


def _series_problems(name: str, out: bytes, offset: int, want: list[int]) -> list[str]:
    try:
        obj = json.loads(out)
    except ValueError as exc:
        return [f"{name}: stdout is not JSON ({exc})"]
    problems = []
    if (obj.get("offset_num"), obj.get("offset_den")) != (offset, 1):
        problems.append(f"{name}: offset is {obj.get('offset_num')}/{obj.get('offset_den')}")
    if obj.get("order") != len(want):
        problems.append(f"{name}: order {obj.get('order')}, want {len(want)}")
    got = obj.get("coeffs", [])
    bad = [j for j, (c, w) in enumerate(zip(got, want)) if c != [w, 1]]
    if len(got) != len(want) or bad:
        first = bad[0] if bad else min(len(got), len(want))
        problems.append(f"{name}: coefficients differ from the reference, first at index {first}")
    return problems


def _rank_rows_problems(rows: dict[int, dict[int, int]], n_max: int, p: list[int]) -> list[str]:
    problems = []
    for n in range(1, n_max + 1):
        row = rows.get(n, {})
        if sum(row.values()) != p[n]:
            problems.append(f"rank row n={n} sums to {sum(row.values())}, want p(n)={p[n]}")
        if any(row.get(-m, 0) != c for m, c in row.items()):
            problems.append(f"rank row n={n} is not symmetric")
        if n >= 2 and any(abs(m) >= n for m in row):
            problems.append(f"rank row n={n} has a rank outside |m| < n")
    if set(rows) - set(range(1, n_max + 1)):
        problems.append("rank table has rows outside 1..n_max")
    return problems


def verify_all(out: bytes) -> list[str]:
    digest = hashlib.sha256(out).hexdigest()
    if digest != VERIFY_ALL_SHA256:
        return [f"verify all: stdout sha256 {digest[:16]}... differs from the recorded digest"]
    return []


class ExactSeriesRefs:
    """References for one `exact_series` input (order n, rank bound m)."""

    def __init__(self, n: int, m: int) -> None:
        self.n, self.m = n, m
        self.delta = euler_power(24, n)
        self.partitions = euler_power(-1, max(n, m + 1))
        self.mock = mock_theta_f(n)

    def expand_delta(self, out: bytes) -> list[str]:
        return _series_problems("expand delta", out, 1, self.delta)

    def expand_euler(self, out: bytes) -> list[str]:
        return _series_problems("expand euler--1", out, 0, self.partitions[: self.n])

    def expand_mock(self, out: bytes) -> list[str]:
        return _series_problems("expand mock-f", out, 0, self.mock)

    def verify_tau(self, out: bytes) -> list[str]:
        try:
            obj = json.loads(out)
        except ValueError as exc:
            return [f"verify tau: stdout is not JSON ({exc})"]
        checks = obj.get("checks", [])
        problems = []
        if obj.get("ok") is not True or not checks or not all(c.get("ok") for c in checks):
            problems.append("verify tau: a check did not report ok")
        if not any(c.get("check") == "tau-properties" and c.get("n_max") == self.n for c in checks):
            problems.append(f"verify tau: no tau-properties check at n_max={self.n}")
        return problems

    def tables_rank(self, out: bytes) -> list[str]:
        try:
            entries = json.loads(out)
        except ValueError as exc:
            return [f"tables rank: stdout is not JSON ({exc})"]
        rows: dict[int, dict[int, int]] = {}
        for e in entries:
            rows.setdefault(e["n"], {})[e["m"]] = e["count"]
        return _rank_rows_problems(rows, self.m, self.partitions)


class RankSeriesRefs:
    """References for one `rank_series` input (order n)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.partitions = euler_power(-1, n)
        self.mock = mock_theta_f(n)

    def check(self, out: bytes) -> list[str]:
        """Gate the JSON a `rank_series` worker prints (see worker.rank_pass)."""
        try:
            obj = json.loads(out)
        except ValueError as exc:
            return [f"rank pass: stdout is not JSON ({exc})"]
        n = self.n
        polys = [_laurent(lo, cs) for lo, cs in obj["polys"]]
        table = [_laurent(lo, cs) for lo, cs in obj["table"]]
        problems = []
        if len(polys) != n or len(table) != n - 1:
            return [f"rank pass: {len(polys)} coefficients and {len(table)} table rows for order {n}"]
        if polys[0] != {0: 1}:
            problems.append("rank pass: constant coefficient of R(w, q) is not 1")
        bad = [k for k in range(1, n) if polys[k] != table[k - 1]]
        if bad:
            problems.append(f"rank pass: R(w, q) differs from rank_table, first at n={bad[0]}")
        mock = [num if den == 1 else None for num, den in obj["mock"]]
        if obj["at_minus_one"] != mock:
            problems.append("rank pass: w=-1 specialization differs from mock_theta_f")
        if mock != self.mock:
            problems.append("rank pass: mock_theta_f differs from the Appell-Lerch reference")
        if obj["at_one"] != obj["p"]:
            problems.append("rank pass: w=1 specialization differs from partition_count")
        if obj["p"] != self.partitions:
            problems.append("rank pass: partition_count differs from the pentagonal reference")
        rows = dict(zip(range(1, n), table))
        problems += _rank_rows_problems(rows, n - 1, self.partitions)
        return problems
