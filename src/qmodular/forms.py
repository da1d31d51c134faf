"""Classical modular form objects and Hecke operator action.

Provides the Dedekind eta expansion, the discriminant cusp form and its
coefficient function tau(n), the weight-12 Eisenstein series, divisor
power sums, upper-triangular Hecke coset representatives as (a, b, d)
triples, the Hecke action on q-expansions

    coefficient of q^m in T_n f  =  sum_{d | gcd(m, n)} eps(d) d^(k-1) a(m n / d^2),

the composition law T_m T_n = sum_{d | gcd(m,n)} eps(d) d^(k-1) T_{mn/d^2}
(the factor is :meth:`FormMeta.hecke_weight`) for every m n up to a bound,
eigenform verification, and the tau congruence battery.

A :class:`QSeries` stores integral coefficients as ints, so nothing here
converts between int and Fraction.  The Hecke action,
the composition check and the eigenform check share one kernel on the
stored coefficients as a plain list; only :func:`hecke_apply` wraps its
result into a :class:`QSeries`.

tau(n) reads the eta-power table of :mod:`qmodular.qseries` (row 24);
:func:`delta` stays a fresh expansion of the same product, which the Hecke
checks compare the table against; it runs the same ``qseries._power``
kernel on the same pentagonal row, so it is not an independent algorithm.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Mapping, Sequence

from .qseries import QSeries, Record, WindowError, euler_coefficient, euler_product, rational

__all__ = [
    "FormMeta",
    "CheckReport",
    "HeckeComposeReport",
    "EigenformReport",
    "eta",
    "delta",
    "tau",
    "sigma",
    "eisenstein_e12",
    "hecke_coset_reps",
    "hecke_apply",
    "hecke_compose_check",
    "is_eigenform",
    "tau_properties_check",
    "primes_up_to",
]


class FormMeta(Record):
    """Weight / level tag with an optional character table.

    ``character`` maps every residue mod ``level`` to an int (a
    mapping, or the sequence of values on 0 .. level-1) and is stored as
    that tuple; with none, ``eps`` is the principal character mod
    ``level``.  A weight, level or character value that is not an int is
    refused with :class:`TypeError`, so the Hecke data stay exact.
    :meth:`hecke_weight` is the one place the Hecke factor
    eps(d) d^(k-1) is formed.
    """

    __slots__ = _fields = ("weight", "level", "character")

    def __init__(
        self, weight: int, level: int = 1, character: Mapping | Sequence | None = None
    ) -> None:
        if not (isinstance(weight, int) and isinstance(level, int)):
            raise TypeError(f"weight and level must be ints, got {weight!r} and {level!r}")
        if weight <= 0 or weight % 2 != 0:
            raise ValueError(f"weight must be a positive even integer, got {weight}")
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if character is not None:
            if not isinstance(character, Mapping):
                character = dict(enumerate(character))
            missing = [r for r in range(level) if r not in character]
            if missing:
                raise ValueError(f"character table misses residues {missing} mod {level}")
            character = tuple(character[r] for r in range(level))
            if not all(isinstance(v, int) for v in character):
                raise TypeError(f"character values must be ints, got {character}")
        super().__init__(weight, level, character)

    def eps(self, d: int) -> int:
        if self.character is None:
            return int(gcd(d, self.level) == 1)
        return self.character[d % self.level]

    def hecke_weight(self, d: int) -> int:
        """eps(d) d^(k-1), the weight of d in T_n and in the Euler factors."""
        return self.eps(d) * d ** (self.weight - 1)


class CheckReport(Record):
    """Outcome of a batch verification; empty ``violations`` means pass.

    ``params`` holds the (name, value) pairs the check ran with."""

    __slots__ = _fields = ("check", "params", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


# -- eta, delta, tau ----------------------------------------------------------


def eta(order: int) -> QSeries:
    """q^(1/24) * prod_{n>=1} (1 - q^n) to ``order`` terms."""
    from fractions import Fraction

    return euler_product(1, order).shift(Fraction(1, 24))


def delta(order: int) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24; coefficients tau(1) .. tau(order)."""
    return euler_product(24, order).shift(1)


_TAU_FAULT = 0  # added to tau(2) on read by the test fault


def tau(n: int) -> int:
    """Coefficient of q^n in the discriminant form: q^(n-1) of the table row e = 24."""
    if n < 1:
        raise ValueError(f"tau(n) requires n >= 1, got {n}")
    return euler_coefficient(24, n - 1) + (_TAU_FAULT if n == 2 else 0)


def inject_tau_fault() -> None:
    """Fault-injection hook behind ``verify --inject-tau-fault``: tau(2) reads +1.

    Negative-control tests use it to prove the checks notice wrong data.
    The fault lasts until :func:`clear_tau_fault`; a second call changes nothing.
    """
    global _TAU_FAULT
    _TAU_FAULT = 1


def clear_tau_fault() -> None:
    """Clear the test fault; the coefficient table holds only true values."""
    global _TAU_FAULT
    _TAU_FAULT = 0


# -- divisor sums and the weight-12 Eisenstein series ---------------------------


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^k over positive divisors d of n."""
    if n < 1:
        raise ValueError(f"sigma(k, n) requires n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"sigma requires k >= 0, got {k}")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def eisenstein_e12(order: int) -> QSeries:
    """691/65520 + sum_{n>=1} sigma_11(n) q^n, to exponent order-1.

    The constant term is exact; all higher coefficients are integers,
    computed by a multiple-marking sieve.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * order
    for d in range(1, order):
        p = d**11
        for m in range(d, order, d):
            coeffs[m] += p
    from fractions import Fraction

    coeffs[0] = Fraction(691, 65520)
    return QSeries(0, tuple(coeffs))


# -- Hecke operators ------------------------------------------------------------


def hecke_coset_reps(n: int) -> list[tuple[int, int, int]]:
    """Each (a, b, d) with a*d = n, 0 <= b < d, lexicographic; sigma_1(n) many.

    The triple stands for the upper-triangular representative [[a, b], [0, d]].
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [(a, b, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(n // a)]


def _exact_coeffs(f: QSeries) -> list:
    """Coefficients of q^0 .. q^(end-1) of ``f`` (offset 0 or 1) as a list.

    The stored values as they are (ints where integral); the slot below
    an offset of 1 holds 0.
    """
    if f.offset not in (0, 1):
        raise ValueError(f"Hecke operators require offset 0 or 1, got {f.offset}")
    return [0] * f.offset + list(f.coeffs)


def _hecke_coeffs(a: list, meta: FormMeta, n: int, out_order: int) -> list:
    """First ``out_order`` coefficients of T_n on the coefficient list ``a``.

    ``a[e]`` is the coefficient of q^e.  Output slot m is
    sum_{d | gcd(m, n)} eps(d) d^(k-1) a(m n / d^2), with the factor
    ``meta.hecke_weight(d)`` taken once per divisor d of n.
    """
    if out_order > 0 and (out_order - 1) * n >= len(a):
        raise WindowError(
            f"T_{n} to order {out_order} reads q^{(out_order - 1) * n}, "
            f"but only {len(a)} coefficients are known"
        )
    divisors = [(d, meta.hecke_weight(d)) for d in range(1, n + 1) if n % d == 0]
    out = []
    for m in range(out_order):
        mn = m * n
        s = 0
        for d, w in divisors:
            if m % d == 0:  # every d divides m = 0: the constant term
                s += w * a[mn // (d * d)]
        out.append(s)
    return out


def hecke_apply(f: QSeries, meta: FormMeta, n: int) -> QSeries:
    """Exact q-expansion of T_n f on the shrunken window floor(order/n).

    Requires an integral offset of 0 or 1.  The m-th output coefficient
    reads a(m n / d^2) for d | gcd(m, n); the window shrink guarantees
    every read lands inside f's known range.  The sum runs on a plain
    integer list (Fractions only where f has non-integral coefficients).
    """
    if n < 1:
        raise ValueError(f"operator index must be >= 1, got {n}")
    a = _exact_coeffs(f)
    out_order = f.order // n
    if out_order < 1:
        raise WindowError(
            f"series order {f.order} too small for T_{n} (needs >= {n})"
        )
    return QSeries(0, tuple(_hecke_coeffs(a, meta, n, out_order)))


class HeckeComposeReport(Record):
    """Coefficientwise comparison of T_m T_n f against its divisor sum.

    ``first_mismatch`` is None, or (j, lhs, rhs) at the first coefficient that differs.
    """

    __slots__ = _fields = ("m", "n", "order", "first_mismatch")

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def hecke_compose_check(
    meta: FormMeta, f: QSeries, mn_bound: int
) -> list[HeckeComposeReport]:
    """Verify T_m T_n f = sum_{d|(m,n)} eps(d) d^(k-1) T_{mn/d^2} f for all m n <= mn_bound.

    One report per pair, in ascending (m, n), on the first floor(f.order / (m n))
    coefficients.  Each T_j f is expanded once; the left side applies T_m to
    the T_n f row, the right side sums the weighted T_{mn/d^2} f rows.
    """
    if mn_bound < 1:
        raise ValueError(f"mn_bound must be >= 1, got {mn_bound}")
    if mn_bound > f.order:
        raise WindowError(f"mn_bound {mn_bound} exceeds the order {f.order} of f")
    a = _exact_coeffs(f)
    rows = {j: _hecke_coeffs(a, meta, j, f.order // j) for j in range(1, mn_bound + 1)}
    reports = []
    for m in range(1, mn_bound + 1):
        for n in range(1, mn_bound // m + 1):
            order = f.order // (m * n)
            lhs = _hecke_coeffs(rows[n], meta, m, order)
            ds = [d for d in range(1, gcd(m, n) + 1) if m % d == n % d == 0]
            terms = [(meta.hecke_weight(d), rows[m * n // (d * d)]) for d in ds]
            rhs = [sum(w * t[j] for w, t in terms) for j in range(order)]
            j = next((j for j in range(order) if lhs[j] != rhs[j]), None)
            mismatch = None if j is None else (j, rational(lhs[j]), rational(rhs[j]))
            reports.append(HeckeComposeReport(m, n, order, mismatch))
    return reports


class EigenformReport(Record):
    """Result of checking T_n f = a(n) f over a range of operator indices.

    ``eigenvalues`` holds the pairs (n, a(n)) for every fully checked index;
    ``insufficient`` lists indices whose shrunken window was too short
    to falsify anything (fewer than two comparable coefficients);
    ``first_failure`` is None, or (operator index, exponent).
    """

    __slots__ = _fields = ("eigenvalues", "insufficient", "first_failure")

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def is_eigenform(f: QSeries, meta: FormMeta, n_max: int) -> EigenformReport:
    """Check the simultaneous eigenvector property for T_1 .. T_{n_max}.

    ``f`` must be normalized (coefficient of q^1 equal to 1).  Each T_n
    is compared with a(n) * f on the whole shrunken window, as integer
    coefficient lists; the first violated coefficient stops the scan.
    If no index has two comparable coefficients, :class:`WindowError` is raised.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    a1 = f.coeff(1)
    if a1 != 1:
        raise ValueError(f"eigenform check requires a(1) = 1, got {a1}")
    a = _exact_coeffs(f)
    eigenvalues = []
    insufficient = []
    for n in range(1, n_max + 1):
        if f.order // n < 2 or n >= f.end:
            insufficient.append(n)
            continue
        t_n = _hecke_coeffs(a, meta, n, f.order // n)
        lam = a[n]
        for j, c in enumerate(t_n):
            if c != lam * a[j]:
                return EigenformReport(
                    tuple(eigenvalues), tuple(insufficient), (n, j)
                )
        eigenvalues.append((n, lam))
    if not eigenvalues:
        raise WindowError(f"no T_n with n <= {n_max} has two comparable coefficients")
    return EigenformReport(tuple(eigenvalues), tuple(insufficient), None)


# -- tau property battery --------------------------------------------------------


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a plain sieve."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(2, n + 1) if mark[i]]


def tau_properties_check(n_max: int) -> CheckReport:
    """Run the tau identity battery up to ``n_max``.

    Checks, all in exact integer arithmetic:

    1. multiplicativity tau(nm) = tau(n) tau(m) for coprime n, m with nm <= n_max;
    2. prime-power recursion tau(p^(e+1)) = tau(p) tau(p^e) - p^11 tau(p^(e-1));
    3. the coefficient bound tau(p)^2 <= 4 p^11 at every prime p <= n_max;
    4. tau(n) == sigma_11(n) mod 2^11 for n == 1 mod 8, n <= n_max.

    tau(1) .. tau(n_max) are read once through :func:`tau` (so the test
    fault reaches every check) into a list the four checks index.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    t = [0] + [tau(n) for n in range(1, n_max + 1)]
    violations = []
    for n in range(2, n_max + 1):
        for m in range(2, n_max // n + 1):
            if gcd(n, m) == 1 and t[n * m] != t[n] * t[m]:
                violations.append(f"multiplicativity failed at ({n},{m})")
    primes = primes_up_to(n_max)
    for p in primes:
        e = 1
        while p ** (e + 1) <= n_max:
            if t[p ** (e + 1)] != t[p] * t[p**e] - p**11 * t[p ** (e - 1)]:
                violations.append(f"recursion failed at p={p}, e={e}")
            e += 1
        if t[p] ** 2 > 4 * p**11:
            violations.append(f"coefficient bound failed at p={p}")
    for n in range(1, n_max + 1, 8):
        if (t[n] - sigma(11, n)) % 2048 != 0:
            violations.append(f"mod-2048 congruence failed at n={n}")
    return CheckReport("tau-properties", (("n_max", n_max),), tuple(violations))
