"""Dirichlet series from q-expansions and the attached numeric checks.

Three numeric pipelines live here, deliberately kept independent so they
can cross-check each other:

* exact Dirichlet coefficients and their partial sums, whose tail bar
  reads the weight off the eigenform's ``FormMeta``; the coefficients are
  read off a q-expansion, or rebuilt from local Euler factors via the
  prime-power recursion c(p^(e+1)) = c(p) c(p^e) - chi(p) p^(k-1) c(p^(e-1))
  as an ascending map of the smooth n built from prime powers (a c(p)
  keyed by a number that is not prime is rejected);
* the completed value Lambda(s) = integral_0^inf F(iy) y^s dy/y, folded
  by the inversion F(i/y) = y^12 F(iy) onto [1, inf) (so it is invariant
  under s -> 12 - s for any row) and computed by tanh-sinh quadrature
  (Takahasi and Mori, 1974) over [1, 12] on one fixed rule of 225 nodes,
  built once at import, with Horner's rule in x = exp(-2 pi y) over
  tau(1..15) for the cusp sums, summed afresh by each call; Lambda
  equals (2 pi)^(-s) Gamma(s) sum c(n) n^(-s), so the two routes must agree;
* critical-line zero ordinates of the zeta function, located by sign
  changes of the rotated real combination Z(t) = exp(i theta(t))
  zeta(1/2 + it) with zeta evaluated by Euler-Maclaurin summation to
  the fewest terms whose remainder bound is at most 1e-13 (whose log n
  come from one table grown on demand, for Re s >= -2 and
  |Im s| <= 10^4), then refined by bisection.

Everything is 64-bit floating point with explicit error estimates; the
parameter sizes in scope sit comfortably inside double precision.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Optional, Sequence

from . import forms
from .qseries import QSeries, Rational, Record, rational

__all__ = [
    "DirichletValue",
    "CompletedLValue",
    "ZeroList",
    "BracketingError",
    "mellin_coeffs",
    "euler_product_coeffs",
    "dirichlet_eval",
    "completed_lambda_integral",
    "zeta_em",
    "rs_theta",
    "z_function",
    "zeta_zero_spacings",
]


class BracketingError(RuntimeError):
    """The zero scan lost its bracketing.

    Raised when the scan runs past t = 400, a refined zero leaves a
    residual above its tolerance, or the counting function shows that
    zeros slipped between grid points.  The grid is fixed, so no retry
    can change the outcome; the CLI exits 1.
    """


# -- Dirichlet series ------------------------------------------------------------


def mellin_coeffs(f: QSeries) -> tuple[Rational, ...]:
    """Dirichlet coefficients c_1 .. c_N of a cusp expansion: c_n = coefficient of q^n.

    ``f`` must have an integer offset >= 0 and a vanishing constant
    term (the cusp condition); the tuple runs from exponent 1 to the end
    of f's window, so c_n sits at index n - 1, and holds at least one
    entry.
    """
    if f.offset.denominator != 1 or f.offset < 0:
        raise ValueError(f"mellin_coeffs requires an integer offset >= 0, got {f.offset}")
    if f.offset == 0 and f.order > 0 and f.coeffs[0] != 0:
        raise ValueError(
            f"nonzero constant term {f.coeffs[0]}: not a cusp expansion"
        )
    if f.end < 2:
        raise ValueError("window too short: no coefficients at exponent >= 1")
    # exponents 1 .. offset-1 lie below the window and read as zeros
    offset = int(f.offset)
    return (0,) * max(offset - 1, 0) + f.coeffs[max(1 - offset, 0):]


# Miller-Rabin over the first 13 primes decides primality exactly below the
# bound psi_13, the least composite that passes every one of them (Sorenson
# and Webster, Math. Comp. 86 (2017)); 2 .. 37 alone pass the composite
# psi_12 = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_EXACT_BELOW."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"key {n} is too large to test for primality (bound {_MR_EXACT_BELOW})")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> r, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_product_coeffs(
    prime_values: Mapping[int, int], meta: forms.FormMeta, n_max: int
) -> dict[int, int]:
    """Expand prod_p (1 - c(p) p^(-s) + chi(p) p^(k-1) p^(-2s))^(-1) coefficientwise.

    Returns c(n) for each n <= n_max with no prime factor above P, the
    largest key of ``prime_values`` not above n_max, keyed by n in
    ascending order; other n are absent, not zero.  Each local factor
    contributes c(p^e) through the recursion
    c(p^(e+1)) = c(p) c(p^e) - meta.hecke_weight(p) c(p^(e-1)), and the map
    is built one prime at a time, c(m p^e) = c(m) c(p^e) for each m already
    in it, so no n that is not smooth is ever visited.  Every key must be
    prime, and every prime up to P must be a key.  A key above n_max
    divides no n in range: it is tested for primality on its own, by
    deterministic Miller-Rabin, and plays no other part; a key at or above
    that test's exact range, about 3.3e24, is refused.  An empty mapping
    gives {1: 1}.  Each c(p) is read by :func:`~qmodular.qseries.rational`,
    which refuses a float with TypeError.
    """
    prime_values = {p: rational(c) for p, c in prime_values.items()}
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    primes = forms.primes_up_to(max((k for k in prime_values if k <= n_max), default=1))
    not_prime = sorted(
        k
        for k in set(prime_values).difference(primes)
        if k <= n_max or not _is_prime(k)
    )
    if not_prime:
        raise ValueError(f"keys {not_prime} are not prime")
    missing = [p for p in primes if p not in prime_values]
    if missing:
        raise ValueError(f"prime values missing for {missing}")
    coeffs = {1: 1}
    for p in primes:
        c_p, weight = prime_values[p], meta.hecke_weight(p)
        local = [1, c_p]  # c(p^e) at index e
        while p ** len(local) <= n_max:
            local.append(c_p * local[-1] - weight * local[-2])
        for m, c_m in list(coeffs.items()):
            n, e = m * p, 1
            while n <= n_max:
                coeffs[n] = c_m * local[e]
                n, e = n * p, e + 1
    return dict(sorted(coeffs.items()))


class DirichletValue(Record):
    """A partial Dirichlet sum ``value`` and its ``tail_bound``."""

    __slots__ = _fields = ("value", "tail_bound")


def dirichlet_eval(f: QSeries, s: float, eigenform: forms.FormMeta) -> DirichletValue:
    """Partial sum of L(f, s) = sum c_n n^(-s) with a rigorous tail bound.

    ``f`` is the cusp expansion sum c_n q^n of the normalized eigenform
    that ``eigenform`` describes, and c_1 .. c_N are read off it by
    :func:`mellin_coeffs`; Deligne's bound |c_n| <= d(n) n^((k-1)/2)
    <= 2 n^(k/2) at its weight k gives

        |tail| <= 2 N^(k/2 + 1 - s) / (s - k/2 - 1),

    valid for s > k/2 + 1; arguments at or below that line are refused.
    """
    k = eigenform.weight
    barrier = k / 2 + 1
    if not s > barrier:  # also rejects nan
        raise ValueError(
            f"s={s} is outside the guaranteed convergence region s > {barrier}"
        )
    coeffs = mellin_coeffs(f)
    total = 0.0
    for n, c in enumerate(coeffs, start=1):
        if c:
            total += float(c) * n ** (-s)
    tail = 2.0 * len(coeffs) ** (k / 2 + 1 - s) / (s - k / 2 - 1)
    return DirichletValue(total, tail)


# -- completed Lambda by quadrature ------------------------------------------------


class CompletedLValue(Record):
    """Numeric Lambda(s) with its quadrature + truncation error estimate."""

    __slots__ = _fields = ("s", "value", "quadrature_error")


def _cusp_exp_sum(y: float, row: tuple[float, ...]) -> float:
    """sum_{n<=order} tau(n) exp(-2 pi n y) for 1 <= y <= 12.

    Horner's rule in x = exp(-2 pi y); ``row`` holds tau(order), ...,
    tau(1) as floats, highest index first.
    """
    x = math.exp(-2.0 * math.pi * y)
    acc = 0.0
    for t in row:
        acc = acc * x + t
    return acc * x


# tanh-sinh nodes t = k h for |k| <= _TS_K: at |t| = 3.5 the weights are below
# 1e-20 of their peak, so the nodes left out move no sum by an ulp
_TS_H = 1.0 / 32.0
_TS_K = 112


def _tanh_sinh_rule() -> tuple[tuple[float, float, bool], ...]:
    """(x fraction, weight, on the 2h grid?) for each node t = k h, |k| <= _TS_K.

    x = a + (b - a) * fraction, u = (pi/2) sinh t, fraction =
    1 / (1 + exp(-2u)) (exact near a), weight = (pi/4) cosh t / cosh(u)^2.
    No entry depends on the interval or the integrand.
    """
    rule = []
    for k in range(-_TS_K, _TS_K + 1):
        t = k * _TS_H
        u = 0.5 * math.pi * math.sinh(t)
        frac = 1.0 / (1.0 + math.exp(-2.0 * u))
        weight = 0.25 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        rule.append((frac, weight, k % 2 == 0))
    return tuple(rule)


_TS_RULE = _tanh_sinh_rule()
# Lambda's upper integration limit and its 225 integrand nodes y on [1, _Y_CUT]
_Y_CUT = 12.0
_NODES = tuple(1.0 + (_Y_CUT - 1.0) * frac for frac, _, _ in _TS_RULE)
# tau terms each node sums: the fewest whose series-truncation bar (n1 = 16) is
# under half an ulp of every reported bar; later terms move no bit of any sum
_TAU_TERMS = 15


def _tanh_sinh(values: Sequence[float], width: float) -> tuple[float, float]:
    """Tanh-sinh quadrature over an interval of length ``width``; returns (value, error).

    ``values`` holds the integrand at the nodes a + width * fraction of
    ``_TS_RULE``, in its order.  Takahasi and Mori's substitution
    x = a + (b - a) / (1 + exp(-2u)), u = (pi/2) sinh t, gives an
    integrand in t that dies double-exponentially at both ends, and the
    trapezoid rule in t converges geometrically in 1/h.  The fixed nodes
    of step h = 1/32 contain those of step 2h, so one pass gives both sums
    I_h and I_2h.  The error is |I_h - I_2h| plus a rounding floor of eight
    ulps of h * sum |w f|.  The 225 nodes and weights are ``_TS_RULE``,
    built once at import.
    """
    total = even = mass = 0.0  # sums of w f, of w f at step 2h, of |w f|
    for (_, weight, on_coarse_grid), f in zip(_TS_RULE, values):
        wf = weight * f
        total += wf
        mass += abs(wf)
        if on_coarse_grid:
            even += wf
    value = width * _TS_H * total
    coarse = width * 2.0 * _TS_H * even
    floor = 8.0 * 2.0**-52 * width * _TS_H * mass
    return value, abs(value - coarse) + floor


def _cut_tail_bound(s: float, y_cut: float) -> float:
    """Bound on the discarded tail integral_{y_cut}^inf F(iy) y^(s-1) dy.

    For y >= Y = y_cut, 0 < F(iy) <= exp(-2 pi y), since F(iy) is
    exp(-2 pi y) times prod (1 - exp(-2 pi n y))^24.  With a = s - 1,
    y^a <= Y^a exp(max(a, 0) (y - Y) / Y) on y >= Y (by log(1 + x) <= x
    for a > 0, and y^a <= Y^a for a <= 0), so the tail is at most
    integral_Y^inf Y^a exp(-2 pi Y - (2 pi - max(a, 0)/Y)(y - Y)) dy
    = Y^a exp(-2 pi Y) / (2 pi - max(a, 0)/Y); a < 11 and Y >= 2 keep the
    rate positive.  The factor 2 is a safety margin.
    """
    a = s - 1.0
    rate = 2.0 * math.pi - max(a, 0.0) / y_cut
    return 2.0 * y_cut**a * math.exp(-2.0 * math.pi * y_cut) / rate


def completed_lambda_integral(s: float) -> CompletedLValue:
    """Lambda(s) = integral_0^inf F(iy) y^(s-1) dy for the weight-12 form.

    The inversion F(i/y) = y^12 F(iy) folds (0, 1] onto [1, inf), so
    Lambda(s) = integral_1^inf F(iy) (y^(s-1) + y^(11-s)) dy: one tanh-sinh
    pass of 225 nodes over [1, 12].  Each call reads tau(1..15) and sums
    the cusp series at each node of ``_NODES``, keeping no state between
    calls.  The two powers' sum is symmetric in s <-> 12 - s, so
    Lambda(12 - s) is bit-equal to Lambda(s) wherever 12 - s is exact.  The
    reported error adds the quadrature estimate to bounds for each power's
    discarded y > 12 tail and for the truncation of the exponential sum.
    """
    if not 0.0 < s < 12.0:
        raise ValueError(f"s must lie in (0, 12), got {s}")

    # read through forms.tau, so forms.inject_tau_fault reaches Lambda too
    row = tuple(float(forms.tau(n)) for n in range(_TAU_TERMS, 0, -1))
    a, b = s - 1.0, 11.0 - s
    values = [_cusp_exp_sum(y, row) * (y**a + y**b) for y in _NODES]
    value, err = _tanh_sinh(values, _Y_CUT - 1.0)
    tail_cut = _cut_tail_bound(s, _Y_CUT) + _cut_tail_bound(12.0 - s, _Y_CUT)
    # exponential-sum truncation: past tau(15) the sum is at most 4 n1^6 exp(-2 pi n1 y)
    # for y >= 1, as (17/16)^6 exp(-2 pi) < 1/2, and y^c exp(-2 pi n1 (y - 1)) <= 1
    # for each power y^c (c < 11)
    n1 = _TAU_TERMS + 1
    series_tail = 8.0 * n1**6 * math.exp(-2.0 * math.pi * n1) * (_Y_CUT - 1.0)
    return CompletedLValue(s, value, err + tail_cut + series_tail)


# -- zeta on the critical line -----------------------------------------------------


# Bernoulli numbers B_2, B_4, ..., B_16: one per Euler-Maclaurin correction
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


# zeta_em refuses |Im s| above _ZETA_IM_MAX and Re s below _ZETA_RE_MIN: far
# up the sum grows long, and left of Re s = -2 the terms n^(-s) grow so fast
# that their sum cancels to garbage
_ZETA_IM_MAX = 1.0e4
_ZETA_RE_MIN = -2.0
# zeta_em sums the fewest terms whose remainder bound is at most _ZETA_EPS
_ZETA_EPS = 1e-13
# |B_18| / 18! / _ZETA_EPS: the first Bernoulli factor zeta_em leaves out, over the target
_B18_SCALE = 43867 / 798 / math.factorial(18) / _ZETA_EPS
# _LOGS[n] = log n, grown on demand by zeta_em (index 0 unused); its reads cap
# it at n = 2 * _ZETA_IM_MAX + 8, which only Re s < 0 near |Im s| = 10^4 reach
_LOGS = [-math.inf]


def _zeta_em_terms(s: complex) -> int:
    """The term count N that :func:`zeta_em` sums at s.

    After the B_16 correction the Euler-Maclaurin remainder is at most
    |s + 17| / (sigma + 17) times the first term left out,
    |B_18| / 18! |s (s+1) ... (s+16)| N^(-sigma-17) (Edwards, *Riemann's
    Zeta Function*, 1974, sec. 6.4; it holds for sigma > -17).  N is the
    smallest count that puts this bound at or below ``_ZETA_EPS``, in
    closed form, but never more than max(24, 2 |Im s| + 8), and at least 1
    (at s = 0, -1, -2 the remainder vanishes).
    """
    cap = max(24, int(2.0 * abs(s.imag)) + 8)
    rate = s.real + 17.0
    # |s (s+1) ... (s+17)| in pairs (s + j)(s + 17 - j) = z + j (17 - j), with
    # z = s (s + 17); far right it overflows to inf or nan, and min keeps the cap
    z = s * (s + 17.0)
    head = abs(
        z * (z + 16) * (z + 30) * (z + 42) * (z + 52) * (z + 60) * (z + 66) * (z + 70) * (z + 72)
    )
    return max(1, math.ceil(min(cap, (head * _B18_SCALE / rate) ** (1.0 / rate))))


def zeta_em(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin summation.

    Sums the N = :func:`_zeta_em_terms` (s) terms that the remainder bound
    asks for (11 at t = 10, 43 at t = 50, 9,602 at t = 10^4 on the
    critical line) and adds one correction per entry of ``_BERNOULLI_2K``;
    the remainder is then at most 1e-13 wherever the cap of
    max(24, 2|Im s| + 8) terms does not bind, and rounding in each
    exponent -s log n adds about |s| log n ulps to its term.  Where N^(-s)
    underflows to 0 (far right, as at s = 2000), the sum of the first
    N - 1 terms is returned, since every later term is smaller.  log n is
    read from ``_LOGS``, one module-level table that grows in place to the
    largest N asked for and is never recomputed.  Raises ValueError at the
    pole s = 1, for a non-finite s, for Re s < -2 and for |Im s| > 10^4,
    before any work.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"zeta_em needs a finite s, got {s}")
    if abs(s.imag) > _ZETA_IM_MAX:
        raise ValueError(f"zeta_em needs |Im s| <= {_ZETA_IM_MAX:g}, got {s}")
    if s.real < _ZETA_RE_MIN:
        raise ValueError(f"zeta_em needs Re s >= {_ZETA_RE_MIN:g}, got {s}")
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    n_terms = _zeta_em_terms(s)
    logs = _LOGS
    logs.extend(map(math.log, range(len(logs), n_terms + 1)))
    # terms n^(-s) = exp(-s log n) for n < N, added in increasing n
    total = sum(map(cmath.exp, map((-s).__mul__, logs[1:n_terms])), complex(0.0))
    log_n = logs[n_terms]
    n_s = cmath.exp(-s * log_n)
    if n_s == 0:
        # far right the Pochhammer factor below overflows, and inf * 0 is nan
        return total
    total += n_terms * n_s / (s - 1.0)
    total += 0.5 * n_s
    # correction terms B_2k/(2k)! * (s)(s+1)...(s+2k-2) * N^(1-s-2k)
    poch = s
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        fact *= (2 * k - 1) * (2 * k)
        total += b2k / fact * poch * cmath.exp((1.0 - s - 2.0 * k) * log_n)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def rs_theta(t: float) -> float:
    """Phase theta(t) with arg zeta rotation, asymptotic expansion.

    Good to better than 1e-9 for t >= 10, which covers every ordinate
    handled here.  Only sign changes matter for zero location, so the
    residual phase error cannot move a zero.  The negative powers
    underflow to zero for a large t instead of overflowing; a t whose
    phase is past the float range (t near 1.7e308) is refused.
    """
    if not 1.0 <= t < math.inf:  # also rejects nan
        raise ValueError(f"asymptotic phase needs t >= 1 and finite, got {t}")
    theta = (
        0.5 * t * math.log(t / (2.0 * math.pi))
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / 5760.0 * t**-3
        + 31.0 / 80640.0 * t**-5
    )
    if not math.isfinite(theta):
        raise ValueError(f"asymptotic phase at t = {t} is past the float range")
    return theta


def z_function(t: float) -> float:
    """Real rotated combination Z(t) = exp(i theta(t)) zeta(1/2 + it)."""
    val = cmath.exp(1j * rs_theta(t)) * zeta_em(complex(0.5, t))
    return val.real


class ZeroList(Record):
    """Increasing critical-line ordinates with refinement residuals."""

    __slots__ = _fields = ("gammas", "residuals")

    def __init__(self, gammas: tuple[float, ...], residuals: tuple[float, ...]) -> None:
        # written as "not all(... > ...)" so that a NaN ordinate fails both
        if not all(b > a for a, b in zip(gammas, gammas[1:])):
            raise ValueError("ordinates must be strictly increasing")
        if not all(g > 0 for g in gammas):
            raise ValueError("ordinates must be positive")
        super().__init__(gammas, residuals)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.gammas, self.gammas[1:]))

    def rows(self) -> list[tuple[int, float, Optional[float]]]:
        sp = self.spacings
        return [
            (i + 1, g, sp[i] if i < len(sp) else None)
            for i, g in enumerate(self.gammas)
        ]


# zero scan: grid step in t, bisection width, and the largest |Z| accepted at a zero
_SCAN_STEP = 0.2
_REFINE_TOL = 1e-6
_RESIDUAL_TOL = 1e-4


def zeta_zero_spacings(count: int) -> ZeroList:
    """First ``count`` critical-line ordinates and their spacings.

    Sign changes of Z(t) are bracketed on a grid of step 0.2 from t = 4
    and refined by bisection to 1e-6 in t.  A Riemann-von Mangoldt
    count check guards against pairs of zeros slipping between grid
    points; a mismatch raises :class:`BracketingError`.
    """
    if not 1 <= count <= 50:
        raise ValueError(f"count must be in 1..50 (desk scale), got {count}")
    gammas = []
    residuals = []
    t = 4.0
    z_prev = z_function(t)
    while len(gammas) < count:
        t_next = t + _SCAN_STEP
        if t_next > 400.0:
            raise BracketingError("scan ran away; step too coarse?")
        z_next = z_function(t_next)
        if z_prev == 0.0:
            gammas.append(t)
            residuals.append(0.0)
        elif z_prev * z_next < 0.0:
            lo, hi = t, t_next
            f_lo = z_prev
            while hi - lo > _REFINE_TOL:
                mid = 0.5 * (lo + hi)
                f_mid = z_function(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            gamma = 0.5 * (lo + hi)
            res = abs(z_function(gamma))
            if res > _RESIDUAL_TOL:
                raise BracketingError(
                    f"refinement residual {res:.3g} at t={gamma:.6f} exceeds "
                    f"{_RESIDUAL_TOL}; bracket may be spurious"
                )
            gammas.append(gamma)
            residuals.append(res)
        t, z_prev = t_next, z_next
    expected = rs_theta(gammas[-1] + 1e-3) / math.pi + 1.0
    if expected - count > 1.2:
        raise BracketingError(
            f"zero count {count} up to t={gammas[-1]:.4f} falls short of the "
            f"counting function ({expected:.2f}); step {_SCAN_STEP} too coarse"
        )
    return ZeroList(tuple(gammas), tuple(residuals))
