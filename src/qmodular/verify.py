"""Batch verification suites behind the command-line ``verify`` umbrella.

Each suite function builds the objects it checks and returns
:class:`~qmodular.forms.CheckReport` records; an empty violation list
means the property battery passed.  tau(n) and p(n) come from the one
coefficient table of :func:`~qmodular.qseries.euler_coefficient`, so a
row one suite has grown is read, not expanded again, by the next.  A
suite's parameters are the bounds its CLI flags set, each named after
its flag (``n_max`` for ``--n-max``, ``order``, ``count``),
with defaults at the acceptance targets of the project; every other
size is fixed.  :data:`SUITES` maps each suite name to its function, in
the order ``verify all`` runs them.

The geometry suite checks the AGM perimeters against its own periodic
trapezoid rule, an algorithm that shares no code with the AGM or with
the L-function quadrature and needs no external dependency.

Only :mod:`qmodular.forms` and :mod:`qmodular.qseries` are imported up
front; each suite imports the other modules it checks, so ``verify tau``
loads neither the L-function nor the geometry code, and only ``verify tau``
imports :mod:`fractions`, for the E12 constant term.
"""

from __future__ import annotations

import math
import random
from operator import add
from typing import TYPE_CHECKING, Callable

from . import forms
from .forms import CheckReport
from .qseries import QSeries, euler_coefficient, mul

if TYPE_CHECKING:
    from .geometry import EllipseSpec

__all__ = ["SUITES"]


def _report(check: str, params: dict, violations: list[str]) -> CheckReport:
    return CheckReport(check, tuple(params.items()), tuple(violations))


# -- tau suite -----------------------------------------------------------------


def verify_tau(n_max: int = 1000) -> list[CheckReport]:
    """Check E12's constant term, ``e12-delta-mod-691`` and the tau battery.

    ``e12-delta-mod-691``, on the E12 sieve, is the one mod-691 check. The battery's
    mod-2^11 check keeps ``forms.sigma`` (n == 1 mod 8 only): trial division is a
    route to sigma_11 that shares nothing with the sieve."""
    from fractions import Fraction

    reports = []
    e12 = forms.eisenstein_e12(n_max + 1)
    bad = []
    if e12.coeff(0) != Fraction(691, 65520):
        bad.append(f"constant term is {e12.coeff(0)}, want 691/65520")
    reports.append(_report("e12-constant-term", {}, bad))

    bad = []
    sigma_11 = e12.coeffs  # offset 0: sigma_11(n) sits at index n
    for n in range(1, n_max + 1):
        if (forms.tau(n) - sigma_11[n]) % 691 != 0:
            bad.append(f"tau vs sigma11 mod 691 differ at n={n}")
    reports.append(_report("e12-delta-mod-691", {"n_max": n_max}, bad))

    reports.append(forms.tau_properties_check(n_max))
    return reports


# -- hecke suite ----------------------------------------------------------------


def verify_hecke(order: int = 200) -> list[CheckReport]:
    if order < 4:
        raise ValueError(
            f"hecke suite needs order >= 4 (T_2 compares two coefficients), got {order}"
        )
    # T_n compares floor(order / n) coefficients; below two it falsifies nothing
    eigen_n_max = min(20, order // 2)
    reports = []
    bad = []
    for n in range(1, 51):
        if len(forms.hecke_coset_reps(n)) != forms.sigma(1, n):
            bad.append(f"coset count != sigma_1 at n={n}")
    reports.append(_report("hecke-coset-count", {"n_max": 50}, bad))

    meta = forms.FormMeta(weight=12, level=1)
    disc = forms.delta(order)
    bad = []
    eigen = forms.is_eigenform(disc, meta, eigen_n_max)
    if not eigen.ok:
        bad.append(f"eigenform property fails at {eigen.first_failure}")
    else:
        for n, lam in eigen.eigenvalues:
            if lam != forms.tau(n):
                bad.append(f"eigenvalue at n={n} is {lam}, want tau(n)")
    reports.append(
        _report("hecke-eigenform", {"order": order, "n_max": eigen_n_max}, bad)
    )

    # every pair needs m * n <= order, or its comparison window is empty
    compose_bound = min(48, order)
    bad = [
        f"composition law fails at (m,n)=({rep.m},{rep.n}): {rep.first_mismatch}"
        for rep in forms.hecke_compose_check(meta, disc, compose_bound)
        if not rep.ok
    ]
    reports.append(
        _report(
            "hecke-composition",
            {"order": order, "mn_bound": compose_bound},
            bad,
        )
    )
    return reports


# -- rank suite -----------------------------------------------------------------


def verify_rank(n_max: int = 60) -> list[CheckReport]:
    if n_max < 4:
        raise ValueError(
            f"rank suite needs n_max >= 4 (the mod-5 check starts at n = 4), got {n_max}"
        )
    from . import theta_partitions

    reports = []
    # the table is the arbiter, so no check may read a row it did not build
    gen_n_max = min(40, n_max)
    equid_bound = min(49, n_max)
    mock_order = 50  # also past every row the generating check reads
    table = theta_partitions.rank_table(n_max)
    polys = theta_partitions.rank_generating(mock_order + 1)
    bad = []
    for n in range(1, n_max + 1):
        if sum(table.counts(n).values()) != theta_partitions.partition_count(n):
            bad.append(f"sum over ranks != p(n) at n={n}")
    for n in range(1, n_max + 1):
        row = table.counts(n)
        for m, c in row.items():
            if row.get(-m, 0) != c:
                bad.append(f"symmetry fails at (n,m)=({n},{m})")
            if n >= 2 and abs(m) >= n:
                bad.append(f"support violation at (n,m)=({n},{m})")
    reports.append(_report("rank-table-invariants", {"n_max": n_max}, bad))

    bad = []
    for n in range(1, gen_n_max + 1):
        if polys[n] != table.polynomial(n):
            bad.append(f"generating coefficient differs from table at n={n}")
    if polys[0] != theta_partitions.OmegaPoly(0, (1,)):
        bad.append("constant coefficient is not 1")
    reports.append(_report("rank-generating-vs-table", {"n_max": gen_n_max}, bad))

    bad = []
    n = 4
    while n <= equid_bound:
        counts = table.counts_mod(n, 5)
        p_n = theta_partitions.partition_count(n)
        if p_n % 5 != 0 or any(c != p_n // 5 for c in counts):
            bad.append(f"rank classes mod 5 not equal at n={n}: {counts}")
        n += 5
    reports.append(_report("rank-equidistribution-mod5", {"n_max": equid_bound}, bad))

    bad = []
    for mod, res in ((5, 4), (7, 5), (11, 6)):
        n = res
        while n <= 500:
            if theta_partitions.partition_count(n) % mod != 0:
                bad.append(f"p({n}) not divisible by {mod}")
            n += mod
    reports.append(_report("partition-congruences", {"n_max": 500}, bad))

    bad = []
    at_minus_one = theta_partitions.specialize_omega(polys, (1, 2))
    mock = theta_partitions.mock_theta_f(mock_order + 1)
    for n in range(mock_order + 1):
        if at_minus_one[n] != mock.coeff(n):
            bad.append(f"w=-1 specialization differs from direct series at n={n}")
    at_one = theta_partitions.specialize_omega(polys, (0, 1))
    for n in range(mock_order + 1):
        if at_one[n] != theta_partitions.partition_count(n):
            bad.append(f"w=1 specialization differs from p(n) at n={n}")
    reports.append(_report("mock-theta-specialization", {"order": mock_order}, bad))
    return reports


# -- theta suite ------------------------------------------------------------------


def _lattice_counts(k: int, m_max: int) -> list[int]:
    """Numbers of integer k-vectors of squared norm 0 .. m_max, by direct count.

    ``counts[s]`` holds the number of partial vectors of squared norm s
    <= m_max; each new coordinate v with |v| <= isqrt(m_max) adds the
    counts shifted up by v^2, one slice-wide ``map(add, ...)`` per v, so
    the cost is O(k * m_max^1.5) additions rather than one list entry
    per vector.  Plain integer lists; it shares no code with the theta
    series it checks.
    """
    r = math.isqrt(m_max)
    counts = [1] + [0] * m_max
    for _ in range(k):
        longer = [0] * (m_max + 1)
        for v in range(-r, r + 1):
            s = v * v
            longer[s:] = map(add, longer[s:], counts)
        counts = longer
    return counts


def verify_theta(order: int = 100) -> list[CheckReport]:
    if order < 2:
        raise ValueError(
            f"theta suite needs order >= 2 (order 1 holds only the constant term), got {order}"
        )
    from . import theta_partitions

    reports = []
    # one expansion per k serves both checks: the lattice check reads 101
    # coefficients, the multiplicativity check ``order``
    window = max(order, 101)
    full = {k: theta_partitions.theta_diagonal(k, window) for k in range(1, 5)}
    bad = []
    for k, series in full.items():
        for m, count in enumerate(_lattice_counts(k, 100)):
            if series.coeff(m) != count:
                bad.append(f"lattice count mismatch at k={k}, m={m}")
    reports.append(_report("theta-lattice-counts", {"k_max": 4, "m_max": 100}, bad))

    bad = []
    theta = {k: series.truncate(order) for k, series in full.items()}
    for k in range(1, 4):
        for j in range(1, 4 - k + 1):
            if theta[k + j] != mul(theta[k], theta[j]):
                bad.append(f"theta({k})*theta({j}) != theta({k + j})")
    reports.append(_report("theta-multiplicativity", {"order": order}, bad))
    return reports


# -- lfunc suite -------------------------------------------------------------------


def verify_lfunc(count: int = 10) -> list[CheckReport]:
    from . import lseries

    reports = []
    meta = forms.FormMeta(12)
    # tau(1..1000) from the e = 24 table row, which the tau suite has
    # already grown; the row is not read through forms.tau, so the test
    # fault reaches only the Euler-product side and the check sees it
    row = [euler_coefficient(24, j) for j in range(1000)]
    series = QSeries(1, row)

    bad = []
    ep = lseries.euler_product_coeffs(
        {p: forms.tau(p) for p in forms.primes_up_to(13)}, meta, 200
    )
    for n, c in ep.items():
        if c != series.coeff(n):
            bad.append(f"euler product coefficient differs at n={n}")
    if len(ep) < 60:
        bad.append(f"only {len(ep)} 13-smooth indices found; expected more")
    reports.append(_report("euler-product-vs-expansion", {"n_max": 200}, bad))

    # Not an independent check: the folded integrand is symmetric under
    # s -> 12 - s for any tau row, so Lambda(12 - s) is bit-equal to
    # Lambda(s) and this passes under --inject-tau-fault too.  It stays so
    # that `verify all` stdout is unchanged until the split-point check of
    # ROADMAP item 30 replaces it (item 8's incomplete-gamma series folds
    # the integral the same way).
    bad = []
    lam: dict[float, lseries.CompletedLValue] = {}
    for s in (3.0, 4.0, 5.0, 7.0, 8.0, 9.0):
        lam[s] = lseries.completed_lambda_integral(s)
    for s in (4.0, 5.0, 8.0, 9.0):
        a, b = lam[s], lam[12.0 - s]
        rel = abs(a.value - b.value) / abs(a.value)
        if rel >= 1e-8:  # reported below as tol_exp -8
            bad.append(f"functional equation off by {rel:.3g} at s={s}")
    reports.append(_report("lambda-functional-equation", {"tol_exp": -8}, bad))

    bad = []
    lam[10.0] = lseries.completed_lambda_integral(10.0)
    for s in (8.0, 9.0, 10.0):
        integral = lam[s]
        partial = lseries.dirichlet_eval(series, s, meta)
        gamma_factor = (2.0 * math.pi) ** (-s) * math.gamma(s)
        direct = gamma_factor * partial.value
        allowed = gamma_factor * partial.tail_bound + integral.quadrature_error
        diff = abs(direct - integral.value)
        if diff > allowed:
            bad.append(
                f"pipelines disagree at s={s}: diff {diff:.3g} vs bars {allowed:.3g}"
            )
    reports.append(_report("lambda-two-pipelines", {"n_max": 1000}, bad))

    bad = []
    zeros = lseries.zeta_zero_spacings(count)
    if len(zeros.gammas) != count:
        bad.append(f"found {len(zeros.gammas)} ordinates, want {count}")
    if abs(zeros.gammas[0] - 14.1347251417) > 1e-4:
        bad.append(f"first ordinate {zeros.gammas[0]:.6f} off the reference value")
    if any(r > 1e-4 for r in zeros.residuals):
        bad.append("refinement residual above tolerance")
    reports.append(_report("zeta-zero-spacings", {"count": count}, bad))
    return reports


# -- geometry suite ----------------------------------------------------------------


def _arc_length_quadrature(spec: EllipseSpec) -> float:
    """Perimeter by the N-point trapezoid rule on the speed |dz/dtheta|.

    The speed is periodic and analytic, so the rule converges geometrically
    (Trefethen and Weideman, SIAM Review 2014).  N doubles from 16 until
    two sums agree to 1e-13 relative, and raises ArithmeticError past 2^16.
    """
    a, b = spec.semi_real, spec.semi_imag

    def speed(t: float) -> float:
        return math.hypot(a * math.sin(t), b * math.cos(t))

    n = 16
    total = sum(speed(2.0 * math.pi * j / n) for j in range(n))
    value = 2.0 * math.pi * total / n
    while n < 1 << 16:
        total += sum(speed(2.0 * math.pi * (j + 0.5) / n) for j in range(n))
        n *= 2
        previous, value = value, 2.0 * math.pi * total / n
        if abs(value - previous) <= 1e-13 * value:
            return value
    raise ArithmeticError(f"trapezoid perimeter of {spec} unresolved at {n} points")


def verify_geometry() -> list[CheckReport]:
    from . import geometry

    rng = random.Random(20240911)
    reports = []

    bad = []
    params = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.5, 2.0, 0.25), (3.0, 0.7, 1.3)]
    params += [
        (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        for _ in range(16)
    ]
    for r_d, e, f in params:
        # the matched radius came from the AGM, so measure the ellipse
        # with the independent trapezoid rule
        spec = geometry.circle_matching_ellipse(r_d, e, f)
        err = abs(_arc_length_quadrature(spec) - 2.0 * math.pi * r_d)
        if err >= 1e-9 * r_d:
            bad.append(f"perimeter not preserved for (r_d,e,f)=({r_d},{e},{f})")
    reports.append(_report("perimeter-preservation", {"cases": len(params)}, bad))

    bad = []
    for c in (0.5, 1.0, 2.0):
        term = geometry.torus_term(1.5, 1.0, c, c, 48)
        if any(abs(s) != 0.0 for s in term.shadow_samples):
            bad.append(f"shadow not exactly zero for e=f={c}")
        val = geometry.weak_maass_series([(1.5, 1.0, c, c)], complex(0.3, 0.7))
        if val.shadow != 0 or val.full != val.hol:
            bad.append(f"series shadow not exactly zero for e=f={c}")
    reports.append(_report("shadow-vanishing", {}, bad))

    bad = []
    sets = 100
    for i in range(sets):
        n_terms = rng.randint(1, 8)
        terms = [
            (
                rng.uniform(0.1, 2.0),
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.5),
                rng.uniform(0.3, 2.5),
            )
            for _ in range(n_terms)
        ]
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.5))
        val = geometry.weak_maass_series(terms, z)
        scale = max(abs(val.full), abs(val.hol) + abs(val.shadow), 1e-30)
        if abs(val.full - (val.hol + val.shadow)) > 1e-12 * scale:
            bad.append(f"decomposition identity fails on sample {i}")
    reports.append(_report("decomposition-identity", {"sets": sets}, bad))

    bad = []
    pairs = 20
    for _ in range(pairs):
        e, f = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        spec = geometry.EllipseSpec(rng.uniform(0.2, 2.0), e, f)
        agm = geometry.ellipse_perimeter(spec)
        quad = _arc_length_quadrature(spec)
        if abs(agm - quad) >= 1e-9 * agm:
            bad.append(f"AGM vs quadrature differ for {spec}")
    reports.append(_report("agm-vs-quadrature", {"pairs": pairs}, bad))
    return reports


SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "tau": verify_tau,
    "hecke": verify_hecke,
    "rank": verify_rank,
    "theta": verify_theta,
    "lfunc": verify_lfunc,
    "geometry": verify_geometry,
}

