import functools
import inspect
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodular import qseries as qs
from qmodular import cli, forms, geometry, lseries, theta_partitions, verify

from conftest import lattice_vectors_with_norm


@pytest.mark.parametrize("k", range(0, 5))
@pytest.mark.parametrize("m_max", [0, 1, 7, 60, 100])
def test_lattice_walk_matches_recursive_count(k, m_max):
    want = [lattice_vectors_with_norm(k, m) for m in range(m_max + 1)]
    assert verify._lattice_counts(k, m_max) == want


@functools.lru_cache(maxsize=None)
def _brute_norm_counts(k: int) -> Counter:
    # every vector of the cube [-5, 5]^k, which holds the ball of squared norm 30
    squares = [v * v for v in range(-5, 6)]
    return Counter(map(sum, itertools.product(squares, repeat=k)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 30))
def test_lattice_counts_match_a_brute_force_count_of_the_cube(k, m_max):
    counts = _brute_norm_counts(k)
    assert verify._lattice_counts(k, m_max) == [counts[m] for m in range(m_max + 1)]


def test_four_square_counts_follow_jacobi_to_the_suite_size():
    # Jacobi: r_4(m) = 8 * (sum of the divisors d of m with 4 not dividing d)
    want = [1] + [
        8 * sum(d for d in range(1, m + 1) if m % d == 0 and d % 4 != 0)
        for m in range(1, 101)
    ]
    assert verify._lattice_counts(4, 100) == want


def test_theta_suite_sees_a_wrong_theta_coefficient(monkeypatch):
    real = theta_partitions.theta_diagonal

    def bumped(k, order):
        series = real(k, order)
        if k != 2:
            return series
        coeffs = list(series.coeffs)
        coeffs[5] += 1
        return qs.QSeries(series.offset, coeffs)

    monkeypatch.setattr(theta_partitions, "theta_diagonal", bumped)
    reports = {r.check: r for r in verify.verify_theta()}
    lattice = reports["theta-lattice-counts"]
    assert not lattice.ok
    assert lattice.violations == ("lattice count mismatch at k=2, m=5",)


def test_theta_suite_sees_a_product_that_is_off(monkeypatch):
    # a convolution one too high at q^7 breaks every theta(k) * theta(j);
    # theta_diagonal runs on the power kernel, so the lattice counts stay right
    real = qs._conv

    def bumped(a, b):
        out = real(a, b)
        if len(out) >= 8:
            out[7] += 1
        return out

    monkeypatch.setattr(qs, "_conv", bumped)
    reports = {r.check: r for r in verify.verify_theta()}
    assert reports["theta-lattice-counts"].ok
    products = reports["theta-multiplicativity"]
    assert not products.ok
    assert products.violations == (
        "theta(1)*theta(1) != theta(2)",
        "theta(1)*theta(2) != theta(3)",
        "theta(1)*theta(3) != theta(4)",
        "theta(2)*theta(1) != theta(3)",
        "theta(2)*theta(2) != theta(4)",
        "theta(3)*theta(1) != theta(4)",
    )


def test_geometry_suite_sees_a_perimeter_off_by_1e_8(monkeypatch):
    real = geometry.ellipse_perimeter
    monkeypatch.setattr(
        geometry, "ellipse_perimeter", lambda spec: real(spec) * (1.0 + 1e-8)
    )
    reports = {r.check: r for r in verify.verify_geometry()}
    pairs = reports["agm-vs-quadrature"]
    assert dict(pairs.params)["pairs"] == 20
    assert len(pairs.violations) == 20


def test_perimeter_preservation_sees_a_perimeter_off_by_1e_8(monkeypatch):
    # circle_matching_ellipse picks r_ref with the patched AGM, so only an
    # independent perimeter can see that the section no longer has length
    # 2 pi r_d
    real = geometry.ellipse_perimeter
    monkeypatch.setattr(
        geometry, "ellipse_perimeter", lambda spec: real(spec) * (1.0 + 1e-8)
    )
    reports = {r.check: r for r in verify.verify_geometry()}
    preserved = reports["perimeter-preservation"]
    assert dict(preserved.params)["cases"] == 20
    assert len(preserved.violations) == 20


def test_each_suite_parameter_is_named_after_a_verify_flag():
    # cli maps a parameter back to its flag by replacing "_" with "-"
    flag_params = {"n_max", "order", "count"}
    taken = [set(inspect.signature(fn).parameters) for fn in verify.SUITES.values()]
    assert all(params <= flag_params for params in taken)
    assert set().union(*taken) == flag_params


def test_run_suite_rejects_a_flag_before_any_suite_runs(monkeypatch, capsys):
    # verify runs a suite only once the whole command line has parsed
    calls = []
    for name in list(verify.SUITES):

        def record(_name=name, **flags):
            calls.append((_name, flags))
            return []

        monkeypatch.setitem(verify.SUITES, name, record)
    for argv, extra in [
        (["verify", "theta", "--n-max", "5"], "--n-max 5"),
        (["verify", "all", "--order", "30", "--depth", "2"], "--depth 2"),
        (["verify", "all", "--format", "json"], "--format json"),
        (["verify", "lfunc", "--tol", "1e-8"], "--tol 1e-8"),
        (["verify", "all", "--tol", "1e-8"], "--tol 1e-8"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {extra}" in err
    assert calls == []


def test_rank_suite_sees_a_wrong_generating_coefficient_past_row_40(monkeypatch):
    # only mock-theta-specialization reads rows 41-50 of rank_generating
    real = theta_partitions.rank_generating

    def bumped(order):
        polys = real(order)
        terms = polys[45].terms()
        terms[0] += 1
        polys[45] = theta_partitions.OmegaPoly.from_terms(terms)
        return polys

    monkeypatch.setattr(theta_partitions, "rank_generating", bumped)
    reports = {r.check: r.violations for r in verify.verify_rank()}
    assert reports.pop("mock-theta-specialization") == (
        "w=-1 specialization differs from direct series at n=45",
        "w=1 specialization differs from p(n) at n=45",
    )
    assert all(v == () for v in reports.values())


def test_hecke_suite_rejects_orders_without_a_t2_window():
    with pytest.raises(ValueError):
        verify.verify_hecke(order=3)
    reports = {r.check: r for r in verify.verify_hecke(order=4)}
    assert dict(reports["hecke-eigenform"].params)["n_max"] == 2
    assert all(r.ok for r in reports.values())


def test_rank_suite_rejects_bounds_below_the_mod5_row():
    with pytest.raises(ValueError):
        verify.verify_rank(n_max=3)
    assert all(r.ok for r in verify.verify_rank(n_max=4))


def test_rank_suite_sees_a_moved_and_an_extra_rank_count(monkeypatch):
    real = theta_partitions.rank_table

    def corrupted(n_max):
        table = real(n_max)
        polys = list(table.polys)
        row9, row12 = table.counts(9), table.counts(12)
        row9[1] -= 1  # one partition of 9 moves from rank 1 to rank 2
        row9[2] += 1
        row12[0] += 1  # and 12 gains one
        polys[8] = theta_partitions.OmegaPoly.from_terms(row9)
        polys[11] = theta_partitions.OmegaPoly.from_terms(row12)
        return theta_partitions.RankTable(polys)

    monkeypatch.setattr(theta_partitions, "rank_table", corrupted)
    reports = {r.check: r.violations for r in verify.verify_rank()}
    assert reports["rank-table-invariants"] == (
        "sum over ranks != p(n) at n=12",
        "symmetry fails at (n,m)=(9,-2)",
        "symmetry fails at (n,m)=(9,-1)",
        "symmetry fails at (n,m)=(9,1)",
        "symmetry fails at (n,m)=(9,2)",
    )
    assert reports["rank-generating-vs-table"] == (
        "generating coefficient differs from table at n=9",
        "generating coefficient differs from table at n=12",
    )
    assert reports["rank-equidistribution-mod5"] == (
        "rank classes mod 5 not equal at n=9: [6, 5, 7, 6, 6]",
    )


# -- negative controls for the remaining violation branches -------------------------


def _violations(reports):
    return {r.check: r.violations for r in reports}


def test_lfunc_suite_sees_too_few_smooth_indices(monkeypatch):
    real = lseries.euler_product_coeffs

    def truncated(prime_values, meta, n_max):
        return {n: c for n, c in real(prime_values, meta, n_max).items() if n <= 50}

    monkeypatch.setattr(lseries, "euler_product_coeffs", truncated)
    reports = _violations(verify.verify_lfunc())
    # 50 minus the 9 primes in 17..47 and 34, 38, 46
    assert reports.pop("euler-product-vs-expansion") == (
        "only 38 13-smooth indices found; expected more",
    )
    assert all(v == () for v in reports.values())


def test_lfunc_suite_expands_no_discriminant(monkeypatch):
    # its Dirichlet series reads the tau row the tau suite grew
    calls = []
    real = forms.delta

    def spy(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(forms, "delta", spy)
    assert all(r.ok for r in verify.verify_lfunc())
    assert calls == []


def test_lfunc_suite_sees_a_wrong_tau_in_the_table_row(monkeypatch):
    # tau(4) sits at q^3 of the e = 24 row; the Euler product builds it
    # from tau(2), so only the expansion side reads the bad entry
    qs.euler_coefficient(24, 999)
    rows = {e: list(row) for e, row in qs._ROWS.items()}
    rows[24][3] += 1
    monkeypatch.setattr(qs, "_ROWS", rows)
    reports = _violations(verify.verify_lfunc())
    assert reports["euler-product-vs-expansion"] == (
        "euler product coefficient differs at n=4",
    )


def _moved_first_ordinate(zeros):
    return lseries.ZeroList((14.2,) + zeros.gammas[1:], zeros.residuals)


def _large_fourth_residual(zeros):
    residuals = list(zeros.residuals)
    residuals[3] = 2e-4
    return lseries.ZeroList(zeros.gammas, tuple(residuals))


@pytest.mark.parametrize(
    "count_asked, corrupt, violation",
    [
        (9, lambda zeros: zeros, "found 9 ordinates, want 10"),
        (10, _moved_first_ordinate, "first ordinate 14.200000 off the reference value"),
        (10, _large_fourth_residual, "refinement residual above tolerance"),
    ],
    ids=["one-short", "first-moved", "residual-too-large"],
)
def test_lfunc_suite_sees_a_wrong_zero_list(count_asked, corrupt, violation, monkeypatch):
    real = lseries.zeta_zero_spacings
    monkeypatch.setattr(
        lseries, "zeta_zero_spacings", lambda count: corrupt(real(count_asked))
    )
    reports = _violations(verify.verify_lfunc(count=10))
    assert reports.pop("zeta-zero-spacings") == (violation,)
    assert all(v == () for v in reports.values())


def test_hecke_suite_sees_a_missing_coset(monkeypatch):
    real = forms.hecke_coset_reps
    monkeypatch.setattr(
        forms, "hecke_coset_reps", lambda n: real(n)[:-1] if n == 6 else real(n)
    )
    reports = _violations(verify.verify_hecke())
    assert reports.pop("hecke-coset-count") == ("coset count != sigma_1 at n=6",)
    assert all(v == () for v in reports.values())


def test_tau_suite_sees_a_wrong_e12_constant_term(monkeypatch):
    real = forms.eisenstein_e12

    def shifted(order):
        series = real(order)
        return qs.QSeries(series.offset, (Fraction(691, 65521),) + series.coeffs[1:])

    monkeypatch.setattr(forms, "eisenstein_e12", shifted)
    reports = {r.check: r for r in verify.verify_tau(n_max=60)}
    constant = reports.pop("e12-constant-term")
    assert not constant.ok
    assert constant.violations == ("constant term is 691/65521, want 691/65520",)
    assert all(r.ok for r in reports.values())


def test_hecke_suite_sees_a_composition_law_that_fails(monkeypatch):
    # the law holds for every series, so the fault goes into the Hecke kernel:
    # T_2 on the 100-coefficient T_2 f row, the left side of (m, n) = (2, 2)
    # and a list that no other check hands to the kernel
    real = forms._hecke_coeffs

    def skewed(a, meta, n):
        out = real(a, meta, n)
        if n == 2 and len(a) == 100:
            out[3] += 1
        return out

    monkeypatch.setattr(forms, "_hecke_coeffs", skewed)
    reports = {r.check: r for r in verify.verify_hecke()}
    composition = reports.pop("hecke-composition")
    assert not composition.ok
    assert composition.violations == (
        "composition law fails at (m,n)=(2,2): (3, 145153, 145152)",
    )
    assert all(r.ok for r in reports.values())


def test_geometry_suite_sees_a_shadow_that_does_not_vanish(monkeypatch):
    # an inscribed radius one part in 2^30 short leaves a circular
    # section's shadow nonzero in both the term and the series
    monkeypatch.setattr(
        geometry.EllipseSpec,
        "inscribed_radius",
        property(lambda spec: spec.r_ref * min(spec.e, spec.f) * (1.0 - 2.0**-30)),
    )
    reports = {r.check: r for r in verify.verify_geometry()}
    shadow = reports.pop("shadow-vanishing")
    assert not shadow.ok
    assert shadow.violations == tuple(
        f"{part} not exactly zero for e=f={c}"
        for c in (0.5, 1.0, 2.0)
        for part in ("shadow", "series shadow")
    )
    assert all(r.ok for r in reports.values())


def test_hecke_suite_sees_a_discriminant_that_is_not_an_eigenform(monkeypatch):
    real = forms.delta

    def bumped(order):
        series = real(order)
        coeffs = list(series.coeffs)
        coeffs[6] += 1  # tau(7)
        return qs.QSeries(series.offset, coeffs)

    monkeypatch.setattr(forms, "delta", bumped)
    reports = _violations(verify.verify_hecke())
    assert reports.pop("hecke-eigenform") == ("eigenform property fails at (2, 7)",)
    # the composition law holds for every series, eigenform or not
    assert all(v == () for v in reports.values())


def test_rank_suite_sees_ranks_outside_the_support(monkeypatch):
    real = theta_partitions.rank_table

    def widened(n_max):
        table = real(n_max)
        polys = list(table.polys)
        row9 = table.counts(9)
        for m in (1, -1):  # one partition moves from rank m to rank 9m
            row9[m] -= 1
            row9[9 * m] = 1
        polys[8] = theta_partitions.OmegaPoly.from_terms(row9)
        return theta_partitions.RankTable(polys)

    monkeypatch.setattr(theta_partitions, "rank_table", widened)
    reports = _violations(verify.verify_rank())
    assert reports.pop("rank-table-invariants") == (
        "support violation at (n,m)=(9,-9)",
        "support violation at (n,m)=(9,9)",
    )
    assert reports.pop("rank-generating-vs-table") == (
        "generating coefficient differs from table at n=9",
    )
    assert all(v == () for v in reports.values())


def test_rank_suite_sees_a_wrong_constant_coefficient(monkeypatch):
    real = theta_partitions.rank_generating

    def doubled_constant(order):
        polys = real(order)
        polys[0] = theta_partitions.OmegaPoly(0, (2,))
        return polys

    monkeypatch.setattr(theta_partitions, "rank_generating", doubled_constant)
    reports = _violations(verify.verify_rank())
    assert reports.pop("rank-generating-vs-table") == ("constant coefficient is not 1",)
    assert reports.pop("mock-theta-specialization") == (
        "w=-1 specialization differs from direct series at n=0",
        "w=1 specialization differs from p(n) at n=0",
    )
    assert all(v == () for v in reports.values())


def test_rank_suite_sees_a_partition_count_off_the_ramanujan_congruence(monkeypatch):
    # 499 = 4 mod 5 but not 5 mod 7 or 6 mod 11, and past every table row
    real = theta_partitions.partition_count
    monkeypatch.setattr(
        theta_partitions, "partition_count", lambda n: real(n) + (n == 499)
    )
    reports = _violations(verify.verify_rank())
    assert reports.pop("partition-congruences") == ("p(499) not divisible by 5",)
    assert all(v == () for v in reports.values())
