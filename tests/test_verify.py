import inspect
import math

import pytest

from qmodular import qseries as qs
from qmodular import cli, geometry, theta_partitions, verify

from conftest import lattice_vectors_with_norm


@pytest.mark.parametrize("k", range(0, 5))
@pytest.mark.parametrize("m_max", [0, 1, 7, 60])
def test_lattice_walk_matches_recursive_count(k, m_max):
    want = [lattice_vectors_with_norm(k, m) for m in range(m_max + 1)]
    assert verify._lattice_counts(k, m_max) == want


def test_theta_suite_sees_a_wrong_theta_coefficient(monkeypatch):
    real = theta_partitions.theta_diagonal

    def bumped(k, order):
        series = real(k, order)
        if k != 2:
            return series
        coeffs = list(series.coeffs)
        coeffs[5] += 1
        return qs.make_series(series.offset, coeffs, series.order)

    monkeypatch.setattr(theta_partitions, "theta_diagonal", bumped)
    reports = {r.check: r for r in verify.verify_theta()}
    lattice = reports["theta-lattice-counts"]
    assert not lattice.ok
    assert lattice.violations == ("lattice count mismatch at k=2, m=5",)


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
    flag_params = {"n_max", "order", "count", "tol"}
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8], ids=str)
def test_lfunc_suite_rejects_a_non_finite_or_nonpositive_tolerance(tol, monkeypatch):
    # rejected before any check runs: a delta call here would raise TypeError
    monkeypatch.setattr(verify.forms, "delta", None)
    with pytest.raises(ValueError, match="tolerance"):
        verify.verify_lfunc(tol=tol)


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
