"""Acceptance battery: one test per exit criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).  Every numeric tolerance and bound is
pinned here; nothing is deferred to later calibration.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from qmodular import forms, lseries, theta_partitions, verify
from qmodular import qseries as qs
from qmodular.cli import main as cli_main

from test_lseries import _borwein_zeta


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s <= {budget_seconds}s) {label}")
        if not failed:
            assert elapsed < budget_seconds, f"criterion {number} over time budget"


def test_acceptance_1_constant_term_and_mod_691():
    with criterion(1, 5.0, "E12 constant term and mod-691 congruence to 1000"):
        assert forms.eisenstein_e12(1).coeff(0) == Fraction(691, 65520)
        e12 = forms.eisenstein_e12(1001)
        for n in range(1, 1001):
            assert (forms.tau(n) - e12.coeff(n)) % 691 == 0


def test_acceptance_2_eigenform_suite():
    with criterion(2, 30.0, "Hecke eigenform, composition law, tau battery"):
        meta = forms.FormMeta(weight=12, level=1)
        disc = forms.delta(200)
        rep = forms.is_eigenform(disc, meta, 20)
        assert rep.ok
        assert dict(rep.eigenvalues) == {
            n: forms.tau(n) for n, _ in rep.eigenvalues
        }
        assert {n for n, _ in rep.eigenvalues} | set(rep.insufficient) == set(
            range(1, 21)
        )
        compose = forms.hecke_compose_check(meta, disc, 48)
        assert len(compose) == 198 and all(r.ok for r in compose)
        battery = forms.tau_properties_check(1000)
        assert battery.ok, battery.violations[:5]


def test_acceptance_3_mock_theta_identity():
    with criterion(3, 10.0, "rank series at w = -1 equals direct mock series, order 50"):
        polys = theta_partitions.rank_generating(51)
        specialized = theta_partitions.specialize_omega(polys, (1, 2))
        direct = theta_partitions.mock_theta_f(51)
        assert specialized == [direct.coeff(n) for n in range(51)]


def test_acceptance_4_rank_suite():
    with criterion(4, 20.0, "rank table invariants, generating match, congruences"):
        table = theta_partitions.rank_table(60)
        for n in range(1, 61):
            row_sum = sum(table.counts(n).values())
            assert row_sum == theta_partitions.partition_count(n)
        for n, m, c in table.rows():
            assert table.counts(n).get(-m, 0) == c
        polys = theta_partitions.rank_generating(41)
        for n in range(1, 41):
            assert polys[n] == table.polynomial(n)
        n = 4
        while n <= 49:
            counts = table.counts_mod(n, 5)
            p_n = theta_partitions.partition_count(n)
            assert all(5 * c == p_n for c in counts)
            n += 5
        for mod, res in ((5, 4), (7, 5), (11, 6)):
            arg = res
            while arg <= 500:
                assert theta_partitions.partition_count(arg) % mod == 0
                arg += mod


def _lattice_count(k: int, m: int) -> int:
    if k == 0:
        return 1 if m == 0 else 0
    total = 0
    r = math.isqrt(m)
    for v in range(-r, r + 1):
        total += _lattice_count(k - 1, m - v * v)
    return total


def test_acceptance_5_theta_suite():
    with criterion(5, 10.0, "lattice counts to 100 for k <= 4 and multiplicativity"):
        for k in range(1, 5):
            series = theta_partitions.theta_diagonal(k, 101)
            for m in range(101):
                assert series.coeff(m) == _lattice_count(k, m)
        for k in range(1, 4):
            for j in range(1, 4 - k + 1):
                assert theta_partitions.theta_diagonal(k + j, 100) == qs.mul(
                    theta_partitions.theta_diagonal(k, 100),
                    theta_partitions.theta_diagonal(j, 100),
                )


def test_acceptance_6_lfunction_suite():
    with criterion(6, 30.0, "Euler product match, functional equation, two pipelines"):
        meta = forms.FormMeta(12)
        series = forms.delta(1000)
        ep = lseries.euler_product_coeffs(
            {p: forms.tau(p) for p in forms.primes_up_to(13)}, meta, 200
        )
        for n, c in ep.items():
            assert c == series.coeff(n)
        lam = {s: lseries.completed_lambda_integral(float(s)) for s in (3, 4, 5, 7, 8, 9, 10)}
        for s in (4, 5, 8, 9):
            rel = abs(lam[s].value - lam[12 - s].value) / abs(lam[s].value)
            assert rel < 1e-8
        for s in (8.0, 9.0, 10.0):
            partial = lseries.dirichlet_eval(series, s, meta)
            prefactor = (2 * math.pi) ** (-s) * math.gamma(s)
            combined = prefactor * partial.tail_bound + lam[int(s)].quadrature_error
            assert abs(prefactor * partial.value - lam[int(s)].value) <= combined


def test_acceptance_7_zero_ordinates():
    with criterion(7, 30.0, "ten ordinates, oracle-checked first zero, residuals"):
        zeros = lseries.zeta_zero_spacings(10)
        assert len(zeros.gammas) == 10
        assert all(s > 0 for s in zeros.spacings)
        assert all(r < 1e-4 for r in zeros.residuals)

        def oracle_z(t: float) -> float:
            import cmath

            return (
                cmath.exp(1j * lseries.rs_theta(t)) * _borwein_zeta(complex(0.5, t))
            ).real

        t, step = 13.9, 0.02  # 10x the default scan resolution
        bracket = None
        while t < 14.5:
            if oracle_z(t) * oracle_z(t + step) < 0:
                bracket = (t, t + step)
                break
            t += step
        assert bracket is not None
        lo, hi = bracket
        f_lo = oracle_z(lo)
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            f_mid = oracle_z(mid)
            if f_lo * f_mid < 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        assert abs(zeros.gammas[0] - 0.5 * (lo + hi)) < 1e-4


def test_acceptance_8_geometry_suite():
    with criterion(8, 10.0, "perimeter preservation, shadow, decomposition, AGM"):
        reports = verify.verify_geometry()
        for rep in reports:
            assert rep.ok, (rep.check, rep.violations[:3])
        params = {rep.check: dict(rep.params) for rep in reports}
        assert params["decomposition-identity"]["sets"] == 100
        assert params["agm-vs-quadrature"]["pairs"] == 20


def test_acceptance_9_cli_contract(tmp_path):
    with criterion(9, 60.0, "verify all exit 0, fault exit 1, byte-identical reruns"):
        clean = subprocess.run(
            [sys.executable, "-m", "qmodular.cli", "verify", "all"],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout[-500:]
        assert json.loads(clean.stdout)["ok"] is True

        faulted = subprocess.run(
            [
                sys.executable,
                "-m",
                "qmodular.cli",
                "verify",
                "all",
                "--inject-tau-fault",
            ],
            capture_output=True,
            text=True,
        )
        assert faulted.returncode == 1
        assert json.loads(faulted.stdout)["ok"] is False

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for target in (out_a, out_b):
            code = cli_main(
                ["tables", "rank", "--n-max", "8", "--format", "json", "--out", str(target)]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        for target in (out_a, out_b):
            code = cli_main(["tables", "zeros", "--count", "8", "--out", str(target)])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
