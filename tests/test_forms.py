from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodular import forms
from qmodular import qseries as qs

from conftest import dense_product_one_minus_qn, naive_hecke


META12 = forms.FormMeta(weight=12, level=1)


# -- eta / delta / tau ------------------------------------------------------------


def test_eta_offset_and_pentagonal_signs():
    e = forms.eta(13)
    assert e.offset == Fraction(1, 24)
    assert [int(c) for c in e.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_tau_small_values_match_dense_oracle(tau_by_dense_convolution):
    for n in range(1, 11):
        assert forms.tau(n) == tau_by_dense_convolution[n]


def test_tau_first_values():
    assert forms.tau(1) == 1
    assert forms.tau(2) == -24
    assert forms.tau(3) == 252


def test_delta_equals_eta_power():
    order = 40
    eta = forms.eta(order)
    assert list(eta.coeffs) == dense_product_one_minus_qn(1, order)
    by_mul = eta
    for _ in range(23):
        by_mul = qs.mul(by_mul, eta)
    assert forms.delta(order) == by_mul == qs.pow(eta, 24)


def test_tau_extends_cache_without_error(monkeypatch):
    monkeypatch.setattr(qs, "_ROWS", {})
    assert forms.tau(70) == forms.delta(70).coeff(70)  # past the first row of 64
    assert len(qs._ROWS[24]) == 128


# -- sigma and the Eisenstein series -------------------------------------------------


def test_sigma_by_divisor_enumeration():
    for n in range(1, 60):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert forms.sigma(11, n) == sum(d**11 for d in divisors)
        assert forms.sigma(1, n) == sum(divisors)
    assert forms.sigma(11, 1) == 1


def test_e12_constant_term_exact():
    assert forms.eisenstein_e12(1).coeff(0) == Fraction(691, 65520)


def test_e12_vs_tau_691_factor():
    assert forms.sigma(11, 2) == 2049
    assert forms.sigma(11, 2) - forms.tau(2) == 3 * 691


def _delta_from_e4_e6(sigma3: list[int], sigma5: list[int]) -> qs.QSeries:
    """(E4^3 - E6^2)/1728 from sigma_3 and sigma_5, by mul and add only.

    E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n.
    ``pow`` is avoided: its kernel also expands the Euler product, the
    route this identity is meant to check.
    """
    e4 = qs.QSeries(0, (1, *(240 * c for c in sigma3)))
    e6 = qs.QSeries(0, (1, *(-504 * c for c in sigma5)))
    difference = qs.add(qs.mul(qs.mul(e4, e4), e4), qs.scalar_mul(-1, qs.mul(e6, e6)))
    return qs.scalar_mul(Fraction(1, 1728), difference)


def test_delta_is_e4_cubed_minus_e6_squared_over_1728():
    order = 400
    sigma3 = [forms.sigma(3, n) for n in range(1, order + 1)]
    sigma5 = [forms.sigma(5, n) for n in range(1, order + 1)]
    delta = forms.delta(order)
    built = _delta_from_e4_e6(sigma3, sigma5)
    assert built.coeff(0) == 0
    assert built.coeffs[1:] == delta.coeffs
    sigma3[6] += 1  # a wrong sigma_3(7) must break the identity
    assert _delta_from_e4_e6(sigma3, sigma5).coeffs[1:] != delta.coeffs


# -- Hecke coset representatives ------------------------------------------------------


def test_coset_reps_identity_index():
    assert forms.hecke_coset_reps(1) == [(1, 0, 1)]


def test_coset_reps_counts():
    assert len(forms.hecke_coset_reps(4)) == 7
    assert len(forms.hecke_coset_reps(6)) == 12
    for n in range(1, 51):
        assert len(forms.hecke_coset_reps(n)) == forms.sigma(1, n)


def test_coset_reps_structure():
    reps = forms.hecke_coset_reps(12)
    for a, b, d in reps:
        assert a * d == 12
        assert 0 <= b < d
    assert reps == sorted(reps) == sorted(set(reps))


# -- Hecke action -----------------------------------------------------------------------


def test_hecke_t1_is_identity():
    d = forms.delta(30)
    t1 = forms.hecke_apply(d, META12, 1)
    assert all(t1.coeff(j) == d.coeff(j) for j in range(30))


def test_hecke_t2_first_coefficient_is_tau2():
    d = forms.delta(30)
    t2 = forms.hecke_apply(d, META12, 2)
    assert t2.coeff(1) == forms.tau(2)


def test_hecke_window_shrinks():
    d = forms.delta(30)
    t5 = forms.hecke_apply(d, META12, 5)
    assert t5.order == 6
    with pytest.raises(qs.WindowError):
        t5.coeff(6)


def test_hecke_eigen_relation_small():
    d = forms.delta(60)
    t6 = forms.hecke_apply(d, META12, 6)
    for j in range(t6.order):
        assert t6.coeff(j) == forms.tau(6) * d.coeff(j)


def test_hecke_rejects_fractional_offset():
    with pytest.raises(ValueError):
        forms.hecke_apply(forms.eta(10), META12, 2)


def test_hecke_compose_t2_t2():
    # T2 T2 = T4 + 2^11 T1 on the weight-12 form
    d = forms.delta(100)
    lhs = forms.hecke_apply(forms.hecke_apply(d, META12, 2), META12, 2)
    t4 = forms.hecke_apply(d, META12, 4)
    t1 = forms.hecke_apply(d, META12, 1)
    rhs = qs.add(t4, qs.scalar_mul(2**11, t1))
    for j in range(25):
        assert lhs.coeff(j) == rhs.coeff(j)
    reports = {(r.m, r.n): r for r in forms.hecke_compose_check(META12, d, 4)}
    assert reports[2, 2].ok and reports[2, 2].order == 25


def _pairs(mn_bound):
    return [(m, n) for m in range(1, mn_bound + 1) for n in range(1, mn_bound // m + 1)]


def test_hecke_compose_coprime_and_mixed():
    d = forms.delta(200)
    reports = forms.hecke_compose_check(META12, d, 24)
    assert [(r.m, r.n) for r in reports] == _pairs(24)
    assert all(r.ok for r in reports)
    by_pair = {(r.m, r.n): r for r in reports}
    assert by_pair[2, 3].order == 33 and by_pair[6, 4].order == 8


def test_hecke_compose_insufficient_order():
    # a bound above f.order leaves the pair (mn_bound, 1) no coefficient
    d = forms.delta(20)
    with pytest.raises(qs.WindowError, match="mn_bound 21 exceeds the order 20"):
        forms.hecke_compose_check(META12, d, 21)
    reports = forms.hecke_compose_check(META12, d, 20)
    last = reports[-1]
    assert all(r.ok for r in reports) and (last.m, last.n, last.order) == (20, 1, 1)


# Dirichlet characters as (level, table of chi(d mod level)); integer-valued
CHARACTERS = [
    (1, None),
    (4, {0: 0, 1: 1, 2: 0, 3: -1}),
    (5, {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}),
    (6, None),  # the principal character mod 6
]

_int_coeffs = st.integers(-(10**6), 10**6)
_frac_coeffs = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.one_of(
        st.lists(_int_coeffs, min_size=1, max_size=40),
        st.lists(_frac_coeffs, min_size=1, max_size=40),
    ),
    offset=st.sampled_from([0, 1]),
    k=st.sampled_from(range(2, 25, 2)),
    char=st.sampled_from(CHARACTERS),
    n=st.integers(1, 12),
)
def test_hecke_apply_matches_defining_formula(coeffs, offset, k, char, n):
    level, table = char
    meta = forms.FormMeta(weight=k, level=level, character=table)
    f = qs.QSeries(offset, coeffs)
    if len(coeffs) < n:
        with pytest.raises(qs.WindowError):
            forms.hecke_apply(f, meta, n)
        return
    want = naive_hecke(coeffs, offset, k, meta.eps, n)
    got = forms.hecke_apply(f, meta, n)
    assert got == qs.QSeries(0, want)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    offset=st.sampled_from([0, 1]),
    k=st.sampled_from(range(2, 25, 2)),
    char=st.sampled_from(CHARACTERS),
    mn_bound=st.integers(1, 36),
)
def test_hecke_composition_law_holds_for_every_series(data, offset, k, char, mn_bound):
    # T_m T_n = sum eps(d) d^(k-1) T_{mn/d^2} is an operator identity, so
    # it must hold on arbitrary integer series, not only on eigenforms
    level, table = char
    meta = forms.FormMeta(weight=k, level=level, character=table)
    size = data.draw(st.integers(mn_bound, 6 * mn_bound + 5))
    coeffs = data.draw(st.lists(_int_coeffs, min_size=size, max_size=size))
    f = qs.QSeries(offset, coeffs)
    reports = forms.hecke_compose_check(meta, f, mn_bound)
    assert [(r.m, r.n) for r in reports] == _pairs(mn_bound)
    for r in reports:
        assert r.ok, (r.m, r.n, r.first_mismatch)
        assert r.order == size // (r.m * r.n)


@pytest.mark.parametrize("mn_bound", [0, -1])
def test_hecke_compose_check_rejects_an_empty_comparison(mn_bound):
    # a bound below 1 names no pair, so "no mismatch" would claim nothing
    with pytest.raises(ValueError, match="mn_bound must be >= 1"):
        forms.hecke_compose_check(META12, forms.delta(10), mn_bound)


def test_hecke_compose_check_expands_each_t_j_once(monkeypatch):
    # one T_j f row per j <= 48, then one T_m per pair on the T_n f row
    real = forms._hecke_coeffs
    calls = []

    def counted(a, meta, n, out_order):
        calls.append((n, out_order))
        return real(a, meta, n, out_order)

    monkeypatch.setattr(forms, "_hecke_coeffs", counted)
    reports = forms.hecke_compose_check(forms.FormMeta(12), forms.delta(200), 48)
    assert len(reports) == 198
    assert len(calls) == 48 + 198
    assert calls[:48] == [(j, 200 // j) for j in range(1, 49)]


def test_hecke_compose_check_reports_first_mismatch(monkeypatch):
    # a kernel that is off by one in a single slot must surface as a mismatch
    real = forms._hecke_coeffs

    def skewed(a, meta, n, out_order):
        out = real(a, meta, n, out_order)
        if n == 4 and out_order > 3:
            out[3] += 1
        return out

    monkeypatch.setattr(forms, "_hecke_coeffs", skewed)
    # T_4 itself is skewed alike on both sides of (1, 4) and (4, 1)
    reports = forms.hecke_compose_check(META12, forms.delta(100), 4)
    (rep,) = [r for r in reports if not r.ok]
    assert (rep.m, rep.n, rep.order) == (2, 2, 25)
    j, lhs, rhs = rep.first_mismatch
    assert j == 3 and rhs - lhs == 1
    assert type(lhs) is int and type(rhs) is int


# -- eigenform checks ---------------------------------------------------------------------


def test_discriminant_is_eigenform_with_tau_eigenvalues():
    d = forms.delta(200)
    rep = forms.is_eigenform(d, META12, 12)
    assert rep.ok
    assert dict(rep.eigenvalues) == {n: forms.tau(n) for n in range(1, 13)}


def test_artificial_non_eigenform_detected():
    d = forms.delta(60)
    bump = qs.QSeries(0, [0, 0, 1] + [0] * 57)
    fake = qs.add(d, bump)  # coefficients 1, -23, 252, ...
    rep = forms.is_eigenform(fake, META12, 6)
    assert not rep.ok
    assert rep.first_failure is not None


def test_eigenform_requires_normalization():
    f = qs.scalar_mul(2, forms.delta(30))
    with pytest.raises(ValueError):
        forms.is_eigenform(f, META12, 4)


@pytest.mark.parametrize("n_max", [0, -3])
def test_eigenform_check_rejects_n_max_below_one(n_max):
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        forms.is_eigenform(forms.delta(30), META12, n_max)


@pytest.mark.parametrize("n_max", [1, 20])
def test_eigenform_check_with_no_comparable_index_raises(n_max):
    # delta(1) knows only q^1: every T_n has fewer than two coefficients to compare
    with pytest.raises(qs.WindowError, match="two comparable coefficients"):
        forms.is_eigenform(forms.delta(1), META12, n_max)


def test_eigenform_short_window_flagged_insufficient():
    f = qs.QSeries(0, [0, 1])
    rep = forms.is_eigenform(f, META12, 3)
    assert rep.ok  # nothing falsifiable
    assert set(rep.insufficient) == {2, 3}


# -- tau battery ------------------------------------------------------------------------


def test_tau_multiplicative_instance():
    assert forms.tau(6) == forms.tau(2) * forms.tau(3) == -6048


def test_tau_prime_power_recursion_instance():
    assert forms.tau(9) == forms.tau(3) ** 2 - 3**11 == -113643


def test_tau_congruence_small_instance():
    assert (forms.tau(1) - forms.sigma(11, 1)) % 691 == 0


def test_tau_property_battery_clean():
    report = forms.tau_properties_check(300)
    assert report.ok, report.violations[:5]


def test_tau_property_battery_reads_each_tau_once(monkeypatch):
    real = forms.tau
    reads = []

    def counting(n):
        reads.append(n)
        return real(n)

    monkeypatch.setattr(forms, "tau", counting)
    assert forms.tau_properties_check(300).ok
    assert reads == list(range(1, 301))


def test_tau_property_battery_divides_only_on_one_mod_eight(monkeypatch):
    # the mod-691 congruence lives in verify tau's E12 check; the battery
    # keeps trial division for mod 2^11, on n == 1 mod 8 alone
    real = forms.sigma
    calls = []

    def counting(k, n):
        calls.append((k, n))
        return real(k, n)

    monkeypatch.setattr(forms, "sigma", counting)
    assert forms.tau_properties_check(300).ok
    assert calls == [(11, n) for n in range(1, 301, 8)]


def test_tau_property_battery_catches_corruption():
    forms.clear_tau_fault()
    try:
        forms.inject_tau_fault()
        report = forms.tau_properties_check(50)
        assert not report.ok
    finally:
        forms.clear_tau_fault()


def test_tau_property_battery_catches_a_coefficient_past_deligne(monkeypatch):
    # tau(5) + 10^5 squares to about 1.1e10, past 4 * 5^11 = 1.95e8
    real = forms.tau
    monkeypatch.setattr(forms, "tau", lambda n: real(n) + (10**5 if n == 5 else 0))
    report = forms.tau_properties_check(100)
    assert "coefficient bound failed at p=5" in report.violations


def test_tau_property_battery_catches_a_mod_2048_break_alone(monkeypatch):
    # a sigma off by one at n = 9 breaks the congruence and nothing else
    real = forms.sigma
    monkeypatch.setattr(forms, "sigma", lambda k, n: real(k, n) + (n == 9))
    report = forms.tau_properties_check(100)
    assert report.violations == ("mod-2048 congruence failed at n=9",)


def test_tau_fault_survives_lock_free_refill(monkeypatch):
    monkeypatch.setattr(qs, "_ROWS", {})
    forms.clear_tau_fault()
    try:
        clean = forms.tau(2)
        forms.inject_tau_fault()
        assert forms.tau(2) == clean + 1
        forms.tau(200)  # past the end of the first row: the row grows
        assert forms.tau(2) == clean + 1
        assert forms.tau(3) == 252
    finally:
        forms.clear_tau_fault()


def test_a_second_tau_fault_changes_nothing(monkeypatch):
    monkeypatch.setattr(qs, "_ROWS", {})
    forms.clear_tau_fault()
    try:
        clean = forms.tau(2)
        forms.inject_tau_fault()
        forms.inject_tau_fault()
        assert forms.tau(2) == clean + 1
        forms.tau(200)  # past the end of the first row: the row grows
        assert forms.tau(2) == clean + 1
    finally:
        forms.clear_tau_fault()
    assert forms.tau(2) == clean == -24


def test_ascending_tau_reads_run_the_recurrence_once_per_coefficient(monkeypatch):
    want = list(forms.delta(1000).coeffs)
    real = qs._power
    steps = []

    def counting(a, e, n, head=()):
        steps.append(n - len(head))
        return real(a, e, n, head)

    monkeypatch.setattr(qs, "_power", counting)
    monkeypatch.setattr(qs, "_ROWS", {})
    assert [forms.tau(n) for n in range(1, 1001)] == want
    # the row grew 64 -> 128 -> ... -> 1024, each step from the known head
    assert len(steps) == 5
    assert sum(steps) == len(qs._ROWS[24]) == 1024


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: forms.sigma(11, 0), "sigma(k, n) requires n >= 1, got 0"),
        (lambda: forms.sigma(-1, 5), "sigma requires k >= 0, got -1"),
        (lambda: forms.eisenstein_e12(0), "order must be >= 1"),
        (lambda: forms.hecke_coset_reps(0), "n must be >= 1, got 0"),
        (
            lambda: forms.hecke_apply(forms.delta(10), forms.FormMeta(12), 0),
            "operator index must be >= 1, got 0",
        ),
        (lambda: forms.tau_properties_check(1), "n_max must be >= 2"),
    ],
    ids=["sigma-n", "sigma-k", "e12-order", "coset-index", "hecke-index", "tau-check-n_max"],
)
def test_forms_rejects_bad_input_with_its_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", [0, -1, -5])
def test_tau_rejects_an_index_below_one(n):
    with pytest.raises(ValueError, match="tau\\(n\\) requires n >= 1"):
        forms.tau(n)



@settings(max_examples=20, deadline=None)
@given(st.integers(1, 80))
def test_e12_stores_its_integral_coefficients_as_ints(order):
    e12 = forms.eisenstein_e12(order)
    assert type(e12.offset) is int and e12.offset == 0
    assert type(e12.coeffs[0]) is Fraction and e12.coeffs[0] == Fraction(691, 65520)
    assert all(type(c) is int for c in e12.coeffs[1:])
    as_fractions = [Fraction(691, 65520)]
    as_fractions += [Fraction(forms.sigma(11, n)) for n in range(1, order)]
    assert e12 == qs.QSeries(Fraction(0), tuple(as_fractions))
