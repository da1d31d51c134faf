import cmath
import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmodular import forms, geometry, lseries
from qmodular import qseries as qs

from conftest import dense_product_one_minus_qn, poly_mul


# -- mellin coefficients -------------------------------------------------------


def test_mellin_reads_cusp_coefficients():
    ds = lseries.mellin_coeffs(forms.delta(10))
    assert [int(c) for c in ds] == [
        1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
    ]


def test_mellin_zero_series():
    f = qs.QSeries(0, [0] * 6)
    ds = lseries.mellin_coeffs(f)
    assert all(c == 0 for c in ds)


def test_mellin_keeps_the_zeros_below_an_offset_above_one():
    ds = lseries.mellin_coeffs(qs.QSeries(2, (1, 2, 3)))
    assert ds == (0, 1, 2, 3)
    assert lseries.mellin_coeffs(qs.QSeries(4, ())) == (0, 0, 0)


def test_mellin_rejects_constant_term():
    with pytest.raises(ValueError):
        lseries.mellin_coeffs(qs.one(5))
    with pytest.raises(ValueError):
        lseries.mellin_coeffs(forms.eisenstein_e12(5))


def test_mellin_rejects_fractional_offset():
    with pytest.raises(ValueError):
        lseries.mellin_coeffs(forms.eta(5))


# -- Euler product coefficients ---------------------------------------------------


META12 = forms.FormMeta(12)


def _tau_primes(bound):
    return {p: forms.tau(p) for p in forms.primes_up_to(bound)}


def test_euler_product_unit():
    ep = lseries.euler_product_coeffs(_tau_primes(3), META12, 10)
    assert ep[1] == 1
    assert lseries.euler_product_coeffs({}, META12, 10) == {1: 1}


def test_euler_product_prime_square_recursion():
    ep = lseries.euler_product_coeffs(_tau_primes(2), META12, 8)
    assert ep[4] == forms.tau(2) ** 2 - 2**11 == -1472


def test_euler_product_multiplicativity():
    ep = lseries.euler_product_coeffs(_tau_primes(3), META12, 10)
    assert ep[6] == forms.tau(2) * forms.tau(3) == -6048


def test_euler_product_smoothness_flags():
    ep = lseries.euler_product_coeffs(_tau_primes(3), META12, 10)
    assert list(ep) == [1, 2, 3, 4, 6, 8, 9]  # 5, 7 and 10 are not 3-smooth


def test_euler_product_refuses_a_float_prime_value():
    # 0.5 would give c(4) = -2047.75, a float no exact route can match
    with pytest.raises(TypeError, match="not an exact rational: float 0.5"):
        lseries.euler_product_coeffs({2: 0.5, 3: 1}, META12, 10)


def test_euler_product_missing_prime_rejected():
    # the largest key up to n_max is 5, so the gap at 3 is named
    with pytest.raises(ValueError, match=r"missing for \[3\]"):
        lseries.euler_product_coeffs({2: -24, 5: 4830}, META12, 10)


def test_euler_product_tests_a_key_above_n_max_without_sieving_to_it(monkeypatch):
    sieved = []
    real = forms.primes_up_to
    monkeypatch.setattr(forms, "primes_up_to", lambda n: sieved.append(n) or real(n))
    # 10^7 + 19 is prime, and it divides no n <= 10
    assert lseries.euler_product_coeffs({10**7 + 19: 1}, META12, 10) == {1: 1}
    assert max(sieved) <= math.isqrt(10**7 + 19)


def test_euler_product_names_only_missing_primes_up_to_n_max():
    prime_values = {2: -24, 7: -16744, 101: 1, 10**7 + 19: 1}
    with pytest.raises(ValueError, match=re.escape("prime values missing for [3, 5]") + "$"):
        lseries.euler_product_coeffs(prime_values, META12, 50)


@pytest.mark.parametrize(
    "prime_values, named",
    [
        ({2: -24, 3: 252, 4: 7}, "[4]"),
        ({1: 5}, "[1]"),
        ({2: -24, 6: 1, 0: 3}, "[0, 6]"),
        ({10**7 + 20: 1}, "[10000020]"),
        ({2: -24, 3: 252, 25: 1, 10**7 + 19: 1}, "[25]"),
    ],
    ids=["composite", "one", "zero-and-composite", "composite-above-n_max", "square-above-n_max"],
)
def test_euler_product_rejects_keys_that_are_not_prime(prime_values, named):
    with pytest.raises(ValueError, match=re.escape(f"keys {named} are not prime")):
        lseries.euler_product_coeffs(prime_values, META12, 10)


def test_euler_product_tests_an_18_digit_key_without_sieving():
    # 10^18 + 3 is prime; a sieve to its square root would take 10^9 bytes
    got = lseries.euler_product_coeffs({2: -24, 10**18 + 3: 1}, META12, 10)
    assert got == {1: 1, 2: -24, 4: -1472, 8: 84480}


def test_euler_product_rejects_an_18_digit_composite_key():
    # 10^18 + 1 = 101 * 9901 * 999999000001
    message = "keys [1000000000000000001] are not prime"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        lseries.euler_product_coeffs({10**18 + 1: 1}, META12, 10)


@pytest.mark.parametrize("key", [lseries._MR_EXACT_BELOW, 10**30])
def test_euler_product_refuses_a_key_past_the_exact_primality_range(key):
    with pytest.raises(ValueError, match=f"key {key} is too large to test for primality"):
        lseries.euler_product_coeffs({key: 1}, META12, 10)


def test_primality_test_agrees_with_the_sieve():
    sieved = set(forms.primes_up_to(200_000))
    assert {n for n in range(2, 200_001) if lseries._is_prime(n)} == sieved


def test_primality_test_rejects_the_strong_pseudoprime_to_bases_2_to_37():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin at every prime base up to 37
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not lseries._is_prime(318665857834031151167461)


@pytest.mark.parametrize("n_max", [0, -3])
def test_euler_product_rejects_n_max_below_1(n_max):
    with pytest.raises(ValueError, match="n_max"):
        lseries.euler_product_coeffs(_tau_primes(3), META12, n_max)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: lseries.mellin_coeffs(qs.QSeries(0, (0,))),
            "window too short: no coefficients at exponent >= 1",
        ),
        (lambda: lseries.zeta_em(1), "zeta has a pole at s = 1"),
    ],
    ids=["mellin-window-too-short", "zeta-pole"],
)
def test_lseries_rejects_bad_input_with_its_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_euler_product_matches_expansion_13_smooth():
    mell = lseries.mellin_coeffs(forms.delta(200))
    ep = lseries.euler_product_coeffs(_tau_primes(13), META12, 200)
    for n, c in ep.items():
        assert c == mell[n - 1]
    assert len(ep) > 60


def _euler_coeff_by_factoring(prime_values, meta, n):
    """c(n) from the trial-division factorization of n; None if n is not smooth."""
    acc, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            if p not in prime_values:
                return None
            prev, cur = 1, prime_values[p]  # c(p^0), c(p^1)
            for _ in range(e - 1):
                prev, cur = cur, prime_values[p] * cur - meta.hecke_weight(p) * prev
            acc *= cur
        p += 1
    return acc


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    bound=st.integers(1, 23),
    k=st.sampled_from(range(2, 25, 2)),
    level=st.sampled_from([1, 4, 5, 11]),
    n_max=st.integers(1, 600),
)
def test_euler_product_is_the_factored_product_on_the_smooth_n(data, bound, k, level, n_max):
    prime_values = {
        p: data.draw(st.integers(-(10**6), 10**6), label=f"c({p})")
        for p in forms.primes_up_to(bound)
    }
    meta = forms.FormMeta(k, level)
    ep = lseries.euler_product_coeffs(prime_values, meta, n_max)
    by_factoring = {
        n: c
        for n in range(1, n_max + 1)
        if (c := _euler_coeff_by_factoring(prime_values, meta, n)) is not None
    }
    assert list(ep) == list(by_factoring)  # the bound-smooth n, ascending
    assert ep == by_factoring


# -- dirichlet evaluation ------------------------------------------------------------


def test_dirichlet_eval_zero_series():
    f = qs.QSeries(1, (Fraction(0),) * 10)
    val = lseries.dirichlet_eval(f, 9.0, META12)
    assert val.value == 0.0
    assert val.tail_bound < math.inf


def test_dirichlet_eval_outside_convergence_region():
    with pytest.raises(ValueError):
        lseries.dirichlet_eval(forms.delta(50), 4.0, META12)


def test_dirichlet_eval_tail_bound_shrinks():
    short = forms.delta(100)
    long = forms.delta(1000)
    v1 = lseries.dirichlet_eval(short, 9.0, META12)
    v2 = lseries.dirichlet_eval(long, 9.0, META12)
    assert v2.tail_bound < v1.tail_bound
    assert abs(v1.value - v2.value) <= v1.tail_bound + v2.tail_bound


def test_tail_bound_of_a_truncated_series_is_the_bound_of_the_short_one():
    # the weight comes with the FormMeta, not the series, so slicing loses nothing
    via_cut = forms.delta(1000).truncate(500)
    direct = forms.delta(500)
    assert lseries.mellin_coeffs(via_cut) == lseries.mellin_coeffs(direct)
    assert lseries.dirichlet_eval(via_cut, 7.5, META12) == lseries.dirichlet_eval(
        direct, 7.5, META12
    )
    assert lseries.dirichlet_eval(direct, 7.5, META12).tail_bound > 0.1
    with pytest.raises(ValueError):
        lseries.dirichlet_eval(via_cut, 3.0, META12)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: lseries.dirichlet_eval(forms.delta(10), math.nan, META12),
            "outside the guaranteed convergence region",
        ),
        (lambda: lseries.rs_theta(math.nan), "asymptotic phase needs t >= 1"),
        (lambda: lseries.rs_theta(math.inf), "asymptotic phase needs t >= 1"),
        (
            lambda: geometry.weak_maass_series(
                [(1.0, 1.0, 1.0, 2.0)], complex(0.0, math.nan)
            ),
            "need Im(z) > 0",
        ),
        (
            lambda: geometry.weak_maass_series([(math.nan, 1.0, 1.0, 2.0)], 0.6j),
            "r_a must be >= 0 and finite, got nan",
        ),
        (
            lambda: geometry.weak_maass_series([(-math.inf, 1.0, 1.0, 2.0)], 0.6j),
            "r_a must be >= 0 and finite, got -inf",
        ),
        (
            lambda: geometry.weak_maass_series([(-1.0, 1.0, 1.0, 2.0)], 0.6j),
            "r_a must be >= 0 and finite, got -1.0",
        ),
        (
            lambda: geometry.weak_maass_series(
                [(1.0, 1.0, 1.0, 2.0)], complex(math.inf, 0.6)
            ),
            "need a finite z",
        ),
        (
            lambda: geometry.weak_maass_series(
                [(1.0, 1.0, 1.0, 1.0)], complex(0.0, math.inf)
            ),
            "need a finite z",
        ),
        (
            lambda: geometry.weak_maass_series(
                [(1.0, 1.0, 1.0, 2.0)], complex(0.0, math.inf)
            ),
            "need a finite z",
        ),
        (
            lambda: lseries.rs_theta(1.7e308),
            "asymptotic phase at t = 1.7e+308 is past the float range",
        ),
        (lambda: lseries.z_function(1e300), "zeta_em needs |Im s| <= 10000"),
        (
            lambda: geometry.weak_maass_series([(1e308, 1.0, 1.0, 2.0)], 0.6j),
            "term n=1 (1e+308, 1.0, 1.0, 2.0) overflows the float range at z=0.6j",
        ),
        (
            lambda: geometry.weak_maass_series([(1.0, 1.0, 1.0, 2.0)], 200j),
            "term n=1 (1.0, 1.0, 1.0, 2.0) overflows the float range at z=200j",
        ),
    ],
    ids=[
        "dirichlet_eval",
        "rs_theta",
        "rs_theta-inf",
        "weak_maass_series",
        "weak_maass_series-r_a-nan",
        "weak_maass_series-r_a-minus-inf",
        "weak_maass_series-r_a-negative",
        "weak_maass_series-re-z-inf",
        "weak_maass_series-im-z-inf-circle",
        "weak_maass_series-im-z-inf-ellipse",
        "rs_theta-phase-past-float-range",
        "z_function-large-t",
        "weak_maass_series-r_a-overflows",
        "weak_maass_series-growing-mode-overflows",
    ],
)
def test_nan_argument_is_rejected(call, message):
    # a guard written as `x <= bound` lets nan through, and one with no upper
    # end lets inf through; each is `not lo <= x < hi` or an explicit finiteness test
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_tail_bar_at_weight_16():
    # f = Delta * E4 spans S_16, so it is the normalized eigenform of weight 16
    order = 1000
    e4 = qs.QSeries(0, (1, *(240 * forms.sigma(3, n) for n in range(1, order))))
    f = qs.mul(forms.delta(order), e4)
    assert f.coeffs[:4] == (1, 216, -3348, 13888)
    meta16 = forms.FormMeta(16)
    assert forms.is_eigenform(f, meta16, 20).ok
    short = f.truncate(200)
    long = f
    # the barrier k/2 + 1 is 9 at weight 16 and 7 at weight 12
    with pytest.raises(ValueError, match="s > 9.0"):
        lseries.dirichlet_eval(short, 8.5, meta16)
    assert lseries.dirichlet_eval(short, 8.5, META12).tail_bound < math.inf
    for s in (9.5, 10.0, 12.0):
        near = lseries.dirichlet_eval(short, s, meta16)
        far = lseries.dirichlet_eval(long, s, meta16)
        assert abs(near.value - far.value) <= near.tail_bound, s


# float.hex of dirichlet_eval's (value, tail_bound) to order 1000; every bit
# must stay the same
DELTA_DIRICHLET_HEX = {
    7.5: ("0x1.d09395af4b797p-1", "0x1.030dc4ea03a72p-3"),
    8.0: ("0x1.dc85a210c0c08p-1", "0x1.0624dd2f1a9fcp-9"),
    9.0: ("0x1.ec9bd6de1642ep-1", "0x1.0c6f7a0b5ed8dp-20"),
    10.0: ("0x1.f5a9896cb9a7cp-1", "0x1.6e80fe033c8c7p-31"),
}
DELTA_E4_DIRICHLET_HEX = {
    9.5: ("0x1.39bfc3c330432p+0", "0x1.030dc4ea03a72p-3"),
    10.0: ("0x1.2ad0174227816p+0", "0x1.0624dd2f1a9fcp-9"),
    12.0: ("0x1.0c1b1afe89bebp+0", "0x1.6e80fe033c8c7p-31"),
}


def test_dirichlet_values_are_bit_stable():
    order = 1000
    e4 = qs.QSeries(0, (1, *(240 * forms.sigma(3, n) for n in range(1, order))))
    delta = forms.delta(order)
    for f, meta, pins in [
        (delta, META12, DELTA_DIRICHLET_HEX),
        (qs.mul(delta, e4), forms.FormMeta(16), DELTA_E4_DIRICHLET_HEX),
    ]:
        for s, hexes in pins.items():
            got = lseries.dirichlet_eval(f, s, meta)
            assert (got.value.hex(), got.tail_bound.hex()) == hexes, s


# -- completed values -----------------------------------------------------------------


def test_lambda_center_of_symmetry():
    lam = lseries.completed_lambda_integral(6.0)
    assert lam.quadrature_error < 1e-12
    assert lam.value == pytest.approx(0.00154487936, rel=1e-6)


def test_lambda_functional_equation_pairs():
    for s in (4.0, 5.0, 8.0, 9.0):
        a = lseries.completed_lambda_integral(s)
        b = lseries.completed_lambda_integral(12.0 - s)
        assert abs(a.value - b.value) / abs(a.value) < 1e-8


def test_lambda_vs_dirichlet_gamma_route():
    ds = forms.delta(1000)
    for s in (8.0, 9.0, 10.0):
        integral = lseries.completed_lambda_integral(s)
        partial = lseries.dirichlet_eval(ds, s, META12)
        prefactor = (2 * math.pi) ** (-s) * math.gamma(s)
        direct = prefactor * partial.value
        combined = prefactor * partial.tail_bound + integral.quadrature_error
        assert abs(direct - integral.value) <= combined
        # the two pipelines in fact agree far better than the bars
        assert abs(direct - integral.value) < 1e-8 * abs(integral.value)


def test_lambda_is_bit_equal_after_calls_at_other_s():
    first = lseries.completed_lambda_integral(5.0)
    for s in (0.5, 3.0, 7.0, 11.5):
        lseries.completed_lambda_integral(s)
    assert lseries.completed_lambda_integral(5.0) == first


def test_lambda_follows_a_tau_fault_and_returns_to_the_clean_value():
    clean = lseries.completed_lambda_integral(5.0)
    forms.inject_tau_fault()
    try:
        faulty = lseries.completed_lambda_integral(5.0)
    finally:
        forms.clear_tau_fault()
    assert faulty.value != clean.value
    assert lseries.completed_lambda_integral(5.0) == clean


def test_lambda_reads_15_tau_terms_and_sums_each_node_once_per_call(monkeypatch):
    tau_reads, node_sums = [], []
    real_tau, real_sum = forms.tau, lseries._cusp_exp_sum
    monkeypatch.setattr(forms, "tau", lambda n: tau_reads.append(n) or real_tau(n))
    monkeypatch.setattr(
        lseries, "_cusp_exp_sum", lambda y, row: node_sums.append(y) or real_sum(y, row)
    )
    assert lseries._TAU_TERMS == 15
    for s in (3.0, 4.0, 5.0, 7.0, 5.0):
        tau_reads.clear()
        node_sums.clear()
        lseries.completed_lambda_integral(s)
        assert sorted(tau_reads) == list(range(1, lseries._TAU_TERMS + 1))
        assert len(node_sums) == len(lseries._NODES) == len(lseries._TS_RULE) == 225


def _lambda_bits_by_terms(s_values, terms):
    """(value.hex(), bar.hex()) at each s from a row of ``terms`` tau values.

    Built from the kernel's parts with the kernel's operation order, so
    only the number of tau terms differs from completed_lambda_integral.
    """
    row = tuple(float(forms.tau(n)) for n in range(terms, 0, -1))
    nodes = [1.0 + 11.0 * frac for frac, _, _ in lseries._TS_RULE]
    sums = [lseries._cusp_exp_sum(y, row) for y in nodes]
    series_tail = 8.0 * (terms + 1) ** 6 * math.exp(-2.0 * math.pi * (terms + 1)) * 11.0
    bits = []
    for s in s_values:
        a, b = s - 1.0, 11.0 - s
        value, err = lseries._tanh_sinh([f * (y**a + y**b) for y, f in zip(nodes, sums)], 11.0)
        tail_cut = lseries._cut_tail_bound(s, 12.0) + lseries._cut_tail_bound(12.0 - s, 12.0)
        bits.append((value.hex(), (err + tail_cut + series_tail).hex()))
    return bits


_BITS_S = (0.01, *(k / 20 for k in range(1, 240)), 11.99)


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "tau-fault"])
def test_lambda_with_15_tau_terms_is_bit_equal_to_48(fault):
    """Every value and bar of the 15-term kernel equals a 48-term sum's bit
    for bit, on and off the test fault; with 14 terms every bar moves, so
    15 is verified rather than guessed.
    """
    if fault:
        forms.inject_tau_fault()
    try:
        reference = _lambda_bits_by_terms(_BITS_S, 48)
        got = [
            (lam.value.hex(), lam.quadrature_error.hex())
            for lam in map(lseries.completed_lambda_integral, _BITS_S)
        ]
        short = _lambda_bits_by_terms(_BITS_S, lseries._TAU_TERMS - 1)
    finally:
        forms.clear_tau_fault()
    assert got == reference
    assert all(bar != ref_bar for (_, bar), (_, ref_bar) in zip(short, reference))


def test_lambda_is_one_quadrature_pass_per_value(monkeypatch):
    passes = []
    real = lseries._tanh_sinh
    monkeypatch.setattr(lseries, "_tanh_sinh", lambda v, w: passes.append(w) or real(v, w))
    for s in (3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0):
        lseries.completed_lambda_integral(s)
    assert passes == [11.0] * 7


@pytest.mark.parametrize("s", [3.0, 4.0, 5.0])
def test_lambda_is_bit_symmetric_under_s_to_12_minus_s(s):
    a = lseries.completed_lambda_integral(s)
    b = lseries.completed_lambda_integral(12.0 - s)
    assert (a.value.hex(), a.quadrature_error.hex()) == (b.value.hex(), b.quadrature_error.hex())


def test_lambda_rejects_out_of_strip():
    with pytest.raises(ValueError):
        lseries.completed_lambda_integral(0.0)
    with pytest.raises(ValueError):
        lseries.completed_lambda_integral(12.5)


# -- zeta machinery --------------------------------------------------------------------


def test_zeta_em_against_mpmath_real_axis():
    for s in (2.0, 3.0, 5.5):
        assert lseries.zeta_em(complex(s, 0)) == pytest.approx(
            float(mpmath.zeta(s)), rel=1e-12
        )


def test_zeta_em_against_mpmath_critical_line():
    for t in (5.0, 14.0, 30.0, 80.0):
        ours = lseries.zeta_em(complex(0.5, t))
        ref = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
        assert ours == pytest.approx(ref, rel=1e-10)


# the remainder zeta_em promises wherever its term cap does not bind
_EM_EPS = 1e-13


def _em_remainder_bound(s: complex, n_terms: int) -> float:
    """Edwards (1974, sec. 6.4): the remainder after the B_16 correction is at
    most |s + 17| / (sigma + 17) times |B_18| / 18! |s (s+1) ... (s+16)| N^(-sigma-17)."""
    b18 = Fraction(43867, 798) / math.factorial(18)
    pochhammer = math.prod(abs(s + j) for j in range(17))
    head = abs(s + 17) / (s.real + 17) * float(b18) * pochhammer
    return head * n_terms ** -(s.real + 17)


def _em_cap(s: complex) -> int:
    """The term count zeta_em used before its remainder bound chose N."""
    return max(24, int(2.0 * abs(s.imag)) + 8)


def _zeta_em_term_by_term(s: complex) -> complex:
    """Reference Euler-Maclaurin sum: one math.log and one += per term."""
    n_terms = lseries._zeta_em_terms(s)
    total = complex(0.0)
    for n in range(1, n_terms):
        total += cmath.exp(-s * math.log(n))
    n_s = cmath.exp(-s * math.log(n_terms))
    total += n_terms * n_s / (s - 1.0)
    total += 0.5 * n_s
    poch = s
    fact = 1.0
    for k, b2k in enumerate(lseries._BERNOULLI_2K, start=1):
        fact *= (2 * k - 1) * (2 * k)
        total += b2k / fact * poch * cmath.exp((1.0 - s - 2.0 * k) * math.log(n_terms))
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return total


_ZETA_TS = (0.0, 3.7, 14.134725, 30.0, 49.9, 143.1, 399.9)


@pytest.mark.parametrize("t, n_terms", [(10.0, 11), (50.0, 43), (143.0, 122), (1e4, 9602)])
def test_zeta_em_term_count_on_the_critical_line(t, n_terms):
    assert lseries._zeta_em_terms(complex(0.5, t)) == n_terms


@pytest.mark.parametrize(
    "s",
    [complex(0.5, t) for t in _ZETA_TS]
    + [complex(2.0, 0.0), complex(5.5, 7.0), complex(-1.5, 30.0), complex(-2.0, 1e3), 0.5 + 1e4j],
)
def test_zeta_em_term_count_is_the_smallest_under_the_remainder_bound(s):
    n_terms, cap = lseries._zeta_em_terms(s), _em_cap(s)
    assert 1 <= n_terms <= cap
    if n_terms < cap:
        assert _em_remainder_bound(s, n_terms) <= _EM_EPS * (1 + 1e-9)
    if n_terms > 1:
        assert _em_remainder_bound(s, n_terms - 1) > _EM_EPS * (1 - 1e-9)


def test_zeta_em_is_bit_identical_whatever_order_grew_the_log_table(monkeypatch):
    fresh = {}
    for t in _ZETA_TS:
        monkeypatch.setattr(lseries, "_LOGS", [-math.inf])
        fresh[t] = lseries.zeta_em(complex(0.5, t))
    # grown step by step, then grown once by the largest t and only read
    for order in (sorted(_ZETA_TS), [max(_ZETA_TS)] + sorted(_ZETA_TS)):
        monkeypatch.setattr(lseries, "_LOGS", [-math.inf])
        for t in order:
            assert lseries.zeta_em(complex(0.5, t)) == fresh[t], (order, t)
        assert len(lseries._LOGS) == lseries._zeta_em_terms(complex(0.5, max(_ZETA_TS))) + 1


def test_zeta_em_matches_a_term_by_term_loop():
    for t in _ZETA_TS:
        for sigma in (0.5, 2.0, -1.5):
            s = complex(sigma, t)
            ours, ref = lseries.zeta_em(s), _zeta_em_term_by_term(s)
            if sys.version_info[:2] == (3, 11):
                # same operands in the same order, and sum() adds them plainly
                assert ours == ref, s
            else:
                # ulps of the largest partial sum, which bounds every rounding
                n_terms = lseries._zeta_em_terms(s)
                scale = sum(n ** -sigma for n in range(1, n_terms))
                assert abs(ours - ref) <= 4 * math.ulp(scale), s


@settings(max_examples=150, deadline=None)
@given(sigma=st.floats(-2.0, 6.0), t=st.floats(-1000.0, 1000.0))
def test_zeta_em_is_within_its_remainder_bound_of_mpmath(sigma, t):
    s = complex(sigma, t)
    # near the pole the value is too large to compare, and within ~1e-20 of
    # s = 0 mpmath's zeta is wrong (-0.5 - 0.5j at s = 1e-300 (i - 1))
    assume(abs(s - 1) > 1e-3 and abs(s) > 1e-6)
    n_terms = lseries._zeta_em_terms(s)
    assert n_terms <= _em_cap(s)
    ref = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
    # Each term exp(-s log n) is off by a few units of its rounded exponent,
    # whose size is about |s| log n; the remainder bound is at most eps
    # wherever the cap leaves N free.
    rounding = 4 * 2.0**-52 * math.fsum(
        n ** -sigma * (1.0 + abs(s) * math.log(n)) for n in range(1, n_terms + 1)
    )
    remainder = max(_EM_EPS, _em_remainder_bound(s, n_terms))
    assert abs(lseries.zeta_em(s) - ref) <= remainder + rounding


@pytest.mark.parametrize(
    "s",
    [
        complex(0.5, 1e12),
        complex(0.5, -10000.5),
        complex(math.nan, 14.0),
        complex(0.5, math.nan),
        complex(math.inf, 0.0),
        complex(0.5, -math.inf),
        complex(-10.0, 3.0),
        complex(-15.5, 0.0),
        complex(-40.0, 0.0),
        complex(-2.0 - 1e-12, 0.0),
    ],
)
def test_zeta_em_refuses_a_nonfinite_or_far_s_before_any_work(monkeypatch, s):
    monkeypatch.setattr(lseries, "_LOGS", [-math.inf])
    with pytest.raises(ValueError, match="zeta_em needs"):
        lseries.zeta_em(s)
    assert lseries._LOGS == [-math.inf]


def test_zeta_em_sums_one_term_where_the_remainder_vanishes():
    # at s = 0, -1, -2 the Euler-Maclaurin formula is exact for any N
    for s, value in ((0.0, -0.5), (-1.0, -1 / 12), (-2.0, 0.0)):
        assert lseries._zeta_em_terms(complex(s)) == 1
        assert lseries.zeta_em(s) == pytest.approx(value, rel=1e-15, abs=1e-16)


@pytest.mark.parametrize("s", [800.0, 2000.0, 1e21, 1e300, complex(1e21, 5.0)])
def test_zeta_em_is_one_far_right(s):
    # n^(-s) is below the smallest double for n >= 2; far right the
    # Bernoulli corrections' Pochhammer factor overflows
    assert lseries.zeta_em(s) == 1


def test_zeta_em_at_the_height_bound_caps_the_log_table(monkeypatch):
    monkeypatch.setattr(lseries, "_LOGS", [-math.inf])
    s = complex(0.5, 1e4)
    assert lseries.zeta_em(s) == pytest.approx(
        complex(mpmath.zeta(mpmath.mpc(0.5, 1e4))), abs=1e-9
    )
    assert len(lseries._LOGS) == 9603  # log n for n <= 9602, from the remainder bound
    # at the left edge the bound asks for more than the cap of 2 * 10^4 + 8
    far = complex(-2.0, 1e4)
    assert lseries.zeta_em(far) == pytest.approx(
        complex(mpmath.zeta(mpmath.mpc(-2.0, 1e4))), rel=1e-8
    )
    assert len(lseries._LOGS) == 20009


def test_rs_theta_against_mpmath():
    for t in (10.0, 14.13, 50.0, 120.0):
        assert lseries.rs_theta(t) == pytest.approx(
            float(mpmath.siegeltheta(t)), abs=1e-8
        )
    # the t^-3 and t^-5 corrections underflow to 0.0 here instead of overflowing
    for t in (1e100, 1e300):
        assert lseries.rs_theta(t) == pytest.approx(
            float(mpmath.siegeltheta(t)), rel=1e-14
        )


@pytest.mark.parametrize(
    "t, bits",
    [
        (4.2, "-0x1.aab2f5923b8b2p+1"),
        (10.0, "-0x1.8895e4d14bdfcp+1"),
        (14.134725, "-0x1.ba8a2315c2eb9p+0"),
        (100.0, "0x1.5fe37f4853567p+6"),
        (400.0, "0x1.3b2994a81b2eap+9"),
    ],
)
def test_rs_theta_bits_are_pinned(t, bits):
    # the zero scan's sign tests read these bits, so the form of the
    # correction terms must not move them
    assert lseries.rs_theta(t).hex() == bits


def _borwein_zeta(s: complex, n: int = 80) -> complex:
    """Independent alternating-series evaluation (oracle only).

    Chebyshev-weighted acceleration of the eta series with weights
    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!); the error decays
    like (3 + sqrt(8))^(-n) modulo an |Im s|-dependent factor, ample
    for the desk-scale ordinates used here.
    """
    running = Fraction(0)
    d = []
    for i in range(n + 1):
        running += Fraction(
            math.factorial(n + i - 1) * 4**i,
            math.factorial(n - i) * math.factorial(2 * i),
        )
        d.append(n * running)
    d_n = float(d[n])
    total = complex(0.0)
    for k in range(n):
        sign = 1.0 if k % 2 == 0 else -1.0
        total += sign * (float(d[k]) - d_n) * cmath.exp(-s * math.log(k + 1))
    denom = d_n * (1.0 - cmath.exp((1.0 - s) * math.log(2.0)))
    return -total / denom


def test_borwein_oracle_self_check():
    # the oracle must itself match a trusted value before it referees
    assert _borwein_zeta(complex(2.0, 0.0)).real == pytest.approx(
        math.pi**2 / 6, rel=1e-10
    )
    ref = complex(mpmath.zeta(mpmath.mpc(0.5, 14.0)))
    assert _borwein_zeta(complex(0.5, 14.0)) == pytest.approx(ref, rel=1e-8)


def test_first_ordinate_against_fine_grid_oracle_scan():
    zeros = lseries.zeta_zero_spacings(3)

    def oracle_z(t: float) -> float:
        rotated = cmath.exp(1j * lseries.rs_theta(t)) * _borwein_zeta(complex(0.5, t))
        return rotated.real

    # scan at 10x the library's default resolution, then bisect the oracle
    step = 0.02
    t = 13.5
    bracket = None
    while t < 15.0:
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
    gamma1_oracle = 0.5 * (lo + hi)
    assert abs(zeros.gammas[0] - gamma1_oracle) < 1e-4


def test_zero_list_shape_and_residuals():
    zeros = lseries.zeta_zero_spacings(10)
    assert len(zeros.gammas) == 10
    assert len(zeros.spacings) == 9
    assert all(s > 0 for s in zeros.spacings)
    assert all(r < 1e-4 for r in zeros.residuals)
    assert all(abs(lseries.z_function(g)) < 1e-4 for g in zeros.gammas)


def test_zeros_against_mpmath_reference():
    zeros = lseries.zeta_zero_spacings(10)
    for k, g in enumerate(zeros.gammas, start=1):
        ref = float(mpmath.im(mpmath.zetazero(k)))
        assert abs(g - ref) < 5e-6


def test_zero_count_guard_rejects_absurd_requests():
    with pytest.raises(ValueError):
        lseries.zeta_zero_spacings(0)
    with pytest.raises(ValueError):
        lseries.zeta_zero_spacings(51)


_REAL_Z = lseries.z_function


@pytest.mark.parametrize(
    "z, count, message",
    [
        (lambda t: 1.0, 3, "scan ran away"),
        (lambda t: 1.0 if t < 10 else -1.0, 3, "refinement residual 1 at t=10.000000"),
        # |Z| on 20 < t < 26 hides gamma_2 = 21.02 and gamma_3 = 25.01
        (
            lambda t: abs(_REAL_Z(t)) if 20 < t < 26 else _REAL_Z(t),
            5,
            r"zero count 5 up to t=\S+ falls short of the counting function \(6\.57\)",
        ),
    ],
    ids=["no-sign-change", "spurious-bracket", "hidden-pair"],
)
def test_zero_scan_raises_bracketing_error(monkeypatch, z, count, message):
    monkeypatch.setattr(lseries, "z_function", z)
    with pytest.raises(lseries.BracketingError, match=message):
        lseries.zeta_zero_spacings(count)


def test_zero_list_validates_ordering():
    with pytest.raises(ValueError):
        lseries.ZeroList((2.0, 1.0), (0.0, 0.0))


def _tau_by_dense_power(count: int) -> list:
    """tau(1..count) as the 24th power of the dense pentagonal product."""
    eta1 = dense_product_one_minus_qn(1, count)
    p = poly_mul(poly_mul(eta1, eta1, count), eta1, count)
    for _ in range(3):
        p = poly_mul(p, p, count)
    return [None] + p  # tau(n) = coefficient of q^(n-1)


# s values of the two oracle tests, the strip edges 0.01 and 11.99 included
_ORACLE_S = (0.01, 0.5, 1, *range(3, 11), 6.5, 11, 11.5, 11.99)


def test_lambda_error_bar_holds_against_mpmath_oracle():
    """|Lambda(s) - oracle| <= quadrature_error <= 1e-12 |Lambda(s)|.

    The oracle is integral_1^inf F(iy) (y^(s-1) + y^(11-s)) dy at 40
    digits with 64 tau terms, integrated term by term in closed form:
    integral_1^inf exp(-2 pi n y) y^(a-1) dy = (2 pi n)^(-a) Gamma(a, 2 pi n).
    The upper bound on the bar keeps it from being inflated past use.
    """
    taus = _tau_by_dense_power(64)
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for s in _ORACLE_S:
            s_mp = mpmath.mpf(s)
            oracle = mpmath.fsum(
                taus[n]
                * sum((two_pi * n) ** -a * mpmath.gammainc(a, two_pi * n) for a in (s_mp, 12 - s_mp))
                for n in range(1, 65)
            )
            lam = lseries.completed_lambda_integral(float(s))
            assert abs(mpmath.mpf(lam.value) - oracle) <= lam.quadrature_error, s
            assert lam.quadrature_error <= 1e-12 * abs(lam.value), s


def test_lambda_cut_tail_bound_is_sharp_and_safe():
    """The y > y_cut majorant is below 1e-20 at the default cut, and above
    the exact integral_Y^inf exp(-2 pi y) y^(s-1) dy = (2 pi)^(-s) Gamma(s, 2 pi Y).
    """
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        for s in _ORACLE_S:
            assert lseries._cut_tail_bound(float(s), 12.0) < 1e-20, s
            for y_cut in (2.0, 4.0, 12.0):
                exact = two_pi ** -s * mpmath.gammainc(s, two_pi * y_cut)
                # the bound before its safety factor of 2 must already hold
                assert exact <= lseries._cut_tail_bound(float(s), y_cut) / 2, (s, y_cut)
