import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodular import qseries as qs
from qmodular.qseries import QSeries, WindowError

from conftest import (
    dense_product_one_minus_qn,
    enumerate_partitions,
    naive_inverse,
    power_by_terms,
)


# -- construction and the window contract -----------------------------------------


def test_series_constant_one():
    f = qs.QSeries(0, [1])
    assert f.coeff(0) == 1
    assert f.order == 1


def test_series_eta_leading_terms():
    # hand expansion of q^(1/24) (1 - q - q^2 + ...) to two terms
    f = qs.QSeries(Fraction(1, 24), [1, -1])
    assert f.coeff(Fraction(1, 24)) == 1
    assert f.coeff(Fraction(25, 24)) == -1


def test_out_of_window_read_is_an_error():
    f = qs.QSeries(Fraction(1, 2), [1])
    with pytest.raises(WindowError):
        f.coeff(Fraction(3, 2))


def test_below_window_and_off_lattice_reads_are_zero():
    f = qs.QSeries(1, [5, 7])
    assert f.coeff(0) == 0
    assert f.coeff(Fraction(1, 2)) == 0
    assert f.coeff(Fraction(3, 2)) == 0


def test_length_mismatch_rejected():
    obj = {"offset_num": 0, "offset_den": 1, "order": 3, "coeffs": [[1, 1], [2, 1]]}
    with pytest.raises(ValueError, match="coefficient count 2 does not match order 3"):
        qs.from_json_obj(obj)


def test_non_24_smooth_offset_rejected():
    with pytest.raises(ValueError):
        qs.QSeries(Fraction(1, 5), [1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: qs.rational(0.1),
        lambda: QSeries(0, [1, 0.1]),
        lambda: QSeries(0.5, [1]),
        lambda: QSeries(0, [1, 2]).coeff(0.5),
    ],
    ids=["rational", "coefficient", "offset", "coeff"],
)
def test_float_is_refused_not_expanded(call):
    # a float would be stored as its binary expansion: 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError, match=r"float 0\.[15]\b"):
        call()


def test_mixed_lattice_add_rejected():
    f = qs.QSeries(0, [1])
    g = qs.QSeries(Fraction(1, 24), [1])
    with pytest.raises(ValueError):
        qs.add(f, g)


# -- arithmetic against independent expansions -------------------------------------


def test_mul_identity():
    f = qs.QSeries(0, [3, -2, 5, 0, 7])
    assert qs.mul(qs.one(5), f) == f


def test_mul_with_an_empty_operand_is_empty():
    f, g = qs.QSeries(0, ()), qs.QSeries(1, (1,))
    assert qs.mul(f, g) == qs.mul(g, f) == qs.QSeries(1, ())


def test_telescoping_product():
    # (1 - q) * (1 + q + q^2 + ...) telescopes to 1
    f = qs.QSeries(0, [1, -1] + [0] * 8)
    g = qs.QSeries(0, [1] * 10)
    assert qs.mul(f, g) == qs.one(10)


def test_additive_inverse():
    f = qs.QSeries(Fraction(1, 24), [1, -1, 4])
    z = qs.add(f, qs.scalar_mul(-1, f))
    assert all(c == 0 for c in z.coeffs)


def test_add_aligns_offsets():
    f = qs.QSeries(0, [1, 2, 3, 4, 5])
    g = qs.QSeries(2, [10, 20])
    h = qs.add(f, g)
    assert h.offset == 0
    assert h.coeffs == (1, 2, 13, 24)  # window clipped at g's end


def test_pow_zero_is_one():
    f = qs.QSeries(1, [2, 3, 4])
    assert qs.pow(f, 0) == qs.one(3)


def test_zero_lead_power_window_is_determined_not_largest():
    # q^2 is determined by (0 + q)^2, but the window keeps the base's two slots
    f = QSeries(0, (0, 1))
    for square in (qs.pow(f, 2), qs.mul(f, f)):
        assert square.order == 2
        assert [square.coeff(n) for n in range(2)] == [0, 0]
        with pytest.raises(WindowError):
            square.coeff(2)


def test_geometric_series_via_negative_power():
    f = qs.QSeries(0, [1, -1] + [0] * 6)
    assert qs.pow(f, -1) == qs.QSeries(0, [1] * 8)


def test_eta_like_24th_power_matches_dense_oracle():
    order = 11
    dense = dense_product_one_minus_qn(24, order)
    base = qs.QSeries(0, dense_product_one_minus_qn(1, order))
    p = qs.pow(base, 24)
    assert [int(c) for c in p.coeffs] == dense
    assert p.coeffs[1] == -24 and p.coeffs[2] == 252


def test_invert_binomial_series():
    # 1/(1+q)^2 = 1 - 2q + 3q^2 - 4q^3 + ...
    f = qs.pow(qs.QSeries(0, [1, 1] + [0] * 6), 2)
    inv = qs.invert(f)
    assert list(inv.coeffs) == [(-1) ** k * (k + 1) for k in range(8)]


def test_invert_one():
    assert qs.invert(qs.one(6)) == qs.one(6)


def test_invert_requires_unit_lead():
    with pytest.raises(ValueError):
        qs.invert(qs.QSeries(0, [0, 1]))
    with pytest.raises(ValueError):
        qs.pow(qs.QSeries(0, [0, 1]), -1)


# -- euler products ------------------------------------------------------------------


def test_euler_product_partition_coefficients():
    f = qs.euler_product(-1, 10)
    for n in range(10):
        assert f.coeff(n) == sum(1 for _ in enumerate_partitions(n))
    assert f.coeff(4) == 5


def test_euler_product_inverse_pair():
    n = 30
    prod = qs.mul(qs.euler_product(1, n), qs.euler_product(-1, n))
    assert prod == qs.one(n)


def test_euler_product_24_shifted_is_discriminant_start():
    f = qs.euler_product(24, 10).shift(1)
    assert f.coeff(2) == -24


def test_euler_product_matches_dense_oracle_small():
    for e in (1, 2, 3):
        dense = dense_product_one_minus_qn(e, 9)
        assert [int(c) for c in qs.euler_product(e, 9).coeffs] == dense


# -- serialization ---------------------------------------------------------------------


def test_json_round_trip():
    f = qs.QSeries(Fraction(-5, 24), [Fraction(1, 3), 2, -7])
    obj = qs.to_json_obj(f)
    assert obj["offset_num"] == -5 and obj["offset_den"] == 24
    assert qs.from_json_obj(obj) == f


class _Counted(int):
    """An int that counts the products and truth tests made on it."""

    products = 0
    tests = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int.__mul__(self, other)

    def __bool__(self):
        _Counted.tests += 1
        return int.__bool__(self)


def _conv_work(a, b) -> tuple[int, int]:
    _Counted.products = _Counted.tests = 0
    qs._conv([_Counted(c) for c in a], [_Counted(c) for c in b])
    return _Counted.products, _Counted.tests


def test_convolution_benchmark_hook_counts_work():
    dense = [1] * 50
    products, tests = _conv_work(dense, dense)
    assert products == 1275
    # zero coefficients are skipped, so both loop orders make 51 products; the
    # truth tests show that the 2-term operand runs the outer loop either way
    sparse = [1] + [0] * 48 + [1]
    for a, b in ((sparse, dense), (dense, sparse)):
        sparse_products, sparse_tests = _conv_work(a, b)
        assert sparse_products == 51
        assert sparse_tests < tests / 5


# -- property tests ----------------------------------------------------------------------


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def series_family(draw, count=1):
    """Several series on one exponent lattice (so addition is defined)."""
    base = Fraction(draw(st.integers(-24, 24)), 24)
    out = []
    for _ in range(count):
        shift = draw(st.integers(0, 2))
        order = draw(st.integers(1, 6))
        coeffs = draw(
            st.lists(small_fractions, min_size=order, max_size=order)
        )
        out.append(QSeries(base + shift, tuple(coeffs)))
    return out


@settings(max_examples=150, deadline=None)
@given(series_family(count=2))
def test_add_and_mul_commute(pair):
    f, g = pair
    assert qs.add(f, g) == qs.add(g, f)
    assert qs.mul(f, g) == qs.mul(g, f)


@settings(max_examples=150, deadline=None)
@given(series_family(count=3))
def test_associativity_and_distributivity(triple):
    f, g, h = triple
    assert qs.add(qs.add(f, g), h) == qs.add(f, qs.add(g, h))
    assert qs.mul(qs.mul(f, g), h) == qs.mul(f, qs.mul(g, h))
    lhs = qs.mul(f, qs.add(g, h))
    rhs = qs.add(qs.mul(f, g), qs.mul(f, h))
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(series_family(count=1), st.integers(0, 3), st.integers(0, 3))
def test_pow_additivity(single, a, b):
    (f,) = single
    assert qs.pow(f, a + b) == qs.mul(qs.pow(f, a), qs.pow(f, b))


def _mul_power(f: QSeries, e: int) -> QSeries:
    """f^e by repeated convolution (e >= 0), sharing no code with pow."""
    acc = qs.one(f.order)
    for _ in range(e):
        acc = qs.mul(acc, f)
    return acc


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(2, 24))
def test_euler_product_is_power_of_base_case(e, order):
    base = qs.QSeries(0, dense_product_one_minus_qn(1, order))
    rhs = _mul_power(base, abs(e))
    if e < 0:
        rhs = QSeries(0, tuple(naive_inverse(list(rhs.coeffs), order)))
    assert qs.euler_product(e, order) == rhs
    assert qs.pow(base, e) == rhs


@settings(max_examples=100, deadline=None)
@given(series_family(count=1))
def test_no_silent_fabrication(single):
    (f,) = single
    with pytest.raises(WindowError):
        f.coeff(f.offset + f.order)
    with pytest.raises(WindowError):
        f.coeff(f.offset + f.order + 5)


# -- the power kernel against convolution oracles --------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(1, 80))
def test_euler_product_matches_dense_product(e, order):
    dense = dense_product_one_minus_qn(abs(e), order)
    expected = dense if e >= 0 else naive_inverse(dense, order)
    assert list(qs.euler_product(e, order).coeffs) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_euler_product_exponents_add(a, b):
    n = 600
    lhs = qs.mul(qs.euler_product(a, n), qs.euler_product(b, n))
    assert lhs == qs.euler_product(a + b, n)


# -- the eta-power table -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    e=st.one_of(st.sampled_from([-1, 24]), st.integers(-3, 24)),
    n_max=st.integers(0, 300),
)
def test_euler_coefficient_reads_in_any_order_match_euler_product(data, e, n_max):
    # reads grow the row 64 -> 128 -> 256 -> 512 in whatever order they come
    qs._ROWS.clear()
    reads = data.draw(st.permutations(range(n_max + 1)))
    want = qs.euler_product(e, n_max + 1).coeffs
    assert [qs.euler_coefficient(e, n) for n in reads] == [want[n] for n in reads]


@pytest.mark.parametrize("e", [-1, 24])
@pytest.mark.parametrize("n", [-1, -64])
def test_euler_coefficient_rejects_a_negative_index(e, n):
    # a bare index would read from the end of the row
    qs.euler_coefficient(e, 100)
    with pytest.raises(ValueError, match="n must be >= 0"):
        qs.euler_coefficient(e, n)


def _grow_then_read_24_0():
    qs.euler_coefficient(24, 100)
    return qs.euler_coefficient(24.0, 300)


_NON_INT_EXPONENT_CALLS = {
    "euler_coefficient(-1.0, 5)": (lambda: qs.euler_coefficient(-1.0, 5), "-1.0"),
    "euler_coefficient(24.0, 3)": (lambda: qs.euler_coefficient(24.0, 3), "24.0"),
    "euler_coefficient(24.0, 300) on a row of 24": (_grow_then_read_24_0, "24.0"),
    "euler_product(0.5, 5)": (lambda: qs.euler_product(0.5, 5), "0.5"),
    "euler_product(1/2, 5)": (lambda: qs.euler_product(Fraction(1, 2), 5), "Fraction(1, 2)"),
    "euler_product(2.0, 5)": (lambda: qs.euler_product(2.0, 5), "2.0"),
    "pow(f, 2.0)": (lambda: qs.pow(qs.QSeries(0, (1, 1, 0)), 2.0), "2.0"),
    # the e == 0 and the all-zero exits of pow never reach the kernel
    "pow(f, 0.0)": (lambda: qs.pow(qs.QSeries(0, (1, 1, 0)), 0.0), "0.0"),
    "pow(0, 2.0)": (lambda: qs.pow(qs.QSeries(0, (0, 0)), 2.0), "2.0"),
}


@pytest.mark.parametrize("case", list(_NON_INT_EXPONENT_CALLS))
def test_a_non_int_exponent_is_refused_before_the_table_is_written(monkeypatch, case):
    # a float row stored under 24.0 or -1.0 is the row of 24 or -1 (equal keys),
    # so tau and p(n) would turn to floats; a fresh table stands for a fresh process
    from qmodular import forms, theta_partitions

    call, got = _NON_INT_EXPONENT_CALLS[case]
    monkeypatch.setattr(qs, "_ROWS", {})
    with pytest.raises(TypeError, match=re.escape(f"exponent must be an int, got {got}")):
        call()
    assert all(type(c) is int for row in qs._ROWS.values() for c in row)
    assert theta_partitions.partition_count(100) == 190569292
    assert type(theta_partitions.partition_count(100)) is int
    assert forms.tau(12) == -370944 and type(forms.tau(12)) is int


def test_power_continued_from_a_wrong_head_fails_exact_division():
    # tau(2) is -24; the head (1, -23) leaves 2 g_2 = 481 at q^2
    assert qs._power(qs._pentagonal(8), 24, 8, [1, -24]) == list(
        qs.euler_product(24, 8).coeffs
    )
    with pytest.raises(ArithmeticError, match="inexact division at q\\^2"):
        qs._power(qs._pentagonal(8), 24, 8, [1, -23])


def _power_outcome(power, a, e, n, head):
    """Each value with its type, or the ArithmeticError message."""
    try:
        return [(type(c), c) for c in power(a, e, n, head)]
    except ArithmeticError as err:
        return str(err)


@st.composite
def kernel_inputs(draw):
    """(a, e, n, head): a sparse or dense int or Fraction base, maybe a head.

    A head is the reference's own first terms, with one of them off by
    one in half the draws; a wrong head on ints may fail exact division.
    """
    n = draw(st.integers(1, 40))
    entries = st.integers(-3, 3) if draw(st.booleans()) else small_fractions
    if draw(st.booleans()):  # sparse: mostly zeros, as the pentagonal row
        entries = st.one_of(st.just(0), st.just(0), st.just(0), entries)
    a = draw(st.lists(entries, min_size=n, max_size=n + 3))
    a[0] = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]))
    e = draw(st.integers(-30, 30))
    head = []
    if draw(st.booleans()):
        head = power_by_terms(a, e, n)[: draw(st.integers(1, n))]
        if draw(st.booleans()):
            head[draw(st.integers(0, len(head) - 1))] += 1
    return a, e, n, head


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_power_kernel_matches_per_term_reference(inputs):
    # the same values and types, or the same error at the same q^m
    a, e, n, head = inputs
    assert _power_outcome(qs._power, a, e, n, head) == _power_outcome(
        power_by_terms, a, e, n, head
    )


@pytest.mark.parametrize("e", [-24, -1, 1, 24])
@pytest.mark.parametrize("order", [1, 2, 64, 300])
def test_power_kernel_matches_reference_on_the_pentagonal_row(e, order):
    pent = qs._pentagonal(order)
    assert qs._power(pent, e, order) == power_by_terms(pent, e, order)


@pytest.mark.parametrize("e", [-1, 3, 24])
@pytest.mark.parametrize("wrong", [1, 5, 11, 40])
def test_power_kernel_fails_where_the_reference_fails_on_a_wrong_head(e, wrong):
    pent = qs._pentagonal(64)
    head = power_by_terms(pent, e, 64)[:48]
    head[wrong] += 1
    assert _power_outcome(qs._power, pent, e, 64, head) == _power_outcome(
        power_by_terms, pent, e, 64, head
    )


@st.composite
def power_bases(draw, zero_lead=True):
    """Int or Fraction series with a unit, non-unit or zero lead."""
    order = draw(st.integers(1, 10))
    entries = st.integers(-5, 5) if draw(st.booleans()) else small_fractions
    coeffs = draw(st.lists(entries, min_size=order, max_size=order))
    lead = draw(st.sampled_from(["unit", "other", "zero"] if zero_lead else ["unit", "other"]))
    if lead == "unit":
        coeffs[0] = draw(st.sampled_from([1, -1]))
    elif lead == "other":
        coeffs[0] = draw(st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 3)]))
    else:
        zeros = min(draw(st.integers(1, 3)), order)
        coeffs[:zeros] = [0] * zeros
    offset = draw(st.sampled_from([0, 1, Fraction(1, 24)]))
    return QSeries(offset, tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(power_bases(), st.integers(0, 6))
def test_pow_matches_repeated_mul(f, e):
    assert qs.pow(f, e) == _mul_power(f, e)


@settings(max_examples=150, deadline=None)
@given(power_bases(zero_lead=False), st.integers(1, 6))
def test_negative_pow_is_inverse_of_repeated_mul(f, e):
    p = _mul_power(f, e)
    expected = QSeries(-p.offset, tuple(naive_inverse(list(p.coeffs), f.order)))
    assert qs.pow(f, -e) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0, 1, Fraction(1, 24)]), st.data())
def test_invert_matches_naive_inverse(order, offset, data):
    coeffs = data.draw(st.lists(small_fractions, min_size=order, max_size=order))
    coeffs[0] = data.draw(small_fractions.filter(lambda c: c not in (0, 1, -1)))
    inv = qs.invert(QSeries(offset, tuple(coeffs)))
    assert inv.offset == -offset
    assert list(inv.coeffs) == naive_inverse(coeffs, order)


# -- the int/Fraction normal form --------------------------------------------------------


def _is_normal(x) -> bool:
    """int exactly when integral, Fraction otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def _assert_normal(f: QSeries) -> None:
    assert _is_normal(f.offset)
    assert all(_is_normal(c) for c in f.coeffs)


def _all_fraction(f: QSeries) -> QSeries:
    """The same series with every value a Fraction, bypassing normalization."""
    g = object.__new__(QSeries)
    object.__setattr__(g, "offset", Fraction(f.offset))
    object.__setattr__(g, "coeffs", tuple(Fraction(c) for c in f.coeffs))
    return g


def _kinds(values: st.SearchStrategy) -> st.SearchStrategy:
    """Each value as an int (when integral), a Fraction or a string."""
    def spellings(v: Fraction) -> list:
        return [v, str(v)] + ([int(v)] if v.denominator == 1 else [])

    return values.flatmap(lambda v: st.sampled_from(spellings(Fraction(v))))


_coeff_values = st.one_of(st.integers(-6, 6).map(Fraction), small_fractions)
_offset_values = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 24), Fraction(-5, 12)]
)


@st.composite
def raw_series(draw, min_order=0, unit_lead=False):
    """(offset, coeffs) of mixed int / Fraction / str inputs."""
    order = draw(st.integers(min_order, 8))
    coeffs = draw(st.lists(_kinds(_coeff_values), min_size=order, max_size=order))
    if unit_lead:
        coeffs[0] = draw(_kinds(st.sampled_from([Fraction(1), Fraction(-1)])))
    return draw(_kinds(_offset_values)), coeffs


@settings(max_examples=200, deadline=None)
@given(raw_series(), raw_series(min_order=1), st.integers(0, 3), _kinds(_coeff_values))
def test_integral_values_are_stored_as_ints(raw_f, raw_g, e, c):
    offset, coeffs = raw_f
    f = qs.QSeries(offset, coeffs)
    as_fractions = qs.QSeries(Fraction(offset), list(map(Fraction, coeffs)))
    assert f == as_fractions
    _assert_normal(f)
    _assert_normal(as_fractions)
    g0 = qs.QSeries(*raw_g)
    g = g0.shift(f.offset - g0.offset + e)  # on f's lattice, so f + g is defined
    ff, gf = _all_fraction(f), _all_fraction(g)
    results = [
        (qs.add(f, g), qs.add(ff, gf)),
        (qs.add(g, f), qs.add(gf, ff)),
        (qs.scalar_mul(c, f), qs.scalar_mul(Fraction(c), ff)),
        (qs.mul(f, g), qs.mul(ff, gf)),
        (qs.pow(g, e), qs.pow(gf, e)),
        (f.shift(c), ff.shift(Fraction(c))),
        (f.truncate(f.order // 2), ff.truncate(f.order // 2)),
        (qs.from_json_obj(qs.to_json_obj(f)), ff),
    ]
    for got, want in results:
        _assert_normal(got)
        assert got == want
        assert qs.to_json_obj(got) == qs.to_json_obj(want)


@settings(max_examples=150, deadline=None)
@given(raw_series(min_order=1, unit_lead=True), raw_series(min_order=1), st.integers(1, 4))
def test_negative_powers_keep_the_normal_form(raw_unit, raw_other, e):
    unit = qs.QSeries(*raw_unit)  # lead +-1: integral powers stay ints
    other = qs.QSeries(*raw_other)
    for f in (unit, other):
        if f.coeffs[0] == 0:
            continue
        for got, want in (
            (qs.pow(f, -e), qs.pow(_all_fraction(f), -e)),
            (qs.invert(f), qs.invert(_all_fraction(f))),
        ):
            _assert_normal(got)
            assert got == want


@settings(max_examples=30, deadline=None)
@given(st.integers(-30, 30), st.integers(1, 60))
def test_euler_product_keeps_the_normal_form(e, order):
    got = qs.euler_product(e, order)
    _assert_normal(got)
    assert all(type(c) is int for c in got.coeffs)
    pentagonal = _all_fraction(qs.euler_product(1, order))
    assert got == qs.pow(pentagonal, e)


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: QSeries(0, (1, 2)).truncate(3),
            WindowError("cannot truncate to order 3: only 2 coefficients are known"),
        ),
        (lambda: qs.euler_product(1, 0), ValueError("order must be >= 1")),
        (lambda: qs.one(0), "QSeries(q^0 * [], order=0)"),
        (lambda: QSeries("1/24", range(8)), "QSeries(q^1/24 * [0, 1, 2, 3, 4, 5, ...], order=8)"),
    ],
    ids=["truncate-past-window", "euler-product-order", "one-empty", "repr"],
)
def test_qseries_edge_cases(call, expected):
    # an exception is pinned by type and message, a value by its repr
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as excinfo:
            call()
        assert str(excinfo.value) == str(expected)
    else:
        assert repr(call()) == expected
