import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmodular import theta_partitions as tp
from qmodular import qseries as qs

from conftest import (
    lattice_vectors_with_norm,
    naive_inverse,
    partition_count_by_enumeration,
    partition_counts_by_pentagonal_recurrence,
    poly_mul,
    rank_counts_by_enumeration,
    rank_entries_by_triple_loop,
    unary_theta_by_terms,
)


# -- theta series ---------------------------------------------------------------


def test_theta_one_variable():
    f = tp.theta_diagonal(1, 17)
    expected = [0] * 17
    expected[0] = 1
    for n in (1, 2, 3, 4):
        expected[n * n] = 2
    assert [int(c) for c in f.coeffs] == expected


def test_theta_constant_term_always_one():
    for k in range(1, 6):
        assert tp.theta_diagonal(k, 5).coeff(0) == 1


def test_theta_two_squares_count():
    f = tp.theta_diagonal(2, 10)
    assert f.coeff(1) == 4  # (+-1, 0), (0, +-1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40))
def test_theta_matches_lattice_enumeration(k, m):
    series = tp.theta_diagonal(k, 41)
    assert series.coeff(m) == lattice_vectors_with_norm(k, m)


def test_theta_multiplicative_in_variable_count():
    for k, j in ((1, 1), (1, 2), (2, 2), (1, 3)):
        lhs = tp.theta_diagonal(k + j, 60)
        rhs = qs.mul(tp.theta_diagonal(k, 60), tp.theta_diagonal(j, 60))
        assert lhs == rhs


# -- unary theta ----------------------------------------------------------------


def test_unary_theta_zero_pattern():
    f = tp.unary_theta([0], 1, 8)
    assert all(c == 0 for c in f.coeffs)


def test_unary_theta_mod4_pattern():
    # eps = +1 at 1 mod 4, -1 at 3 mod 4: terms 2 n eps(n) at q^(n^2)
    f = tp.unary_theta([0, 1, 0, -1], 1, 26)
    assert f.offset == 1
    assert f.coeff(1) == 2
    assert f.coeff(9) == -6
    assert f.coeff(25) == 10
    assert f.coeff(4) == 0


def test_unary_theta_eta_like_exponent_lattice():
    # odd pattern mod 12 supported on units; kappa = 1/24 puts every
    # exponent n^2/24 on the lattice 1/24 + Z
    pattern = [0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1]
    f = tp.unary_theta(pattern, Fraction(1, 24), 8)
    assert f.offset == Fraction(1, 24)
    assert f.coeff(Fraction(1, 24)) == 2
    assert f.coeff(Fraction(25, 24)) == 10  # n = 5, eps = +1
    assert f.coeff(Fraction(49, 24)) == -14  # n = 7, eps = -1


def test_unary_theta_rejects_non_odd_pattern():
    with pytest.raises(ValueError):
        tp.unary_theta([1], 1, 8)
    with pytest.raises(ValueError):
        tp.unary_theta([0, 1, 1, 1], 1, 8)


def test_unary_theta_rejects_bad_kappa():
    with pytest.raises(ValueError):
        tp.unary_theta([0, 1, 0, -1], Fraction(1, 5), 8)
    with pytest.raises(ValueError):
        tp.unary_theta([0, 1, 0, -1], -1, 8)


def test_unary_theta_rejects_mixed_lattices():
    # kappa = 1/2: exponents n^2/2 alternate between half-integers and
    # integers, which a single window cannot hold
    with pytest.raises(ValueError):
        tp.unary_theta([0, 1, -1, 0, 0, -1, 1, 0], Fraction(12, 24), 30)


@pytest.mark.parametrize("kappa", [0.5, 0.1])
def test_unary_theta_refuses_a_float_kappa(kappa):
    # a float is not the rational it was written as: 0.1 != 1/10
    with pytest.raises(TypeError, match=f"not an exact rational: float {kappa}"):
        tp.unary_theta((0, 1, -1), kappa, 5)


@pytest.mark.parametrize(
    "eps, order, named",
    [([0, 1.0, -1.0], 5, "[0, 1.0, -1.0] and 5"), ((0, 1, -1), 5.0, "(0, 1, -1) and 5.0")],
    ids=["float-eps", "float-order"],
)
def test_unary_theta_refuses_inexact_sizes_up_front(eps, order, named):
    # refused before any work, naming what the caller wrote
    with pytest.raises(TypeError) as info:
        tp.unary_theta(eps, 1, order)
    assert str(info.value) == f"eps entries and order must be ints, got {named}"


@st.composite
def odd_patterns(draw):
    """One period of an odd integer map: eps[-n mod L] == -eps[n mod L]."""
    period = draw(st.integers(1, 12))
    eps = [0] * period
    for r in range(1, (period + 1) // 2):
        eps[r] = draw(st.integers(-3, 3))
        eps[period - r] = -eps[r]
    return eps


@settings(max_examples=300, deadline=None)
@given(
    odd_patterns(),
    st.integers(1, 30),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
    st.integers(1, 60),
)
@example([0, 1, -1], 1, 6, 5)  # q^(1/6) and q^(4/6): two lattices
@example([0, 1, 0, 0, 0, -1], 1, 24, 60)  # -12 times Zwegers' g_1
def test_unary_theta_matches_a_term_by_term_sum(eps, a, b, order):
    kappa = Fraction(a, b)
    want = unary_theta_by_terms(eps, kappa, order)
    if want is None:
        with pytest.raises(ValueError, match="exponents fall on more than one integer lattice"):
            tp.unary_theta(eps, kappa, order)
    else:
        got = tp.unary_theta(eps, kappa, order)
        assert (got.offset, list(got.coeffs)) == want


# -- partitions -------------------------------------------------------------------


def test_partition_count_base_cases():
    assert tp.partition_count(0) == 1
    assert tp.partition_count(1) == 1
    assert tp.partition_count(4) == 5
    with pytest.raises(ValueError, match="n must be >= 0"):
        tp.partition_count(-1)  # a bare index would read p(n) from the end


def test_partition_count_matches_enumeration():
    for n in range(25):
        assert tp.partition_count(n) == partition_count_by_enumeration(n)


def test_partition_count_matches_pentagonal_recurrence():
    expected = partition_counts_by_pentagonal_recurrence(600)
    assert [tp.partition_count(n) for n in range(601)] == expected


def test_partition_count_pinned_values():
    # MacMahon's table, as quoted by Hardy and Ramanujan (1918)
    assert tp.partition_count(100) == 190569292
    assert tp.partition_count(200) == 3972999029388


def test_partition_congruence_instances():
    assert tp.partition_count(9) % 5 == 0
    assert tp.partition_count(19) % 7 == 0
    assert tp.partition_count(39) % 11 == 0


# -- rank tables --------------------------------------------------------------------


def test_rank_table_n2():
    t = tp.rank_table(2)
    assert t.counts(2) == {-1: 1, 1: 1}
    assert t.polynomial(2) == tp.OmegaPoly(-1, (1, 0, 1))


def test_rank_table_n4():
    t = tp.rank_table(4)
    assert t.counts(4) == {
        3: 1,
        1: 1,
        0: 1,
        -1: 1,
        -3: 1,
    }


def test_rank_table_row_sums_and_symmetry():
    t = tp.rank_table(40)
    for n in range(1, 41):
        assert sum(t.counts(n).values()) == tp.partition_count(n)
    for n, m, c in t.rows():
        assert t.counts(n).get(-m, 0) == c
        if n >= 2:
            assert abs(m) < n


def test_rank_table_matches_explicit_enumeration():
    t = tp.rank_table(30)
    for n in range(1, 31):
        expected = rank_counts_by_enumeration(n)
        assert t.counts(n) == expected


def test_rank_equidistribution_mod5_instance():
    t = tp.rank_table(49)
    for n in (4, 9, 14, 19, 24, 29, 34, 39, 44, 49):
        counts = t.counts_mod(n, 5)
        assert len(set(counts)) == 1
        assert counts[0] * 5 == tp.partition_count(n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 80))
@example(n=1)
@example(n=80)
def test_rank_table_matches_triple_loop_oracle(rank_entries_80, n):
    # N(n, m) does not depend on the table's bound, so the oracle's rows
    # up to n are exactly rank_table(n)'s rows
    rows = tp.rank_table(n).rows()
    assert rows == sorted((k, m, c) for (k, m), c in rank_entries_80.items() if k <= n)


@st.composite
def hand_built_rank_tables(draw):
    """A table of arbitrary rows and the plain {m: count} dict of each row."""
    n_max = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(-n_max, n_max), st.integers(-2, 3), max_size=8)
    rows = draw(st.lists(row, min_size=n_max, max_size=n_max))
    return tp.RankTable([tp.OmegaPoly.from_terms(r) for r in rows]), rows


def test_rank_table_n_max_is_its_row_count():
    # n_max is the row count, so no table can claim rows it lacks
    polys = tp.rank_table(3).polys
    with pytest.raises(TypeError):
        tp.RankTable(5, polys)
    table = tp.RankTable(polys)
    assert table.n_max == 3
    with pytest.raises(ValueError, match=r"n must be in 1\.\.3, got 4"):
        table.polynomial(4)


@settings(max_examples=60, deadline=None)
@given(built=hand_built_rank_tables(), s=st.integers(1, 7))
def test_rank_table_queries_match_a_plain_scan(built, s):
    # rows arrive with their ranks in any order and may hold zero counts
    table, rows = built
    for n, row in enumerate(rows, 1):
        live = {m: c for m, c in sorted(row.items()) if c}
        assert list(table.counts(n).items()) == list(live.items())
        by_residue = [0] * s
        for m, c in row.items():
            by_residue[m % s] += c
        assert table.counts_mod(n, s) == by_residue
        assert table.polynomial(n) == tp.OmegaPoly.from_terms(row)
    expected = [(n, m, c) for n, row in enumerate(rows, 1) for m, c in row.items() if c]
    assert table.rows() == sorted(expected)


@pytest.mark.parametrize("query", ["counts", "counts_mod", "polynomial"])
@pytest.mark.parametrize("n", [0, -1, 7])
def test_rank_table_rows_outside_the_table_raise(query, n):
    table = tp.rank_table(6)
    args = (n, 5) if query == "counts_mod" else (n,)
    with pytest.raises(ValueError):
        getattr(table, query)(*args)


@pytest.mark.parametrize("s", [0, -1, -5])
def test_rank_table_counts_mod_rejects_nonpositive_modulus(s):
    with pytest.raises(ValueError):
        tp.rank_table(6).counts_mod(4, s)


def test_rank_table_counts_is_read_only():
    table = tp.rank_table(6)
    row = table.counts(4)
    row[0] = 2
    del row[3]
    assert table.counts(4) == {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1}
    assert table.polynomial(4) == tp.OmegaPoly(-3, (1, 0, 1, 1, 1, 0, 1))


# -- Laurent polynomials ----------------------------------------------------------------


@pytest.mark.parametrize(
    "given, normal",
    [
        ((0, (0, 1)), (1, (1,))),
        ((5, ()), (0, ())),
        ((-2, [0, 0, 0]), (0, ())),
        ((0, [1, 2]), (0, (1, 2))),
        ((-1, (0, 3, 0, -4, 0, 0)), (0, (3, 0, -4))),
    ],
)
def test_omega_poly_constructor_keeps_one_normal_form(given, normal):
    # zeros at either end, or a list, once made equal polynomials unequal,
    # unhashable, or mutable through .coeffs
    p = tp.OmegaPoly(*given)
    assert (p.lo, p.coeffs) == normal
    assert type(p.coeffs) is tuple
    assert p == tp.OmegaPoly(*normal)
    assert hash(p) == hash(tp.OmegaPoly(*normal))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-20, 20),
    st.lists(st.one_of(st.just(0), st.integers(-5, 5)), max_size=8),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_omega_poly_padding_and_terms_round_trip(lo, coeffs, left, right):
    p = tp.OmegaPoly(lo, coeffs)
    padded = tp.OmegaPoly(lo - left, [0] * left + coeffs + [0] * right)
    assert padded == p
    assert hash(padded) == hash(p)
    assert p.terms() == {lo + j: c for j, c in enumerate(coeffs) if c}
    assert tp.OmegaPoly.from_terms(p.terms()) == p
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.lo == 0


def test_omega_poly_root_of_unity_values():
    p = tp.OmegaPoly.from_terms({-3: 1, -1: 1, 0: 1, 1: 1, 3: 1})
    assert tp.specialize_omega([p], (0, 1)) == [5]
    assert tp.specialize_omega([p], (1, 2)) == [-3]  # four odd exponents flip sign
    assert tp.specialize_omega([p], (2, 2)) == [5]  # w = exp(2 pi i) = 1
    # exponents mod 4: -3 -> 1, -1 -> 3, 0 -> 0, 1 -> 1, 3 -> 3
    assert tp.specialize_omega([p], (1, 4)) == [(1, 2, 0, 2)]


def test_omega_poly_vector_form():
    p = tp.OmegaPoly.from_terms({-1: 2, 1: 3})
    # on the basis 1, z, z^2 with z^3 = 1: z^{-1} = z^2
    assert tp.specialize_omega([p], (1, 3)) == [(0, 3, 2)]
    # w = z^2 sends w^{-1} to z^{-2} = z and w to z^2
    assert tp.specialize_omega([p], (2, 3)) == [(0, 2, 3)]


# -- rank generating series ----------------------------------------------------------------


def test_rank_generating_low_coefficients():
    polys = tp.rank_generating(5)
    assert polys[0] == tp.OmegaPoly(0, (1,))
    assert polys[2].terms() == {1: 1, -1: 1}
    assert polys[4].terms() == {3: 1, 1: 1, 0: 1, -1: 1, -3: 1}


@pytest.fixture(scope="module")
def rank_polys_200():
    return tp.rank_generating(200)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 130))
def test_rank_generating_matches_table(order):
    polys = tp.rank_generating(order)
    assert len(polys) == order
    assert polys[0] == tp.OmegaPoly(0, (1,))
    if order >= 2:
        table = tp.rank_table(order - 1)
        for n in range(1, order):
            assert polys[n] == table.polynomial(n)


def test_rank_generating_symmetry_and_support(rank_polys_200):
    for n, poly in enumerate(rank_polys_200):
        terms = poly.terms()
        assert all(terms.get(-m) == c for m, c in terms.items())
        if n >= 2:
            assert all(abs(m) < n for m in terms)


def test_rank_generating_dyson_rank_conjectures(rank_polys_200):
    # Atkin--Swinnerton-Dyer (1954): for n = 4 mod 5 the ranks fall equally
    # into the five classes mod 5, and for n = 5 mod 7 into the seven mod 7
    for s, res in ((5, 4), (7, 5)):
        for n in range(res, 200, s):
            p_n = tp.partition_count(n)
            assert p_n % s == 0
            assert tp.specialize_omega([rank_polys_200[n]], (1, s)) == [(p_n // s,) * s]


# -- packed rows: the slot width ----------------------------------------------------------


def slot_bytes(n: int, r: int) -> int:
    """Bytes per slot for coefficients up to q^n of 1/(q;q)^r.

    That coefficient is at most exp(pi sqrt(2 r n / 3)) (Apostol, Thm
    14.5); the width is that bound in bits plus 2, rounded up to whole
    bytes.  rank_table(n) packs with r = 1, rank_generating(n + 1) with r = 2.
    """
    return math.ceil((math.pi * math.sqrt(2 * r * n / 3) / math.log(2) + 2) / 8)


def width_steps(r: int, n_max: int) -> list[int]:
    """Each n <= n_max at which slot_bytes(n, r) steps up, and the n before it."""
    steps = [n for n in range(1, n_max + 1) if slot_bytes(n, r) > slot_bytes(n - 1, r)]
    return sorted({m for n in steps for m in (n - 1, n) if m >= 1})


def test_slot_width_exceeds_every_coefficient_to_600():
    inverse_square = qs.euler_product(-2, 601).coeffs
    largest = 0
    for n in range(601):
        largest = max(largest, inverse_square[n])
        assert 8 * slot_bytes(n, 1) > tp.partition_count(n).bit_length()
        assert 8 * slot_bytes(n, 2) > largest.bit_length()


def test_slot_bytes_matches_the_tests_own_bound_to_600():
    for n in range(601):
        assert tp._slot_bytes(1, n) == slot_bytes(n, 1)
        assert tp._slot_bytes(2, n) == slot_bytes(n, 2)


@pytest.fixture(scope="module")
def rank_entries_281():
    return rank_entries_by_triple_loop(max(width_steps(1, 300)))


@pytest.mark.parametrize("n_max", width_steps(1, 300))
def test_rank_table_at_each_slot_width_step(rank_entries_281, n_max):
    rows = tp.rank_table(n_max).rows()
    assert rows == sorted((n, m, c) for (n, m), c in rank_entries_281.items() if n <= n_max)


@pytest.fixture(scope="module")
def rank_table_300():
    return tp.rank_table(300)


@pytest.mark.parametrize("n_max", width_steps(2, 300))
def test_rank_generating_at_each_slot_width_step(rank_table_300, n_max):
    polys = tp.rank_generating(n_max + 1)
    assert polys[0] == tp.OmegaPoly(0, (1,))
    assert polys[1:] == list(rank_table_300.polys[:n_max])


def test_rank_table_300_past_64_bit_slots(rank_table_300):
    assert 8 * slot_bytes(300, 1) > 64
    for n in range(1, 301):
        row = rank_table_300.counts(n)
        assert sum(row.values()) == tp.partition_count(n)
        assert all(row.get(-m) == c for m, c in row.items())
        if n >= 2:
            assert all(abs(m) < n for m in row)
    assert tp.rank_generating(301)[1:] == list(rank_table_300.polys)


# -- packed rows: unpacking ---------------------------------------------------------------


def unpack_slot_by_slot(packed: int, count: int, size: int) -> list[int]:
    raw = packed.to_bytes(count * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


@st.composite
def packed_slots(draw):
    """A slot width of 1-24 bytes (1-3 64-bit words) and 1-300 slots of that width."""
    size = draw(st.integers(1, 24))
    full = (1 << 8 * size) - 1
    slot = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return size, draw(st.lists(slot, min_size=1, max_size=300))


@settings(max_examples=150, deadline=None)
@given(packed_slots())
@example((1, [255] * 300))
@example((8, [0] * 299 + [2**64 - 1]))
@example((9, [2**72 - 1, 0] * 150))
@example((24, [2**192 - 1] * 300))
def test_unpack_slots_matches_per_slot_from_bytes(case):
    size, slots = case
    packed = sum(x << 8 * size * i for i, x in enumerate(slots))
    unpacked = tp._unpack_slots(packed, len(slots), size)
    assert list(unpacked) == unpack_slot_by_slot(packed, len(slots), size) == slots


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 24])
def test_unpack_slots_rejects_a_bit_above_the_top_slot(size):
    full = (1 << 8 * size) - 1
    packed = sum(full << 8 * size * i for i in range(5))
    assert list(tp._unpack_slots(packed, 5, size)) == [full] * 5
    with pytest.raises(OverflowError):
        tp._unpack_slots(packed + 1, 5, size)


@st.composite
def packed_rows(draw):
    """A slot width of 1-24 bytes, a row index p <= 40, and row p's 2p + 1 slots."""
    size = draw(st.integers(1, 24))
    p = draw(st.integers(0, 40))
    full = (1 << 8 * size) - 1
    slot = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return size, p, draw(st.lists(slot, min_size=2 * p + 1, max_size=2 * p + 1))


@settings(max_examples=150, deadline=None)
@given(packed_rows())
@example((1, 0, [0]))
@example((1, 0, [255]))
@example((9, 40, [0] * 81))
@example((8, 3, [5, 0, 0, 0, 0, 0, 2**64 - 1]))
@example((3, 2, [0, 0, 1, 0, 0]))
def test_row_poly_reads_slot_p_plus_m_as_the_w_m_coefficient(case):
    size, p, slots = case
    packed = sum(x << 8 * size * i for i, x in enumerate(slots))
    expected = tp.OmegaPoly.from_terms({m: slots[p + m] for m in range(-p, p + 1)})
    assert tp._row_poly(packed, p, size) == expected


# -- mock theta series -----------------------------------------------------------------------


def test_mock_theta_constant_term():
    assert tp.mock_theta_f(1).coeff(0) == 1


def test_mock_theta_low_coefficients_by_hand():
    # q/(1+q)^2 = q - 2q^2 + 3q^3 - ... gives the q^2 coefficient;
    # adding the n=2 term q^4/((1+q)(1+q^2))^2 gives q^4
    f = tp.mock_theta_f(11)
    assert f.coeff(2) == -2
    assert f.coeff(4) == -3


def test_mock_theta_against_naive_term_sum():
    order = 24
    total = [Fraction(0)] * order
    total[0] = 1
    den = [1] + [0] * (order - 1)
    n = 1
    while n * n < order:
        step = [0] * order
        step[0] = 1
        if n < order:
            step[n] = 1
        den = poly_mul(den, poly_mul(step, step, order), order)
        inv = naive_inverse(den, order)
        for j in range(order - n * n):
            total[n * n + j] += inv[j]
        n += 1
    f = tp.mock_theta_f(order)
    assert list(f.coeffs) == total


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400))
@example(n=1)
@example(n=400)
def test_mock_theta_matches_appell_lerch_oracle(mock_f_by_appell_lerch_400, n):
    # Watson's form shares nothing with the q-hypergeometric sum: it sees
    # every coefficient of each 1/(1+q^n)^2 fold, not only the low ones
    assert list(tp.mock_theta_f(n).coeffs) == mock_f_by_appell_lerch_400[:n]


# -- specialization ---------------------------------------------------------------------------


def test_specialize_at_one_gives_partition_counts(rank_polys_200):
    values = tp.specialize_omega(rank_polys_200, (0, 1))
    assert values == [tp.partition_count(n) for n in range(200)]


def test_specialize_at_minus_one_matches_mock_theta(rank_polys_200):
    values = tp.specialize_omega(rank_polys_200, (1, 2))
    f = tp.mock_theta_f(200)
    assert values == [f.coeff(n) for n in range(200)]


def test_specialize_at_minus_one_q2_instance():
    polys = tp.rank_generating(3)
    assert tp.specialize_omega(polys, (1, 2))[2] == -2


def test_specialize_vector_exponent_reduction():
    polys = [tp.OmegaPoly.from_terms({-1: 1, 4: 2})]
    (vec,) = tp.specialize_omega(polys, (1, 3))
    assert vec == (0, 2, 1)  # 4 mod 3 = 1, -1 mod 3 = 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tp.theta_diagonal(0, 5), "k must be >= 1, got 0"),
        (lambda: tp.theta_diagonal(1, 0), "order must be >= 1, got 0"),
        (lambda: tp.unary_theta([0, 1, -1], 1, 0), "order must be >= 1, got 0"),
        (lambda: tp.unary_theta([], 1, 5), "eps must have at least one entry"),
        (
            lambda: tp.unary_theta([0, 1, -1], Fraction(1, 6), 5),
            "exponents fall on more than one integer lattice (q^1/6 vs q^2/3); not representable",
        ),
        (lambda: tp.rank_table(0), "n_max must be >= 1, got 0"),
        (lambda: tp.rank_generating(0), "order must be >= 1, got 0"),
        (lambda: tp.mock_theta_f(0), "order must be >= 1, got 0"),
        (lambda: tp.specialize_omega([], (1, 0)), "s must be >= 1, got 0"),
    ],
    ids=[
        "theta-k",
        "theta-order",
        "unary-order",
        "unary-empty-eps",
        "unary-two-lattices",
        "rank-table-n_max",
        "rank-generating-order",
        "mock-f-order",
        "specialize-s",
    ],
)
def test_theta_partitions_rejects_bad_input_with_its_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
