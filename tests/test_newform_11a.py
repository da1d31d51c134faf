"""The level-11 newform eta(tau)^2 eta(11 tau)^2 and the curve 11a1.

f = q prod_{n>=1} (1 - q^n)^2 (1 - q^(11n))^2 is the weight-2 newform
attached to E: y^2 + y = x^3 - x^2 - 10x - 20 (Cremona's 11a1, conductor
11).  Its coefficients are first checked against point counts of E, an
oracle that shares no code with the library; the form then serves as the
level-11 fixture for the Hecke operators and the Euler product, whose
factor eps(d) d^(k-1) uses the principal character mod 11.
"""

from math import gcd

from qmodular import forms, lseries
from qmodular import qseries as qs

META = forms.FormMeta(2, 11)


def newform_11a(order: int) -> qs.QSeries:
    """Coefficients of q^1 .. q^order of eta(tau)^2 eta(11 tau)^2."""
    inner = qs.euler_product(2, order)
    outer = qs.euler_product(2, (order - 1) // 11 + 1).coeffs
    stretched = [0] * order
    stretched[::11] = outer
    return qs.mul(inner, qs.QSeries(0, stretched)).shift(1)


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, p))]


def _curve_points(p: int) -> int:
    """#E(F_p) for 11a1: every (x, y) in F_p^2 on the curve, plus infinity."""
    return 1 + sum(
        (y * y + y - (x**3 - x * x - 10 * x - 20)) % p == 0
        for x in range(p)
        for y in range(p)
    )


def test_coefficients_are_the_point_counts_of_11a1():
    f = newform_11a(200)
    primes = [p for p in _primes_below(200) if p != 11]
    assert len(primes) == 45
    for p in primes:
        a_p = f.coeff(p)
        assert a_p == p + 1 - _curve_points(p), p
        assert a_p * a_p <= 4 * p, p
    assert f.coeff(11) == 1  # split multiplicative reduction


def test_default_character_is_principal_mod_the_level():
    for k in (2, 12):
        for level in range(1, 31):
            meta = forms.FormMeta(k, level)
            for d in range(61):
                assert meta.eps(d) == int(gcd(d, level) == 1), (level, d)


def test_newform_is_a_hecke_eigenform_at_level_11():
    f = newform_11a(400)
    rep = forms.is_eigenform(f, META, 40)
    assert rep.ok, rep.first_failure
    assert len(rep.eigenvalues) == 40 and not rep.insufficient
    assert dict(rep.eigenvalues)[11] == 1


def test_euler_product_at_level_11_matches_the_expansion():
    f = newform_11a(400)
    ep = lseries.euler_product_coeffs({p: f.coeff(p) for p in _primes_below(14)}, META, 400)
    smooth = [n for n in ep if n < 400]
    assert len(smooth) == 147
    for n in smooth:
        assert ep[n] == f.coeff(n), n


def test_composition_law_at_level_11():
    # every pair with m n <= 400, so every m, n <= 20 among them
    f = newform_11a(400)
    for rep in forms.hecke_compose_check(META, f, 400):
        assert rep.ok, (rep.m, rep.n, rep.first_mismatch)
        assert rep.order == 400 // (rep.m * rep.n)
