import cmath
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmodular import geometry, verify


def _perimeter_by_scipy(spec: geometry.EllipseSpec) -> float:
    a, b = spec.semi_real, spec.semi_imag
    val, err = quad(
        lambda t: math.hypot(a * math.sin(t), b * math.cos(t)),
        0.0,
        2.0 * math.pi,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    assert err < 1e-9
    return val


# -- perimeter ---------------------------------------------------------------------


def test_perimeter_circle():
    spec = geometry.EllipseSpec(1.0, 1.0, 1.0)
    assert geometry.ellipse_perimeter(spec) == pytest.approx(2 * math.pi, rel=1e-14)


def test_perimeter_2_to_1_ellipse_vs_quadrature():
    spec = geometry.EllipseSpec(1.0, 1.0, 2.0)
    agm = geometry.ellipse_perimeter(spec)
    assert agm == pytest.approx(_perimeter_by_scipy(spec), rel=1e-9)
    assert agm == pytest.approx(9.688448220547675, rel=1e-12)


def test_perimeter_scales_linearly():
    p1 = geometry.ellipse_perimeter(geometry.EllipseSpec(1.0, 0.7, 1.9))
    p3 = geometry.ellipse_perimeter(geometry.EllipseSpec(3.0, 0.7, 1.9))
    assert p3 == pytest.approx(3.0 * p1, rel=1e-13)


def test_perimeter_of_an_underflowing_axis_ratio_is_4a():
    spec = geometry.EllipseSpec(1.0, 1e-200, 1e200)  # b / a underflows to 0.0
    assert geometry.ellipse_perimeter(spec) == pytest.approx(4e200, rel=1e-15)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.2, 3.0),
    st.floats(0.2, 3.0),
    st.floats(0.2, 2.0),
)
def test_perimeter_agm_matches_quadrature(e, f, r):
    spec = geometry.EllipseSpec(r, e, f)
    assert geometry.ellipse_perimeter(spec) == pytest.approx(
        _perimeter_by_scipy(spec), rel=1e-9
    )


@pytest.mark.parametrize("ratio", [1.0, 2.0, 10.0, 15.0, 1.0 / 15.0])
def test_trapezoid_perimeter_oracle_matches_scipy(ratio):
    spec = geometry.EllipseSpec(0.8, 1.0, ratio)
    assert verify._arc_length_quadrature(spec) == pytest.approx(
        _perimeter_by_scipy(spec), rel=1e-12
    )


def test_trapezoid_perimeter_oracle_raises_past_its_point_cap():
    # a near-degenerate ellipse has a kink in its speed, so the rule converges
    # only algebraically and cannot reach 1e-13 within 2^16 points
    with pytest.raises(ArithmeticError):
        verify._arc_length_quadrature(geometry.EllipseSpec(1.0, 1e-9, 1.0))


def test_ellipse_spec_validation():
    with pytest.raises(ValueError):
        geometry.EllipseSpec(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        geometry.EllipseSpec(1.0, -1.0, 1.0)


# -- circle matching ------------------------------------------------------------------


def test_matching_unit_axes_is_identity():
    spec = geometry.circle_matching_ellipse(1.7, 1.0, 1.0)
    assert spec.r_ref == pytest.approx(1.7, rel=1e-13)


def test_matching_equal_axes_general_factor():
    # with e = f = c the matched curve is a circle of radius r_ref c
    spec = geometry.circle_matching_ellipse(1.0, 2.0, 2.0)
    assert spec.r_ref * 2.0 == pytest.approx(1.0, rel=1e-13)


def test_matching_residual_contract():
    for (r, e, f) in [(1.0, 1.0, 2.0), (0.3, 2.5, 0.4), (5.0, 0.9, 1.1)]:
        spec = geometry.circle_matching_ellipse(r, e, f)
        per = geometry.ellipse_perimeter(spec)
        assert abs(per - 2 * math.pi * r) < 1e-10 * r


def test_matching_residual_raises_without_assert(monkeypatch):
    # a perimeter that is not linear in r_ref defeats the one-step solve
    real = geometry.ellipse_perimeter
    monkeypatch.setattr(
        geometry, "ellipse_perimeter", lambda spec: real(spec) * spec.r_ref
    )
    with pytest.raises(ArithmeticError):
        geometry.circle_matching_ellipse(2.0, 1.0, 2.0)


def test_matching_is_linear_in_target():
    s1 = geometry.circle_matching_ellipse(1.0, 1.0, 2.0)
    s2 = geometry.circle_matching_ellipse(2.0, 1.0, 2.0)
    assert s2.r_ref == pytest.approx(2.0 * s1.r_ref, rel=1e-13)


def test_matching_against_perimeter_ratio():
    spec = geometry.circle_matching_ellipse(1.0, 1.0, 2.0)
    unit = geometry.ellipse_perimeter(geometry.EllipseSpec(1.0, 1.0, 2.0))
    assert spec.r_ref == pytest.approx(2.0 * math.pi / unit, rel=1e-13)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_matching_and_torus_term_reject_radii_that_are_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="r_target must be positive"):
        geometry.circle_matching_ellipse(radius, 1.0, 2.0)
    for r_a, r_d in ((radius, 1.0), (1.0, radius)):
        with pytest.raises(ValueError, match="radii must be positive"):
            geometry.torus_term(r_a, r_d, 1.0, 2.0, 8)


def test_matching_names_the_factor_or_range_that_fails():
    with pytest.raises(ValueError, match=re.escape("must all be finite, got (1.0, inf, 2.0)")):
        geometry.circle_matching_ellipse(1.0, math.inf, 2.0)
    for r_target, e in ((1.0, 1e308), (1e308, 1.0)):
        with pytest.raises(ValueError, match="no finite ellipse"):
            geometry.circle_matching_ellipse(r_target, e, 1.0)


# -- torus terms ----------------------------------------------------------------------


def test_torus_term_circular_case():
    term = geometry.torus_term(2.0, 3.0, 1.0, 1.0, 16)
    assert term.c_hol == pytest.approx(6.0, rel=1e-12)
    assert max(abs(s) for s in term.shadow_samples) == 0.0


def test_torus_term_inscribed_radius_by_grid_minimum():
    term = geometry.torus_term(1.0, 1.0, 1.0, 2.0, 4096)
    spec = term.ellipse
    grid_min = min(
        abs(spec.point(2 * math.pi * j / 4096)) for j in range(4096)
    )
    assert grid_min == pytest.approx(spec.inscribed_radius, rel=1e-6)
    assert term.c_hol == pytest.approx(1.0 * spec.inscribed_radius, rel=1e-14)


def test_torus_term_shadow_sample_on_real_axis():
    term = geometry.torus_term(1.0, 1.0, 1.0, 2.0, 8)
    spec = term.ellipse
    s0 = term.shadow_samples[0]
    assert s0.imag == 0.0
    assert s0.real == pytest.approx(spec.r_ref * (2.0 - 1.0), rel=1e-12)


def test_torus_term_perimeter_preservation():
    for (r_d, e, f) in [(1.0, 1.0, 2.0), (0.5, 0.3, 2.6), (2.0, 1.4, 0.2)]:
        term = geometry.torus_term(1.0, r_d, e, f, 32)
        per = geometry.ellipse_perimeter(term.ellipse)
        assert abs(per - 2 * math.pi * r_d) < 1e-9 * r_d


def test_torus_term_validation():
    with pytest.raises(ValueError):
        geometry.torus_term(1.0, 1.0, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        geometry.torus_term(-1.0, 1.0, 1.0, 1.0, 8)


# -- series evaluation -------------------------------------------------------------------


def test_series_circular_terms_reduce_to_classical_sum():
    terms = [(1.0, 1.0, 1.0, 1.0), (0.5, 0.25, 1.0, 1.0)]
    z = complex(0.3, 0.8)
    val = geometry.weak_maass_series(terms, z)
    classical = sum(
        r_a * r_d * cmath.exp(2j * math.pi * n * z)
        for n, (r_a, r_d, _, _) in enumerate(terms, start=1)
    )
    assert val.shadow == 0
    assert val.full == val.hol
    assert val.full == pytest.approx(classical, rel=1e-12)


def test_series_single_term_hand_evaluation():
    # one term, n = 1, z = i: section factor at th = 2 pi, circle factor r_a
    r_a, r_d, e, f = 2.0, 1.0, 1.0, 2.0
    val = geometry.weak_maass_series([(r_a, r_d, e, f)], complex(0.0, 1.0))
    spec = geometry.circle_matching_ellipse(r_d, e, f)
    th = 2.0 * math.pi
    section = spec.r_ref * (
        0.5 * (f - e) * math.exp(th) + 0.5 * (f + e) * math.exp(-th)
    )
    assert val.full == pytest.approx(r_a * section, rel=1e-12)
    assert val.hol == pytest.approx(
        r_a * spec.inscribed_radius * math.exp(-th), rel=1e-12
    )
    assert val.shadow == pytest.approx(val.full - val.hol, rel=1e-9)


def test_series_zero_radius_term_is_inert():
    base = [(1.0, 1.0, 1.3, 0.7)]
    padded = base + [(0.0, 1.0, 2.0, 0.5)]
    z = complex(0.1, 0.6)
    assert geometry.weak_maass_series(base, z) == geometry.weak_maass_series(padded, z)


def test_series_requires_upper_half_plane():
    with pytest.raises(ValueError):
        geometry.weak_maass_series([(1.0, 1.0, 1.0, 1.0)], complex(0.0, -1.0))


def test_series_of_no_terms_is_zero():
    empty = geometry.weak_maass_series([], complex(0.1, 0.6))
    assert (empty.full, empty.hol, empty.shadow) == (0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_decomposition_identity(data):
    n_terms = data.draw(st.integers(1, 6))
    terms = [
        (
            data.draw(st.floats(0.1, 2.0)),
            data.draw(st.floats(0.3, 2.0)),
            data.draw(st.floats(0.3, 2.5)),
            data.draw(st.floats(0.3, 2.5)),
        )
        for _ in range(n_terms)
    ]
    z = complex(data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(0.2, 1.5)))
    val = geometry.weak_maass_series(terms, z)
    scale = max(abs(val.full), abs(val.hol) + abs(val.shadow), 1e-30)
    assert abs(val.full - (val.hol + val.shadow)) <= 1e-12 * scale
