"""Torus terms with elliptic cross sections: holomorphic part and shadow.

Each Fourier term of a classical cusp expansion is modeled as a product
of two circle factors with radii (r_a, r_d).  Deforming the second
circle into an ellipse while preserving its perimeter produces one term
of a weakly modular series: the inscribed circle of the ellipse carries
the holomorphic part, with coefficient

    c_hol = r_a * r_ref * min(e, f),

and the residue between ellipse and inscribed circle is the term's
shadow.  Here (e, f) are dimensionless half-axis factors relative to the
reference radius r_ref, which is fixed by requiring the ellipse
perimeter to equal 2 pi r_d.

For series evaluation the angular argument of the cross-section is
taken along the imaginary direction, so cosine/sine turn hyperbolic:

    f cos -> f cosh(th),  i e sin -> -e sinh(th),  th = 2 pi n Im(z),

written stably as ((f-e)/2) e^th + ((f+e)/2) e^(-th).  When e = f this
collapses to f e^(-th), exactly reproducing the classical decaying term
and making the shadow vanish identically (also in floating point, since
the e^th coefficient is an exact zero).  The index n enters only
through th: :func:`torus_term` builds a term without it, and
:func:`weak_maass_series` numbers and sums its whole list of terms.

Perimeters use the arithmetic-geometric-mean evaluation of the complete
elliptic integral of the second kind, converged to ~1e-15 relative.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

from .qseries import Record

__all__ = [
    "EllipseSpec",
    "TorusTerm",
    "WeakMaassValue",
    "ellipse_perimeter",
    "circle_matching_ellipse",
    "torus_term",
    "weak_maass_series",
]


class EllipseSpec(Record):
    """Ellipse with semiaxes r_ref*f (real axis) and r_ref*e (imaginary)."""

    __slots__ = _fields = ("r_ref", "e", "f")

    def __init__(self, r_ref: float, e: float, f: float) -> None:
        if not (r_ref > 0 and e > 0 and f > 0):
            raise ValueError(
                f"r_ref, e, f must all be positive, got ({r_ref}, {e}, {f})"
            )
        if math.inf in (r_ref, e, f):
            raise ValueError(f"r_ref, e, f must all be finite, got ({r_ref}, {e}, {f})")
        super().__init__(r_ref, e, f)

    @property
    def semi_real(self) -> float:
        return self.r_ref * self.f

    @property
    def semi_imag(self) -> float:
        return self.r_ref * self.e

    @property
    def inscribed_radius(self) -> float:
        return self.r_ref * min(self.e, self.f)

    def point(self, theta: float) -> complex:
        """Boundary point r_ref (f cos theta + i e sin theta)."""
        return self.r_ref * complex(
            self.f * math.cos(theta), self.e * math.sin(theta)
        )


def ellipse_perimeter(spec: EllipseSpec) -> float:
    """Perimeter via the AGM form of the complete elliptic integral E.

    With a >= b the perimeter is 4 a E(m), m = 1 - (b/a)^2, and

        E(m) = K(m) (1 - sum_{j>=0} 2^(j-1) c_j^2),
        K(m) = pi / (2 agm(1, sqrt(1-m))),

    where c_j = (a_{j-1} - b_{j-1})/2 along the AGM iteration.  The
    iteration is quadratically convergent; it is run to machine
    precision, far inside the 1e-12 relative contract.  A circle runs the
    same iteration, stops at once with s = 0, and returns 2 pi a bit for bit.
    """
    a = max(spec.semi_real, spec.semi_imag)
    b = min(spec.semi_real, spec.semi_imag)
    an, bn = 1.0, b / a
    if bn == 0.0:
        # b/a underflowed: the b -> 0 limit 4a is off by O((b/a)^2 log(a/b)) relative
        return 4.0 * a
    s = 0.5 * (1.0 - bn * bn)  # 2^{-1} c_0^2 with c_0^2 = 1 - (b/a)^2
    pw = 0.5
    for _ in range(64):  # quadratic convergence: ~6 rounds to machine eps
        if an - bn <= 4e-16 * an:
            break
        cn = 0.5 * (an - bn)
        an, bn = 0.5 * (an + bn), math.sqrt(an * bn)
        pw *= 2.0
        s += pw * cn * cn
    k_val = math.pi / (2.0 * an)
    return 4.0 * a * k_val * (1.0 - s)


def circle_matching_ellipse(r_target: float, e: float, f: float) -> EllipseSpec:
    """Reference radius making the (e, f) ellipse as long as a circle.

    Solves perimeter(r_ref, e, f) = 2 pi r_target for r_ref.  The map is
    exactly linear in r_ref, so the Newton step from the unit-reference
    perimeter lands on the root at once; a residual above the 1e-10
    relative contract raises ``ArithmeticError`` anyway.  Both radii must
    be normal floats: a subnormal one holds too few digits for the
    contract, and 1e-10 of it can round to 0.0.
    """
    if not sys.float_info.min <= r_target < math.inf:  # also rejects nan
        raise ValueError(f"r_target must be positive, finite and normal, got {r_target}")
    unit = ellipse_perimeter(EllipseSpec(1.0, e, f))
    r_ref = 2.0 * math.pi * r_target / unit
    if not sys.float_info.min <= r_ref < math.inf:  # the perimeter or r_ref left the range
        raise ValueError(
            f"no finite ellipse with factors ({e}, {f}) matches radius {r_target}"
            f" (r_ref {r_ref} is not a normal float)"
        )
    spec = EllipseSpec(r_ref, e, f)
    residual = abs(ellipse_perimeter(spec) - 2.0 * math.pi * r_target)
    if not residual < 1e-10 * r_target:
        raise ArithmeticError(f"matching residual {residual} exceeds 1e-10 * {r_target}")
    return spec


class TorusTerm(Record):
    """One series term: a perimeter-matched ellipse and what it yields.

    ``c_hol`` is the coefficient r_a * r_in of the inscribed-circle part;
    ``shadow_samples`` trace the difference curve between the elliptic
    section and its inscribed circle on a uniform angular grid.
    """

    __slots__ = _fields = ("ellipse", "c_hol", "shadow_samples")


def torus_term(r_a: float, r_d: float, e: float, f: float, grid_size: int) -> TorusTerm:
    """Build one term from its circle radius r_a and section (r_d, e, f)."""
    if grid_size < 4:
        raise ValueError(f"grid_size must be >= 4, got {grid_size}")
    if not (0 < r_a < math.inf and 0 < r_d < math.inf):  # also rejects nan
        raise ValueError(f"radii must be positive and finite, got ({r_a}, {r_d})")
    spec = circle_matching_ellipse(r_d, e, f)
    c_hol = r_a * spec.inscribed_radius
    # Semiaxes and inscribed radius are shared subexpressions, so for
    # e == f the two boundary points are bit-identical and the shadow
    # cancels exactly, not just to rounding.
    semi_re, semi_im = spec.semi_real, spec.semi_imag
    r_in = spec.inscribed_radius
    samples = [0j] * grid_size  # an impossible size fails here, before any work
    for j in range(grid_size):
        theta = 2.0 * math.pi * j / grid_size
        ct, st = math.cos(theta), math.sin(theta)
        samples[j] = complex(semi_re * ct - r_in * ct, semi_im * st - r_in * st)
    return TorusTerm(spec, c_hol, tuple(samples))


class WeakMaassValue(Record):
    """The series at one z: ``full`` = ``hol`` + ``shadow`` to rounding."""

    __slots__ = _fields = ("full", "hol", "shadow")


def _section_and_inscribed(spec: EllipseSpec, th: float) -> tuple[float, float]:
    """Section value r_ref (f cosh th - e sinh th) and its inscribed decay.

    The stable split ((f-e)/2) e^th + ((f+e)/2) e^(-th) keeps the
    growing mode's coefficient an exact zero when e == f, and the decay
    coefficient then equals the inscribed radius bit-for-bit, so the
    shadow contribution vanishes identically for circular sections.
    """
    grow = spec.r_ref * (0.5 * (spec.f - spec.e))
    decay = spec.r_ref * (0.5 * (spec.f + spec.e))
    damp = math.exp(-th)
    section = decay * damp
    if grow != 0.0:
        section += grow * math.exp(th)
    return section, spec.inscribed_radius * damp


def weak_maass_series(
    terms: Sequence[tuple[float, float, float, float]], z: complex
) -> WeakMaassValue:
    """Evaluate the three-part sum at z: full, holomorphic, shadow.

    ``terms`` lists (r_a, r_d, e, f) for n = 1, 2, ..., and every one
    enters; a caller that wants fewer terms slices the list.  Per term,

        full_n   = r_a e^(2 pi i n x) * section(2 pi n y)
        hol_n    = c_hol e^(2 pi i n z)
        shadow_n = full_n - hol_n, accumulated independently,

    summed in ascending n (the order is part of the contract).  The
    identity full = hol + shadow then holds to rounding rather than by
    construction.  A term with r_a = 0 adds nothing; a negative or
    non-finite r_a, and a z off the finite upper half-plane, are refused,
    as is a term that takes a sum past the float range.
    """
    if not z.imag > 0:  # also rejects nan
        raise ValueError(f"need Im(z) > 0, got {z.imag}")
    if not cmath.isfinite(z):
        raise ValueError(f"need a finite z, got {z}")
    x, y = z.real, z.imag
    full = complex(0.0)
    hol = complex(0.0)
    shadow = complex(0.0)
    for n, term in enumerate(terms, start=1):
        r_a, r_d, e, f = term
        if not 0 <= r_a < math.inf:  # also rejects nan
            raise ValueError(f"r_a must be >= 0 and finite, got {r_a}")
        if r_a == 0.0:
            continue
        spec = circle_matching_ellipse(r_d, e, f)
        th = 2.0 * math.pi * n * y
        circle = r_a * cmath.exp(2j * math.pi * n * x)
        try:
            section, inscribed = _section_and_inscribed(spec, th)
        except OverflowError:  # e^th past the float range
            section = inscribed = math.inf
        full += circle * section
        hol += circle * inscribed
        shadow += circle * (section - inscribed)
        if not (cmath.isfinite(full) and cmath.isfinite(hol) and cmath.isfinite(shadow)):
            raise ValueError(f"term n={n} {term} overflows the float range at z={z}")
    return WeakMaassValue(full, hol, shadow)
