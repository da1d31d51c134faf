"""Exact q-expansion arithmetic for classical modular objects.

Subpackages:

* :mod:`qmodular.qseries` -- exact truncated power series with
  fractional exponent offsets, the substrate for everything else;
* :mod:`qmodular.forms` -- eta/discriminant expansions, tau, the
  weight-12 Eisenstein series, Hecke operators and eigenform checks;
* :mod:`qmodular.theta_partitions` -- theta series, partition counts,
  Dyson rank tables, the two-variable rank generating series and the
  mock theta series f(q);
* :mod:`qmodular.lseries` -- Dirichlet series, Euler products, the
  completed-integral values Lambda(s), and critical-line zeta zeros;
* :mod:`qmodular.geometry` -- perimeter-preserving elliptic sections,
  torus terms, holomorphic/shadow decomposition;
* :mod:`qmodular.verify` / :mod:`qmodular.cli` -- verification suites
  and the command-line front end.

Names load on first use: ``import qmodular`` imports no submodule, and
``qmodular.delta`` (or ``from qmodular import delta``) imports
:mod:`qmodular.forms` when it is first asked for.  So a process pays
only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS_BY_MODULE = {
    "qseries": (
        "QSeries",
        "WindowError",
        "add",
        "euler_product",
        "invert",
        "make_series",
        "mul",
        "pow",
        "scalar_mul",
    ),
    "forms": ("CosetRep", "FormMeta", "delta", "eisenstein_e12", "eta", "tau"),
    "theta_partitions": (
        "OmegaPoly",
        "RankTable",
        "mock_theta_f",
        "partition_count",
        "rank_generating",
        "rank_table",
        "theta_diagonal",
        "unary_theta",
    ),
    "lseries": (
        "CompletedLValue",
        "DirichletSeries",
        "ZeroList",
        "completed_lambda_integral",
        "dirichlet_eval",
        "euler_product_coeffs",
        "mellin_coeffs",
        "zeta_zero_spacings",
    ),
    "geometry": (
        "EllipseSpec",
        "TorusTerm",
        "circle_matching_ellipse",
        "ellipse_perimeter",
        "torus_term",
        "weak_maass_series",
    ),
}
_EXPORTS = {name: mod for mod, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = [*_EXPORTS, *_EXPORTS_BY_MODULE]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS_BY_MODULE:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
