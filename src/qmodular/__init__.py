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

Import each name from its module (``from qmodular.forms import delta``
or ``from qmodular import forms``); each module's ``__all__`` lists its
public names.  ``import qmodular`` imports no submodule, so a process
pays only for the modules it touches.
"""

__version__ = "0.1.0"
