"""Spectral statistics of quantum star graphs, computed two ways.

Empirically: draw random star graphs, solve the secular equation for their
eigenvalues, and estimate two- and three-point correlation functions from the
ensemble.  Analytically: evaluate the periodic-orbit series for the form
factor K(tau), the two-point correlation R2, and the connected three-point
kernel F(tau, tau'), and cross-validate the two routes.

The package exports each module's `__all__`; the modules list their names.
"""

from . import analytic, empirical, graph, orbits, spectrum, trace, workers
from .analytic import *
from .empirical import *
from .graph import *
from .orbits import *
from .spectrum import *
from .trace import *
from .workers import *

__version__ = "0.1.0"

__all__ = [
    *analytic.__all__,
    *empirical.__all__,
    *graph.__all__,
    *orbits.__all__,
    *spectrum.__all__,
    *trace.__all__,
    *workers.__all__,
    "__version__",
]
