"""Spectral statistics of quantum star graphs, computed two ways.

Empirically: draw random star graphs, solve the secular equation for their
eigenvalues, and estimate two- and three-point correlation functions from the
ensemble.  Analytically: evaluate the periodic-orbit series for the form
factor K(tau), the two-point correlation R2, and the connected three-point
kernel F(tau, tau'), and cross-validate the two routes.
"""

from .analytic import (
    DEFAULT_TRUNCATION,
    QuadratureError,
    Truncation,
    bessel_ratio,
    c_coeff,
    dirichlet_moment,
    f1,
    f2,
    f3,
    f3_coefficients,
    f4,
    f4_coefficients,
    f_components,
    f_expansion,
    f_total,
    k_formfactor,
    r2_analytic,
    r3_connected,
    r3_full,
)
from .empirical import (
    CorrelationEstimate,
    EnsembleConfig,
    estimate_r2,
    estimate_r3,
    r2_from_levels,
    r3_from_levels,
    unfold,
)
from .graph import StarGraph, build_graph, load_graph, s_amplitude, save_graph
from .orbits import (
    OrbitClass,
    amplitude,
    classify,
    enumerate_class,
    necklaces,
    partitions,
    q_bruteforce,
    q_formula,
    repetition_number,
)
from .spectrum import (
    PoleProximity,
    Spectrum,
    det_root_count,
    mean_spacing,
    polish_roots_det,
    secular_det,
    secular_real,
    secular_tan,
    solve_spectrum,
)
from .trace import SmoothedDensity, density_from_orbits, density_from_spectrum
from .workers import worker_count

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRUNCATION",
    "QuadratureError",
    "Truncation",
    "bessel_ratio",
    "c_coeff",
    "dirichlet_moment",
    "f1",
    "f2",
    "f3",
    "f3_coefficients",
    "f4",
    "f4_coefficients",
    "f_components",
    "f_expansion",
    "f_total",
    "k_formfactor",
    "r2_analytic",
    "r3_connected",
    "r3_full",
    "CorrelationEstimate",
    "EnsembleConfig",
    "estimate_r2",
    "estimate_r3",
    "r2_from_levels",
    "r3_from_levels",
    "unfold",
    "worker_count",
    "StarGraph",
    "build_graph",
    "load_graph",
    "s_amplitude",
    "save_graph",
    "OrbitClass",
    "amplitude",
    "classify",
    "enumerate_class",
    "necklaces",
    "partitions",
    "q_bruteforce",
    "q_formula",
    "repetition_number",
    "PoleProximity",
    "Spectrum",
    "det_root_count",
    "mean_spacing",
    "polish_roots_det",
    "secular_det",
    "secular_real",
    "secular_tan",
    "solve_spectrum",
    "SmoothedDensity",
    "density_from_orbits",
    "density_from_spectrum",
    "__version__",
]
