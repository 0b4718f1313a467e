"""Output checks for the benchmark workloads.

Every check compares a result against an independent route or against a
property the method must have, never against a stored copy of an earlier
run.  Each check takes plain numbers or arrays, so the self-tests can feed it
a corrupted input, and returns the list of failing items: the indices of the
failing points, or ``[0]`` for a check on a single quantity.  An empty list
means the check passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def relative_l2_gap(approx, exact) -> float:
    """||approx - exact|| / ||exact|| over a common grid."""
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(np.asarray(approx, dtype=float) - exact) / np.linalg.norm(exact))


def density_gap(orbit_density, exact_density, limit: float = 0.05) -> list:
    """The orbit-sum density is within `limit` relative L2 of the exact one."""
    return [] if relative_l2_gap(orbit_density, exact_density) < limit else [0]


def exactly(value: float, expected: float) -> list:
    """A value the series fixes exactly, such as K(0) = 1."""
    return [] if value == expected else [0]


def close(values, reference, tol: float) -> list:
    """Points where |value - reference| exceeds the absolute tolerance."""
    dev = np.abs(np.asarray(values, dtype=float) - np.asarray(reference, dtype=float))
    return [int(i) for i in np.nonzero(~(dev <= tol))[0]]


def r2_unit_kernel(xs, r2_values, tol: float = 1e-12) -> list:
    """With K = 1 the clamped transform is 1 + 2 int_0^1/2 cos(2 pi x t) dt = 1 + sinc(x)."""
    return close(r2_values, 1.0 + np.sinc(np.asarray(xs, dtype=float)), tol)


def r3_relabeling(values, swapped, relabeled, tol: float = 1e-6) -> list:
    """R3(x, y) = R3(y, x) = R3(-x, y - x): the three levels are interchangeable."""
    bad = set(close(swapped, values, tol)) | set(close(relabeled, values, tol))
    return sorted(bad)


def exact_f3(tau: Fraction, tau_p: Fraction, blocks) -> Fraction:
    """F3 from the exact inner polynomials: (tau + tau') sum_j sum c_ab tau^a tau'^b.

    `blocks` holds one {(a, b): Fraction} mapping per kept block, as
    `f3_coefficients` returns them (an exact DP, independent of the float
    convolution engine behind `f3`).
    """
    total = Fraction(0)
    for coefficients in blocks:
        for (a, b), c in coefficients.items():
            total += c * tau**a * tau_p**b
    return (tau + tau_p) * total


def f3_matches_exact(float_values, exact_values, rtol: float = 1e-8) -> list:
    """Points where the float F3 engine leaves the exact polynomial."""
    exact = np.asarray([float(v) for v in exact_values])
    dev = np.abs(np.asarray(float_values, dtype=float) - exact)
    return [int(i) for i in np.nonzero(~(dev <= rtol * np.abs(exact)))[0]]


def gap_midpoint(eigenvalues, near: float) -> float:
    """Midpoint of the widest eigenvalue gap within 10% of `near`.

    Counting roots below a cut that sits in a wide gap keeps the count well
    defined for both routes: no root lies within rounding of the cut.
    """
    eig = np.asarray(eigenvalues, dtype=float)
    window = eig[(eig > 0.9 * near) & (eig < 1.1 * near)]
    gaps = np.diff(window)
    k = int(np.argmax(gaps))
    return float(0.5 * (window[k] + window[k + 1]))


def root_count(eigenvalues, cut: float, winding_count: int) -> list:
    """Tan-form roots below `cut` equal the eigenphase-winding count."""
    return [] if int(np.sum(np.asarray(eigenvalues) <= cut)) == int(winding_count) else [0]


def weyl_bound(n_roots: int, total_length: float, lambda_max: float, v: int) -> list:
    """|N - L lambda / 2 pi| <= v/2 + 1: one root per inter-pole interval."""
    weyl = total_length * lambda_max / (2.0 * np.pi)
    return [] if abs(n_roots - weyl) <= v / 2 + 1 else [0]


def poisson_unity(values, stderr, sigmas: float = 3.0) -> list:
    """Points where an estimate from Poisson levels is more than `sigmas` from 1."""
    dev = np.abs(np.asarray(values, dtype=float) - 1.0)
    return [int(i) for i in np.nonzero(~(dev <= sigmas * np.asarray(stderr, dtype=float)))[0]]


def identical(a, b) -> list:
    """Points where two results differ in any bit (length mismatch fails all)."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return list(range(max(len(a), len(b))))
    return [i for i, (p, q) in enumerate(zip(a, b)) if p != q]


def swap_symmetric(grid, values) -> list:
    """Points (x, y) whose estimate differs in any bit from that at (y, x)."""
    at = {tuple(point): value for point, value in zip(grid, values)}
    return [
        i
        for i, (x, y) in enumerate(grid)
        if (y, x) in at and at[(y, x)] != at[(x, y)]
    ]
