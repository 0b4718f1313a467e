"""Smoothed spectral density: orbit-sum route against the exact-spectrum route."""

import numpy as np
import pytest

from star_spectra import (
    StarGraph,
    build_graph,
    density_from_orbits,
    density_from_spectrum,
    solve_spectrum,
)


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_single_edge_orbit_sum_reproduces_exact_density():
    # For one unit edge the eigenvalues are k*pi and every length-k word is a
    # k-fold repeat of the single excursion with unit amplitude; the orbit sum
    # is then the exact Poisson-summation series for the delta comb, so the
    # two smoothed densities must agree to the truncation tail.
    graph = StarGraph(v=1, lengths=(1.0,), seed=0)
    grid = np.arange(5.0, 45.0 + 1e-9, 0.05)
    sigma = 0.1
    exact = density_from_spectrum(solve_spectrum(graph, 52.0), grid, sigma)
    orbit = density_from_orbits(graph, grid, sigma, k_max=28)
    assert orbit.max_period == 56
    assert exact.max_period == 0
    assert orbit.sigma == exact.sigma == sigma
    assert _rel_l2(orbit.values, exact.values) < 1e-4


def test_truncation_error_decreases_with_longer_orbits():
    graph = build_graph(2, seed=3)
    grid = np.arange(5.0, 30.0 + 1e-9, 0.05)
    sigma = 0.1
    exact = density_from_spectrum(solve_spectrum(graph, 31.5), grid, sigma).values
    dists = [
        _rel_l2(density_from_orbits(graph, grid, sigma, k_max=k).values, exact)
        for k in (6, 9, 12)
    ]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.05


def test_smoothed_density_mass_counts_eigenvalues():
    graph = build_graph(3, seed=5)
    sigma = 0.1
    spectrum = solve_spectrum(graph, 30.0)
    eigs = spectrum.eigenvalues
    wide = np.nonzero(np.diff(eigs) > 13 * sigma)[0]
    assert len(wide) >= 2, "need two wide spectral gaps to cut a clean window"
    a = 0.5 * (eigs[wide[0]] + eigs[wide[0] + 1])
    b = 0.5 * (eigs[wide[-1]] + eigs[wide[-1] + 1])
    inside = int(np.sum((eigs > a) & (eigs < b)))
    assert inside > 0

    def integral(n):
        grid = np.linspace(a, b, n + 1)
        return float(np.trapezoid(density_from_spectrum(spectrum, grid, sigma).values, grid))

    coarse, fine = integral(4096), integral(8192)
    richardson = (4.0 * fine - coarse) / 3.0
    assert abs(richardson - inside) < 1e-6


def test_zero_orbits_gives_bare_weyl_term():
    graph = build_graph(4, seed=6)
    grid = np.linspace(3.0, 9.0, 50)
    density = density_from_orbits(graph, grid, sigma=0.2, k_max=0)
    assert np.all(density.values == graph.total_length / (2.0 * np.pi))


def test_smoothing_width_must_be_finite_and_positive():
    graph = build_graph(3, seed=2)
    spectrum = solve_spectrum(graph, 12.0)
    grid = np.linspace(5.0, 10.0, 5)
    for sigma in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            density_from_spectrum(spectrum, grid, sigma)
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            density_from_orbits(graph, grid, sigma, k_max=2)


def test_orbit_budget_guard():
    graph = build_graph(5, seed=1)
    grid = np.linspace(5.0, 10.0, 5)
    with pytest.raises(ValueError):
        density_from_orbits(graph, grid, 0.1, k_max=12)
    with pytest.raises(ValueError):
        density_from_orbits(graph, grid, 0.1, k_max=-1)
