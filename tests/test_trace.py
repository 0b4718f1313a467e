"""Smoothed spectral density: orbit-sum route against the exact-spectrum route."""

from math import comb

import numpy as np
import pytest

from oracles import amplitude
from star_spectra import (
    StarGraph,
    build_graph,
    density_from_orbits,
    density_from_spectrum,
    necklaces,
    repetition_number,
    solve_spectrum,
)
from star_spectra.trace import _class_terms


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _necklace_density(graph, grid, sigma, k_max):
    """The trace formula summed word by word over every necklace.

    The oracle for the class engine: each orbit's own length, amplitude and
    repetition number, with no orbit count from the closed formula.
    """
    l = graph.lengths_array()
    values = np.full_like(grid, graph.total_length / (2.0 * np.pi))
    for k in range(1, k_max + 1):
        words = [word for word, _ in necklaces(k, graph.v)]
        lengths = np.array([2.0 * l[list(word)].sum() for word in words])
        coefs = lengths * [amplitude(word, graph.v) / repetition_number(word) for word in words]
        weights = coefs * np.exp(-0.5 * (sigma * lengths) ** 2)
        values += weights @ np.cos(np.multiply.outer(lengths, grid)) / np.pi
    return values


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


def test_class_sum_matches_the_necklace_sum():
    grid = np.arange(2.0, 40.0 + 1e-9, 0.1)
    sigma = 0.1
    for seed, (v, k_max) in enumerate([(1, 20), (2, 10), (3, 8), (4, 6), (5, 5)]):
        graph = build_graph(v, seed=seed + 11)
        oracle = _necklace_density(graph, grid, sigma, k_max)
        values = density_from_orbits(graph, grid, sigma, k_max).values
        assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(oracle)), (v, k_max)


def test_one_term_per_edge_subset_and_composition():
    for v, k_max in [(1, 7), (3, 12), (4, 6), (5, 5)]:
        lengths, coefs = _class_terms(build_graph(v, seed=v), k_max)
        expect = sum(
            comb(v, j) * comb(k - 1, j - 1)
            for k in range(1, k_max + 1)
            for j in range(1, min(v, k) + 1)
        )
        assert len(lengths) == len(coefs) == expect
    assert len(_class_terms(build_graph(3, seed=7), 12)[0]) == 454


def test_orbit_budget_guard():
    # the budget counts class terms, C(v + k_max, k_max) - 1: 8.3e6 at
    # v=5, k_max=60, and a single edge has one term per k
    graph = build_graph(5, seed=1)
    grid = np.linspace(5.0, 10.0, 5)
    with pytest.raises(ValueError, match="class terms"):
        density_from_orbits(graph, grid, 0.1, k_max=60)
    with pytest.raises(ValueError, match="class terms"):
        density_from_orbits(graph, grid, 0.1, k_max=10**7)
    with pytest.raises(ValueError, match="class terms"):
        density_from_orbits(build_graph(1, seed=1), grid, 0.1, k_max=10**6 + 1)
    with pytest.raises(ValueError):
        density_from_orbits(graph, grid, 0.1, k_max=-1)


def test_deep_orbit_sum_meets_the_exact_density():
    # criterion 09's graph at k_max = 20 takes 1,770 class terms; the
    # 3^20 words they stand for are not a budget
    graph = build_graph(3, seed=7)
    grid = np.arange(5.0, 50.0 + 0.025, 0.05)
    exact = density_from_spectrum(solve_spectrum(graph, 51.0), grid, 0.1).values
    assert _rel_l2(density_from_orbits(graph, grid, 0.1, k_max=20).values, exact) < 5e-5


def test_orbit_cutoff_must_be_an_int():
    graph = build_graph(3, seed=1)
    grid = np.linspace(5.0, 10.0, 5)
    for k_max in (4.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="k_max must be an int"):
            density_from_orbits(graph, grid, 0.1, k_max=k_max)
