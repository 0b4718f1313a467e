"""Self-tests for the benchmark's output checks.

Each check must pass on a correct output and fail on a deliberately
corrupted one.  Run from the checkout root:

    python3 -m pytest -q coldbench/test_checks.py

The tests use small graphs and truncations so they finish in about ten
seconds; the checks themselves are the ones the benchmark runs.
"""

import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from star_spectra import analytic, empirical, graph, spectrum, trace  # noqa: E402

# Small enough to build its kernel tables in a second or two.
TINY = analytic.Truncation(j_max=3, m_max=2, quad_points=32)


def _without(values, index):
    return np.delete(np.asarray(values), index)


@pytest.fixture(scope="module")
def v20_spectrum():
    g = graph.build_graph(20, 3)
    return g, spectrum.solve_spectrum(g, 60.0).eigenvalues


def test_root_count_fails_with_one_eigenvalue_removed(v20_spectrum):
    g, eig = v20_spectrum
    cut = checks.gap_midpoint(eig, 30.0)
    winding = spectrum.det_root_count(g, cut)
    assert checks.root_count(eig, cut, winding) == []
    assert checks.root_count(_without(eig, 5), cut, winding) == [0]


def test_gap_midpoint_sits_between_roots(v20_spectrum):
    _, eig = v20_spectrum
    cut = checks.gap_midpoint(eig, 30.0)
    below, above = eig[eig <= cut].max(), eig[eig > cut].min()
    assert below < cut < above
    assert min(cut - below, above - cut) > 1e-6


def test_weyl_bound_fails_when_an_interval_block_is_lost(v20_spectrum):
    g, eig = v20_spectrum
    assert checks.weyl_bound(len(eig), g.total_length, 60.0, g.v) == []
    lost = len(eig) - (g.v // 2 + 2)
    assert checks.weyl_bound(lost, g.total_length, 60.0, g.v) == [0]


def test_density_gap_fails_with_one_eigenvalue_removed():
    g = graph.build_graph(3, workloads.OrbitSeriesCold.DENSITY_GRAPH_SEED)
    grid = np.arange(5.0, 50.0 + 0.025, 0.05)
    eig = spectrum.solve_spectrum(g, 51.0)
    orbit = trace.density_from_orbits(g, grid, 0.1, 12).values
    exact = trace.density_from_spectrum(eig, grid, 0.1).values
    assert checks.density_gap(orbit, exact) == []
    short = spectrum.Spectrum(_without(eig.eigenvalues, 20), eig.lambda_max, g)
    assert checks.density_gap(orbit, trace.density_from_spectrum(short, grid, 0.1).values) == [0]


def test_exact_k_at_origin_fails_when_perturbed():
    k0 = analytic.k_formfactor(0.0, analytic.Truncation(j_max=4, m_max=8))
    assert checks.exactly(k0, 1.0) == []
    assert checks.exactly(np.nextafter(k0, 2.0), 1.0) == [0]


def test_k_agreement_fails_when_one_value_is_perturbed():
    taus = np.linspace(0.0, 0.1, 6)
    low = [analytic.k_formfactor(t, analytic.Truncation(j_max=4, m_max=8)) for t in taus]
    high = [analytic.k_formfactor(t, analytic.Truncation(j_max=8, m_max=24)) for t in taus]
    assert checks.close(high, low, 5e-4) == []
    high[3] += 1e-3
    assert checks.close(high, low, 5e-4) == [3]


def test_r2_unit_kernel_fails_when_perturbed():
    xs = np.array([0.3, 1.0, 2.5])
    values = [analytic.r2_analytic(x, TINY, kernel=np.ones_like) for x in xs]
    assert checks.r2_unit_kernel(xs, values) == []
    values[1] += 1e-10
    assert checks.r2_unit_kernel(xs, values) == [1]


def test_r3_relabeling_fails_on_a_broken_symmetry():
    points = [(0.4, 1.1), (1.3, 0.7)]
    values = [analytic.r3_full(x, y, TINY) for x, y in points]
    swapped = [analytic.r3_full(y, x, TINY) for x, y in points]
    relabeled = [analytic.r3_full(-x, y - x, TINY) for x, y in points]
    assert checks.r3_relabeling(values, swapped, relabeled) == []
    relabeled[1] += 1e-4
    assert checks.r3_relabeling(values, swapped, relabeled) == [1]


def test_zero_kernel_r3_fails_when_a_kernel_leaks():
    def zero(taus, tau_ps):
        return np.zeros((len(taus), len(tau_ps)))

    def leak(taus, tau_ps):
        return 1e-3 * np.exp(-np.add.outer(taus, tau_ps))

    ok = analytic.r3_full(0.5, 1.0, TINY, kernel=np.zeros_like, f12=zero, f34=zero)
    bad = analytic.r3_full(0.5, 1.0, TINY, kernel=np.zeros_like, f12=leak, f34=zero)
    assert checks.close([ok], [1.0], 1e-12) == []
    assert checks.close([bad], [1.0], 1e-12) == [0]


def test_f3_exact_polynomial_fails_on_a_perturbed_f3_value():
    trunc = analytic.Truncation(j_max=3, m_max=8)
    blocks = [analytic.f3_coefficients(3, trunc)]
    points = [(0.031, 0.038), (0.04, 0.033)]
    engine = [analytic.f3(t, tp, trunc) for t, tp in points]
    exact = [checks.exact_f3(Fraction(t), Fraction(tp), blocks) for t, tp in points]
    assert checks.f3_matches_exact(engine, exact) == []
    engine[0] *= 1.0 + 1e-6
    assert checks.f3_matches_exact(engine, exact) == [0]


def test_poisson_unity_fails_on_a_rigid_spectrum():
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(30):
        n = rng.poisson(1500.0)
        sets.append((np.sort(rng.uniform(0.0, 1500.0, n)), 1500.0))
    grid = [0.5, 1.0, 1.5]
    values, stderr, _ = empirical.r2_from_levels(sets, grid, 0.08)
    assert checks.poisson_unity(values, stderr) == []
    jitter = [(np.arange(0.5, 1500.0) + rng.normal(0.0, 0.05, 1500), 1500.0) for _ in range(30)]
    values, stderr, _ = empirical.r2_from_levels(jitter, grid, 0.08)
    assert checks.poisson_unity(values, stderr) == [0, 1, 2]


# The tiny ensembles trip the package's sparse-sample warning by design.
sparse_ok = pytest.mark.filterwarnings("ignore:only .* contribute:RuntimeWarning")


def _tiny_config(grid):
    return empirical.EnsembleConfig(v=10, realizations=3, lambda_max=40.0, seed=5, grid=grid)


@sparse_ok
def test_worker_invariance_fails_when_one_bit_differs():
    config = _tiny_config((0.5, 1.0, 1.5))
    one = empirical.estimate_r2(config, threads=1)
    two = empirical.estimate_r2(config, threads=2)
    assert checks.identical(one.values, two.values) == []
    assert checks.identical(one.pairs, two.pairs) == []
    flipped = list(two.values)
    flipped[2] = float(np.nextafter(flipped[2], np.inf))
    assert checks.identical(one.values, flipped) == [2]


@sparse_ok
def test_swap_symmetry_fails_on_a_broken_symmetry():
    grid = ((0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
    est = empirical.estimate_r3(_tiny_config(grid), threads=1)
    assert checks.swap_symmetric(est.grid, est.values) == []
    broken = list(est.values)
    broken[1] += 1e-12
    assert checks.swap_symmetric(est.grid, broken) == [0, 1]


def test_realization_seed_matches_the_package():
    for index in (0, 7):
        assert workloads.realization_seed(11, index) == empirical._realization_seed(11, index)
