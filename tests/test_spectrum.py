"""Eigenvalue solver cross-checks between the tangent and determinant forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star_spectra import (
    PoleProximity,
    StarGraph,
    build_graph,
    det_root_count,
    mean_spacing,
    polish_roots_det,
    secular_det,
    secular_real,
    secular_tan,
    solve_spectrum,
)
from star_spectra.spectrum import SolverNotConverged, _tan_sum


def test_single_edge_unit_length_spectrum_is_pi_grid():
    # one unit edge: sum tan(lambda * l) = tan(lambda) = 0 at multiples of pi
    graph = StarGraph(v=1, lengths=(1.0,), seed=0)
    spectrum = solve_spectrum(graph, 20.0)
    assert np.allclose(spectrum.eigenvalues, np.pi * np.arange(1, 7), atol=1e-10, rtol=0)
    assert len(spectrum) == det_root_count(graph, 20.0) == 6
    assert mean_spacing(graph) == pytest.approx(np.pi, rel=1e-15)


def test_solver_is_deterministic():
    graph = build_graph(6, seed=8)
    a = solve_spectrum(graph, 60.0)
    b = solve_spectrum(graph, 60.0)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_eigenvalues_sorted_positive_below_cutoff():
    graph = build_graph(4, seed=21)
    spectrum = solve_spectrum(graph, 80.0)
    eigs = spectrum.eigenvalues
    assert np.all(eigs > 0)
    assert np.all(eigs <= 80.0)
    assert np.all(np.diff(eigs) > 0)
    assert len(spectrum) == len(eigs)


def test_count_tracks_mean_spacing():
    graph = build_graph(8, seed=2)
    spectrum = solve_spectrum(graph, 90.0)
    assert len(spectrum) == pytest.approx(90.0 / mean_spacing(graph), rel=0.05)


def test_tan_form_increases_between_poles():
    graph = build_graph(3, seed=11)
    poles = np.sort(
        np.concatenate([(np.arange(6) + 0.5) * np.pi / l for l in graph.lengths])
    )
    for a, b in zip(poles[:-1], poles[1:]):
        if b - a < 1e-6:
            continue
        xs = np.linspace(a + 0.15 * (b - a), b - 0.15 * (b - a), 5)
        vals = [secular_tan(graph, float(x)) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_tan_sum_value_and_slope_match_direct_forms():
    graph = build_graph(7, seed=2)
    l = graph.lengths_array()
    x = np.linspace(0.3, 40.0, 997)
    value, slope = _tan_sum(x, l)
    arg = np.multiply.outer(x, l)
    assert np.array_equal(value, np.tan(arg).sum(axis=1))
    assert np.allclose(slope, (l / np.cos(arg) ** 2).sum(axis=1), rtol=1e-12, atol=0)


def test_tan_form_rejects_pole_neighborhood():
    graph = build_graph(2, seed=4)
    pole = 0.5 * np.pi / graph.lengths[0]
    with pytest.raises(PoleProximity):
        secular_tan(graph, float(pole))


def test_roots_satisfy_determinant_form():
    graph = build_graph(5, seed=19)
    spectrum = solve_spectrum(graph, 50.0)
    polished = polish_roots_det(graph, spectrum.eigenvalues)
    residuals = np.array([abs(secular_det(graph, float(lam))) for lam in polished])
    assert residuals.max() < 1e-8
    # polishing against the determinant must not move the tangent roots far
    assert np.abs(polished - spectrum.eigenvalues).max() < 1e-6


def test_root_counts_agree_between_forms():
    for v, seed in ((2, 1), (7, 3), (13, 5)):
        graph = build_graph(v, seed=seed)
        spectrum = solve_spectrum(graph, 60.0)
        assert det_root_count(graph, 60.0) == len(spectrum)


def test_winding_count_across_evolution_chunks():
    # at v = 100 the winding stacks 50 steps per chunk; a cut near lambda = 100
    # takes about 130 steps, so the count runs across two chunk boundaries
    graph = build_graph(100, seed=3)
    eigs = solve_spectrum(graph, 101.0).eigenvalues
    i = int(np.searchsorted(eigs, 100.0))
    cut = 0.5 * (eigs[i - 1] + eigs[i])
    assert det_root_count(graph, cut) == i


def test_det_polish_leaves_cross_validated_roots_in_place():
    # criterion 07's graphs: a correct tan-form root moves by ~1e-14 under the
    # determinant polish.  A root left at a bracket midpoint instead of its
    # Newton iterate moves by 5e-4 on these graphs, which criterion 07 misses:
    # its polish converges to the true root from there and the residual stays
    # small.
    rng = np.random.default_rng(20240816)
    for _ in range(20):
        v = int(rng.integers(2, 21))
        graph = build_graph(v, int(rng.integers(0, 2**31 - 1)))
        eigs = solve_spectrum(graph, 100.0).eigenvalues
        assert np.abs(polish_roots_det(graph, eigs) - eigs).max() <= 1e-9


def test_near_degenerate_lengths_count_matches_winding():
    """Four edges within 3*sep of each other pack three roots per cluster.

    The poles between them are almost coincident, or coincide exactly at
    sep=0.  The eigenvalues stay non-decreasing; with equal lengths each
    cluster is the common pole itself, listed once per extra equal edge.
    """
    for sep in (1e-9, 1e-13, 0.0):
        lengths = (1.0, 1.0 + sep, 1.0 + 2 * sep, 1.0 + 3 * sep, 1.3)
        graph = StarGraph(v=5, lengths=lengths, seed=0)
        eigs = solve_spectrum(graph, 60.0).eigenvalues
        assert len(eigs) == det_root_count(graph, 60.0) == 101
        assert np.all(np.diff(eigs) >= 0)
    # 19 poles of the unit edge lie below 60, each a triple eigenvalue
    assert np.count_nonzero(np.diff(eigs) == 0) == 2 * 19


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    v=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    lambda_max=st.floats(1.0, 80.0, exclude_min=True),
)
def test_solver_agrees_with_determinant_side(v, seed, lambda_max):
    graph = build_graph(v, seed)
    eigs = solve_spectrum(graph, lambda_max).eigenvalues
    assert len(eigs) == det_root_count(graph, lambda_max)
    assert np.all(np.diff(eigs) > 0)
    for lam in polish_roots_det(graph, eigs):
        assert abs(secular_det(graph, float(lam))) < 1e-8


@pytest.mark.parametrize("v", [1, 2, 7, 20])
def test_reduced_determinant_matches_directed_edge_determinant(v):
    # the 2v x 2v directed-edge evolution U = exp(-i*lam*Lhat) S, with bonds
    # ordered [out(center->1..v), in(1..v->center)]: an out bond reflects into
    # its own in bond, an in bond scatters at the center with C = (2/v)J - I
    graph = build_graph(v, seed=v)
    l = graph.lengths_array()
    s = np.zeros((2 * v, 2 * v))
    s[:v, v:] = np.full((v, v), 2.0 / v) - np.eye(v)
    s[v:, :v] = np.eye(v)
    # midpoints between consecutive eigenvalues keep |det| away from zero
    eigs = solve_spectrum(graph, 40.0).eigenvalues
    mids = 0.5 * (eigs[1:] + eigs[:-1])
    for lam in mids:
        u = np.exp(-1j * lam * np.concatenate([l, l]))[:, None] * s
        expected = np.linalg.det(np.eye(2 * v) - u)
        np.testing.assert_allclose(secular_det(graph, float(lam)), expected, rtol=1e-10, atol=0)
    # array-first: an array gives each element the bits of the scalar call
    scalars = [secular_det(graph, float(lam)) for lam in mids]
    assert all(type(d) is complex for d in scalars)
    assert np.array_equal(secular_det(graph, mids), np.array(scalars))
    assert secular_det(graph, mids[:4].reshape(2, 2)).shape == (2, 2)


def test_determinant_side_flips_sign_across_roots():
    graph = build_graph(3, seed=9)
    spectrum = solve_spectrum(graph, 30.0)
    eps = 1e-4
    for lam in spectrum.eigenvalues[:10]:
        lo, hi = secular_real(graph, np.array([lam - eps, lam + eps]))
        assert lo * hi < 0


def test_nonpositive_cutoff_rejected():
    graph = build_graph(2, seed=0)
    with pytest.raises(ValueError):
        solve_spectrum(graph, 0.0)


def test_nonfinite_cutoff_rejected():
    graph = build_graph(2, seed=0)
    for count in (solve_spectrum, det_root_count):
        for cutoff in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                count(graph, cutoff)


def test_unconverged_newton_iteration_raises(monkeypatch):
    monkeypatch.setattr("star_spectra.spectrum._MAX_NEWTON_ITERATIONS", 3)
    with pytest.raises(SolverNotConverged):
        solve_spectrum(build_graph(5, seed=1), 50.0)
