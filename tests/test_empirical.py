"""Monte Carlo correlation estimators: kernel sums, hygiene, ensembles."""

import multiprocessing
import warnings

import numpy as np
import pytest

from star_spectra import (
    CorrelationEstimate,
    EnsembleConfig,
    StarGraph,
    build_graph,
    estimate_r2,
    estimate_r3,
    r2_from_levels,
    r3_from_levels,
    solve_spectrum,
    unfold,
    worker_count,
)
from star_spectra.empirical import (
    _SUPPORT,
    _kernel_sums,
    _partner_window,
    _r3_one,
    _realization_seed,
    _reference_mask,
    _retained,
    _triple_images,
)
from star_spectra.spectrum import Spectrum

PEAK = 1.0 / (0.08 * np.sqrt(2.0 * np.pi))  # Gaussian kernel height at zero


def _poisson_sets(seed, realizations, window):
    """Independent uniform (Poisson) level sets at unit mean density."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(realizations):
        n = rng.poisson(window)
        sets.append((np.sort(rng.uniform(0.0, window, n)), float(window)))
    return sets


# ----------------------------------------------------------- unfolding ----


def test_unfold_rescales_by_density():
    graph = StarGraph(v=1, lengths=(1.0,), seed=0)
    spectrum = Spectrum(
        eigenvalues=np.array([np.pi, 2 * np.pi, 3 * np.pi]),
        lambda_max=10.0,
        graph=graph,
    )
    assert unfold(spectrum) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_unfold_rejects_empty_spectrum():
    graph = StarGraph(v=1, lengths=(1.0,), seed=0)
    spectrum = Spectrum(eigenvalues=np.array([]), lambda_max=0.5, graph=graph)
    with pytest.raises(ValueError):
        unfold(spectrum)


def test_unfolded_mean_spacing_is_unity():
    graph = build_graph(5, seed=2)
    levels = unfold(solve_spectrum(graph, 130.0))
    spacing = np.diff(levels).mean()
    assert spacing == pytest.approx(1.0, rel=0.03)


# ----------------------------------------------------------- kernel sums --


def _kernel_sums_by_loops(levels, offset, width, other=None):
    """Reference _kernel_sums: a plain double loop over all level pairs."""
    reach = _SUPPORT * width
    sums = np.zeros(len(levels))
    counts = np.zeros(len(levels), dtype=np.int64)
    if other is not None and abs(offset - other) > 2.0 * reach:
        return sums, counts
    norm = width * np.sqrt(2.0 * np.pi)
    for i, base in enumerate(levels):
        for j, level in enumerate(levels):
            dev = level - base
            if j == i or abs(dev - offset) > reach:
                continue
            weight = np.exp(-0.5 * ((dev - offset) / width) ** 2) / norm
            if other is not None:
                weight *= np.exp(-0.5 * ((dev - other) / width) ** 2) / norm
            sums[i] += weight
            counts[i] += 1
    return sums, counts


@pytest.mark.parametrize(
    "offset, other",
    [(0.0, None), (0.3, None), (-0.3, None), (1.0, None), (0.3, 0.3), (-0.3, -0.3)]
    + [(0.3, 0.5), (0.3, 0.1), (-0.3, -0.6)]
    + [(0.3, 0.3 + 2.0 * _SUPPORT * 0.08 * s) for s in (1 - 1e-9, 1 + 1e-9)]
    + [(-0.3, -0.3 - 2.0 * _SUPPORT * 0.08 * s) for s in (1 - 1e-9, 1 + 1e-9)],
)
def test_kernel_sums_match_double_loop(offset, other):
    levels = _poisson_sets(31, 1, 60.0)[0][0]
    sums, counts = _kernel_sums(levels, offset, 0.08, other)
    want_sums, want_counts = _kernel_sums_by_loops(levels, offset, 0.08, other)
    assert counts.tolist() == want_counts.tolist()
    np.testing.assert_allclose(sums, want_sums, rtol=1e-12, atol=0.0)
    # _r3_one hands each offset's partner window to its single and cross passes
    shared = _kernel_sums(levels, offset, 0.08, other, window=_partner_window(levels, offset, 0.08))
    assert shared[0].tobytes() == sums.tobytes()
    assert shared[1].tobytes() == counts.tobytes()
    # only offsets more than two supports apart leave every sum at zero
    apart = other is not None and abs(offset - other) > 2.0 * _SUPPORT * 0.08
    assert np.any(sums > 0) != apart


def _r3_one_window_per_pass(levels, window, grid, width):
    """_r3_one with every kernel pass building its own partner window."""
    retained = _retained(levels, window, width)
    values, triples = [], []
    for point in grid:
        total, count = 0.0, 0
        for u, w in _triple_images(*point):
            mask = _reference_mask(retained, window, width, (u, w), point)
            (a_u, n_u), (a_w, n_w) = _kernel_sums(retained, u, width), _kernel_sums(retained, w, width)
            cross, _ = _kernel_sums(retained, u, width, other=w)
            total += float((a_u * a_w - cross)[mask].sum() / np.count_nonzero(mask))
            count += int((n_u * n_w)[mask].sum())
        values.append(total / 6.0)
        triples.append(count)
    return np.array(values), np.array(triples, dtype=np.int64)


def test_r3_shared_windows_keep_the_bits():
    levels, window = _poisson_sets(41, 1, 400.0)[0]
    # offsets within two supports of each other, so the cross passes are not empty
    grid = [(0.5, 0.6), (0.6, 0.5), (0.3, 0.9), (1.0, 1.2), (-0.4, 0.2), (0.7, 0.7)]
    for got, want in zip(_r3_one(levels, window, grid, 0.08), _r3_one_window_per_pass(levels, window, grid, 0.08)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------ Poisson normalization ----


def test_r2_poisson_baseline_is_one():
    grid = [0.5, 1.0, 1.75, 2.5]
    values, stderr, pairs = r2_from_levels(_poisson_sets(7, 40, 3000.0), grid, 0.08)
    assert np.all(pairs > 0)
    assert np.all(np.abs(values - 1.0) <= 3.0 * stderr)


def test_r3_poisson_baseline_is_one():
    grid = [(0.5, 1.0), (1.0, 2.0), (0.75, 1.5)]
    values, stderr, triples = r3_from_levels(_poisson_sets(9, 40, 3000.0), grid, 0.08)
    assert np.all(triples > 0)
    assert np.all(np.abs(values - 1.0) <= 3.0 * stderr)


def test_stderr_shrinks_with_realizations():
    grid = [1.0]
    _, se_small, _ = r2_from_levels(_poisson_sets(21, 10, 3000.0), grid, 0.08)
    _, se_large, _ = r2_from_levels(_poisson_sets(21, 40, 3000.0), grid, 0.08)
    ratio = se_small[0] / se_large[0]
    assert 1.5 < ratio < 2.7  # roughly sqrt(4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_realization_has_zero_stderr():
    values, stderr, _ = r2_from_levels(_poisson_sets(3, 1, 2000.0), [1.0], 0.08)
    assert stderr[0] == 0.0


# --------------------------------------------------- picket-fence limits ----


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_picket_fence_r2_peaks_at_integer_gaps():
    levels = np.arange(1.0, 2000.0)
    values, _, _ = r2_from_levels([(levels, 2000.0)], [1.0, -1.0, 0.5], 0.08)
    assert values[0] == pytest.approx(PEAK, abs=1e-6)
    assert values[1] == pytest.approx(PEAK, abs=1e-6)
    assert abs(values[2]) < 1e-6


# ------------------------------------------------------- exact symmetry ----


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_r3_symmetrization_is_bit_exact():
    sets = _poisson_sets(11, 2, 1500.0)
    grid = [(0.7, 1.3), (1.3, 0.7), (-0.7, 0.6)]
    values, _, _ = r3_from_levels(sets, grid, 0.08)
    assert values[0] == values[1]
    assert values[0] == values[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "estimate, grid",
    [
        (r2_from_levels, [0.5, 0.0, -0.5, 1.0, 0.5]),
        (r3_from_levels, [(0.7, 1.3), (1.3, 0.7), (0.9, 0.9), (0.0, 0.6), (0.6, 0.0), (0.0, 0.0)]),
    ],
)
def test_grid_points_do_not_depend_on_the_rest_of_the_grid(estimate, grid):
    sets = _poisson_sets(12, 2, 1500.0)
    whole = estimate(sets, grid, 0.08)
    single = [estimate(sets, [point], 0.08) for point in grid]
    for got, want in zip(whole, map(np.concatenate, zip(*single))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------ boundary hygiene ----


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_edge_junk_cannot_touch_r2():
    rng = np.random.default_rng(13)
    window = 400.0
    margin = 5.0 * 0.08
    clean = np.sort(rng.uniform(margin, window - margin, 400))
    junk = np.concatenate(
        [rng.uniform(0.0, margin - 1e-9, 25), rng.uniform(window - margin + 1e-9, window, 25)]
    )
    dirty = np.sort(np.concatenate([clean, junk]))
    grid = [0.5, 1.0]
    got_clean, _, _ = r2_from_levels([(clean, window)], grid, 0.08)
    got_dirty, _, _ = r2_from_levels([(dirty, window)], grid, 0.08)
    assert got_clean.tolist() == got_dirty.tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_edge_junk_cannot_touch_r3():
    rng = np.random.default_rng(14)
    window = 400.0
    margin = 5.0 * 0.08
    clean = np.sort(rng.uniform(margin, window - margin, 400))
    junk = rng.uniform(0.0, margin - 1e-9, 40)
    dirty = np.sort(np.concatenate([clean, junk]))
    grid = [(0.5, 1.0)]
    got_clean, _, _ = r3_from_levels([(clean, window)], grid, 0.08)
    got_dirty, _, _ = r3_from_levels([(dirty, window)], grid, 0.08)
    assert got_clean.tolist() == got_dirty.tolist()


def test_window_too_short_for_kernel_raises():
    levels = np.array([0.5])
    with pytest.raises(ValueError, match="no usable reference levels"):
        r2_from_levels([(levels, 1.0)], [0.5], 0.08)
    with pytest.raises(ValueError, match="no usable reference levels"):
        r3_from_levels([(levels, 1.0)], [(0.3, 0.6)], 0.08)


def test_sparse_grid_point_warns():
    sets = _poisson_sets(5, 1, 100.0)
    with pytest.warns(RuntimeWarning, match="contribute at grid point"):
        r2_from_levels(sets, [1.0], 0.08)


# ------------------------------------------------------------ dataclasses --


def test_ensemble_config_validation():
    good = dict(v=5, realizations=2, lambda_max=50.0, seed=1)
    EnsembleConfig(**good)
    for patch in (
        {"v": 0},
        {"realizations": 0},
        {"lambda_max": 0.0},
        {"lambda_max": float("nan")},
        {"lambda_max": float("inf")},
        {"kernel_width": 0.0},
        {"kernel_width": -0.1},
        {"kernel_width": float("inf")},
        {"kernel_width": float("nan")},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            EnsembleConfig(**{**good, **patch})
    for field, bad in (("v", 3.0), ("v", True), ("realizations", 1.5), ("realizations", "2")):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            EnsembleConfig(**{**good, field: bad})
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an int"):
            EnsembleConfig(**{**good, "seed": bad})


def test_config_grid_is_frozen_to_plain_tuples():
    config = EnsembleConfig(
        v=5, realizations=2, lambda_max=50.0, seed=1, grid=[np.float64(0.5), [1, 2]]
    )
    assert config.grid == (0.5, (1.0, 2.0))
    assert isinstance(config.grid[0], float)


def test_estimate_validation():
    config = EnsembleConfig(v=5, realizations=2, lambda_max=50.0, seed=1, grid=(0.5,))
    with pytest.raises(ValueError):
        CorrelationEstimate(
            grid=(0.5,), values=(1.0, 2.0), stderr=(0.1,), pairs=(10,), config=config
        )
    with pytest.raises(ValueError):
        CorrelationEstimate(
            grid=(0.5,), values=(np.inf,), stderr=(0.1,), pairs=(10,), config=config
        )
    with pytest.raises(ValueError):
        CorrelationEstimate(
            grid=(0.5,), values=(1.0,), stderr=(-0.1,), pairs=(10,), config=config
        )


# ------------------------------------------------------ ensemble plumbing --


def test_realization_seeds_are_deterministic_and_distinct():
    seeds = [_realization_seed(5, i) for i in range(100)]
    assert seeds == [_realization_seed(5, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert _realization_seed(6, 0) != _realization_seed(5, 0)


def test_worker_count_sources(monkeypatch):
    assert worker_count(3) == 3
    monkeypatch.setenv("STAR_SPECTRA_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.delenv("STAR_SPECTRA_THREADS")
    assert worker_count() >= 1
    with pytest.raises(ValueError):
        worker_count(0)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="worker count must be an int"):
            worker_count(bad)
    monkeypatch.setenv("STAR_SPECTRA_THREADS", "two")
    with pytest.raises(ValueError, match="STAR_SPECTRA_THREADS"):
        worker_count()


def test_grid_shape_is_checked_before_solving():
    pair_grid = EnsembleConfig(
        v=5, realizations=2, lambda_max=50.0, seed=1, grid=((0.5, 1.0),)
    )
    scalar_grid = EnsembleConfig(
        v=5, realizations=2, lambda_max=50.0, seed=1, grid=(0.5,)
    )
    empty = EnsembleConfig(v=5, realizations=2, lambda_max=50.0, seed=1)
    with pytest.raises(ValueError):
        estimate_r2(pair_grid)
    with pytest.raises(ValueError):
        estimate_r3(scalar_grid)
    with pytest.raises(ValueError):
        estimate_r2(empty)
    with pytest.raises(ValueError):
        estimate_r3(empty)


def test_estimate_r2_deterministic_and_thread_invariant():
    config = EnsembleConfig(
        v=8, realizations=3, lambda_max=60.0, seed=11, grid=(0.5, 1.0)
    )
    with pytest.warns(RuntimeWarning):
        serial = estimate_r2(config, threads=1)
    with pytest.warns(RuntimeWarning):
        again = estimate_r2(config, threads=1)
    with pytest.warns(RuntimeWarning):
        pooled = estimate_r2(config, threads=2)
    assert serial.values == again.values
    assert serial.values == pooled.values
    assert serial.stderr == pooled.stderr
    assert serial.pairs == pooled.pairs


def _solved_level_sets(config):
    """The ensemble's unfolded (levels, window) sets, solved here one by one."""
    sets = []
    for index in range(config.realizations):
        graph = build_graph(config.v, _realization_seed(config.seed, index))
        window = config.lambda_max * graph.total_length / (2.0 * np.pi)
        sets.append((unfold(solve_spectrum(graph, config.lambda_max)), window))
    return sets


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "estimate, from_levels, grid",
    [
        (estimate_r2, r2_from_levels, (0.25, 0.5, 1.0, 1.5)),
        (estimate_r3, r3_from_levels, ((0.5, 1.0), (1.0, 0.5), (1.5, 1.0), (-0.5, 0.75))),
    ],
)
def test_estimates_are_bitwise_the_level_route_for_any_worker_count(estimate, from_levels, grid):
    config = EnsembleConfig(v=8, realizations=4, lambda_max=60.0, seed=17, grid=grid)
    want = [np.asarray(a) for a in from_levels(_solved_level_sets(config), grid, config.kernel_width)]
    for threads in (1, 2, 3):
        got = estimate(config, threads=threads)
        for field, expected in zip((got.values, got.stderr, got.pairs), want):
            field = np.asarray(field, dtype=expected.dtype)
            assert field.tobytes() == expected.tobytes()
    assert not multiprocessing.active_children()


def test_worker_error_reaches_the_caller():
    # each window (18 to 20 unit spacings) is shorter than the gap of 30
    config = EnsembleConfig(v=3, realizations=3, lambda_max=20.0, seed=2, grid=((30.0, 30.0),))
    with pytest.raises(ValueError, match="no usable reference levels") as serial:
        estimate_r3(config, threads=1)
    with pytest.raises(ValueError, match="no usable reference levels") as pooled:
        estimate_r3(config, threads=2)
    assert str(pooled.value) == str(serial.value)
    assert not multiprocessing.active_children()


def test_sparse_warning_is_raised_once_in_the_calling_process():
    config = EnsembleConfig(v=8, realizations=3, lambda_max=60.0, seed=11, grid=((0.5, 1.0), (1.0, 1.5)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_r3(config, threads=2)
    assert [w.category for w in caught] == [RuntimeWarning] * 2
    for w, point in zip(caught, config.grid):
        assert f"gap combinations contribute at grid point {point}" in str(w.message)
        assert w.filename == __file__


def test_estimate_r3_deterministic():
    config = EnsembleConfig(
        v=8, realizations=3, lambda_max=60.0, seed=11, grid=((0.5, 1.0),)
    )
    with pytest.warns(RuntimeWarning):
        first = estimate_r3(config, threads=1)
    with pytest.warns(RuntimeWarning):
        second = estimate_r3(config, threads=1)
    assert first.values == second.values
    assert first.config is config
