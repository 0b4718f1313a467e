"""Monte Carlo estimation of two- and three-point spectral correlations.

The estimators draw an ensemble of star graphs, solve each spectrum, rescale
the eigenvalues to unit mean spacing, and accumulate kernel-smoothed pair and
triple densities normalized so that uncorrelated (Poisson) input gives 1 on
every grid point.  The kernel-density core operates on plain level sets, so
synthetic spectra (Poisson, picket fence) run through the identical code path
as solved star-graph ensembles.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import build_graph
from .spectrum import Spectrum, solve_spectrum

# Kernel evaluations are cut at this many widths from the target offset; the
# neglected Gaussian mass (~3e-7 per side) is far below statistical errors.
_SUPPORT = 5.0
# Reference levels additionally keep this many widths between each probed
# partner position and the retained band's edges, so every reference sees a
# complete kernel window of partners and the Poisson normalization is exact.
_REF_MARGIN = 10.0
# Grid points with fewer contributing pairs/triples than this trigger a
# statistical-quality warning.
_SPARSE_COUNT = 10_000


@dataclass(frozen=True)
class EnsembleConfig:
    """Description of a Monte Carlo correlation measurement.

    kernel_width is in units of the mean level spacing (the estimators work
    on unit-mean-spacing levels).  grid holds the evaluation points: a tuple
    of x values for the two-point estimator, or a tuple of (x, y) pairs for
    the three-point estimator.
    """

    v: int
    realizations: int
    lambda_max: float
    seed: int
    kernel_width: float = 0.08
    grid: tuple = ()

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("need at least one outer vertex")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not self.lambda_max > 0:
            raise ValueError("lambda_max must be positive")
        if not self.kernel_width > 0:
            raise ValueError("kernel width must be positive")
        object.__setattr__(self, "grid", _freeze_grid(self.grid))


def _freeze_grid(grid) -> tuple:
    frozen = []
    for point in grid:
        if np.ndim(point) == 0:
            frozen.append(float(point))
        else:
            frozen.append(tuple(float(c) for c in point))
    return tuple(frozen)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlation values on a grid with across-realization standard errors.

    pairs counts the level pairs (or ordered-gap combinations, for the
    three-point estimator) that contributed to each grid point, summed over
    the ensemble; it is the sample-size diagnostic behind the sparsity
    warning and the CSV output.
    """

    grid: tuple
    values: tuple
    stderr: tuple
    pairs: tuple
    config: EnsembleConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        if values.shape != stderr.shape or len(values) != len(self.grid):
            raise ValueError("grid, values and stderr must have matching length")
        if not np.all(np.isfinite(values)):
            raise ValueError("estimates must be finite")
        if not np.all(np.isfinite(stderr)) or np.any(stderr < 0):
            raise ValueError("standard errors must be finite and nonnegative")


def unfold(spectrum: Spectrum) -> np.ndarray:
    """Rescale eigenvalues to unit mean spacing (multiply by L/(2*pi))."""
    if len(spectrum) == 0:
        raise ValueError("cannot unfold an empty spectrum")
    scale = spectrum.graph.total_length / (2.0 * np.pi)
    return np.asarray(spectrum.eigenvalues, dtype=float) * scale


# --------------------------------------------------------- kernel-sum core --


def _gauss(dev: np.ndarray, width: float) -> np.ndarray:
    return np.exp(-0.5 * (dev / width) ** 2) / (width * np.sqrt(2.0 * np.pi))


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(c) for each c in counts."""
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return out - np.repeat(starts, counts)


def _window_members(levels: np.ndarray, targets: np.ndarray, width: float):
    """Index pairs (target row, level column) with |level - target| in reach."""
    reach = _SUPPORT * width
    lo = np.searchsorted(levels, targets - reach, side="left")
    hi = np.searchsorted(levels, targets + reach, side="right")
    counts = hi - lo
    rows = np.repeat(np.arange(len(targets), dtype=np.int64), counts)
    cols = np.repeat(lo, counts) + _ragged_arange(counts)
    return rows, cols


def _offset_sums(levels: np.ndarray, ref_idx: np.ndarray, offset: float, width: float):
    """Per-reference kernel sums over partners near the offset position.

    Returns (a, n) where a[i] = sum over partners j != i of the Gaussian
    kernel at (level_j - level_i - offset) and n[i] counts those partners.
    """
    targets = levels[ref_idx] + offset
    rows, cols = _window_members(levels, targets, width)
    keep = cols != ref_idx[rows]
    rows, cols = rows[keep], cols[keep]
    sums = np.zeros(len(ref_idx))
    np.add.at(sums, rows, _gauss(levels[cols] - targets[rows], width))
    counts = np.zeros(len(ref_idx), dtype=np.int64)
    np.add.at(counts, rows, 1)
    return sums, counts


def _cross_sums(
    levels: np.ndarray, ref_idx: np.ndarray, off_a: float, off_b: float, width: float
) -> np.ndarray:
    """Per-reference sums of the kernel product at two offsets.

    c[i] = sum over j != i of gauss(d_j - off_a) * gauss(d_j - off_b) with
    d_j = level_j - level_i; this is the same-partner term removed from the
    product of single-offset sums when counting distinct triples.
    """
    if abs(off_a - off_b) > 2.0 * _SUPPORT * width:
        return np.zeros(len(ref_idx))
    base = levels[ref_idx]
    rows, cols = _window_members(levels, base + off_a, width)
    keep = cols != ref_idx[rows]
    rows, cols = rows[keep], cols[keep]
    dev = levels[cols] - base[rows]
    sums = np.zeros(len(ref_idx))
    np.add.at(sums, rows, _gauss(dev - off_a, width) * _gauss(dev - off_b, width))
    return sums


def _retained(levels: np.ndarray, window: float, width: float) -> np.ndarray:
    """Levels at least the support margin away from both spectrum edges."""
    levels = np.sort(np.asarray(levels, dtype=float))
    margin = _SUPPORT * width
    return levels[(levels >= margin) & (levels <= window - margin)]


def _reference_mask(retained: np.ndarray, window: float, width: float, offsets) -> np.ndarray:
    """References whose probed positions keep a full kernel window inside."""
    margin = _REF_MARGIN * width
    mask = np.ones(len(retained), dtype=bool)
    for off in offsets:
        probed = retained + off
        mask &= (probed >= margin) & (probed <= window - margin)
    return mask


def _r2_one(levels: np.ndarray, window: float, grid, width: float):
    retained = _retained(levels, window, width)
    values = np.empty(len(grid))
    pairs = np.zeros(len(grid), dtype=np.int64)
    for g, x in enumerate(grid):
        ref_idx = np.nonzero(_reference_mask(retained, window, width, (x,)))[0]
        if len(ref_idx) == 0:
            raise ValueError(
                f"no usable reference levels for grid point {x}; "
                "the spectrum window is too short for this kernel width"
            )
        sums, counts = _offset_sums(retained, ref_idx, x, width)
        values[g] = sums.sum() / len(ref_idx)
        pairs[g] = counts.sum()
    return values, pairs


def _triple_images(x: float, y: float) -> list:
    """The six (x, y) images under relabeling the three spectral points.

    Sorted so that every point of one symmetry orbit accumulates the same
    image list in the same order, which makes the symmetrized estimate
    exactly invariant (not merely up to rounding).
    """
    return sorted(
        ((x, y), (y, x), (-x, y - x), (y - x, -x), (x - y, -y), (-y, x - y))
    )


def _r3_one(levels: np.ndarray, window: float, grid, width: float):
    retained = _retained(levels, window, width)
    values = np.empty(len(grid))
    triples = np.zeros(len(grid), dtype=np.int64)
    for g, (x, y) in enumerate(grid):
        total = 0.0
        count = 0
        for u, w_off in _triple_images(x, y):
            ref_idx = np.nonzero(
                _reference_mask(retained, window, width, (u, w_off))
            )[0]
            if len(ref_idx) == 0:
                raise ValueError(
                    f"no usable reference levels for grid point ({x}, {y}); "
                    "the spectrum window is too short for this kernel width"
                )
            sums_a, count_a = _offset_sums(retained, ref_idx, u, width)
            sums_b, count_b = _offset_sums(retained, ref_idx, w_off, width)
            cross = _cross_sums(retained, ref_idx, u, w_off, width)
            total += float((sums_a * sums_b - cross).sum() / len(ref_idx))
            count += int((count_a * count_b).sum())
        values[g] = total / 6.0
        triples[g] = count
    return values, triples


def _aggregate(per_realization: list):
    stacked = np.vstack(per_realization)
    values = stacked.mean(axis=0)
    if len(per_realization) > 1:
        stderr = stacked.std(axis=0, ddof=1) / np.sqrt(len(per_realization))
    else:
        stderr = np.zeros(stacked.shape[1])
    return values, stderr


def _warn_sparse(counts: np.ndarray, grid, what: str) -> None:
    for point, n in zip(grid, counts):
        if n < _SPARSE_COUNT:
            warnings.warn(
                f"only {int(n)} {what} contribute at grid point {point}; "
                "the estimate there may be noisy",
                RuntimeWarning,
                stacklevel=4,
            )


def _from_levels(level_sets, grid: list, kernel_width: float, estimate_one, what: str):
    """Run the per-realization `estimate_one` over level_sets and aggregate."""
    per = []
    counts = np.zeros(len(grid), dtype=np.int64)
    for levels, window in level_sets:
        values, n = estimate_one(np.asarray(levels, dtype=float), float(window), grid, kernel_width)
        per.append(values)
        counts += n
    values, stderr = _aggregate(per)
    _warn_sparse(counts, grid, what)
    return values, stderr, counts


def r2_from_levels(level_sets, grid, kernel_width: float):
    """Two-point correlation estimate from unit-mean-spacing level sets.

    level_sets is an iterable of (levels, window) pairs, one per realization,
    where each level set lives on [0, window] at unit mean density.  Returns
    (values, stderr, pairs) arrays over the grid of signed distances.
    """
    grid = [float(x) for x in grid]
    return _from_levels(level_sets, grid, kernel_width, _r2_one, "level pairs")


def r3_from_levels(level_sets, grid, kernel_width: float):
    """Three-point correlation estimate from unit-mean-spacing level sets.

    grid is a sequence of (x, y) gap pairs.  Each estimate is symmetrized
    over the six relabelings of the level triple.  Returns (values, stderr,
    triples) arrays over the grid.
    """
    grid = [(float(x), float(y)) for x, y in grid]
    return _from_levels(level_sets, grid, kernel_width, _r3_one, "gap combinations")


# ------------------------------------------------------- ensemble plumbing --


def worker_count(requested=None) -> int:
    """Worker cap: explicit request, STAR_SPECTRA_THREADS, then cpu count."""
    if requested is not None:
        count = int(requested)
    else:
        env = os.environ.get("STAR_SPECTRA_THREADS", "").strip()
        count = int(env) if env else (os.cpu_count() or 1)
    if count < 1:
        raise ValueError("worker count must be at least 1")
    return count


def _realization_seed(seed: int, index: int) -> int:
    """Deterministic, well-mixed sub-seed for realization (seed, index)."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _solve_realization(args):
    v, lambda_max, seed, index = args
    graph = build_graph(v, _realization_seed(seed, index))
    spectrum = solve_spectrum(graph, lambda_max)
    window = lambda_max * graph.total_length / (2.0 * np.pi)
    return index, unfold(spectrum), window


def _ensemble_levels(config: EnsembleConfig, threads=None) -> list:
    """Unfolded (levels, window) per realization, index-ordered.

    Realizations are independent jobs keyed by (seed, index); results land in
    their index slot, so the aggregate does not depend on completion order.
    """
    jobs = [
        (config.v, config.lambda_max, config.seed, index)
        for index in range(config.realizations)
    ]
    out = [None] * config.realizations
    workers = min(worker_count(threads), config.realizations)
    if workers == 1:
        results = map(_solve_realization, jobs)
        for index, levels, window in results:
            out[index] = (levels, window)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, levels, window in pool.map(_solve_realization, jobs):
                out[index] = (levels, window)
    return out


def _require_grid(grid, shape: tuple, message: str) -> list:
    """config.grid as floats (shape ()) or float tuples (shape (2,))."""
    if any(np.shape(point) != shape for point in grid):
        raise ValueError(message)
    if not grid:
        raise ValueError("config.grid must list at least one evaluation point")
    return [tuple(map(float, point)) if shape else float(point) for point in grid]


def _estimate(config: EnsembleConfig, threads, grid: list, from_levels) -> CorrelationEstimate:
    level_sets = _ensemble_levels(config, threads)
    values, stderr, counts = from_levels(level_sets, grid, config.kernel_width)
    return CorrelationEstimate(
        grid=tuple(grid),
        values=tuple(float(v) for v in values),
        stderr=tuple(float(s) for s in stderr),
        pairs=tuple(int(n) for n in counts),
        config=config,
    )


def estimate_r2(config: EnsembleConfig, threads=None) -> CorrelationEstimate:
    """Ensemble- and level-averaged two-point correlation of star spectra.

    For each grid distance x, counts ordered pairs of unfolded levels at
    signed distance near x, kernel-smoothed with the configured width and
    normalized so Poisson input gives 1.
    """
    grid = _require_grid(config.grid, (), "the two-point grid must list scalar distances x")
    # r2_from_levels is looked up at call time, so wrappers installed on the
    # module (such as tracing spans) see the call
    return _estimate(config, threads, grid, r2_from_levels)


def estimate_r3(config: EnsembleConfig, threads=None) -> CorrelationEstimate:
    """Ensemble-averaged three-point correlation on the (gap, gap) plane.

    For each grid pair (x, y), counts ordered triples of distinct unfolded
    levels with gap pattern near (x, y), kernel-smoothed, normalized so
    Poisson input gives 1, and symmetrized over the six relabelings of the
    triple.
    """
    grid = _require_grid(config.grid, (2,), "the three-point grid must list (x, y) pairs")
    return _estimate(config, threads, grid, r3_from_levels)
