"""Monte Carlo estimation of two- and three-point spectral correlations.

The estimators draw an ensemble of star graphs, solve each spectrum, rescale
the eigenvalues to unit mean spacing, and accumulate kernel-smoothed pair and
triple densities normalized so that uncorrelated (Poisson) input gives 1 on
every grid point.  The kernel-density core operates on plain level sets, so
synthetic spectra (Poisson, picket fence) run through the identical code path
as solved star-graph ensembles.

`estimate_r2` and `estimate_r3` make each realization one job that builds the
graph, solves, unfolds and runs the same per-realization estimator as
`r2_from_levels` / `r3_from_levels`.  With several workers the jobs, KDE
included, run in a process pool that lives for one call, and only a
grid-sized row of values and counts comes back.  A row depends on its own
levels alone and the rows come back in realization order, so the estimates
are bitwise the same for any worker count, and the same as the level-set
route.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import build_graph
from .spectrum import Spectrum, solve_spectrum
from .workers import pool_map

__all__ = [
    "CorrelationEstimate",
    "EnsembleConfig",
    "estimate_r2",
    "estimate_r3",
    "r2_from_levels",
    "r3_from_levels",
    "unfold",
]

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
        for name in ("v", "realizations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.v < 1:
            raise ValueError("need at least one outer vertex")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.lambda_max < np.inf:
            raise ValueError("lambda_max must be positive and finite")
        if not 0 < self.kernel_width < np.inf:
            raise ValueError("kernel width must be positive and finite")
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


def _partner_window(levels: np.ndarray, offset: float, width: float):
    """Flattened (rows, cols, targets) of every sorted level's partners near one offset.

    targets[i] = level_i + offset; (rows[k], cols[k]) runs over the pairs i != j
    with level_j within _SUPPORT widths of targets[i], rows ascending and each
    row's partners in index order.
    """
    n = len(levels)
    reach = _SUPPORT * width
    targets = levels + offset
    lo = np.searchsorted(levels, targets - reach, side="left")
    hi = np.searchsorted(levels, targets + reach, side="right")
    counts = hi - lo
    rows = np.repeat(np.arange(n), counts)
    # member k of the flattened windows is lo[row] plus its rank in the row
    cols = np.arange(len(rows)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    keep = cols != rows
    return rows[keep], cols[keep], targets


def _kernel_sums(levels: np.ndarray, offset: float, width: float, other=None, window=None):
    """Kernel sums (a, n) of every sorted level over partners near one offset.

    n[i] counts the partners j != i within _SUPPORT widths of level_i + offset;
    a[i] sums the kernel at d - offset over them, d = level_j - level_i, or with
    `other` the same-partner product gauss(d - offset) * gauss(d - other), which
    is zero (no partners) for offsets more than two supports apart.  Each sum
    runs over its own partners in index order, so one pass serves any references.
    `window` is `_partner_window(levels, offset, width)` when the caller already
    has it; the sums are the same bits either way.
    """
    n = len(levels)
    if other is not None and abs(offset - other) > 2.0 * _SUPPORT * width:
        return np.zeros(n), np.zeros(n, dtype=np.int64)
    rows, cols, targets = _partner_window(levels, offset, width) if window is None else window
    if other is None:
        weights = _gauss(levels[cols] - targets[rows], width)
    else:
        dev = levels[cols] - levels[rows]
        weights = _gauss(dev - offset, width) * _gauss(dev - other, width)
    return np.bincount(rows, weights, n), np.bincount(rows, minlength=n)


def _retained(levels: np.ndarray, window: float, width: float) -> np.ndarray:
    """Levels at least the support margin away from both spectrum edges."""
    levels = np.sort(np.asarray(levels, dtype=float))
    margin = _SUPPORT * width
    return levels[(levels >= margin) & (levels <= window - margin)]


def _reference_mask(retained: np.ndarray, window: float, width: float, offsets, point) -> np.ndarray:
    """References whose probed positions keep a full kernel window inside."""
    margin = _REF_MARGIN * width
    mask = np.ones(len(retained), dtype=bool)
    for off in offsets:
        probed = retained + off
        mask &= (probed >= margin) & (probed <= window - margin)
    if not mask.any():
        raise ValueError(
            f"no usable reference levels for grid point {point}; "
            "the spectrum window is too short for this kernel width"
        )
    return mask


def _r2_one(levels: np.ndarray, window: float, grid, width: float):
    """One realization's pair estimates and counts: one kernel pass per x."""
    retained = _retained(levels, window, width)
    values = np.empty(len(grid))
    pairs = np.zeros(len(grid), dtype=np.int64)
    for g, x in enumerate(grid):
        mask = _reference_mask(retained, window, width, (x,), x)
        sums, counts = _kernel_sums(retained, x, width)
        values[g] = sums[mask].sum() / np.count_nonzero(mask)
        pairs[g] = counts[mask].sum()
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
    """One realization's triple estimates and counts over the grid.

    A point averages its six sorted images (u, w), each the reference mean of
    a_u * a_w minus the cross sum.  Points share offsets and x<->y partners share
    all images, so each distinct offset's partner window and kernel sums, and
    each image, are computed once per call; the cross pass of (u, w) reuses
    u's window.
    """
    retained = _retained(levels, window, width)
    windows = {}  # offset -> _partner_window(retained, offset, width)
    sums = {}  # offset -> _kernel_sums(retained, offset, width)
    terms = {}  # image (u, w) -> (mean kernel term, triple count)
    values = np.empty(len(grid))
    triples = np.zeros(len(grid), dtype=np.int64)
    for g, point in enumerate(grid):
        total = 0.0
        count = 0
        for u, w in _triple_images(*point):
            if (u, w) not in terms:
                mask = _reference_mask(retained, window, width, (u, w), point)
                for off in (u, w):
                    if off not in sums:
                        windows[off] = _partner_window(retained, off, width)
                        sums[off] = _kernel_sums(retained, off, width, window=windows[off])
                (a_u, n_u), (a_w, n_w) = sums[u], sums[w]
                cross, _ = _kernel_sums(retained, u, width, other=w, window=windows[u])
                term = (a_u * a_w - cross)[mask].sum() / np.count_nonzero(mask)
                terms[u, w] = float(term), int((n_u * n_w)[mask].sum())
            term, n = terms[u, w]
            total += term
            count += n
        values[g] = total / 6.0
        triples[g] = count
    return values, triples


def _aggregate(rows: list, grid, what: str):
    """(values, stderr, counts) over per-realization (values, counts) rows.

    Values are the mean over the rows, with the standard error of that mean;
    counts are summed.  Grid points with fewer than _SPARSE_COUNT counts warn
    at the line that called the public estimator: three frames up, past
    `_from_levels` or `_estimate` and the estimator itself.
    """
    stacked = np.vstack([values for values, _ in rows])
    counts = np.sum([n for _, n in rows], axis=0, dtype=np.int64)
    if len(rows) > 1:
        stderr = stacked.std(axis=0, ddof=1) / np.sqrt(len(rows))
    else:
        stderr = np.zeros(stacked.shape[1])
    for point, n in zip(grid, counts):
        if n < _SPARSE_COUNT:
            warnings.warn(
                f"only {int(n)} {what} contribute at grid point {point}; "
                "the estimate there may be noisy",
                RuntimeWarning,
                stacklevel=4,
            )
    return stacked.mean(axis=0), stderr, counts


def _from_levels(level_sets, grid: list, kernel_width: float, estimate_one, what: str):
    """Run the per-realization `estimate_one` over level_sets and aggregate."""
    rows = [
        estimate_one(np.asarray(levels, dtype=float), float(window), grid, kernel_width)
        for levels, window in level_sets
    ]
    return _aggregate(rows, grid, what)


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


def _realization_seed(seed: int, index: int) -> int:
    """Deterministic, well-mixed sub-seed for realization (seed, index)."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _realization_job(config: EnsembleConfig, estimate_one, index: int):
    """Solve, unfold and estimate one realization: (values, counts) on config.grid.

    With several workers the whole job, kernel-density estimate included, runs
    in a pool worker, and only the grid-sized row travels back; with one it
    runs in the calling process.  The row depends on the realization's own
    levels alone, so it has the same bits in any process.  `estimate_one` is
    `_r2_one` or `_r3_one`, module-level functions that pickle by reference.
    """
    graph = build_graph(config.v, _realization_seed(config.seed, index))
    spectrum = solve_spectrum(graph, config.lambda_max)
    window = config.lambda_max * graph.total_length / (2.0 * np.pi)
    return estimate_one(unfold(spectrum), window, config.grid, config.kernel_width)


def _require_grid(grid, shape: tuple, message: str) -> None:
    """Reject an empty grid or one whose points do not all have this shape."""
    if any(np.shape(point) != shape for point in grid):
        raise ValueError(message)
    if not grid:
        raise ValueError("config.grid must list at least one evaluation point")


def _estimate(config: EnsembleConfig, threads, estimate_one, what: str) -> CorrelationEstimate:
    """Run one `_realization_job` per realization and aggregate as `_from_levels` does.

    Jobs are keyed by (seed, index) and run on a `pool_map` process pool,
    which returns the rows in index order, so the aggregate does not depend
    on the worker count or completion order.
    """
    job = partial(_realization_job, config, estimate_one)
    rows = pool_map(job, range(config.realizations), threads, ProcessPoolExecutor)
    values, stderr, counts = _aggregate(rows, config.grid, what)
    return CorrelationEstimate(
        grid=config.grid,
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
    _require_grid(config.grid, (), "the two-point grid must list scalar distances x")
    return _estimate(config, threads, _r2_one, "level pairs")


def estimate_r3(config: EnsembleConfig, threads=None) -> CorrelationEstimate:
    """Ensemble-averaged three-point correlation on the (gap, gap) plane.

    For each grid pair (x, y), counts ordered triples of distinct unfolded
    levels with gap pattern near (x, y), kernel-smoothed, normalized so
    Poisson input gives 1, and symmetrized over the six relabelings of the
    triple.
    """
    _require_grid(config.grid, (2,), "the three-point grid must list (x, y) pairs")
    return _estimate(config, threads, _r3_one, "gap combinations")
