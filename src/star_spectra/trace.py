"""Truncated trace formula for the spectral density, and its exact counterpart.

The density of states of a star graph splits into the constant Weyl term
L/(2*pi) plus one oscillatory term per periodic orbit:

    d(lambda) = L/(2*pi) + (1/pi) * sum_p (l_p / r_p) A_p cos(lambda * l_p)

where p runs over cyclic words (all repetitions included), l_p = 2 * sum of
visited edge lengths, r_p is the repetition number and A_p the product of
center amplitudes.  An orbit's length depends only on its visit counts n
(n_e excursions into edge e) and its amplitude only on its block count, so
the orbits of one n collapse into a single term l(n) W(n) cos(lambda l(n)),
with W(n) = `orbits.class_weight`.  Both sides are compared after Gaussian
smoothing in lambda: smoothing the delta comb gives unit-mass Gaussians at
the eigenvalues, smoothing the orbit sum multiplies each cosine by
exp(-sigma^2 l_p^2 / 2) while leaving the Weyl term alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._guards import require_int
from .graph import StarGraph
from .orbits import class_weight
from .spectrum import Spectrum

__all__ = ["SmoothedDensity", "density_from_orbits", "density_from_spectrum"]

# density_from_orbits refuses requests of more than this many class terms
_MAX_TERMS = 10**6


@dataclass(frozen=True)
class SmoothedDensity:
    grid: np.ndarray
    values: np.ndarray
    sigma: float
    max_period: int  # 2*k_max; 0 when built from an exact spectrum


def _row_chunks(rows: int, grid: np.ndarray):
    """Slices over `rows` that keep each (rows x grid) temporary near 4e6 cells."""
    step = max(1, 4_000_000 // max(len(grid), 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def _require_width(sigma: float) -> None:
    """The smoothing width of both densities must be finite and positive."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")


def density_from_spectrum(spectrum: Spectrum, grid, sigma: float) -> SmoothedDensity:
    """Sum of unit-mass Gaussians of width sigma centered at the eigenvalues."""
    _require_width(sigma)
    grid = np.asarray(grid, dtype=float)
    values = np.zeros_like(grid)
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    eigs = spectrum.eigenvalues
    for rows in _row_chunks(len(eigs), grid):
        chunk = eigs[rows]
        values += norm * np.exp(
            -((grid[None, :] - chunk[:, None]) ** 2) / (2.0 * sigma * sigma)
        ).sum(axis=0)
    return SmoothedDensity(grid=grid, values=values, sigma=float(sigma), max_period=0)


def _class_terms(graph: StarGraph, k_max: int):
    """Lengths l(n) and coefficients l(n) W(n) of every class up to k_max.

    One term per visit-count vector n, that is per subset of j edges and
    positive composition of k <= k_max over it: sum_k sum_j C(v, j) C(k-1, j-1),
    which is C(v + k_max, k_max) - 1 (the nonzero n in N^v with sum <= k_max).
    """
    l = graph.lengths_array()
    lengths, coefs = [np.empty(0)], [np.empty(0)]
    for j in range(1, min(graph.v, k_max) + 1):
        subsets = l[np.array(list(combinations(range(graph.v), j)))]
        for k in range(j, k_max + 1):
            # one edge needs no cuts, and combinations would still copy range(1, k)
            cut_points = range(1, k) if j > 1 else ()
            counts = np.diff([(0, *cuts, k) for cuts in combinations(cut_points, j - 1)])
            weights = np.array([class_weight(tuple(sorted(n)), graph.v) for n in counts.tolist()])
            lp = 2.0 * counts @ subsets.T
            lengths.append(lp.ravel())
            coefs.append((lp * weights[:, None]).ravel())
    return np.concatenate(lengths), np.concatenate(coefs)


def density_from_orbits(graph: StarGraph, grid, sigma: float, k_max: int) -> SmoothedDensity:
    """Weyl term plus the Gaussian-smoothed orbit sum up to half-period k_max.

    One cosine per visit-count class (edge subset and composition of k),
    weighted by its exact class weight; the tests hold it against the
    word-by-word necklace sum.  A request of more than _MAX_TERMS classes is
    refused before any is built.  k_max=0 returns the bare Weyl density.
    """
    _require_width(sigma)
    require_int("k_max", k_max)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    # C(v + k_max, k_max) - 1 terms, with C(n + i, i) built up exactly for
    # n = max(v, k_max); as C(n + i, i) >= 2^i, a refusal takes at most 20 steps
    n, terms = max(graph.v, k_max), 1
    for i in range(1, min(graph.v, k_max) + 1):
        terms = terms * (n + i) // i
        if terms - 1 > _MAX_TERMS:
            raise ValueError(
                f"the orbit sum at v={graph.v}, k_max={k_max} needs more than {_MAX_TERMS} class terms"
            )
    grid = np.asarray(grid, dtype=float)
    values = np.full_like(grid, graph.total_length / (2.0 * np.pi))
    lengths, coefs = _class_terms(graph, k_max)
    weights = coefs * np.exp(-0.5 * (sigma * lengths) ** 2)
    for rows in _row_chunks(len(lengths), grid):
        values += weights[rows] @ np.cos(np.multiply.outer(lengths[rows], grid)) / np.pi
    return SmoothedDensity(
        grid=grid, values=values, sigma=float(sigma), max_period=2 * k_max
    )
