"""Eigenvalues of a star graph: secular equation, root solver, verification.

Two independent secular functions are kept side by side:

* ``secular_tan`` -- the O(v) scalar form  sum_i tan(lambda * l_i), whose
  roots between consecutive poles are the eigenvalues.  Its value and slope
  sum_i l_i/cos^2(lambda * l_i) come from one tan per edge, and drive the
  production solver ``solve_spectrum``: a bracket-safeguarded Newton
  iteration, vectorized over all inter-pole intervals.
* ``secular_det`` -- the determinant  det(I - W(lambda))  of the v x v
  unitary W = D C D, with D = diag(exp(-i*lambda*l_i)) and C = (2/v)J - I the
  center's scattering matrix.  A Schur complement reduces the directed-edge
  determinant det(I - exp(-i*lambda*Lhat) S) over the 2v bonds exactly to
  this one.  It is O(v^3) per evaluation, uses none of the rank-one
  structure the tan form comes from, and is retained purely as a cross-check
  oracle: every root found by the tan form must annihilate the determinant,
  and independent root counts from both must agree.

``secular_real`` is a rotation of the determinant onto the real axis (the
determinant times ``exp(i*lambda*L/2)`` is purely imaginary), which gives the
determinant-side polish a real-valued target.  Root counting on the
determinant side goes through the eigenphases of W instead
(``det_root_count``), which stays exact where the determinant's magnitude
underflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import StarGraph

__all__ = [
    "PoleProximity",
    "SolverNotConverged",
    "Spectrum",
    "secular_det",
    "secular_tan",
    "secular_real",
    "solve_spectrum",
    "polish_roots_det",
    "det_root_count",
    "mean_spacing",
]


class PoleProximity(ValueError):
    """Raised when secular_tan is evaluated too close to a tangent pole."""


class SolverNotConverged(RuntimeError):
    """Raised when solve_spectrum's Newton iteration leaves a root unresolved."""


_MAX_NEWTON_ITERATIONS = 100
_POLE_TOL = 1e-8
_DET_POLISH_STEPS = 5


@dataclass(frozen=True)
class Spectrum:
    """Sorted positive eigenvalues of one graph realization up to lambda_max."""

    eigenvalues: np.ndarray
    lambda_max: float
    graph: StarGraph

    def __len__(self) -> int:
        return len(self.eigenvalues)


def mean_spacing(graph: StarGraph) -> float:
    """Mean eigenvalue spacing 2*pi/L from the Weyl density L/(2*pi)."""
    return 2.0 * np.pi / graph.total_length


def _evolution_chunks(graph: StarGraph, lams: np.ndarray):
    """W(lam) = D C D stacked over lams, in chunks of ~5e5 entries.

    D = diag(exp(-i*lam*l_i)) and C = (2/v)J - I, whose diagonal is the
    center backscatter -1+2/v and whose off-diagonal is the transmission 2/v.
    Yields (start, W) with W[k] the unitary at lams[start + k].
    """
    v = graph.v
    center = np.full((v, v), 2.0 / v) - np.eye(v)
    l = graph.lengths_array()
    step = max(1, 500_000 // (v * v))
    for start in range(0, len(lams), step):
        d = np.exp(-1j * np.multiply.outer(lams[start : start + step], l))
        w = d[:, :, None] * center
        w *= d[:, None, :]
        yield start, w


def secular_det(graph: StarGraph, lam):
    """det(I - W(lam)) with W = D C D; zero at eigenvalues.

    Array-first: a scalar lam returns a complex, an array an array of its
    shape, each element with the bits of the scalar call.
    """
    lams = np.asarray(lam, dtype=float)
    out = np.empty(lams.size, dtype=complex)
    eye = np.eye(graph.v)
    for start, w in _evolution_chunks(graph, lams.ravel()):
        out[start : start + len(w)] = np.linalg.det(eye - w)
    return complex(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def secular_real(graph: StarGraph, lams) -> np.ndarray:
    """Real-valued rotation Im(det * exp(i*lam*L/2)); same zeros as the det.

    det W = det(D)^2 det(C) = (-1)^(v-1) exp(-i*lam*L), since C has the
    eigenvalue 1 once and -1 v-1 times and L = 2*sum(l_i).  With W's
    eigenphases phi_k, det(I - W) = prod(-2i sin(phi_k/2) exp(i*phi_k/2)),
    and exp(i*sum(phi_k)/2) = +-i^(v-1) exp(-i*lam*L/2), so the determinant
    times exp(i*lam*L/2) is (-2i)^v i^(v-1) times a real number: purely
    imaginary, and its imaginary part carries all the information.  For
    v=1, l=1 this reduces to 2*sin(lam).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    dets = secular_det(graph, lams)
    return np.imag(dets * np.exp(1j * lams * graph.total_length / 2.0))


def _tan_sum(x: np.ndarray, l: np.ndarray):
    """Value sum_i tan(x*l_i) and slope sum_i l_i/cos^2(x*l_i) for each x.

    One tan per element: the slope is (1 + tan^2) @ l.  The x are taken in
    blocks of about 2^16 elements through one 512 KB work buffer, which stays
    in cache and fits the heap's freed space.  One N x v buffer (10 MB at
    v=100, lambda=400) is slower, and needs a fresh 10 MB hole every solve.
    """
    value, slope = np.empty(len(x)), np.empty(len(x))
    step = max(1, 2**16 // len(l))
    work = np.empty((min(step, len(x)), len(l)))
    for start in range(0, len(x), step):
        chunk = x[start : start + step]
        t = np.multiply.outer(chunk, l, out=work[: len(chunk)])
        np.tan(t, out=t)
        value[start : start + step] = t.sum(axis=1)
        np.square(t, out=t)
        t += 1.0
        slope[start : start + step] = t @ l
    return value, slope


def secular_tan(graph: StarGraph, lam: float) -> float:
    """sum_i tan(lam * l_i); raises PoleProximity within _POLE_TOL of any pole."""
    l = graph.lengths_array()
    # distance from lam to the nearest pole pi*(n+1/2)/l_i, per edge
    frac = lam * l / np.pi - 0.5
    dist = np.abs(frac - np.round(frac)) * np.pi / l
    if np.any(dist < _POLE_TOL):
        raise PoleProximity(f"lambda={lam} is within {_POLE_TOL} of a tangent pole")
    return float(_tan_sum(np.array([lam], dtype=float), l)[0][0])


def _pole_grid(graph: StarGraph, lambda_max: float) -> np.ndarray:
    """All tangent poles in (0, lambda_max + one spacing], sorted."""
    l = graph.lengths_array()
    poles = []
    for li in l:
        n_max = int(np.ceil((lambda_max * li / np.pi - 0.5))) + 2
        n = np.arange(0, max(n_max, 1))
        poles.append((n + 0.5) * np.pi / li)
    poles = np.sort(np.concatenate(poles))
    return poles


def solve_spectrum(graph: StarGraph, lambda_max: float) -> Spectrum:
    """All eigenvalues in (0, lambda_max], one per inter-pole interval.

    f(lam) = sum_i tan(lam*l_i) is strictly increasing between consecutive
    poles (derivative sum l_i/cos^2 > 0) and runs from -inf to +inf, so each
    interval holds exactly one root; the interval (0, first pole) holds none.
    The two poles are therefore the starting bracket [lo, hi] of their root.
    Newton's method runs from the bracket midpoint, vectorized over the
    intervals not yet converged, with the safeguard of Numerical Recipes'
    rtsafe: each evaluation narrows the bracket by the sign of f, and a step
    that leaves the bracket or is more than half the step before last is
    replaced by bisection.  An interval stops once its Newton step is at most
    2*eps*lambda; at v=100 that takes about 5 evaluations on average.  A
    zero-width interval is two coincident poles of equal edge lengths, and
    the pole itself is the eigenvalue, so m equal edges list that pole m-1
    times.  lambda=0 is excluded.  Raises SolverNotConverged if an interval
    is still open after 100 iterations.
    """
    if not 0 < lambda_max < np.inf:
        raise ValueError("lambda_max must be positive and finite")
    l = graph.lengths_array()
    poles = _pole_grid(graph, lambda_max)
    a = poles[:-1]
    b = poles[1:]
    keep = a < lambda_max
    a, b = a[keep], b[keep]
    open_ = np.flatnonzero(b > a)
    lo, hi = a[open_], b[open_]
    roots = a.copy()  # coincident poles keep the pole as their root
    x = 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    for _ in range(_MAX_NEWTON_ITERATIONS):
        if not open_.size:
            break
        val, slope = _tan_sum(x, l)
        step = val / slope
        # the stop test comes before the bracket test: a sub-ulp step can land
        # on the bracket edge and would otherwise force a bisection
        done = np.abs(step) <= 2.0 * np.finfo(float).eps * np.abs(x)
        roots[open_[done]] = x[done] - step[done]
        go = ~done
        open_, x, lo, hi, val, step, dx, dx_old = (
            arr[go] for arr in (open_, x, lo, hi, val, step, dx, dx_old)
        )
        lo = np.where(val < 0, x, lo)
        hi = np.where(val < 0, hi, x)
        newton = x - step
        bisect = (newton <= lo) | (newton >= hi) | (np.abs(2.0 * step) > np.abs(dx_old))
        half = 0.5 * (hi - lo)
        dx_old = dx
        dx = np.where(bisect, half, step)
        x = np.where(bisect, lo + half, newton)
    if open_.size:
        raise SolverNotConverged(
            f"{open_.size} roots still bracketed after {_MAX_NEWTON_ITERATIONS} "
            f"Newton iterations, first near lambda={float(x[0])}"
        )

    in_range = (roots > 1e-12) & (roots <= lambda_max)
    roots = roots[in_range]
    roots = np.sort(roots)
    return Spectrum(eigenvalues=roots, lambda_max=float(lambda_max), graph=graph)


def polish_roots_det(graph: StarGraph, roots: np.ndarray) -> np.ndarray:
    """Secant-polish roots against the determinant-side secular function.

    Runs a few derivative-free steps on secular_real (central differences),
    vectorized across all roots.  Used to verify that tan-form roots are
    roots of the determinant too, to the determinant's own resolution.
    """
    lam = np.array(roots, dtype=float, copy=True)
    eps = 1e-7
    for _ in range(_DET_POLISH_STEPS):
        stacked = np.concatenate([lam, lam + eps, lam - eps])
        h = secular_real(graph, stacked)
        n = len(lam)
        h0, hp, hm = h[:n], h[n : 2 * n], h[2 * n :]
        slope = (hp - hm) / (2 * eps)
        step = np.where(slope != 0.0, h0 / np.where(slope == 0.0, 1.0, slope), 0.0)
        # never walk further than a fraction of the local spacing
        cap = 0.25 * mean_spacing(graph)
        lam = lam - np.clip(step, -cap, cap)
    return lam


def det_root_count(graph: StarGraph, lambda_max: float) -> int:
    """Count determinant-side roots in (0, lambda_max] by unitary winding.

    W(lam) = D C D is unitary with det W = (-1)^(v-1) * exp(-i*lam*L), so its
    eigenphase sum decreases at the exact rate L.  Each individual phase
    decreases monotonically, at the rate 2<psi|diag(l)|psi> of its unit
    eigenvector psi, between twice the shortest and twice the longest edge
    length.  lam is an eigenvalue of the graph exactly when a phase passes
    through zero, so over a step short enough that no phase can complete a
    full turn the number of passes is the integer
    (step*L + sum(P_after) - sum(P_before)) / (2*pi).  The step is
    pi/(4*l_max), so no phase moves by more than pi/2.

    Unlike sign-change counting on the determinant's value, the winding is
    exact where eigenvalues cluster: with nearly equal edge lengths the low
    part of the spectrum packs v-1 roots into a tiny window, the determinant
    magnitude there underflows double precision, but each eigenphase of the
    unitary matrix stays perfectly conditioned.
    """
    if not 0 < lambda_max < np.inf:
        raise ValueError("lambda_max must be positive and finite")
    two_pi = 2.0 * np.pi
    # each phase moves by at most 2 * step * l_max per step; stay well under 2*pi
    step = 0.25 * np.pi / float(graph.lengths_array().max())
    lams = np.linspace(0.0, lambda_max, int(np.ceil(lambda_max / step)) + 1)
    sums = np.empty(len(lams))
    for start, w in _evolution_chunks(graph, lams):
        # principal eigenphases in [0, 2*pi)
        phases = np.mod(np.angle(np.linalg.eigvals(w)), two_pi)
        if start == 0:
            # lam = 0 is always a determinant root but is excluded from the
            # spectrum, so the phase sitting at zero starts a full turn before
            # its next crossing
            phases[0, phases[0] < 1e-9] += two_pi
        sums[start : start + len(w)] = phases.sum(axis=1)
    wraps = (np.diff(lams) * graph.total_length + sums[1:] - sums[:-1]) / two_pi
    return int(np.round(wraps).sum())
