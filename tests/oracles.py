"""Reference routes that only the tests run.

Each is a second, independent route to something the package computes.  No
engine, CLI command or benchmark workload calls them, so they live beside
the tests rather than in the shipped package:

* ``dirichlet_moment`` -- simplex moment integrals in closed form, the
  oracle for the series derivations (criterion 06);
* ``exact_f3_chain`` -- the j-edge F3 chain in exact rationals, by the plain
  shifted-add loop over every edge weight, the oracle for the factored
  extended-precision chain step of `analytic`;
* ``s_amplitude``, ``classify`` and ``amplitude`` -- the vertex scattering
  amplitudes and the class and amplitude of a single cyclic word, the
  word-by-word oracle for the class sums of `orbits` and `trace`;
* the determinant side of the secular equation.  ``secular_det`` is
  det(I - W(lambda)) of the v x v unitary W = D C D, with
  D = diag(exp(-i*lambda*l_i)) and C = (2/v)J - I the center's scattering
  matrix.  A Schur complement reduces the directed-edge determinant
  det(I - exp(-i*lambda*Lhat) S) over the 2v bonds exactly to this one.  It
  is O(v^3) per evaluation and uses none of the rank-one structure the tan
  form of `solve_spectrum` comes from, so every root the solver finds must
  annihilate it.  ``secular_real`` rotates the determinant onto the real
  axis, which gives ``polish_roots_det`` a real-valued target, and
  ``mean_spacing`` caps the polish steps.

pytest puts this directory on ``sys.path``, so the test modules import these
names with ``from oracles import ...``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from star_spectra._guards import require_int
from star_spectra.graph import StarGraph
from star_spectra.orbits import OrbitClass
from star_spectra.spectrum import _evolution_chunks

__all__ = [
    "dirichlet_moment",
    "exact_f3_chain",
    "s_amplitude",
    "classify",
    "amplitude",
    "mean_spacing",
    "secular_det",
    "secular_real",
    "polish_roots_det",
]

_DET_POLISH_STEPS = 5


def dirichlet_moment(exponents, tau: float) -> float:
    """Simplex moment integral of a monomial over q_i >= 0, sum q_i = tau.

    Equals (prod m_i!) / (M + j - 1)! * tau^(M + j - 1) for j = len(exponents)
    coordinates of which the last is eliminated.  Used as the independent
    oracle for the series derivations.
    """
    exps = tuple(exponents)
    require_int("exponents", *exps)
    j = len(exps)
    if j < 2:
        raise ValueError("need at least two coordinates")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    m = sum(exps)
    scale = Fraction(1)
    for e in exps:
        scale *= factorial(e)
    scale = Fraction(scale, factorial(m + j - 1))
    return float(scale) * tau ** (m + j - 1)


@lru_cache(maxsize=None)
def _scaled_f3_chain(m_max: int, j: int) -> np.ndarray:
    """The j-edge F3 chain times (m_max!)^(3j), as an object array of ints."""
    if j == 0:
        return np.ones((1, 1, 1, 1), dtype=object)
    # the weight times (m_max!)^3 at [t - 1, t' - 1, t'' - 1, s], an integer
    top = factorial(m_max)
    edge = np.zeros((m_max,) * 4, dtype=object)
    for t in range(1, m_max + 1):
        for tp in range(1, m_max + 1):
            for tpp in range(1, m_max + 1):
                scale = (top // factorial(t)) * (top // factorial(tp)) * (top // factorial(tpp))
                for s in range(tpp):
                    edge[t - 1, tp - 1, tpp - 1, s] = comb(s + t - 1, s) * comb(tpp + tp - s - 2, tp - 1) * scale
    acc = _scaled_f3_chain(m_max, j - 1)
    out = np.zeros(tuple(x + m_max - 1 for x in acc.shape), dtype=object)
    for idx in np.argwhere(edge != 0):
        out[tuple(slice(i, i + n) for i, n in zip(idx, acc.shape))] += edge[tuple(idx)] * acc
    return out


def exact_f3_chain(m_max: int, j: int) -> np.ndarray:
    """The j-edge F3 chain as an object array of `Fraction`s.

    Indexed [T - j, T' - j, T'' - j, S], each axis j(m_max-1)+1 long: the
    sum over every j-edge walk of the product of its per-edge weights
    comb(s+t-1, s) comb(t''+t'-s-2, t'-1) / (t! t'! t''!), with s < t''.
    The weights are scaled by (m_max!)^3 to integers, the plain shifted-add
    loop runs over each nonzero weight in exact integers, and the scale
    comes off at the end.  Nothing here factors the weight or orders the
    sums as `analytic._f3_step` does.
    """
    require_int("m_max", m_max)
    require_int("j", j)
    if m_max < 1 or j < 1:
        raise ValueError("need positive m_max and j")
    return _scaled_f3_chain(m_max, j) * Fraction(1, factorial(m_max) ** (3 * j))


def s_amplitude(kind: str, v: int) -> float:
    """Vertex scattering amplitude.

    kind 'trivial'     -- reflection at an outer vertex, always 1
    kind 'backscatter' -- center amplitude back into the same edge, -1 + 2/v
    kind 'transmit'    -- center amplitude into a different edge, 2/v
    """
    if v < 1:
        raise ValueError(f"need v >= 1, got {v}")
    if kind == "trivial":
        return 1.0
    if kind == "backscatter":
        return -1.0 + 2.0 / v
    if kind == "transmit":
        return 2.0 / v
    raise ValueError(f"unknown amplitude kind {kind!r}")


def classify(word) -> OrbitClass:
    """Class (j, n, m) of a cyclic word; letters ordered by their sorted value.

    n_i counts occurrences of the i-th distinct letter, m_i its maximal cyclic
    runs.  A single-letter word forms one cyclic block.
    """
    w = list(word)
    if not w:
        raise ValueError("empty word")
    letters = sorted(set(w))
    k = len(w)
    n = tuple(sum(1 for c in w if c == letter) for letter in letters)
    m = []
    for letter in letters:
        starts = sum(1 for i in range(k) if w[i] == letter and w[i - 1] != letter)
        m.append(starts if starts > 0 else 1)  # all-same word: one block
    return OrbitClass(j=len(letters), n=n, m=tuple(m))


def amplitude(word, v: int) -> float:
    """Product of center scattering amplitudes along the orbit.

    Each cyclically adjacent equal pair of letters is a backscatter (-1+2/v),
    each unequal pair a transmission (2/v); outer-vertex reflections are 1.
    """
    w = list(word)
    k = len(w)
    back = sum(1 for i in range(k) if w[i] == w[i - 1])
    return (-1.0 + 2.0 / v) ** back * (2.0 / v) ** (k - back)


def mean_spacing(graph: StarGraph) -> float:
    """Mean eigenvalue spacing 2*pi/L from the Weyl density L/(2*pi)."""
    return 2.0 * np.pi / graph.total_length


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
