"""Closed-form and series evaluators for the correlation functions.

This module evaluates, without any Monte Carlo input:

* the Bessel-quotient kernel  B(x) = I_1(4*sqrt(x))/sqrt(x)  as a power
  series (entire, B(0) = 2);
* the exact rational coefficients C_M and the two-point form factor
  K(tau) = exp(-4*tau) + sum_{j>=2} sum_M (4^j/j!) C_M tau^(M+j+1),
  valid near tau = 0 and clamped to tau <= 1/2;
* the two-point function R2 as the windowed cosine transform of K;
* the three-point connected kernel F(tau, tau') = F1 + F2 + F3 + F4,
  where F1 is elementary, F2 couples one- and two-dimensional integrals of
  the Bessel kernel, and F3/F4 are alternating multi-index series whose
  coefficients are built by extended-precision engines and checked against
  exact rational oracles;
* the quadratic small-argument expansion of F, and the assembled three-point
  correlation function R3.

The coefficient tables behind the evaluators are built in extended precision
(`np.longdouble`) from positive masses: every convolution adds positive
weights, and the alternating (-2)^T sign and the factorial ratios are applied
once per final state, so no cancellation happens inside an accumulation.  The
exact `Fraction` routes (`c_coeff`, `f3_coefficients`, `f4_coefficients`)
build the same coefficients independently; they are the oracles the float
tables are tested against.  Evaluators are pure, and K, R2, R3 and the
kernel components are array-first: a scalar call returns a float, an array
call an array of the broadcast shape.  Coefficient tables are cached on the
cutoffs they read and safe to share across threads.

The two cold builds behind a first R3 evaluation, the F3 chain step
(`_f3_step`) and the F2 pair engine under the F1+F2 table (`_f2_pairs`), run
on `worker_count()` threads (`STAR_SPECTRA_THREADS`, else the CPU count).
Each thread writes a disjoint part of the output, and every output value gets
the same operations in the same order as on one thread, so the tables are
bitwise independent of the thread count.  The threads end with the build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

import numpy as np

from ._guards import require_int
from .workers import pool_map, worker_count

__all__ = [
    "DEFAULT_TRUNCATION",
    "Truncation",
    "QuadratureError",
    "bessel_ratio",
    "c_coeff",
    "k_formfactor",
    "r2_analytic",
    "f1",
    "f2",
    "f3",
    "f4",
    "f_total",
    "f_expansion",
    "f3_coefficients",
    "f4_coefficients",
    "r3_connected",
    "r3_full",
]


_BESSEL_UPPER = 100.0  # largest argument bessel_ratio's 64-term series converges at


@dataclass(frozen=True)
class Truncation:
    """Series and quadrature cutoffs for the analytic evaluators.

    j_max       -- cutoff of the sum over distinct-edge counts j in K and in
                   the F3/F4 series
    m_max       -- cutoff of each multi-index component (t, t', t'', s) and of
                   the power sum M in K.  The two-variable series are
                   evaluated as full component-capped sums; only the exact
                   oracle `f3_coefficients` reports up to total polynomial
                   degree 2*m_max (`degree_cap`).  `k_formfactor` takes both
                   as given, R2 and R3 as floors for K (see `_k_truncation`)
    quad_points -- Gauss-Legendre points per axis of the F1+F2 table and of
                   F2's inner integrals: up to 16 form one panel, larger
                   counts must be multiples of 16 (composite panels of 16),
                   so the rule and its 2n-point refinement have exactly the
                   requested sizes.  The F3+F4 table's rule is sized by
                   j_max and m_max instead (`_f34_rule`)
    tau_cutoff  -- upper integration limit replacing infinity in R3's F1+F2
                   part.  F1 decays like exp(-4*tau) but F2 does not: its
                   exp(-4s) prefactor is offset by the Bessel growth, and
                   f2(tau, tau) reads 0.279 and 0.198 at tau = 4 and 8, so
                   R3 moves with the cutoff.  The table takes B at up to
                   cutoff^2, so a cutoff above sqrt(_BESSEL_UPPER) = 10
                   leaves `bessel_ratio`'s range and is refused here
    """

    j_max: int = 6
    m_max: int = 8
    quad_points: int = 64
    tau_cutoff: float = 4.0

    def __post_init__(self):
        for name in ("j_max", "m_max", "quad_points"):
            require_int(name, getattr(self, name))
        if self.j_max < 1 or self.m_max < 1 or self.quad_points < 2:
            raise ValueError("cutoffs must be positive")
        if self.quad_points > 16 and self.quad_points % 16:
            raise ValueError("quad_points above 16 must be a multiple of 16")
        if not np.isfinite(self.tau_cutoff):
            raise ValueError("tau_cutoff must be finite")
        if self.tau_cutoff < 3:
            raise ValueError("tau_cutoff below 3 would truncate visible mass")
        if self.tau_cutoff**2 > _BESSEL_UPPER:
            raise ValueError(f"tau_cutoff must be at most {_BESSEL_UPPER**0.5:g}")

    @property
    def degree_cap(self) -> int:
        return 2 * self.m_max


DEFAULT_TRUNCATION = Truncation()


class QuadratureError(RuntimeError):
    """Raised when panel refinement disagrees beyond tolerance, or when a
    series table would be too large to build."""


_LONG = np.longdouble


@lru_cache(maxsize=None)
def _factorials(n: int) -> np.ndarray:
    """k! for k = 0..n in extended precision, each correctly rounded."""
    return np.array([_LONG(factorial(k)) for k in range(n + 1)])


# ----------------------------------------------------------------- Bessel --


def bessel_ratio(x):
    """B(x) = I_1(4*sqrt(x))/sqrt(x) = 2 * sum_k (4x)^k / (k! (k+1)!).

    Entire in x, B(0) = 2.  Accepts scalars or arrays.  The 64-term series is
    converged to machine precision for x up to _BESSEL_UPPER = 100 and not
    beyond (at x = 400 it is off by ~3e-7, at 900 by 22%), so a larger
    argument raises ValueError.  F2 takes B at up to (tau + tau')^2/4, so
    its arguments stay in range for tau + tau' < 20 (at exactly 20 rounding
    may push one over), a table's for tau_cutoff <= 10.

    The sum may stop early, with the bits of all 64 terms: once every z is
    >= 0 and k(k+1) > max z, each later term is nonnegative and no larger
    than the current one, so if adding the current term again changes no
    element, no later term can (rounding is monotone).  Negative arguments
    alternate in sign and always take the full series.  The term, the sum
    and the probe are updated in place, with the operations of
    `term = term * z / (k(k+1))` and `total + term`.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and arr.max() > _BESSEL_UPPER:
        raise ValueError(
            f"bessel_ratio argument {float(arr.max()):g} exceeds {_BESSEL_UPPER:g}, "
            "where its 64-term series stops converging"
        )
    z = 4.0 * arr
    term = np.full_like(arr, 2.0)
    total = term.copy()
    probe = np.empty_like(arr)
    z_max = z.max() if z.size and z.min() >= 0 else np.inf
    for k in range(1, 64):
        np.multiply(term, z, out=term)
        np.divide(term, k * (k + 1), out=term)
        total += term
        if k % 8 == 0 and k * (k + 1) > z_max:
            np.add(total, term, out=probe)
            if np.array_equal(probe, total):
                break
    return float(total) if np.isscalar(x) or arr.ndim == 0 else total


# ------------------------------------------------- form factor coefficients --


@lru_cache(maxsize=None)
def _pair_weights(cap: int) -> tuple:
    """Single-index weights binom(a+b, a)/((a+1)!(b+1)!) for a+b <= cap."""
    return tuple(
        ((a, b), Fraction(comb(a + b, a), factorial(a + 1) * factorial(b + 1)))
        for a in range(cap + 1)
        for b in range(cap + 1 - a)
    )


@lru_cache(maxsize=None)
def _pair_convolution(j: int, cap: int):
    """j-fold convolution of the pair weights on the (K, N) plane."""
    g = _pair_weights(cap)
    if j == 1:
        return dict(g)
    prev = _pair_convolution(j - 1, cap)
    out = {}
    for (k1, n1), w1 in prev.items():
        for (a, b), w2 in g:
            k, n = k1 + a, n1 + b
            if k + n <= cap:
                key = (k, n)
                if key in out:
                    out[key] += w1 * w2
                else:
                    out[key] = w1 * w2
    return out


@lru_cache(maxsize=None)
def _c_row(j: int, cap: int) -> tuple:
    """C_0..C_cap for fixed j, exact."""
    conv = _pair_convolution(j, cap)
    rows = [Fraction(0)] * (cap + 1)
    for (k, n), w in conv.items():
        m = k + n
        rows[m] += Fraction(factorial(k + j - 1) * factorial(n + j - 1), factorial(m + j - 1)) * w
    return tuple(Fraction(-2) ** m * c for m, c in enumerate(rows))


def c_coeff(j: int, m: int) -> Fraction:
    """Exact coefficient C_M of the form-factor series, for j >= 2, M >= 0."""
    require_int("j", j)
    require_int("M", m)
    if j < 2 or m < 0:
        raise ValueError("need j >= 2 and M >= 0")
    return _c_row(j, m)[m]


@lru_cache(maxsize=None)
def _k_poly(j_max: int, m_max: int) -> np.ndarray:
    """Coefficients of the polynomial part of K(tau), ascending powers.

    The float counterpart of `_c_row`: the pair weights are all positive, so
    the j-fold convolution runs as shifted adds in extended precision on the
    K + N <= m_max triangle.  The factorial ratio and the (-2)^M sign follow
    per (K, N) state, the signed sum over j stays in extended precision, and
    each coefficient is rounded to float64 once.
    """
    fact = _factorials(m_max + j_max)
    k, n = np.ogrid[: m_max + 1, : m_max + 1]
    inside = k + n <= m_max
    support = list(zip(*np.nonzero(inside)))
    pair = np.zeros((m_max + 1, m_max + 1), dtype=_LONG)
    for a, b in support:
        pair[a, b] = _LONG(comb(a + b, a)) / (fact[a + 1] * fact[b + 1])
    signs = _LONG(-2.0) ** np.arange(m_max + 1)
    coeffs = np.zeros(m_max + j_max + 2, dtype=_LONG)
    conv = pair
    for j in range(2, j_max + 1):
        nxt = np.zeros_like(conv)
        for a, b in support:
            r = m_max + 1 - a - b  # the shifted square that holds the triangle's cells
            nxt[a : a + r, b : b + r] += pair[a, b] * conv[:r, :r]
        conv = np.where(inside, nxt, 0)
        terms = (conv * fact[k + j - 1] * fact[n + j - 1])[inside] / fact[(k + n + j - 1)[inside]]
        row = np.zeros(m_max + 1, dtype=_LONG)
        np.add.at(row, (k + n)[inside], terms)
        coeffs[j + 1 : j + m_max + 2] += _LONG(4**j) / fact[j] * signs * row
    return coeffs.astype(float)


# K's series is an expansion near tau = 0, used only up to here
_K_UPPER = 0.5


def _k_truncation(trunc: Truncation) -> Truncation:
    """K's cutoffs in R2 and R3, at least (12, 60): K(1/2) = 0.535 there, 230 at (6, 8)."""
    return replace(trunc, j_max=max(12, trunc.j_max), m_max=max(60, trunc.m_max))


def k_formfactor(tau, trunc: Truncation = DEFAULT_TRUNCATION):
    """Two-point form factor K(tau), truncated at (j_max, m_max).

    Accepts a scalar (returns a float) or an array (returns an array of the
    same shape).  The series is an expansion near tau = 0; arguments above
    1/2 are outside its validity and rejected.  K(0) = 1 exactly.
    """
    taus = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau must be finite")
    if np.any(taus < 0):
        raise ValueError("tau must be nonnegative")
    if np.any(taus > _K_UPPER):
        raise ValueError(f"form-factor series is only valid for tau <= {_K_UPPER}")
    coeffs = _k_poly(trunc.j_max, trunc.m_max)
    values = np.exp(-4.0 * taus) + np.polynomial.polynomial.polyval(taus, coeffs)
    return float(values) if taus.ndim == 0 else values


# -------------------------------------------------------------- quadrature --


@lru_cache(maxsize=None)
def _gl_unit(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _gl_panels(total_points: int, lo: float, hi: float):
    """Composite Gauss-Legendre rule on [lo, hi], panels of up to 16 points."""
    panels = max(1, total_points // 16)
    per = max(2, total_points // panels)
    u, w = _gl_unit(per)
    edges = np.linspace(lo, hi, panels + 1)
    nodes = (edges[:-1, None] + np.diff(edges)[:, None] * u[None, :]).ravel()
    weights = (np.diff(edges)[:, None] * w[None, :]).ravel()
    return nodes, weights


def r2_analytic(x, trunc: Truncation = DEFAULT_TRUNCATION, kernel=None):
    """Two-point correlation: 1 + symmetrized cosine transform of K.

    R2(x) = 1 + 2 * integral_0^(1/2) K(tau) cos(2 pi x tau) dtau.  The window
    is the form-factor series' validity domain (_K_UPPER), so this transform
    is an approximation controlled by the window, not only by the truncation;
    it is even in x by construction.  Array-first: a scalar x returns a
    float, an array returns an array of its shape, each element with the bits
    of the scalar call.  K is evaluated at `_k_truncation(trunc)`.
    `kernel` replaces K for surrogate checks (e.g. the zero kernel gives the
    Poisson answer R2 = 1 identically); it is called once, on the nodes.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    nodes, weights = _gl_panels(trunc.quad_points, 0.0, _K_UPPER)
    if kernel is None:
        kv = k_formfactor(nodes, _k_truncation(trunc))
    else:
        kv = np.asarray(kernel(nodes), dtype=float)
    # associated as (2 pi x) * tau, so an array x gives each element the bits
    # of the scalar call
    phases = np.multiply.outer(2.0 * np.pi * xs, nodes)
    values = 1.0 + 2.0 * np.sum(weights * kv * np.cos(phases), axis=-1)
    return float(values) if xs.ndim == 0 else values


# ------------------------------------------------------------ kernel F1, F2 --


def _finite_pairs(x, y, names: str = "x and y") -> tuple:
    """x and y as float arrays broadcast to one shape, all finite."""
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError(f"{names} must be finite")
    return xs, ys


def _pairwise(evaluate, tau, tau_p, upper: float):
    """evaluate(lo, hi) on the flat argument pairs, each ordered as lo <= hi.

    The front of every kernel evaluator: tau and tau_p broadcast, are finite
    and lie in [0, upper].  The kernel is symmetric, and ordering each pair
    gives swapped arguments the same bits.  Scalars return a float, arrays an
    array of the broadcast shape.
    """
    taus, tau_ps = _finite_pairs(tau, tau_p, "tau and tau_p")
    lo, hi = np.minimum(taus, tau_ps), np.maximum(taus, tau_ps)
    if lo.size and not (lo.min() >= 0.0 and hi.max() <= upper):
        raise ValueError(f"kernel arguments must lie in [0, {upper:g}]")
    values = evaluate(lo.ravel(), hi.ravel()).reshape(lo.shape) if lo.size else np.zeros(lo.shape)
    return float(values) if values.ndim == 0 else values


def f1(tau, tau_p):
    """First kernel component, 2*exp(-4*tau)*exp(-4*tau_p), for tau, tau' >= 0."""
    return _pairwise(lambda lo, hi: 2.0 * np.exp(-4.0 * (lo + hi)), tau, tau_p, np.inf)


def _f2_bracket_rows(tau: float, tau_ps: np.ndarray, n: int) -> np.ndarray:
    """Bracket of the second kernel component at (tau, each tau_p), n-point rule.

    bracket = B(tau*tau') + 8*tau' * J(tau') + 8*tau * J(tau) + 8*tau*tau' * J2
    with J(c) = int_0^c B(q(s-q)) B(q(c-q)) dq,  s = tau + tau', and J2 the
    corresponding double integral over [0,tau] x [0,tau'].  Integrals are
    mapped to the unit interval/square (q = c*u) so the panels never move.

    Each c - q is written c*u[::-1], the mirrored node.  The 1-D factors
    g = B(q1 (tau-q1)) and h = B(q (tau'-q)) are then mirror symmetric, and
    J2's argument P (s-P), P = tau u + tau' u', is bitwise the same at
    (u, u') and at its mirror (1-u, 1-u'), where P and s - P swap places.
    So J2 sums the columns u' < 1/2 twice and, for odd n, the middle column
    once.  The weights are mirror symmetric too, bitwise when the rule's
    panel count is a power of two and to rounding otherwise.
    """
    u, w = _gl_panels(n, 0.0, 1.0)
    mirror = u[::-1]
    half, odd = divmod(n, 2)
    cols = half + odd
    col_weights = 2.0 * w[:cols]
    if odd:
        col_weights[half] = w[half]

    q1, q1_bar = tau * u, tau * mirror  # q1 = tau*u and tau - q1
    q, q_bar = tau_ps[:, None] * u, tau_ps[:, None] * mirror  # q = tau'*u and tau' - q
    g = bessel_ratio(q1 * q1_bar)
    h = bessel_ratio(q * q_bar)

    # J(tau'): s - q = tau + (tau' - q)
    jp = tau_ps * np.sum(w * bessel_ratio(q * (tau + q_bar)) * h, axis=1)
    # J(tau): s - q1 = tau' + (tau - q1)
    jt = tau * np.sum(w * bessel_ratio(q1 * (tau_ps[:, None] + q1_bar)) * g, axis=1)
    # J2 on the columns u' < 1/2 (and the middle one): P and s - P
    p = q1[:, None] + q[:, None, :cols]  # (m, n, cols)
    p_bar = q1_bar[:, None] + q_bar[:, None, :cols]
    p *= p_bar
    inner = bessel_ratio(p)
    inner *= (col_weights * h[:, :cols])[:, None, :]
    j2 = tau * tau_ps * np.sum(w * g * np.sum(inner, axis=2), axis=1)

    return bessel_ratio(tau * tau_ps) + 8.0 * (tau_ps * jp + tau * jt + tau * tau_ps * j2)


# Largest J2 tensor of one F2 task under the refined rule, in cells: the
# 2n-point rule evaluates 2n x n cells per tau' (half its square).  It
# bounds each thread's temporaries in `_f2_pairs` to a few MB: worker threads
# allocate from their own malloc arenas, which cannot reuse what the main
# heap has freed, so larger tasks raise the process's peak memory.
_F2_TASK_CELLS = 2**16


def _f2_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """F2 at each pair (lo[i], hi[i]), lo <= hi, n-point rule: the pair engine.

    The distinct pairs are grouped into rows of one lo value, each evaluated
    at (lo, its ascending hi values); on a square grid of ascending taus, row
    i is (taus[i], taus[i:]).  The rows are cut into column chunks of at most
    `_F2_TASK_CELLS` evaluated J2 cells (2n x n per column under the refined
    rule, so 8 columns at n = 64), run on `worker_count()` threads.  Every
    value is a function of its own (tau, tau') alone (`bessel_ratio` stops
    early only with the full series' bits), so the grouping, the chunking and
    the thread count change no bit.  Each value is taken under the n-point
    rule and its 2n-point refinement, and the refined row is kept once the
    whole row agrees with the coarse one to 1e-8 of its scale.
    """
    pairs, inverse = np.unique(np.stack([lo, hi], axis=1), axis=0, return_inverse=True)
    starts = np.unique(pairs[:, 0], return_index=True)[1].tolist()
    rows = list(zip(starts, [*starts[1:], len(pairs)]))
    width = max(1, _F2_TASK_CELLS // (2 * n * n))
    tasks = [(a, c, min(c + width, b)) for a, b in rows for c in range(a, b, width)]

    def run(task):
        row, first, stop = task
        tau, tau_ps = float(pairs[row, 0]), pairs[first:stop, 1]
        s = tau + tau_ps
        pref = np.exp(-4.0 * s) * s
        return pref * _f2_bracket_rows(tau, tau_ps, n), pref * _f2_bracket_rows(tau, tau_ps, 2 * n)

    coarse, fine = np.empty(len(pairs)), np.empty(len(pairs))
    for (_, first, stop), rules in zip(tasks, pool_map(run, tasks)):
        coarse[first:stop], fine[first:stop] = rules
    for a, b in rows:
        gap = np.max(np.abs(fine[a:b] - coarse[a:b]))
        if gap > 1e-8 * max(1.0, float(np.max(np.abs(fine[a:b])))):
            raise QuadratureError(f"inner quadrature for F2 moved by {gap:.2e} under refinement")
    return fine[inverse.ravel()]


def f2(tau, tau_p, trunc: Truncation = DEFAULT_TRUNCATION):
    """Second kernel component (one- and two-dimensional Bessel integrals), for tau, tau' >= 0."""
    return _pairwise(partial(_f2_pairs, n=trunc.quad_points), tau, tau_p, np.inf)


# ------------------------------------------------------------ kernel F3, F4 --


def _f3_edge_moves(m_max: int, max_degree: int) -> list:
    """Per-edge transitions (dT, dT', dT'', dS, degree, weight) for F3.

    Every component of the per-edge multi-index is capped at m_max; the degree
    budget only windows which monomials the exact-coefficient path reports.
    """
    moves = []
    for t in range(1, min(m_max, max_degree + 1) + 1):
        for tp in range(1, min(m_max, max_degree + 2 - t) + 1):
            for tpp in range(1, min(m_max, max_degree + 2 - t - tp) + 1):
                deg = t + tp + tpp - 1
                if deg > max_degree:
                    continue
                base = factorial(t) * factorial(tp) * factorial(tpp)
                for s in range(0, min(tpp, m_max + 1)):
                    w = Fraction(comb(s + t - 1, s) * comb(tpp + tp - s - 2, tp - 1), base)
                    moves.append((t, tp, tpp, s, deg, w))
    moves.sort(key=lambda mv: mv[4])
    return moves


@lru_cache(maxsize=None)
def _f3_poly(j: int, m_max: int, degree_cap: int) -> tuple:
    """Low-order inner polynomial of the j-th F3 block, exact coefficients.

    The block equals (tau + tau') * sum c_ab tau^a tau'^b; this returns the
    ((a, b), Fraction) pairs with a + b <= degree_cap.  Aggregation runs a
    dynamic program over the per-edge multi-indices (each component <= m_max),
    keeping the exact state (T, T', T'', S); the (-2)^(T+T'+T'') alternation
    and the factorial weights are applied once per final state, so every DP
    entry stays positive.  Coefficients beyond the degree window still
    contribute to evaluation through the numeric engine below.
    """
    if j < 3:
        raise ValueError("F3 blocks start at j = 3")
    moves = _f3_edge_moves(m_max, degree_cap - 2 * (j - 1))
    states = {(0, 0, 0, 0, 0): Fraction(1)}
    for edge in range(j):
        remaining = j - edge - 1
        new_states = {}
        for (t_, tp_, tpp_, s_, deg_), w0 in states.items():
            budget = degree_cap - 2 * remaining - deg_
            for (t, tp, tpp, s, deg, w) in moves:
                if deg > budget:
                    break  # moves sorted by degree
                key = (t_ + t, tp_ + tp, tpp_ + tpp, s_ + s, deg_ + deg)
                add = w0 * w
                if key in new_states:
                    new_states[key] += add
                else:
                    new_states[key] = add
        states = new_states
    out = {}
    front = Fraction(2, factorial(j))
    for (t_sum, tp_sum, tpp_sum, s_sum, _deg), w in states.items():
        a = s_sum + t_sum
        b = tp_sum + tpp_sum - s_sum - j
        if b < 1 or a + b > degree_cap:
            continue
        sign = Fraction(-2) ** (t_sum + tp_sum + tpp_sum)
        weight = Fraction(
            factorial(t_sum - 1) * factorial(tp_sum - 1) * factorial(tpp_sum - 1),
            factorial(a - 1) * factorial(b - 1),
        )
        coeff = front * sign * weight * w
        key = (a, b)
        out[key] = out.get(key, Fraction(0)) + coeff
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _f4_poly(j: int, m_max: int) -> tuple:
    """Half-bracket polynomial of the j-th F4 block as ((a, b), Fraction) pairs.

    The block equals (tau + tau') * [P(tau, tau') e^{-2 tau} +
    P(tau', tau) e^{-2 tau'}] with P = sum c_ab tau^a tau'^b; this returns P's
    exact coefficients for the full component-capped sum (every index <=
    m_max).  Edges 2..j share one two-index weight; the first edge carries the
    extra geometric split index s.  This exact route is the oracle for the
    extended-precision engine `_f4_block_matrix`, which aggregates the same
    sum independently.
    """
    if j < 3:
        raise ValueError("F4 blocks start at j = 3")
    _require_cells(_f4_cells(j, m_max), j, m_max)
    pair_moves = []
    for tp in range(1, m_max + 1):
        for tpp in range(1, m_max + 1):
            w = Fraction(comb(tpp + tp - 2, tp - 1), factorial(tp) * factorial(tpp))
            pair_moves.append((tp, tpp, w))
    # convolve edges 2..j on the aggregate (T', T'')
    states = {(0, 0): Fraction(1)}
    for _ in range(j - 1):
        new_states = {}
        for (tp_, tpp_), w0 in states.items():
            for (tp, tpp, w) in pair_moves:
                key = (tp_ + tp, tpp_ + tpp)
                add = w0 * w
                if key in new_states:
                    new_states[key] += add
                else:
                    new_states[key] = add
        states = new_states
    out = {}
    front = Fraction(2, factorial(j - 1))
    for (tp_rest, tpp_rest), w_rest in states.items():
        for tp1 in range(1, m_max + 1):
            for tpp1 in range(1, m_max + 1):
                t_prime = tp_rest + tp1
                t_second = tpp_rest + tpp1
                for s in range(0, min(tpp1, m_max + 1)):
                    a = tpp1 - 1 - s
                    b = t_second + t_prime - tpp1 + s - j + 1
                    w1 = Fraction(
                        comb(s + tp1 - 1, s),
                        factorial(tpp1 - 1 - s) * factorial(tp1) * factorial(tpp1),
                    )
                    sign = Fraction(-2) ** (t_prime + t_second)
                    weight = Fraction(
                        factorial(t_prime - 1) * factorial(t_second - 1),
                        factorial(t_second + t_prime - tpp1 + s - j),
                    )
                    coeff = front * sign * weight * w1 * w_rest
                    key = (a, b)
                    out[key] = out.get(key, Fraction(0)) + coeff
    return tuple(sorted(out.items()))


def f3_coefficients(j: int, trunc: Truncation = DEFAULT_TRUNCATION) -> dict:
    """Exact inner-polynomial coefficients {(a, b): Fraction} of an F3 block.

    Reported through total degree 2 * m_max; evaluation keeps all orders.
    """
    require_int("j", j)
    return dict(_f3_poly(j, trunc.m_max, trunc.degree_cap))


def f4_coefficients(j: int, trunc: Truncation = DEFAULT_TRUNCATION) -> dict:
    """Exact half-bracket coefficients {(a, b): Fraction} of an F4 block."""
    require_int("j", j)
    return dict(_f4_poly(j, trunc.m_max))


# The two-variable series carry factorially damped positive weights per
# multi-index component, so the component-capped sums converge on the whole
# unit square; a fixed-degree polynomial window instead diverges toward
# (1, 1).  Evaluation therefore aggregates the full component-capped sum with
# a positive-mass tensor convolution.  Extended precision matters: the signed
# reassembly cancels up to ~18 digits at the far corner, and 80-bit floats
# keep the worst-case absolute noise near (1, 1) below ~3e-2 at j = 6 (it
# fades superexponentially away from the corner and is integrable noise for
# the correlation transforms).
_BLOCK_FLOOR = 1e-9  # omit F3 blocks bounded below this against the result scale
_MAX_CONV_CELLS = 6e7  # largest table a series block may allocate


def _require_cells(cells: int, j: int, m_max: int) -> None:
    """Refuse a block whose table would exceed _MAX_CONV_CELLS cells."""
    if cells > _MAX_CONV_CELLS:
        raise QuadratureError(
            f"series tables for j_max={j}, m_max={m_max} need {cells:.1e} cells; "
            "reduce the truncation"
        )


def _f4_cells(j: int, m_max: int) -> int:
    """Cells of F4 block j's (a, T', T'') table; the exact DP has fewer states."""
    return m_max * (j * m_max + 1) ** 2


def _f3_cells(j: int, m_max: int) -> int:
    """Stored cells of the j-edge F3 chain: n^2 (q + 1) per T'' plane q < n, n = j(m_max-1)+1."""
    n = j * (m_max - 1) + 1
    return n * n * n * (n + 1) // 2


@lru_cache(maxsize=None)
def _f3_edge_tensor(m_max: int) -> tuple:
    """The positive per-edge weight as two factors (a, b), components 1..m_max.

    The weight of edge (t, t', t'', s), each of t, t', t'' at least 1 and
    s below t'', is comb(s+t-1, s)/t! * comb(t''+t'-s-2, t'-1)/(t'! t''!),
    which is a[t - 1, s] * b[t' - 1, t'' - 1, s]; b is zero for s >= t''.
    Each factor is one extended-precision division of its exact integers.
    Chained over j edges (`_f3_step`), the weights give the chain indexed
    [T - j, T' - j, T'' - j, S], whose nonzeros fill the triangle
    S <= T'' - j exactly.
    """
    a = np.empty((m_max, m_max), dtype=_LONG)
    b = np.zeros((m_max, m_max, m_max), dtype=_LONG)
    for t in range(1, m_max + 1):
        for s in range(m_max):
            a[t - 1, s] = _LONG(comb(s + t - 1, s)) / _LONG(factorial(t))
    for tp in range(1, m_max + 1):
        for tpp in range(1, m_max + 1):
            base = _LONG(factorial(tp) * factorial(tpp))
            for s in range(tpp):
                b[tp - 1, tpp - 1, s] = _LONG(comb(tpp + tp - s - 2, tp - 1)) / base
    return a, b


def _conv(acc: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Full 2-D convolution of an F4 DP table with an edge table.

    One shifted add of w * acc per nonzero edge weight w, in `np.argwhere`
    order.
    """
    out = np.zeros(tuple(x + y - 1 for x, y in zip(acc.shape, edge.shape)), dtype=_LONG)
    for t, u in np.argwhere(edge):
        window = out[t : t + acc.shape[0], u : u + acc.shape[1]]
        window += edge[t, u] * acc
    return out


def _f3_step(planes: list, edge: tuple) -> list:
    """The F3 chain one edge longer: convolve its T'' planes with the edge weights.

    The chain of j edges is held as one block per T'' plane q = T'' - j,
    indexed [T - j, T' - j, S] with S <= q: shape (n, n, q + 1) for
    n = j(m_max-1)+1, so every stored cell is a positive mass (`_f3_cells`).
    The weight factors as a[t, s] * b[t', t'', s] (`_f3_edge_tensor`), so for
    each input plane q and each s the T-axis convolution of plane q with
    a[:, s] is taken once, m shifted adds into one (n+m-1, n, q+1) buffer;
    then b[t', t'', s] times that buffer is added into output plane q + t''
    at offset (t', s), for every t'' >= s.  That is m (m + m(m+1)/2) shifted
    adds per plane instead of one per nonzero weight, m^3 (m+1)/2.

    The output planes are split into contiguous ranges of about equal work,
    one per `worker_count()` thread.  Each thread walks the same (q, s, t'',
    t') order, skipping output planes outside its range, and builds each
    buffer it needs itself, so every block has the same bits whatever the
    thread count.  Blocks and buffers are stored first axis fastest, so the
    strided adds run along the full T range instead of the short S rows; the
    layout changes no value.
    """
    a, b = edge
    m = a.shape[0]
    n = len(planes)
    size = n + m - 1
    out = [np.zeros((size, size, p + 1), dtype=_LONG, order="F") for p in range(size)]
    # work of output plane p, in units of m n (q + 1) cells: from input plane
    # q = p - t'' it takes t'' + 1 buffers s <= t'', m adds of size n (q + 1)
    # cells each, and the m adds of n^2 (q + 1) cells that make buffer s = t''
    q, tpp = np.indices((n, m))
    work = (q + 1) * ((tpp + 1) * size + n)
    cost = np.cumsum(np.bincount((q + tpp).ravel(), work.ravel(), minlength=size))
    parts = worker_count()
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts) + 1
    bounds = [0, *np.minimum(cuts, size).tolist(), size]

    def fill(bounds):
        lo, hi = bounds
        conv_buf = np.empty(size * n * n, dtype=_LONG)
        prod_buf = np.empty(size * n * n, dtype=_LONG)
        for q in range(max(lo - m + 1, 0), min(hi, n)):
            plane = planes[q]
            shape = (size, n, q + 1)
            conv = conv_buf[: size * n * (q + 1)].reshape(shape, order="F")
            prod = prod_buf[: size * n * (q + 1)].reshape(shape, order="F")
            small = prod_buf[: plane.size].reshape(plane.shape, order="F")  # free until prod
            for s in range(min(m, hi - q)):
                conv.fill(0)
                for t in range(m):
                    np.multiply(a[t, s], plane, out=small)
                    window = conv[t : t + n]
                    np.add(window, small, out=window)
                for tpp in range(max(s, lo - q), min(m, hi - q)):
                    target = out[q + tpp]
                    for tp in range(m):
                        np.multiply(b[tp, tpp, s], conv, out=prod)
                        window = target[:, tp : tp + n, s : s + q + 1]
                        np.add(window, prod, out=window)

    pool_map(fill, [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo])
    return out


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n in extended precision."""
    table = np.zeros(n + 1, dtype=_LONG)
    table[1:] = np.cumsum(np.log(np.arange(1, n + 1, dtype=_LONG)))
    return table


def _f3_collapse(planes: list, j: int) -> np.ndarray:
    """Inner-polynomial coefficient matrix c[a, b] of F3 block j (longdouble).

    `planes` is the j-edge positive chain, one block [T - j, T' - j, S] per
    T'' plane q = T'' - j with S <= q (`_f3_step`); this collapses it onto
    monomials, T outermost and S inner, reading the (T', T'') slice of each
    (T, S) from the planes q >= S.  The sign and 2-power depend only on
    a + b + j, so each c[a, b] is a purely positive group sum times
    (-2)^(a+b+j) -- no cancellation occurs until evaluation.
    """
    n = len(planes)  # T - j, T' - j, T'' - j and S all run below n
    size = 2 * n + j  # a = T + S < n + j + n; b = T' + T'' - S - j < 2n + j - 1
    mat = np.zeros((size, size), dtype=_LONG)
    lf = _log_factorials(2 * (n + j) + 2)
    tp_idx = np.arange(j, n + j)
    log_tp = lf[tp_idx - 1]
    # the (T', T'', S) cube of one T; cells with S > T'' - j are never read
    cube = np.empty((n, n, n), dtype=_LONG)
    for t_sum in range(j, n + j):
        for q, plane in enumerate(planes):
            cube[:, q, : q + 1] = plane[t_sum - j]
        for s_sum in range(n):
            plane = cube[:, s_sum:, s_sum]  # T'' - j >= S; every cell positive
            a = t_sum + s_sum
            b = tp_idx[:, None] + tp_idx[None, s_sum:] - s_sum - j  # >= j
            log_r = lf[t_sum - 1] + log_tp[:, None] + log_tp[None, s_sum:] - lf[a - 1] - lf[b - 1]
            np.add.at(mat[a], b.ravel(), np.exp(np.log(plane) + log_r).ravel())
    # fold in (-2)^(a+b+j) and the 2/j! front factor
    signs = np.power(_LONG(-2.0), np.arange(size, dtype=_LONG))
    mat *= np.outer(signs, signs) * (_LONG(-2.0) ** j * _LONG(2.0) / factorial(j))
    # the series is symmetric in (tau, tau'); enforce it against rounding
    return (mat + mat.T) / _LONG(2.0)


@lru_cache(maxsize=None)
def _f3_blocks(j_hi: int, m_max: int) -> tuple:
    """Coefficient matrices of F3 blocks 3..j_hi, from one walk of the chain.

    Each block aggregates the full component-capped sum: the j-edge chain
    (`_f3_step`), collapsed by `_f3_collapse` on the way up, so block j
    reuses the j-1 steps of the blocks below it.  The walk starts from the
    empty chain, one unit mass, and holds only the current chain: its T''
    planes, `_f3_cells(j, m_max)` cells in all.
    """
    if j_hi < 3:
        raise ValueError("F3 blocks start at j = 3")
    _require_cells(_f3_cells(j_hi, m_max), j_hi, m_max)
    edge = _f3_edge_tensor(m_max)
    planes = [np.ones((1, 1, 1), dtype=_LONG)]
    blocks = []
    for j in range(1, j_hi + 1):
        planes = _f3_step(planes, edge)
        if j >= 3:
            blocks.append(_f3_collapse(planes, j))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _f4_block_matrix(j: int, m_max: int) -> np.ndarray:
    """Half-bracket coefficient matrix c[a, b] of F4 block j (longdouble).

    The sum of `_f4_poly`, aggregated as positive masses: edges 2..j convolve
    onto the aggregate (T', T''), and the first edge adds its own (t', t'')
    per split index a = t''_1 - 1 - s.  The factorial weights follow per
    (a, T', T'') state; b = T' + T'' - j - a, so the sign (-2)^(T'+T'') is
    (-2)^(a+b+j), one per cell.
    """
    if j < 3:
        raise ValueError("F4 blocks start at j = 3")
    _require_cells(_f4_cells(j, m_max), j, m_max)
    fact = _factorials(2 * j * m_max)
    pair = np.zeros((m_max + 1, m_max + 1), dtype=_LONG)
    first = np.zeros((m_max, m_max + 1, m_max + 1), dtype=_LONG)
    for tp in range(1, m_max + 1):
        for tpp in range(1, m_max + 1):
            pair[tp, tpp] = _LONG(comb(tpp + tp - 2, tp - 1)) / (fact[tp] * fact[tpp])
            for s in range(tpp):
                first[tpp - 1 - s, tp, tpp] = _LONG(comb(s + tp - 1, s)) / (
                    fact[tpp - 1 - s] * fact[tp] * fact[tpp]
                )
    rest = np.ones((1, 1), dtype=_LONG)
    for _ in range(j - 1):
        rest = _conv(rest, pair)
    states = np.stack([_conv(rest, first[a]) for a in range(m_max)])
    t_idx = np.arange(states.shape[1])
    edge_fact = fact[np.maximum(t_idx - 1, 0)]
    states *= edge_fact[:, None] * edge_fact[None, :]
    a_idx, tp_idx, tpp_idx = np.nonzero(states)
    b_idx = tp_idx + tpp_idx - j - a_idx
    mat = np.zeros((m_max, 2 * j * m_max - j + 1), dtype=_LONG)
    np.add.at(mat, (a_idx, b_idx), states[a_idx, tp_idx, tpp_idx])
    a_grid, b_grid = np.indices(mat.shape)
    sign = _LONG(-2.0) ** (a_grid + b_grid + j)
    mat *= sign * (_LONG(2.0) / fact[j - 1]) / fact[np.maximum(b_grid - 1, 0)]
    return mat


def _block_sum(blocks, taus: np.ndarray, tau_ps: np.ndarray) -> np.ndarray:
    """sum_j V(taus) M_j V(tau_ps)^T, V(x) the powers x^0, x^1, ... sized to each M_j."""
    out = np.zeros((taus.size, tau_ps.size), dtype=_LONG)
    for mat in blocks:
        va = np.power.outer(taus.astype(_LONG), np.arange(mat.shape[0]))
        vb = np.power.outer(tau_ps.astype(_LONG), np.arange(mat.shape[1]))
        out += va @ mat @ vb.T
    return out


def _f3_grid(taus: np.ndarray, tau_ps: np.ndarray, j_max: int, m_max: int) -> np.ndarray:
    """F3 on taus x tau_ps from the blocks whose bound clears _BLOCK_FLOOR.

    Block j's leading term (tau tau')^j (tau + tau'), of magnitude 2^(3j+1)/j,
    is bounded at the grid maxima; the factor 100 absorbs the block's tail.
    """
    prod_max = float(np.max(taus) * np.max(tau_ps))
    sum_max = float(np.max(taus) + np.max(tau_ps))
    kept = []
    for j in range(3, j_max + 1):
        lead = 2.0 ** (3 * j + 1) / j
        if 100.0 * lead * prod_max**j * sum_max >= _BLOCK_FLOOR:
            kept.append(j)
    blocks = _f3_blocks(max(kept), m_max) if kept else ()
    inner = _block_sum([blocks[j - 3] for j in kept], taus, tau_ps)
    out = (taus[:, None] + tau_ps[None, :]) * inner
    return out.astype(float)


def _f4_grid(taus: np.ndarray, tau_ps: np.ndarray, j_max: int, m_max: int) -> np.ndarray:
    """F4 on taus x tau_ps from every block j = 3..j_max, both mirrored halves."""
    blocks = [_f4_block_matrix(j, m_max) for j in range(3, j_max + 1)]
    half = _block_sum(blocks, taus, tau_ps) * np.exp(-2.0 * taus.astype(_LONG))[:, None]
    mirrored = _block_sum(blocks, tau_ps, taus) * np.exp(-2.0 * tau_ps.astype(_LONG))[:, None]
    out = (taus[:, None] + tau_ps[None, :]) * (half + mirrored.T)
    return out.astype(float)


# the alternating two-variable series only converge on [0, 1]^2
_SERIES_UPPER = 1.0


def _on_distinct_grid(grid, lo, hi, trunc: Truncation) -> np.ndarray:
    """`grid` once on the distinct lo values x the distinct hi values, read at each pair."""
    los, row = np.unique(lo, return_inverse=True)
    his, col = np.unique(hi, return_inverse=True)
    return grid(los, his, trunc.j_max, trunc.m_max)[row, col]


def f3(tau, tau_p, trunc: Truncation = DEFAULT_TRUNCATION):
    """Third kernel component (triple-index alternating series), on [0,1]^2.

    Its series blocks are chosen once per call, at the largest lo and hi
    (`_f3_grid`); those an array call keeps beyond a scalar call's are below
    the 1e-9 omission floor (`_BLOCK_FLOOR`), so the two differ by no more.
    """
    return _pairwise(lambda lo, hi: _on_distinct_grid(_f3_grid, lo, hi, trunc), tau, tau_p, _SERIES_UPPER)


def f4(tau, tau_p, trunc: Truncation = DEFAULT_TRUNCATION):
    """Fourth kernel component (split-orbit series), on [0,1]^2."""
    return _pairwise(lambda lo, hi: _on_distinct_grid(_f4_grid, lo, hi, trunc), tau, tau_p, _SERIES_UPPER)


def f_total(tau, tau_p, trunc: Truncation = DEFAULT_TRUNCATION):
    """Full three-point kernel F = F1 + F2 + F3 + F4 on the series domain."""
    _pairwise(np.add, tau, tau_p, _SERIES_UPPER)  # refused outside it before F2 runs
    return f1(tau, tau_p) + f2(tau, tau_p, trunc) + f3(tau, tau_p, trunc) + f4(tau, tau_p, trunc)


def f_expansion(tau: float, tau_p: float) -> float:
    """Quadratic expansion of F near the origin."""
    return 2.0 - 6.0 * tau - 6.0 * tau_p + 16.0 * tau * tau_p + 8.0 * tau**2 + 8.0 * tau_p**2


# --------------------------------------------------------------- assembly --


def _f12_rule(quad_points: int, tau_cutoff: float):
    """Nodes and weights of the F1+F2 table: composite Gauss-Legendre on [0, tau_cutoff]."""
    return _gl_panels(quad_points, 0.0, tau_cutoff)


@lru_cache(maxsize=None)
def _f12_table(quad_points: int, tau_cutoff: float):
    """(nodes, weights, F1+F2 values) on the `_f12_rule` grid."""
    nodes, weights = _f12_rule(quad_points, tau_cutoff)
    grid = (nodes[:, None], nodes[None, :])
    return nodes, weights, f1(*grid) + _pairwise(partial(_f2_pairs, n=quad_points), *grid, np.inf)


def _f34_rule(j_max: int, m_max: int):
    """Nodes and weights of the F3+F4 table: one Gauss-Legendre panel on [0, 1].

    The alternating series for F3 and F4 are evaluated only for arguments up
    to 1, so their contribution to the double integral is cut at
    _SERIES_UPPER = 1 -- beyond that the truncated polynomials diverge
    rather than approximate anything.  The panel is sized by the polynomial
    degree of the truncated series rather than by `quad_points`: an n-point
    panel integrates polynomials of degree 2n-1 exactly, so the rule is
    converged by construction.
    """
    degree = 2 * j_max * m_max + 2
    return _gl_unit(max(64, degree // 2 + 4))


@lru_cache(maxsize=None)
def _f34_table(j_max: int, m_max: int):
    """(nodes, weights, F3+F4 values) on the `_f34_rule` grid.

    Tying the rule to `quad_points` would not add accuracy -- the series
    evaluation carries a floating-point noise floor of roughly 1e-19 times
    its alternating-term mass (worst near the (1,1) corner), and re-sampling
    the values on a different node set merely re-rolls that noise.
    Integrated, it is not small: at the default truncation, reordering the F3
    chain's sums alone once moved F3(1, 1) by 0.026 and r3_connected by up
    to 1.1e-4 (four points with |R3c| ~ 0.01-0.3).  Building the chain from
    the extended-precision factors of its edge weights (`_f3_edge_tensor`)
    instead of float64-rounded weights moved r3_connected by -1.2e-4,
    +3.4e-4 and +9.3e-5 at (x, y) = (0.5, 1), (1, 2) and (0.25, 0.5), while
    every chain cell now lies within a few ulps of the exact chain: the
    noise is the alternating reassembly's.  That 1e-4 is rounding only: F4
    is not converged in j, and taking it alone from j_max 6 to 8 moves
    r3_connected by 0.03-0.08 at five points.  Nor is it converged in m: F4
    at (m_max, j_max) = (14, 8) moves r3_connected by -0.135 at (0.5, 1) and
    -0.151 at (0.75, 1.5) (ROADMAP item 1).
    """
    nodes, weights = _f34_rule(j_max, m_max)
    values = _f3_grid(nodes, nodes, j_max, m_max) + _f4_grid(nodes, nodes, j_max, m_max)
    # The kernel is symmetric, so the antisymmetric part of the table is pure
    # cancellation noise; averaging with the transpose removes it.  Without
    # this, the noise breaks the relabeling symmetry of the triple transform.
    values = 0.5 * (values + values.T)
    return nodes, weights, values


def _cosine_transform(xs, ys, nodes, weights, table) -> np.ndarray:
    """The three cosine terms of the weighted double integral against `table`.

    With E_a = w * e^{2pi i a tau}, each term is Re(E_a F E_b^T) for (a, b) in
    {(y, y - x), (-x, y - x), (y, x)}: one P x n by n x n product for P points.
    """
    def phases(a):
        return weights * np.exp(2j * np.pi * np.multiply.outer(a.ravel(), nodes))

    total = np.zeros(xs.size)
    for a, b in ((ys, ys - xs), (-xs, ys - xs), (ys, xs)):
        total += np.sum((phases(a) @ table) * phases(b), axis=1).real
    return total.reshape(xs.shape)


def r3_connected(x, y, trunc: Truncation = DEFAULT_TRUNCATION, f12=None, f34=None):
    """Connected part of R3: double cosine transform of the kernel F.

    integral over (tau, tau') of [cos(2pi(y tau + (y-x) tau')) +
    cos(2pi(y tau' - x(tau+tau'))) + cos(2pi(y tau + x tau'))] * F(tau, tau').

    F1+F2 are integrated over [0, tau_cutoff]^2; the F3+F4 series over their
    validity square (see _f34_rule).  Array-first: scalar (x, y) return a
    float, broadcastable arrays an array of their broadcast shape.  `f12` /
    `f34` replace the cached kernel tables for surrogate checks; each maps
    (taus, tau_ps) to a value matrix on its table's rule, and a replaced
    table is not built.
    """
    xs, ys = _finite_pairs(x, y)
    total = np.zeros(xs.shape)
    parts = (
        (_f12_rule, _f12_table, (trunc.quad_points, trunc.tau_cutoff), f12),
        (_f34_rule, _f34_table, (trunc.j_max, trunc.m_max), f34),
    )
    for rule, table, cutoffs, hook in parts:
        nodes, weights = rule(*cutoffs)
        values = table(*cutoffs)[2] if hook is None else np.asarray(hook(nodes, nodes), dtype=float)
        total += _cosine_transform(xs, ys, nodes, weights, values)
    return float(total) if total.ndim == 0 else total


def r3_full(x, y, trunc: Truncation = DEFAULT_TRUNCATION, kernel=None, f12=None, f34=None):
    """Full three-point correlation R3(x, y).

    Assembled as R2(x) + R2(y) + R2(x - y) - 2 + connected part, with K at
    `_k_truncation(trunc)` in the R2 terms.  Array-first: scalar (x, y)
    return a float, broadcastable arrays an array of their broadcast shape.
    The surrogate hooks propagate to the building blocks (all-zero kernels
    give the Poisson answer 1 for every (x, y)).
    """
    xs, ys = _finite_pairs(x, y)
    r2_x, r2_y, r2_xy = r2_analytic(np.stack([xs, ys, xs - ys]), trunc, kernel=kernel)
    values = r2_x + r2_y + r2_xy - 2.0 + r3_connected(xs, ys, trunc, f12=f12, f34=f34)
    return float(values) if values.ndim == 0 else values
