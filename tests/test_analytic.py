"""Closed-form and series evaluators: kernels, form factor, correlations."""

import threading
import warnings
from fractions import Fraction
from math import factorial

import mpmath as mp
import numpy as np
import pytest

from star_spectra import (
    DEFAULT_TRUNCATION,
    QuadratureError,
    Truncation,
    bessel_ratio,
    c_coeff,
    dirichlet_moment,
    f1,
    f2,
    f3,
    f3_coefficients,
    f4,
    f4_coefficients,
    f_components,
    f_expansion,
    f_total,
    k_formfactor,
    r2_analytic,
    r3_connected,
    r3_full,
)
from star_spectra import analytic
from star_spectra.analytic import (
    _c_row,
    _conv,
    _f2_rows,
    _f2_square,
    _f3_blocks,
    _f3_collapse,
    _f3_edge_tensor,
    _f4_block_matrix,
    _f4_poly,
    _f12_table,
    _f34_table,
    _gl_panels,
    _k_poly,
)

# blocks of the two-variable series start at j = 3, so this cutoff keeps
# exactly the first block -- handy for pinning single-block values
SMALL = Truncation(j_max=3, m_max=8)


# ----------------------------------------------------------------- Bessel --


def test_bessel_ratio_at_zero_is_two():
    assert bessel_ratio(0.0) == 2.0


def test_bessel_ratio_matches_high_precision_reference():
    mp.mp.dps = 30
    for x in (1e-8, 0.01, 0.25, 1.0, 4.0, 16.0):
        want = float(mp.besseli(1, 4 * mp.sqrt(x)) / mp.sqrt(x))
        assert bessel_ratio(x) == pytest.approx(want, rel=1e-13)


def test_bessel_ratio_pinned_values():
    assert bessel_ratio(0.01) == pytest.approx(2.040267557335706, rel=1e-14)
    assert bessel_ratio(1.0) == pytest.approx(9.75946515370445, rel=1e-14)


def test_bessel_ratio_vectorizes():
    xs = np.array([0.0, 0.01, 1.0])
    vals = bessel_ratio(xs)
    assert vals.shape == xs.shape
    assert vals[0] == 2.0
    assert vals[2] == pytest.approx(9.75946515370445, rel=1e-14)


def _bessel_64_terms(x):
    arr = np.asarray(x, dtype=float)
    z = 4.0 * arr
    term = np.full_like(arr, 2.0)
    total = term.copy()
    for k in range(1, 64):
        term = term * z / (k * (k + 1))
        total += term
    return total


def test_bessel_ratio_early_exit_keeps_the_full_series_bits():
    # the sum may stop once later terms cannot change it; the result must be
    # the bits of all 64 terms, on nonnegative and on (alternating) negative
    # arguments, for arrays, 0-d arrays and scalars
    rng = np.random.default_rng(17)
    grids = [
        np.linspace(0.0, 100.0, 2001),
        rng.uniform(0.0, 100.0, (7, 9)),
        rng.uniform(0.0, 1e-3, 50),
        np.array([0.0, 100.0]),
        np.array([3.7]),
    ]
    for xs in grids:
        assert np.array_equal(bessel_ratio(xs), _bessel_64_terms(xs))
        assert np.array_equal(bessel_ratio(-xs), _bessel_64_terms(-xs))
    mixed = np.array([-2.0, 0.5, 40.0])
    assert np.array_equal(bessel_ratio(mixed), _bessel_64_terms(mixed))
    for x in (0.0, 1e-8, 0.37, 16.0, 99.5, 100.0, -0.37, -16.0):
        want = float(_bessel_64_terms(x))
        assert bessel_ratio(x) == want
        assert bessel_ratio(np.array(x)) == want
        assert isinstance(bessel_ratio(np.array(x)), float)


def test_bessel_ratio_refuses_arguments_beyond_its_convergence():
    # the 64-term series converges up to x = 100 (at 400 it is off by ~3e-7,
    # at 900 by 22%); 100 itself stays in range
    mp.mp.dps = 30
    want = float(mp.besseli(1, 40) / 10)
    assert bessel_ratio(100.0) == pytest.approx(want, rel=1e-13)
    assert bessel_ratio(np.array([0.0, 100.0]))[1] == bessel_ratio(100.0)
    for bad in (np.nextafter(100.0, np.inf), 400.0, np.array([1.0, 900.0])):
        with pytest.raises(ValueError, match="exceeds 100"):
            bessel_ratio(bad)
    # F2 takes B at up to (tau + tau')^2 / 4
    assert np.isfinite(f2(9.9, 10.0))
    with pytest.raises(ValueError, match="exceeds 100"):
        f2(12.0, 9.0)


def test_bessel_linear_expansion_bound():
    xs = np.linspace(0.0, 0.1, 100)
    err = np.abs(bessel_ratio(xs) - (2.0 + 4.0 * xs))
    assert np.all(err <= 3.0 * xs**2)


# --------------------------------------------------- form factor and its C --


def test_block_count_coefficients_exact_values():
    assert c_coeff(2, 0) == 1
    assert c_coeff(3, 0) == 2
    assert c_coeff(4, 0) == 6
    assert c_coeff(2, 1) == Fraction(-4)
    assert c_coeff(2, 2) == Fraction(26, 3)
    with pytest.raises(ValueError):
        c_coeff(1, 0)
    with pytest.raises(ValueError):
        c_coeff(2, -1)


def _exact_k_poly(trunc):
    """Exact K-polynomial coefficients and their cross-j masses sum_j |term|."""
    size = trunc.m_max + trunc.j_max + 2
    exact, mass = [Fraction(0)] * size, [Fraction(0)] * size
    for j in range(2, trunc.j_max + 1):
        row = _c_row(j, trunc.m_max)
        for m in range(trunc.m_max + 1):
            term = Fraction(4**j, factorial(j)) * row[m]
            exact[m + j + 1] += term
            mass[m + j + 1] += abs(term)
    return exact, mass


@pytest.mark.parametrize("trunc", [Truncation(j_max=8, m_max=20), Truncation(j_max=12, m_max=24)])
def test_k_poly_matches_exact_coefficients(trunc):
    # The float table must be the exact sum over j up to its precision: 2 ulp
    # of the float64 result, plus the extended-precision rounding of the
    # terms that cancel across j (the low powers cancel up to ~3e6-fold).
    eps_long = float(np.finfo(np.longdouble).eps)
    coeffs = _k_poly(trunc.j_max, trunc.m_max)
    exact, mass = _exact_k_poly(trunc)
    assert len(coeffs) == len(exact)
    for got, want, scale in zip(coeffs, exact, mass):
        tol = 2.0 * float(np.spacing(abs(float(want)))) + 4.0 * eps_long * float(scale)
        assert abs(Fraction(float(got)) - want) <= tol
    # K(1/2) against the exact polynomial, within the rounding bound of a
    # float64 Horner evaluation plus the coefficient tolerance above
    half = Fraction(1, 2)
    poly = sum(c * half**p for p, c in enumerate(exact))
    weight = sum((abs(float(c)) + 4.0 * eps_long * float(w)) * 0.5**p for p, (c, w) in enumerate(zip(exact, mass)))
    tol = 2.0 * len(exact) * np.finfo(float).eps * weight
    assert abs(k_formfactor(0.5, trunc) - np.exp(-2.0) - float(poly)) <= tol


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(j_max=0)
    with pytest.raises(ValueError):
        Truncation(m_max=0)
    with pytest.raises(ValueError):
        Truncation(quad_points=1)
    for cutoff in (2.5, 10.5):
        with pytest.raises(ValueError, match="tau_cutoff"):
            Truncation(tau_cutoff=cutoff)
    Truncation(tau_cutoff=10.0)  # the table's largest Bessel argument is then 100
    for field, bad in (
        ("j_max", 2.5),
        ("j_max", 3.0),
        ("m_max", True),
        ("m_max", "8"),
        ("quad_points", 16.0),
        ("quad_points", np.int64(16)),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            Truncation(**{field: bad})
    assert DEFAULT_TRUNCATION.degree_cap == 16


def test_nonfinite_arguments_are_rejected():
    for cutoff in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau_cutoff must be finite"):
            Truncation(tau_cutoff=cutoff)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            k_formfactor(bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            k_formfactor(np.array([0.1, bad]))
        with pytest.raises(ValueError, match="x must be finite"):
            r2_analytic(bad)
        with pytest.raises(ValueError, match="x must be finite"):
            r2_analytic(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="x and y must be finite"):
            r3_full(bad, 1.0)
        with pytest.raises(ValueError, match="x and y must be finite"):
            r3_full(1.0, bad)
        # refused before any quadrature runs, so without numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((0.1, bad), (bad, 0.1), (bad, bad)):
                with pytest.raises(ValueError, match="tau and tau_p must be finite"):
                    f2(*args)


def test_quad_points_are_never_rounded():
    # above 16 the composite rule is built from panels of 16, so only
    # multiples of 16 give a rule (and a 2n-point refinement) of the size asked
    for bad in (28, 50):
        with pytest.raises(ValueError):
            Truncation(quad_points=bad)
    for good in (2, 16, 32, 64, 128):
        Truncation(quad_points=good)
        assert len(_gl_panels(good, 0.0, 1.0)[0]) == good
        assert len(_gl_panels(2 * good, 0.0, 1.0)[0]) == 2 * good


def test_form_factor_endpoint_exact():
    assert k_formfactor(0.0) == 1.0


def test_form_factor_near_zero_band():
    val = k_formfactor(1e-6)
    assert 1.0 - 5e-6 <= val <= 1.0


def test_form_factor_pinned_value():
    assert k_formfactor(0.1) == pytest.approx(0.6772900691531757, rel=1e-13)


def test_form_factor_initial_decay():
    taus = np.linspace(0.0, 0.25, 11)
    vals = [k_formfactor(float(t)) for t in taus]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_form_factor_deep_truncation_consistency():
    # the power-sum tail at the domain edge is exhausted by m_max = 45; one
    # rung below that the tail is visible but already small
    deep = k_formfactor(0.5, Truncation(j_max=6, m_max=45))
    deeper = k_formfactor(0.5, Truncation(j_max=6, m_max=60))
    assert deep == pytest.approx(deeper, abs=1e-12)
    shallow = k_formfactor(0.5, Truncation(j_max=6, m_max=30))
    assert abs(shallow - deep) < 1e-5


def test_form_factor_domain_limits():
    with pytest.raises(ValueError):
        k_formfactor(0.51)
    with pytest.raises(ValueError):
        k_formfactor(-0.1)


def test_form_factor_and_r2_broadcast_bitwise():
    rng = np.random.default_rng(5)
    taus = rng.uniform(0.0, 0.5, 40)
    assert np.array_equal(k_formfactor(taus), [k_formfactor(float(t)) for t in taus])
    xs = rng.uniform(-3.0, 3.0, (4, 5))
    want = [[r2_analytic(float(x)) for x in row] for row in xs]
    assert np.array_equal(r2_analytic(xs), want)
    assert isinstance(k_formfactor(0.1), float)
    assert isinstance(r2_analytic(0.1), float)
    for bad in (0.51, -0.1):
        with pytest.raises(ValueError):
            k_formfactor(np.array([0.0, 0.2, bad, 0.3]))


# ------------------------------------------------- two-point correlation --


def test_r2_zero_kernel_gives_poisson_baseline():
    for x in (0.0, 0.5, 1.3):
        assert r2_analytic(x, kernel=lambda t: np.zeros_like(t)) == 1.0


def test_r2_unit_kernel_matches_closed_form():
    # with K == 1 on [0, 1/2] the transform is 1 + sin(pi x)/(pi x)
    for x in (0.0, 0.5, 1.0, 1.7, -0.8):
        want = 1.0 + np.sinc(x)
        got = r2_analytic(x, kernel=lambda t: np.ones_like(t))
        assert got == pytest.approx(want, abs=1e-12)


def test_r2_kernel_scaling_is_linear():
    unit = r2_analytic(0.7, kernel=lambda t: np.ones_like(t))
    scaled = r2_analytic(0.7, kernel=lambda t: 2.5 * np.ones_like(t))
    assert scaled - 1.0 == pytest.approx(2.5 * (unit - 1.0), rel=1e-12)


def test_r2_with_converged_kernel_is_nonnegative():
    # the (12, 60) form factor converges up to tau = 1/2, so R2 stays a
    # density; the default (6, 8) one does not (R2(1) = -12.47), so R2 takes
    # K at no less than (12, 60) from any truncation
    for trunc in (Truncation(j_max=12, m_max=60), DEFAULT_TRUNCATION):
        values = r2_analytic(np.linspace(0.0, 3.0, 61), trunc)
        assert values.min() >= 0.0


def test_r2_is_even_in_the_gap():
    assert r2_analytic(0.7) == pytest.approx(r2_analytic(-0.7), rel=1e-14)


# --------------------------------------------------------- kernel F pieces --


def test_f1_closed_form():
    rng = np.random.default_rng(3)
    for tau, tau_p in rng.random((10, 2)) * 2.0:
        assert f1(tau, tau_p) == pytest.approx(
            2.0 * np.exp(-4.0 * (tau + tau_p)), rel=1e-15
        )


def test_f1_plus_f2_pinned_values():
    pins = {
        (0.01, 0.0): 1.940825414399498,
        (0.05, 0.05): 1.4861723998107899,
        (0.1, 0.0): 1.496297821988017,
        (0.03, 0.02): 1.7211386428060458,
    }
    for (tau, tau_p), want in pins.items():
        assert f1(tau, tau_p) + f2(tau, tau_p) == pytest.approx(want, rel=1e-10)


def _f2_bracket_full_grid(tau, tau_ps, n):
    """The F2 bracket with J2 summed over the whole n x n grid.

    The package sums J2 over half the grid, using the integrand's mirror
    symmetry; this is the plain double sum it must agree with.
    """
    u, w = _gl_panels(n, 0.0, 1.0)
    s = tau + tau_ps
    q = tau_ps[:, None] * u[None, :]
    jp = tau_ps * np.sum(
        w[None, :] * bessel_ratio(q * (s[:, None] - q)) * bessel_ratio(q * (tau_ps[:, None] - q)),
        axis=1,
    )
    q1 = tau * u
    jt = tau * np.sum(
        w[None, :] * bessel_ratio(q1[None, :] * (s[:, None] - q1[None, :]))
        * bessel_ratio(q1 * (tau - q1))[None, :],
        axis=1,
    )
    qq = q1[:, None] + tau_ps[:, None, None] * u[None, None, :]
    inner = (
        bessel_ratio(qq * (s[:, None, None] - qq))
        * bessel_ratio(q1 * (tau - q1))[None, :, None]
        * bessel_ratio(q * (tau_ps[:, None] - q))[:, None, :]
    )
    j2 = tau * tau_ps * np.einsum("i,j,mij->m", w, w, inner)
    return bessel_ratio(tau * tau_ps) + 8.0 * (tau_ps * jp + tau * jt + tau * tau_ps * j2)


@pytest.mark.parametrize("n", [2, 3, 5, 15, 16, 64, 128])
def test_f2_half_grid_matches_the_full_double_sum(n):
    # odd n has a middle column, counted once; every other column twice
    rng = np.random.default_rng(1500 + n)
    tau_ps = np.concatenate(([0.0, 1.3, 4.0], rng.uniform(0.0, 4.0, 6)))
    for tau in (0.0, 1.3, 4.0, *rng.uniform(0.0, 4.0, 3)):
        got = analytic._f2_bracket_rows(tau, tau_ps, n)
        want = _f2_bracket_full_grid(tau, tau_ps, n)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_f2_swap_symmetric_exactly():
    assert f2(0.3, 0.7) == f2(0.7, 0.3)
    assert f2(0.05, 0.6) == f2(0.6, 0.05)


def test_f2_refinement_guard_fires_on_coarse_rule(monkeypatch):
    # at large arguments the integrand is too steep for a 2-point rule, so
    # the coarse/fine disagreement must surface as an error, not a value
    coarse = Truncation(j_max=2, m_max=2, quad_points=2)
    with pytest.raises(QuadratureError):
        f2(3.5, 3.9, coarse)
    # the same through the table build: rows cut into chunks of 2 columns
    # (2n x n evaluated cells each), run on two threads, each row checked whole
    monkeypatch.setenv("STAR_SPECTRA_THREADS", "2")
    monkeypatch.setattr(analytic, "_F2_TASK_CELLS", 2 * 2 * coarse.quad_points**2)
    threads = threading.active_count()
    with pytest.raises(QuadratureError):
        _f2_square(_gl_panels(16, 0.0, 4.0)[0], coarse.quad_points)
    assert threading.active_count() == threads


def test_f3_f4_pinned_first_block_values():
    assert f3(0.3, 0.3, SMALL) == pytest.approx(-0.0056426592840928816, rel=1e-9)
    assert f4(0.3, 0.3, SMALL) == pytest.approx(0.18566712433345453, rel=1e-9)
    assert f3(0.5, 0.5, SMALL) == pytest.approx(-0.03176106153870295, rel=1e-9)
    assert f4(0.7, 0.7, SMALL) == pytest.approx(0.14352475889446897, rel=1e-9)


def test_f3_f4_swap_exactly_symmetric():
    for a, b in ((0.2, 0.9), (0.05, 0.55), (1.0, 0.3)):
        assert f3(a, b, SMALL) == f3(b, a, SMALL)
        assert f4(a, b, SMALL) == f4(b, a, SMALL)


def test_series_domain_enforced():
    for bad in ((1.2, 0.5), (0.5, 1.2), (-0.1, 0.0), (0.0, -0.2)):
        for fn in (f3, f4, f_total):
            with pytest.raises(ValueError):
                fn(*bad)


def _poly_eval(coeffs, a, b):
    return float(sum(c * Fraction(a) ** i * Fraction(b) ** k for (i, k), c in coeffs.items()))


def test_engine_matches_exact_rational_coefficients():
    # The extended-precision convolution engine must reproduce the exact
    # rational coefficient table cell for cell.  The table is windowed to
    # total degree 2*m_max; the engine keeps all orders, so every extra
    # engine cell has to sit strictly beyond that window, and the inner
    # polynomial carries no tau'^0 column.
    mat3 = _f3_blocks(3, SMALL.m_max)[0]
    coeffs3 = f3_coefficients(3, SMALL)
    assert coeffs3
    for (a, b), frac in coeffs3.items():
        assert float(mat3[a, b]) == pytest.approx(float(frac), rel=5e-15)
    assert np.abs(mat3[:, 0]).max() == 0.0
    extras = {
        (a, b)
        for a in range(mat3.shape[0])
        for b in range(mat3.shape[1])
        if mat3[a, b] != 0 and (a, b) not in coeffs3
    }
    assert min(a + b for a, b in extras) == SMALL.degree_cap + 1

    # the half-bracket table is the full polynomial, so the assembled value
    # is a direct evaluation of the fractions
    mat4 = _f4_block_matrix(3, SMALL.m_max)
    coeffs4 = f4_coefficients(3, SMALL)
    assert coeffs4
    for (a, b), frac in coeffs4.items():
        assert float(mat4[a, b]) == pytest.approx(float(frac), rel=5e-15, abs=1e-300)
    for tau, tau_p in ((0.15, 0.1), (0.25, 0.2)):
        lo, hi = sorted((tau, tau_p))
        want4 = (lo + hi) * (
            np.exp(-2.0 * lo) * _poly_eval(coeffs4, lo, hi)
            + np.exp(-2.0 * hi) * _poly_eval(coeffs4, hi, lo)
        )
        assert f4(tau, tau_p, SMALL) == pytest.approx(want4, rel=1e-10)

    # point check of the assembled triple series: below the degree window the
    # fraction table explains the engine value up to the tail of degree-17+
    # terms, which at tau + tau' = 0.25 stays under 1e-8
    want3 = 0.25 * _poly_eval(coeffs3, 0.1, 0.15)
    assert f3(0.1, 0.15, SMALL) == pytest.approx(want3, abs=1e-8)


@pytest.mark.parametrize("j", [3, 4])
def test_f4_engine_matches_exact_coefficients(j):
    # the extended-precision DP and the exact Fraction DP aggregate the same
    # sum independently; they must agree cell for cell
    mat = _f4_block_matrix(j, SMALL.m_max)
    coeffs = f4_coefficients(j, SMALL)
    assert {(int(a), int(b)) for a, b in zip(*np.nonzero(mat))} == set(coeffs)
    for (a, b), frac in coeffs.items():
        assert abs(Fraction(*mat[a, b].as_integer_ratio()) / frac - 1) <= 1e-16


def test_f3_blocks_equal_independently_walked_chains():
    # one walk of the chain must give each block the bits of its own walk
    m_max = 4
    edge = _f3_edge_tensor(m_max)
    blocks = _f3_blocks(5, m_max)
    assert len(blocks) == 3
    for j, block in zip((3, 4, 5), blocks):
        acc = edge.copy()
        for _ in range(j - 1):
            acc = _conv(acc, edge)
        assert np.array_equal(block, _f3_collapse(acc, j))


def _dense_conv(acc, edge):
    # the plain loop: one shifted add of w * acc per nonzero edge weight
    out = np.zeros(tuple(x + y - 1 for x, y in zip(acc.shape, edge.shape)), dtype=np.longdouble)
    for idx in np.argwhere(edge):
        out[tuple(slice(i, i + n) for i, n in zip(idx, acc.shape))] += edge[tuple(idx)] * acc
    return out


def _recorded_conv_inputs(monkeypatch, build, *args):
    """(acc, edge) of every `_conv` call an uncached table build makes."""
    calls = []

    def recording(acc, edge):
        calls.append((acc, edge))
        return _conv(acc, edge)

    monkeypatch.setattr(analytic, "_conv", recording)
    build.__wrapped__(*args)
    monkeypatch.undo()
    return calls


def _boxed(shape, box, seed):
    # positive random masses inside `box`, exact zeros outside it
    rng = np.random.default_rng(seed)
    acc = np.zeros(shape, dtype=np.longdouble)
    acc[box] = rng.random(acc[box].shape).astype(np.longdouble) + 0.5
    return acc


def test_support_conv_equals_dense_loop(monkeypatch):
    f3_steps = _recorded_conv_inputs(monkeypatch, _f3_blocks, 5, 4)
    f4_steps = _recorded_conv_inputs(monkeypatch, _f4_block_matrix, 4, 8)
    assert len(f3_steps) == 4 and len(f4_steps) == 3 + 8
    edge4 = _f3_edge_tensor(3)
    edge2 = _boxed((3, 4), np.s_[:, 1:], 7)
    edge2[1, 2] = 0.0
    interior = [
        # nonzeros in an interior box; slabs along the band axis are empty
        (_boxed((6, 7, 11, 5), np.s_[2:4, 3:6, 5:8, 1:3], 1), edge4),
        (_boxed((5, 4, 9, 6), np.s_[1:5, 0:2, 4:5, 2:6], 2), edge4),
        (_boxed((9, 10), np.s_[3:6, 4:7], 3), edge2),
    ]
    for threads in ("1", "2"):
        monkeypatch.setenv("STAR_SPECTRA_THREADS", threads)
        for acc, edge in f3_steps + f4_steps + interior:
            assert np.array_equal(_conv(acc, edge), _dense_conv(acc, edge))
    for shape, edge in (((5, 6, 7, 4), edge4), ((4, 5), edge2)):
        got = _conv(np.zeros(shape, dtype=np.longdouble), edge)
        assert got.shape == tuple(x + y - 1 for x, y in zip(shape, edge.shape))
        assert got.dtype == np.longdouble and not got.any()


def test_tables_are_bitwise_independent_of_the_thread_count(monkeypatch):
    # longdouble tables are compared by value: the padding bytes of an x87
    # longdouble are not part of the value and may differ between copies
    nodes = _gl_panels(16, 0.0, 4.0)[0]
    trunc = Truncation(j_max=3, m_max=2, quad_points=16)
    old_loop = np.empty((nodes.size, nodes.size))
    for i, tau in enumerate(nodes):
        old_loop[i, i:] = _f2_rows(float(tau), nodes[i:], trunc.quad_points)
        old_loop[i:, i] = old_loop[i, i:]
    threads = threading.active_count()
    for count in ("1", "2", "3"):
        monkeypatch.setenv("STAR_SPECTRA_THREADS", count)
        f3_blocks = _f3_blocks.__wrapped__(5, 4)
        assert len(f3_blocks) == 3
        for got, want in zip(f3_blocks, _f3_blocks(5, 4)):
            assert np.array_equal(got, want)
        assert np.array_equal(_f4_block_matrix.__wrapped__(4, 8), _f4_block_matrix(4, 8))
        assert np.array_equal(_f2_square(nodes, trunc.quad_points), old_loop)
        # rows cut into chunks of 3 columns (2n x n evaluated cells each)
        monkeypatch.setattr(analytic, "_F2_TASK_CELLS", 3 * 2 * trunc.quad_points**2)
        assert np.array_equal(_f2_square(nodes, trunc.quad_points), old_loop)
        monkeypatch.undo()
        assert threading.active_count() == threads


def test_oversized_series_tables_raise_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("a table build started")

    monkeypatch.setattr(analytic, "_f3_edge_tensor", never)
    monkeypatch.setattr(analytic, "_factorials", never)
    with pytest.raises(QuadratureError):
        _f3_blocks(12, 8)
    with pytest.raises(QuadratureError):
        _f4_block_matrix(400, 8)
    with pytest.raises(QuadratureError):
        _f4_poly(400, 8)


def test_block_series_increments_shrink_inside_unit_square():
    pt = (0.3, 0.3)
    vals = [
        f3(*pt, Truncation(j_max=j)) + f4(*pt, Truncation(j_max=j))
        for j in (3, 4, 5, 6)
    ]
    inc = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert inc[1] < 0.8 * inc[0]
    assert inc[2] < 0.8 * inc[1]


# ------------------------------------------------------- assembled kernel --


def test_assembled_kernel_at_origin_is_exactly_two():
    assert f_total(0.0, 0.0) == 2.0


def test_assembled_kernel_pinned_values():
    assert f_total(0.02, 0.02) == pytest.approx(1.773458317294841, rel=1e-9)
    assert f_total(0.1, 0.0) == pytest.approx(1.5067425206147018, rel=1e-9)


def test_components_sum_to_total():
    for tau, tau_p in ((0.1, 0.2), (0.4, 0.05)):
        parts = (
            f1(tau, tau_p)
            + f2(tau, tau_p)
            + f3(tau, tau_p)
            + f4(tau, tau_p)
        )
        assert f_total(tau, tau_p) == pytest.approx(parts, rel=1e-14)


def test_kernel_grids_match_scalar_views():
    # the small grid is where a per-grid choice of F4 blocks would differ
    # from the per-point one
    for taus, trunc in (
        (np.linspace(0.0, 1.0, 6), SMALL),
        (np.array([0.0, 0.001, 0.002]), DEFAULT_TRUNCATION),
    ):
        grids = f_components(taus, trunc)
        views = (
            f1,
            lambda a, b: f2(a, b, trunc),
            lambda a, b: f3(a, b, trunc),
            lambda a, b: f4(a, b, trunc),
        )
        want = [np.array([[fn(a, b) for b in taus] for a in taus]) for fn in views]
        assert np.array_equal(grids[0], want[0])
        assert np.array_equal(grids[1], want[1])
        assert np.abs(grids[2] - want[2]).max() <= 1e-9
        assert np.array_equal(grids[2], grids[2].T)
        assert np.array_equal(grids[3], want[3])
    for bad in ([0.5, 0.2], [0.0, 1.2], [-0.1, 0.3]):
        with pytest.raises(ValueError):
            f_components(bad, SMALL)


def test_expansion_polynomial_definition():
    rng = np.random.default_rng(8)
    for tau, tau_p in rng.random((5, 2)) * 0.3:
        want = (
            2.0
            - 6.0 * tau
            - 6.0 * tau_p
            + 16.0 * tau * tau_p
            + 8.0 * tau**2
            + 8.0 * tau_p**2
        )
        assert f_expansion(tau, tau_p) == pytest.approx(want, rel=1e-15)


def test_simplex_moments_exact_values():
    assert dirichlet_moment((1, 1), 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert dirichlet_moment((2, 0), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert dirichlet_moment((1, 1, 1), 2.0) == pytest.approx(4.0 / 15.0, rel=1e-15)
    with pytest.raises(ValueError):
        dirichlet_moment((1,), 1.0)
    with pytest.raises(ValueError):
        dirichlet_moment((1, -1), 1.0)
    with pytest.raises(ValueError, match="exponents must be ints"):
        dirichlet_moment((1.5, 1), 1.0)


# --------------------------------------------------- three-point assembly --


def test_doubling_quadrature_leaves_f2_and_r3_stable():
    doubled = Truncation(quad_points=128)
    for tau, tau_p in ((0.1, 0.05), (0.3, 0.2), (0.7, 0.4)):
        assert abs(f2(tau, tau_p, doubled) - f2(tau, tau_p)) < 1e-7
    for x, y in ((0.25, 0.5), (0.5, 1.0)):
        assert abs(r3_connected(x, y, doubled) - r3_connected(x, y)) < 1e-7


def test_r3_connected_pinned_values():
    assert r3_connected(0.5, 1.0) == pytest.approx(-0.267997534511, abs=2e-9)
    assert r3_connected(1.0, 2.0) == pytest.approx(-0.009909379941, abs=2e-9)
    assert r3_connected(0.25, 0.5) == pytest.approx(-0.290643502908, abs=2e-9)


def test_r3_full_takes_arrays():
    trunc = Truncation(j_max=3, m_max=4, quad_points=32)
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(-2.5, 2.5, (2, 4, 5))

    def pointwise(a, b):
        a, b = np.broadcast_arrays(a, b)
        values = [r3_full(float(p), float(q), trunc) for p, q in zip(a.flat, b.flat)]
        return np.reshape(values, a.shape)

    for a, b in ((xs, ys), (xs[:, :1], ys[0]), (xs, 0.7), (0.3, ys[0])):
        got = r3_full(a, b, trunc)
        assert got.shape == np.broadcast(a, b).shape
        assert np.max(np.abs(got - pointwise(a, b))) <= 1e-13
    assert isinstance(r3_full(0.5, 1.0, trunc), float)
    assert isinstance(r3_connected(0.5, 1.0, trunc), float)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x and y must be finite"):
            r3_full(np.where(xs > 2.0, bad, xs), ys, trunc)


def test_tables_are_cached_on_the_cutoffs_they_read():
    # keys used by no other test, so the first call at each is a build
    def builds(table, truncations, evaluate):
        before = table.cache_info().misses
        for trunc in truncations:
            evaluate(trunc)
        return table.cache_info().misses - before

    def r3c(trunc):
        return r3_connected(0.5, 1.0, trunc)

    # F1+F2 read (quad_points, tau_cutoff), F3+F4 and K read (j_max, m_max)
    by_j = [Truncation(j_max=j, m_max=2, quad_points=16, tau_cutoff=3.5) for j in (2, 3)]
    assert builds(_f12_table, by_j, r3c) == 1
    by_quad = [Truncation(j_max=3, m_max=3, quad_points=q, tau_cutoff=3.5) for q in (16, 32)]
    assert builds(_f34_table, by_quad, r3c) == 1
    by_quad = [Truncation(j_max=7, m_max=9, quad_points=q) for q in (16, 32)]
    assert builds(_k_poly, by_quad, lambda trunc: k_formfactor(0.1, trunc)) == 1


def test_r3_connected_matches_the_direct_cosine_sum():
    # reference: the three cosines summed over the quadrature grid one by one
    trunc = Truncation(j_max=3, m_max=4, quad_points=32)
    for x, y in ((0.5, 1.0), (-1.3, 0.4), (2.2, 2.9)):
        want = 0.0
        for nodes, weights, table in (_f12_table(trunc.quad_points, trunc.tau_cutoff), _f34_table(trunc.j_max, trunc.m_max)):
            tt, pp = np.meshgrid(nodes, nodes, indexing="ij")
            cosines = (
                np.cos(2 * np.pi * (y * tt + (y - x) * pp))
                + np.cos(2 * np.pi * (y * pp - x * (tt + pp)))
                + np.cos(2 * np.pi * (y * tt + x * pp))
            )
            want += float(np.sum(np.outer(weights, weights) * cosines * table))
        assert r3_connected(x, y, trunc) == pytest.approx(want, abs=1e-13)


def test_r3_full_zero_kernels_give_poisson_product():
    def zero(t):
        return np.zeros_like(t)

    def zero2(a, b):
        return np.zeros((len(a), len(b)))

    for x, y in ((0.4, 0.9), (1.1, 2.0)):
        val = r3_full(x, y, kernel=zero, f12=zero2, f34=zero2)
        assert val == pytest.approx(1.0, abs=1e-15)
