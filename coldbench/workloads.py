"""The benchmark workloads: inputs from a seed, one timed round, the checks.

A workload object is built during set-up.  `run_round()` is the timed
work; `reset()` runs between rounds, outside the timing; `check(results)`
runs after the timed section and returns ``(failed_ops, messages)`` over
the operations of all rounds.  `traced_layers(tracer)` names the entry
points a traced run wraps, and `counts(results)` gives the layer counts a
traced run reports.  Every call into the package goes through its module
attributes, so a traced run's wrappers see it.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

import checks
from star_spectra import analytic, empirical, graph, orbits, spectrum, trace

# Criterion-11 ensemble size: v = 100 edges, levels up to lambda = 400.
ENSEMBLE_V = 100
ENSEMBLE_LAMBDA = 400.0
KERNEL_WIDTH = 0.08


def clear_package_caches() -> None:
    """Drop every lru_cache in the package, so the next round builds cold."""
    for name, mod in list(sys.modules.items()):
        if name == "star_spectra" or name.startswith("star_spectra."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class Verdict:
    """Operations that failed a check, and one message per failing check."""

    def __init__(self):
        self.failed = set()
        self.messages = []

    def record(self, name: str, bad: list, op) -> None:
        """Note a check's failing items; `op` maps an item to its operation."""
        if bad:
            self.messages.append(f"{name}: failed at {bad}")
            self.failed.update(op(i) for i in bad)

    def failed_ops(self, results: list, ops: list, differs) -> int:
        """Failed operations over all rounds.

        The checks examine round 0; every round repeats its operations on the
        same inputs, so a later round fails whole if it differs from round 0.
        """
        total = len(self.failed) * len(results)
        for k, later in enumerate(results[1:], start=1):
            if differs(later, results[0]):
                self.messages.append(f"round {k} differs from round 0")
                total += len(ops) - len(self.failed)
        return total


class OrbitSeriesCold:
    """Orbit sum, deep K, R2 with K injected, F3/F4 blocks, R3 tables and grid.

    The v = 3 graph of the orbit sum is the criterion-09 graph (seed 7): the
    5% density gap at k_max = 12, sigma = 0.1 is a property of the orbit
    truncation on that graph, and a graph drawn per run would make the
    check's outcome depend on the run seed (the gap reaches 4.5% on some
    seeds).  The run seed draws every evaluation grid.
    """

    DENSITY_GRAPH_SEED = 7
    K_MAX = 12
    SIGMA = 0.1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        self.graph = graph.build_graph(3, self.DENSITY_GRAPH_SEED)
        self.lambda_grid = np.arange(5.0, 50.0 + 0.025, 0.05)
        self.reduced = analytic.Truncation(j_max=4, m_max=8, quad_points=64)
        self.deep = analytic.Truncation(j_max=12, m_max=40)
        self.x_grid = np.sort(rng.uniform(0.1, 3.0, 12))
        self.xy_grid = [tuple(p) for p in rng.uniform(0.1, 2.5, (16, 2))]
        self.k_taus = np.append(rng.uniform(0.0, 0.1, 7), 0.1)
        # Inside [0.03, 0.04]^2 the float engine keeps every F3 block (it
        # drops blocks bounded below 1e-9) and the exact polynomial, cut at
        # degree 2 * m_max, misses under 2.1e-9 of the value.
        self.f3_points = [tuple(p) for p in rng.uniform(0.03, 0.04, (3, 2))]
        self.ops = (
            ["density", "k_deep", "f3", "f4", "r3_tables"]
            + [f"r2[{i}]" for i in range(len(self.x_grid))]
            + [f"r3[{i}]" for i in range(len(self.xy_grid))]
        )

    def deep_kernel(self, taus):
        """K at the deep truncation on quadrature nodes, as `compare` injects it."""
        return np.array(
            [analytic.k_formfactor(float(t), self.deep) for t in np.atleast_1d(taus)]
        )

    def reset(self) -> None:
        clear_package_caches()

    def run_round(self) -> dict:
        density = trace.density_from_orbits(
            self.graph, self.lambda_grid, self.SIGMA, self.K_MAX
        )
        k0 = analytic.k_formfactor(0.0, self.deep)
        r2 = [analytic.r2_analytic(float(x), self.reduced, kernel=self.deep_kernel) for x in self.x_grid]
        f3 = analytic.f3(1.0, 1.0, self.reduced)
        f4 = analytic.f4(1.0, 1.0, self.reduced)
        x0, y0 = self.xy_grid[0]
        analytic.r3_connected(x0, y0, self.reduced)
        r3 = [analytic.r3_full(x, y, self.reduced) for x, y in self.xy_grid]
        return {"density": density.values, "k0": k0, "r2": r2, "f3": f3, "f4": f4, "r3": r3}

    def check(self, results: list):
        out = results[0]
        verdict = Verdict()
        record = verdict.record

        exact = trace.density_from_spectrum(
            spectrum.solve_spectrum(self.graph, 51.0), self.lambda_grid, self.SIGMA
        ).values
        record("orbit-sum density vs exact spectrum", checks.density_gap(out["density"], exact), lambda i: "density")

        k_red = [analytic.k_formfactor(float(t), self.reduced) for t in self.k_taus]
        k_deep = [analytic.k_formfactor(float(t), self.deep) for t in self.k_taus]
        record("K(0) = 1 at the deep truncation", checks.exactly(out["k0"], 1.0), lambda i: "k_deep")
        record(
            "K(0) = 1 at the reduced truncation",
            checks.exactly(analytic.k_formfactor(0.0, self.reduced), 1.0),
            lambda i: "k_deep",
        )
        record("deep vs reduced K for tau <= 0.1", checks.close(k_deep, k_red, 5e-4), lambda i: "k_deep")

        unit = [analytic.r2_analytic(float(x), self.reduced, kernel=np.ones_like) for x in self.x_grid]
        record("R2 with unit kernel = 1 + sinc", checks.r2_unit_kernel(self.x_grid, unit), lambda i: f"r2[{i}]")

        swapped = [analytic.r3_full(y, x, self.reduced) for x, y in self.xy_grid]
        relabeled = [analytic.r3_full(-x, y - x, self.reduced) for x, y in self.xy_grid]
        record("R3 relabeling symmetry", checks.r3_relabeling(out["r3"], swapped, relabeled), lambda i: f"r3[{i}]")

        def zero(taus, tau_ps):
            return np.zeros((len(taus), len(tau_ps)))

        poisson = [
            analytic.r3_full(x, y, self.reduced, kernel=np.zeros_like, f12=zero, f34=zero)
            for x, y in self.xy_grid
        ]
        record("zero kernels give R3 = 1", checks.close(poisson, np.ones(len(poisson)), 1e-12), lambda i: f"r3[{i}]")

        record(
            "f_total(0, 0) = 2",
            checks.close([analytic.f_total(0.0, 0.0, self.reduced)], [2.0], 1e-8),
            lambda i: "f4",
        )

        blocks = [analytic.f3_coefficients(j, self.reduced) for j in range(3, self.reduced.j_max + 1)]
        engine = [analytic.f3(t, tp, self.reduced) for t, tp in self.f3_points]
        exact_f3 = [checks.exact_f3(Fraction(t), Fraction(tp), blocks) for t, tp in self.f3_points]
        record("F3 engine vs exact polynomial", checks.f3_matches_exact(engine, exact_f3), lambda i: "f3")

        def differs(a, b):
            return any(checks.identical(np.ravel(a[key]), np.ravel(b[key])) for key in a)

        return verdict.failed_ops(results, self.ops, differs), verdict.messages

    def traced_layers(self, tracer) -> None:
        tracer.instrument(trace, "density_from_orbits")
        for attr in ("k_formfactor", "r2_analytic", "f3", "f4", "r3_connected", "r3_full"):
            tracer.instrument(analytic, attr)

    def counts(self, results: list) -> dict:
        words = sum(len(orbits.necklaces(k, self.graph.v)) for k in range(1, self.K_MAX + 1))
        return {"orbits.words": words}


class Ensemble:
    """One `estimate_r2` / `estimate_r3` call per round at the criterion-11 size."""

    CHECK_REALIZATIONS = 2  # rebuilt and recounted by the winding oracle
    COUNT_CUT = 20.0  # det_root_count is ~15 s to lambda = 400 at v = 100
    SMALL_LAMBDA = 100.0  # sub-ensemble for the worker-count invariance
    # The Poisson fixture is criterion 10's (seed 42, 60 sets, window 2500).
    # It is fixed so the 3-sigma check's outcome cannot vary with the run seed.
    POISSON_SEED = 42
    POISSON_SETS = 60
    POISSON_WINDOW = 2500.0

    def __init__(self, seed: int, estimator: str, grid, realizations: int, threads: int):
        self.seed = seed
        self.estimator = estimator
        self.threads = threads
        self.config = empirical.EnsembleConfig(
            v=ENSEMBLE_V,
            realizations=realizations,
            lambda_max=ENSEMBLE_LAMBDA,
            seed=seed,
            kernel_width=KERNEL_WIDTH,
            grid=grid,
        )
        self.ops = [f"realization[{i}]" for i in range(realizations)] + [
            f"value[{i}]" for i in range(len(grid))
        ]

    def _estimate(self, config, threads):
        fn = empirical.estimate_r2 if self.estimator == "r2" else empirical.estimate_r3
        return fn(config, threads=threads)

    def reset(self) -> None:
        pass

    def run_round(self):
        return self._estimate(self.config, self.threads)

    def check(self, results: list):
        first = results[0]
        values = [f"value[{i}]" for i in range(len(first.grid))]
        verdict = Verdict()
        record = verdict.record

        for i in range(self.CHECK_REALIZATIONS):
            g = graph.build_graph(ENSEMBLE_V, realization_seed(self.seed, i))
            eig = spectrum.solve_spectrum(g, ENSEMBLE_LAMBDA).eigenvalues
            cut = checks.gap_midpoint(eig, self.COUNT_CUT)
            op = f"realization[{i}]"
            record(f"{op} tan-form count vs winding", checks.root_count(eig, cut, spectrum.det_root_count(g, cut)), lambda _: op)
            record(f"{op} Weyl bound", checks.weyl_bound(len(eig), g.total_length, ENSEMBLE_LAMBDA, ENSEMBLE_V), lambda _: op)

        rng = np.random.default_rng(self.POISSON_SEED)
        sets = []
        for _ in range(self.POISSON_SETS):
            n = rng.poisson(self.POISSON_WINDOW)
            sets.append((np.sort(rng.uniform(0.0, self.POISSON_WINDOW, n)), self.POISSON_WINDOW))
        from_levels = empirical.r2_from_levels if self.estimator == "r2" else empirical.r3_from_levels
        p_values, p_err, _ = from_levels(sets, first.grid, KERNEL_WIDTH)
        record("Poisson levels give 1 within 3 sigma", checks.poisson_unity(p_values, p_err), lambda i: values[i])

        small = empirical.EnsembleConfig(
            v=ENSEMBLE_V, realizations=2, lambda_max=self.SMALL_LAMBDA, seed=self.seed,
            kernel_width=KERNEL_WIDTH, grid=first.grid,
        )
        one, two = self._estimate(small, 1), self._estimate(small, 2)
        bad = sorted(
            set(checks.identical(one.values, two.values))
            | set(checks.identical(one.stderr, two.stderr))
            | set(checks.identical(one.pairs, two.pairs))
        )
        record("1 vs 2 workers bitwise", bad, lambda i: values[i])

        if self.estimator == "r3":
            record("estimate(x, y) == estimate(y, x)", checks.swap_symmetric(first.grid, first.values), lambda i: values[i])

        def differs(a, b):
            return bool(checks.identical(a.values, b.values) or checks.identical(a.pairs, b.pairs))

        return verdict.failed_ops(results, self.ops, differs), verdict.messages

    def traced_layers(self, tracer) -> None:
        tracer.instrument(spectrum, "solve_spectrum", counter=len)
        tracer.instrument(spectrum, "det_root_count")
        tracer.instrument(empirical, "r2_from_levels" if self.estimator == "r2" else "r3_from_levels")
        tracer.instrument(empirical, f"estimate_{self.estimator}")

    def counts(self, results: list) -> dict:
        return {"empirical.kde_terms": sum(results[0].pairs)}


def realization_seed(seed: int, index: int) -> int:
    """Sub-seed of realization `index`: the package's SeedSequence recipe."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


R2_GRID = tuple(0.25 * i for i in range(1, 13))
R3_GRID = tuple((x, y) for x in (0.5, 1.0, 1.5, 2.0) for y in (0.5, 1.0, 1.5, 2.0))


# Workload name -> factory that makes its inputs from the run seed.
WORKLOADS = {
    "orbit-series-cold": OrbitSeriesCold,
    "ensemble-r2-serial": lambda seed: Ensemble(seed, "r2", R2_GRID, realizations=2, threads=1),
    "ensemble-r3-parallel": lambda seed: Ensemble(seed, "r3", R3_GRID, realizations=4, threads=2),
}
