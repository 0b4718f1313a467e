"""Command-line entry point wiring all modules together.

Subcommands: gen, spectrum, orbits, trace-check, analytic, empirical,
compare, expansion-table.  Every file-writing command drops a JSON manifest
sidecar `<output>.manifest.json` recording the command line, configuration
echo, tool version, wall time, and SHA-256 digests of the outputs.  CSV
outputs are byte-identical across reruns with the same flags and seeds.

Exit codes: 0 success; 1 validation failure (cross-check mismatch, missing
metadata, runtime computation error); 2 usage error (unknown or invalid
flags).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import product
from math import prod
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    DEFAULT_TRUNCATION,
    QuadratureError,
    Truncation,
    _SERIES_UPPER,
    _k_truncation,
    f1,
    f2,
    f3,
    f4,
    f_expansion,
    k_formfactor,
    r2_analytic,
    r3_full,
)
from .empirical import EnsembleConfig, estimate_r2, estimate_r3
from .graph import build_graph, load_graph, save_graph
from .orbits import OrbitClass, q_bruteforce, q_formula
from .spectrum import solve_spectrum
from .trace import density_from_orbits, density_from_spectrum
from .workers import worker_count

# Quantity name -> (coordinates, closed form, ensemble estimator or None,
# `analytic` help).  Each coordinate c is an `analytic` flag --c, an
# `empirical` flag --c-grid and a CSV column; the closed form takes one array
# per coordinate and a truncation.
_QUANTITIES = {
    "k": (("tau",), k_formfactor, None, "form factor K at one tau"),
    "r2": (("x",), r2_analytic, estimate_r2, "two-point correlation at one x"),
    "r3": (("x", "y"), r3_full, estimate_r3, "full three-point correlation at one (x, y)"),
}
_ESTIMATED = tuple(name for name, (_, _, estimate, _) in _QUANTITIES.items() if estimate)

# Most cells a grid may hold: physical memory in 8-byte floats.  Every command
# keeps at least one float64 per cell (a 2-D grid counts every (x, y) cell).
_MAX_GRID_POINTS = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8


class UsageError(Exception):
    """Invalid flag values; maps to exit code 2."""


class ValidationFailure(Exception):
    """A semantic check failed; maps to exit code 1."""


# ------------------------------------------------------------- file helpers --


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(argv, config_echo, output, started: float) -> None:
    """JSON sidecar `<output>.manifest.json` describing the output."""
    data = Path(output).read_bytes()
    manifest = {
        "command": "star-spectra " + " ".join(argv),
        "version": __version__,
        "config": config_echo,
        "wall_time_seconds": round(time.time() - started, 3),
        "outputs": {
            str(output): {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        },
    }
    _write_text(f"{output}.manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_manifest(output_path) -> dict:
    path = Path(str(output_path) + ".manifest.json")
    if not path.exists():
        raise ValidationFailure(
            f"no manifest sidecar {path.name} next to {output_path}; "
            "refusing to compare without ensemble metadata"
        )
    return json.loads(path.read_text())


# -------------------------------------------------------------- flag parsing --


def _require_points(count, what: str) -> None:
    """Usage error unless count (possibly inf) is at most _MAX_GRID_POINTS."""
    if not count <= _MAX_GRID_POINTS:
        raise UsageError(
            f"{what} asks for {count:.3g} grid points; at most {_MAX_GRID_POINTS:.3g} fit in memory"
        )


def _count(lo: float, hi: float, step: float) -> float:
    """Points in lo, lo + step, ... up to hi: floor((hi - lo)/step + 1e-9) + 1, maybe inf."""
    return float(np.floor((hi - lo) / step + 1e-9)) + 1


def _grid(lo: float, hi: float, step: float, what: str) -> np.ndarray:
    """lo + i*step for i = 0 .. floor((hi - lo)/step + 1e-9): up to hi, not a step past."""
    count = _count(lo, hi, step)
    _require_points(count, what)
    return lo + np.arange(int(count)) * step


def _parse_range(text: str) -> np.ndarray:
    """Inclusive lo:hi:step grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}; expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected three numbers") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise UsageError(f"bad range {text!r}; lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise UsageError(f"bad range {text!r}; need step > 0 and hi >= lo")
    return _grid(lo, hi, step, f"range {text!r}")


def _require_finite(args, *names) -> None:
    """Usage error naming the first of these float flags that is NaN or infinite."""
    for name in names:
        if not np.isfinite(getattr(args, name)):
            raise UsageError(f"--{name.replace('_', '-')} must be finite")


def _parse_int_list(text: str, flag: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list") from None


def _add_truncation_flags(parser) -> None:
    parser.add_argument("--j-max", type=int, default=DEFAULT_TRUNCATION.j_max)
    parser.add_argument("--m-max", type=int, default=DEFAULT_TRUNCATION.m_max)
    parser.add_argument("--quad", type=int, default=DEFAULT_TRUNCATION.quad_points)
    parser.add_argument(
        "--tau-cutoff", type=float, default=DEFAULT_TRUNCATION.tau_cutoff
    )


def _from_flags(build, *args, **kwargs):
    """build(*args, **kwargs) on flag values; its ValueError is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _truncation_from(args) -> Truncation:
    return _from_flags(
        Truncation,
        j_max=args.j_max,
        m_max=args.m_max,
        quad_points=args.quad,
        tau_cutoff=args.tau_cutoff,
    )


def _ensemble_from(args, grid) -> EnsembleConfig:
    if args.threads is not None:
        _from_flags(worker_count, args.threads)
    return _from_flags(
        EnsembleConfig,
        v=args.v,
        realizations=args.realizations,
        lambda_max=args.lambda_max,
        seed=args.seed,
        kernel_width=args.kernel_width,
        grid=grid,
    )


def _kernel_table(args):
    """Echo and rows (tau, tau', F1, F2, F3, F4, F, expansion) of the F grid.

    The grid is 0, step, 2*step, ... <= tau-max on both axes, as `analytic f`
    and `expansion-table` print it.
    """
    trunc = _truncation_from(args)
    if not 0 < args.tau_max <= _SERIES_UPPER:
        raise UsageError(f"--tau-max must lie in (0, {_SERIES_UPPER:g}] (series validity square)")
    if not 0 < args.step <= args.tau_max:
        raise UsageError("--step must lie in (0, tau-max]")
    side = _count(0.0, args.tau_max, args.step)
    _require_points(side * side, "the (tau, tau') square")  # before either axis is built
    taus = _grid(0.0, args.tau_max, args.step, "--tau-max/--step")
    grid = (taus[:, None], taus[None, :])
    parts = (f1(*grid), f2(*grid, trunc), f3(*grid, trunc), f4(*grid, trunc))
    total = parts[0] + parts[1] + parts[2] + parts[3]
    rows = [
        (tau, tau_p, *(p[i, k] for p in parts), total[i, k], f_expansion(float(tau), float(tau_p)))
        for i, tau in enumerate(taus)
        for k, tau_p in enumerate(taus)
    ]
    echo = {"truncation": asdict(trunc), "tau_max": args.tau_max, "step": args.step}
    return echo, rows


# ------------------------------------------------------------------ handlers --
#
# A handler returns either an exit code (it wrote no file) or the
# configuration echo of the file it wrote to args.out; `main` then writes that
# file's manifest.


def _cmd_gen(args):
    save_graph(_from_flags(build_graph, args.v, args.seed), args.out)
    return {"v": args.v, "seed": args.seed}


def _cmd_spectrum(args):
    if not 0 < args.lambda_max < np.inf:
        raise UsageError("--lambda-max must be positive and finite")
    try:
        graph = load_graph(args.graph)
    except (OSError, ValueError, KeyError) as exc:
        raise ValidationFailure(f"cannot read graph file {args.graph}: {exc}") from None
    spectrum = solve_spectrum(graph, args.lambda_max)
    rows = [
        (str(i), _fmt(lam))
        for i, lam in enumerate(np.asarray(spectrum.eigenvalues), start=1)
    ]
    _write_csv(args.out, ("index", "lambda"), rows)
    return {
        "graph": {"v": graph.v, "seed": graph.seed, "lengths": list(graph.lengths)},
        "lambda_max": args.lambda_max,
    }


def _cmd_orbits_q(args):
    n = _parse_int_list(args.n, "--n")
    m = _parse_int_list(args.m, "--m")
    if len(n) != len(m):
        raise UsageError("--n and --m must have the same number of entries")
    cls = _from_flags(OrbitClass, j=len(n), n=n, m=m)
    if args.method == "formula":
        print(q_formula(cls))
        return 0
    if args.method == "brute":
        print(q_bruteforce(cls))
        return 0
    formula = q_formula(cls)
    brute = q_bruteforce(cls)
    verdict = "OK" if formula == brute else "MISMATCH"
    print(f"{formula}  {brute}  {verdict}")
    return 0 if verdict == "OK" else 1


def _cmd_trace_check(args):
    graph = _from_flags(build_graph, args.v, args.seed)
    _require_finite(args, "sigma", "step", "lambda_min", "lambda_max")
    if args.sigma <= 0:
        raise UsageError("--sigma must be positive")
    if args.kmax < 0:
        raise UsageError("--kmax must be nonnegative")
    if args.step <= 0 or args.lambda_max <= args.lambda_min:
        raise UsageError("need --step > 0 and --lambda-max > --lambda-min")
    grid = _grid(args.lambda_min, args.lambda_max, args.step, "--lambda-min/--lambda-max/--step")
    # eigenvalues beyond the window still leak Gaussian mass into it
    spectrum = solve_spectrum(graph, args.lambda_max + 8.0 * args.sigma)
    exact = density_from_spectrum(spectrum, grid, args.sigma)
    orbit = density_from_orbits(graph, grid, args.sigma, args.kmax)
    rows = [
        (_fmt(lam), _fmt(od), _fmt(sd))
        for lam, od, sd in zip(grid, orbit.values, exact.values)
    ]
    _write_csv(args.out, ("lambda", "orbit_density", "spectral_density"), rows)
    echoed = ("v", "seed", "kmax", "sigma", "lambda_min", "lambda_max", "step")
    return {name: getattr(args, name) for name in echoed}


def _cmd_analytic_f(args):
    echo, rows = _kernel_table(args)
    header = ("tau", "tau_p", "F1", "F2", "F3", "F4", "F", "expansion")
    _write_csv(args.out, header, [tuple(map(_fmt, row)) for row in rows])
    return echo


def _cmd_analytic_point(args):
    coords, evaluate, _, _ = _QUANTITIES[args.analytic_command]
    _require_finite(args, *coords)
    print(_fmt(evaluate(*(getattr(args, c) for c in coords), _truncation_from(args))))
    return 0


def _cmd_expansion_table(args):
    echo, rows = _kernel_table(args)
    header = ("tau", "tau_p", "f_total", "f_expansion")
    rows = [tuple(_fmt(row[c]) for c in (0, 1, 6, 7)) for row in rows]
    if args.out is None:
        print("\n".join([",".join(header)] + [",".join(r) for r in rows]))
        return 0
    _write_csv(args.out, header, rows)
    return echo


def _cmd_empirical(args):
    coords, _, estimate_fn, _ = _QUANTITIES[args.empirical_command]
    axes = [_parse_range(getattr(args, f"{c}_grid")) for c in coords]
    _require_points(prod(map(len, axes)), "the estimator grid")
    grid = tuple(product(*axes)) if len(axes) > 1 else tuple(axes[0])
    config = _ensemble_from(args, grid)
    estimate = estimate_fn(config, threads=args.threads)
    columns = zip(estimate.grid, estimate.values, estimate.stderr, estimate.pairs)
    rows = [
        (*map(_fmt, (*np.atleast_1d(point), val, err)), str(int(count)))
        for point, val, err, count in columns
    ]
    _write_csv(args.out, (*coords, "estimate", "stderr", "pairs"), rows)
    return {"estimator": args.empirical_command, "ensemble": asdict(config)}


def _cmd_compare(args):
    trunc = _truncation_from(args)
    input_path = Path(args.input)
    if not input_path.exists():
        raise ValidationFailure(f"input {args.input} does not exist")
    manifest = _read_manifest(input_path)
    config_echo = manifest.get("config", {})
    estimator = config_echo.get("estimator")
    ensemble = config_echo.get("ensemble")
    if estimator not in _ESTIMATED or not isinstance(ensemble, dict):
        raise ValidationFailure(
            "input manifest carries no ensemble metadata; refusing to compare"
        )
    out_path = Path(args.out)
    protected = {input_path.resolve(), Path(str(input_path) + ".manifest.json").resolve()}
    for target in (out_path, Path(str(out_path) + ".manifest.json")):
        if target.resolve() in protected:
            raise ValidationFailure(f"refusing to overwrite input file {target}")
    coords, closed_form, _, _ = _QUANTITIES[estimator]
    rows_in = _read_csv_rows(input_path, coords)
    analytic = closed_form(*np.array([point for point, _, _ in rows_in]).T, trunc)
    rows = []
    for (point, estimate, stderr), value in zip(rows_in, analytic):
        deviation = abs(estimate - value)
        sigmas = deviation / stderr if stderr > 0 else float("inf")
        rows.append(tuple(map(_fmt, (*point, estimate, stderr, value, deviation, sigmas))))
    header = (*coords, "estimate", "stderr", "analytic", "abs_deviation", "sigma_deviation")
    _write_csv(out_path, header, rows)
    return {
        "estimator": estimator,
        "ensemble": ensemble,
        "truncation": asdict(trunc),
        "k_truncation": asdict(_k_truncation(trunc)),
        "input": str(input_path),
    }


def _read_csv_rows(path: Path, coords: tuple):
    lines = path.read_text().splitlines()
    if not lines:
        raise ValidationFailure(f"input {path} is empty")
    header = lines[0].split(",")
    n = len(coords)
    expected = [*coords, "estimate", "stderr", "pairs"]
    if header != expected:
        raise ValidationFailure(
            f"input {path} has columns {header}, expected {expected}"
        )
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = [float(c) for c in line.split(",")[: n + 2]]  # pairs is not read
        if len(cells) < n + 2:
            raise ValidationFailure(f"input {path} line {number} has too few cells: {line!r}")
        rows.append((tuple(cells[:n]), cells[n], cells[n + 1]))
    if not rows:
        raise ValidationFailure(f"input {path} has no data rows")
    return rows


# -------------------------------------------------------------------- parser --


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-spectra",
        description="Spectral statistics of quantum star graphs, both "
        "empirical (solved ensembles) and analytic (orbit series).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="draw a random star graph and save it as JSON")
    p.add_argument("--v", type=int, required=True, help="number of outer vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="graph.json")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("spectrum", help="solve a saved graph's eigenvalues to a CSV")
    p.add_argument("--graph", required=True, help="graph JSON file from `gen`")
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--out", default="spectrum.csv")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("orbits", help="periodic-orbit class queries")
    orbits_sub = p.add_subparsers(dest="orbits_command", required=True)
    q = orbits_sub.add_parser("q", help="weighted orbit count of a (n, m) class")
    q.add_argument("--n", required=True, help="per-edge visit counts, e.g. 3,3,2")
    q.add_argument("--m", required=True, help="per-edge block counts, e.g. 2,3,1")
    q.add_argument("--method", choices=("formula", "brute", "both"), default="formula")
    q.set_defaults(handler=_cmd_orbits_q)

    p = sub.add_parser(
        "trace-check",
        help="compare orbit-sum and exact smoothed spectral densities",
    )
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmax", type=int, default=12, help="half-period cutoff")
    p.add_argument("--sigma", type=float, default=0.1, help="Gaussian smoothing width")
    p.add_argument("--lambda-min", type=float, default=5.0)
    p.add_argument("--lambda-max", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out", default="density.csv")
    p.set_defaults(handler=_cmd_trace_check)

    p = sub.add_parser("analytic", help="orbit-series evaluations")
    analytic_sub = p.add_subparsers(dest="analytic_command", required=True)

    f_parser = analytic_sub.add_parser(
        "f", help="three-point kernel components on a (tau, tau') grid"
    )
    f_parser.add_argument("--tau-max", type=float, default=0.5)
    f_parser.add_argument("--step", type=float, default=0.01)
    f_parser.add_argument("--out", default="f.csv")
    _add_truncation_flags(f_parser)
    f_parser.set_defaults(handler=_cmd_analytic_f)

    for name, (coords, _, _, help_text) in _QUANTITIES.items():
        a = analytic_sub.add_parser(name, help=help_text)
        for c in coords:
            a.add_argument(f"--{c}", type=float, required=True)
        _add_truncation_flags(a)
        a.set_defaults(handler=_cmd_analytic_point)

    p = sub.add_parser(
        "expansion-table",
        help="f_total against its quadratic small-tau expansion",
    )
    p.add_argument("--tau-max", type=float, default=0.06)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--out", default=None, help="CSV path (default: print to stdout)")
    _add_truncation_flags(p)
    p.set_defaults(handler=_cmd_expansion_table)

    p = sub.add_parser("empirical", help="Monte Carlo correlation estimates")
    empirical_sub = p.add_subparsers(dest="empirical_command", required=True)
    for name in _ESTIMATED:
        coords = _QUANTITIES[name][0]
        e = empirical_sub.add_parser(name, help=f"estimate {name} over an ensemble")
        e.add_argument("--v", type=int, required=True)
        e.add_argument("--realizations", type=int, required=True)
        e.add_argument("--lambda-max", type=float, required=True)
        e.add_argument("--seed", type=int, default=0)
        e.add_argument("--kernel-width", type=float, default=0.08)
        for c in coords:
            e.add_argument(f"--{c}-grid", default="0:3:0.25", help="lo:hi:step")
        e.add_argument("--threads", type=int, default=None)
        e.add_argument("--out", default=f"{name}.csv")
        e.set_defaults(handler=_cmd_empirical)

    p = sub.add_parser(
        "compare",
        help="analytic-vs-empirical report from an empirical CSV + manifest",
    )
    p.add_argument("--input", required=True, help="CSV written by `empirical`")
    p.add_argument("--out", required=True)
    _add_truncation_flags(p)
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.time()
    try:
        result = args.handler(args)
        if isinstance(result, dict):
            _write_manifest(argv, result, args.out, started)
            return 0
        return result
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"star-spectra: usage error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, ValueError, QuadratureError, OSError) as exc:
        print(f"star-spectra: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
