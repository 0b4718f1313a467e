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
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    DEFAULT_TRUNCATION,
    QuadratureError,
    Truncation,
    f_components,
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

# K truncation used by `compare` for the two-point transform: the form-factor
# series needs far more block terms than the three-point kernel can afford
# (and the block-count row only stabilizes once m_max is roughly five times
# j_max), so the comparison report evaluates K with its own converged cutoffs
# and records both truncations in the manifest.
_K_CONVERGED = {"j_max": 12, "m_max": 60}


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


def _parse_range(text: str):
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
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _require_finite(args, *names) -> None:
    """Usage error naming the first of these float flags that is NaN or infinite."""
    for name in names:
        if not np.isfinite(getattr(args, name)):
            raise UsageError(f"--{name.replace('_', '-')} must be finite")


def _parse_int_list(text: str, flag: str):
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list") from None
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _add_truncation_flags(parser) -> None:
    parser.add_argument("--j-max", type=int, default=DEFAULT_TRUNCATION.j_max)
    parser.add_argument("--m-max", type=int, default=DEFAULT_TRUNCATION.m_max)
    parser.add_argument("--quad", type=int, default=DEFAULT_TRUNCATION.quad_points)
    parser.add_argument(
        "--tau-cutoff", type=float, default=DEFAULT_TRUNCATION.tau_cutoff
    )


def _truncation_from(args) -> Truncation:
    try:
        return Truncation(
            j_max=args.j_max,
            m_max=args.m_max,
            quad_points=args.quad,
            tau_cutoff=args.tau_cutoff,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _ensemble_from(args, grid) -> EnsembleConfig:
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be at least 1")
    try:
        return EnsembleConfig(
            v=args.v,
            realizations=args.realizations,
            lambda_max=args.lambda_max,
            seed=args.seed,
            kernel_width=args.kernel_width,
            grid=grid,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _kernel_table(args):
    """Echo and rows (tau, tau', F1, F2, F3, F4, F, expansion) of the F grid.

    The grid is 0, step, 2*step, ... <= tau-max on both axes, as `analytic f`
    and `expansion-table` print it.
    """
    trunc = _truncation_from(args)
    if not 0 < args.tau_max <= 1.0:
        raise UsageError("--tau-max must lie in (0, 1] (series validity square)")
    if not 0 < args.step <= args.tau_max:
        raise UsageError("--step must lie in (0, tau-max]")
    taus = np.arange(int(np.floor(args.tau_max / args.step + 1e-9)) + 1) * args.step
    parts = f_components(taus, trunc)
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
    if args.v < 1:
        raise UsageError("--v must be at least 1")
    save_graph(build_graph(args.v, args.seed), args.out)
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
    try:
        cls = OrbitClass(j=len(n), n=n, m=m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    if args.v < 1:
        raise UsageError("--v must be at least 1")
    _require_finite(args, "sigma", "step", "lambda_min", "lambda_max")
    if args.sigma <= 0:
        raise UsageError("--sigma must be positive")
    if args.kmax < 0:
        raise UsageError("--kmax must be nonnegative")
    if args.step <= 0 or args.lambda_max <= args.lambda_min:
        raise UsageError("need --step > 0 and --lambda-max > --lambda-min")
    graph = build_graph(args.v, args.seed)
    grid = np.arange(
        args.lambda_min, args.lambda_max + 0.5 * args.step, args.step
    )
    # eigenvalues beyond the window still leak Gaussian mass into it
    spectrum = solve_spectrum(graph, args.lambda_max + 8.0 * args.sigma)
    exact = density_from_spectrum(spectrum, grid, args.sigma)
    orbit = density_from_orbits(graph, grid, args.sigma, args.kmax)
    rows = [
        (_fmt(lam), _fmt(od), _fmt(sd))
        for lam, od, sd in zip(grid, orbit.values, exact.values)
    ]
    _write_csv(args.out, ("lambda", "orbit_density", "spectral_density"), rows)
    return {
        "v": args.v,
        "seed": args.seed,
        "kmax": args.kmax,
        "sigma": args.sigma,
        "lambda_min": args.lambda_min,
        "lambda_max": args.lambda_max,
        "step": args.step,
    }


def _cmd_analytic_f(args):
    echo, rows = _kernel_table(args)
    header = ("tau", "tau_p", "F1", "F2", "F3", "F4", "F", "expansion")
    _write_csv(args.out, header, [tuple(map(_fmt, row)) for row in rows])
    return echo


def _cmd_analytic_k(args):
    _require_finite(args, "tau")
    print(_fmt(k_formfactor(args.tau, _truncation_from(args))))
    return 0


def _cmd_analytic_r2(args):
    _require_finite(args, "x")
    print(_fmt(r2_analytic(args.x, _truncation_from(args))))
    return 0


def _cmd_analytic_r3(args):
    _require_finite(args, "x", "y")
    print(_fmt(r3_full(args.x, args.y, _truncation_from(args))))
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
    xs = _parse_range(args.x_grid)
    if args.empirical_command == "r2":
        coords, estimate_fn = ("x",), estimate_r2
        grid = tuple(xs)
    else:
        coords, estimate_fn = ("x", "y"), estimate_r3
        grid = tuple((x, y) for x in xs for y in _parse_range(args.y_grid))
    config = _ensemble_from(args, grid)
    estimate = estimate_fn(config, threads=args.threads)
    rows = [
        (*(_fmt(c) for c in np.atleast_1d(point)), _fmt(val), _fmt(err), str(int(count)))
        for point, val, err, count in zip(
            estimate.grid, estimate.values, estimate.stderr, estimate.pairs
        )
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
    if estimator not in {"r2", "r3"} or not isinstance(ensemble, dict):
        raise ValidationFailure(
            "input manifest carries no ensemble metadata; refusing to compare"
        )
    out_path = Path(args.out)
    protected = {
        input_path.resolve(),
        Path(str(input_path) + ".manifest.json").resolve(),
    }
    for target in (out_path, Path(str(out_path) + ".manifest.json")):
        if target.resolve() in protected:
            raise ValidationFailure(f"refusing to overwrite input file {target}")
    rows_in = _read_csv_rows(input_path, estimator)
    k_trunc = replace(
        trunc,
        j_max=max(_K_CONVERGED["j_max"], trunc.j_max),
        m_max=max(_K_CONVERGED["m_max"], trunc.m_max),
    )
    kernel = partial(k_formfactor, trunc=k_trunc)
    if estimator == "r2":
        xs = [point[0] for point, _, _ in rows_in]
        analytic = r2_analytic(xs, trunc, kernel=kernel).tolist()
    else:
        analytic = [r3_full(x, y, trunc, kernel=kernel) for (x, y), _, _ in rows_in]
    rows = []
    for (point, estimate, stderr), value in zip(rows_in, analytic):
        deviation = abs(estimate - value)
        sigmas = deviation / stderr if stderr > 0 else float("inf")
        rows.append(
            (
                *(_fmt(c) for c in point),
                _fmt(estimate),
                _fmt(stderr),
                _fmt(value),
                _fmt(deviation),
                _fmt(sigmas),
            )
        )
    coords = ("x",) if estimator == "r2" else ("x", "y")
    header = (*coords, "estimate", "stderr", "analytic", "abs_deviation", "sigma_deviation")
    _write_csv(out_path, header, rows)
    return {
        "estimator": estimator,
        "ensemble": ensemble,
        "truncation": asdict(trunc),
        "k_truncation": asdict(k_trunc),
        "input": str(input_path),
    }


def _read_csv_rows(path: Path, estimator: str):
    lines = path.read_text().splitlines()
    if not lines:
        raise ValidationFailure(f"input {path} is empty")
    header = lines[0].split(",")
    coord_count = 1 if estimator == "r2" else 2
    expected = ["x", "estimate", "stderr", "pairs"] if coord_count == 1 else [
        "x",
        "y",
        "estimate",
        "stderr",
        "pairs",
    ]
    if header != expected:
        raise ValidationFailure(
            f"input {path} has columns {header}, expected {expected}"
        )
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        point = tuple(float(c) for c in cells[:coord_count])
        estimate = float(cells[coord_count])
        stderr = float(cells[coord_count + 1])
        rows.append((point, estimate, stderr))
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

    k_parser = analytic_sub.add_parser("k", help="form factor K at one tau")
    k_parser.add_argument("--tau", type=float, required=True)
    _add_truncation_flags(k_parser)
    k_parser.set_defaults(handler=_cmd_analytic_k)

    r2_parser = analytic_sub.add_parser("r2", help="two-point correlation at one x")
    r2_parser.add_argument("--x", type=float, required=True)
    _add_truncation_flags(r2_parser)
    r2_parser.set_defaults(handler=_cmd_analytic_r2)

    r3_parser = analytic_sub.add_parser(
        "r3", help="full three-point correlation at one (x, y)"
    )
    r3_parser.add_argument("--x", type=float, required=True)
    r3_parser.add_argument("--y", type=float, required=True)
    _add_truncation_flags(r3_parser)
    r3_parser.set_defaults(handler=_cmd_analytic_r3)

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
    for name in ("r2", "r3"):
        e = empirical_sub.add_parser(name, help=f"estimate {name} over an ensemble")
        e.add_argument("--v", type=int, required=True)
        e.add_argument("--realizations", type=int, required=True)
        e.add_argument("--lambda-max", type=float, required=True)
        e.add_argument("--seed", type=int, default=0)
        e.add_argument("--kernel-width", type=float, default=0.08)
        e.add_argument("--x-grid", default="0:3:0.25", help="lo:hi:step")
        if name == "r3":
            e.add_argument("--y-grid", default="0:3:0.25", help="lo:hi:step")
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
