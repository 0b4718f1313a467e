"""End-to-end command-line behavior: files, manifests, exit codes."""

import hashlib
import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from star_spectra import Truncation, build_graph, f1, f2, f3, f4, solve_spectrum
from star_spectra.cli import main

TINY = ("--j-max", "2", "--m-max", "4")  # keeps the block series empty


def _read_manifest(out_path: Path) -> dict:
    return json.loads(Path(str(out_path) + ".manifest.json").read_text())


@pytest.fixture(scope="module")
def r2_run(tmp_path_factory):
    """One tiny empirical r2 run shared by the schema and compare tests."""
    out = tmp_path_factory.mktemp("r2run") / "r2.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(
            [
                "empirical",
                "r2",
                "--v", "8",
                "--realizations", "2",
                "--lambda-max", "30",
                "--seed", "11",
                "--x-grid", "0.5:1:0.5",
                "--out", str(out),
            ]
        )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def r3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("r3run") / "r3.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(
            [
                "empirical",
                "r3",
                "--v", "8",
                "--realizations", "2",
                "--lambda-max", "30",
                "--seed", "11",
                "--x-grid", "0.5:0.5:0.5",
                "--y-grid", "1:1:0.5",
                "--out", str(out),
            ]
        )
    assert code == 0
    return out


# -------------------------------------------------------------- gen/spectrum --


def test_gen_then_spectrum_roundtrips_solver_output(tmp_path):
    graph_path = tmp_path / "g.json"
    csv_path = tmp_path / "s.csv"
    assert main(["gen", "--v", "3", "--seed", "5", "--out", str(graph_path)]) == 0
    assert (
        main(
            [
                "spectrum",
                "--graph", str(graph_path),
                "--lambda-max", "40",
                "--out", str(csv_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,lambda"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    want = solve_spectrum(build_graph(3, 5), 40.0).eigenvalues
    got = np.array([float(r[1]) for r in rows])
    assert got.tolist() == np.asarray(want).tolist()  # %.17g roundtrips exactly


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--v", "7", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen", "--v", "7", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_graph_file_is_a_validation_failure(tmp_path, capsys):
    code = main(
        [
            "spectrum",
            "--graph", str(tmp_path / "absent.json"),
            "--lambda-max", "10",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 1
    assert "cannot read graph file" in capsys.readouterr().err


@pytest.mark.parametrize("lengths", [[1.0, -1.0], [1.0, 0.0], [1.0, float("nan")]])
def test_bad_edge_lengths_are_a_validation_failure(tmp_path, capsys, lengths):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps({"v": 2, "seed": 0, "lengths": lengths}))
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--graph", str(graph), "--lambda-max", "10", "--out", str(out)]) == 1
    assert "cannot read graph file" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = ["--out", str(tmp_path / "r.csv")]
    for argv in (
        ["gen", "--v", "3"],
        ["trace-check", "--v", "3", "--kmax", "2", "--lambda-max", "10"],
        ["empirical", "r2", "--v", "8", "--realizations", "1", "--lambda-max", "30"],
    ):
        assert main([*argv, "--seed", "-1", *out]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# ------------------------------------------------------------------- orbits --


def test_orbits_q_both_methods_agree(capsys):
    assert main(["orbits", "q", "--n", "2,2", "--m", "2,2", "--method", "both"]) == 0
    assert capsys.readouterr().out.strip() == "1/2  1/2  OK"


def test_orbits_q_formula_only(capsys):
    assert main(["orbits", "q", "--n", "2,2", "--m", "2,2", "--method", "formula"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert main(["orbits", "q", "--n", "2,2", "--m", "2,2", "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_orbits_q_mismatch_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        "star_spectra.cli.q_formula", lambda cls: Fraction(1, 3)
    )
    code = main(["orbits", "q", "--n", "2,2", "--m", "2,2", "--method", "both"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_orbits_q_bad_counts_are_usage_errors(capsys):
    assert main(["orbits", "q", "--n", "1,x", "--m", "1,1"]) == 2
    assert main(["orbits", "q", "--n", "1,1", "--m", "1"]) == 2
    assert main(["orbits", "q", "--n", "1,1", "--m", "2,2"]) == 2  # m > n
    capsys.readouterr()


# -------------------------------------------------------------- trace-check --


def test_trace_check_writes_density_table(tmp_path):
    out = tmp_path / "density.csv"
    code = main(
        [
            "trace-check",
            "--v", "2",
            "--seed", "3",
            "--kmax", "6",
            "--lambda-min", "5",
            "--lambda-max", "20",
            "--step", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,orbit_density,spectral_density"
    assert len(lines) == 1 + 31  # 5..20 inclusive at step 0.5
    manifest = _read_manifest(out)
    assert manifest["config"]["kmax"] == 6


def test_trace_check_stops_at_lambda_max(tmp_path):
    out = tmp_path / "density.csv"
    argv = ["trace-check", "--v", "2", "--kmax", "2", "--lambda-min", "5", "--lambda-max", "50.03"]
    assert main([*argv, "--step", "0.05", "--out", str(out)]) == 0
    lambdas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(lambdas) == 901  # 5, 5.05, ..., 50: a step more would pass 50.03
    assert lambdas[-1] <= 50.03


def test_trace_check_takes_deep_single_edge_orbits(tmp_path):
    # v=1 at k_max=1500 is 1,500 class terms, inside the budget; it must not
    # exhaust the stack
    out = tmp_path / "density.csv"
    argv = ["trace-check", "--v", "1", "--kmax", "1500", "--lambda-max", "10"]
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,orbit_density,spectral_density"
    assert len(lines) == 1 + 101  # 5..10 at the default step 0.05


# ----------------------------------------------------------------- analytic --


def test_analytic_k_prints_value(capsys):
    assert main(["analytic", "k", "--tau", "0.1"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.6772900691531757, rel=1e-13)


def test_analytic_k_domain_error_exits_one(capsys):
    assert main(["analytic", "k", "--tau", "0.7"]) == 1
    assert "0.5" in capsys.readouterr().err


def test_analytic_r2_prints_value(capsys):
    assert main(["analytic", "r2", "--x", "0.5", *TINY]) == 0
    float(capsys.readouterr().out.strip())


def test_analytic_r2_is_a_density_at_the_defaults(capsys):
    assert main(["analytic", "r2", "--x", "1.0"]) == 0
    assert 0.0 < float(capsys.readouterr().out.strip()) < 2.0


def test_analytic_f_grid_csv(tmp_path):
    out = tmp_path / "f.csv"
    code = main(
        [
            "analytic", "f",
            "--tau-max", "0.04",
            "--step", "0.02",
            "--out", str(out),
            *TINY,
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,tau_p,F1,F2,F3,F4,F,expansion"
    assert len(lines) == 1 + 9  # 3x3 grid
    first = lines[1].split(",")
    assert float(first[2]) == 2.0  # F1(0, 0)
    manifest = _read_manifest(out)
    assert manifest["config"]["truncation"]["j_max"] == 2


def test_analytic_f_csv_cells_are_the_kernel_grids(tmp_path):
    # j_max = 3 keeps the first F3/F4 block, so the block series is non-empty
    out = tmp_path / "f.csv"
    args = ["--tau-max", "0.5", "--step", "0.25", "--j-max", "3", "--m-max", "8"]
    assert main(["analytic", "f", *args, "--out", str(out)]) == 0
    cells = np.array(
        [[float(c) for c in line.split(",")] for line in out.read_text().splitlines()[1:]]
    )
    taus = np.array([0.0, 0.25, 0.5])
    grid, trunc = (taus[:, None], taus[None, :]), Truncation(j_max=3, m_max=8)
    parts = (f1(*grid), f2(*grid, trunc), f3(*grid, trunc), f4(*grid, trunc))
    for column, part in enumerate(parts, start=2):
        assert np.array_equal(cells[:, column], part.ravel())
    assert np.array_equal(cells[:, 6], sum(parts).ravel())
    assert np.any(cells[:, 4] != 0.0) and np.any(cells[:, 5] != 0.0)


def test_analytic_r3_prints_value(capsys):
    assert main(["analytic", "r3", "--x", "0.5", "--y", "1.0", *TINY]) == 0
    float(capsys.readouterr().out.strip())


def test_expansion_table_prints_to_stdout(tmp_path, capsys):
    assert main(["expansion-table", *TINY]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,tau_p,f_total,f_expansion"
    assert len(lines) == 1 + 16  # 4x4 grid at default tau-max 0.06, step 0.02
    origin = lines[1].split(",")
    assert origin[2] == "2"
    assert origin[3] == "2"
    # with --out it writes the lines it prints, plus a manifest
    out = tmp_path / "expansion.csv"
    assert main(["expansion-table", *TINY, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines() == lines
    assert _read_manifest(out)["config"]["truncation"]["j_max"] == 2


# -------------------------------------------------------- empirical + manifest --


def test_empirical_r2_output_schema(r2_run):
    lines = r2_run.read_text().splitlines()
    assert lines[0] == "x,estimate,stderr,pairs"
    assert len(lines) == 3
    manifest = _read_manifest(r2_run)
    assert set(manifest) == {
        "command",
        "version",
        "config",
        "wall_time_seconds",
        "outputs",
    }
    assert manifest["config"]["estimator"] == "r2"
    assert manifest["config"]["ensemble"]["v"] == 8
    assert manifest["config"]["ensemble"]["grid"] == [0.5, 1.0]
    entry = manifest["outputs"][str(r2_run)]
    digest = hashlib.sha256(r2_run.read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == len(r2_run.read_bytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_empirical_r2_rerun_is_byte_identical(tmp_path, r2_run):
    out = tmp_path / "again.csv"
    code = main(
        [
            "empirical",
            "r2",
            "--v", "8",
            "--realizations", "2",
            "--lambda-max", "30",
            "--seed", "11",
            "--x-grid", "0.5:1:0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == r2_run.read_bytes()


def test_empirical_r3_output_schema(r3_run):
    lines = r3_run.read_text().splitlines()
    assert lines[0] == "x,y,estimate,stderr,pairs"
    assert len(lines) == 2
    manifest = _read_manifest(r3_run)
    assert manifest["config"]["estimator"] == "r3"
    assert manifest["config"]["ensemble"]["grid"] == [[0.5, 1.0]]


# ------------------------------------------------------------------ compare --


def test_compare_r2_report(tmp_path, r2_run):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--input", str(r2_run), "--out", str(out), *TINY])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,estimate,stderr,analytic,abs_deviation,sigma_deviation"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert abs(float(row[1]) - float(row[3])) == pytest.approx(
        float(row[4]), rel=1e-12
    )
    manifest = _read_manifest(out)
    assert manifest["config"]["k_truncation"]["j_max"] == 12
    assert manifest["config"]["k_truncation"]["m_max"] == 60
    assert manifest["config"]["truncation"]["j_max"] == 2
    # a blank line inside the input is skipped
    header, *data = r2_run.read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join([header, data[0], "", *data[1:]]) + "\n")
    Path(str(gapped) + ".manifest.json").write_text(Path(str(r2_run) + ".manifest.json").read_text())
    again = tmp_path / "cmp-gapped.csv"
    assert main(["compare", "--input", str(gapped), "--out", str(again), *TINY]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_compare_r3_report(tmp_path, r3_run):
    out = tmp_path / "cmp3.csv"
    code = main(["compare", "--input", str(r3_run), "--out", str(out), *TINY])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,estimate,stderr,analytic,abs_deviation,sigma_deviation"
    assert len(lines) == 2


def test_compare_refuses_csv_without_manifest(tmp_path, capsys):
    orphan = tmp_path / "orphan.csv"
    orphan.write_text("x,estimate,stderr,pairs\n0.5,1,0.1,100\n")
    code = main(["compare", "--input", str(orphan), "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert "refusing to compare without ensemble metadata" in capsys.readouterr().err


def test_compare_refuses_manifest_without_ensemble(tmp_path, capsys):
    data = tmp_path / "trace.csv"
    data.write_text("x,estimate,stderr,pairs\n0.5,1,0.1,100\n")
    # a trace manifest, an estimator `analytic` knows but no ensemble
    # estimates, and an estimator name that is not a string
    for config in ({"kmax": 6}, {"estimator": "k", "ensemble": {}}, {"estimator": ["r2"], "ensemble": {}}):
        Path(str(data) + ".manifest.json").write_text(
            json.dumps({"command": "x", "config": config, "outputs": {}})
        )
        code = main(["compare", "--input", str(data), "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "no ensemble metadata" in capsys.readouterr().err


def test_compare_refuses_to_overwrite_its_input(tmp_path, r2_run, capsys):
    code = main(["compare", "--input", str(r2_run), "--out", str(r2_run)])
    assert code == 1
    assert "refusing to overwrite" in capsys.readouterr().err


def test_compare_rejects_a_short_row(tmp_path, r2_run, capsys):
    data = tmp_path / "short.csv"
    data.write_text(r2_run.read_text() + "1.0\n")
    Path(str(data) + ".manifest.json").write_text(Path(str(r2_run) + ".manifest.json").read_text())
    code = main(["compare", "--input", str(data), "--out", str(tmp_path / "c.csv"), *TINY])
    assert code == 1
    assert "too few cells" in capsys.readouterr().err
    # a missing input, an empty CSV and a header-only CSV, each with a valid manifest
    header = r2_run.read_text().splitlines()[0]
    inputs = ((None, "does not exist"), ("", "is empty"), (header + "\n", "no data rows"))
    for k, (text, message) in enumerate(inputs):
        data = tmp_path / f"input{k}.csv"
        Path(str(data) + ".manifest.json").write_text(Path(str(r2_run) + ".manifest.json").read_text())
        if text is not None:
            data.write_text(text)
        code = main(["compare", "--input", str(data), "--out", str(tmp_path / "c.csv"), *TINY])
        assert code == 1
        assert message in capsys.readouterr().err


def test_compare_rejects_wrong_columns(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("a,b\n1,2\n")
    Path(str(data) + ".manifest.json").write_text(
        json.dumps({"config": {"estimator": "r2", "ensemble": {"v": 8}}})
    )
    code = main(["compare", "--input", str(data), "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert "expected" in capsys.readouterr().err


# --------------------------------------------------------------- exit codes --


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["gen", "--v", "0", "--out", str(tmp_path / "g.json")]) == 2
    assert main(["gen", "--v", "3", "--unknown-flag"]) == 2
    assert main(["no-such-command"]) == 2
    assert (
        main(
            [
                "empirical",
                "r2",
                "--v", "8",
                "--realizations", "1",
                "--lambda-max", "30",
                "--x-grid", "1:0:0.5",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        == 2
    )
    ensemble = ["empirical", "r2", "--v", "8", "--realizations", "1", "--lambda-max", "30"]
    for grid in ("0:1", "a:b:c"):
        assert main([*ensemble, "--x-grid", grid, "--out", str(tmp_path / "r.csv")]) == 2
    f_table = ["analytic", "f", "--out", str(tmp_path / "f.csv")]
    for flags in (
        ["--tau-max", "1.5"],
        ["--tau-max", "0"],
        ["--step", "0"],
        ["--tau-max", "0.5", "--step", "0.6"],
    ):
        assert main([*f_table, *flags]) == 2
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "f.csv").exists()
    capsys.readouterr()


def test_invalid_truncation_and_ensemble_values_exit_two(tmp_path, capsys):
    assert main(["analytic", "k", "--tau", "0.1", "--quad", "50"]) == 2
    # refused before any table is built: its Bessel arguments would pass 100
    trunc = ["--j-max", "3", "--m-max", "4", "--tau-cutoff", "11"]
    assert main(["analytic", "r3", "--x", "0.5", "--y", "1", *trunc]) == 2
    ensemble = ["empirical", "r2", "--v", "8", "--realizations", "1", "--lambda-max", "30"]
    out = ["--out", str(tmp_path / "r.csv")]
    assert main([*ensemble, "--threads", "0", *out]) == 2
    assert main([*ensemble, "--kernel-width", "0", *out]) == 2
    assert main(["empirical", "r3", "--v", "0", "--realizations", "1", "--lambda-max", "30", *out]) == 2
    assert main([*ensemble[:-1], "inf", *out]) == 2
    assert main([*ensemble[:-1], "nan", *out]) == 2
    assert main(["gen", "--v", "3", "--seed", "1", "--out", str(tmp_path / "g.json")]) == 0
    for cutoff in ("inf", "nan"):
        assert main(["spectrum", "--graph", str(tmp_path / "g.json"), "--lambda-max", cutoff, *out]) == 2
    trace = ["trace-check", "--v", "3", "--kmax", "2", "--lambda-max", "10", *out]
    for flag in ("--lambda-max", "--lambda-min", "--step", "--sigma"):
        for value in ("inf", "nan"):
            assert main([*trace, flag, value]) == 2
    for flags in (
        ["--sigma", "0"],
        ["--kmax", "-1"],
        ["--step", "0"],
        ["--lambda-min", "10", "--lambda-max", "5"],
    ):
        assert main([*trace, *flags]) == 2
    assert not (tmp_path / "r.csv").exists()
    capsys.readouterr()


def test_nonfinite_values_exit_two(tmp_path, capsys):
    out = ["--out", str(tmp_path / "r.csv")]
    ensemble = ["empirical", "r2", "--v", "8", "--realizations", "1", "--lambda-max", "30"]
    for grid in ("0:inf:0.5", "0:nan:0.5", "-inf:1:0.5", "0:1:inf"):
        assert main([*ensemble, "--x-grid", grid, *out]) == 2
    r3 = ["empirical", "r3", "--v", "8", "--realizations", "1", "--lambda-max", "30"]
    assert main([*r3, "--x-grid", "0.5:1:0.5", "--y-grid", "0:1:inf", *out]) == 2
    for value in ("inf", "nan"):
        assert main([*ensemble, "--kernel-width", value, *out]) == 2
        assert main(["analytic", "r3", "--x", "0.5", "--y", "1", "--tau-cutoff", value]) == 2
        assert main(["analytic", "k", "--tau", "0.1", "--tau-cutoff", value]) == 2
        assert main(["analytic", "k", "--tau", value]) == 2
        assert main(["analytic", "r2", "--x", value]) == 2
        assert main(["analytic", "r3", "--x", value, "--y", "1"]) == 2
        assert main(["analytic", "r3", "--x", "0.5", "--y", value]) == 2
    assert not (tmp_path / "r.csv").exists()
    assert "nan" not in capsys.readouterr().out


ENSEMBLE = ("--v", "8", "--realizations", "1", "--lambda-max", "30")


@pytest.mark.parametrize(
    "argv",
    [
        ["empirical", "r2", *ENSEMBLE, "--x-grid", "0:1e300:1e-300"],
        ["empirical", "r2", *ENSEMBLE, "--x-grid", "0:1e9:1e-9"],
        ["expansion-table", "--step", "1e-12", "--tau-max", "0.06"],
        ["analytic", "f", "--step", "1e-300"],
        # each axis fits, but the 8e14-byte square or 2e14-byte (x, y) product does not
        ["analytic", "f", "--tau-max", "1", "--step", "1e-7"],
        ["empirical", "r3", *ENSEMBLE, "--x-grid", "0:5e6:1", "--y-grid", "0:5e6:1"],
    ],
    ids=[
        "r2-overflow", "r2-x-grid", "expansion-table", "analytic-f", "analytic-f-square", "r3-product"
    ],
)
def test_grid_over_the_point_cap_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "grid points" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))
