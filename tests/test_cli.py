import csv
import json
import math

import pytest

from uil.analytic import evaluate_metrics
from uil.cli import CSV_COLUMNS, main
from uil.params import InterferometerParams

BALANCED = ["--theta1", repr(math.pi / 4), "--theta2", repr(math.pi / 4), "--phi", repr(math.pi / 2)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# metrics


def test_metrics_balanced_point(capsys):
    code, out, _ = run(capsys, "metrics", *BALANCED, "--alpha", "1")
    assert code == 0
    record = json.loads(out)
    assert list(record) == list(CSV_COLUMNS)
    assert record["rho_fluctuation"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert record["rho_intensity"] == pytest.approx(2.0, rel=1e-12)
    assert record["delta_phi"] == pytest.approx(1.0, rel=1e-12)


def test_metrics_rounded_angle_flags(capsys):
    code, out, _ = run(
        capsys,
        "metrics",
        "--theta1", "0.7853981634",
        "--theta2", "0.7853981634",
        "--phi", "1.5707963268",
        "--alpha", "1",
    )
    assert code == 0
    assert json.loads(out)["rho_fluctuation"] == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_metrics_no_probe_light_limit_policy(capsys):
    code, out, _ = run(
        capsys, "metrics", "--theta1", "0", "--theta2", "0.785", "--phi", "1.57", "--alpha", "1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["delta_phi"] == "inf"
    assert record["rho_intensity"] == 0.0
    expected = 2.0 * math.sin(2 * 0.785) * math.sin(1.57)
    assert record["rho_fluctuation"] == pytest.approx(expected, rel=1e-12)


def test_metrics_vacuum_input(capsys):
    code, out, _ = run(capsys, "metrics", *BALANCED, "--alpha", "0")
    assert code == 0
    record = json.loads(out)
    for key in ("mean_O", "std_O", "intensity_probe", "std_intensity_probe", "alpha_abs"):
        assert record[key] == 0.0
    assert record["delta_phi"] == "inf"


def test_metrics_complex_amplitude_flags(capsys):
    code, out, _ = run(capsys, "metrics", *BALANCED, "--alpha-re", "0.6", "--alpha-im", "0.8")
    assert code == 0
    assert json.loads(out)["alpha_abs"] == pytest.approx(1.0, rel=1e-14)


def test_metrics_output_file_with_manifest(capsys, tmp_path):
    path = tmp_path / "point.json"
    code, _, _ = run(capsys, "metrics", *BALANCED, "--output", str(path))
    assert code == 0
    record = json.loads(path.read_text())
    assert record["visibility"] == 1.0
    manifest = json.loads((tmp_path / "point.json.manifest.json").read_text())
    assert manifest["command"] == "metrics"
    assert manifest["parameters"]["theta1"] == pytest.approx(math.pi / 4)


# usage errors


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "metrics", "--bogus", "1")
    assert code == 2


def test_invalid_eta_is_usage_error(capsys):
    code, _, err = run(capsys, "metrics", *BALANCED, "--eta", "0")
    assert code == 2
    assert "eta" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_help_exits_cleanly(capsys):
    for sub in ("metrics", "sweep", "optimize", "verify"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "--" in out


# sweep


def test_sweep_small_grid_csv_roundtrip(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--axis", "theta1=0.1:1.2:4",
        "--axis", "phi=0.3:2.1:3",
        "--theta2", "0.6",
        "--kappa", "0.2",
        "--output", str(path),
    )
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12
    assert list(rows[0]) == list(CSV_COLUMNS)
    # row-major: first axis varies slowest
    assert rows[0]["theta1"] == rows[1]["theta1"] == rows[2]["theta1"]
    assert rows[0]["phi"] != rows[1]["phi"]
    for row in rows:
        params = InterferometerParams(
            theta1=float(row["theta1"]),
            theta2=float(row["theta2"]),
            phi=float(row["phi"]),
            kappa=float(row["kappa"]),
            eta=float(row["eta"]),
            alpha=float(row["alpha_abs"]),
        )
        recomputed = evaluate_metrics(params).as_dict()
        for key, value in recomputed.items():
            assert float(row[key]) == pytest.approx(value, abs=1e-12, rel=1e-12)
        assert float(row["transmission"]) == pytest.approx(math.exp(-0.2), rel=1e-15)


def test_sweep_preset_shape_and_frozen_row(capsys, tmp_path):
    path = tmp_path / "surface.csv"
    code, _, _ = run(capsys, "sweep", "--output", str(path))
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 40 * 60
    last_block = rows[-60:]  # transmission = 1.0 comes last
    assert float(last_block[0]["transmission"]) == 1.0
    assert float(last_block[0]["theta1"]) == 0.01
    assert float(last_block[0]["rho_fluctuation"]) == pytest.approx(
        2.0 * math.cos(0.01), rel=1e-12
    )


def test_sweep_byte_determinism(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--axis", "theta1=0:1.5:5", "--axis", "kappa=0:1:4"]
    assert run(capsys, *args, "--output", str(first))[0] == 0
    assert run(capsys, *args, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert m1["sha256"] == m2["sha256"]
    m1.pop("created"), m2.pop("created")
    m1.pop("output"), m2.pop("output")
    assert m1 == m2


def test_sweep_manifest_checksum_matches_file(capsys, tmp_path):
    import hashlib

    path = tmp_path / "grid.csv"
    run(capsys, "sweep", "--axis", "eta=0.5:1:3", "--output", str(path))
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["parameters"]["axes"] == ["eta=0.5:1:3"]


def test_sweep_json_format_serializes_infinities(capsys, tmp_path):
    path = tmp_path / "grid.json"
    code, _, _ = run(
        capsys,
        "sweep",
        "--axis", "theta1=0:1.2:3",
        "--format", "json",
        "--output", str(path),
    )
    assert code == 0
    rows = json.loads(path.read_text())
    assert len(rows) == 3
    assert rows[0]["delta_phi"] == "inf"
    assert all(list(row) == list(CSV_COLUMNS) for row in rows)


def test_sweep_conflicting_fixed_and_swept_parameter(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "sweep",
        "--axis", "theta1=0:1:3",
        "--theta1", "0.5",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "fixed and swept" in err


def test_sweep_transmission_axis_conflicts_with_kappa(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "sweep",
        "--axis", "transmission=0.5:1:3",
        "--kappa", "0.2",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "axis",
    ["theta1=0:1:1", "bogus=0:1:4", "theta1=0:1", "transmission=0:1:4", "eta=0:1:3"],
)
def test_sweep_rejects_bad_axes(capsys, tmp_path, axis):
    code, _, _ = run(capsys, "sweep", "--axis", axis, "--output", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_requires_output(capsys):
    code, _, err = run(capsys, "sweep", "--axis", "theta1=0:1:3")
    assert code == 2
    assert "--output" in err


def test_sweep_unwritable_path_is_io_error(capsys, tmp_path):
    code, _, _ = run(
        capsys, "sweep", "--axis", "theta1=0:1:3",
        "--output", str(tmp_path / "no-such-dir" / "x.csv"),
    )
    assert code == 3


# optimize


def test_optimize_equal_splitters_report(capsys):
    code, out, _ = run(capsys, "optimize", "--objective", "rho-di", "--regime", "equal-splitters")
    assert code == 0
    report = json.loads(out)
    assert report["theta1"] == pytest.approx(0.615480, abs=1e-5)
    assert report["value"] == pytest.approx(1.539601, abs=1e-5)
    assert report["boundary_supremum"] is False


def test_optimize_fixed_mixer_boundary(capsys):
    code, out, _ = run(capsys, "optimize", "--objective", "rho-di", "--regime", "fixed-mixer")
    assert code == 0
    report = json.loads(out)
    assert report["boundary_supremum"] is True
    assert report["theta1"] == 0.0
    assert report["value"] == pytest.approx(2.0, abs=1e-9)


def test_optimize_unbounded_intensity_still_succeeds(capsys):
    code, out, _ = run(capsys, "optimize", "--objective", "rho-i", "--regime", "free")
    assert code == 0
    report = json.loads(out)
    assert report["unbounded"] is True
    assert report["value"] == "inf"


def test_optimize_free_phi_flag(capsys):
    code, out, _ = run(
        capsys,
        "optimize", "--objective", "rho-di", "--regime", "equal-splitters", "--free-phi",
        "--tol", "1e-6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == pytest.approx(math.pi / 2, abs=1e-4)


def test_optimize_rejects_unknown_objective(capsys):
    assert run(capsys, "optimize", "--objective", "rho-x", "--regime", "free")[0] == 2


# verify


def test_verify_small_run_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--alpha", "0.6", "--cutoff", "14", "--samples", "4",
        "--seed", "3", "--tol", "1e-8",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_vacuum_has_zero_deviation(capsys):
    code, out, _ = run(capsys, "verify", "--alpha", "0", "--cutoff", "6", "--samples", "3")
    assert code == 0
    assert "max deviation 0.000e+00" in out


def test_verify_truncation_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--alpha", "3", "--cutoff", "10", "--samples", "2")
    assert code == 4
    assert "n_max" in err


def test_verify_env_default_cutoff(capsys, monkeypatch):
    monkeypatch.setenv("UIL_DEFAULT_CUTOFF", "13")
    code, out, _ = run(capsys, "verify", "--alpha", "0.5", "--samples", "2", "--seed", "1")
    assert code == 0
    assert "n_max = 13" in out


def test_verify_explicit_cutoff_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("UIL_DEFAULT_CUTOFF", "13")
    code, out, _ = run(
        capsys, "verify", "--alpha", "0.5", "--cutoff", "15", "--samples", "2"
    )
    assert code == 0
    assert "n_max = 15" in out


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--alpha", "0.6", "--cutoff", "14", "--samples", "3",
        "--tol", "1e-300",
    )
    assert code == 1
    assert "FAIL" in out


# config file precedence


def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep point\n"
        "theta1 = 0.3\n"
        "theta2 = 0.4\n"
        "phi = 1.0\n"
        "alpha = 2.0\n"
    )
    code, out, _ = run(capsys, "metrics", "--config", str(config))
    assert code == 0
    record = json.loads(out)
    assert record["theta1"] == 0.3
    assert record["alpha_abs"] == 2.0

    code, out, _ = run(capsys, "metrics", "--config", str(config), "--theta1", "0.9")
    record = json.loads(out)
    assert record["theta1"] == 0.9  # flag beats config
    assert record["theta2"] == 0.4  # config beats default


def test_config_rejects_malformed_line(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("theta1 0.3\n")
    assert run(capsys, "metrics", "--config", str(config))[0] == 2


def test_config_rejects_unknown_key(capsys, tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("thetal = 0.3\n")
    code, out, err = run(capsys, "metrics", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "thetal" in err
    # keys are checked per subcommand: samples belongs to verify only
    config.write_text("samples = 2\nalpha = 0.5\n")
    assert run(capsys, "metrics", "--config", str(config))[0] == 2
    code, out, _ = run(capsys, "verify", "--config", str(config), "--cutoff", "12")
    assert code == 0
    assert "2 samples, |alpha| = 0.5" in out


def test_config_resolved_set_echoed_in_manifest(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("kappa = 0.5\n")
    path = tmp_path / "out.json"
    run(capsys, "metrics", "--config", str(config), "--output", str(path))
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["parameters"]["kappa"] == 0.5
