import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings

import uil.cli
import uil.params
from render_oracle import render_csv, render_json
from uil.analytic import evaluate_metrics, metrics_values
from uil.cli import CSV_COLUMNS, RENDER_BLOCK_ROWS, RENDER_PIECE_ROWS, main
from uil.params import InterferometerParams

BALANCED = ["--theta1", repr(math.pi / 4), "--theta2", repr(math.pi / 4), "--phi", repr(math.pi / 2)]

# the README's CSV schema, as a fixed list
CSV_HEADER = (
    "theta1",
    "theta2",
    "phi",
    "kappa",
    "transmission",
    "eta",
    "alpha_abs",
    "mean_O",
    "std_O",
    "delta_phi",
    "intensity_probe",
    "std_intensity_probe",
    "rho_intensity",
    "rho_fluctuation",
    "visibility",
)


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


@pytest.mark.parametrize("theta1", [None, 0.0])  # the default point, and one with delta_phi = inf
def test_metrics_csv_matches_row_oracle_byte_for_byte(capsys, tmp_path, theta1):
    flags = [] if theta1 is None else ["--theta1", repr(theta1)]
    point = {k: d for k, (d, _) in uil.cli.PARAMETERS.items()} | ({} if theta1 is None else {"theta1": theta1})
    params = InterferometerParams(
        theta1=point["theta1"], theta2=point["theta2"], phi=point["phi"], kappa=point["kappa"],
        eta=point["eta"], alpha=complex(point["alpha_re"], point["alpha_im"]),
    )
    columns = {name: np.array([value]) for name, value in dataclasses.asdict(evaluate_metrics(params)).items()}
    columns.update(
        {name: np.array([point[name]]) for name in ("theta1", "theta2", "phi", "kappa", "eta")},
        transmission=np.exp(-np.array([point["kappa"]])),
        alpha_abs=np.array([abs(params.alpha)]),
    )
    want = render_csv(columns, CSV_COLUMNS)
    assert ("inf" in want) == bool(flags)
    code, out, _ = run(capsys, "metrics", "--format", "csv", *flags)
    assert code == 0
    assert out == want
    path = tmp_path / "point.csv"
    assert run(capsys, "metrics", "--format", "csv", *flags, "--output", str(path))[0] == 0
    assert path.read_bytes() == want.encode()


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


def test_csv_columns_are_the_readme_schema():
    # CSV_COLUMNS is derived from the domain table and the metrics fields;
    # it must stay the fixed header the README documents
    assert CSV_COLUMNS == CSV_HEADER
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    schema = re.search(r"header\s+row\): `([^`]*)`", readme).group(1)
    assert tuple(re.sub(r"\s", "", schema).split(",")) == CSV_HEADER


def test_flags_and_config_keys_are_the_readme_lists(capsys, tmp_path):
    # one parameter table builds each subcommand's flags and config keys;
    # they must stay the lists the README's CLI section documents
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    text = " ".join(readme.split())

    def listed(pattern):
        return set(re.search(pattern + r" `([^`]*)`", text).group(1).split())

    point = listed("share the flags")
    io_flags = listed(r"\(`--alpha` is shorthand for `--alpha-re`\), plus")
    assert "--alpha" not in point
    want_flags = {
        "metrics": point | io_flags | {"--alpha"},
        "sweep": point | io_flags | {"--alpha"} | listed("`sweep` also takes"),
        "optimize": ((point | io_flags | {"--alpha"}) - listed("`optimize` takes the same flags but"))
        | listed("It also takes"),
        "verify": listed("`verify` takes"),
    }
    keys = {flag[2:].replace("-", "_") for flag in point}
    accept_alpha = listed("all accept")
    want_keys = {
        "metrics": keys | accept_alpha,
        "sweep": keys | accept_alpha,
        "optimize": (keys - listed("`optimize` all of them but")) | accept_alpha,
        "verify": listed("`verify` accepts") | accept_alpha,
    }
    subparsers = uil.cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(subparsers) == sorted(want_flags)
    config = tmp_path / "typo.cfg"
    config.write_text("thetal = 0.3\n")
    required = {"optimize": ["--objective", "rho-di", "--regime", "free"]}
    for command, parser in subparsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        assert flags == want_flags[command], command
        code, _, err = run(capsys, command, *required.get(command, []), "--config", str(config))
        assert code == 2, command
        assert set(re.findall(r"'(\w+)'", err.split("accepted:")[1])) == want_keys[command], command


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
        recomputed = dataclasses.asdict(evaluate_metrics(params))
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
    # grids of more than one block are hashed as they stream out
    for fmt in ("csv", "json"):
        path = tmp_path / f"big.{fmt}"
        code, _, _ = run(
            capsys, "sweep", "--axis", "theta1=0:1.5:50", "--axis", "kappa=0:2:50",
            "--format", fmt, "--output", str(path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / f"big.{fmt}.manifest.json").read_text())
        assert manifest["parameters"]["rows"] == 2500 > RENDER_BLOCK_ROWS
        assert manifest["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


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
    [
        "theta1=0:1:1", "bogus=0:1:4", "theta1=0:1", "transmission=0:1:4", "eta=0:1:3",
        "theta1=0:nan:3", "phi=0:inf:3", "kappa=0:inf:3",
    ],
)
def test_sweep_rejects_bad_axes(capsys, tmp_path, axis):
    code, _, _ = run(capsys, "sweep", "--axis", axis, "--output", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_axis_whose_span_overflows(capsys, tmp_path):
    # finite ends whose difference overflows are a valid axis: each row is
    # the metrics of its point, and no value is NaN, nor any warning raised
    path = tmp_path / "wide.csv"
    axes = ["--axis", "theta1=-1.7976931348623157e308:1.7976931348623157e308:5", "--axis", "theta2=-1.7e308:1.7e308:3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", *axes, "--output", str(path))
        assert (code, out, err) == (0, "", "")
        header, *rows = path.read_text().splitlines()
        assert len(rows) == 15
        for row in rows:
            theta1, theta2 = row.split(",")[:2]
            code, out, err = run(capsys, "metrics", "--format", "csv", f"--theta1={theta1}", f"--theta2={theta2}")
            assert (code, err) == (0, "")
            assert out == f"{header}\n{row}\n"


def test_negative_exponent_value_in_the_equals_form(capsys):
    # some argparse versions read -1e-3 as an option; --phi=-1e-3 is the
    # same value as --phi -0.001 on every version
    want = run(capsys, "metrics", "--phi", "-0.001")
    assert want[0] == 0
    assert run(capsys, "metrics", "--phi=-1e-3") == want


def test_verify_usage_and_config_errors_keep_their_order(capsys, tmp_path):
    # verify's usage line lists its flags in their documented order, and a
    # config file with several bad values names the first in table order
    code, _, err = run(capsys, "verify", "--cutoff", "abc")
    assert code == 2
    usage = err.split("uil verify: error:")[0]
    flags = ["--alpha", "--alpha-re", "--alpha-im", "--cutoff", "--samples", "--seed", "--tol", "--config"]
    assert re.findall(r"\[(--[\w-]+)", usage) == flags
    config = tmp_path / "bad.cfg"
    config.write_text("cutoff = x\nsamples = y\n")
    code, _, err = run(capsys, "verify", "--config", str(config))
    assert code == 2
    assert "config value for 'samples'" in err


@pytest.mark.parametrize(
    "flag, value, axis, message",
    [
        ("--eta", "0", "eta=0:1:3", "eta must be in (0, 1], got 0.0"),
        ("--kappa", "-1", "kappa=-1:1:3", "kappa must be finite and >= 0, got -1.0"),
        ("--phi", "nan", "phi=0:nan:3", "phi must be finite, got nan"),
        ("--phi", "inf", "phi=0:inf:3", "phi must be finite, got inf"),
    ],
)
def test_one_domain_message_from_every_entry_point(capsys, tmp_path, flag, value, axis, message):
    optimize = ["optimize", "--objective", "rho-di", "--regime", "free"]
    sweep = ["sweep", "--axis", axis, "--output", str(tmp_path / "x.csv")]
    runs = {"metrics": ["metrics", flag, value], "optimize": [*optimize, flag, value], "sweep": sweep}
    for command, argv in runs.items():
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), command
        assert err == f"uil {command}: invalid value: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "axes", [["theta1=0:1:10000000000000"], ["theta1=0:1:3000000", "kappa=0:1:3000000"]]
)
def test_sweep_refuses_a_grid_beyond_physical_memory(capsys, tmp_path, axes):
    # 15 columns of 8 bytes per row, 1.2e15 and 1.08e15 bytes: refused
    # before any axis is spaced out
    path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "sweep", *(arg for axis in axes for arg in ("--axis", axis)), "--output", str(path))
    assert code == 2
    assert out == ""
    assert "physical memory" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_memory_bound_counts_the_columns(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: 8 * len(CSV_COLUMNS) * 100)
    assert run(capsys, "sweep", "--axis", "theta1=0:1:100", "--output", str(tmp_path / "fits.csv"))[0] == 0
    code, _, err = run(capsys, "sweep", "--axis", "theta1=0:1:101", "--output", str(tmp_path / "big.csv"))
    assert code == 2
    assert f"a grid of 101 rows needs at least {8 * len(CSV_COLUMNS) * 101} bytes" in err
    assert not (tmp_path / "big.csv").exists()


def test_sweep_that_exhausts_the_process_memory_exits_2(tmp_path):
    # a machine whose physical memory would hold the grid, in a process
    # limited to 4 GiB of address space: the 8 GB theta1 axis cannot be
    # allocated, which is a one-line message and exit 2, not a traceback
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    script = (
        "import sys, uil.cli, uil.params\n"
        "uil.params.physical_memory_bytes = lambda: 10**15\n"
        "sys.exit(uil.cli.main(sys.argv[1:]))\n"
    )
    path = tmp_path / "grid.csv"
    done = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--axis", "theta1=0:1:1000000000", "--output", str(path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("uil sweep: out of memory: ")
    assert done.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_traced_peak_per_row(tmp_path):
    # the kernel runs on the open grid and each column is formatted from
    # its own values, so a sweep holds little more than its computed
    # columns: about 106 bytes a row traced at 300 x 300
    def sweep(steps, name):
        axes = ["--axis", f"kappa=0:3:{steps}", "--axis", f"theta1=0:1.5707963267948966:{steps}"]
        return main(["sweep", *axes, "--output", str(tmp_path / name)])

    assert sweep(5, "warm.csv") == 0  # loads the repr tables and hashlib
    tracemalloc.start()
    try:
        assert sweep(300, "grid.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 140 * 300 * 300


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
    for fmt in ("csv", "json"):  # also where the output would take several blocks
        code, _, _ = run(
            capsys, "sweep", "--axis", "theta1=0:1:50", "--axis", "kappa=0:2:50", "--format", fmt,
            "--output", str(tmp_path / "no-such-dir" / f"x.{fmt}"),
        )
        assert code == 3
    assert list(tmp_path.iterdir()) == []


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
    # at kappa = 740, T is subnormal but positive: still unbounded
    for flags in ([], ["--kappa", "740"], ["--regime", "fixed-mixer", "--kappa", "740"]):
        code, out, _ = run(capsys, "optimize", "--objective", "rho-i", "--regime", "free", *flags)
        assert code == 0
        report = json.loads(out)
        assert report["unbounded"] is True
        assert report["value"] == "inf"


def test_optimize_free_phi_flag(capsys):
    code, out, _ = run(
        capsys,
        "optimize", "--objective", "rho-di", "--regime", "equal-splitters", "--free-phi",
    )
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == math.pi / 2


def test_optimize_rejects_unknown_objective(capsys):
    assert run(capsys, "optimize", "--objective", "rho-x", "--regime", "free")[0] == 2


def test_optimize_reports_flat_boundary_supremum(capsys):
    # each objective is flat to the last ulp near theta1 = 0 here; the
    # supremum must still be reported on the boundary
    for flags in (
        ["--objective", "rho-di", "--regime", "fixed-mixer",
         "--kappa", "1.6100058474907604", "--eta", "0.8635733553814222"],
        ["--objective", "rho-i", "--regime", "equal-splitters",
         "--kappa", "2.6643549619775397", "--eta", "0.45810859989212704",
         "--alpha", "0.6362977057552655", "--phi", "1.725380260817939"],
    ):
        code, out, _ = run(capsys, "optimize", *flags)
        assert code == 0
        report = json.loads(out)
        assert report["boundary_supremum"] is True
        assert report["theta1"] == 0.0


def test_optimize_refuses_tolerance_and_bad_operating_points(capsys, tmp_path):
    # the optimum is a formula, with no tolerance to set
    config = tmp_path / "run.cfg"
    config.write_text("tol = 1e-8\n")
    base = ["optimize", "--objective", "rho-di", "--regime", "equal-splitters"]
    for flags in (["--tol", "1e-17"], ["--config", str(config)], ["--eta", "0"], ["--phi", "nan"]):
        code, _, err = run(capsys, *base, *flags)
        assert code == 2, flags
        assert err


def test_optimize_refuses_the_flags_it_does_not_read(capsys, tmp_path):
    # optimize chooses the angles and writes JSON: --theta1, --theta2 and
    # --format, and the theta1 and theta2 config keys, which it once took and
    # ignored, exit 2 with no file written; its manifest records what it reads
    base = ["optimize", "--objective", "rho-di", "--regime", "equal-splitters"]
    output = tmp_path / "o.csv"
    refused = [["--theta1", "0.3"], ["--theta2", "0.3"], ["--format", "csv"], ["--format", "json"]]
    for key in ("theta1", "theta2"):
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = 0.3\n")
        refused.append(["--config", str(config)])
    for flags in refused:
        code, out, err = run(capsys, *base, *flags, "--output", str(output))
        assert (code, out) == (2, ""), flags
        assert err, flags
        assert sorted(path.name for path in tmp_path.iterdir()) == ["theta1.cfg", "theta2.cfg"], flags
    assert run(capsys, *base, "--output", str(output))[0] == 0
    with open(f"{output}.manifest.json", encoding="utf-8") as handle:
        parameters = json.load(handle)["parameters"]
    assert sorted(parameters) == ["alpha_im", "alpha_re", "eta", "kappa", "objective", "phi", "regime"]


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


def test_verify_config_default_cutoff(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--samples", "1")
    assert code == 0
    assert "cutoff n_max = 40" in out
    config = tmp_path / "run.cfg"
    config.write_text("cutoff = 13\n")
    code, out, _ = run(capsys, "verify", "--config", str(config), "--alpha", "0.5", "--samples", "2", "--seed", "1")
    assert code == 0
    assert "n_max = 13" in out


def test_verify_explicit_cutoff_beats_config(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cutoff = 13\n")
    code, out, _ = run(
        capsys, "verify", "--config", str(config), "--alpha", "0.5", "--cutoff", "15", "--samples", "2"
    )
    assert code == 0
    assert "n_max = 15" in out


def test_verify_rejects_a_cutoff_below_one(capsys):
    for cutoff in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--cutoff", cutoff, "--samples", "1")
        assert code == 2, cutoff
        assert out == ""
        assert "n_max must be an integer >= 1" in err


def test_verify_refuses_an_amplitude_whose_square_overflows(capsys):
    code, _, err = run(capsys, "verify", "--alpha", "1e200", "--samples", "1")
    assert code == 2
    assert "double range" in err


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--alpha", "0.6", "--cutoff", "14", "--samples", "3",
        "--tol", "1e-300",
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "tol must be > 0, got nan"),
        ("--tol", "0", "tol must be > 0, got 0.0"),
        ("--tol", "-1", "tol must be > 0, got -1.0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--alpha", "nan", "invalid value: alpha_abs must be finite and >= 0, got nan"),
    ],
)
def test_verify_refuses_out_of_range_keys(capsys, flag, value, message):
    code, out, err = run(capsys, "verify", "--alpha", "1", "--cutoff", "12", "--samples", "2", flag, value)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "alpha, cutoff, tol, needed",
    [("10", "170", "1e-8", 171), ("3", "35", "1e-9", 36), ("3", "10", "1e-8", 34)],
)
def test_verify_refuses_cutoff_its_truncation_would_fail(capsys, alpha, cutoff, tol, needed):
    # the tail beyond 170 is below 1e-10, yet it shifts the drive's standard
    # deviation by 1.7e-8; at |alpha| = 3 and n_max = 35 by 1.1e-9
    code, _, err = run(
        capsys, "verify", "--alpha", alpha, "--cutoff", cutoff, "--samples", "1", "--tol", tol
    )
    assert code == 4
    assert f"use n_max >= {needed}" in err


def test_verify_passes_at_the_cutoff_it_names(capsys):
    code, out, _ = run(
        capsys, "verify", "--alpha", "3", "--cutoff", "36", "--samples", "30",
        "--seed", "2", "--tol", "1e-9",
    )
    assert code == 0, out
    assert "PASS" in out


def verify_process(*argv, timeout=120):
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "uil", "verify", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("alpha, cutoff", [(12, 230), (15, 333)])
def test_verify_passes_at_the_cutoff_it_names_for_large_drives(alpha, cutoff):
    # the cutoffs named by the exact moment shifts of the truncated drive;
    # the earlier model of those shifts named 229 and 330, where verify
    # failed at 1.3e-8 and 2.8e-8 (a process of its own, as a user runs it)
    assert uil.fock.required_cutoff(alpha, 1e-8) == cutoff
    done = verify_process("--alpha", str(alpha), "--cutoff", str(cutoff), "--samples", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PASS" in done.stdout


def test_verify_prints_what_the_benchmark_reads():
    # the verify-fock workload's command; its check wants exit 0, a PASS
    # verdict and exactly four deviation lines, each below the tolerance
    done = verify_process("--alpha", "3", "--cutoff", "36", "--samples", "10", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PASS" in done.stdout
    deviations = re.findall(r"max \|analytic - simulator\| = (\S+)", done.stdout)
    assert len(deviations) == 4
    assert all(float(deviation) < 1e-8 for deviation in deviations)


def test_verify_refuses_a_drive_beyond_the_cutoff_at_once():
    # |alpha|^2 = 1e20 > n_max = 40: refused before the Poisson-tail search,
    # whose work grows with |alpha|; at n_max = 1e20 one point's arrays on
    # the drive's weights up to its mean exceed physical memory, refused
    # before the Poisson tail
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    for cutoff, message in [
        ("40", "n_max must exceed |alpha|^2"),
        (str(10**20), "192 (n + 72) at n = floor(|alpha|^2) for the drive and one point's columns, more than the"),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "uil", "verify", "--alpha", "1e10", "--cutoff", cutoff, "--samples", "1"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 4
        assert message in done.stderr


def test_verify_refuses_a_cutoff_beyond_physical_memory(capsys):
    # the drive |alpha|^2 = 10^20 at n_max = 10^20: 192 (n + 72) bytes at
    # n = 10^20, about 1.9e22; check_cutoff refuses them before any sample
    # is drawn or anything allocated, where a drive that fits would start
    # an O(n^2) sector loop
    code, out, err = run(capsys, "verify", "--alpha", "1e10", "--cutoff", str(10**20), "--samples", "1")
    assert code == 4
    assert out == ""
    needed = 192 * (10**20 + 72)
    what = "192 (n + 72) at n = floor(|alpha|^2) for the drive and one point's columns"
    assert f"|alpha|^2 = 1e+20 needs at least {needed} bytes, {what}, more than" in err
    assert "physical memory" in err


def test_verify_memory_bound_counts_one_point(capsys, monkeypatch):
    # check_cutoff counts one point of the Fock engine on the drive's
    # weights up to floor(|alpha|^2) = 9, 192 (9 + 72) bytes, whatever the
    # cutoff: one byte less is refused, and exactly that much runs
    count = 192 * (9 + 72)
    monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: count - 1)
    code, out, err = run(capsys, "verify", "--alpha", "3", "--cutoff", "40", "--samples", "1")
    assert code == 4
    assert out == ""
    assert f"needs at least {count} bytes" in err
    assert "physical memory" in err
    monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: count)
    for cutoff in ("40", str(10**6)):
        assert run(capsys, "verify", "--alpha", "3", "--cutoff", cutoff, "--samples", "1")[0] == 0


@pytest.mark.parametrize("argv", [["--cutoff", "1000000"], ["--cutoff", "100000000000", "--samples", "1"]])
def test_verify_passes_a_far_cutoff_at_the_cost_of_its_drive(argv):
    # |alpha| = 1 has 178 nonzero weights, and the engine runs on those at
    # any cutoff; when it ran on n_max + 1 of them, n_max = 2 * 10^4 took
    # 5.8 s a sample and 10^6 would have taken hours, and 10^11 was refused
    done = verify_process("--alpha", "1", *argv, timeout=20)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PASS" in done.stdout


def test_verify_passes_a_deep_drive_in_seconds():
    # |alpha| = 39 at the cutoff named for tol 1e-9: a point costs O(n_max^2),
    # where whole sector rotations took about 35 s a point
    began = time.perf_counter()
    done = verify_process("--alpha", "39", "--cutoff", "1822", "--samples", "5", "--seed", "1")
    assert time.perf_counter() - began < 10.0
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PASS" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "import uil.cli"],
        ["-m", "uil", "metrics"],
        ["-m", "uil", "verify", "--alpha", "1", "--cutoff", "12", "--samples", "1"],
    ],
)
def test_runtime_never_imports_scipy(argv):
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "numpy" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def test_importing_the_cli_loads_only_the_runtime_modules():
    # `import uil.cli` is what every invocation pays before it runs; the
    # repr kernel, hashlib, json and numpy.random load only where a data
    # file, a JSON text or a random draw needs them
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    script = (
        "import sys, uil.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'uil'))\n"
        "print(sorted({'hashlib', 'json', 'uil.floatrepr', 'numpy.random'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    package = ["uil", "uil.analytic", "uil.cli", "uil.fock", "uil.optimize", "uil.params"]
    assert done.stdout.splitlines() == [repr(package), "[]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--alpha", "1", "--cutoff", "12", "--samples", "2"],
        ["optimize", "--objective", "rho-di", "--regime", "equal-splitters"],
        ["metrics"],
    ],
)
def test_stdout_commands_load_no_hashing_random_or_repr_kernel(argv):
    # hashlib (with OpenSSL) and numpy.random cost a process about 6 MB;
    # only a data file needs a hash or the repr kernel, and verify, which
    # prints no JSON, needs no json either
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    unwanted = {"numpy.random", "hashlib", "_hashlib", "uil.floatrepr"} | ({"json"} if argv[0] == "verify" else set())
    script = (
        "import sys, uil.cli\n"
        "code = uil.cli.main(sys.argv[1:])\n"
        f"unwanted = {sorted(unwanted)!r}\n"
        "print(code, sorted(set(unwanted) & set(sys.modules)), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout
    assert done.stderr.splitlines()[-1] == "0 []", done.stderr


def test_verify_refuses_samples_beyond_physical_memory(tmp_path):
    # 10^15 samples are refused before any is drawn; before, they were
    # drawn until the process's memory ran out (here limited to 1.5 GiB)
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    script = (
        "import sys, time, uil.cli\n"
        "began = time.perf_counter()\n"
        "code = uil.cli.main(sys.argv[1:])\n"
        "print(code, time.perf_counter() - began)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "verify", "--samples", str(10**15)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, seconds = done.stdout.split()
    assert code == "2"
    assert float(seconds) < 1.0
    assert done.stderr.startswith(f"uil verify: error: {10**15} samples need at least {128 * 10**15} bytes, ")
    assert done.stderr.rstrip().endswith("bytes of physical memory")


CLI_PROCESSES = {
    "python -m uil": ["-m", "uil"],
    "console script": ["-c", "import sys; sys.argv[0] = 'uil'; from uil.cli import entry; entry()"],
}


@pytest.mark.parametrize("process", CLI_PROCESSES)
@pytest.mark.parametrize(
    "argv, code",
    [
        (["metrics", "--alpha", "2"], 0),
        (["verify", "--alpha", "1", "--cutoff", "40", "--samples", "5", "--tol", "1e-17"], 1),
        (["sweep", "--axis", "eta=0.5:1:3"], 2),
        (["metrics", "--phi", "nan"], 2),
        (["no-such-command"], 2),
        (["verify", "--alpha", "3", "--cutoff", "5", "--samples", "1"], 4),
    ],
)
def test_cli_process_exits_with_the_code_and_output_of_main(capsys, process, argv, code):
    # entry() freezes the garbage collector before it exits: the exit
    # code, stdout and stderr are those of the same call in process
    expected = run(capsys, *argv)
    assert expected[0] == code
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    done = subprocess.run(
        [sys.executable, *CLI_PROCESSES[process], *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep", "--axis", "kappa=0:3:40", "--axis", "theta1=0:1.5:60"], "grid.csv"),
        (["sweep", "--axis", "phi=0:6:50", "--format", "json"], "grid.json"),
        (["metrics", "--format", "csv", "--kappa", "0.3"], "point.csv"),
    ],
)
def test_cli_process_writes_the_bytes_of_main(capsys, tmp_path, argv, name):
    # a process ends through entry(), which skips the final garbage
    # collection; its data file and manifest hold the bytes that main()
    # writes in process, and the manifest's sha256 is the file's, so a
    # write lost at exit fails here
    import hashlib

    (tmp_path / "process").mkdir()
    (tmp_path / "main").mkdir()
    assert run(capsys, *argv, "--output", str(tmp_path / "main" / name))[0] == 0
    src = os.path.dirname(os.path.dirname(uil.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "uil", *argv, "--output", str(tmp_path / "process" / name)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    data = {side: (tmp_path / side / name).read_bytes() for side in ("main", "process")}
    manifests = {side: json.loads((tmp_path / side / f"{name}.manifest.json").read_text()) for side in data}
    assert data["process"] == data["main"]
    assert manifests["process"]["sha256"] == manifests["main"]["sha256"] == hashlib.sha256(data["main"]).hexdigest()
    for manifest in manifests.values():
        del manifest["created"]
    assert manifests["process"] == manifests["main"]


def test_verify_seed_picks_the_same_points():
    argv = ["verify", "--alpha", "0.8", "--cutoff", "16", "--samples", "3", "--seed", "11"]
    outputs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert "seed = 11" in outputs[0]


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


def test_sweep_rejects_kappa_and_transmission_axes_together(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "sweep", "--axis", "kappa=0:1:3", "--axis", "transmission=0.5:1:3",
        "--output", str(path),
    )
    assert code == 2
    assert "distinct" in err
    assert not path.exists()


def test_sweep_calls_the_kernel_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return metrics_values(*args, **kwargs)

    monkeypatch.setattr(uil.cli, "metrics_values", counting)
    code, _, _ = run(capsys, "sweep", "--output", str(tmp_path / "surface.csv"))
    assert code == 0
    assert len(calls) == 1


SWEEP_AXES = {
    "theta1": st.floats(-7.0, 7.0),
    "theta2": st.floats(-7.0, 7.0),
    "phi": st.floats(-7.0, 7.0),
    "kappa": st.floats(0.0, 800.0),
    "transmission": st.floats(0.0, 1.0, exclude_min=True),
    "eta": st.floats(0.0, 1.0, exclude_min=True),
    "alpha_abs": st.floats(0.0, 1e150),
}


@st.composite
def sweep_axes(draw):
    names = draw(st.lists(st.sampled_from(sorted(SWEEP_AXES)), min_size=1, max_size=3, unique=True))
    if {"kappa", "transmission"} <= set(names):
        names.remove("kappa")
    return [
        f"{name}={draw(SWEEP_AXES[name])!r}:{draw(SWEEP_AXES[name])!r}:{draw(st.integers(2, 4))}"
        for name in names
    ]


@given(sweep_axes())
@settings(max_examples=60)
def test_sweep_rows_equal_scalar_evaluation_bit_for_bit(axes):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "grid.csv")
        argv = ["sweep", *(arg for axis in axes for arg in ("--axis", axis)), "--output", path]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        params = InterferometerParams(
            theta1=float(row["theta1"]),
            theta2=float(row["theta2"]),
            phi=float(row["phi"]),
            kappa=float(row["kappa"]),
            eta=float(row["eta"]),
            alpha=float(row["alpha_abs"]),
        )
        for key, value in dataclasses.asdict(evaluate_metrics(params)).items():
            assert row[key] == repr(value), key


# the streamed renderer against the row-by-row oracle

SPECIAL_VALUES = [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 2.2250738585072014e-308 / 3, 1e-310]


@st.composite
def random_columns(draw, shape):
    """Columns of every kind a grid holds, from constant to all distinct.

    As ``uil.cli._columns`` gives them, each column is a broadcast view,
    over the grid ``shape``, of values along a drawn subset of its axes.
    Values are drawn as raw bit patterns (NaN excluded), so every
    exponent and the subnormals appear, and special values are mixed in.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array(draw(st.lists(
        st.sampled_from(SPECIAL_VALUES) | st.floats(allow_nan=False), min_size=1, max_size=6
    )))
    every_in = draw(st.sampled_from(CSV_COLUMNS))  # each special value, once, in this column, which spans every axis
    columns = {}
    for name in CSV_COLUMNS:
        held = tuple(size if name == every_in or draw(st.booleans()) else 1 for size in shape)
        rows = math.prod(held)
        kind = draw(st.sampled_from(["repeats", "distinct", "distinct then repeats"]))
        column = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        repeats = palette[rng.integers(0, palette.size, rows)]
        if kind == "repeats":
            column = repeats
        elif kind == "distinct then repeats":
            column[rows // 2:] = repeats[rows // 2:]
        column = np.where(np.isnan(column), repeats, column)
        sprinkled = rng.random(rows) < 0.01
        column[sprinkled] = rng.choice(SPECIAL_VALUES, int(sprinkled.sum()))
        if name == every_in:
            every = min(rows, len(SPECIAL_VALUES))
            column[rng.choice(rows, every, replace=False)] = SPECIAL_VALUES[:every]
        columns[name] = np.broadcast_to(column.reshape(held), shape)
    return columns


@pytest.mark.parametrize(
    "shape",
    [
        (1,),
        (RENDER_PIECE_ROWS - 1,),
        (RENDER_PIECE_ROWS + 1,),
        (RENDER_BLOCK_ROWS - 1,),
        (RENDER_BLOCK_ROWS,),
        (RENDER_BLOCK_ROWS + 1,),
        (2 * RENDER_BLOCK_ROWS + 1,),
        # grids on both sides of a piece and of a block, with inner axes
        # that do not divide a block, axes of length 1, and an inner axis
        # longer than a block
        (2, 255),
        (1, 3, 171),
        (7, 1, 292),
        (3, 683),
        (2, 3, 683),
        (3, RENDER_BLOCK_ROWS + 452),
    ],
    ids=lambda shape: "x".join(map(str, shape)),
)
@given(data=st.data())
@settings(max_examples=6, phases=[Phase.explicit, Phase.reuse, Phase.generate])  # a draw takes ~0.3 s: no shrinking
def test_streamed_render_matches_row_oracle_byte_for_byte(shape, data):
    columns = data.draw(random_columns(shape))
    for fmt, oracle in (("csv", render_csv), ("json", render_json)):
        got, want = b"".join(uil.cli._render_blocks(columns, fmt)).decode(), oracle(columns, CSV_COLUMNS)
        if got != want:  # name the first difference; a diff of the whole text takes minutes
            at = len(os.path.commonprefix([got, want]))
            near = slice(max(at - 60, 0), at + 60)
            pytest.fail(f"{fmt} differs at {at}: {got[near]!r} != {want[near]!r}")


# extreme inputs: every reported number is finite, inf or 0 and never NaN


def closed_forms_mp(theta1, theta2, phi, kappa, eta=1.0, alpha_abs=1.0):
    """50-digit reference in the exp(2 kappa) form, independent of the T form."""
    with mpmath.workdps(50):
        t1, t2, phi, kappa, eta, alpha = map(mpmath.mpf, (theta1, theta2, phi, kappa, eta, alpha_abs))
        growth = mpmath.exp(2 * kappa)
        noise = mpmath.sqrt(mpmath.cos(2 * t1) * (growth - 1) + growth + 1)
        sensitivity = abs(mpmath.sin(2 * t1) * mpmath.sin(2 * t2) * mpmath.sin(phi))
        delta_phi = noise / (mpmath.sqrt(2) * alpha * sensitivity * eta)
        intensity = alpha**2 * mpmath.sin(t1) ** 2
        return {
            "delta_phi": delta_phi,
            "rho_intensity": 1 / (delta_phi * intensity),
            "rho_fluctuation": 1 / (delta_phi * alpha * abs(mpmath.sin(t1))),
        }


def assert_close_mp(got, want, rel=1e-12):
    assert isinstance(got, float) and math.isfinite(got)
    assert abs(mpmath.mpf(got) - want) <= rel * abs(want)


@pytest.mark.filterwarnings("error")
def test_metrics_large_kappa_is_valid_json(capsys):
    code, out, err = run(capsys, "metrics", "--kappa", "400", "--theta1", "1.2")
    assert code == 0, err
    record = json.loads(out, parse_constant=lambda name: pytest.fail(f"bare {name} in JSON"))
    want = closed_forms_mp(1.2, math.pi / 4, math.pi / 2, 400.0)
    for key in ("delta_phi", "rho_intensity", "rho_fluctuation"):
        assert_close_mp(record[key], want[key])


def test_metrics_large_kappa_near_vanishing_reference_light(capsys):
    code, out, _ = run(capsys, "metrics", "--kappa", "20", "--theta1", "1.5707963267948966")
    assert code == 0
    record = json.loads(out)
    want = closed_forms_mp(1.5707963267948966, math.pi / 4, math.pi / 2, 20.0)
    assert_close_mp(record["delta_phi"], want["delta_phi"])
    assert_close_mp(record["rho_fluctuation"], want["rho_fluctuation"])


@pytest.mark.filterwarnings("error")
def test_metrics_huge_amplitude_overflows_only_the_moments(capsys):
    code, out, err = run(capsys, "metrics", "--alpha", "1e200")
    assert code == 0, err
    record = json.loads(out)
    assert record["intensity_probe"] == "inf"
    assert record["mean_O"] == "inf"
    want = closed_forms_mp(math.pi / 4, math.pi / 4, math.pi / 2, 0.0, alpha_abs=1e200)
    for key in ("delta_phi", "rho_intensity", "rho_fluctuation"):
        assert_close_mp(record[key], want[key])


def test_metrics_tiny_amplitude_keeps_intensity_ratio_finite(capsys):
    code, out, _ = run(capsys, "metrics", "--alpha", "1e-200", "--theta1", "0.3")
    assert code == 0
    record = json.loads(out)
    assert record["intensity_probe"] == 0.0  # |alpha|^2 sin^2 underflows
    with mpmath.workdps(50):
        intensity = mpmath.mpf(1e-200) ** 2 * mpmath.sin(mpmath.mpf(0.3)) ** 2
        want = 1 / (mpmath.mpf(record["delta_phi"]) * intensity)
    assert_close_mp(record["rho_intensity"], want)
    want = closed_forms_mp(0.3, math.pi / 4, math.pi / 2, 0.0, alpha_abs=1e-200)
    assert_close_mp(record["rho_intensity"], want["rho_intensity"])


# a NaN never reaches an output


def nan_kernel(*args, **kwargs):
    columns = metrics_values(*args, **kwargs)
    columns["mean_O"] = np.full_like(columns["mean_O"], np.nan)
    return columns


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_in_metrics_is_refused(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(uil.cli, "metrics_values", nan_kernel)
    path = tmp_path / f"point.{fmt}"
    code, out, err = run(capsys, "metrics", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "NaN" in err or "nan" in err
    assert run(capsys, "metrics", "--format", fmt, "--output", str(path))[0] == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_in_sweep_is_refused(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(uil.cli, "metrics_values", nan_kernel)
    path = tmp_path / f"grid.{fmt}"
    code, _, err = run(capsys, "sweep", "--axis", "theta1=0:1:3", "--format", fmt, "--output", str(path))
    assert code == 2
    assert "nan" in err.lower()
    assert list(tmp_path.iterdir()) == []


# --alpha is shorthand for --alpha-re, which wins when both are given


@pytest.mark.parametrize("flags, want", [(["--alpha", "0.7"], 0.7), (["--alpha", "0.7", "--alpha-re", "0.4"], 0.4)])
def test_optimize_alpha_shorthand(capsys, flags, want):
    code, out, _ = run(capsys, "optimize", "--objective", "rho-di", "--regime", "equal-splitters", *flags)
    assert code == 0
    assert json.loads(out)["alpha_abs"] == want


@pytest.mark.parametrize("flags, want", [(["--alpha", "0.7"], "0.7"), (["--alpha", "0.7", "--alpha-re", "0.4"], "0.4")])
def test_verify_alpha_shorthand(capsys, flags, want):
    code, out, _ = run(capsys, "verify", *flags, "--cutoff", "12", "--samples", "1")
    assert code == 0
    assert f"|alpha| = {want}," in out
