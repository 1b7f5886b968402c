"""Command-line surface: file formats, exit codes, determinism.

main() is exercised in process (it returns the exit code instead of
calling sys.exit), with configs written through serialize_config so the
tests track the canonical schema.  Exit codes: 0 success, 2 config or
usage, 3 integration failure, 4 axis abort, 5 verification failure,
6 ensemble drop-out budget exceeded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from pilotwave import RunConfig, parse_config_text, serialize_config
from pilotwave.cli import (
    COEFF_HEADER,
    CSV_HEADER,
    SCHEMA_VERSION,
    main,
)
from pilotwave.drive import reduce_angle
from pilotwave.engine import VERSION_TAG

R_HALF = math.sqrt(0.5)


def write_cfg(tmp_path, name="run.cfg", **overrides):
    cfg = replace(RunConfig(), **overrides)
    path = tmp_path / name
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return str(path)


def read_csv_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, {name: data[:, k] for k, name in enumerate(header)}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=50.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    header, cols = read_csv_columns(out / "trajectory.csv")
    assert ",".join(header) == CSV_HEADER
    assert cols["tau"][0] == 0.0
    assert cols["tau"][-1] == 50.0

    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert "created_utc" in doc
    assert parse_config_text(doc["config_text"]) == replace(
        RunConfig(), tau_max=50.0
    )
    assert doc["initial"] == {"xi": 4.0, "theta": 1.0, "phi": 0.0}
    assert doc["stats"]["samples"] == len(cols["tau"])


def test_trajectory_xyz_columns_recompute(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=50.0)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg_path, "--out", str(out)])
    _, cols = read_csv_columns(out / "trajectory.csv")
    st = np.sin(cols["theta"])
    assert np.max(np.abs(cols["x"] - cols["xi"] * st * np.cos(cols["phi"]))) <= 1e-12
    assert np.max(np.abs(cols["y"] - cols["xi"] * st * np.sin(cols["phi"]))) <= 1e-12
    assert np.max(np.abs(cols["z"] - cols["xi"] * np.cos(cols["theta"]))) <= 1e-12


def test_simulate_byte_deterministic_modulo_timestamp(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=30.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (
        out_b / "trajectory.csv"
    ).read_bytes()
    doc_a = json.loads((out_a / "manifest.json").read_text(encoding="utf-8"))
    doc_b = json.loads((out_b / "manifest.json").read_text(encoding="utf-8"))
    doc_a.pop("created_utc")
    doc_b.pop("created_utc")
    assert doc_a == doc_b


def test_simulate_respects_formats(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=10.0, formats=("csv",))
    out = tmp_path / "csv_only"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert not (out / "manifest.json").exists()


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_axis_abort_exit_code(tmp_path, capsys):
    # This frozen superposition drags the point over the pole; at these
    # tolerances the step sequence crosses the axis guard near tau=260.
    cfg_path = write_cfg(
        tmp_path,
        mode="frozen",
        c1_re=R_HALF,
        c2_im=-R_HALF,
        xi=0.35,
        theta=0.0011,
        tau_max=600.0,
        rel_tol=1e-6,
        abs_tol=1e-9,
    )
    code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert "axis abort" in err
    assert "tau" in err


def test_step_underflow_exit_code(tmp_path, capsys):
    # An unreachable tolerance exhausts the step-size range.
    cfg_path = write_cfg(tmp_path, rel_tol=1e-300, abs_tol=1e-300, tau_max=10.0)
    code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "integration failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_scan_starts_at_ground_state(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=100.0, output_stride=1.0)
    out = tmp_path / "out"
    assert main(["coefficients", "--config", cfg_path, "--out", str(out)]) == 0
    header, cols = read_csv_columns(out / "coefficients.csv")
    assert ",".join(header) == COEFF_HEADER
    assert len(cols["tau"]) == 101
    assert cols["tau"][0] == 0.0
    assert cols["ca_re"][0] == 1.0
    assert cols["ca_im"][0] == 0.0
    assert cols["cb_re"][0] == 0.0
    assert cols["cb_im"][0] == 0.0
    assert cols["T"][0] == 0.0
    # Unitarity along the whole scan.
    norm = cols["ca_re"] ** 2 + cols["ca_im"] ** 2 + cols["cb_re"] ** 2 + cols["cb_im"] ** 2
    assert np.max(np.abs(norm - 1.0)) < 1e-12


def test_coefficients_zero_rabi_stays_dark(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=200.0, nu_override_per_second=0.0)
    out = tmp_path / "dark"
    assert main(["coefficients", "--config", cfg_path, "--out", str(out)]) == 0
    _, cols = read_csv_columns(out / "coefficients.csv")
    assert np.all(cols["cb_sq"] == 0.0)
    # T keeps its closed form, which does not vanish with the coupling;
    # T' carries a factor nu/sigma and does.
    drive = replace(RunConfig(), nu_override_per_second=0.0).drive()
    s = drive.sigma_t * cols["tau"]
    w = reduce_angle(drive.omega_t * cols["tau"])
    closed = drive.ratio_Omega * (1.0 - np.cos(s)) * np.sin(w) - np.sin(s) * np.cos(w)
    assert np.max(np.abs(closed)) > 0.01
    assert np.max(np.abs(cols["T"] - closed)) <= 1e-15
    assert np.all(cols["Tprime"] == 0.0)


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_outputs_and_seed_override(tmp_path):
    cfg_path = write_cfg(
        tmp_path, count=300, tau_targets=(5.0,), bins=10
    )
    out = tmp_path / "ens"
    code = main(
        ["ensemble", "--config", cfg_path, "--out", str(out), "--seed", "7"]
    )
    assert code == 0

    doc = json.loads((out / "ensemble_summary.json").read_text(encoding="utf-8"))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["seed"] == 7
    assert doc["count"] == 300
    (target,) = doc["targets"]
    assert target["tau_target"] == 5.0
    assert target["dropout_count"] == 0
    assert target["divergence"] > 0.0

    lines = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tau_target,xi_lo,xi_hi,mu_lo,mu_hi,observed,expected"
    assert len(lines) == 1 + 10 * 10 + 1
    overflow = lines[-1].split(",")
    assert overflow[2] == "inf"
    observed_total = sum(float(l.split(",")[5]) for l in lines[1:])
    assert abs(observed_total - 1.0) < 1e-12


def test_ensemble_reports_targets_in_config_order(tmp_path):
    # One pass serves every target; the report keeps the config order,
    # repeats and tau = 0 included.
    cfg_path = write_cfg(tmp_path, count=300, tau_targets=(20.0, 0.0, 10.0, 10.0), bins=10)
    out = tmp_path / "order"
    assert main(["ensemble", "--config", cfg_path, "--out", str(out)]) == 0

    doc = json.loads((out / "ensemble_summary.json").read_text(encoding="utf-8"))
    at_20, at_0, at_10, again_10 = doc["targets"]
    assert [t["tau_target"] for t in doc["targets"]] == [20.0, 0.0, 10.0, 10.0]
    assert at_10 == again_10
    assert at_0["divergence"] == at_0["baseline_divergence"]
    assert at_10["dropout_count"] <= at_20["dropout_count"]

    lines = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()[1:]
    cells = 10 * 10 + 1
    blocks = [lines[i : i + cells] for i in range(0, len(lines), cells)]
    assert [float(b[0].split(",")[0]) for b in blocks] == [20.0, 0.0, 10.0, 10.0]
    assert all(len({row.split(",")[0] for row in b}) == 1 for b in blocks)
    assert blocks[2] == blocks[3]


def test_ensemble_dropout_budget_exit_code(tmp_path, capsys):
    # Frozen mode plus an unreachable tolerance underflows every
    # trajectory; the report is still written, with exit code 6.
    cfg_path = write_cfg(
        tmp_path,
        mode="frozen",
        c1_re=R_HALF,
        c2_im=-R_HALF,
        rel_tol=1e-300,
        abs_tol=1e-300,
        count=20,
        tau_targets=(10.0,),
        bins=5,
    )
    out = tmp_path / "drop"
    code = main(["ensemble", "--config", cfg_path, "--out", str(out)])
    assert code == 6
    assert "dropped out" in capsys.readouterr().err
    doc = json.loads((out / "ensemble_summary.json").read_text(encoding="utf-8"))
    (target,) = doc["targets"]
    assert target["dropout_count"] == 20
    assert target["dropout_underflow"] == 20


def test_ensemble_refuses_numeric_mode(tmp_path, capsys):
    # The ensemble steps many trajectories at once and needs amplitudes
    # in closed form; numeric mode is a config error, and nothing is written.
    cfg_path = write_cfg(tmp_path, mode="numeric", count=20, tau_targets=(5.0,), bins=5)
    out = tmp_path / "numeric"
    assert main(["ensemble", "--config", cfg_path, "--out", str(out)]) == 2
    assert "'numeric-ode'" in capsys.readouterr().err
    assert not (out / "ensemble_summary.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_clean(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert "checks passed" in lines[-1]
    assert "FAIL" not in out


@pytest.mark.parametrize("flag", ["--disable-spin", "--flip-spin-cross"])
def test_verify_detects_injected_faults(flag, capsys):
    assert main(["verify", flag]) == 5
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plotdata


@pytest.fixture()
def short_run(tmp_path):
    cfg_path = write_cfg(tmp_path, tau_max=50.0)
    out = tmp_path / "run"
    main(["simulate", "--config", cfg_path, "--out", str(out)])
    return out / "trajectory.csv"


def synthetic_csv(path, tau):
    """A schema-valid trajectory file with placeholder dynamics."""
    rows = [CSV_HEADER]
    for t in tau:
        x, y, z = math.cos(t), math.sin(t), t / 100.0
        rows.append(
            ",".join(
                repr(float(v))
                for v in (t, 1.0, 1.0, t, x, y, z, 0.0, 0.0, 0.0, -13.6, 0.0, 0.0, 0.05)
            )
            + ",0"
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_plotdata_single_series_modes(short_run, tmp_path):
    out = tmp_path / "plots"
    n_rows = len(short_run.read_text().splitlines()) - 1
    for mode, name, width in (
        ("3d", "plot_3d.dat", 3),
        ("phi", "plot_phi.dat", 2),
        ("dphi", "plot_dphi.dat", 2),
        ("energy", "plot_energy.dat", 2),
    ):
        assert main(["plotdata", str(short_run), mode, "--out", str(out)]) == 0
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_rows
        assert all(len(l.split()) == width for l in lines)


def test_plotdata_split_covers_all_rows(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    tau = [float(t) for t in range(0, 8001, 10)]
    synthetic_csv(csv_path, tau)
    out = tmp_path / "plots"
    assert main(["plotdata", str(csv_path), "split", "--out", str(out)]) == 0
    counts = []
    for k in range(1, 6):
        lines = (out / ("plot_split_%d.dat" % k)).read_text().splitlines()
        counts.append(len(lines))
    assert sum(counts) == len(tau)
    assert all(c > 0 for c in counts)
    # The interval edges respect the canonical boundaries.
    first_z = [
        float((out / ("plot_split_%d.dat" % k)).read_text().split()[2]) * 100.0
        for k in range(2, 6)
    ]
    assert first_z == [1470.0, 3000.0, 4850.0, 7200.0]


def test_plotdata_split_needs_covering_span(short_run, tmp_path, capsys):
    code = main(["plotdata", str(short_run), "split", "--out", str(tmp_path)])
    assert code == 2
    assert "outside the sampled span" in capsys.readouterr().err


def test_plotdata_reports_malformed_lines(tmp_path, capsys):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("tau,xi\n1,2\n", encoding="utf-8")
    assert main(["plotdata", str(bad_header), "phi"]) == 2
    assert "line 1" in capsys.readouterr().err

    short_row = tmp_path / "s.csv"
    synthetic_csv(short_row, [0.0, 1.0])
    text = short_row.read_text(encoding="utf-8").splitlines()
    text[2] = "1,2,3"
    short_row.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert main(["plotdata", str(short_row), "phi"]) == 2
    assert "line 3: expected 15 columns" in capsys.readouterr().err

    bad_field = tmp_path / "f.csv"
    synthetic_csv(bad_field, [0.0, 1.0])
    text = bad_field.read_text(encoding="utf-8").splitlines()
    text[1] = text[1].replace("-13.6", "thirteen")
    bad_field.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert main(["plotdata", str(bad_field), "phi"]) == 2
    assert "line 2: non-numeric" in capsys.readouterr().err

    no_rows = tmp_path / "n.csv"
    no_rows.write_text(CSV_HEADER + "\n", encoding="utf-8")
    assert main(["plotdata", str(no_rows), "phi"]) == 2
    assert "no data rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert VERSION_TAG in capsys.readouterr().out
