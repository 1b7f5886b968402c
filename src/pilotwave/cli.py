"""Command-line front end.

Subcommands
-----------
simulate      one trajectory -> trajectory.csv + manifest.json
ensemble      many trajectories -> ensemble_summary.json + histogram.csv
coefficients  amplitude scan -> coefficients.csv
verify        built-in invariant suite -> console report
plotdata      trajectory.csv -> whitespace-delimited plot files

Exit codes: 0 success, 2 configuration or usage error, 3 integration
failure, 4 axis abort, 5 verification failure, 6 ensemble drop-out
budget exceeded.  All numbers in CSV output are written with repr, the
shortest decimal form that parses back to the same float.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .config import RunConfig, load_config, load_preset, serialize_config
from .drive import coefficient_arrays, envelope_T, envelope_Tprime
from .engine import (
    DEFAULT_SPLIT_BOUNDARIES,
    VERSION_TAG,
    integrate,
)
# evolve_ensemble stays bound here: perfbench/layers.py wraps
# cli.evolve_ensemble by name.
from .ensemble import (
    XI_MAX_BIN,
    evolve_ensemble,  # noqa: F401
    evolve_targets,
    sample_arrays,
)
from .errors import (
    AxisProximityError,
    ConfigError,
    IntegrationError,
    ParameterError,
    PilotwaveError,
)
from .verify import run_checks

SCHEMA_VERSION = 1

CSV_HEADER = (
    "tau,xi,theta,phi,x,y,z,dxi_dtau,dtheta_dtau,dphi_dtau,"
    "energy_eV,cb_sq,surface_residual,rho,clipped"
)
CSV_COLUMNS = CSV_HEADER.split(",")

COEFF_HEADER = "tau,ca_re,ca_im,cb_re,cb_im,cb_sq,T,Tprime"

PLOT_MODES = ("3d", "split", "phi", "dphi", "energy")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _resolve_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    else:
        cfg = RunConfig().validate()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    return cfg


def _out_dir(args, cfg: RunConfig) -> str:
    out = args.out if getattr(args, "out", None) else cfg.directory
    _ensure_dir(out)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args, cfg)
    source = cfg.source()
    result = integrate(cfg.initial(), cfg.tau_max, source, cfg.integrator())

    if "csv" in cfg.formats:
        _write_trajectory_csv(os.path.join(out, "trajectory.csv"), result)
    if "json" in cfg.formats:
        doc = result.manifest.to_dict()
        doc["schema_version"] = SCHEMA_VERSION
        doc["created_utc"] = _timestamp()
        doc["config_text"] = serialize_config(cfg)
        _write_json(os.path.join(out, "manifest.json"), doc)
    print(
        "simulate: %d samples to tau = %s in %s"
        % (len(result), repr(float(result.tau[-1])), out)
    )
    return 0


def _write_trajectory_csv(path: str, result) -> None:
    st = np.sin(result.theta)
    x = result.xi * st * np.cos(result.phi)
    y = result.xi * st * np.sin(result.phi)
    z = result.xi * np.cos(result.theta)
    lines = [CSV_HEADER]
    for i in range(len(result.tau)):
        row = [
            repr(float(result.tau[i])),
            repr(float(result.xi[i])),
            repr(float(result.theta[i])),
            repr(float(result.phi[i])),
            repr(float(x[i])),
            repr(float(y[i])),
            repr(float(z[i])),
            repr(float(result.dxi[i])),
            repr(float(result.dtheta[i])),
            repr(float(result.dphi[i])),
            repr(float(result.energy_eV[i])),
            repr(float(result.cb_sq[i])),
            repr(float(result.surface_residual[i])),
            repr(float(result.rho[i])),
            "1" if result.clipped[i] else "0",
        ]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def cmd_ensemble(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args, cfg)
    drive = cfg.drive() if cfg.mode != "frozen" else None
    source = cfg.source()
    xi0, theta0, phi0 = sample_arrays(cfg.count, cfg.seed)

    targets = evolve_targets(
        (xi0, theta0, phi0),
        cfg.tau_targets,
        drive,
        cfg.integrator(),
        source=source,
        seed=cfg.seed,
        bins=cfg.bins,
    )
    exit_code = 0
    for summary in targets:
        error = summary.dropout_error()
        if error is not None:
            # The budget is blown but the report is still written.
            exit_code = 6
            print("ensemble: %s" % (error,), file=sys.stderr)

    if "json" in cfg.formats:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "created_utc": _timestamp(),
            "count": cfg.count,
            "seed": cfg.seed,
            "bins": cfg.bins,
            "targets": [
                {
                    "tau_target": s.tau_target,
                    "divergence": s.divergence,
                    "baseline_divergence": s.baseline_divergence,
                    "observed_overflow": s.observed_overflow,
                    "expected_overflow": s.expected_overflow,
                    "mean_energy_eV": s.mean_energy_eV,
                    "se_energy_eV": s.se_energy_eV,
                    "expected_energy_eV": s.expected_energy_eV,
                    "clipped_count": s.clipped_count,
                    "dropout_count": s.dropout_count,
                    "dropout_axis": s.dropout_axis,
                    "dropout_underflow": s.dropout_underflow,
                }
                for s in targets
            ],
        }
        _write_json(os.path.join(out, "ensemble_summary.json"), doc)
    if "csv" in cfg.formats:
        _write_histogram_csv(os.path.join(out, "histogram.csv"), targets)

    for s in targets:
        print(
            "ensemble: tau = %g divergence %.6f (baseline %.6f), "
            "mean energy %.6f eV, dropouts %d"
            % (
                s.tau_target,
                s.divergence,
                s.baseline_divergence,
                s.mean_energy_eV,
                s.dropout_count,
            )
        )
    return exit_code


def _write_histogram_csv(path: str, summaries) -> None:
    lines = ["tau_target,xi_lo,xi_hi,mu_lo,mu_hi,observed,expected"]
    for s in summaries:
        nb = s.bins
        xi_edges = np.linspace(0.0, XI_MAX_BIN, nb + 1)
        mu_edges = np.linspace(-1.0, 1.0, nb + 1)
        for i in range(nb):
            for j in range(nb):
                lines.append(
                    ",".join(
                        [
                            repr(float(s.tau_target)),
                            repr(float(xi_edges[i])),
                            repr(float(xi_edges[i + 1])),
                            repr(float(mu_edges[j])),
                            repr(float(mu_edges[j + 1])),
                            repr(float(s.observed[i, j])),
                            repr(float(s.expected[i, j])),
                        ]
                    )
                )
        lines.append(
            ",".join(
                [
                    repr(float(s.tau_target)),
                    repr(float(xi_edges[-1])),
                    "inf",
                    "-1.0",
                    "1.0",
                    repr(float(s.observed_overflow)),
                    repr(float(s.expected_overflow)),
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def cmd_coefficients(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args, cfg)
    drive = cfg.drive()
    n = max(int(math.floor(cfg.tau_max / cfg.output_stride)), 1)
    tau = np.arange(n + 1) * cfg.output_stride
    tau[-1] = min(tau[-1], cfg.tau_max)
    c_a, c_b = coefficient_arrays(tau, drive)
    cb_sq = np.abs(c_b) ** 2
    T = envelope_T(tau, drive)
    Tp = envelope_Tprime(tau, drive)
    lines = [COEFF_HEADER]
    for i in range(len(tau)):
        lines.append(
            ",".join(
                [
                    repr(float(tau[i])),
                    repr(float(c_a[i].real)),
                    repr(float(c_a[i].imag)),
                    repr(float(c_b[i].real)),
                    repr(float(c_b[i].imag)),
                    repr(float(cb_sq[i])),
                    repr(float(T[i])),
                    repr(float(Tp[i])),
                ]
            )
        )
    _write_text(os.path.join(out, "coefficients.csv"), "\n".join(lines) + "\n")
    print("coefficients: %d rows in %s" % (len(tau), out))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    checks = run_checks(
        disable_spin=args.disable_spin,
        flip_spin_cross=args.flip_spin_cross,
    )
    failed = 0
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        line = "%s %-26s deviation %.3e tolerance %.0e" % (
            status,
            chk.name,
            chk.deviation,
            chk.tolerance,
        )
        if chk.note:
            line += "  (%s)" % (chk.note,)
        print(line)
        if not chk.passed:
            failed += 1
    print("verify: %d/%d checks passed" % (len(checks) - failed, len(checks)))
    return 0 if failed == 0 else 5


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------


def _read_trajectory_csv(path: str):
    """Parse a trajectory CSV back into named float columns."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from None
    if not lines:
        raise ConfigError("%s, line 1: empty file" % (path,))
    if lines[0] != CSV_HEADER:
        raise ConfigError(
            "%s, line 1: expected header %r, got %r" % (path, CSV_HEADER, lines[0])
        )
    n_cols = len(CSV_COLUMNS)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ConfigError(
                "%s, line %d: expected %d columns, got %d"
                % (path, ln, n_cols, len(parts))
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ConfigError(
                "%s, line %d: non-numeric field in %r" % (path, ln, line)
            ) from None
    if not rows:
        raise ConfigError("%s, line 2: no data rows" % (path,))
    data = np.array(rows)
    return {name: data[:, k] for k, name in enumerate(CSV_COLUMNS)}


def _fmt_plot_rows(columns) -> str:
    lines = []
    for row in zip(*columns):
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def cmd_plotdata(args) -> int:
    cols = _read_trajectory_csv(args.trajectory)
    out = args.out if args.out else "."
    _ensure_dir(out)
    mode = args.mode
    written = []
    if mode == "3d":
        path = os.path.join(out, "plot_3d.dat")
        _write_text(path, _fmt_plot_rows((cols["x"], cols["y"], cols["z"])))
        written.append(path)
    elif mode == "split":
        tau = cols["tau"]
        bounds = [float(b) for b in DEFAULT_SPLIT_BOUNDARIES]
        for b in bounds:
            if not tau[0] < b < tau[-1]:
                raise ConfigError(
                    "split boundary %r lies outside the sampled span [%r, %r]"
                    % (b, float(tau[0]), float(tau[-1]))
                )
        ends = np.searchsorted(tau, bounds, side="right") - 1
        starts = [0] + [int(e) + 1 for e in ends]
        stops = [int(e) for e in ends] + [len(tau) - 1]
        for k, (a, b) in enumerate(zip(starts, stops), start=1):
            path = os.path.join(out, "plot_split_%d.dat" % (k,))
            sel = slice(a, b + 1)
            _write_text(
                path,
                _fmt_plot_rows((cols["x"][sel], cols["y"][sel], cols["z"][sel])),
            )
            written.append(path)
    elif mode == "phi":
        path = os.path.join(out, "plot_phi.dat")
        _write_text(path, _fmt_plot_rows((cols["tau"], cols["phi"])))
        written.append(path)
    elif mode == "dphi":
        path = os.path.join(out, "plot_dphi.dat")
        _write_text(path, _fmt_plot_rows((cols["tau"], cols["dphi_dtau"])))
        written.append(path)
    elif mode == "energy":
        path = os.path.join(out, "plot_energy.dat")
        _write_text(path, _fmt_plot_rows((cols["tau"], cols["energy_eV"])))
        written.append(path)
    else:
        raise ConfigError("unknown plotdata mode %r" % (mode,))
    for path in written:
        print("plotdata: wrote %s" % (path,))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description=(
            "Spin-carried trajectories for a hydrogen electron during a "
            "driven 1s to 2p0 transition"
        ),
    )
    parser.add_argument("--version", action="version", version=VERSION_TAG)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    group = shared.add_mutually_exclusive_group()
    group.add_argument("--config", metavar="PATH", help="INI run configuration")
    group.add_argument(
        "--preset",
        choices=("fig1", "fig2"),
        help="bundled parameter set (driven run from xi=4 or xi=3.2)",
    )
    shared.add_argument("--out", metavar="DIR", help="output directory override")
    shared.add_argument(
        "--seed", type=int, default=None, help="ensemble seed override"
    )

    p = sub.add_parser(
        "simulate",
        parents=[shared],
        help="integrate one trajectory and write CSV + manifest",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "ensemble",
        parents=[shared],
        help="propagate a sampled ensemble and report the divergence",
    )
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser(
        "coefficients",
        parents=[shared],
        help="scan the amplitude pair over scaled time",
    )
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("verify", help="run the built-in invariant suite")
    fault = p.add_mutually_exclusive_group()
    fault.add_argument(
        "--disable-spin",
        action="store_true",
        help="debug fault: drop the spin term (s_z = 0)",
    )
    fault.add_argument(
        "--flip-spin-cross",
        action="store_true",
        help="debug fault: reverse the circulation (s_z = -1/2)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "plotdata",
        help="re-cut a trajectory CSV into plot-ready data files",
    )
    p.add_argument("trajectory", help="path to a trajectory.csv")
    p.add_argument("mode", choices=PLOT_MODES, help="which figure data to emit")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except AxisProximityError as exc:
        detail = "" if exc.tau is None else " at tau = %r" % (exc.tau,)
        print("axis abort: %s%s" % (exc, detail), file=sys.stderr)
        return 4
    except IntegrationError as exc:
        print("integration failure: %s" % (exc,), file=sys.stderr)
        return 3
    except ParameterError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except PilotwaveError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
