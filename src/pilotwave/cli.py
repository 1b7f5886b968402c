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
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from .config import RunConfig, load_config, load_preset, serialize_config
from .drive import coefficient_arrays, envelope_T, envelope_Tprime
from .engine import VERSION_TAG, integrate, sample_grid, split_intervals
# evolve_ensemble stays bound here: perfbench/layers.py wraps
# cli.evolve_ensemble by name.
from .ensemble import (
    bin_edges,
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
COEFF_COLUMNS = COEFF_HEADER.split(",")

# plotdata mode -> the trajectory columns of its plot_<mode>.dat.  split
# writes the 3d columns cut at engine.DEFAULT_SPLIT_BOUNDARIES into
# plot_split_<k>.dat, one file per regime.
PLOT_COLUMNS = {
    "3d": ("x", "y", "z"),
    "split": ("x", "y", "z"),
    "phi": ("tau", "phi"),
    "dphi": ("tau", "dphi_dtau"),
    "energy": ("tau", "energy_eV"),
}
PLOT_MODES = tuple(PLOT_COLUMNS)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# Rows per block that _write_rows turns into Python numbers at once.
# Writing fig1's 10001 trajectory rows, blocks of 4096 rows raised the
# process's peak RSS by 2.3 MB; blocks of 1024 wrote as fast and did
# not raise it.
ROW_BLOCK = 1024


def _write_rows(path: str, columns: dict, header: bool = True) -> None:
    """Write equal-length named columns as text, one line per row.

    A CSV with a header line of the column names or, with header=False,
    whitespace-delimited plot data.  Each value is written as the repr
    of its float (boolean columns as 0 or 1).  The columns are turned
    into Python numbers a block of ROW_BLOCK rows at a time, one
    tolist() per column and block, and written a row at a time, so no
    formatted copy of the table is held in memory.
    """
    sep = "," if header else " "
    kinds = [int if col.dtype == bool else float for col in columns.values()]
    n = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(sep.join(columns) + "\n")
        for lo in range(0, n, ROW_BLOCK):
            block = [
                col[lo : lo + ROW_BLOCK].astype(k, copy=False).tolist()
                for k, col in zip(kinds, columns.values())
            ]
            fh.writelines(sep.join(map(repr, row)) + "\n" for row in zip(*block))


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
    cols = dict(
        vars(result),
        x=result.xi * st * np.cos(result.phi),
        y=result.xi * st * np.sin(result.phi),
        z=result.xi * np.cos(result.theta),
        dxi_dtau=result.dxi,
        dtheta_dtau=result.dtheta,
        dphi_dtau=result.dphi,
    )
    _write_rows(path, {c: cols[c] for c in CSV_COLUMNS})


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


# EnsembleSummary.to_dict() keys that ensemble_summary.json gives once
# for the run, or in histogram.csv, instead of in every target.
RUN_KEYS = ("count", "seed", "bins", "observed", "expected")


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
                {k: v for k, v in s.to_dict().items() if k not in RUN_KEYS}
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
    # Per target: the bins row-major over (xi bin, mu bin), then the
    # overflow row of every xi beyond the last edge.
    blocks = []
    for s in summaries:
        nb = s.bins
        xi_edges, mu_edges = bin_edges(nb)
        blocks.append(
            {
                "tau_target": np.full(nb * nb + 1, float(s.tau_target)),
                "xi_lo": np.append(np.repeat(xi_edges[:-1], nb), xi_edges[-1]),
                "xi_hi": np.append(np.repeat(xi_edges[1:], nb), np.inf),
                "mu_lo": np.append(np.tile(mu_edges[:-1], nb), -1.0),
                "mu_hi": np.append(np.tile(mu_edges[1:], nb), 1.0),
                "observed": np.append(s.observed, s.observed_overflow),
                "expected": np.append(s.expected, s.expected_overflow),
            }
        )
    columns = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    _write_rows(path, columns)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def cmd_coefficients(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args, cfg)
    drive = cfg.drive()
    tau = sample_grid(cfg.tau_max, cfg.output_stride)
    c_a, c_b = coefficient_arrays(tau, drive)
    cols = {
        "tau": tau,
        "ca_re": c_a.real,
        "ca_im": c_a.imag,
        "cb_re": c_b.real,
        "cb_im": c_b.imag,
        "cb_sq": np.abs(c_b) ** 2,
        "T": envelope_T(tau, drive),
        "Tprime": envelope_Tprime(tau, drive),
    }
    path = os.path.join(out, "coefficients.csv")
    _write_rows(path, {c: cols[c] for c in COEFF_COLUMNS})
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


def cmd_plotdata(args) -> int:
    cols = _read_trajectory_csv(args.trajectory)
    out = args.out if args.out else "."
    _ensure_dir(out)
    if args.mode == "split":
        ranges = split_intervals(SimpleNamespace(tau=cols["tau"]))
        files = [
            ("plot_split_%d.dat" % (k,), slice(a, b + 1))
            for k, (a, b) in enumerate(ranges, start=1)
        ]
    else:
        files = [("plot_%s.dat" % (args.mode,), slice(None))]
    for name, rows in files:
        path = os.path.join(out, name)
        _write_rows(
            path, {c: cols[c][rows] for c in PLOT_COLUMNS[args.mode]}, header=False
        )
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
