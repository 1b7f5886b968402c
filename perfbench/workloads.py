"""The four benchmark workloads: inputs, output checks, digests, counters.

Each workload drives pilotwave through ``pilotwave.cli.main(argv)``
only.  An operation is one command (three for ``verify_suite``); its
input is named by a key, and every repetition of a key inside a run
must reproduce the same output bytes.

simulate_fig1  ``simulate --preset fig1``: one trajectory to tau = 1e4
               at rtol 1e-8, 10001 samples.  Scalar step loop, scalar
               rhs, per-sample bookkeeping, CSV/JSON writing.  No batch
               code; independent of the seed.
ensemble_wide  ``ensemble``, 10^4 points, one target tau = 500, rtol
               1e-6.  Nearly every row stays active, so the batch rhs
               arithmetic per row dominates.  No scalar engine and no
               multi-target loop.
ensemble_tail  ``ensemble``, 300 points, targets 125, 250 and 500.  Batch
               rhs calls carry a few hundred rows, so fixed per-call
               numpy overhead and sweep bookkeeping weigh as much as the
               row arithmetic, and every target re-propagates from
               tau = 0.  Which trajectories dwell near density nodes
               sets the wall, so each operation of a run draws a new
               cloud from a seed stream that starts at the run's seed.
verify_suite   ``verify`` three times per operation.  The only workload
               through the numeric amplitude solve
               (``stepping.integrate_array``), the wavefield gradients
               and the verify checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

ENSEMBLE_CONFIG = """\
[drive]
E0_volts_per_meter = 8.8e7
detuning_per_second = 1.55e12
omega0_per_second = 1.549e16
nu_override_per_second = -5.1e12

[integrate]
rel_tol = 1e-6
abs_tol = 1e-9

[ensemble]
count = {count}
seed = {seed}
tau_targets = {targets}
bins = 20

[output]
formats = csv, json
"""

# Fresh interpreter -> import -> preset or config -> derive_drive.  The
# parent times the whole process; the probe reports its load step.
SETUP_PROBE = """\
import json, time
import pilotwave.cli
t0 = time.perf_counter()
{load}
t1 = time.perf_counter()
{drive}
print(json.dumps({{"load_s": t1 - t0}}))
"""


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _json_without_timestamp(path: Path) -> bytes:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("created_utc", None)
    return json.dumps(doc, sort_keys=True).encode()


class Workload:
    """Base: one input key per run, repeated by every operation."""

    name = ""
    why = ""
    # Trajectories x furthest tau of one operation.
    traj_tau = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup_probe(self) -> str:
        raise NotImplementedError

    def key(self, index: int):
        """Input of the index-th operation."""
        return self.seed

    def run(self, main, key, out: Path) -> tuple[int, str]:
        """Run one operation; returns (exit code, captured stdout)."""
        raise NotImplementedError

    def check(self, out: Path, stdout: str) -> list[str]:
        """Problems found in the outputs; empty when they are correct."""
        raise NotImplementedError

    def digest(self, out: Path, stdout: str) -> str:
        raise NotImplementedError

    def counters(self, out: Path, stdout: str) -> dict:
        """Work counters the program reports in its own outputs."""
        return {}

    def dropouts(self, out: Path) -> tuple[int, int]:
        """(dropped, attempted) trajectories, for ensemble workloads."""
        return 0, 0


class SimulateFig1(Workload):
    name = "simulate_fig1"
    why = "scalar step loop, scalar rhs, per-sample bookkeeping and CSV/JSON output"
    stride = 1.0
    rows = 10001
    traj_tau = 1.0e4

    def setup_probe(self) -> str:
        return SETUP_PROBE.format(
            load='cfg = pilotwave.cli.load_preset("fig1")', drive="cfg.drive()"
        )

    def run(self, main, key, out):
        return main(["simulate", "--preset", "fig1", "--out", str(out)]), ""

    def check(self, out, stdout):
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = lines[1:]
        if len(rows) != self.rows:
            return ["trajectory.csv has %d rows, expected %d" % (len(rows), self.rows)]
        i_tau = header.index("tau")
        i_xi = header.index("xi")
        i_res = header.index("surface_residual")
        worst = 0.0
        for i, line in enumerate(rows):
            fields = line.split(",")
            if float(fields[i_tau]) != i * self.stride:
                return ["row %d: tau %s is off the stride grid" % (i, fields[i_tau])]
            worst = max(worst, abs(float(fields[i_res])) / float(fields[i_xi]))
        problems = []
        if not worst < 1e-4:
            problems.append("max |surface_residual|/xi = %r, expected < 1e-4" % (worst,))
        stats = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stats"]
        if stats["samples"] != self.rows:
            problems.append("manifest reports %r samples" % (stats["samples"],))
        return problems

    def digest(self, out, stdout):
        return _sha(
            (out / "trajectory.csv").read_bytes(),
            _json_without_timestamp(out / "manifest.json"),
        )

    def counters(self, out, stdout):
        stats = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stats"]
        return {
            "steps_accepted": stats["steps_accepted"],
            "steps_rejected": stats["steps_rejected"],
            "samples": stats["samples"],
        }


class _Ensemble(Workload):
    count = 0
    targets: tuple = ()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = workdir / (self.name + ".cfg")
        self.config.write_text(
            ENSEMBLE_CONFIG.format(
                count=self.count,
                seed=seed,
                targets=", ".join(repr(t) for t in self.targets),
            ),
            encoding="utf-8",
        )
        self.traj_tau = self.count * max(self.targets)

    def setup_probe(self):
        return SETUP_PROBE.format(
            load="cfg = pilotwave.cli.load_config(%r)" % (str(self.config),),
            drive="cfg.drive()",
        )

    def run(self, main, key, out):
        argv = ["ensemble", "--config", str(self.config), "--seed", str(key), "--out", str(out)]
        return main(argv), ""

    def _summary(self, out):
        return json.loads((out / "ensemble_summary.json").read_text(encoding="utf-8"))

    def _target_problems(self, doc) -> list[str]:
        found = [t["tau_target"] for t in doc["targets"]]
        if found != list(self.targets):
            return ["targets %r, expected %r" % (found, list(self.targets))]
        problems = []
        for t in doc["targets"]:
            for field in (
                "divergence",
                "baseline_divergence",
                "mean_energy_eV",
                "se_energy_eV",
                "expected_energy_eV",
            ):
                if not math.isfinite(t[field]):
                    problems.append("tau %r: %s = %r" % (t["tau_target"], field, t[field]))
        return problems

    def digest(self, out, stdout):
        return _sha(
            _json_without_timestamp(out / "ensemble_summary.json"),
            (out / "histogram.csv").read_bytes(),
        )

    def counters(self, out, stdout):
        return {
            "points": self.count,
            "targets": len(self.targets),
            "traj_tau_propagated": self.count * sum(self.targets),
        }

    def dropouts(self, out):
        doc = self._summary(out)
        return (
            sum(t["dropout_count"] for t in doc["targets"]),
            doc["count"] * len(doc["targets"]),
        )


class EnsembleWide(_Ensemble):
    name = "ensemble_wide"
    why = "10^4 rows stay active: batch rhs arithmetic per row dominates"
    count = 10_000
    targets = (500.0,)

    def check(self, out, stdout):
        doc = self._summary(out)
        problems = self._target_problems(doc)
        if problems:
            return problems
        t = doc["targets"][0]
        if t["dropout_count"] != 0:
            problems.append("%d dropouts" % (t["dropout_count"],))
        # test_driven_energy_drift_visible_early asserts (0.9, 1.35) and
        # (-0.05, -0.01) for one seed.  Over seeds 1-50 the ratio is
        # 1.025 +- 0.061 and the drift -0.017 +- 0.004 eV (seed 43:
        # -0.0084; seed 204: ratio 0.897), so the bands here sit about
        # five standard deviations out and keep the drift's sign.
        ratio = t["divergence"] / t["baseline_divergence"]
        if not 0.7 < ratio < 1.35:
            problems.append("TV ratio %r outside (0.7, 1.35)" % (ratio,))
        drift = t["mean_energy_eV"] - t["expected_energy_eV"]
        if not -0.05 < drift < 0.0:
            problems.append("energy drift %r eV outside (-0.05, 0)" % (drift,))
        return problems


class EnsembleTail(_Ensemble):
    name = "ensemble_tail"
    why = "few hundred rows per batch call and three targets each re-propagated from tau = 0"
    count = 300
    targets = (125.0, 250.0, 500.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._seeds = [seed]
        self._rng = random.Random(seed)
        self._expected = self._reference_rows()

    def key(self, index):
        while len(self._seeds) <= index:
            self._seeds.append(self._rng.randrange(2**31))
        return self._seeds[index]

    def _reference_rows(self) -> list[float]:
        """The histogram's expected column, recomputed outside the command."""
        from pilotwave.cli import load_config
        from pilotwave.ensemble import reference_masses

        cfg = load_config(str(self.config))
        source = cfg.source()
        column = []
        for tau in self.targets:
            masses, overflow = reference_masses(tau, source.eval(tau), bins=cfg.bins)
            column.extend(float(m) for m in masses.reshape(-1))
            column.append(float(overflow))
        return column

    def check(self, out, stdout):
        problems = self._target_problems(self._summary(out))
        lines = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        i_exp = header.index("expected")
        column = [float(line.split(",")[i_exp]) for line in lines[1:]]
        if column != self._expected:
            problems.append("histogram.csv expected column differs from reference_masses")
        return problems


class VerifySuite(Workload):
    name = "verify_suite"
    why = "numeric amplitude solve, wavefield gradients and the 17 verify checks"
    repeats = 3
    checks = 17
    # check_surface_residual propagates one driven trajectory to tau = 300.
    traj_tau = 300.0

    def setup_probe(self):
        return SETUP_PROBE.format(
            load="from pilotwave.verify import reference_drive",
            drive="reference_drive()",
        )

    def run(self, main, key, out):
        texts = []
        code = 0
        for _ in range(self.repeats):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["verify"])
            code = code or rc
            texts.append(buf.getvalue())
        return code, texts[0] if len(set(texts)) == 1 else ""

    def check(self, out, stdout):
        if not stdout:
            return ["repeated verify calls printed different reports"]
        lines = stdout.splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS "))
        problems = []
        if passed != self.checks or any(line.startswith("FAIL ") for line in lines):
            problems.append("%d of %d checks passed" % (passed, self.checks))
        if lines[-1] != "verify: %d/%d checks passed" % (self.checks, self.checks):
            problems.append("summary line %r" % (lines[-1],))
        return problems

    def digest(self, out, stdout):
        return _sha(stdout.encode())

    def counters(self, out, stdout):
        return {
            "suite_runs": self.repeats,
            "checks_passed": self.repeats * sum(
                1 for line in stdout.splitlines() if line.startswith("PASS ")
            ),
        }


WORKLOADS = {w.name: w for w in (SimulateFig1, EnsembleWide, EnsembleTail, VerifySuite)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
