"""Outside-in tracing of pilotwave's layers and the per-layer metrics.

Every wrapper is installed from here, on the name the caller looks up
at call time: ``pilotwave.engine.make_scalar_rhs`` for the closure the
scalar loop steps with, ``pilotwave.ensemble.make_batch_rhs`` for the
batch one, ``pilotwave.cli.integrate`` for the command's trajectory
run, and so on.  Nothing in the package is edited.

A span is timed with ``time.perf_counter``.  Spans are aggregated in
memory per name, and each span's duration is also charged to the
nearest traced caller, so a layer's self time is its total minus the
time of the traced spans it caused.  Keeping every individual span
would cost hundreds of megabytes on the scalar workload (about half a
million rhs calls per operation), so only the per-name totals, the
caller -> callee edges and the row count of each batch rhs call are
kept.
"""

from __future__ import annotations

import statistics
import time
from array import array

# Sample callees of the scalar loop: everything on_sample calls.
SAMPLE_SPANS = (
    "observables.local_energy",
    "drive.source_eval",
    "drive.source_cb_sq",
    "dynamics.surface_residual",
)

# A batch rhs call with fewer rows than this counts as small: that is
# where fixed per-call numpy overhead dominates the row arithmetic.
SMALL_CALL_ROWS = 100

# verify.run_checks returns these CheckResult names, in this order.
CHECK_NAMES = (
    "coefficient-oracle",
    "unitarity",
    "envelope-identities",
    "eigenstate-confinement",
    "eigenstate-angular-velocity",
    "positive-revolution",
    "gradient-oracle",
    "sheet-slope",
    "surface-constant",
    "surface-residual",
    "normalization",
    "printed-radial",
    "printed-polar",
    "printed-phi-sign",
    "printed-phi-consistent",
    "continuity-frozen",
    "continuity-driven",
)

# Every per-layer metric, with its unit.  A traced run reports all of
# them on every workload; a layer the workload never enters reads 0.
PER_LAYER_UNITS = {
    "dynamics.scalar_rhs_calls": "count",
    "dynamics.scalar_rhs_us": "us",
    "dynamics.batch_rhs_calls": "count",
    "dynamics.batch_rhs_rows": "count",
    "dynamics.batch_rhs_ns_per_row": "ns",
    "dynamics.batch_rhs_us_per_call": "us",
    "engine.steps_accepted": "count",
    "engine.steps_rejected": "count",
    "engine.accept_ratio": "ratio",
    "engine.loop_self_s": "s",
    "engine.step_self_us": "us",
    "engine.sample_us": "us",
    "observables.local_energy_calls": "count",
    "observables.local_energy_us": "us",
    "drive.source_eval_calls": "count",
    "drive.source_eval_us": "us",
    "drive.solve_numeric_s": "s",
    "stepping.integrate_array_s": "s",
    "stepping.integrate_array_steps": "count",
    "ensemble.evolve_calls": "count",
    "ensemble.traj_tau_propagated": "traj_tau",
    "ensemble.rows_per_call_p50": "count",
    "ensemble.small_call_frac": "ratio",
    "ensemble.small_call_row_frac": "ratio",
    "ensemble.sweep_self_s": "s",
    "ensemble.reference_masses_calls": "count",
    "ensemble.reference_masses_s": "s",
    "ensemble.histogram_s": "s",
    "wavefield.density_points": "count",
    "wavefield.density_ns_per_point": "ns",
    "wavefield.grad_calls": "count",
    "wavefield.grad_s": "s",
    "verify.run_checks_s": "s",
    "verify.checks_passed": "count",
    **{"verify.check_s." + name: "s" for name in CHECK_NAMES},
    "cli.self_s": "s",
    "config.load_s": "s",
    "trace.overhead_frac": "ratio",
}


class _Record:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Per-name span totals, caller -> callee edges and work counters."""

    def __init__(self):
        self.records: dict[str, _Record] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.counters: dict[str, float] = {}
        self.batch_rows = array("q")
        self.check_names: dict[str, str] = {}
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_return=None):
        """Return fn timed as span `name`; on_return(args, out) sees results."""
        rec = self.records.setdefault(name, _Record())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec.calls += 1
                rec.total += dt
                rec.child += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0.0) + dt
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the public entry points of every layer where callers look them up."""
        import pilotwave.cli as cli
        import pilotwave.drive as drive
        import pilotwave.dynamics as dynamics
        import pilotwave.engine as engine
        import pilotwave.ensemble as ensemble
        import pilotwave.observables as observables
        import pilotwave.stepping as stepping
        import pilotwave.verify as verify
        import pilotwave.wavefield as wavefield

        def on_integrate(args, result):
            stats = result.manifest.stats
            self.count("steps_accepted", stats["steps_accepted"])
            self.count("steps_rejected", stats["steps_rejected"])
            self.count("samples", stats["samples"])

        for owner in (cli, verify):
            self._patch(
                owner, "integrate", self.wrap("engine.integrate", owner.integrate, on_integrate)
            )

        make_scalar = engine.make_scalar_rhs

        def traced_make_scalar_rhs(*args, **kwargs):
            return self.wrap("dynamics.scalar_rhs", make_scalar(*args, **kwargs))

        self._patch(engine, "make_scalar_rhs", traced_make_scalar_rhs)

        make_batch = ensemble.make_batch_rhs
        rows = self.batch_rows

        def on_batch(args, out):
            rows.append(len(args[1]))

        def traced_make_batch_rhs(*args, **kwargs):
            return self.wrap("dynamics.batch_rhs", make_batch(*args, **kwargs), on_batch)

        self._patch(ensemble, "make_batch_rhs", traced_make_batch_rhs)

        self._patch(
            observables,
            "local_energy",
            self.wrap("observables.local_energy", observables.local_energy),
        )
        source = drive.AnalyticSource
        self._patch(source, "eval", self.wrap("drive.source_eval", source.eval))
        self._patch(source, "cb_sq", self.wrap("drive.source_cb_sq", source.cb_sq))
        self._patch(
            engine,
            "surface_residual",
            self.wrap("dynamics.surface_residual", engine.surface_residual),
        )

        self._patch(
            verify,
            "solve_coefficients_numeric",
            self.wrap("drive.solve_numeric", verify.solve_coefficients_numeric),
        )

        def on_integrate_array(args, out):
            # out = (t, y, accepted, rejected)
            self.count("integrate_array_steps", out[2] + out[3])

        self._patch(
            stepping,
            "integrate_array",
            self.wrap("stepping.integrate_array", stepping.integrate_array, on_integrate_array),
        )

        def on_evolve(args, summary):
            self.count("traj_tau_propagated", summary.count * summary.tau_target)

        self._patch(cli, "evolve_ensemble", self.wrap("ensemble.evolve", cli.evolve_ensemble, on_evolve))
        self._patch(cli, "sample_arrays", self.wrap("ensemble.sample", cli.sample_arrays))
        self._patch(
            ensemble,
            "reference_masses",
            self.wrap("ensemble.reference_masses", ensemble.reference_masses),
        )
        self._patch(
            ensemble,
            "histogram_masses",
            self.wrap("ensemble.histogram", ensemble.histogram_masses),
        )

        def on_density(args, out):
            self.count("density_points", getattr(out, "size", 1))

        for owner in (wavefield, verify, ensemble):
            self._patch(owner, "density", self.wrap("wavefield.density", owner.density, on_density))
        for owner in (verify, dynamics):
            for attr in ("grad_S", "grad_log_rho"):
                self._patch(owner, attr, self.wrap("wavefield.grad", getattr(owner, attr)))

        def on_checks(args, checks):
            self.count("checks_passed", sum(1 for c in checks if c.passed))

        self._patch(cli, "run_checks", self.wrap("verify.run_checks", cli.run_checks, on_checks))
        for attr in sorted(vars(verify)):
            if attr.startswith("check_") and callable(getattr(verify, attr)):
                span = "verify." + attr

                def on_check(args, result, span=span):
                    self.check_names[span] = result.name

                self._patch(verify, attr, self.wrap(span, getattr(verify, attr), on_check))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------

    def _total(self, name: str) -> float:
        rec = self.records.get(name)
        return rec.total if rec else 0.0

    def _calls(self, name: str) -> int:
        rec = self.records.get(name)
        return rec.calls if rec else 0

    def _self(self, name: str) -> float:
        rec = self.records.get(name)
        return rec.total - rec.child if rec else 0.0

    def per_layer(self, ops: int, overhead_frac: float, config_load_s: float) -> dict:
        """Per-layer metrics per operation (verify.* per suite run)."""

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        c = self.counters
        acc = c.get("steps_accepted", 0)
        rej = c.get("steps_rejected", 0)
        rows = self.batch_rows
        n_rows = sum(rows)
        small = [r for r in rows if r < SMALL_CALL_ROWS]
        sample_s = sum(self.edges.get(("engine.integrate", s), 0.0) for s in SAMPLE_SPANS)
        eval_calls = self._calls("drive.source_eval") + self._calls("drive.source_cb_sq")
        eval_s = self._total("drive.source_eval") + self._total("drive.source_cb_sq")
        suites = self._calls("verify.run_checks")
        check_s = dict.fromkeys(CHECK_NAMES, 0.0)
        for span, name in self.check_names.items():
            if name in check_s:
                check_s[name] = ratio(self._total(span), suites)
        return {
            "dynamics.scalar_rhs_calls": ratio(self._calls("dynamics.scalar_rhs"), ops),
            "dynamics.scalar_rhs_us": ratio(
                self._total("dynamics.scalar_rhs"), self._calls("dynamics.scalar_rhs"), 1e6
            ),
            "dynamics.batch_rhs_calls": ratio(len(rows), ops),
            "dynamics.batch_rhs_rows": ratio(n_rows, ops),
            "dynamics.batch_rhs_ns_per_row": ratio(self._total("dynamics.batch_rhs"), n_rows, 1e9),
            "dynamics.batch_rhs_us_per_call": ratio(
                self._total("dynamics.batch_rhs"), len(rows), 1e6
            ),
            "engine.steps_accepted": ratio(acc, ops),
            "engine.steps_rejected": ratio(rej, ops),
            "engine.accept_ratio": ratio(acc, acc + rej),
            "engine.loop_self_s": ratio(self._self("engine.integrate"), ops),
            "engine.step_self_us": ratio(self._self("engine.integrate"), acc + rej, 1e6),
            "engine.sample_us": ratio(sample_s, c.get("samples", 0), 1e6),
            "observables.local_energy_calls": ratio(self._calls("observables.local_energy"), ops),
            "observables.local_energy_us": ratio(
                self._total("observables.local_energy"),
                self._calls("observables.local_energy"),
                1e6,
            ),
            "drive.source_eval_calls": ratio(eval_calls, ops),
            "drive.source_eval_us": ratio(eval_s, eval_calls, 1e6),
            "drive.solve_numeric_s": ratio(self._total("drive.solve_numeric"), ops),
            "stepping.integrate_array_s": ratio(self._total("stepping.integrate_array"), ops),
            "stepping.integrate_array_steps": ratio(c.get("integrate_array_steps", 0), ops),
            "ensemble.evolve_calls": ratio(self._calls("ensemble.evolve"), ops),
            "ensemble.traj_tau_propagated": ratio(c.get("traj_tau_propagated", 0), ops),
            "ensemble.rows_per_call_p50": float(statistics.median(rows)) if rows else 0.0,
            "ensemble.small_call_frac": ratio(len(small), len(rows)),
            "ensemble.small_call_row_frac": ratio(sum(small), n_rows),
            "ensemble.sweep_self_s": ratio(self._self("ensemble.evolve"), ops),
            "ensemble.reference_masses_calls": ratio(self._calls("ensemble.reference_masses"), ops),
            "ensemble.reference_masses_s": ratio(self._total("ensemble.reference_masses"), ops),
            "ensemble.histogram_s": ratio(self._total("ensemble.histogram"), ops),
            "wavefield.density_points": ratio(c.get("density_points", 0), ops),
            "wavefield.density_ns_per_point": ratio(
                self._total("wavefield.density"), c.get("density_points", 0), 1e9
            ),
            "wavefield.grad_calls": ratio(self._calls("wavefield.grad"), ops),
            "wavefield.grad_s": ratio(self._total("wavefield.grad"), ops),
            "verify.run_checks_s": ratio(self._total("verify.run_checks"), suites),
            "verify.checks_passed": ratio(c.get("checks_passed", 0), suites),
            **{"verify.check_s." + name: v for name, v in check_s.items()},
            "cli.self_s": ratio(self._self("cli.main"), ops),
            "config.load_s": config_load_s,
            "trace.overhead_frac": overhead_frac,
        }
