"""Adaptive trajectory integration and run bookkeeping.

integrate() advances one electron from its initial point with the
shared Dormand-Prince 5(4) pair (see stepping), keeping the state in
plain floats.  It steps freely, lands only on tau_max, and takes the
state at every output-stride multiple from the continuous extension of
the step that passes it, so the step sequence does not depend on the
stride.  After the loop it derives the full sample rows: the analytic
velocity and density from one rhs call per sample, and the local
energy, upper-level population and invariant-surface residual in array
passes over the source's amplitude terms.  phi accumulates without
wrapping.

Runs are deterministic: the same inputs produce bitwise-identical
sample arrays and manifests (timestamps excluded), which the test suite
relies on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import observables
from .drive import DriveParameters, reversal_window
from .dynamics import (
    AXIS_GUARD_INITIAL,
    SPIN_UP,
    SpinVector,
    make_scalar_rhs,
    surface_constant,
    surface_residual,
)
from .errors import AxisProximityError, IntegrationError, ParameterError
from .stepping import dense_state, dp5_dense, dp5_trial, next_step
from .wavefield import SpatialPoint

VERSION_TAG = "pilotwave 0.1.0"

# Scaled times bounding the qualitative regimes of the resonant run;
# used as default boundaries when splitting a trajectory for plotting.
DEFAULT_SPLIT_BOUNDARIES = (1469.0, 2992.0, 4844.0, 7196.0)

# Consecutive accepted steps below the density floor before the
# node-dwell warning fires.
NODE_DWELL_STEPS = 10


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and sampling settings for trajectory runs."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1.0
    min_step: float = 1e-12
    rho_floor: float = 1e-12
    output_stride: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ParameterError("rel_tol must lie in (0, 1), got %r" % (self.rel_tol,))
        for name in ("abs_tol", "rho_floor", "output_stride"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(
                    "%s must be positive and finite, got %r" % (name, value)
                )
        # max_step = inf is allowed: no cap on the step size.
        if not 0.0 < self.min_step < self.max_step:
            raise ParameterError(
                "need 0 < min_step < max_step, got %r, %r"
                % (self.min_step, self.max_step)
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record of one trajectory run."""

    version: str
    drive: Optional[dict]
    source: str
    initial: dict
    config: dict
    tau_max: float
    stats: dict
    reversal_window: Optional[tuple[float, float]] = None

    def to_dict(self) -> dict:
        window = self.reversal_window
        return {**asdict(self), "reversal_window": list(window) if window else None}


class TrajectoryResult:
    """Column-wise sample storage for one run.

    Attributes are equal-length numpy arrays: tau, xi, theta, phi,
    dxi, dtheta, dphi, energy_eV, cb_sq, surface_residual, rho, and the
    boolean clipped.  tau is strictly increasing; phi is unwrapped.
    """

    def __init__(self, columns: dict, manifest: RunManifest):
        self.tau = columns["tau"]
        self.xi = columns["xi"]
        self.theta = columns["theta"]
        self.phi = columns["phi"]
        self.dxi = columns["dxi"]
        self.dtheta = columns["dtheta"]
        self.dphi = columns["dphi"]
        self.energy_eV = columns["energy_eV"]
        self.cb_sq = columns["cb_sq"]
        self.surface_residual = columns["surface_residual"]
        self.rho = columns["rho"]
        self.clipped = columns["clipped"]
        self.manifest = manifest

    def __len__(self) -> int:
        return len(self.tau)


def sample_grid(tau_max: float, stride: float) -> np.ndarray:
    """Output times: every stride multiple in [0, tau_max], plus tau_max.

    The one sample grid of a run: trajectory.csv and coefficients.csv
    both take their tau column from it.
    """
    n = int(math.floor(tau_max / stride + 1e-9))
    grid = stride * np.arange(n + 1)
    if grid[-1] < tau_max - 1e-9 * max(1.0, tau_max):
        grid = np.append(grid, tau_max)
    else:
        grid[-1] = min(grid[-1], tau_max)
    return grid


def _integrate_scalar(
    rhs: Callable,
    state0: tuple[float, float, float],
    tau_end: float,
    cfg: IntegratorConfig,
    stops: Sequence[float],
):
    """DP 5(4) loop over (xi, theta, phi) in plain floats (see dp5_trial).

    Steps freely and lands only on tau_end.  The state at each stop
    (sorted, within [0, tau_end]) is the accepted step's own where the
    step ends on it, and otherwise comes from the continuous extension
    of the step that passes it (dp5_dense), so the steps taken do not
    depend on the stops.  Returns (samples, accepted, rejected,
    min_rho), where samples holds three lists, the xi, theta and phi of
    every stop.
    """
    xi, th, ph = state0
    samples = ([], [], [])
    t = 0.0
    rtol = cfg.rel_tol
    atol = cfg.abs_tol
    try:
        k1 = rhs(t, xi, th)
    except AxisProximityError as exc:
        exc.tau = t
        exc.state = (xi, th, ph)
        raise
    min_rho = k1[3]
    si = 0
    n_stops = len(stops)
    if n_stops and stops[0] == 0.0:
        _record(samples, (xi, th, ph))
        si = 1

    # Initial step from the velocity magnitude against the error scale.
    d0 = max(abs(xi), abs(th), 1.0)
    d1 = max(abs(k1[0]), abs(k1[1]), abs(k1[2]), 1e-10)
    h = min(cfg.max_step, 0.01 * (atol / rtol + d0) / d1, tau_end if tau_end > 0 else 1.0)
    h = max(h, cfg.min_step)

    err_prev = 1.0
    just_rejected = False
    n_acc = 0
    n_rej = 0
    dwell = 0
    dwell_warned = False

    while t < tau_end:
        h_try = min(h, cfg.max_step)
        lands = h_try >= tau_end - t
        if lands:
            h_try = tau_end - t
        if h_try < cfg.min_step:
            raise IntegrationError(
                "step size underflow at tau=%r" % (t,), tau=t, state=(xi, th, ph)
            )

        try:
            xi_new, th_new, ph_new, k7, e_xi, e_th, e_ph, stages = dp5_trial(
                rhs, t, h_try, xi, th, ph, k1
            )
        except AxisProximityError as exc:
            exc.tau = t
            exc.state = (xi, th, ph)
            raise
        except (OverflowError, ValueError):
            # A wild trial stage left the admissible region; retry smaller.
            h = 0.5 * h_try
            just_rejected = True
            n_rej += 1
            continue

        s_xi = atol + rtol * max(abs(xi), abs(xi_new))
        s_th = atol + rtol * max(abs(th), abs(th_new))
        s_ph = atol + rtol * max(abs(ph), abs(ph_new))
        r_xi = e_xi / s_xi
        r_th = e_th / s_th
        r_ph = e_ph / s_ph
        err = math.sqrt((r_xi * r_xi + r_th * r_th + r_ph * r_ph) / 3.0)
        h, err_prev = next_step(h_try, err, err_prev, just_rejected)
        just_rejected = not err <= 1.0
        if just_rejected:
            n_rej += 1
            continue
        t_new = tau_end if lands else t + h_try
        polys = None
        while si < n_stops and stops[si] <= t_new:
            if stops[si] == t_new:
                _record(samples, (xi_new, th_new, ph_new))
            else:
                if polys is None:
                    polys = dp5_dense(h_try, (xi, th, ph), stages)
                _record(samples, dense_state(polys, (stops[si] - t) / h_try))
            si += 1
        t = t_new
        xi, th, ph = xi_new, th_new, ph_new
        k1 = k7
        n_acc += 1
        rho_here = k7[3]
        if rho_here < min_rho:
            min_rho = rho_here
        if rho_here < cfg.rho_floor:
            dwell += 1
            if dwell > NODE_DWELL_STEPS and not dwell_warned:
                warnings.warn(
                    "trajectory dwelling near a density node: %d consecutive "
                    "accepted steps with rho < %.0e around tau=%.3f"
                    % (dwell, cfg.rho_floor, t),
                    stacklevel=3,
                )
                dwell_warned = True
        else:
            dwell = 0

    return samples, n_acc, n_rej, min_rho


def _record(samples, state):
    for column, value in zip(samples, state):
        column.append(value)


def _sample_columns(rhs, source, config, invariant, tau, samples) -> dict:
    """Every TrajectoryResult column from the sampled states, in array passes.

    The rates come from one rhs call per sample.  The amplitude terms
    come from one source.cross_terms(np) call over all sample times; the
    population column is their |c_b|^2, and they feed the local-energy
    kernel.  The surface residual is one more array pass.
    """
    xs, ths, phs = samples
    rates = np.empty((len(tau), 4))
    for i, (t, x, th, ph) in enumerate(zip(tau.tolist(), xs, ths, phs)):
        try:
            rates[i] = rhs(t, x, th)
        except AxisProximityError as exc:
            exc.tau = t
            exc.state = (x, th, ph)
            raise
    xi = np.array(xs)
    theta = np.array(ths)
    ca2, cb2, tp, _ = source.cross_terms(np)(tau)
    energy, clipped = observables.local_energy_array(
        xi,
        theta,
        tau,
        ca2,
        cb2,
        tp,
        source.drive if source.is_driven else None,
        rho_floor=config.rho_floor,
    )
    return {
        "tau": tau,
        "xi": xi,
        "theta": theta,
        "phi": np.array(phs),
        "dxi": rates[:, 0],
        "dtheta": rates[:, 1],
        "dphi": rates[:, 2],
        "energy_eV": energy,
        # A frozen pair gives one cb2 for every sample.
        "cb_sq": np.zeros(len(tau)) + cb2,
        "surface_residual": surface_residual(xi, theta, invariant),
        "rho": rates[:, 3],
        "clipped": clipped,
    }


def _drive_dict(drive: Optional[DriveParameters]) -> Optional[dict]:
    if drive is None:
        return None
    return {
        "E0_volts_per_meter": drive.E0_Vpm,
        "detuning_per_second": drive.Omega_ps,
        "omega0_per_second": drive.omega0_ps,
        "nu_per_second": drive.nu_ps,
        "sigma_per_second": drive.sigma_ps,
        "nu_override_per_second": drive.nu_override_ps,
        "scaled": {
            "detuning": drive.Omega_t,
            "nu": drive.nu_t,
            "sigma": drive.sigma_t,
        },
    }


def integrate(
    initial: SpatialPoint,
    tau_span,
    source,
    config: IntegratorConfig = IntegratorConfig(),
    *,
    spin: SpinVector = SPIN_UP,
) -> TrajectoryResult:
    """Integrate one trajectory over [0, tau_max].

    Parameters
    ----------
    initial : SpatialPoint
        Starting point; sin(theta) must be at least 1e-3 (the
        equations degenerate on the polar axis).
    tau_span : float or (0, tau_max)
        End time, or a pair whose first element must be 0 (the
        amplitude history is pinned at tau = 0).
    source : coefficient source
        AnalyticSource, FrozenSource or NumericSource.
    config : IntegratorConfig
        Tolerances, step limits, density floor and output stride.
    spin : SpinVector
        Guidance spin; the default is the physical +z, hbar/2.

    Returns a TrajectoryResult.  Raises AxisProximityError if the
    trajectory reaches sin(theta) < 1e-6, IntegrationError on step-size
    underflow (both carry the last good state), and ParameterError for
    bad spans or a start too close to the axis.
    """
    if isinstance(tau_span, (tuple, list)):
        if len(tau_span) != 2 or tau_span[0] != 0.0:
            raise ParameterError(
                "tau_span must be tau_max or (0, tau_max); got %r" % (tau_span,)
            )
        tau_max = float(tau_span[1])
    else:
        tau_max = float(tau_span)
    if not (math.isfinite(tau_max) and tau_max > 0.0):
        raise ParameterError("tau_max must be positive and finite, got %r" % (tau_max,))
    if math.sin(initial.theta) < AXIS_GUARD_INITIAL:
        raise ParameterError(
            "initial point too close to the polar axis: sin(theta)=%r < 1e-3"
            % (math.sin(initial.theta),)
        )

    rhs = make_scalar_rhs(source, spin=spin)
    invariant = surface_constant(initial.xi, initial.theta)
    drive = source.drive
    tau = sample_grid(tau_max, config.output_stride)
    samples, n_acc, n_rej, min_rho = _integrate_scalar(
        rhs,
        (initial.xi, initial.theta, initial.phi),
        tau_max,
        config,
        tau.tolist(),
    )
    columns = _sample_columns(rhs, source, config, invariant, tau, samples)
    manifest = RunManifest(
        version=VERSION_TAG,
        drive=_drive_dict(drive),
        source=source.label,
        initial={"xi": initial.xi, "theta": initial.theta, "phi": initial.phi},
        config=config.to_dict(),
        tau_max=tau_max,
        stats={
            "steps_accepted": n_acc,
            "steps_rejected": n_rej,
            "min_rho": min_rho,
            "samples": int(len(columns["tau"])),
            "clipped_samples": int(columns["clipped"].sum()),
        },
    )
    return TrajectoryResult(columns, manifest)


def integrate_long(
    initial: SpatialPoint,
    source,
    config: IntegratorConfig = IntegratorConfig(),
    *,
    tau_max: float = 2e4,
    spin: SpinVector = SPIN_UP,
) -> TrajectoryResult:
    """Full flopping-cycle run; annotates the population-return window.

    Same as integrate() but defaults to tau_max = 2e4 and, for driven
    sources, stores the window around 2 pi / sigma~ where the
    upper-level population stays below 0.02.
    """
    result = integrate(initial, tau_max, source, config, spin=spin)
    window = None
    if source.is_driven and source.drive is not None:
        try:
            lo, hi = reversal_window(source.drive, threshold=0.02)
        except ParameterError:
            # Peak population below the window threshold (weak or
            # switched-off coupling): no return window to report.
            lo = hi = None
        if lo is not None and lo < tau_max:
            window = (lo, min(hi, tau_max))
    result.manifest = replace(result.manifest, reversal_window=window)
    return result


def split_intervals(
    result: TrajectoryResult,
    boundaries: Optional[Sequence[float]] = None,
) -> list[tuple[int, int]]:
    """Split a run into contiguous index ranges at the given tau values.

    boundaries defaults to DEFAULT_SPLIT_BOUNDARIES; each must lie
    strictly inside the sampled span and they must increase strictly.
    Returns inclusive (start, end) index pairs covering every sample;
    a sample exactly at a boundary closes the earlier segment.  An
    empty boundary list yields a single segment.
    """
    if boundaries is None:
        boundaries = DEFAULT_SPLIT_BOUNDARIES
    boundaries = [float(b) for b in boundaries]
    n = len(result.tau)
    if n == 0:
        raise ParameterError("cannot split an empty trajectory")
    t0 = float(result.tau[0])
    t1 = float(result.tau[-1])
    if not boundaries:
        return [(0, n - 1)]
    for a, b in zip(boundaries, boundaries[1:]):
        if not a < b:
            raise ParameterError("boundaries must increase strictly: %r" % (boundaries,))
    for b in boundaries:
        if not t0 < b < t1:
            raise ParameterError(
                "boundary %r outside the sampled span (%r, %r)" % (b, t0, t1)
            )
    cuts = np.searchsorted(result.tau, boundaries, side="right")
    ranges = []
    start = 0
    for c in cuts:
        ranges.append((start, int(c) - 1))
        start = int(c)
    ranges.append((start, n - 1))
    return ranges
