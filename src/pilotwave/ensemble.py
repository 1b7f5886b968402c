"""Ensemble propagation and equivariance diagnostics.

Initial points are drawn from the tau = 0 density |psi~|^2 =
u1(xi)^2 / pi: the radial marginal is a Gamma(3, rate 2) law, sampled
as minus half the sum of three exponential deviates, cos(theta) is
uniform on (-1, 1) and phi uniform on [0, 2 pi).  The counter-based
Philox generator keeps every draw reproducible for a given seed.

Equivariance is measured as the total-variation distance between the
ensemble histogram on a 20 x 20 grid over xi in (0, 12], cos(theta) in
(-1, 1) (plus an overflow cell for xi > 12) and the quantum masses of
the same cells, integrated per cell by Gauss-Legendre quadrature.
Binning noise makes the distance nonzero even at tau = 0, so the
tau = 0 value of the same ensemble is the self-calibration baseline
that later times are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CODATA
from .drive import (
    AnalyticSource,
    CoefficientState,
    DriveParameters,
    reduce_angle,
)
from .dynamics import AXIS_GUARD, SPIN_UP, SpinVector, make_batch_rhs
from .engine import IntegratorConfig
from .errors import ParameterError
from .observables import expected_energy
from .stepping import MAX_FACTOR, MIN_FACTOR, PI_ALPHA, PI_BETA, SAFETY, dp5_trial
from .wavefield import N1, N2, SpatialPoint, density

DEFAULT_SEED = 20260819
XI_MAX_BIN = 12.0
DEFAULT_BINS = 20

# Fraction of trajectories allowed to drop out (axis or step failure)
# before a run is considered invalid.
DROPOUT_LIMIT = 1e-3


class EnsembleDropoutError(ParameterError):
    """Raised when too many ensemble trajectories fail; carries the summary."""

    def __init__(self, message, summary=None):
        super().__init__(message)
        self.summary = summary


@dataclass(frozen=True)
class EnsembleSummary:
    """Outcome of propagating an ensemble to one target time."""

    count: int
    seed: int
    tau_target: float
    bins: int
    divergence: float
    baseline_divergence: float
    observed: np.ndarray
    expected: np.ndarray
    observed_overflow: float
    expected_overflow: float
    mean_energy_eV: float
    se_energy_eV: float
    expected_energy_eV: float
    clipped_count: int
    dropout_count: int
    dropout_axis: int
    dropout_underflow: int

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "tau_target": self.tau_target,
            "bins": self.bins,
            "divergence": self.divergence,
            "baseline_divergence": self.baseline_divergence,
            "observed": self.observed.tolist(),
            "expected": self.expected.tolist(),
            "observed_overflow": self.observed_overflow,
            "expected_overflow": self.expected_overflow,
            "mean_energy_eV": self.mean_energy_eV,
            "se_energy_eV": self.se_energy_eV,
            "expected_energy_eV": self.expected_energy_eV,
            "clipped_count": self.clipped_count,
            "dropout_count": self.dropout_count,
            "dropout_axis": self.dropout_axis,
            "dropout_underflow": self.dropout_underflow,
        }


def sample_arrays(count: int, seed: int = DEFAULT_SEED):
    """Draw (xi, theta, phi) arrays from the tau = 0 density."""
    if count < 1:
        raise ParameterError("count must be at least 1, got %r" % (count,))
    rng = np.random.Generator(np.random.Philox(seed))
    # Gamma(3, rate 2) as a sum of three exponentials; 1 - U keeps the
    # uniforms away from exactly zero.
    u = 1.0 - rng.random((3, count))
    xi = -0.5 * (np.log(u[0]) + np.log(u[1]) + np.log(u[2]))
    mu = np.empty(count)
    need = np.ones(count, dtype=bool)
    while need.any():
        draw = rng.uniform(-1.0, 1.0, int(need.sum()))
        mu[need] = draw
        need = np.abs(mu) > 1.0 - 1e-6
    theta = np.arccos(mu)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return xi, theta, phi


def sample_initial(count: int, seed: int = DEFAULT_SEED) -> list[SpatialPoint]:
    """Draw an initial ensemble as SpatialPoint objects."""
    xi, theta, phi = sample_arrays(count, seed)
    return [
        SpatialPoint(xi=float(x), theta=float(t), phi=float(p))
        for x, t, p in zip(xi, theta, phi)
    ]


def reference_masses(
    tau: float,
    coeffs: CoefficientState,
    *,
    bins: int = DEFAULT_BINS,
    xi_max: float = XI_MAX_BIN,
    quad_points: int = 12,
):
    """Quantum mass of each histogram cell at one time.

    Returns (masses[bins, bins], overflow) where masses[i, j] integrates
    2 pi rho xi^2 over the cell xi in bin i, mu = cos(theta) in bin j,
    and overflow = 1 - sum(masses) is the mass beyond xi_max.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    xi_edges = np.linspace(0.0, xi_max, bins + 1)
    mu_edges = np.linspace(-1.0, 1.0, bins + 1)
    dxi = xi_edges[1] - xi_edges[0]
    dmu = mu_edges[1] - mu_edges[0]
    # Quadrature nodes of every cell in one array pass.
    xi_mid = xi_edges[:-1, None] + 0.5 * dxi * (nodes[None, :] + 1.0)
    mu_mid = mu_edges[:-1, None] + 0.5 * dmu * (nodes[None, :] + 1.0)
    wx = 0.5 * dxi * weights
    wm = 0.5 * dmu * weights
    xg = xi_mid.reshape(-1)[:, None]
    mg = mu_mid.reshape(-1)[None, :]
    rho = density(xg, np.arccos(mg), tau, coeffs)
    integrand = 2.0 * math.pi * rho * xg * xg
    integrand = integrand.reshape(bins, quad_points, bins, quad_points)
    masses = np.einsum("q,r,iqjr->ij", wx, wm, integrand)
    overflow = 1.0 - float(masses.sum())
    return masses, overflow


def histogram_masses(
    xi: np.ndarray,
    theta: np.ndarray,
    *,
    bins: int = DEFAULT_BINS,
    xi_max: float = XI_MAX_BIN,
):
    """Fraction of samples in each cell, plus the xi > xi_max overflow."""
    n = len(xi)
    if n == 0:
        # Zero survivors carry zero mass; the caller still gets a full
        # summary (TV against the density is then ~1).
        return np.zeros((bins, bins)), 0.0
    mu = np.cos(theta)
    counts, _, _ = np.histogram2d(
        xi,
        mu,
        bins=[
            np.linspace(0.0, xi_max, bins + 1),
            np.linspace(-1.0, 1.0, bins + 1),
        ],
    )
    inside = counts / n
    overflow = float(np.sum(xi > xi_max)) / n
    return inside, overflow


def tv_distance(
    xi: np.ndarray,
    theta: np.ndarray,
    tau: float,
    coeffs: CoefficientState,
    *,
    bins: int = DEFAULT_BINS,
    xi_max: float = XI_MAX_BIN,
) -> float:
    """Total-variation distance between the ensemble and the density."""
    observed, obs_over = histogram_masses(xi, theta, bins=bins, xi_max=xi_max)
    expected, exp_over = reference_masses(tau, coeffs, bins=bins, xi_max=xi_max)
    return _tv(observed, obs_over, expected, exp_over)


def _tv(observed, obs_over, expected, exp_over) -> float:
    """Total-variation distance between two binned masses with overflow."""
    return 0.5 * (
        float(np.abs(observed - expected).sum()) + abs(obs_over - exp_over)
    )


def _advance_batch(
    rhs,
    xi: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
    tau_target: float,
    cfg: IntegratorConfig,
):
    """Vectorized DP 5(4) (see dp5_trial) with per-trajectory clocks and steps.

    Returns (xi, theta, phi, ok_mask, axis_mask, underflow_mask); the
    coordinate arrays hold final values only where ok_mask is set.
    """
    n = len(xi)
    t = np.zeros(n)
    y0 = xi.copy()
    y1 = theta.copy()
    y2 = phi.copy()
    h = np.full(n, min(0.1, cfg.max_step))
    err_prev = np.ones(n)
    just_rej = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    axis_out = np.zeros(n, dtype=bool)
    under_out = np.zeros(n, dtype=bool)
    rtol = cfg.rel_tol
    atol = cfg.abs_tol

    # Drop anything already hugging the axis.
    bad = np.sin(y1) < AXIS_GUARD
    axis_out |= bad
    alive &= ~bad

    # Stage 1 of each row's next trial (first-same-as-last).  A rejected
    # row keeps its clock and state, and an accepted row's last stage
    # was evaluated at its new clock and state, so after this one call
    # every row's k1 is known without evaluating it again.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stage1 = list(rhs(t, y0, y1)[:3])

    active = alive & (t < tau_target)
    while active.any():
        idx = np.nonzero(active)[0]
        ti = t[idx]
        hi = np.minimum(h[idx], cfg.max_step)
        rem = tau_target - ti
        hits = hi >= rem
        hi = np.where(hits, rem, hi)

        under = hi < cfg.min_step
        if under.any():
            sel = idx[under]
            under_out[sel] = True
            alive[sel] = False
            keep = ~under
            idx = idx[keep]
            if idx.size == 0:
                active = alive & (t < tau_target)
                continue
            ti = ti[keep]
            hi = hi[keep]
            hits = hits[keep]

        a0 = y0[idx]
        a1 = y1[idx]
        a2 = y2[idx]

        # A trial stage can momentarily leave the valid region (xi <= 0,
        # axis crossing, node); the resulting inf/nan is caught by the
        # error norm and the step is retried smaller, so the transient
        # warnings carry no information.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k1 = [k[idx] for k in stage1]
            b0, b1, b2, k7, e0, e1, e2 = dp5_trial(rhs, ti, hi, a0, a1, a2, k1)
            s0 = atol + rtol * np.maximum(np.abs(a0), np.abs(b0))
            s1 = atol + rtol * np.maximum(np.abs(a1), np.abs(b1))
            s2 = atol + rtol * np.maximum(np.abs(a2), np.abs(b2))
            err = np.sqrt(((e0 / s0) ** 2 + (e1 / s1) ** 2 + (e2 / s2) ** 2) / 3.0)
            # A trial state past the axis puts 1/sin(theta) on the wrong
            # sheet, so its last stage and error mean nothing.
            axis_hit = ~(np.sin(b1) >= AXIS_GUARD)
        err = np.where(np.isfinite(err), err, np.inf)
        err = np.where(axis_hit, np.inf, err)

        accept = err <= 1.0
        acc_idx = idx[accept]
        if acc_idx.size:
            t[acc_idx] = np.where(hits[accept], tau_target, ti[accept] + hi[accept])
            y0[acc_idx] = b0[accept]
            y1[acc_idx] = b1[accept]
            y2[acc_idx] = b2[accept]
            for k, k_new in zip(stage1, k7):
                k[acc_idx] = k_new[accept]
            e_acc = err[accept]
            # Floor the error before powering: np.where evaluates both
            # branches, and 0 ** -alpha would warn.
            e_pow = np.maximum(e_acc, 1e-300)
            fac = np.where(
                e_acc == 0.0,
                MAX_FACTOR,
                SAFETY * e_pow ** (-PI_ALPHA) * err_prev[acc_idx] ** PI_BETA,
            )
            fac = np.clip(fac, MIN_FACTOR, MAX_FACTOR)
            fac = np.where(just_rej[acc_idx], np.minimum(fac, 1.0), fac)
            h[acc_idx] = hi[accept] * fac
            err_prev[acc_idx] = np.maximum(e_acc, 1e-4)
            just_rej[acc_idx] = False

        rej_idx = idx[~accept]
        if rej_idx.size:
            e_rej = err[~accept]
            shrink = np.where(
                np.isfinite(e_rej),
                np.maximum(MIN_FACTOR, SAFETY * e_rej ** (-PI_ALPHA)),
                0.5,
            )
            h[rej_idx] = hi[~accept] * shrink
            just_rej[rej_idx] = True
            # Repeated axis failures shrink h below min_step and the
            # trajectory is then dropped on a later sweep.

        active = alive & (t < tau_target)

    ok = alive & ~axis_out & ~under_out
    return y0, y1, y2, ok, axis_out, under_out


def evolve_ensemble(
    points,
    tau_target: float,
    drive: Optional[DriveParameters],
    config: IntegratorConfig = IntegratorConfig(),
    *,
    source=None,
    seed: int = DEFAULT_SEED,
    bins: int = DEFAULT_BINS,
    spin: SpinVector = SPIN_UP,
) -> EnsembleSummary:
    """Propagate an ensemble to tau_target and compare with the density.

    points is a list of SpatialPoint or a (xi, theta, phi) array
    triple.  drive selects the analytic driven amplitudes; pass
    source=FrozenSource(...) (and drive=None) for undriven states.
    The seed is recorded in the summary for bookkeeping only; sampling
    happens in sample_initial/sample_arrays.

    Per-trajectory failures become counted drop-outs; if more than 0.1%
    of the ensemble drops out, ParameterError is raised after the
    summary statistics are computed (the message carries the counts).
    """
    if source is None:
        if drive is None:
            raise ParameterError("need either drive or source")
        source = AnalyticSource(drive)

    if isinstance(points, (list, tuple)) and points and isinstance(points[0], SpatialPoint):
        xi = np.array([p.xi for p in points])
        theta = np.array([p.theta for p in points])
        phi = np.array([p.phi for p in points])
    else:
        xi, theta, phi = (np.asarray(a, dtype=float) for a in points)
    count = len(xi)
    if tau_target < 0.0:
        raise ParameterError("tau_target must be non-negative, got %r" % (tau_target,))

    def coeffs_at(tau: float) -> CoefficientState:
        return source.eval(tau)

    baseline = tv_distance(xi, theta, 0.0, coeffs_at(0.0), bins=bins)

    if tau_target == 0.0:
        xf, tf, pf = xi, theta, phi
        ok = np.ones(count, dtype=bool)
        axis_out = np.zeros(count, dtype=bool)
        under_out = np.zeros(count, dtype=bool)
    else:
        rhs = make_batch_rhs(source, spin=spin)
        xf, tf, pf, ok, axis_out, under_out = _advance_batch(
            rhs, xi, theta, phi, tau_target, config
        )
    expected, exp_over = reference_masses(
        tau_target, coeffs_at(tau_target), bins=bins
    )
    observed, obs_over = histogram_masses(xf[ok], tf[ok], bins=bins)

    # Mean local energy over the surviving, unclipped trajectories.
    include_drive = source.drive if source.is_driven else None
    energies, clipped = _energy_batch(
        xf[ok], tf[ok], tau_target, coeffs_at(tau_target), include_drive, config.rho_floor
    )
    use = ~clipped
    n_use = int(use.sum())
    if n_use:
        mean_e = float(energies[use].mean())
        se_e = float(energies[use].std(ddof=1) / math.sqrt(n_use)) if n_use > 1 else 0.0
    else:
        mean_e = math.nan
        se_e = math.nan
    if include_drive is not None:
        exp_e = float(expected_energy(tau_target, include_drive))
    else:
        state = coeffs_at(tau_target)
        exp_e = (1.0 - state.cb_sq) * CODATA.E1_eV + state.cb_sq * CODATA.E2_eV

    dropout = int(count - ok.sum())
    summary = EnsembleSummary(
        count=count,
        seed=seed,
        tau_target=tau_target,
        bins=bins,
        divergence=_tv(observed, obs_over, expected, exp_over),
        baseline_divergence=baseline,
        observed=observed,
        expected=expected,
        observed_overflow=obs_over,
        expected_overflow=exp_over,
        mean_energy_eV=mean_e,
        se_energy_eV=se_e,
        expected_energy_eV=exp_e,
        clipped_count=int(clipped.sum()),
        dropout_count=dropout,
        dropout_axis=int(axis_out.sum()),
        dropout_underflow=int(under_out.sum()),
    )
    if dropout > DROPOUT_LIMIT * count:
        raise EnsembleDropoutError(
            "%d of %d trajectories dropped out (axis %d, underflow %d)"
            % (dropout, count, summary.dropout_axis, summary.dropout_underflow),
            summary=summary,
        )
    return summary


def _energy_batch(
    xi: np.ndarray,
    theta: np.ndarray,
    tau: float,
    coeffs: CoefficientState,
    drive: Optional[DriveParameters],
    rho_floor: float,
):
    """Vectorized local energy; returns (energies, clipped_mask)."""
    E1_ = CODATA.E1_eV
    E2_ = CODATA.E2_eV
    ct = np.cos(theta)
    u1 = N1 * np.exp(-xi)
    u2 = N2 * xi * np.exp(-0.5 * xi) * ct
    ca, cb = coeffs.c_a, coeffs.c_b
    phase = complex(math.cos(reduce_angle(tau)), -math.sin(reduce_angle(tau)))
    m = ca.conjugate() * cb * phase
    ca2 = abs(ca) ** 2
    cb2 = abs(cb) ** 2
    rho = ca2 * u1 * u1 + cb2 * u2 * u2 + 2.0 * m.real * u1 * u2
    num = E1_ * ca2 * u1 * u1 + E2_ * cb2 * u2 * u2 + (E1_ + E2_) * m.real * u1 * u2
    clipped = rho < rho_floor
    h0 = np.where(clipped, np.copysign(1000.0, num), num / np.where(clipped, 1.0, rho))
    if drive is not None:
        w = reduce_angle(drive.omega_t * tau)
        h0 = h0 + np.where(
            clipped, 0.0, -0.5 * drive.field_energy_eV * xi * ct * math.cos(w)
        )
    return h0, clipped
