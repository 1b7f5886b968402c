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

The ensemble carries (xi, theta) only: the histogram, the local energy
and the drop-out counts read no phi, so phi is drawn but not
propagated.

Trajectories never couple: each row has its own clock and step size and
all arithmetic is elementwise.  A cloud of at least 2 * SHARD_MIN_ROWS
rows is therefore propagated in contiguous row slices, one process per
CPU in the affinity mask, and the slices are joined in row order; the
result is byte-identical for any number of CPUs.  For the same reason a
sweep may work on whole arrays while every row is still active, and
gather the active rows through an index once some have finished.

A batch sweep costs a fixed ~0.17 ms of numpy dispatch however few
rows it steps, and a cloud's last rows to reach a target (those dwelling
near density nodes) can take hundreds of sweeps on their own.  Once
fewer than TAIL_ROWS rows are still short of a target, each of them is
stepped there alone, on Python floats, by a copy of the sweep's step
control with rates from dynamics.make_row_rhs.  Every scalar operation
is the one the sweep applies to that row's array element (numpy ufuncs
round a scalar as they round an array element), so the result is again
byte-identical, for any TAIL_ROWS and so for any shard size.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .constants import E1_EV, E2_EV, operand
from .drive import AnalyticSource, CoefficientState, DriveParameters, NumericSource
from .dynamics import AXIS_GUARD, make_batch_rhs, make_batch_stages, make_row_rhs
from .engine import IntegratorConfig
from .errors import ParameterError
from .observables import expected_energy, local_energy_array
from .stepping import MAX_FACTOR, MIN_FACTOR, PI_ALPHA, PI_BETA, SAFETY, dp5_trial
from .wavefield import SpatialPoint, check_count, density, gauss_legendre

DEFAULT_SEED = 20260819
XI_MAX_BIN = 12.0
DEFAULT_BINS = 20
# Gauss-Legendre points per cell and axis in reference_masses.
CELL_QUAD_POINTS = 12

# Fraction of trajectories allowed to drop out (axis or step failure)
# before a run is considered invalid.
DROPOUT_LIMIT = 1e-3

# Fewest rows per process-level shard.  The slowest row of a slice sets
# its sweep count and every sweep has a fixed cost, so small slices gain
# little.  Two shards against one on a 2-core machine, to tau = 500 at
# rtol 1e-6 (median of 3 alternating runs): 600 rows took 1.07x the
# serial wall, 1200 rows 0.93x, 2048 rows 0.71x, 4800 rows 0.76x.  The
# crossover is near 500 rows per shard; 1024 stays clear of it.
SHARD_MIN_ROWS = 1024

# Fewest active rows for a batch sweep; below it each remaining row is
# finished to the segment's target alone (_finish_row), with the same
# result byte for byte.  A sweep has a fixed numpy dispatch cost: on a
# 2-core machine (rtol 1e-6; the median, over the whole-array sweeps of
# one run, of each sweep's best wall in 8 runs; least squares over
# sweeps of 12 to 800 rows; residuals within 5%) a sweep of n rows took
# 0.168 ms + 0.205 us * n and one row step alone 29 us, so the row loop
# is the cheaper way up to n = 5 and about even at 6.  Both ways take
# the same steps, so the sweep sizes recorded in a run without the row
# loop give each threshold's cost of the sweep loop, as a fraction of
# that run's:
#
#   TAIL_ROWS                            4      6      8      10     12     16     24
#   300 rows to 125/250/500 (seeds       0.876  0.872  0.878  0.883  0.885  0.904  0.936
#     11-16, median; 0.677-0.997 at 12)
#   1000 rows to 2000 (seed 1)           0.873  0.866  0.872  0.880  0.900  0.913  0.962
#
# 6 is the best on both clouds and 8 is within 0.7% of it, while 12
# costs 1.5% and 3.9% more than 6.  8 leaves room for a host with a
# higher fixed cost: at 0.22 ms the two ways break even near 8.
TAIL_ROWS = 8


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

    def dropout_error(self) -> Optional[EnsembleDropoutError]:
        """The error for a blown drop-out budget, or None within it."""
        if self.dropout_count > DROPOUT_LIMIT * self.count:
            return EnsembleDropoutError(
                "%d of %d trajectories dropped out by tau = %g (axis %d, underflow %d)"
                % (
                    self.dropout_count,
                    self.count,
                    self.tau_target,
                    self.dropout_axis,
                    self.dropout_underflow,
                ),
                summary=self,
            )
        return None

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "observed": self.observed.tolist(),
            "expected": self.expected.tolist(),
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


def bin_edges(bins: int):
    """(xi_edges, mu_edges) of the bins x bins histogram grid.

    bins + 1 edges each, over xi in [0, XI_MAX_BIN] and mu = cos(theta)
    in [-1, 1]; the ensemble histogram, its reference masses and
    histogram.csv all read them from here.
    """
    check_count("bins", bins)
    return np.linspace(0.0, XI_MAX_BIN, bins + 1), np.linspace(-1.0, 1.0, bins + 1)


def reference_masses(tau: float, coeffs: CoefficientState, *, bins: int = DEFAULT_BINS):
    """Quantum mass of each histogram cell at one time.

    Returns (masses[bins, bins], overflow) where masses[i, j] integrates
    2 pi rho xi^2 over the cell xi in bin i, mu = cos(theta) in bin j,
    with CELL_QUAD_POINTS^2 nodes per cell, and overflow = 1 -
    sum(masses) is the mass beyond XI_MAX_BIN.
    """
    xi_edges, mu_edges = bin_edges(bins)
    nodes, weights = gauss_legendre(CELL_QUAD_POINTS)
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
    integrand = integrand.reshape(bins, CELL_QUAD_POINTS, bins, CELL_QUAD_POINTS)
    masses = np.einsum("q,r,iqjr->ij", wx, wm, integrand)
    overflow = 1.0 - float(masses.sum())
    return masses, overflow


def histogram_masses(xi: np.ndarray, theta: np.ndarray, *, bins: int = DEFAULT_BINS):
    """Fraction of samples in each cell, plus the xi > XI_MAX_BIN overflow."""
    edges = bin_edges(bins)
    n = len(xi)
    if n == 0:
        # Zero survivors carry zero mass; the caller still gets a full
        # summary (TV against the density is then ~1).
        return np.zeros((bins, bins)), 0.0
    counts, _, _ = np.histogram2d(xi, np.cos(theta), bins=edges)
    inside = counts / n
    overflow = float(np.sum(xi > XI_MAX_BIN)) / n
    return inside, overflow


def tv_distance(
    xi: np.ndarray,
    theta: np.ndarray,
    tau: float,
    coeffs: CoefficientState,
    *,
    bins: int = DEFAULT_BINS,
) -> float:
    """Total-variation distance between the ensemble and the density."""
    observed, obs_over = histogram_masses(xi, theta, bins=bins)
    expected, exp_over = reference_masses(tau, coeffs, bins=bins)
    return _tv(observed, obs_over, expected, exp_over)


def _tv(observed, obs_over, expected, exp_over) -> float:
    """Total-variation distance between two binned masses with overflow."""
    return 0.5 * (
        float(np.abs(observed - expected).sum()) + abs(obs_over - exp_over)
    )


# The sweep's constants as ufunc operands: the norm's divisor, the
# axis check's interval (see _advance_batch) and the step control's.
_ONE, _TWO, _HALF, _ZERO, _INF = (operand(x) for x in (1.0, 2.0, 0.5, 0.0, math.inf))
_AXIS_LO, _AXIS_HI = operand(1e-3), operand(3.14)
_ERR_TINY, _ERR_FLOOR = operand(1e-300), operand(1e-4)
_SAFETY, _NEG_ALPHA, _BETA = operand(SAFETY), operand(-PI_ALPHA), operand(PI_BETA)
_MIN_FACTOR, _MAX_FACTOR = operand(MIN_FACTOR), operand(MAX_FACTOR)


def _advance_batch(
    rhs,
    stages,
    row_rhs,
    xi: np.ndarray,
    theta: np.ndarray,
    tau_targets,
    cfg: IntegratorConfig,
):
    """Vectorized DP 5(4) (see dp5_trial) with per-trajectory clocks and steps.

    The state is (xi, theta); phi is not propagated, dp5_trial's carried
    slot holds 0.0 and the error norm is the RMS over xi and theta.  The
    cloud runs forward once through the ascending tau_targets; every row
    lands exactly on each target, and its step size and controller
    memory carry over the landing.  Returns one (xi, theta, ok_mask,
    axis_mask, underflow_mask) per target; the coordinate arrays hold
    values only where ok_mask is set, and drop-outs accumulate.

    rhs is a make_batch_rhs closure and stages a make_batch_stages
    closure of the same source.  Each sweep's trial takes its stage
    arguments from one stages call and makes exactly six rhs calls,
    with the rows as the second argument; each call's argument carries
    the output slot its rates are written into.  While every row is
    active, a sweep works on the arrays themselves and stores accepted
    rows through a mask; after that it gathers the active rows by index
    and scatters them back, with the same arithmetic per row.  Every
    per-row array a sweep computes, apart from the gathered rows' index,
    is written into work arrays allocated here once, at the cloud's row
    count (_SweepWork); a gathered sweep uses their first entries.  The
    stage arguments are rebuilt only when the row count changes, the
    ufunc constants are 0-d arrays (constants.operand), and a masked
    write is skipped when its mask is empty, as the landing, failure,
    zero-error and just-rejected masks are in most sweeps.  Once fewer
    than TAIL_ROWS rows of a segment are still short of its target,
    each of them is finished alone (_finish_row) with row_rhs, a
    make_row_rhs closure of the same source; the result is the same,
    byte for byte.
    """
    n = len(xi)
    t = np.zeros(n)
    y0 = xi.copy()
    y1 = theta.copy()
    h = np.full(n, min(0.1, cfg.max_step))
    err_prev = np.ones(n)
    just_rej = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    axis_out = np.zeros(n, dtype=bool)
    under_out = np.zeros(n, dtype=bool)
    active = np.empty(n, dtype=bool)
    rtol, atol = operand(cfg.rel_tol), operand(cfg.abs_tol)
    max_step, min_step = operand(cfg.max_step), operand(cfg.min_step)
    work = _SweepWork(n)
    # The last stage table that stages returned, and the six stage
    # arguments built on it: stages returns the same table, and work the
    # same slots, while the row count repeats.
    table = args = None

    # Drop anything already hugging the axis.
    bad = np.sin(y1) < AXIS_GUARD
    axis_out |= bad
    alive &= ~bad

    states = []
    for tau_target in tau_targets:
        # A Python float, so that the row loop's scalar arithmetic
        # promotes exactly as the sweep's array arithmetic does.
        tau_target = float(tau_target)
        target = operand(tau_target)
        # Stage 1 of each row's next trial (first-same-as-last).  A
        # rejected row keeps its clock and state, and an accepted row's
        # last stage was evaluated at its new clock and state, so after
        # this one call every row's k1 is known without evaluating it
        # again.  A row that landed on the previous target had its last
        # stage evaluated at ti + (target - ti), which can be an ulp off
        # its clock, so every segment starts from a fresh call.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stage1 = list(rhs(t, y0, y1)[:2])

        while True:
            np.logical_and(alive, np.less(t, target, out=active), out=active)
            m = int(np.count_nonzero(active))
            if m < TAIL_ROWS or m == 0:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    for i in active.nonzero()[0].tolist():
                        _finish_row(
                            row_rhs, i, tau_target, cfg,
                            t, (y0, y1), h, err_prev, just_rej, stage1, alive, under_out,
                        )
                break
            w = work.views(m)
            trial = w.trial
            # While every row is active the sweep reads the state arrays
            # themselves and gathers nothing.
            whole = m == n
            if whole:
                ti, a0, a1, ep, k1x, k1t, jr = t, y0, y1, err_prev, *stage1, just_rej
                hi = np.minimum(h, max_step, out=w.hi)
            else:
                idx = active.nonzero()[0]
                gathered = zip((t, y0, y1, err_prev, *stage1, just_rej), w.gathered)
                # mode="clip" skips the copy that "raise" makes when given
                # out; idx holds only valid rows.
                ti, a0, a1, ep, k1x, k1t, jr = [
                    a.take(idx, out=g, mode="clip") for a, g in gathered
                ]
                hi = h.take(idx, out=w.hi, mode="clip")
                np.minimum(hi, max_step, out=hi)
            rem = np.subtract(target, ti, out=w.rem)
            hits = np.greater_equal(hi, rem, out=w.hits)
            # count_nonzero tests a mask for rows more cheaply than the
            # masked write it saves (and than mask.any()).
            any_hits = np.count_nonzero(hits)
            if any_hits:
                np.copyto(hi, rem, where=hits)

            under = np.less(hi, min_step, out=w.mask)
            if np.count_nonzero(under):
                # These rows drop out; the others start the sweep again
                # with the same clocks and steps.
                sel = under.nonzero()[0] if whole else idx[under]
                under_out[sel] = True
                alive[sel] = False
                continue

            # A trial stage can momentarily leave the valid region (xi <= 0,
            # axis crossing, node); the resulting inf/nan is caught by the
            # error norm and the step is retried smaller, so the transient
            # warnings carry no information.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # Stages 6 and 7 share their terms but not their slots.
                terms = stages(ti, hi)
                if terms is not table:
                    table = terms
                    args = [(*terms[min(i, 4)], slot) for i, slot in enumerate(w.slots)]
                b0, b1, _, k7, e0, e1 = dp5_trial(
                    rhs, ti, hi, a0, a1, 0.0, (k1x, k1t, 0.0), args, trial
                )[:6]
                # The trial's stage state and scratch arrays are free now.
                q0, q1, g, f = trial[0], trial[1], trial[6], trial[7]
                # err = sqrt(((e0 / s0)^2 + (e1 / s1)^2) / 2) with the
                # scales s = atol + rtol * max(|a|, |b|).
                for q, a, b, e in ((q0, a0, b0, e0), (q1, a1, b1, e1)):
                    s = np.maximum(np.abs(a, out=q), np.abs(b, out=g), out=q)
                    np.add(atol, np.multiply(rtol, s, out=s), out=s)
                    np.square(np.divide(e, s, out=q), out=q)
                err = np.sqrt(np.divide(np.add(q0, q1, out=q0), _TWO, out=q0), out=w.err)
                # A trial state past the axis puts 1/sin(theta) on the wrong
                # sheet, so its last stage and error mean nothing.  On
                # [1e-3, 3.14] sin exceeds 9e-4, far above AXIS_GUARD, so
                # np.sin (a scalar libm loop, dearer than the rest of the
                # norm) runs only on the rows outside, NaN among them.
                ok = np.greater_equal(b1, _AXIS_LO, out=w.ok)
                np.logical_and(ok, np.less_equal(b1, _AXIS_HI, out=w.mask), out=ok)
                near = np.logical_not(ok, out=w.failed).nonzero()[0]
                if near.size:
                    ok[near] = np.sin(b1[near]) >= AXIS_GUARD
                np.logical_and(ok, np.isfinite(err, out=w.mask), out=ok)
            failed = np.logical_not(ok, out=w.failed)
            any_failed = np.count_nonzero(failed)
            if any_failed:
                np.copyto(err, _INF, where=failed)
            accept = np.less_equal(err, _ONE, out=w.accept)

            # The step factor of every row, accepted (PI) or rejected (I
            # alone, or a halving).  Flooring the error first keeps
            # 0 ** -alpha from warning; no rejected error is below 1.
            grow = np.power(np.maximum(err, _ERR_TINY, out=g), _NEG_ALPHA, out=g)
            np.multiply(_SAFETY, grow, out=grow)
            fac = np.multiply(grow, np.power(ep, _BETA, out=f), out=f)
            zero = np.equal(err, _ZERO, out=w.mask)
            if np.count_nonzero(zero):
                np.copyto(fac, _MAX_FACTOR, where=zero)
            # Clipped to [MIN_FACTOR, MAX_FACTOR], as np.clip would.
            np.minimum(np.maximum(fac, _MIN_FACTOR, out=fac), _MAX_FACTOR, out=fac)
            if np.count_nonzero(jr):
                np.minimum(fac, _ONE, out=fac, where=jr)
            # The factor of each row, the rejected ones' shrink in place.
            shrink = np.maximum(_MIN_FACTOR, grow, out=grow)
            if any_failed:
                np.copyto(shrink, _HALF, where=failed)
            np.copyto(shrink, fac, where=accept)
            # Repeated axis failures shrink h below min_step and the
            # trajectory is then dropped on a later sweep.

            # What an accepted row takes on: the clock, the state, the
            # controller memory and stage 1 of its next trial.
            t_new = np.add(ti, hi, out=rem)
            if any_hits:
                np.copyto(t_new, target, where=hits)
            updates = (
                (t, ti, t_new),
                (y0, a0, b0),
                (y1, a1, b1),
                (err_prev, ep, np.maximum(err, _ERR_FLOOR, out=err)),
                (stage1[0], k1x, k7[0]),
                (stage1[1], k1t, k7[1]),
            )
            if whole:
                np.multiply(hi, shrink, out=h)
                np.logical_not(accept, out=just_rej)
                for a, _, new in updates:
                    np.copyto(a, new, where=accept)
            else:
                h[idx] = np.multiply(hi, shrink, out=shrink)
                just_rej[idx] = np.logical_not(accept, out=jr)
                # Rejected rows write their own gathered values back.
                for a, old, new in updates:
                    np.copyto(old, new, where=accept)
                    a[idx] = old

        ok = alive & ~axis_out & ~under_out
        states.append((y0.copy(), y1.copy(), ok, axis_out.copy(), under_out.copy()))
    return states


class _SweepWork:
    """The work arrays of _advance_batch's sweeps, for up to n rows.

    Two blocks, float and bool, with one row per work array, allocated
    once.  views(m) gives the first m entries of every array, named as
    the sweep uses them, and keeps them while m repeats:

    * trial: dp5_trial's eight work arrays;
    * slots: the six rhs calls' output slots for _numpy_rates, each a
      pair of its own followed by six arrays that all six share;
    * gathered: the gathered clock, state, controller memory, stage 1
      and rejection flag of a gathered sweep;
    * hi, rem and err (float) and hits, ok, failed, accept and mask
      (bool; mask holds short-lived comparisons).
    """

    FLOATS = 8 + 2 * 6 + 6 + 6 + 3
    BOOLS = 1 + 5

    def __init__(self, n):
        self._floats = np.empty((self.FLOATS, n))
        self._bools = np.empty((self.BOOLS, n), dtype=bool)
        self._m = None

    def views(self, m):
        if m != self._m:
            f = list(self._floats[:, :m])
            b = list(self._bools[:, :m])
            self.trial = f[:8]
            shared = f[20:26]
            self.slots = [(f[8 + 2 * i], f[9 + 2 * i], *shared) for i in range(6)]
            self.gathered = f[26:32] + b[:1]
            self.hi, self.rem, self.err = f[32:]
            self.hits, self.ok, self.failed, self.accept, self.mask = b[1:]
            self._m = m
        return self


def _finish_row(
    row_rhs, i, tau_target, cfg, t, y, h, err_prev, just_rej, stage1, alive, under_out
):
    """Step row i of _advance_batch's state to tau_target on its own.

    This is the sweep of _advance_batch for one row, line for line and
    in the same operation order, on Python floats and numpy scalars
    (np.sin and np.power as the sweep has them; err squared by
    multiplication, as numpy squares an array).  row_rhs gives the batch
    rhs's values bit for bit, so the row ends exactly where the sweep
    would have taken it.  The row's clock, (xi, theta) state, step,
    controller memory and stage-1 cache are read from and written back
    to the arrays every step; the caller holds np.errstate as the sweep
    does.
    """
    y0, y1 = y
    rtol = cfg.rel_tol
    atol = cfg.abs_tol
    while t[i] < tau_target:
        ti = t.item(i)
        hi = min(h.item(i), cfg.max_step)
        rem = tau_target - ti
        hits = hi >= rem
        if hits:
            hi = rem
        if hi < cfg.min_step:
            under_out[i] = True
            alive[i] = False
            return

        a0 = y0.item(i)
        a1 = y1.item(i)
        k1 = (stage1[0].item(i), stage1[1].item(i), 0.0)
        b0, b1, _, k7, e0, e1 = dp5_trial(row_rhs, ti, hi, a0, a1, 0.0, k1)[:6]
        # max(b, a) returns a NaN b, as np.maximum would.
        q0 = e0 / (atol + rtol * max(abs(b0), abs(a0)))
        q1 = e1 / (atol + rtol * max(abs(b1), abs(a1)))
        err = math.sqrt((q0 * q0 + q1 * q1) / 2.0)
        if not math.isfinite(err) or not np.sin(b1) >= AXIS_GUARD:
            err = math.inf

        if err <= 1.0:
            t[i] = tau_target if hits else ti + hi
            y0[i] = b0
            y1[i] = b1
            for k, k_new in zip(stage1, k7):
                k[i] = k_new
            if err == 0.0:
                fac = MAX_FACTOR
            else:
                fac = SAFETY * np.power(max(err, 1e-300), -PI_ALPHA) * np.power(
                    err_prev.item(i), PI_BETA
                )
            fac = min(max(fac, MIN_FACTOR), MAX_FACTOR)
            if just_rej[i]:
                fac = min(fac, 1.0)
            h[i] = hi * fac
            err_prev[i] = max(err, 1e-4)
            just_rej[i] = False
        else:
            if math.isfinite(err):
                shrink = max(MIN_FACTOR, SAFETY * np.power(err, -PI_ALPHA))
            else:
                shrink = 0.5
            h[i] = hi * shrink
            just_rej[i] = True


def evolve_ensemble(
    points,
    tau_target: float,
    drive: Optional[DriveParameters],
    config: IntegratorConfig = IntegratorConfig(),
    *,
    source=None,
    seed: int = DEFAULT_SEED,
    bins: int = DEFAULT_BINS,
) -> EnsembleSummary:
    """Propagate an ensemble to tau_target and compare with the density.

    The one-target case of evolve_targets, whose other arguments it
    takes.  If more than 0.1% of the ensemble drops out, the summary's
    EnsembleDropoutError is raised after the statistics are computed;
    it carries the summary and its message the counts.
    """
    (summary,) = evolve_targets(
        points, (tau_target,), drive, config, source=source, seed=seed, bins=bins
    )
    error = summary.dropout_error()
    if error is not None:
        raise error
    return summary


def evolve_targets(
    points,
    tau_targets,
    drive: Optional[DriveParameters],
    config: IntegratorConfig = IntegratorConfig(),
    *,
    source=None,
    seed: int = DEFAULT_SEED,
    bins: int = DEFAULT_BINS,
) -> list[EnsembleSummary]:
    """Propagate an ensemble once through every target time.

    points is a list of SpatialPoint or a (xi, theta, phi) array
    triple; the cloud is propagated as (xi, theta), so phi's shape is
    checked but phi is not propagated, and the spin (it enters only
    dphi) plays no part.  Every xi must be finite and positive and every
    theta finite, or ParameterError is raised; a theta within the axis
    guard of a pole counts as an axis drop-out.  drive selects the
    analytic driven amplitudes; pass source=FrozenSource(...) (and
    drive=None) for undriven states.  A
    NumericSource is refused with ParameterError, whatever the targets.
    The seed is recorded in the summaries for bookkeeping only;
    sampling happens in sample_initial/sample_arrays.

    The cloud is run forward once, in ascending time, and the summaries
    come back in the order of tau_targets (repeats and tau = 0
    included).  Per-trajectory failures become drop-outs counted from
    tau = 0 up to each target; a summary over the budget is returned,
    not raised (see EnsembleSummary.dropout_error).
    """
    if source is None:
        if drive is None:
            raise ParameterError("need either drive or source")
        source = AnalyticSource(drive)
    if isinstance(source, NumericSource):
        # Its amplitudes come one time at a time, too slow for a batch.
        raise ParameterError(
            "batch propagation supports analytic and frozen sources, got %r"
            % (source.label,)
        )

    if isinstance(points, (list, tuple)) and points and isinstance(points[0], SpatialPoint):
        xi = np.array([p.xi for p in points])
        theta = np.array([p.theta for p in points])
        phi = np.array([p.phi for p in points])
    else:
        try:
            xi, theta, phi = (np.asarray(a, dtype=float) for a in points)
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                "points must be SpatialPoints or three (xi, theta, phi) arrays"
            ) from exc
    if not (xi.ndim == 1 and xi.size and xi.shape == theta.shape == phi.shape):
        raise ParameterError(
            "points must be three equal-length 1-D arrays with at least one point, "
            "got shapes %r, %r, %r" % (xi.shape, theta.shape, phi.shape)
        )
    # Such rows would be propagated, or counted as step-underflow
    # drop-outs without a step.  A finite theta outside (0, pi) is left
    # to the axis guard, which counts it as an axis drop-out.
    if not (np.all(xi > 0.0) and np.all(xi < math.inf) and np.all(np.isfinite(theta))):
        raise ParameterError("points need finite positive xi and finite theta")
    count = len(xi)
    for tau in tau_targets:
        if not 0.0 <= tau < math.inf:
            raise ParameterError("tau_target must be finite and non-negative, got %r" % (tau,))

    baseline = tv_distance(xi, theta, 0.0, source.eval(0.0), bins=bins)
    zeros = np.zeros(count, dtype=bool)
    states = {0.0: (xi, theta, ~zeros, zeros, zeros)}
    later = sorted({tau for tau in tau_targets if tau > 0.0})
    if later:
        states.update(zip(later, _advance_sharded(source, xi, theta, later, config)))
    summaries = {
        tau: _summarize(tau, state, source, config, baseline, seed, bins)
        for tau, state in states.items()
        if tau in tau_targets
    }
    return [summaries[tau] for tau in tau_targets]


def _shard_count(n: int) -> int:
    """One shard per CPU this process may run on, each of SHARD_MIN_ROWS or more rows."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform: stay serial
        cpus = 1
    return max(1, min(cpus, n // SHARD_MIN_ROWS))


def _advance_shard(source, xi, theta, tau_targets, cfg):
    """_advance_batch on one slice of rows, with rhs closures built for it.

    The closures hold a memo or work arrays and cannot be pickled, so
    every process builds its own; the memo reuses only exactly equal
    values.
    """
    rhs = make_batch_rhs(source)
    stages = make_batch_stages(source)
    row_rhs = make_row_rhs(source)
    return _advance_batch(rhs, stages, row_rhs, xi, theta, tau_targets, cfg)


def _advance_sharded(source, xi, theta, tau_targets, cfg):
    """_advance_batch over contiguous row slices, one process per slice.

    With one shard this is the single call.  Otherwise this process runs
    the first slice and a fork-context pool the others; each target's
    state is joined in row order, so it equals the single call's byte
    for byte.  A slice that raises, or a worker that dies, raises here.
    """
    shards = _shard_count(len(xi))
    if shards == 1:
        return _advance_shard(source, xi, theta, tau_targets, cfg)

    # Imported on first use, so that importing pilotwave does not load the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    slices = list(zip(*(np.array_split(a, shards) for a in (xi, theta))))
    # fork: workers inherit the imported modules instead of importing
    # them again, and the pool forks them all before starting its own
    # threads.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(shards - 1, mp_context=context) as pool:
        futures = [
            pool.submit(_advance_shard, source, *rows, tau_targets, cfg)
            for rows in slices[1:]
        ]
        parts = [_advance_shard(source, *slices[0], tau_targets, cfg)]
        parts += [future.result() for future in futures]
    return [
        tuple(np.concatenate(field) for field in zip(*shard_states))
        for shard_states in zip(*parts)
    ]


def _summarize(tau_target, state, source, config, baseline, seed, bins) -> EnsembleSummary:
    """Compare one propagated state with the density at tau_target."""
    xf, tf, ok, axis_out, under_out = state
    count = len(xf)
    expected, exp_over = reference_masses(tau_target, source.eval(tau_target), bins=bins)
    observed, obs_over = histogram_masses(xf[ok], tf[ok], bins=bins)

    # Mean local energy over the surviving, unclipped trajectories.
    include_drive = source.drive if source.is_driven else None
    ca2, cb2, tp, _ = source.cross_terms(math)(tau_target)
    energies, clipped = local_energy_array(
        xf[ok],
        tf[ok],
        tau_target,
        ca2,
        cb2,
        tp,
        include_drive,
        rho_floor=config.rho_floor,
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
        exp_e = ca2 * E1_EV + cb2 * E2_EV

    return EnsembleSummary(
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
        dropout_count=int(count - ok.sum()),
        dropout_axis=int(axis_out.sum()),
        dropout_underflow=int(under_out.sum()),
    )

