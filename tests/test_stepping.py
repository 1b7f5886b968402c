"""The shared Dormand-Prince trial step and the two drivers built on it.

stepping.dp5_trial is written once for Python floats (the scalar
engine) and numpy arrays (the batched ensemble), so the two drivers
differ only in their step control: they must agree on the same
trajectories to within their tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pilotwave import (
    AnalyticSource,
    FrozenSource,
    IntegratorConfig,
    SpatialPoint,
    integrate,
)
from pilotwave.dynamics import make_batch_rhs
from pilotwave.ensemble import _advance_batch, sample_arrays
from pilotwave.stepping import dp5_trial


def _arith_rhs(t, x, y):
    # Plain arithmetic only, so floats and arrays take identical roundings.
    return (y - 0.1 * x * t, 0.3 * y * y - x, x * y + t, 1.0 + x * x)


def test_trial_step_bitwise_equal_on_floats_and_arrays():
    t, h, x, y, z = 0.3, 0.05, 1.2, 0.7, -0.4
    scalar = dp5_trial(_arith_rhs, t, h, x, y, z, _arith_rhs(t, x, y))
    arrays = [np.array([v]) for v in (t, h, x, y, z)]
    k1 = _arith_rhs(arrays[0], arrays[2], arrays[3])
    batch = dp5_trial(_arith_rhs, *arrays, k1)
    for i in (0, 1, 2, 4, 5, 6):
        assert batch[i].shape == (1,)
        assert batch[i][0] == scalar[i]
    for got, want in zip(batch[3], scalar[3]):
        assert got[0] == want


def _sources(drive):
    r = math.sqrt(0.5)
    return [AnalyticSource(drive), FrozenSource(complex(r, 0.0), complex(0.0, r))]


def _same(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_last_stage_is_the_rate_at_the_new_state(reference_drive):
    # Both drivers take an accepted step's k7 as the next step's k1, so
    # k7 must be bit for bit what a fresh rhs gives at the new state.
    xi, theta, phi = sample_arrays(16, 3)
    t = np.linspace(40.0, 41.5, 16)
    h = np.full(16, 0.3)
    for source in _sources(reference_drive):
        rhs = make_batch_rhs(source)
        k1 = rhs(t, xi, theta)
        xi_new, theta_new, _, k7, _, _, _ = dp5_trial(rhs, t, h, xi, theta, phi, k1)
        _same(k7, make_batch_rhs(source)(t + h, xi_new, theta_new))


def test_batch_rhs_reuses_cross_terms_only_at_equal_times(reference_drive):
    xi, theta, _ = sample_arrays(16, 4)
    tau = np.linspace(10.0, 12.0, 16)
    for source in _sources(reference_drive):
        rhs = make_batch_rhs(source)
        rhs(tau, xi, theta)
        # The same array changed in place: the cross terms are recomputed.
        tau += 0.25
        _same(rhs(tau, xi, theta), make_batch_rhs(source)(tau, xi, theta))
        # Equal times in a new array: the cached cross terms are exact.
        _same(rhs(tau.copy(), xi, theta), make_batch_rhs(source)(tau, xi, theta))


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_scalar_and_batch_drivers_agree(reference_drive, kind):
    # Eight trajectories to tau = 200 at rtol 1e-8.  The output stride
    # equals the span, so the scalar driver lands only on the end point
    # and both drivers choose their own steps freely.  Each keeps its
    # local error below rtol * |y|, so the end points may differ by a
    # few tolerances of accumulated error; the bound is ten.  Measured:
    # at most 1.7e-9 (analytic) and 3.3e-9 (frozen) relative to
    # max(|y|, 1).
    if kind == "analytic":
        source = AnalyticSource(reference_drive)
    else:
        r = math.sqrt(0.5)
        source = FrozenSource(complex(r, 0.0), complex(0.0, r))
    tau = 200.0
    cfg = IntegratorConfig(rel_tol=1e-8, output_stride=tau)
    xi, theta, phi = sample_arrays(8, 5)
    bxi, btheta, bphi, ok, _, _ = _advance_batch(
        make_batch_rhs(source), xi, theta, phi, tau, cfg
    )
    assert ok.all()
    bound = 10.0 * cfg.rel_tol
    for i in range(len(xi)):
        start = SpatialPoint(xi=float(xi[i]), theta=float(theta[i]), phi=float(phi[i]))
        run = integrate(start, tau, source, cfg)
        assert run.tau[-1] == tau
        for got, want in (
            (bxi[i], run.xi[-1]),
            (btheta[i], run.theta[-1]),
            (bphi[i], run.phi[-1]),
        ):
            assert abs(got - want) <= bound * max(abs(want), 1.0)
