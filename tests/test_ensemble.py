"""Ensemble sampling, density comparison, and dropout accounting.

The sampler draws from the t = 0 density |psi_100|^2, so xi follows a
Gamma(3, rate 2) law (mean 3/2, variance 3/4), mu = cos(theta) is
uniform on [-1, 1], and phi is uniform on [0, 2 pi).  Propagating the
cloud along the velocity field transports it together with the density
(equivariance); the total-variation distance between the binned cloud
and the binned density is the figure of merit, calibrated against the
tau = 0 baseline set by sampling plus binning noise.

The driven runs document a known systematic: the envelope amplitudes
solve the averaged two-level system, not the full one, so the local
energy picks up a small deterministic defect that grows with the
excited-state population.  The mean-energy drift is therefore visible
well before the first population peak and is not a sampling artifact
(it scales like the populated fraction while the standard error decays
like 1/sqrt(N)).
"""

from __future__ import annotations

import faulthandler
import json
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from pilotwave import (
    FrozenSource,
    IntegratorConfig,
    NumericSource,
    ParameterError,
    SpatialPoint,
    coefficients,
    ensemble,
    evolve_ensemble,
    evolve_targets,
    sample_initial,
    tv_distance,
)
from pilotwave.ensemble import (
    SHARD_MIN_ROWS,
    EnsembleDropoutError,
    histogram_masses,
    reference_masses,
    sample_arrays,
)

# Pinned to the Philox stream for seed 20260819; the physical anchors
# are mean 3/2 and variance 3/4 for xi, mean 0 for mu = cos(theta).
XI_MEAN_100K = 1.502517279758856
XI_VAR_100K = 0.7527642675238899

# tau = 0 total-variation distance for 10^4 points, seed 20260819,
# against the analytic density on the default 20 x 20 grid.
BASELINE_TV_10K = 0.04124728479867959

SEED = 20260819
QUICK = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# sampling


def test_sampler_moments():
    xi, theta, phi = sample_arrays(100000, seed=SEED)
    assert math.isclose(float(xi.mean()), XI_MEAN_100K, rel_tol=1e-12)
    assert math.isclose(float(xi.var()), XI_VAR_100K, rel_tol=1e-12)
    assert abs(float(xi.mean()) - 1.5) < 0.01
    assert abs(float(xi.var()) - 0.75) < 0.02
    mu = np.cos(theta)
    assert abs(float(mu.mean())) < 0.02
    assert float(phi.min()) >= 0.0
    assert float(phi.max()) < 2.0 * math.pi


def test_sampler_determinism():
    a = sample_arrays(1000, seed=7)
    b = sample_arrays(1000, seed=7)
    c = sample_arrays(1000, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


def test_sample_initial_wraps_arrays():
    points = sample_initial(50, seed=SEED)
    xi, theta, phi = sample_arrays(50, seed=SEED)
    assert len(points) == 50
    assert all(isinstance(p, SpatialPoint) for p in points)
    for i, p in enumerate(points):
        assert p.xi == xi[i]
        assert p.theta == theta[i]
        assert p.phi == phi[i]


def test_sampler_rejects_empty():
    with pytest.raises(ParameterError):
        sample_arrays(0)


# ---------------------------------------------------------------------------
# binned density and distance


def test_reference_masses_carry_unit_mass(reference_drive):
    for tau in (0.0, 2000.0, 9000.0):
        masses, overflow = reference_masses(
            tau, coefficients(tau, reference_drive), bins=20
        )
        assert masses.shape == (20, 20)
        assert abs(float(masses.sum()) + overflow - 1.0) < 1e-12
        assert overflow >= 0.0


def test_reference_masses_reject_bad_cells(reference_drive):
    # Unchecked, bins = 0 gives reference_masses a bare IndexError and
    # histogram_masses a (0, 0) grid; bins = True a (1, 1) grid.
    coeffs = coefficients(0.0, reference_drive)
    xi, theta = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    for n in (0, -2, 2.5, True):
        with pytest.raises(ParameterError):
            reference_masses(0.0, coeffs, bins=n)
        with pytest.raises(ParameterError):
            histogram_masses(xi, theta, bins=n)
        with pytest.raises(ParameterError):
            histogram_masses(np.array([]), np.array([]), bins=n)


def test_histogram_of_empty_ensemble_is_zero_mass():
    masses, overflow = histogram_masses(np.array([]), np.array([]), bins=20)
    assert masses.shape == (20, 20)
    assert float(np.abs(masses).sum()) == 0.0
    assert overflow == 0.0


def test_baseline_divergence_pinned(reference_drive):
    xi, theta, _ = sample_arrays(10000, seed=SEED)
    tv = tv_distance(xi, theta, 0.0, coefficients(0.0, reference_drive))
    assert abs(tv - BASELINE_TV_10K) < 1e-9


# ---------------------------------------------------------------------------
# propagation


def test_tau_zero_shortcut_reports_baseline(reference_drive):
    points = sample_arrays(2000, seed=SEED)
    summary = evolve_ensemble(points, 0.0, reference_drive, QUICK, seed=SEED)
    assert summary.divergence == summary.baseline_divergence
    assert summary.count == 2000
    assert summary.dropout_count == 0
    assert summary.tau_target == 0.0


def test_point_list_matches_array_triple(reference_drive):
    xi, theta, phi = sample_arrays(200, seed=3)
    points = [
        SpatialPoint(xi=float(x), theta=float(t), phi=float(p))
        for x, t, p in zip(xi, theta, phi)
    ]
    a = evolve_ensemble((xi, theta, phi), 5.0, reference_drive, QUICK)
    b = evolve_ensemble(points, 5.0, reference_drive, QUICK)
    assert a.divergence == b.divergence
    assert a.mean_energy_eV == b.mean_energy_eV
    assert np.array_equal(a.observed, b.observed)


@pytest.mark.slow
def test_frozen_superposition_is_equivariant():
    # A frozen 50/50 superposition has no population exchange, so the
    # flow must transport the sampled cloud with the density: the TV
    # distance at tau = 300 stays at its sampling baseline.  The
    # baseline itself is large (~0.40) because the cloud samples the
    # ground-state density, not the superposition density.
    r = math.sqrt(0.5)
    source = FrozenSource(complex(r, 0.0), complex(0.0, r))
    points = sample_arrays(10000, seed=SEED)
    summary = evolve_ensemble(points, 300.0, None, QUICK, source=source)
    ratio = summary.divergence / summary.baseline_divergence
    assert 0.95 < ratio < 1.05
    assert summary.dropout_count == 0


def test_driven_energy_drift_visible_early(reference_drive):
    # At tau = 500 the excited population is ~2% and the envelope
    # defect already shifts the mean local energy by about -0.027 eV,
    # several standard errors; the TV distance has barely moved.
    points = sample_arrays(10000, seed=SEED)
    summary = evolve_ensemble(points, 500.0, reference_drive, QUICK, seed=SEED)
    ratio = summary.divergence / summary.baseline_divergence
    assert 0.9 < ratio < 1.35
    drift = summary.mean_energy_eV - summary.expected_energy_eV
    assert -0.05 < drift < -0.01
    assert summary.dropout_count == 0


@pytest.mark.slow
def test_documented_statistics_at_2000(ensemble_run_2000):
    # Documents the tau = 2000 state of the same systematic: the TV
    # distance roughly doubles its baseline and the mean local energy
    # sits ~0.38 eV below the two-level expectation, ~20 standard
    # errors, far beyond sampling noise.
    summary, _ = ensemble_run_2000
    assert summary.count == 10000
    ratio = summary.divergence / summary.baseline_divergence
    assert 1.6 < ratio < 2.3
    drift = summary.mean_energy_eV - summary.expected_energy_eV
    assert -0.5 < drift < -0.25
    assert 0.01 < summary.se_energy_eV < 0.03
    assert summary.dropout_count == 0
    assert abs(summary.baseline_divergence - BASELINE_TV_10K) < 1e-9


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason=(
        "secular growth of the envelope defect: after ~1400 drive cycles "
        "the cloud no longer transports with the density, and the TV "
        "distance at the population peak reaches ~0.9 against a ~0.04 "
        "baseline"
    ),
)
def test_equivariance_breaks_at_population_peak(reference_drive):
    # The aspirational statement: the evolved cloud stays within the
    # Monte-Carlo tolerance (twice the tau = 0 baseline) all the way to
    # the population peak near tau = 9000.  The continuity defect of
    # the averaged amplitudes accumulates over the full ramp-up, so the
    # cloud and the density part company long before that; kept as the
    # record of that expectation.
    points = sample_arrays(10000, seed=SEED)
    summary = evolve_ensemble(points, 9000.0, reference_drive, QUICK, seed=SEED)
    assert summary.divergence <= 2.0 * summary.baseline_divergence


# ---------------------------------------------------------------------------
# dropout accounting


def test_axis_dropouts_raise_with_summary():
    r = math.sqrt(0.5)
    source = FrozenSource(complex(r, 0.0), complex(0.0, -r))
    n = 10
    points = (np.full(n, 2.0), np.full(n, 1e-7), np.zeros(n))
    with pytest.raises(EnsembleDropoutError) as excinfo:
        evolve_ensemble(points, 50.0, None, QUICK, source=source)
    err = excinfo.value
    assert isinstance(err, ParameterError)
    assert "dropped out" in str(err)
    assert err.summary.count == n
    assert err.summary.dropout_count == n
    assert err.summary.dropout_axis == n
    assert err.summary.dropout_underflow == 0


def test_targets_report_cumulative_dropouts_without_raising():
    # Every target gets its summary even past the budget; drop-outs
    # count from tau = 0, and the budget error is the one evolve_ensemble
    # raises.
    r = math.sqrt(0.5)
    source = FrozenSource(complex(r, 0.0), complex(0.0, -r))
    n = 10
    theta = np.full(n, 1.0)
    theta[:3] = 1e-7
    points = (np.full(n, 2.0), theta, np.zeros(n))
    late, zero, early = evolve_targets(points, (50.0, 0.0, 5.0), None, QUICK, source=source)
    assert (zero.dropout_count, early.dropout_count, late.dropout_count) == (0, 3, 3)
    assert [s.dropout_error() is None for s in (late, zero, early)] == [False, True, False]
    error = late.dropout_error()
    assert isinstance(error, EnsembleDropoutError)
    assert error.summary is late
    with pytest.raises(EnsembleDropoutError) as excinfo:
        evolve_ensemble(points, 50.0, None, QUICK, source=source)
    assert str(excinfo.value) == str(error)


def test_dropouts_at_limit_are_counted_not_fatal():
    # 2 of 2000 is exactly the 0.1% dropout budget; the run must
    # complete and carry the counts in the summary.
    r = math.sqrt(0.5)
    source = FrozenSource(complex(r, 0.0), complex(0.0, -r))
    n = 2000
    theta = np.full(n, 1.0)
    theta[:2] = 1e-7
    points = (np.full(n, 2.0), theta, np.zeros(n))
    summary = evolve_ensemble(points, 5.0, None, QUICK, source=source)
    assert summary.dropout_count == 2
    assert summary.dropout_axis == 2
    assert summary.dropout_underflow == 0


def test_step_underflow_dropouts_raise():
    # min_step close to max_step leaves no room for error control, so
    # every trajectory underflows its step size.
    r = math.sqrt(0.5)
    source = FrozenSource(complex(r, 0.0), complex(0.0, -r))
    squeeze = IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-14, max_step=1.0, min_step=0.9
    )
    n = 10
    points = (np.full(n, 2.0), np.full(n, 1.0), np.zeros(n))
    with pytest.raises(EnsembleDropoutError) as excinfo:
        evolve_ensemble(points, 50.0, None, squeeze, source=source)
    assert excinfo.value.summary.dropout_underflow == n


def test_needs_drive_or_source():
    points = sample_arrays(10, seed=1)
    with pytest.raises(ParameterError):
        evolve_ensemble(points, 10.0, None, QUICK)
    for tau in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            evolve_ensemble(points, tau, None, QUICK, source=FrozenSource(1.0, 0.0))
        with pytest.raises(ParameterError):
            evolve_targets(points, (1.0, tau), None, QUICK, source=FrozenSource(1.0, 0.0))


def test_rejects_sources_without_closed_form(reference_drive):
    # The batch rhs needs the amplitudes at many times at once; a
    # numeric source gives them one time at a time.
    points = sample_arrays(10, seed=1)
    source = NumericSource(reference_drive, 20.0)
    for targets in ((5.0,), (0.0,)):
        with pytest.raises(ParameterError, match="'numeric-ode'"):
            evolve_targets(points, targets, None, QUICK, source=source)


def test_rejects_empty_and_ragged_clouds():
    xi, theta, phi = sample_arrays(10, seed=1)
    bad = [
        [],
        (np.empty(0),) * 3,
        (xi, theta[:5], phi),
        (xi, theta),
        (xi, theta, phi, phi),
        (xi[None, :], theta[None, :], phi[None, :]),
        (1.0, 1.0, 0.0),
        (xi, [[1.0], [2.0, 3.0]], phi),
    ]
    for points in bad:
        with pytest.raises(ParameterError):
            evolve_targets(points, (5.0,), None, QUICK, source=FrozenSource(1.0, 0.0))
    [summary] = evolve_targets(
        (xi[:1], theta[:1], phi[:1]), (5.0,), None, QUICK, source=FrozenSource(1.0, 0.0)
    )
    assert summary.count == 1 and summary.dropout_count == 0


@pytest.mark.parametrize(
    "column, value",
    [(0, -1.0), (0, 0.0), (0, math.nan), (0, math.inf), (1, math.nan), (1, math.inf)],
)
def test_rejects_non_finite_or_non_positive_points(column, value):
    # One bad row in a sampled cloud.  Propagated, a negative xi would
    # be reported with no drop-out, and the others as step-underflow
    # drop-outs that never took a step.
    points = [a.copy() for a in sample_arrays(50, seed=3)]
    points[column][7] = value
    with pytest.raises(ParameterError, match="finite positive xi and finite theta"):
        evolve_targets(points, (50.0,), None, QUICK, source=FrozenSource(1.0, 0.0))


@pytest.mark.parametrize(
    "failure, error", [("raise", ZeroDivisionError), ("die", BrokenProcessPool)]
)
def test_failed_shard_fails_the_call(monkeypatch, failure, error):
    # Two shards; the one in the worker process raises or kills its
    # process.  Either way the call raises, returns no summary of the
    # parent's half, and leaves no worker behind.
    monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    advance = ensemble._advance_batch

    def failing(*args):
        if os.getpid() != parent:
            if failure == "die":
                os._exit(1)
            raise ZeroDivisionError("shard failed")
        return advance(*args)

    monkeypatch.setattr(ensemble, "_advance_batch", failing)
    points = sample_arrays(2 * SHARD_MIN_ROWS, seed=2)
    # The call takes about a second; a hang ends the test run with exit
    # code 1 instead of stalling it.
    faulthandler.dump_traceback_later(60.0, exit=True)
    try:
        with pytest.raises(error):
            evolve_targets(points, (1.0,), None, QUICK, source=FrozenSource(1.0, 0.0))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# summary serialization


def test_summary_to_dict_is_json_ready(reference_drive):
    points = sample_arrays(100, seed=4)
    summary = evolve_ensemble(points, 1.0, reference_drive, QUICK)
    payload = summary.to_dict()
    assert set(payload) == {
        "count", "seed", "tau_target", "bins",
        "divergence", "baseline_divergence",
        "observed", "expected", "observed_overflow", "expected_overflow",
        "mean_energy_eV", "se_energy_eV", "expected_energy_eV",
        "clipped_count", "dropout_count", "dropout_axis",
        "dropout_underflow",
    }
    text = json.dumps(payload)
    assert json.loads(text)["count"] == 100
