"""Shared fixtures: the three drive configurations used across the suite.

The runs exercised throughout the tests use a fixed field amplitude
E0 = 8.8e7 V/m and detuning Omega = 1.55e12 1/s.  Three variants:

* reference_drive -- nu and omega0 pinned to rounded reference values
                  (nu = -5.1e12, omega0 = 1.549e16), the configuration
                  behind the fig1/fig2 presets.
* literal_drive -- nu = -5.1e12 with Omega chosen so that sigma is
                   exactly 5.32e12, the rounded generalized frequency.
* codata_drive  -- everything derived from CODATA constants with no
                   overrides (nu = -5.27e12, omega0 = 1.5503e16).
"""

from __future__ import annotations

import math
import multiprocessing
import time

import pytest

from pilotwave import IntegratorConfig, derive_drive, evolve_ensemble
from pilotwave.ensemble import sample_arrays


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process behind (after ending it)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(5.0)
    assert not left, "test left child processes running: %r" % (left,)


@pytest.fixture(scope="session")
def reference_drive():
    return derive_drive(
        8.8e7, 1.55e12, nu_override_ps=-5.1e12, omega0_ps=1.549e16
    )


@pytest.fixture(scope="session")
def literal_drive():
    # Omega = sqrt(sigma^2 - nu^2) so the generalized frequency is the
    # rounded 5.32e12 exactly.
    omega = math.sqrt(5.32e12**2 - 5.1e12**2)
    return derive_drive(
        8.8e7, omega, nu_override_ps=-5.1e12, omega0_ps=1.549e16
    )


@pytest.fixture(scope="session")
def codata_drive():
    return derive_drive(8.8e7, 1.55e12)


@pytest.fixture(scope="session")
def ensemble_run_2000(reference_drive):
    """One 10^4-point ensemble propagated to tau = 2000, shared by the
    ensemble statistics tests and the acceptance gate.

    Returns (summary, wall_seconds).
    """
    points = sample_arrays(10000, seed=20260819)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
    start = time.perf_counter()
    summary = evolve_ensemble(
        points, 2000.0, reference_drive, config, seed=20260819
    )
    return summary, time.perf_counter() - start
