"""Local and expected energy along trajectories.

The local energy is Re{psi* H psi}/|psi|^2 with the oscillating dipole
term evaluated semiclassically.  Two independent routes exist: the
complex-amplitude route (local_energy) and the real envelope kernel
(local_energy_array) fed the closed-form |c_b|^2 and T'; they must
agree to rounding.  The ensemble expectation has a closed form checked
here against direct quadrature of the local value over the density.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pilotwave import (
    CoefficientState,
    SpatialPoint,
    coefficients,
    local_energy,
    expected_energy,
)
from pilotwave.constants import E1_EV
from pilotwave.drive import envelope_Tprime, transition_probability
from pilotwave.observables import (
    ENERGY_CLIP_EV,
    local_energy_array,
    reference_energy,
)


GROUND = CoefficientState(c_a=1.0 + 0.0j, c_b=0.0 + 0.0j, tau=0.0)
UPPER = CoefficientState(c_a=0.0 + 0.0j, c_b=1.0 + 0.0j, tau=0.0)

# Frozen oracle (mpmath, mp.dps = 40): driven run anchor point.
E_TOTAL_ANCHOR = -13.6107252221154
E_DRIVE_PART_ANCHOR = -0.00503211574384


# ---------------------------------------------------------------------------
# Eigenstate limits: H0 psi = E psi makes the local value constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi, theta", [(1.2, 0.5), (4.0, 1.0), (8.0, 2.5)])
def test_ground_state_local_energy_constant(xi, theta):
    e = local_energy(SpatialPoint(xi=xi, theta=theta), 0.0, GROUND)
    assert not e.clipped
    assert abs(e.total_eV - E1_EV) < 1e-9
    assert e.drive_part_eV == 0.0


@pytest.mark.parametrize("xi, theta", [(2.0, 0.6), (5.5, 2.2)])
def test_upper_state_local_energy_constant(xi, theta):
    e = local_energy(SpatialPoint(xi=xi, theta=theta), 0.0, UPPER)
    assert abs(e.total_eV - E1_EV / 4.0) < 1e-9


# ---------------------------------------------------------------------------
# Driven anchor values and route agreement
# ---------------------------------------------------------------------------


def test_driven_anchor_point(reference_drive):
    coeffs = coefficients(0.0, reference_drive)
    e = local_energy(SpatialPoint(xi=4.0, theta=1.0), 0.0, coeffs, reference_drive)
    assert abs(e.total_eV - E_TOTAL_ANCHOR) < 1e-10
    assert abs(e.drive_part_eV - E_DRIVE_PART_ANCHOR) < 1e-10
    assert math.isclose(
        e.total_eV, e.h0_part_eV + e.drive_part_eV, rel_tol=1e-14
    )


def test_two_energy_routes_agree(reference_drive):
    # The envelope kernel gets |c_b|^2 and T' from their closed forms,
    # not from the complex amplitudes that local_energy uses.
    rng = np.random.Generator(np.random.Philox(23))
    checked = 0
    while checked < 40:
        xi = float(rng.uniform(0.8, 9.0))
        th = float(rng.uniform(0.3, math.pi - 0.3))
        tau = float(rng.uniform(0.0, 2.0e4))
        coeffs = coefficients(tau, reference_drive)
        e = local_energy(SpatialPoint(xi=xi, theta=th), tau, coeffs, reference_drive)
        if e.clipped:
            continue
        checked += 1
        cb2 = transition_probability(tau, reference_drive)
        tp = envelope_Tprime(tau, reference_drive)
        env, clipped = local_energy_array(
            xi, th, tau, 1.0 - cb2, cb2, tp, reference_drive
        )
        assert not clipped
        assert abs(e.total_eV - env) < 1e-9 * max(1.0, abs(env))


def test_drive_term_needs_drive_argument(reference_drive):
    # Without the drive the dipole term cannot be evaluated; the
    # returned energy is the bare-atom part.
    coeffs = coefficients(0.0, reference_drive)
    e = local_energy(SpatialPoint(xi=4.0, theta=1.0), 0.0, coeffs)
    assert e.drive_part_eV == 0.0
    assert abs(e.total_eV - E1_EV) < 1e-9


# ---------------------------------------------------------------------------
# Node clipping
# ---------------------------------------------------------------------------


def test_clip_at_node():
    e = local_energy(SpatialPoint(xi=3.0, theta=math.pi / 2.0), 0.0, UPPER)
    assert e.clipped
    assert abs(e.total_eV) == ENERGY_CLIP_EV


def test_near_node_unclipped_but_large():
    # A superposition has a genuine node surface (eigenstates report
    # their level energy everywhere, so no spike there).  Just off the
    # node the local energy spikes like 1/delta: large but finite, not
    # clipped until the density floor is crossed.
    r = math.sqrt(0.5)
    mixed = CoefficientState(c_a=complex(r, 0.0), c_b=complex(-r, 0.0), tau=0.0)
    from pilotwave.wavefield import BETA

    xi = 3.0
    theta_star = math.acos(BETA * math.exp(-0.5 * xi) / xi)
    e = local_energy(SpatialPoint(xi=xi, theta=theta_star + 1e-2), 0.0, mixed)
    assert not e.clipped
    assert abs(e.total_eV) > 100.0
    # At the node itself the density underflows the floor: clipped.
    e_node = local_energy(SpatialPoint(xi=xi, theta=theta_star), 0.0, mixed)
    assert e_node.clipped
    assert abs(e_node.total_eV) == ENERGY_CLIP_EV


# ---------------------------------------------------------------------------
# Expected energy: closed form against quadrature
# ---------------------------------------------------------------------------


def test_expected_energy_initial_value(reference_drive):
    assert math.isclose(expected_energy(0.0, reference_drive), E1_EV, rel_tol=1e-14)


def test_expected_energy_matches_quadrature(reference_drive):
    for tau in (0.0, 777.0, 2000.0, 9129.0):
        closed = expected_energy(tau, reference_drive)
        quad = reference_energy(tau, reference_drive)
        assert abs(closed - quad) < 1e-10


def test_expected_energy_array_form(reference_drive):
    taus = np.array([0.0, 500.0, 9129.0])
    arr = expected_energy(taus, reference_drive)
    for i, tau in enumerate(taus):
        assert math.isclose(
            float(arr[i]), expected_energy(float(tau), reference_drive),
            rel_tol=1e-14,
        )


def test_expected_energy_interpolates_levels(reference_drive):
    # At the flopping peak the population-weighted part sits between
    # the two levels, near E1 (1 - 0.919 * 3/4).
    tau_pk = 0.5 * reference_drive.flop_period_tau
    e_pk = expected_energy(tau_pk, reference_drive)
    peak = reference_drive.peak_transition_probability
    weighted = E1_EV * (1.0 - peak) + (E1_EV / 4.0) * peak
    assert abs(e_pk - weighted) < 0.05  # dipole cross term is small
