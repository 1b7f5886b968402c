"""Wavefunction evaluation: amplitudes, gradients, quantum potential.

The state is the axisymmetric two-term superposition

    psi = c_a N1 e^(-xi) + c_b N2 xi e^(-xi/2) cos(theta) e^(-i tau)

with N1 = 1/sqrt(pi), N2 = 1/sqrt(32 pi).  Everything here has closed
forms for pure eigenstates, which pin the evaluation exactly; the
driven superposition is checked against finite differences.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from pilotwave import (
    CoefficientState,
    NodeProximityError,
    ParameterError,
    SpatialPoint,
    coefficients,
    density,
    eval_wave,
    quantum_potential,
)
from pilotwave.constants import E1_EV
from pilotwave.wavefield import (
    BETA,
    N1,
    N2,
    gauss_legendre,
    grad_S,
    grad_log_rho,
    normalization_quadrature,
)


GROUND = CoefficientState(c_a=1.0 + 0.0j, c_b=0.0 + 0.0j, tau=0.0)
UPPER = CoefficientState(c_a=0.0 + 0.0j, c_b=1.0 + 0.0j, tau=0.0)


def _mixed(tau: float = 0.0) -> CoefficientState:
    r = math.sqrt(0.5)
    return CoefficientState(c_a=complex(r, 0.0), c_b=complex(0.0, r), tau=tau)


# ---------------------------------------------------------------------------
# Normalization constants and pure-state amplitudes
# ---------------------------------------------------------------------------


def test_normalization_constants():
    assert math.isclose(N1, 1.0 / math.sqrt(math.pi), rel_tol=1e-15)
    assert math.isclose(N2, 1.0 / math.sqrt(32.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(BETA, 4.0 * math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(N1 / N2, BETA, rel_tol=1e-15)


def test_ground_state_amplitude():
    point = SpatialPoint(xi=2.5, theta=0.8)
    w = eval_wave(point, 0.0, GROUND)
    ref = N1 * math.exp(-2.5)
    assert abs(w.psi - ref) < 1e-16
    assert abs(w.d_xi - (-ref)) < 1e-16
    assert abs(w.d_theta) == 0.0
    assert math.isclose(w.rho, ref * ref, rel_tol=1e-15)


def test_upper_state_amplitude_carries_rotating_phase():
    point = SpatialPoint(xi=3.0, theta=0.5)
    tau = 1.75
    w = eval_wave(point, tau, UPPER)
    radial = N2 * 3.0 * math.exp(-1.5) * math.cos(0.5)
    ref = radial * cmath.exp(-1j * tau)
    assert abs(w.psi - ref) < 1e-15
    # d/dxi of xi e^(-xi/2) = (1 - xi/2) e^(-xi/2)
    d_xi_ref = N2 * (1.0 - 1.5) * math.exp(-1.5) * math.cos(0.5)
    assert abs(w.d_xi - d_xi_ref * cmath.exp(-1j * tau)) < 1e-15
    d_th_ref = -N2 * 3.0 * math.exp(-1.5) * math.sin(0.5)
    assert abs(w.d_theta - d_th_ref * cmath.exp(-1j * tau)) < 1e-15


def test_upper_state_node_on_equator():
    w = eval_wave(SpatialPoint(xi=3.0, theta=math.pi / 2.0), 0.0, UPPER)
    assert w.rho < 1e-30
    assert density(3.0, math.pi / 2.0, 0.0, UPPER) < 1e-30


def test_density_matches_eval_wave(reference_drive):
    coeffs = coefficients(800.0, reference_drive)
    for xi, th in ((1.0, 0.3), (4.0, 1.0), (7.5, 2.6)):
        w = eval_wave(SpatialPoint(xi=xi, theta=th), 800.0, coeffs)
        assert math.isclose(
            density(xi, th, 800.0, coeffs), w.rho, rel_tol=1e-14
        )


def test_density_broadcasts_over_arrays(reference_drive):
    coeffs = coefficients(800.0, reference_drive)
    xi = np.array([1.0, 4.0, 7.5])
    th = np.array([0.3, 1.0, 2.6])
    rho = density(xi, th, 800.0, coeffs)
    for i in range(3):
        assert math.isclose(
            float(rho[i]),
            density(float(xi[i]), float(th[i]), 800.0, coeffs),
            rel_tol=1e-14,
        )


# ---------------------------------------------------------------------------
# Gradients: closed eigenstate forms and finite-difference oracle
# ---------------------------------------------------------------------------


def test_eigenstate_grad_log_rho_closed_forms():
    # 1s: rho ~ e^(-2 xi)            -> d/dxi = -2, d/dtheta = 0
    # 2p0: rho ~ xi^2 e^(-xi) cos^2  -> d/dxi = 2/xi - 1, d/dtheta = -2 tan
    p = SpatialPoint(xi=3.7, theta=1.1)
    gx, gt = grad_log_rho(p, 0.0, GROUND)
    assert abs(gx - (-2.0)) < 1e-14
    assert abs(gt) < 1e-14
    gx, gt = grad_log_rho(p, 0.0, UPPER)
    assert abs(gx - (2.0 / 3.7 - 1.0)) < 1e-14
    assert abs(gt - (-2.0 * math.tan(1.1))) < 1e-14


def test_eigenstate_grad_S_vanishes():
    # Stationary states have no position-dependent phase.
    p = SpatialPoint(xi=2.2, theta=0.9)
    for coeffs in (GROUND, UPPER):
        gx, gt = grad_S(p, 5.0, coeffs)
        assert abs(gx) < 1e-14
        assert abs(gt) < 1e-14


def test_gradients_against_finite_differences(reference_drive):
    rng = np.random.Generator(np.random.Philox(7))
    h = 1e-6
    for _ in range(50):
        xi = float(rng.uniform(0.5, 9.0))
        th = float(rng.uniform(0.2, math.pi - 0.2))
        tau = float(rng.uniform(0.0, 2.0e4))
        coeffs = coefficients(tau, reference_drive)
        p = SpatialPoint(xi=xi, theta=th)
        if eval_wave(p, tau, coeffs).rho < 1e-8:
            continue
        gs = grad_S(p, tau, coeffs)
        gl = grad_log_rho(p, tau, coeffs)
        wxp = eval_wave(SpatialPoint(xi + h, th), tau, coeffs)
        wxm = eval_wave(SpatialPoint(xi - h, th), tau, coeffs)
        wtp = eval_wave(SpatialPoint(xi, th + h), tau, coeffs)
        wtm = eval_wave(SpatialPoint(xi, th - h), tau, coeffs)
        # Phase difference through the ratio avoids branch cuts.
        assert abs(gs[0] - cmath.phase(wxp.psi / wxm.psi) / (2 * h)) < 1e-6
        assert abs(gs[1] - cmath.phase(wtp.psi / wtm.psi) / (2 * h)) < 1e-6
        fd_l_xi = (math.log(wxp.rho) - math.log(wxm.rho)) / (2 * h)
        fd_l_th = (math.log(wtp.rho) - math.log(wtm.rho)) / (2 * h)
        assert abs(gl[0] - fd_l_xi) < 1e-5 * max(1.0, abs(fd_l_xi))
        assert abs(gl[1] - fd_l_th) < 1e-5 * max(1.0, abs(fd_l_th))


def test_global_phase_invariance():
    # Multiplying both amplitudes by a common phase moves nothing
    # observable: rho, grad S and grad log rho are unchanged.
    base = _mixed(tau=3.3)
    alpha = cmath.exp(1j * 0.77)
    rotated = CoefficientState(
        c_a=base.c_a * alpha, c_b=base.c_b * alpha, tau=base.tau
    )
    p = SpatialPoint(xi=4.4, theta=1.3)
    assert math.isclose(
        eval_wave(p, 3.3, base).rho, eval_wave(p, 3.3, rotated).rho,
        rel_tol=1e-14,
    )
    np.testing.assert_allclose(
        grad_S(p, 3.3, base), grad_S(p, 3.3, rotated), atol=1e-13
    )
    np.testing.assert_allclose(
        grad_log_rho(p, 3.3, base), grad_log_rho(p, 3.3, rotated), atol=1e-13
    )


def test_grad_near_node_respects_floor():
    # At the 2p0 equatorial node the density underflows the floor and
    # the gradient evaluation must refuse rather than emit garbage.
    p = SpatialPoint(xi=3.0, theta=math.pi / 2.0)
    with pytest.raises(NodeProximityError):
        grad_log_rho(p, 0.0, UPPER)


# ---------------------------------------------------------------------------
# Quantum potential
# ---------------------------------------------------------------------------


def test_quantum_potential_ground_state_closed_form():
    # For the 1s state lap(R)/R = 1 - 2/xi, so Q = E1 (1 - 2/xi).
    for xi in (1.5, 4.0, 8.0):
        q = quantum_potential(SpatialPoint(xi=xi, theta=1.0), 0.0, GROUND)
        ref = E1_EV * (1.0 - 2.0 / xi)
        assert abs(q - ref) < 5e-6 * abs(E1_EV)


def test_quantum_potential_upper_state_closed_form():
    # For the 2p0 state R ~ xi e^(-xi/2) cos(theta): the radial factor
    # gives 1/4 - 2/xi + 2/xi^2 and the polar factor -2/xi^2, so
    # lap(R)/R = 1/4 - 2/xi and Q = E1 (1/4 - 2/xi).  Consistency:
    # Q + 2 E1/xi (the scaled Coulomb term) = E1/4, the level energy.
    for xi, th in ((3.0, 0.7), (6.0, 2.3)):
        q = quantum_potential(SpatialPoint(xi=xi, theta=th), 0.0, UPPER)
        ref = E1_EV * (0.25 - 2.0 / xi)
        assert abs(q - ref) < 5e-6 * abs(E1_EV)


def test_quantum_potential_step_refinement():
    # Central stencils are second order: quartering the step cuts the
    # closed-form error by roughly 16.
    p = SpatialPoint(xi=2.0, theta=0.9)
    ref = E1_EV * (1.0 - 2.0 / 2.0)
    err_h = abs(quantum_potential(p, 0.0, GROUND, step=0.02) - ref)
    err_q = abs(quantum_potential(p, 0.0, GROUND, step=0.005) - ref)
    assert err_q < err_h / 8.0


def test_quantum_potential_warns_near_origin():
    with pytest.warns(UserWarning):
        quantum_potential(
            SpatialPoint(xi=2e-4, theta=1.0), 0.0, GROUND, step=2.5e-4
        )


def test_quantum_potential_refuses_node():
    with pytest.raises(NodeProximityError):
        quantum_potential(SpatialPoint(xi=3.0, theta=math.pi / 2), 0.0, UPPER)


# ---------------------------------------------------------------------------
# Normalization quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coeffs", [GROUND, UPPER, _mixed()])
def test_normalization_pure_and_mixed(coeffs):
    total = normalization_quadrature(0.0, coeffs)
    assert abs(total - 1.0) < 1e-6


def test_normalization_driven(reference_drive):
    for tau in (0.0, 4500.0, 9148.0):
        total = normalization_quadrature(tau, coefficients(tau, reference_drive))
        assert abs(total - 1.0) < 1e-6


def test_gauss_legendre_rule_is_cached_and_read_only():
    nodes, weights = gauss_legendre(7)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    again = gauss_legendre(7)
    assert again[0].tobytes() == nodes.tobytes()
    assert again[1].tobytes() == weights.tobytes()
    fresh = np.polynomial.legendre.leggauss(7)
    assert nodes.tobytes() == fresh[0].tobytes()
    assert weights.tobytes() == fresh[1].tobytes()
    for n in (0, -3, 2.0, True, None):
        with pytest.raises(ParameterError):
            gauss_legendre(n)
