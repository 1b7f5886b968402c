"""Velocity field, invariant sheet, spin dependence, momentum forms.

The dynamics are confined to a revolution surface: with both gradients
proportional to the same interference envelope, dxi/dtheta along the
flow is a fixed function of position and every trajectory stays on

    xi = 2 / (A sin(theta) - 1),     A = (2 + xi0)/(xi0 sin(theta0)).

The phi motion comes entirely from the spin term grad(log rho) x s.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotwave import (
    AxisProximityError,
    CoefficientState,
    FrozenSource,
    NodeProximityError,
    OffSheetError,
    ParameterError,
    SpatialPoint,
    SpinVector,
    coefficients,
    density,
    eigenstate_angular_velocity,
    pauli_current,
    printed_momentum_check,
    surface_constant,
    surface_residual,
    velocity_field,
)
from pilotwave.dynamics import (
    SPIN_UP,
    _numpy_rates,
    _sincos,
    continuity_defect,
    make_batch_rhs,
    make_scalar_rhs,
)
from pilotwave.drive import AnalyticSource, NumericSource

GROUND = CoefficientState(c_a=1.0 + 0.0j, c_b=0.0 + 0.0j, tau=0.0)
UPPER = CoefficientState(c_a=0.0 + 0.0j, c_b=1.0 + 0.0j, tau=0.0)
SPIN_ZERO = SpinVector(s_z=0.0)
SPIN_DOWN = SpinVector(s_z=-0.5)


# ---------------------------------------------------------------------------
# Eigenstate limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.8, 2.0, 4.0, 9.5])
@pytest.mark.parametrize("theta", [0.4, 1.0, 2.7])
def test_ground_state_velocity(xi, theta):
    vel = velocity_field(SpatialPoint(xi=xi, theta=theta), 7.0, GROUND)
    assert abs(vel.dxi) < 1e-14
    assert abs(vel.dtheta) < 1e-14
    assert abs(vel.dphi - 8.0 / (3.0 * xi)) < 1e-12


@pytest.mark.parametrize("xi", [1.5, 4.0])
def test_upper_state_velocity(xi):
    vel = velocity_field(SpatialPoint(xi=xi, theta=1.0), 7.0, UPPER)
    assert abs(vel.dxi) < 1e-14
    assert abs(vel.dtheta) < 1e-14
    assert abs(vel.dphi - 4.0 / (3.0 * xi)) < 1e-12


def test_angular_velocity_ratio_exact():
    # 4/(3 xi) over 8/(3 xi) shares the denominator bit for bit, so the
    # closed-form ratio is exactly one half at every xi.  The velocity
    # field reaches the same numbers through the density machinery; it
    # is ulp-exact at the reference radius and within one ulp elsewhere.
    for xi in (0.7, 3.0, 4.0, 11.0):
        lo = eigenstate_angular_velocity("2p0", xi)
        hi = eigenstate_angular_velocity("1s", xi)
        assert lo / hi == 0.5
        v1 = velocity_field(SpatialPoint(xi=xi, theta=1.2), 0.0, GROUND)
        v2 = velocity_field(SpatialPoint(xi=xi, theta=1.2), 0.0, UPPER)
        assert math.isclose(v2.dphi / v1.dphi, 0.5, rel_tol=1e-15)
    v1 = velocity_field(SpatialPoint(xi=4.0, theta=1.0), 0.0, GROUND)
    v2 = velocity_field(SpatialPoint(xi=4.0, theta=1.0), 0.0, UPPER)
    assert v2.dphi / v1.dphi == 0.5


def test_angular_velocity_closed_form_values():
    assert eigenstate_angular_velocity("1s", 4.0) == 8.0 / 12.0
    assert eigenstate_angular_velocity("2p0", 4.0) == 4.0 / 12.0
    arr = eigenstate_angular_velocity("1s", np.array([1.0, 2.0]))
    np.testing.assert_allclose(arr, [8.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
    with pytest.raises(ParameterError):
        eigenstate_angular_velocity("3d", 4.0)


def test_driven_state_at_tau_zero_matches_ground(reference_drive):
    # c_b(0) = 0, so the driven velocity at tau = 0 is the 1s limit.
    coeffs = coefficients(0.0, reference_drive)
    vel = velocity_field(SpatialPoint(xi=4.0, theta=1.0), 0.0, coeffs)
    assert vel.dxi == 0.0
    assert vel.dtheta == 0.0
    assert vel.dphi == 2.0 / 3.0


# ---------------------------------------------------------------------------
# Spin dependence
# ---------------------------------------------------------------------------


def test_spin_zero_kills_revolution():
    vel = velocity_field(
        SpatialPoint(xi=4.0, theta=1.0), 0.0, GROUND, spin=SPIN_ZERO
    )
    assert vel.dphi == 0.0


def test_spin_down_reverses_revolution():
    p = SpatialPoint(xi=4.0, theta=1.0)
    up = velocity_field(p, 0.0, GROUND, spin=SPIN_UP)
    down = velocity_field(p, 0.0, GROUND, spin=SPIN_DOWN)
    assert down.dphi == -up.dphi


def test_spin_does_not_touch_sheet_motion(reference_drive):
    coeffs = coefficients(600.0, reference_drive)
    p = SpatialPoint(xi=4.2, theta=1.1)
    up = velocity_field(p, 600.0, coeffs, spin=SPIN_UP)
    down = velocity_field(p, 600.0, coeffs, spin=SPIN_DOWN)
    assert up.dxi == down.dxi
    assert up.dtheta == down.dtheta


def test_transverse_spin_rejected():
    with pytest.raises(TypeError):
        SpinVector(s_x=0.5)


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def test_velocity_axis_guard(reference_drive):
    coeffs = coefficients(100.0, reference_drive)
    with pytest.raises(AxisProximityError):
        velocity_field(SpatialPoint(xi=4.0, theta=1e-9), 100.0, coeffs)


def test_velocity_node_guard():
    with pytest.raises(NodeProximityError):
        velocity_field(SpatialPoint(xi=3.0, theta=math.pi / 2.0), 0.0, UPPER)


# ---------------------------------------------------------------------------
# Fused right-hand sides match the reference field
# ---------------------------------------------------------------------------


def test_scalar_rhs_matches_velocity_field(reference_drive):
    rhs = make_scalar_rhs(AnalyticSource(reference_drive))
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(40):
        xi = float(rng.uniform(0.8, 9.0))
        th = float(rng.uniform(0.3, math.pi - 0.3))
        tau = float(rng.uniform(0.0, 2.0e4))
        coeffs = coefficients(tau, reference_drive)
        if density(xi, th, tau, coeffs) < 1e-9:
            continue
        dxi, dth, dphi, rho = rhs(tau, xi, th)
        vel = velocity_field(SpatialPoint(xi=xi, theta=th), tau, coeffs)
        # The fused form evaluates the envelopes from reduced phases
        # while the reference goes through the complex amplitudes; the
        # two carry ~tau*eps of phase-rounding disagreement.
        tol = 1e-14 + 5e-16 * tau
        assert abs(dxi - vel.dxi) < tol * max(1.0, abs(vel.dxi))
        assert abs(dth - vel.dtheta) < tol * max(1.0, abs(vel.dtheta))
        assert abs(dphi - vel.dphi) < tol * max(1.0, abs(vel.dphi))
        assert math.isclose(rho, density(xi, th, tau, coeffs), rel_tol=tol)


# The frozen pair has both parts of c2 nonzero, so every term of the
# phase rotation contributes.
FROZEN_PAIR = (complex(math.sqrt(0.6), 0.0), complex(0.4, math.sqrt(0.24)))


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_batch_rhs_matches_scalar_rhs(reference_drive, kind):
    if kind == "analytic":
        source = AnalyticSource(reference_drive)
    else:
        source = FrozenSource(*FROZEN_PAIR)
    scalar = make_scalar_rhs(source)
    batch = make_batch_rhs(source)
    xi = np.array([1.0, 3.3, 4.0, 6.6])
    th = np.array([0.5, 1.0, 1.9, 2.4])
    tau = 1234.5
    dxi_b, dth_b, _, rho_b = batch(tau, xi, th)
    for i in range(xi.size):
        dxi, dth_, _, rho = scalar(tau, float(xi[i]), float(th[i]))
        assert abs(dxi_b[i] - dxi) < 5e-15
        assert abs(dth_b[i] - dth_) < 5e-15
        assert math.isclose(rho_b[i], rho, rel_tol=1e-13)


@pytest.mark.parametrize(
    "lo, hi", [(-math.pi, math.pi), (1e-6, math.pi - 1e-6), (0.0, 3.5)]
)
def test_sincos_matches_libm(lo, hi):
    # The batch rhs's sine and cosine come from one tangent of the half
    # angle.  Measured on 2e6 points per range: sin at most 3.0 ulp
    # relative, sin and cos at most 3.33e-16 absolute.
    x = np.random.default_rng(3).uniform(lo, hi, 10**6)
    sn, ct = _sincos(x)
    want_sn, want_ct = np.sin(x), np.cos(x)
    assert np.all(np.abs(sn - want_sn) <= 4.0 * np.spacing(np.abs(want_sn)))
    assert np.max(np.abs(sn - want_sn)) <= 4.5e-16
    assert np.max(np.abs(ct - want_ct)) <= 4.5e-16


def test_sincos_special_values():
    x = np.array([math.pi, -math.pi, 0.0, 1e-300])
    sn, ct = _sincos(x)
    for got, want in ((sn, np.sin(x)), (ct, np.cos(x))):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    with np.errstate(invalid="ignore"):
        bad = _sincos(np.array([math.nan, math.inf, -math.inf]))
    assert all(np.isnan(k).all() for k in bad)


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_rates_into_work_arrays_equal_allocating_rates_bitwise(reference_drive, kind):
    # The batch sweep writes each stage's rates into arrays it owns.
    # Over times up to 2e4 and theta past both poles, where trial stages
    # reach, every value must be the allocating call's.
    if kind == "analytic":
        source = AnalyticSource(reference_drive)
    else:
        source = FrozenSource(*FROZEN_PAIR)
    rng = np.random.default_rng(14)
    n = 4000
    tau = rng.uniform(0.0, 2e4, n)
    xi = rng.uniform(1e-3, 30.0, n)
    theta = rng.uniform(-1.0, math.pi + 1.0, n)
    terms = source.cross_terms(np)(tau)
    want = _numpy_rates(xi, theta, *terms)
    out = [np.full(n, np.nan) for _ in range(8)]
    got = _numpy_rates(xi, theta, *terms, out)
    assert got[0] is out[0] and got[1] is out[1] and got[3] is out[2]
    assert got[2] == want[2] == 0.0
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("kind", ["frozen", "numeric"])
def test_frozen_rhs_matches_velocity_field(reference_drive, kind):
    # The numeric source reaches the scalar rhs through source.eval.
    if kind == "frozen":
        source = FrozenSource(*FROZEN_PAIR)
    else:
        source = NumericSource(reference_drive, 500.0)
    rhs = make_scalar_rhs(source)
    p = SpatialPoint(xi=2.8, theta=2.0)
    dxi, dth, dphi, _ = rhs(55.0, 2.8, 2.0)
    vel = velocity_field(p, 55.0, source.eval(55.0))
    assert abs(dxi - vel.dxi) < 1e-14
    assert abs(dth - vel.dtheta) < 1e-14
    assert abs(dphi - vel.dphi) < 1e-14


# ---------------------------------------------------------------------------
# Invariant sheet
# ---------------------------------------------------------------------------


def test_surface_constant_reference_values():
    inv = surface_constant(4.0, 1.0)
    assert inv.A == 6.0 / (4.0 * math.sin(1.0))
    assert inv.xi0 == 4.0 and inv.theta0 == 1.0
    inv2 = surface_constant(3.2, 2.0)
    assert inv2.A == 5.2 / (3.2 * math.sin(2.0))


def test_surface_constant_rejects_axis():
    with pytest.raises(AxisProximityError):
        surface_constant(4.0, 0.0)
    with pytest.raises(ParameterError):
        surface_constant(-1.0, 1.0)


def test_surface_residual_semantics():
    inv = surface_constant(4.0, 1.0)
    assert surface_residual(4.0, 1.0, inv) == 0.0
    # On-sheet point at a different polar angle.
    theta = 1.3
    xi_on = 2.0 / (inv.A * math.sin(theta) - 1.0)
    assert abs(surface_residual(xi_on, theta, inv)) < 1e-14
    # Accepts a bare A and arrays.
    res = surface_residual(
        np.array([4.0, xi_on]), np.array([1.0, theta]), inv.A
    )
    np.testing.assert_allclose(res, 0.0, atol=1e-14)


def test_surface_residual_off_sheet_raises():
    inv = surface_constant(4.0, 1.0)
    with pytest.raises(OffSheetError):
        surface_residual(4.0, 0.05, inv)  # A sin(theta) < 1 near the axis


@given(
    xi0=st.floats(min_value=0.5, max_value=10.0),
    theta0=st.floats(min_value=0.35, max_value=math.pi - 0.35),
    dtheta=st.floats(min_value=-0.2, max_value=0.2),
)
@settings(max_examples=120, deadline=None)
def test_sheet_slope_property(xi0, theta0, dtheta):
    # Along the sheet, dxi/dtheta = -xi (1 + xi/2) cot(theta): the
    # parametrized curve xi(theta) solves that ODE for every A.
    inv = surface_constant(xi0, theta0)
    theta = theta0 + dtheta
    if inv.A * math.sin(theta) <= 1.02:
        return
    xi = 2.0 / (inv.A * math.sin(theta) - 1.0)
    h = 1e-6
    xi_p = 2.0 / (inv.A * math.sin(theta + h) - 1.0)
    xi_m = 2.0 / (inv.A * math.sin(theta - h) - 1.0)
    fd = (xi_p - xi_m) / (2.0 * h)
    ref = -xi * (1.0 + 0.5 * xi) / math.tan(theta)
    assert abs(fd - ref) < 1e-4 * max(1.0, abs(ref))


def test_flow_stays_on_sheet_slope(reference_drive):
    # The velocity components satisfy the same slope relation pointwise.
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(30):
        xi = float(rng.uniform(0.8, 9.0))
        th = float(rng.uniform(0.4, math.pi - 0.4))
        tau = float(rng.uniform(0.0, 2.0e4))
        coeffs = coefficients(tau, reference_drive)
        if density(xi, th, tau, coeffs) < 1e-9:
            continue
        vel = velocity_field(SpatialPoint(xi=xi, theta=th), tau, coeffs)
        if abs(vel.dtheta) < 1e-12:
            continue
        slope = vel.dxi / vel.dtheta
        ref = -xi * (1.0 + 0.5 * xi) / math.tan(th)
        assert abs(slope - ref) < 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Pauli current
# ---------------------------------------------------------------------------


def test_pauli_current_matches_rho_times_velocity(reference_drive):
    coeffs = coefficients(700.0, reference_drive)
    p = SpatialPoint(xi=3.8, theta=1.4)
    rho = density(3.8, 1.4, 700.0, coeffs)
    vel = velocity_field(p, 700.0, coeffs)
    j = pauli_current(p, 700.0, coeffs)
    assert math.isclose(j[0], rho * vel.dxi, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(j[1], rho * vel.dtheta, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(j[2], rho * vel.dphi, rel_tol=1e-12)


def test_pauli_current_vanishes_at_node():
    # The current is polynomial in the amplitudes, so it stays finite
    # where the velocity itself diverges.  It vanishes at the node up
    # to the residue of cos(pi/2) not being exactly zero in binary.
    j = pauli_current(SpatialPoint(xi=3.0, theta=math.pi / 2.0), 0.0, UPPER)
    assert all(abs(c) < 1e-30 for c in j)


# ---------------------------------------------------------------------------
# Continuity: transportedness of the density
# ---------------------------------------------------------------------------


def _fd_continuity_residual(source, xi, theta, tau, h=1e-5):
    """d rho/d tau + div(rho v) by central differences."""

    def rho_at(x, t, s):
        return density(x, t, s, source.eval(s))

    drho = (rho_at(xi, theta, tau + h) - rho_at(xi, theta, tau - h)) / (2 * h)

    def flux_xi(x):
        vel = velocity_field(
            SpatialPoint(xi=x, theta=theta), tau, source.eval(tau)
        )
        return x * x * rho_at(x, theta, tau) * vel.dxi

    def flux_theta(t):
        vel = velocity_field(
            SpatialPoint(xi=xi, theta=t), tau, source.eval(tau)
        )
        return math.sin(t) * rho_at(xi, t, tau) * vel.dtheta

    div = (flux_xi(xi + h) - flux_xi(xi - h)) / (2 * h) / (xi * xi)
    div += (flux_theta(theta + h) - flux_theta(theta - h)) / (2 * h) / math.sin(
        theta
    )
    return drho + div


def test_frozen_superposition_is_exactly_transported():
    c1 = complex(math.sqrt(0.7), 0.0)
    c2 = complex(0.3, math.sqrt(0.21))
    source = FrozenSource(c1, c2)
    for xi, th, tau in ((2.0, 1.0, 50.0), (5.0, 2.1, 400.0), (3.3, 0.6, 3.0)):
        assert abs(_fd_continuity_residual(source, xi, th, tau)) < 1e-6


def test_driven_residual_matches_closed_defect(reference_drive):
    # The rotating-frame coupling is nonlocal, so the driven state has
    # a small, exactly known continuity defect.
    source = AnalyticSource(reference_drive)
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(10):
        xi = float(rng.uniform(1.0, 7.0))
        th = float(rng.uniform(0.4, math.pi - 0.4))
        tau = float(rng.uniform(0.0, 5000.0))
        if density(xi, th, tau, source.eval(tau)) < 1e-6:
            continue
        fd = _fd_continuity_residual(source, xi, th, tau)
        ref = continuity_defect(SpatialPoint(xi=xi, theta=th), tau, reference_drive)
        assert abs(fd - ref) < 1e-6


def test_defect_vanishes_without_coupling():
    from pilotwave import derive_drive

    drive = derive_drive(8.8e7, 1.55e12, nu_override_ps=0.0, omega0_ps=1.549e16)
    assert continuity_defect(SpatialPoint(xi=3.0, theta=1.0), 123.0, drive) == 0.0


# ---------------------------------------------------------------------------
# Momentum forms: literal transcription next to the derived velocity
# ---------------------------------------------------------------------------


def test_momentum_forms_reconcile_after_scaling(reference_drive):
    # The radial and polar structures divided by pi rho equal the
    # velocity components times 3 sqrt(2) sigma/nu.
    chk = printed_momentum_check(
        SpatialPoint(xi=4.0, theta=1.0), 500.0, reference_drive
    )
    scale = 3.0 * math.sqrt(2.0) * reference_drive.sigma_ps / reference_drive.nu_ps
    assert math.isclose(
        chk.radial_scaled, scale * chk.velocity.dxi, rel_tol=1e-8
    )
    assert math.isclose(
        chk.polar_scaled, scale * chk.velocity.dtheta, rel_tol=1e-8
    )


def test_momentum_phi_sign_flip_at_start(reference_drive):
    # At tau = 0 the literal azimuthal form is exactly the negative of
    # the derived one: the |c_a|^2 term of its chi_r carries a flipped
    # density-gradient sign.
    chk = printed_momentum_check(
        SpatialPoint(xi=4.0, theta=1.0), 0.0, reference_drive
    )
    assert chk.p_phi_derived != 0.0
    assert abs(chk.p_phi_printed / chk.p_phi_derived + 1.0) < 1e-12


def test_momentum_phi_consistent_rebuild(reference_drive):
    # Rebuilding the azimuthal form with the density-consistent weight
    # reproduces the derived momentum identically.
    for tau in (0.0, 500.0, 4321.0):
        chk = printed_momentum_check(
            SpatialPoint(xi=3.6, theta=1.2), tau, reference_drive
        )
        assert math.isclose(
            chk.p_phi_consistent, chk.p_phi_derived, rel_tol=1e-12
        )


def test_momentum_forms_at_start_are_static(reference_drive):
    # T(0) = 0 and T'(0) = |c_a c_b| cross term = 0, so both sheet
    # momenta vanish and the weight D reduces to e^(-2 xi).
    chk = printed_momentum_check(
        SpatialPoint(xi=4.0, theta=1.0), 0.0, reference_drive
    )
    assert chk.T_printed == 0.0
    assert chk.p_r_printed == 0.0
    assert chk.p_theta_printed == 0.0
    assert math.isclose(chk.D, math.exp(-8.0), rel_tol=1e-12)
    assert math.isclose(chk.rho, density(4.0, 1.0, 0.0, GROUND), rel_tol=1e-12)
