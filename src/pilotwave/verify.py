"""Built-in invariant suite behind the verify subcommand.

Each check is small enough to run on every install: closed-form
amplitudes against their ODE, unitarity, the envelope identities,
eigenstate velocity limits, gradient finite differences, the invariant
surface on a short driven run, normalization, the printed closed
momentum forms, and continuity of frozen states.

The printed-form checks double as documentation.  The radial and
polar structures match the derived velocity once the identity-implied
envelopes and the physical density are substituted; the azimuthal form
as printed disagrees with the derived component by an overall sign in
the 1s limit (and at tau = 0 everywhere), traceable to the sign of the
|c_a|^2 term in its radial weight chi_r and to the swapped beta weight
in its denominator.  The verify output records the measured ratio so
the defect stays visible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .drive import (
    AnalyticSource,
    DriveParameters,
    FrozenSource,
    coefficient_arrays,
    coefficients,
    derive_drive,
    envelope_T,
    envelope_Tprime,
    solve_coefficients_numeric,
)
from .dynamics import (
    SpinVector,
    continuity_defect,
    eigenstate_angular_velocity,
    printed_momentum_check,
    surface_constant,
    velocity_field,
)
from .engine import IntegratorConfig, integrate
from .wavefield import (
    SpatialPoint,
    density,
    eval_wave,
    grad_S,
    grad_log_rho,
    normalization_quadrature,
)

# Reference drive parameters used throughout the suite.
_E0 = 8.8e7
_DETUNING = 1.55e12
_OMEGA0 = 1.549e16
_NU_OVERRIDE = -5.1e12

_RNG_SEED = 1759


@dataclass(frozen=True)
class CheckResult:
    """One verify item: measured deviation against its tolerance."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    note: str = ""


def _result(name, deviation, tolerance, note="") -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance),
        deviation=float(deviation),
        tolerance=float(tolerance),
        note=note,
    )


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def reference_drive() -> DriveParameters:
    return derive_drive(
        _E0,
        _DETUNING,
        nu_override_ps=_NU_OVERRIDE,
        omega0_ps=_OMEGA0,
    )


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_coefficient_oracle(drive: DriveParameters) -> CheckResult:
    """Closed-form amplitudes against their own ODE over a full cycle."""
    tau_max = 2.0e4
    series = solve_coefficients_numeric(tau_max, drive, tol=1e-10, stride=20.0)
    worst = 0.0
    for state in series:
        ref = coefficients(state.tau, drive)
        worst = max(
            worst,
            abs(state.c_a.real - ref.c_a.real),
            abs(state.c_a.imag - ref.c_a.imag),
            abs(state.c_b.real - ref.c_b.real),
            abs(state.c_b.imag - ref.c_b.imag),
        )
    return _result("coefficient-oracle", worst, 1e-6)


def check_unitarity(drive: DriveParameters) -> CheckResult:
    tau = np.linspace(0.0, 2.0e4, 10_000)
    c_a, c_b = coefficient_arrays(tau, drive)
    norm = np.abs(c_a) ** 2 + np.abs(c_b) ** 2
    worst = float(np.max(np.abs(norm - 1.0)))
    return _result("unitarity", worst, 1e-12)


def check_envelope_identities(drive: DriveParameters) -> CheckResult:
    """(nu/2sigma) T = Im{c_a* c_b e^-i tau}; T' = Re of the same."""
    tau = np.linspace(0.0, 2.0e4, 4001)
    c_a, c_b = coefficient_arrays(tau, drive)
    cross = np.conj(c_a) * c_b * np.exp(-1j * tau)
    lhs_im = 0.5 * drive.ratio_nu * envelope_T(tau, drive)
    lhs_re = envelope_Tprime(tau, drive)
    worst = max(
        float(np.max(np.abs(lhs_im - cross.imag))),
        float(np.max(np.abs(lhs_re - cross.real))),
    )
    return _result("envelope-identities", worst, 1e-10)


def check_eigenstate_confinement(spin: SpinVector) -> CheckResult:
    """Frozen eigenstates keep xi and theta fixed."""
    worst = 0.0
    for c1, c2 in ((1.0, 0.0), (0.0, 1.0)):
        source = FrozenSource(c1, c2)
        for xi, theta in ((4.0, 1.0), (2.5, 2.2), (7.0, 0.4)):
            vel = velocity_field(
                SpatialPoint(xi=xi, theta=theta, phi=0.3),
                137.0,
                source.eval(137.0),
                spin=spin,
            )
            worst = max(worst, abs(vel.dxi), abs(vel.dtheta))
    return _result("eigenstate-confinement", worst, 1e-14)


def check_eigenstate_angular_velocity(spin: SpinVector) -> CheckResult:
    """dphi/dtau = 8/(3 xi) for 1s, 4/(3 xi) for 2p0, ratio exactly 1/2."""
    worst = 0.0
    for (c1, c2), state in (((1.0, 0.0), "1s"), ((0.0, 1.0), "2p0")):
        source = FrozenSource(c1, c2)
        for xi in (1.0, 4.0, 7.5):
            vel = velocity_field(
                SpatialPoint(xi=xi, theta=1.1, phi=0.0),
                0.0,
                source.eval(0.0),
                spin=spin,
            )
            worst = max(worst, abs(vel.dphi - eigenstate_angular_velocity(state, xi)))
    note = "frozen 1s and 2p0 at xi in {1, 4, 7.5}"
    return _result("eigenstate-angular-velocity", worst, 1e-12, note)


def check_positive_revolution(spin: SpinVector) -> CheckResult:
    """The 1s-limit azimuthal drift must run counterclockwise."""
    source = FrozenSource(1.0, 0.0)
    vel = velocity_field(
        SpatialPoint(xi=4.0, theta=1.0, phi=0.0), 0.0, source.eval(0.0), spin=spin
    )
    deviation = 0.0 if vel.dphi > 0.0 else 1.0
    return _result(
        "positive-revolution",
        deviation,
        0.5,
        "dphi/dtau = %.6g at the 1s reference point" % (vel.dphi,),
    )


def check_gradients(drive: DriveParameters, n_points: int = 200) -> CheckResult:
    """Analytic gradients against central differences of arg psi, ln rho."""
    rng = np.random.Generator(np.random.Philox(_RNG_SEED))
    h = 1e-6
    worst = 0.0
    tried = 0
    while tried < n_points:
        xi = float(rng.uniform(0.5, 10.0))
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        tau = float(rng.uniform(0.0, 2.0e4))
        coeffs = coefficients(tau, drive)
        point = SpatialPoint(xi=xi, theta=theta, phi=0.0)
        w = eval_wave(point, tau, coeffs)
        if w.rho < 1e-8:
            continue
        tried += 1
        gs = grad_S(point, tau, coeffs)
        gl = grad_log_rho(point, tau, coeffs)

        def at(dx, dt):
            return eval_wave(
                SpatialPoint(xi=xi + dx, theta=theta + dt, phi=0.0), tau, coeffs
            )

        wxp, wxm = at(h, 0.0), at(-h, 0.0)
        wtp, wtm = at(0.0, h), at(0.0, -h)
        # Phase differences through the complex ratio avoid branch cuts.
        fd_s_xi = cmath.phase(wxp.psi / wxm.psi) / (2.0 * h)
        fd_s_th = cmath.phase(wtp.psi / wtm.psi) / (2.0 * h)
        fd_l_xi = (math.log(wxp.rho) - math.log(wxm.rho)) / (2.0 * h)
        fd_l_th = (math.log(wtp.rho) - math.log(wtm.rho)) / (2.0 * h)
        for got, ref in (
            (gs[0], fd_s_xi),
            (gs[1], fd_s_th),
            (gl[0], fd_l_xi),
            (gl[1], fd_l_th),
        ):
            denom = max(abs(ref), 1.0)
            worst = max(worst, abs(got - ref) / denom)
    return _result("gradient-oracle", worst, 1e-6, "%d random points" % (n_points,))


def check_surface_residual(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    """Short driven run stays on its confinement sheet."""
    initial = SpatialPoint(xi=4.0, theta=1.0, phi=0.0)
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, output_stride=5.0)
    result = integrate(initial, 300.0, AnalyticSource(drive), config, spin=spin)
    worst = float(np.max(np.abs(result.surface_residual)))
    return _result("surface-residual", worst, 1e-6, "driven run to tau = 300")


def check_normalization(drive: DriveParameters) -> CheckResult:
    worst = 0.0
    for tau in (0.0, 777.0, 9148.0):
        total = normalization_quadrature(tau, coefficients(tau, drive))
        worst = max(worst, abs(total - 1.0))
    return _result("normalization", worst, 1e-6)


def check_printed_radial(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    point = SpatialPoint(xi=4.0, theta=1.0, phi=0.0)
    chk = printed_momentum_check(point, 500.0, drive, spin=spin)
    scale = 3.0 * math.sqrt(2.0) * drive.sigma_t / drive.nu_t
    dev = _rel(chk.radial_scaled, scale * chk.velocity.dxi)
    return _result(
        "printed-radial",
        dev,
        1e-8,
        "structure cos(theta)(1+xi/2)e^(-3xi/2) T / (pi rho) vs scaled dxi/dtau",
    )


def check_printed_polar(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    point = SpatialPoint(xi=4.0, theta=1.0, phi=0.0)
    chk = printed_momentum_check(point, 500.0, drive, spin=spin)
    scale = 3.0 * math.sqrt(2.0) * drive.sigma_t / drive.nu_t
    dev = _rel(chk.polar_scaled, scale * chk.velocity.dtheta)
    return _result(
        "printed-polar",
        dev,
        1e-8,
        "the printed polar form carries the radial sign; the sheet "
        "equation d(xi)/d(theta) = -xi(1+xi/2) cot(theta) fixes it",
    )


def check_printed_phi_sign(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    point = SpatialPoint(xi=4.0, theta=1.0, phi=0.0)
    chk = printed_momentum_check(point, 0.0, drive, spin=spin)
    if chk.p_phi_derived == 0.0:
        ratio = math.inf
    else:
        ratio = chk.p_phi_printed / chk.p_phi_derived
    return _result(
        "printed-phi-sign",
        abs(ratio + 1.0),
        1e-12,
        "printed azimuthal form is the negative of the derived one at "
        "tau = 0 (|c_a|^2 term of chi_r enters with the opposite sign); "
        "measured ratio %.12g" % (ratio,),
    )


def check_printed_phi_consistent(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    point = SpatialPoint(xi=3.0, theta=0.8, phi=0.0)
    chk = printed_momentum_check(point, 777.0, drive, spin=spin)
    dev = _rel(chk.p_phi_consistent, chk.p_phi_derived)
    return _result(
        "printed-phi-consistent",
        dev,
        1e-12,
        "same structure with chi := grad(pi rho)/(2 beta) and the "
        "physical density restores the derived component exactly",
    )


def _fd_continuity_residual(source, xi: float, theta: float, tau: float) -> float:
    """d rho/d tau + div(rho v) at (xi, theta, tau) by central differences."""
    h = 1e-5
    drho = (
        density(xi, theta, tau + h, source.eval(tau + h))
        - density(xi, theta, tau - h, source.eval(tau - h))
    ) / (2.0 * h)

    def flux_xi(x):
        rho = density(x, theta, tau, source.eval(tau))
        vel = velocity_field(
            SpatialPoint(xi=x, theta=theta, phi=0.0), tau, source.eval(tau)
        )
        return x * x * rho * vel.dxi

    def flux_theta(t):
        rho = density(xi, t, tau, source.eval(tau))
        vel = velocity_field(
            SpatialPoint(xi=xi, theta=t, phi=0.0), tau, source.eval(tau)
        )
        return math.sin(t) * rho * vel.dtheta

    div = (flux_xi(xi + h) - flux_xi(xi - h)) / (2.0 * h) / (xi * xi) + (
        flux_theta(theta + h) - flux_theta(theta - h)
    ) / (2.0 * h) / math.sin(theta)
    return drho + div


def check_continuity_frozen() -> CheckResult:
    """d rho/d tau + div(rho v) = 0 for a frozen superposition."""
    c1 = complex(math.sqrt(0.7), 0.0)
    c2 = complex(0.3, math.sqrt(0.21))
    source = FrozenSource(c1, c2)
    rng = np.random.Generator(np.random.Philox(_RNG_SEED + 1))
    worst = 0.0
    checked = 0
    while checked < 100:
        xi = float(rng.uniform(0.8, 8.0))
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        tau = float(rng.uniform(0.0, 1000.0))
        if density(xi, theta, tau, source.eval(tau)) < 1e-6:
            continue
        checked += 1
        worst = max(worst, abs(_fd_continuity_residual(source, xi, theta, tau)))
    return _result("continuity-frozen", worst, 1e-6, "100 random points")


def check_sheet_matches_velocity(drive: DriveParameters, spin: SpinVector) -> CheckResult:
    """dxi/dtheta along the flow equals the sheet slope -xi(1+xi/2)cot(theta)."""
    worst = 0.0
    for xi, theta, tau in ((4.0, 1.0, 350.0), (3.2, 2.0, 4100.0), (5.5, 0.9, 12000.0)):
        vel = velocity_field(
            SpatialPoint(xi=xi, theta=theta, phi=0.0),
            tau,
            coefficients(tau, drive),
            spin=spin,
        )
        if vel.dtheta == 0.0:
            continue
        slope = vel.dxi / vel.dtheta
        expect = -xi * (1.0 + 0.5 * xi) / math.tan(theta)
        worst = max(worst, _rel(slope, expect))
    return _result("sheet-slope", worst, 1e-10)


def check_continuity_driven_defect(drive: DriveParameters) -> CheckResult:
    """FD continuity residue of the driven state equals its closed form."""
    source = AnalyticSource(drive)
    worst = 0.0
    for xi, theta, tau in ((3.0, 1.2, 400.0), (5.0, 2.1, 5000.0), (2.2, 0.7, 9000.0)):
        point = SpatialPoint(xi=xi, theta=theta, phi=0.0)
        defect = continuity_defect(point, tau, drive)
        residual = _fd_continuity_residual(source, xi, theta, tau)
        worst = max(worst, abs(residual - defect))
    return _result(
        "continuity-driven",
        worst,
        1e-6,
        "the rotating-wave source term, not a transport error",
    )


def check_surface_constants() -> CheckResult:
    a1 = surface_constant(4.0, 1.0).A
    a2 = surface_constant(3.2, 2.0).A
    dev = max(abs(a1 - 6.0 / (4.0 * math.sin(1.0))), abs(a2 - 5.2 / (3.2 * math.sin(2.0))))
    return _result("surface-constant", dev, 1e-15)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


def run_checks(
    *,
    disable_spin: bool = False,
    flip_spin_cross: bool = False,
) -> list[CheckResult]:
    """Run every check; the flags inject known faults for exit-code tests.

    disable_spin removes the spin term (s_z = 0), which must break the
    eigenstate angular-velocity check; flip_spin_cross reverses the
    circulation (s_z = -1/2), which must break the positive-revolution
    check.
    """
    if disable_spin and flip_spin_cross:
        raise ValueError("choose at most one spin fault")
    spin = SpinVector()
    if disable_spin:
        spin = SpinVector(s_z=0.0)
    elif flip_spin_cross:
        spin = SpinVector(s_z=-0.5)

    drive = reference_drive()
    return [
        check_coefficient_oracle(drive),
        check_unitarity(drive),
        check_envelope_identities(drive),
        check_eigenstate_confinement(spin),
        check_eigenstate_angular_velocity(spin),
        check_positive_revolution(spin),
        check_gradients(drive),
        check_sheet_matches_velocity(drive, spin),
        check_surface_constants(),
        check_surface_residual(drive, spin),
        check_normalization(drive),
        check_printed_radial(drive, spin),
        check_printed_polar(drive, spin),
        check_printed_phi_sign(drive, spin),
        check_printed_phi_consistent(drive, spin),
        check_continuity_frozen(),
        check_continuity_driven_defect(drive),
    ]
