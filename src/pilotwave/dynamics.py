"""Spin-dependent guidance field in scaled variables.

The momentum field of the guided electron is

    p = grad S + grad(log rho) x s

with S the phase of psi~ and s a constant spin vector (hbar/2) z.
Because psi~ is axisymmetric, grad S has only r and theta components,
while the cross term is purely azimuthal; with z = cos(theta) r -
sin(theta) theta and a right-handed (r, theta, phi) triad,

    p_phi = -(hbar s_z / a) (sin(theta) dlogrho/dxi
            + cos(theta) dlogrho/dtheta / xi).

Scaling by hbar/(m a^2 omega0) = 8/3 gives the equations of motion

    dxi/dtau    = (8/3) dS/dxi
    dtheta/dtau = (8/3) dS/dtheta / xi^2
    dphi/dtau   = -(8/3) s_z (dlogrho/dxi
                  + cot(theta) dlogrho/dtheta / xi) / xi

(all derivatives raw).  velocity_field computes these through the
wavefield gradient routines.  guidance_current writes the same algebra
once in closed form, as the current rho v and the density, on Python
floats; make_scalar_rhs (the integrator hot loop) and pauli_current
divide its output instead of repeating it.  No ensemble statistic reads
phi, so make_batch_rhs gives only dxi and dtheta (0.0 as dphi), from
_numpy_rates: guidance_current's in-plane lines on arrays, kept apart
so that the float path pays no extra call or branch per evaluation.
make_row_rhs runs make_batch_rhs's numpy code on one row's floats, bit
for bit, for the ensemble's last few rows.  The amplitude terms
|c_a|^2, |c_b|^2 and c_a* c_b e^(-i tau) that the rhs builders use come
from the coefficient source's own cross_terms(xp), on floats
(xp = math) or arrays (xp = numpy); see drive.

Stage arguments: make_batch_stages computes the terms of a batch
trial's five stage times in one pass, as one (ca2, cb2, tp, im) tuple
per time; dp5_trial passes each tuple to the rhs where it would pass
the time, and make_batch_rhs reads it as the terms themselves.  The
ensemble's sweep appends to each tuple an output slot, work arrays
that _numpy_rates writes that call's rates into, so stages 6 and 7,
which share a time, get tuples of their own.  The rhs is still called
six times per trial with the rows second.  The scalar and row rhs take
times only.

Sines and cosines: the numpy path takes theta's pair from one tangent
of its half angle, drive._sincos, as the sources' numpy terms do,
because this numpy's np.sin and np.cos are scalar libm loops while
np.tan is SIMD.  The float path, which the scalar engine runs, keeps
math.sin and math.cos: they are cheaper on one float than any
Python-level helper, and its numbers stay exactly as they were.

Two eigenstate limits anchor everything: a pure 1s state gives
dphi/dtau = 8/(3 xi) and a pure 2p0 state gives 4/(3 xi), with
dxi = dtheta = 0 in both, so the electron circulates about the spin
axis at a rate set entirely by the density gradient.

For a purely 1s/2p0-driven state the xi and theta rates always satisfy
dxi/dtheta = -xi (1 + xi/2) cot(theta), so each trajectory stays on the
surface xi = 2/(A sin(theta) - 1) fixed by its initial point; the
surface_* helpers expose that invariant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import VELOCITY_SCALE, operand
from .drive import (
    AnalyticSource,
    CoefficientState,
    DriveParameters,
    _sincos,
    coefficients,
    envelope_T,
    envelope_Tprime,
    reduce_angle,
)
from .errors import (
    AxisProximityError,
    OffSheetError,
    ParameterError,
)
from .stepping import STAGE_C
from .wavefield import (
    BETA,
    N1,
    N2,
    SpatialPoint,
    _parts,
    grad_log_rho,
    grad_S,
)

# Axis guards: evaluation refuses points with sin(theta) below the hard
# guard; trajectory starts should respect the (larger) initial guard.
AXIS_GUARD = 1e-6
AXIS_GUARD_INITIAL = 1e-3


@dataclass(frozen=True)
class SpinVector:
    """Constant spin vector in units of hbar, along the z axis.

    The spin has no transverse components: the guidance algebra assumes
    the axisymmetric cross-product form.  s_z = +1/2 is the physical
    spin-up electron; s_z = 0 removes the spin term entirely (useful to
    attribute the azimuthal motion) and s_z = -1/2 flips the
    circulation.
    """

    s_z: float = 0.5


SPIN_UP = SpinVector()


@dataclass(frozen=True)
class ScaledVelocity:
    """Coordinate rates (dxi/dtau, dtheta/dtau, dphi/dtau)."""

    dxi: float
    dtheta: float
    dphi: float


@dataclass(frozen=True)
class SurfaceInvariant:
    """Constant A of the invariant surface xi = 2/(A sin(theta) - 1).

    A = (2 + xi0)/(xi0 sin(theta0)) > 1 for any admissible start.
    """

    A: float
    xi0: float
    theta0: float


@dataclass(frozen=True)
class PrintedFormCheck:
    """Literal printed momentum forms next to their reconciled values.

    The literal fields (chi_r, chi_theta, D, p_r_printed,
    p_theta_printed, p_phi_printed, T_printed, Tprime_printed) evaluate
    the historical closed forms exactly as written, in units of hbar/a.
    They carry three known defects, documented where this record is
    produced: the polar momentum shares the sign of the radial one
    (its own surface equation requires the opposite), the weight of the
    2p0 amplitude uses beta where 1/beta belongs (so D is not
    proportional to the density), and the |c_a|^2 term of chi_r flips
    the sign of the density gradient (visible as p_phi < 0 in the 1s
    limit).

    The reconciled fields substitute the identity-consistent envelopes
    and the physical density pi*rho: radial_scaled and polar_scaled are
    the structures cos(theta)(1+xi/2)e^(-3xi/2) T/(pi rho) and
    -sin(theta) e^(-3xi/2) T/(xi pi rho), which must equal the velocity
    components times 3 sqrt(2) sigma/nu; p_phi_consistent rebuilds the
    phi form with chi := (1/(2 beta)) grad(pi rho) and D := pi rho and
    must equal the derived p_phi exactly.
    """

    T_printed: float
    Tprime_printed: float
    D: float
    chi_r: float
    chi_theta: float
    p_r_printed: float
    p_theta_printed: float
    p_phi_printed: float
    radial_scaled: float
    polar_scaled: float
    p_phi_consistent: float
    p_phi_derived: float
    rho: float
    velocity: ScaledVelocity


def velocity_field(
    point: SpatialPoint,
    tau: float,
    coeffs: CoefficientState,
    *,
    spin: SpinVector = SPIN_UP,
) -> ScaledVelocity:
    """Scaled velocity at one point, derived from the wavefield gradients.

    Raises NodeProximityError below wavefield.RHO_FLOOR and
    AxisProximityError when sin(theta) < 1e-6.  This is the reference
    route; the integrator uses the algebraically identical closures
    from make_scalar_rhs.
    """
    st = math.sin(point.theta)
    if st < AXIS_GUARD:
        raise AxisProximityError(
            "sin(theta)=%.3e below the axis guard %.0e" % (st, AXIS_GUARD)
        )
    gs_xi, gs_th = grad_S(point, tau, coeffs)
    gl_xi, gl_th = grad_log_rho(point, tau, coeffs)
    xi = point.xi
    ct = math.cos(point.theta)
    dxi = VELOCITY_SCALE * gs_xi
    dtheta = VELOCITY_SCALE * gs_th / (xi * xi)
    dphi = -VELOCITY_SCALE * spin.s_z * (gl_xi + (ct / st) * gl_th / xi) / xi
    return ScaledVelocity(dxi=dxi, dtheta=dtheta, dphi=dphi)


def eigenstate_angular_velocity(state: str, xi) -> float:
    """Closed-form dphi/dtau for the pure eigenstates.

    state is "1s" (8/(3 xi)) or "2p0" (4/(3 xi)); xi scalar or array.
    """
    xi = np.asarray(xi, dtype=float)
    if state == "1s":
        out = 8.0 / (3.0 * xi)
    elif state == "2p0":
        out = 4.0 / (3.0 * xi)
    else:
        raise ParameterError("state must be '1s' or '2p0', got %r" % (state,))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Fused right-hand sides for the integrators
# ---------------------------------------------------------------------------


def make_scalar_rhs(
    source,
    *,
    spin: SpinVector = SPIN_UP,
) -> Callable[[float, float, float], tuple[float, float, float, float]]:
    """Build f(tau, xi, theta) -> (dxi, dtheta, dphi, rho) in plain floats.

    source is a coefficient source (see drive).  Raises
    AxisProximityError from inside the closure when sin(theta) drops
    below the axis guard, so the integrator can abort cleanly.
    """
    cross = source.cross_terms(math)
    sz = spin.s_z
    last = [math.nan, None]  # the last tau and its cross terms

    def rhs(tau, xi, theta):
        # A DP5 trial evaluates its last two stages at the same time;
        # the second evaluation reuses the first one's cross terms.
        if tau != last[0]:
            last[0], last[1] = tau, cross(tau)
        sn = math.sin(theta)
        if sn < AXIS_GUARD:
            raise AxisProximityError(
                "sin(theta)=%.3e below the axis guard %.0e" % (sn, AXIS_GUARD)
            )
        ca2, cb2, tp, im = last[1]
        j_xi, j_theta, j_phi, rho = guidance_current(
            xi, sn, math.cos(theta), ca2, cb2, tp, im, sz
        )
        return j_xi / rho, j_theta / (xi * xi * rho), j_phi / (xi * rho), rho

    return rhs


def guidance_current(xi, sn, ct, ca2, cb2, tp, im, sz):
    """Current and density of the guidance law on floats, before any division.

    sn and ct are sin(theta) and cos(theta), computed by the caller,
    which needs sn anyway for its axis handling: the callers
    (make_scalar_rhs, pauli_current) take them from math.sin and
    math.cos, so the scalar engine's numbers stay libm's.  ca2 = |c_a|^2,
    cb2 = |c_b|^2, tp + i im = c_a* c_b e^(-i tau) and sz is the spin's
    z component.  Returns (rho dxi/dtau, rho xi^2 dtheta/dtau,
    rho xi dphi/dtau, rho); no guard fires here.
    """
    ex1 = math.exp(-xi)
    exh = math.exp(-0.5 * xi)
    u1 = N1 * ex1
    b = N2 * xi * exh
    u2 = b * ct
    u2x = N2 * (1.0 - 0.5 * xi) * exh * ct
    u2t = -b * sn
    # Products that rho, drx and drt share, grouped as each expression
    # groups them, so sharing them changes no rounding.
    a11 = ca2 * u1 * u1
    b2 = cb2 * u2
    t1 = tp * u1
    rho = a11 + b2 * u2 + 2.0 * u1 * u2 * tp
    fi = VELOCITY_SCALE * im * u1
    drx = 2.0 * (-a11 + b2 * u2x + t1 * (u2x - u2))
    drt = 2.0 * u2t * (b2 + t1)
    j_phi = -VELOCITY_SCALE * sz * (drx + (ct / sn) * drt / xi)
    return fi * (u2x + u2), fi * u2t, j_phi, rho


def _numpy_rates(xi, theta, ca2, cb2, tp, im, out=None):
    """(dxi, dtheta, 0.0, rho) through numpy from the cross terms at tau.

    guidance_current's in-plane lines in its operation order, with
    theta's sine and cosine from one _sincos call; 0.0 fills the slot
    of dphi, which is not computed.

    out, eight float arrays shaped like xi (none of them xi or theta),
    takes the same operations in place: dxi and dtheta come back in the
    first two and rho in the third, and the other five are scratch.  So
    the stages of a trial can keep their rates apart in their own first
    pairs and share the other six arrays, rho included.  None allocates.
    """
    if out is not None:
        return _numpy_rates_into(xi, theta, ca2, cb2, tp, im, out)
    sn, ct = _sincos(theta)
    ex1 = np.exp(-xi)
    exh = np.exp(-0.5 * xi)
    u1 = N1 * ex1
    b = N2 * xi * exh
    u2 = b * ct
    u2x = N2 * (1.0 - 0.5 * xi) * exh * ct
    u2t = -b * sn
    rho = ca2 * u1 * u1 + cb2 * u2 * u2 + 2.0 * u1 * u2 * tp
    fi = VELOCITY_SCALE * im * u1
    return fi * (u2x + u2) / rho, fi * u2t / (xi * xi * rho), 0.0, rho


# _numpy_rates_into's constants, as ufunc operands.
_N1, _N2, _SCALE = operand(N1), operand(N2), operand(VELOCITY_SCALE)
_HALF, _NEG_HALF, _ONE, _TWO = operand(0.5), operand(-0.5), operand(1.0), operand(2.0)


def _numpy_rates_into(xi, theta, ca2, cb2, tp, im, out):
    """_numpy_rates with out: every line above as ufunc calls, in place."""
    dxi, dtheta, rho, w0, w1, w2, w3, w4 = out
    # Local names: a sweep makes this call six times.
    multiply, add, exp = np.multiply, np.add, np.exp
    sn, ct = _sincos(theta, (dxi, dtheta))
    u1 = exp(np.negative(xi, out=w0), out=w0)
    exh = exp(multiply(_NEG_HALF, xi, out=w1), out=w1)
    multiply(_N1, u1, out=u1)
    b = multiply(multiply(_N2, xi, out=w2), exh, out=w2)
    u2 = multiply(b, ct, out=w3)
    u2x = np.subtract(_ONE, multiply(_HALF, xi, out=w4), out=w4)
    multiply(multiply(multiply(_N2, u2x, out=u2x), exh, out=u2x), ct, out=u2x)
    u2t = multiply(np.negative(b, out=b), sn, out=b)
    # rho's three products in w1, summed left to right into rho.
    multiply(multiply(ca2, u1, out=rho), u1, out=rho)
    add(rho, multiply(multiply(cb2, u2, out=w1), u2, out=w1), out=rho)
    multiply(multiply(_TWO, u1, out=w1), u2, out=w1)
    add(rho, multiply(w1, tp, out=w1), out=rho)
    fi = multiply(multiply(_SCALE, im, out=w1), u1, out=w1)
    np.divide(multiply(fi, add(u2x, u2, out=u2x), out=dxi), rho, out=dxi)
    xxr = multiply(multiply(xi, xi, out=w0), rho, out=w0)
    np.divide(multiply(fi, u2t, out=dtheta), xxr, out=dtheta)
    return dxi, dtheta, 0.0, rho


def make_batch_rhs(source):
    """Vectorized in-plane analogue of make_scalar_rhs for ensembles.

    Returns f(tau, xi, theta) mapping equal-length arrays to
    (dxi, dtheta, 0.0, rho).  tau is an array of times, or a tuple
    (ca2, cb2, tp, im) of the amplitude terms already evaluated at
    those times: one of the stage arguments that make_batch_stages
    gives a trial, which the rates then read as they are.  A fifth
    entry, if present, is _numpy_rates's out: the rates are then
    written there instead of into new arrays.  The ensemble
    carries (xi, theta) and does not propagate phi, so dphi's slot
    holds 0.0 and no spin is taken (it enters only dphi).  Axis
    handling is the caller's job (the batch integrator drops
    trajectories near the axis), so no guard fires here.
    """
    cross = source.cross_terms(np)

    def rhs(tau, xi, theta):
        return _numpy_rates(xi, theta, *(tau if type(tau) is tuple else cross(tau)))

    return rhs


# STAGE_C as a column, to stack a trial's five stage times as rows.
_STAGE_COLUMN = np.array(STAGE_C)[:, None]


def make_batch_stages(source):
    """The amplitude terms of a batch trial's five stage times, in one pass.

    Returns f(t, h) mapping a trial's clocks and steps (equal-length
    arrays) to dp5_trial's five stage arguments: entry i is the tuple
    (ca2, cb2, tp, im) of source.cross_terms(np) at t + STAGE_C[i] h,
    bit for bit.  One call over the stacked (5, m) times pays the terms'
    numpy dispatch once instead of five times.  It computes them in six
    work arrays that the closure owns and regrows to the most rows seen,
    so a sweep allocates none of them.  The tuples hold row views of
    those arrays, which the next call overwrites.  Analytic and frozen
    sources; the frozen source's ca2 and cb2 stay floats.

    The (5, m) views and the table of tuples are kept while the row
    count repeats, and the same table comes back: the terms' work-array
    path returns its out arrays themselves, so the kept row views see
    each call's terms.  A new row count builds both again.
    """
    cross = source.cross_terms(np)
    work = []  # six flat arrays of five times the most rows seen
    last = [None, None, None]  # the row count, its (5, m) views and its table

    def stages(t, h):
        m = len(h)
        if m != last[0]:
            if not work or work[0].size < 5 * m:
                work[:] = [np.empty(5 * m) for _ in range(6)]
            last[:] = m, [w[: 5 * m].reshape(5, m) for w in work], None
        out = last[1]
        tau = np.add(t, np.multiply(_STAGE_COLUMN, h, out=out[0]), out=out[0])
        terms = cross(tau, out)
        if last[2] is None:
            last[2] = list(zip(*[(x,) * 5 if isinstance(x, float) else x for x in terms]))
        return last[2]

    return stages


def make_row_rhs(source):
    """make_batch_rhs for one trajectory, called with Python floats.

    The same numpy arithmetic runs on scalars, so each value equals the
    batch rhs's value for that row bit for bit; (dxi, dtheta, 0.0, rho)
    come back as Python floats, which the caller's arithmetic runs
    faster on.  The math module would not do: math.exp and np.exp round
    differently for a few percent of arguments.
    """
    cross = source.cross_terms(np)
    last = [math.nan, None]  # the last tau and its cross terms

    def rhs(tau, xi, theta):
        if tau != last[0]:
            last[0], last[1] = tau, cross(tau)
        dxi, dtheta, _, rho = _numpy_rates(xi, theta, *last[1])
        return float(dxi), float(dtheta), 0.0, float(rho)

    return rhs


# ---------------------------------------------------------------------------
# Currents and continuity
# ---------------------------------------------------------------------------


def pauli_current(
    point: SpatialPoint,
    tau: float,
    coeffs: CoefficientState,
    *,
    spin: SpinVector = SPIN_UP,
) -> tuple[float, float, float]:
    """Current components (rho dxi/dtau, rho dtheta/dtau, rho dphi/dtau).

    Computed in closed form without dividing by rho, so the current is
    well defined at nodes, where all three components vanish.
    """
    st = math.sin(point.theta)
    if st < AXIS_GUARD:
        raise AxisProximityError(
            "sin(theta)=%.3e below the axis guard %.0e" % (st, AXIS_GUARD)
        )
    xi = point.xi
    ca, cb = coeffs.c_a, coeffs.c_b
    ca2 = ca.real * ca.real + ca.imag * ca.imag
    cb2 = cb.real * cb.real + cb.imag * cb.imag
    m = ca.conjugate() * cb * cmath.exp(-1j * reduce_angle(tau))
    j_xi, j_theta, j_phi, _ = guidance_current(
        xi, st, math.cos(point.theta), ca2, cb2, m.real, m.imag, spin.s_z
    )
    return j_xi, j_theta / (xi * xi), j_phi / xi


def continuity_defect(
    point: SpatialPoint,
    tau: float,
    drive: DriveParameters,
) -> float:
    """Analytic value of d(rho)/dtau + div(rho v) for the driven state.

    The rotating-wave coupling is hermitian but spatially nonlocal, so
    the driven density is not exactly transported by the velocity
    field; the defect is

        nu~ [ Im{c_a* c_b e^(-i Omega~ tau)} (u1^2 - u2^2)
              + u1 u2 (|c_b|^2 - |c_a|^2) sin(omega~ tau) ]

    with Im{c_a* c_b e^(-i Omega~ tau)} = -(nu/2 sigma) sin(sigma~ tau)
    for the closed-form amplitudes.  Frozen superpositions satisfy the
    continuity equation exactly; this function quantifies the driven
    residue, and the finite-difference continuity checks in the test
    suite assert against it.
    """
    u1, u2, _, _ = _parts(point.xi, point.theta)
    st = drive.sigma_t * tau
    slow_im = -0.5 * drive.ratio_nu * math.sin(st)
    ca2, cb2, _, _ = AnalyticSource(drive).cross_terms(math)(tau)
    w = reduce_angle(drive.omega_t * tau)
    return drive.nu_t * (
        slow_im * (u1 * u1 - u2 * u2) + u1 * u2 * (cb2 - ca2) * math.sin(w)
    )


# ---------------------------------------------------------------------------
# Invariant surface
# ---------------------------------------------------------------------------


def surface_constant(xi0: float, theta0: float) -> SurfaceInvariant:
    """Invariant-surface constant A = (2 + xi0)/(xi0 sin(theta0))."""
    if not xi0 > 0.0:
        raise ParameterError("xi0 must be positive, got %r" % (xi0,))
    st = math.sin(theta0)
    if st < AXIS_GUARD_INITIAL:
        raise AxisProximityError(
            "sin(theta0)=%.3e too close to the axis for a surface constant"
            % (st,)
        )
    return SurfaceInvariant(A=(2.0 + xi0) / (xi0 * st), xi0=xi0, theta0=theta0)


def surface_residual(xi, theta, invariant) -> float:
    """Absolute residual xi - 2/(A sin(theta) - 1).

    invariant may be a SurfaceInvariant or a bare A value.  Raises
    OffSheetError where A sin(theta) <= 1, since the sheet does not
    extend there.  Accepts scalars or arrays.
    """
    A = invariant.A if isinstance(invariant, SurfaceInvariant) else float(invariant)
    xi = np.asarray(xi, dtype=float)
    denom = A * np.sin(np.asarray(theta, dtype=float)) - 1.0
    if np.any(denom <= 0.0):
        raise OffSheetError(
            "A sin(theta) <= 1 encountered; the invariant sheet does not "
            "extend there (A=%r)" % (A,)
        )
    out = xi - 2.0 / denom
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Printed-form cross-checks
# ---------------------------------------------------------------------------


def printed_momentum_check(
    point: SpatialPoint,
    tau: float,
    drive: DriveParameters,
    *,
    spin: SpinVector = SPIN_UP,
) -> PrintedFormCheck:
    """Evaluate the historical closed momentum forms at one point.

    See PrintedFormCheck for exactly what is literal and what is
    reconciled.  All momenta are in units of hbar/a; the velocity field
    relates to them through dxi/dtau = (8/3) p_r, dtheta/dtau =
    (8/3) p_theta / xi and dphi/dtau = (8/3) p_phi / (xi sin(theta)).
    """
    xi, theta = point.xi, point.theta
    ct = math.cos(theta)
    sn = math.sin(theta)
    coeffs = coefficients(tau, drive)
    ca2 = coeffs.c_a.real**2 + coeffs.c_a.imag**2
    cb2 = coeffs.cb_sq
    rn = drive.ratio_nu
    rO = drive.ratio_Omega

    # Literal envelopes: fast phase at omega0 (the drive frequency in
    # the consistent forms) and the historical signs on the detuned
    # terms.
    s_ph = reduce_angle(drive.sigma_t * tau)
    f_ph = reduce_angle(tau)
    cs, ss = math.cos(s_ph), math.sin(s_ph)
    cf, sf = math.cos(f_ph), math.sin(f_ph)
    T_printed = -ss * cf - rO * (1.0 - cs) * sf
    Tp_printed = 0.5 * rn * (rO * (1.0 - cs) * cf - ss * sf)

    ex1 = math.exp(-xi)
    exh = math.exp(-0.5 * xi)
    e2 = ex1 * ex1  # e^(-2 xi)
    e32 = ex1 * exh  # e^(-3 xi / 2)

    D = (
        ca2 * e2
        + BETA * BETA * cb2 * xi * xi * ex1 * ct * ct
        + 2.0 * BETA * xi * e32 * ct * Tp_printed
    )
    chi_r = (
        ca2 * e2 / BETA
        + BETA * cb2 * ct * ct * ex1 * xi * (1.0 - 0.5 * xi)
        + ct * e32 * (1.0 - 1.5 * xi) * Tp_printed
    )
    chi_theta = -BETA * cb2 * ex1 * sn * ct * xi - e32 * sn * Tp_printed
    p_r_printed = (
        0.5 * rn * BETA * ct * e32 * (1.0 + 0.5 * xi) * T_printed / D
    )
    p_theta_printed = 0.5 * rn * BETA * sn * e32 * T_printed / D
    p_phi_printed = BETA * (-chi_r * sn - chi_theta * ct) / D

    # Reconciled structures against the physical density pi rho.
    T = envelope_T(tau, drive)
    u1, u2, u2x, u2t = _parts(xi, theta)
    tp = envelope_Tprime(tau, drive)
    rho = ca2 * u1 * u1 + cb2 * u2 * u2 + 2.0 * u1 * u2 * tp
    pi_rho = math.pi * rho
    radial_scaled = ct * (1.0 + 0.5 * xi) * e32 * T / pi_rho
    polar_scaled = -sn * e32 * T / (xi * pi_rho)

    drx = math.pi * 2.0 * (-ca2 * u1 * u1 + cb2 * u2 * u2x + tp * u1 * (u2x - u2))
    drt = math.pi * 2.0 * u2t * (cb2 * u2 + tp * u1)
    chi_r_c = drx / (2.0 * BETA)
    chi_theta_c = drt / (2.0 * BETA * xi)
    p_phi_consistent = BETA * (-chi_r_c * sn - chi_theta_c * ct) / pi_rho

    vel = velocity_field(point, tau, coeffs, spin=spin)
    p_phi_derived = -spin.s_z * (sn * drx + ct * drt / xi) / pi_rho

    return PrintedFormCheck(
        T_printed=T_printed,
        Tprime_printed=Tp_printed,
        D=D,
        chi_r=chi_r,
        chi_theta=chi_theta,
        p_r_printed=p_r_printed,
        p_theta_printed=p_theta_printed,
        p_phi_printed=p_phi_printed,
        radial_scaled=radial_scaled,
        polar_scaled=polar_scaled,
        p_phi_consistent=p_phi_consistent,
        p_phi_derived=p_phi_derived,
        rho=rho,
        velocity=vel,
    )
