"""Superposed 1s / 2p0 wave amplitude and its spatial derivatives.

Everything here works on the scaled wave function

    psi~(xi, theta, tau) = c_a u1(xi) + c_b u2(xi, theta) exp(-i tau)

with u1 = N1 exp(-xi), u2 = N2 xi exp(-xi/2) cos(theta),
N1 = 1/sqrt(pi), N2 = 1/sqrt(32 pi).  Lengths are in Bohr radii
(xi = r/a), so |psi~|^2 integrates to 1 with the measure
xi^2 sin(theta) dxi dtheta dphi.  The amplitudes come from a
drive.CoefficientState; the phase exp(-i tau) between the two levels is
applied here, so the same code serves the driven state and frozen
superpositions alike.

Derivative components are reported raw: d_theta means the plain
partial derivative with respect to theta, not the physical
(1/xi) d/d(theta) component.  Consumers that need physical components
divide by xi themselves.

The gradients and the quantum potential refuse points below the one
density floor RHO_FLOOR, and normalization_quadrature integrates on the
one whole-space rule, sphere_rule; neither can be set per call.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import E1_EV, TWO_PI
from .drive import CoefficientState, reduce_angle
from .errors import NodeProximityError, ParameterError

N1 = 1.0 / math.sqrt(math.pi)
N2 = 1.0 / math.sqrt(32.0 * math.pi)
# Ratio of the two normalizing factors, N1/N2 = 4 sqrt(2).
BETA = 4.0 * math.sqrt(2.0)

# Density floor below which phase gradients are not returned.
RHO_FLOOR = 1e-12

# Whole-space quadrature (sphere_rule): Gauss-Legendre degrees in xi
# and in mu = cos(theta), and the radial cutoff.
SPHERE_N_XI = 160
SPHERE_N_MU = 80
SPHERE_XI_MAX = 40.0


@dataclass(frozen=True)
class SpatialPoint:
    """Position in scaled spherical coordinates.

    xi = r/a must be positive and theta must lie strictly inside
    (0, pi); the polar axis is excluded because the azimuthal velocity
    carries a 1/sin(theta) factor.
    """

    xi: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.xi > 0.0:
            raise ParameterError("xi must be positive, got %r" % (self.xi,))
        if not 0.0 < self.theta < math.pi:
            raise ParameterError(
                "theta must lie strictly inside (0, pi), got %r" % (self.theta,)
            )


@dataclass(frozen=True)
class WaveAmplitude:
    """psi~ and its raw spatial derivatives at one point and time.

    rho is |psi|^2; d_xi and d_theta are the complex partial
    derivatives of psi~ with respect to xi and theta.
    """

    psi: complex
    d_xi: complex
    d_theta: complex
    rho: float


def _parts(xi: float, theta: float):
    """Radial/angular building blocks shared by all evaluators."""
    ex1 = math.exp(-xi)
    exh = math.exp(-0.5 * xi)
    ct = math.cos(theta)
    st = math.sin(theta)
    u1 = N1 * ex1
    b = N2 * xi * exh
    u2 = b * ct
    u2_xi = N2 * (1.0 - 0.5 * xi) * exh * ct
    u2_theta = -b * st
    return u1, u2, u2_xi, u2_theta


def eval_wave(point: SpatialPoint, tau: float, coeffs: CoefficientState) -> WaveAmplitude:
    """Evaluate psi~ and its raw gradient components."""
    u1, u2, u2_xi, u2_theta = _parts(point.xi, point.theta)
    phase = cmath.exp(-1j * reduce_angle(tau))
    cb_ph = coeffs.c_b * phase
    psi = coeffs.c_a * u1 + cb_ph * u2
    d_xi = -coeffs.c_a * u1 + cb_ph * u2_xi
    d_theta = cb_ph * u2_theta
    rho = psi.real * psi.real + psi.imag * psi.imag
    return WaveAmplitude(psi=psi, d_xi=d_xi, d_theta=d_theta, rho=rho)


def density(xi, theta, tau, coeffs: CoefficientState):
    """|psi~|^2 on scalar or array xi/theta (tau scalar).

    Used by quadratures and histogram references; does no floor or
    domain checks beyond what the arithmetic implies.
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u1 = N1 * np.exp(-xi)
    u2 = N2 * xi * np.exp(-0.5 * xi) * np.cos(theta)
    ca2 = coeffs.c_a.real**2 + coeffs.c_a.imag**2
    cb2 = coeffs.cb_sq
    cross = coeffs.c_a.conjugate() * coeffs.c_b * cmath.exp(-1j * reduce_angle(tau))
    out = ca2 * u1 * u1 + cb2 * u2 * u2 + 2.0 * cross.real * u1 * u2
    return float(out) if out.ndim == 0 else out


def grad_S(
    point: SpatialPoint, tau: float, coeffs: CoefficientState
) -> tuple[float, float]:
    """Raw phase-gradient components (dS/dxi, dS/dtheta).

    Computed as Im{(d psi) psi*} / rho, which is well defined wherever
    rho >= RHO_FLOOR; raises NodeProximityError below the floor.
    """
    w = eval_wave(point, tau, coeffs)
    if w.rho < RHO_FLOOR:
        raise NodeProximityError(
            "density %.3e below floor %.3e at xi=%r theta=%r"
            % (w.rho, RHO_FLOOR, point.xi, point.theta)
        )
    pc = w.psi.conjugate()
    return (
        (w.d_xi * pc).imag / w.rho,
        (w.d_theta * pc).imag / w.rho,
    )


def grad_log_rho(
    point: SpatialPoint, tau: float, coeffs: CoefficientState
) -> tuple[float, float]:
    """Raw components (d log rho/dxi, d log rho/dtheta).

    Computed as 2 Re{(d psi) psi*} / rho; raises NodeProximityError
    below the density floor.
    """
    w = eval_wave(point, tau, coeffs)
    if w.rho < RHO_FLOOR:
        raise NodeProximityError(
            "density %.3e below floor %.3e at xi=%r theta=%r"
            % (w.rho, RHO_FLOOR, point.xi, point.theta)
        )
    pc = w.psi.conjugate()
    return (
        2.0 * (w.d_xi * pc).real / w.rho,
        2.0 * (w.d_theta * pc).real / w.rho,
    )


def quantum_potential(
    point: SpatialPoint,
    tau: float,
    coeffs: CoefficientState,
    *,
    step: float = 2.5e-4,
) -> float:
    """Quantum potential -hbar^2/(2m) (Laplacian sqrt(rho))/sqrt(rho) in eV.

    The Laplacian of R = sqrt(rho) is taken by central finite
    differences in xi and theta (the state is axisymmetric, so no phi
    term), using the full spherical form

        lap R = R_xixi + (2/xi) R_xi + (R_thth + cot(theta) R_th)/xi^2.

    In scaled units -hbar^2/(2 m a^2) is the 1s energy, so the result
    is E1 * lap(R)/R with the CODATA E1.  Warns when xi < 2*step, where
    the radial stencil degenerates against the origin.
    """
    xi, th = point.xi, point.theta
    h = step
    if xi < 2.0 * h:
        warnings.warn(
            "xi=%r is within two stencil steps of the origin; the "
            "finite-difference Laplacian degrades there" % (xi,),
            stacklevel=2,
        )

    def R(x, t):
        r = density(x, t, tau, coeffs)
        return math.sqrt(r)

    r0 = R(xi, th)
    if r0 * r0 < RHO_FLOOR:
        raise NodeProximityError(
            "density %.3e below floor %.3e; quantum potential undefined"
            % (r0 * r0, RHO_FLOOR)
        )
    rxp = R(xi + h, th)
    rxm = R(xi - h, th)
    rtp = R(xi, th + h)
    rtm = R(xi, th - h)
    d2x = (rxp - 2.0 * r0 + rxm) / (h * h)
    d1x = (rxp - rxm) / (2.0 * h)
    d2t = (rtp - 2.0 * r0 + rtm) / (h * h)
    d1t = (rtp - rtm) / (2.0 * h)
    lap = d2x + 2.0 * d1x / xi + (d2t + d1t / math.tan(th)) / (xi * xi)
    return E1_EV * lap / r0


def check_count(name: str, n) -> None:
    """Raise ParameterError unless n is a positive int (bool excluded)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("%s must be a positive int, got %r" % (name, n))


@functools.lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights of degree n on (-1, 1), read-only.

    numpy's leggauss solves an eigenproblem on every call; here each
    degree is solved once per process, on first use.  typed=True keeps
    True and 1.0 from reaching a cached degree 1 past the check.
    """
    check_count("quadrature degree", n)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def sphere_rule():
    """Product rule over xi in (0, SPHERE_XI_MAX) and mu = cos(theta) in (-1, 1).

    Degree SPHERE_N_XI in xi and SPHERE_N_MU in mu.  Returns (xg, mg,
    wx, wm): the xi nodes as a column, the mu nodes as a row, and the
    weights of each, for integrands on the xg x mg grid.
    """
    nodes_x, weights_x = gauss_legendre(SPHERE_N_XI)
    nodes_m, weights_m = gauss_legendre(SPHERE_N_MU)
    xi = 0.5 * SPHERE_XI_MAX * (nodes_x + 1.0)
    wx = 0.5 * SPHERE_XI_MAX * weights_x
    return xi[:, None], nodes_m[None, :], wx, weights_m


def normalization_quadrature(tau: float, coeffs: CoefficientState) -> float:
    """Integral of rho over all space by Gauss-Legendre quadrature.

    Integrates rho xi^2 on sphere_rule, times 2 pi for phi.  Equals 1
    to quadrature accuracy for a normalized amplitude pair.
    """
    xg, mg, wx, wm = sphere_rule()
    rho = density(xg, np.arccos(mg), tau, coeffs)
    inner = rho * xg * xg
    return float(TWO_PI * np.einsum("i,j,ij->", wx, wm, inner))
