"""Diagnostic observables along trajectories.

The local energy reported here is a bookkeeping quantity, not a
conserved one: it is the real part of the local eigenvalue mix

    h0(x, tau) = Re{psi~*(x) [E1 (c_a u1) + E2 (c_b u2 e^(-i tau))]} / rho

plus the instantaneous field term

    drive(x, tau) = -e E0 z cos(omega t) / 2
                  = -(1/2) (e E0 a) xi cos(theta) cos(omega~ tau)

in eV (the factor 1/2 is the rotating-wave half of the cosine drive
that acts on the transition).  h0 interpolates between E1 far out on
the 1s-dominated lobes and E2 where the 2p0 part dominates, and spikes
near nodes, where it is clipped to +-1000 eV and flagged.

The expectation value over the density follows in closed form,

    <E>(tau) = |c_a|^2 E1 + |c_b|^2 E2
               - (e E0 a) M12 cos(omega~ tau) T'(tau)

with M12 = 128 sqrt(2)/243 the dipole matrix element; the quadrature
route reference_energy integrates rho * E_local numerically and is used
to cross-check that form in the tests.

E1 and E2 are always the CODATA level energies.  The density floor is
wavefield.RHO_FLOOR, except in local_energy_array, which takes the
run's IntegratorConfig.rho_floor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import E1_EV as E1, E2_EV as E2
from .drive import (
    AnalyticSource,
    CoefficientState,
    DIPOLE_MATRIX_ELEMENT,
    DriveParameters,
    reduce_angle,
)
from .wavefield import N1, N2, RHO_FLOOR, SpatialPoint, sphere_rule

# Clip value for the local energy near density nodes, in eV.
ENERGY_CLIP_EV = 1000.0


@dataclass(frozen=True)
class LocalEnergy:
    """Local energy split into level and field parts, in eV.

    total_eV = h0_part_eV + drive_part_eV whenever clipped is False;
    when the density is below the floor, total_eV carries the clip
    sentinel +-1000 eV (sign of the h0 numerator) and clipped is True.
    """

    total_eV: float
    h0_part_eV: float
    drive_part_eV: float
    clipped: bool


def local_energy(
    point: SpatialPoint,
    tau: float,
    coeffs: CoefficientState,
    drive: Optional[DriveParameters] = None,
) -> LocalEnergy:
    """Local energy at one point; include the field term when drive is given.

    Pass drive=None for undriven (frozen) states: the atom then carries
    no field term and a pure eigenstate reports its level energy
    everywhere.  Below RHO_FLOOR the total is the clip sentinel.
    """
    xi, theta = point.xi, point.theta
    ct = math.cos(theta)
    u1 = N1 * math.exp(-xi)
    u2 = N2 * xi * math.exp(-0.5 * xi) * ct

    term_a = coeffs.c_a * u1
    term_b = coeffs.c_b * u2 * cmath.exp(-1j * reduce_angle(tau))
    psi = term_a + term_b
    rho = psi.real * psi.real + psi.imag * psi.imag
    target = E1 * term_a + E2 * term_b
    numerator = (psi.conjugate() * target).real

    if drive is not None:
        w = reduce_angle(drive.omega_t * tau)
        drive_part = -0.5 * drive.field_energy_eV * xi * ct * math.cos(w)
    else:
        drive_part = 0.0

    if rho < RHO_FLOOR:
        total = math.copysign(ENERGY_CLIP_EV, numerator)
        return LocalEnergy(
            total_eV=total,
            h0_part_eV=total,
            drive_part_eV=drive_part,
            clipped=True,
        )
    h0 = numerator / rho
    return LocalEnergy(
        total_eV=h0 + drive_part,
        h0_part_eV=h0,
        drive_part_eV=drive_part,
        clipped=False,
    )


def local_energy_array(
    xi,
    theta,
    tau,
    ca2,
    cb2,
    tp,
    drive: Optional[DriveParameters] = None,
    *,
    rho_floor: float = RHO_FLOOR,
):
    """Local energies at many points in the real envelope form.

    ca2 = |c_a|^2, cb2 = |c_b|^2 and tp = Re{c_a* c_b e^(-i tau)}, so

        rho = ca2 u1^2 + cb2 u2^2 + 2 tp u1 u2,
        h0 = (E1 ca2 u1^2 + E2 cb2 u2^2 + (E1 + E2) tp u1 u2) / rho.

    tau and the three amplitude terms are either scalars (one time for
    a whole cloud) or arrays (one time per point, along a trajectory).
    The field term is added when drive is given.  Returns (energy_eV,
    clipped): below rho_floor the energy is the clip sentinel, as in
    local_energy, and carries no field term.
    """
    ct = np.cos(theta)
    u1 = N1 * np.exp(-xi)
    u2 = N2 * xi * np.exp(-0.5 * xi) * ct
    rho = ca2 * u1 * u1 + cb2 * u2 * u2 + 2.0 * tp * u1 * u2
    num = E1 * ca2 * u1 * u1 + E2 * cb2 * u2 * u2 + (E1 + E2) * tp * u1 * u2
    clipped = rho < rho_floor
    h0 = np.where(
        clipped, np.copysign(ENERGY_CLIP_EV, num), num / np.where(clipped, 1.0, rho)
    )
    if drive is not None:
        w = reduce_angle(drive.omega_t * tau)
        cw = np.cos(w) if isinstance(w, np.ndarray) else math.cos(w)
        h0 = h0 + np.where(clipped, 0.0, -0.5 * drive.field_energy_eV * xi * ct * cw)
    return h0, clipped


def expected_energy(tau, drive: DriveParameters):
    """Closed-form <E>(tau) over the driven density; scalar or array."""
    tau = np.asarray(tau, dtype=float)
    ca2, cb2, tp, _ = AnalyticSource(drive).cross_terms(np)(tau)
    w = reduce_angle(drive.omega_t * tau)
    out = ca2 * E1 + cb2 * E2 - drive.field_energy_eV * DIPOLE_MATRIX_ELEMENT * np.cos(w) * tp
    return float(out) if np.ndim(out) == 0 else out


def reference_energy(tau: float, drive: DriveParameters) -> float:
    """<E>(tau) by Gauss-Legendre quadrature of rho * E_local on sphere_rule.

    Independent of expected_energy (no envelope shortcut for the
    integrals); agrees with it to quadrature accuracy.
    """
    from .drive import coefficients

    xg, mg, wx, wm = sphere_rule()
    coeffs = coefficients(tau, drive)
    u1 = N1 * np.exp(-xg)
    u2 = N2 * xg * np.exp(-0.5 * xg) * mg
    ca, cb = coeffs.c_a, coeffs.c_b
    phase = cmath.exp(-1j * reduce_angle(tau))
    term_a = ca * u1
    term_b = (cb * phase) * u2
    psi = term_a + term_b
    # rho * h0 = Re{psi* (E1 term_a + E2 term_b)}
    rho_h0 = (np.conj(psi) * (E1 * term_a + E2 * term_b)).real
    rho = np.abs(psi) ** 2
    w_ang = reduce_angle(drive.omega_t * tau)
    drive_field = -0.5 * drive.field_energy_eV * xg * mg * math.cos(w_ang)
    integrand = (rho_h0 + rho * drive_field) * xg * xg
    return float(2.0 * math.pi * np.einsum("i,j,ij->", wx, wm, integrand))

