"""Physical constants and fixed scale factors.

All dynamical code works in scaled variables (lengths in Bohr radii,
times in units of 1/omega0 where omega0 is the 1s-2p transition angular
frequency), so SI constants enter only when deriving drive rates from a
field amplitude and when reporting energies in eV.

The combination hbar/(m a^2 omega0) that converts phase gradients to
scaled velocities equals 8/3 exactly for a Coulomb level pair with
E2 = E1/4; the dynamics uses the exact rational value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError

TWO_PI = 2.0 * math.pi

# hbar/(m a^2 omega0), exact for E2 = E1/4.
VELOCITY_SCALE = 8.0 / 3.0

# Reference value for the transition angular frequency; derived values
# must stay within 0.1% of this.
OMEGA0_REFERENCE_PS = 1.549e16


def _ground_energy_eV(hbar_Js: float, mass_kg: float, a_m: float, eV_J: float) -> float:
    """Hydrogen 1s energy -hbar^2/(2 m a^2) expressed in eV."""
    return -hbar_Js * hbar_Js / (2.0 * mass_kg * a_m * a_m) / eV_J


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants (CODATA 2018) plus the derived level energies.

    Attributes
    ----------
    bohr_radius_m : float
        Bohr radius a in meters.
    electron_mass_kg : float
        Electron mass in kg.
    elementary_charge_C : float
        Elementary charge in C.
    hbar_Js : float
        Reduced Planck constant in J s.
    eV_J : float
        One electronvolt in J.
    E1_eV : float
        1s level energy in eV, derived from the fields above.
    """

    bohr_radius_m: float = 5.29177210903e-11
    electron_mass_kg: float = 9.1093837015e-31
    elementary_charge_C: float = 1.602176634e-19
    hbar_Js: float = 1.054571817e-34
    eV_J: float = 1.602176634e-19
    E1_eV: float = field(default=0.0)

    def __post_init__(self):
        if self.E1_eV == 0.0:
            e1 = _ground_energy_eV(
                self.hbar_Js, self.electron_mass_kg, self.bohr_radius_m, self.eV_J
            )
            object.__setattr__(self, "E1_eV", e1)
        if not self.E1_eV < 0.0:
            raise ParameterError("ground level energy must be negative")
        w0 = self.omega0_ps
        if abs(w0 / OMEGA0_REFERENCE_PS - 1.0) > 1e-3:
            raise ParameterError(
                "derived transition frequency %.6e 1/s deviates from the "
                "reference %.3e by more than 0.1%%" % (w0, OMEGA0_REFERENCE_PS)
            )

    @property
    def E2_eV(self) -> float:
        """n = 2 level energy in eV; E1/4 exactly."""
        return self.E1_eV / 4.0

    @property
    def omega0_ps(self) -> float:
        """Transition angular frequency (E2 - E1)/hbar in 1/s."""
        return -0.75 * self.E1_eV * self.eV_J / self.hbar_Js


CODATA = PhysicalConstants()
