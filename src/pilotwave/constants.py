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

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * math.pi


def operand(value):
    """value as a read-only float64 0-d array, to pass to ufunc calls.

    This numpy takes such an operand about 0.2 us faster per call than a
    Python float, which it converts on every call; the value, and so
    every result, is the same to the bit.  The batch sweep's work-array
    paths make about 160 calls with a constant operand per sweep, and
    build theirs once, through this.  Read-only, so that no out= can
    overwrite it.
    """
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


# hbar/(m a^2 omega0), exact for E2 = E1/4.
VELOCITY_SCALE = 8.0 / 3.0

# SI constants, CODATA 2018.
BOHR_RADIUS_M = 5.29177210903e-11
ELECTRON_MASS_KG = 9.1093837015e-31
ELEMENTARY_CHARGE_C = 1.602176634e-19
HBAR_JS = 1.054571817e-34
EV_J = 1.602176634e-19

# Level energies in eV: 1s from -hbar^2/(2 m a^2), n = 2 at E1/4 exactly.
E1_EV = -HBAR_JS * HBAR_JS / (2.0 * ELECTRON_MASS_KG * BOHR_RADIUS_M * BOHR_RADIUS_M) / EV_J
E2_EV = E1_EV / 4.0

# Transition angular frequency (E2 - E1)/hbar in 1/s.
OMEGA0_PS = -0.75 * E1_EV * EV_J / HBAR_JS

# Reference value for the transition angular frequency; the derived
# value must stay within 0.1% of it.
OMEGA0_REFERENCE_PS = 1.549e16
if abs(OMEGA0_PS / OMEGA0_REFERENCE_PS - 1.0) > 1e-3:
    raise ParameterError(
        "derived transition frequency %.6e 1/s deviates from the "
        "reference %.3e by more than 0.1%%" % (OMEGA0_PS, OMEGA0_REFERENCE_PS)
    )
