"""Two-level amplitudes for the driven 1s-2p0 transition.

An oscillating classical field E(t) = E0 cos(omega t) z couples the
hydrogen 1s and 2p0 levels.  In the rotating-wave approximation the
amplitude pair (c_a, c_b) of

    psi = c_a(t) psi_100 + c_b(t) psi_210 exp(-i tau)

obeys

    dc_a/dtau = -(i/2) nu~ exp(-i Omega~ tau) c_b
    dc_b/dtau = -(i/2) nu~ exp(+i Omega~ tau) c_a

with nu = V12/hbar, detuning Omega = omega0 - omega, sigma^2 =
Omega^2 + nu^2, and tildes marking rates divided by omega0.  The closed
solution used everywhere is

    c_a(tau) = exp(-i Omega~ tau / 2) (cos(sigma~ tau / 2)
               + i (Omega/sigma) sin(sigma~ tau / 2))
    c_b(tau) = -i (nu/sigma) sin(sigma~ tau / 2) exp(+i Omega~ tau / 2)

which satisfies the system above to machine precision (the numeric
integrator in solve_coefficients_numeric provides an independent check).
The envelope functions T and T' are defined through

    (nu/2sigma) T(tau) = Im{c_a* c_b exp(-i tau)}
    T'(tau)            = Re{c_a* c_b exp(-i tau)}

and evaluate to

    T  = (Omega/sigma)(1 - cos sigma~tau) sin omega~tau
         - sin sigma~tau cos omega~tau
    T' = -(nu/2sigma) ((Omega/sigma)(1 - cos sigma~tau) cos omega~tau
         + sin sigma~tau sin omega~tau)

with omega~ = 1 - Omega~ the drive frequency in units of omega0.

V12, nu and omega0 derive from the CODATA constants; only nu and
omega0 can be replaced, by the explicit rates derive_drive accepts.

The guidance law and the energies read the amplitudes through four
terms, |c_a|^2, |c_b|^2 and the real and imaginary parts of
c_a* c_b exp(-i tau).  Each coefficient source gives them through its
cross_terms(xp), on floats or arrays; their closed form is written
once, in _closed_form_terms, and transition_probability, envelope_T
and envelope_Tprime read it.  coefficients, coefficient_arrays and
solve_coefficients_numeric stay complex-arithmetic routes, so the
checks that compare them with the closed form compare separate code.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (
    BOHR_RADIUS_M,
    ELEMENTARY_CHARGE_C,
    HBAR_JS,
    OMEGA0_PS,
    TWO_PI,
)
from .errors import ParameterError

# <100| x3 |210> in units of the Bohr radius: 2^7 sqrt(2) / 3^5.
DIPOLE_MATRIX_ELEMENT = 128.0 * math.sqrt(2.0) / 243.0

# Detuning guards (1/s): beyond the hard limit the rotating-wave picture
# is meaningless; past the soft limit it is doubtful, so warn.
DETUNING_HARD_LIMIT_PS = 1e14
DETUNING_SOFT_LIMIT_PS = 1e13


def reduce_angle(x):
    """Reduce a phase to [-pi, pi] before trig evaluation.

    Uses x - 2*pi*round(x/(2*pi)) with the same operation order for
    scalars and arrays, so the scalar and vector integration paths see
    bitwise-identical phases.
    """
    if isinstance(x, np.ndarray):
        return x - TWO_PI * np.round(x / TWO_PI)
    return x - TWO_PI * round(x / TWO_PI)


@dataclass(frozen=True)
class DriveParameters:
    """Field amplitude plus every rate derived from it.

    Rates carry a _ps suffix when expressed in 1/s and a _t suffix when
    divided by omega0 (the scaled units used by the dynamics).

    Attributes
    ----------
    E0_Vpm : float
        Field amplitude in V/m.
    Omega_ps : float
        Detuning omega0 - omega in 1/s.
    omega0_ps : float
        Transition angular frequency in 1/s.
    V12_J : float
        Interaction matrix element -(128 sqrt2 / 243) a q E0 in J.
    nu_ps : float
        Coupling rate in 1/s (V12/hbar, or the override when one is set).
    sigma_ps : float
        Generalized flopping rate sqrt(Omega^2 + nu^2) in 1/s.
    Omega_t, nu_t, sigma_t : float
        The same rates divided by omega0.
    nu_override_ps : float or None
        Explicit coupling rate that replaced V12/hbar, if any.
    """

    E0_Vpm: float
    Omega_ps: float
    omega0_ps: float
    V12_J: float
    nu_ps: float
    sigma_ps: float
    Omega_t: float
    nu_t: float
    sigma_t: float
    nu_override_ps: Optional[float] = None

    def __post_init__(self):
        expected = math.hypot(self.Omega_ps, self.nu_ps)
        if not math.isclose(self.sigma_ps, expected, rel_tol=1e-13, abs_tol=0.0):
            raise ParameterError(
                "sigma_ps must equal hypot(Omega_ps, nu_ps); got %r, expected %r"
                % (self.sigma_ps, expected)
            )

    @property
    def ratio_nu(self) -> float:
        """nu/sigma; the peak amplitude of c_b."""
        return self.nu_ps / self.sigma_ps

    @property
    def ratio_Omega(self) -> float:
        """Omega/sigma."""
        return self.Omega_ps / self.sigma_ps

    @property
    def omega_t(self) -> float:
        """Drive frequency omega/omega0 = 1 - Omega~."""
        return 1.0 - self.Omega_t

    @property
    def peak_transition_probability(self) -> float:
        """(nu/sigma)^2, the flopping maximum of |c_b|^2."""
        return self.ratio_nu * self.ratio_nu

    @property
    def flop_period_tau(self) -> float:
        """Scaled period 2 pi / sigma~ of the population flopping."""
        return TWO_PI / self.sigma_t

    @property
    def field_energy_eV(self) -> float:
        """e E0 a in eV; numerically E0 times the Bohr radius."""
        return self.E0_Vpm * BOHR_RADIUS_M


def derive_drive(
    E0_Vpm: float,
    Omega_ps: float,
    *,
    nu_override_ps: Optional[float] = None,
    omega0_ps: Optional[float] = None,
) -> DriveParameters:
    """Build DriveParameters from a field amplitude and a detuning.

    a, q and hbar are the CODATA values in constants, and so is omega0
    unless omega0_ps replaces it.

    Parameters
    ----------
    E0_Vpm : float
        Field amplitude in V/m; must be positive.
    Omega_ps : float
        Detuning omega0 - omega in 1/s; must be non-negative and below
        1e14 (warns above 1e13, where the two-level reduction is
        already strained).
    nu_override_ps : float, optional
        Replace the derived coupling rate V12/hbar with this value
        (must be negative, like the derived rate).
    omega0_ps : float, optional
        Replace the CODATA-derived transition frequency, e.g. to match
        a rounded printed value.
    """
    if not (math.isfinite(E0_Vpm) and E0_Vpm > 0.0):
        raise ParameterError(
            "field amplitude E0 must be positive and finite, got %r" % (E0_Vpm,)
        )
    if not Omega_ps >= 0.0:
        raise ParameterError("detuning Omega must be non-negative, got %r" % (Omega_ps,))
    if Omega_ps > DETUNING_HARD_LIMIT_PS:
        raise ParameterError(
            "detuning %.3e 1/s exceeds the hard limit %.0e 1/s"
            % (Omega_ps, DETUNING_HARD_LIMIT_PS)
        )
    if Omega_ps > DETUNING_SOFT_LIMIT_PS:
        warnings.warn(
            "detuning %.3e 1/s exceeds %.0e 1/s; the rotating-wave "
            "treatment is questionable this far off resonance"
            % (Omega_ps, DETUNING_SOFT_LIMIT_PS),
            stacklevel=2,
        )

    omega0 = OMEGA0_PS if omega0_ps is None else float(omega0_ps)
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise ParameterError("omega0 must be positive, got %r" % (omega0,))

    V12_J = (
        -DIPOLE_MATRIX_ELEMENT
        * BOHR_RADIUS_M
        * ELEMENTARY_CHARGE_C
        * E0_Vpm
    )
    if nu_override_ps is None:
        nu_ps = V12_J / HBAR_JS
    else:
        # The override is a signed rate; zero switches the coupling off
        # (c_b stays 0) and is legitimate for baseline runs.
        nu_ps = float(nu_override_ps)
        if not math.isfinite(nu_ps):
            raise ParameterError("nu_override must be finite, got %r" % (nu_ps,))
    sigma_ps = math.hypot(Omega_ps, nu_ps)
    if sigma_ps == 0.0:
        raise ParameterError(
            "drive has neither coupling nor detuning (nu = Omega = 0); "
            "sigma = 0 leaves the flopping phase undefined"
        )

    return DriveParameters(
        E0_Vpm=E0_Vpm,
        Omega_ps=Omega_ps,
        omega0_ps=omega0,
        V12_J=V12_J,
        nu_ps=nu_ps,
        sigma_ps=sigma_ps,
        Omega_t=Omega_ps / omega0,
        nu_t=nu_ps / omega0,
        sigma_t=sigma_ps / omega0,
        nu_override_ps=nu_override_ps,
    )


@dataclass(frozen=True)
class CoefficientState:
    """Amplitude pair at one scaled time."""

    c_a: complex
    c_b: complex
    tau: float

    @property
    def cb_sq(self) -> float:
        """Upper-level population |c_b|^2."""
        return self.c_b.real**2 + self.c_b.imag**2


def coefficients(tau: float, drive: DriveParameters) -> CoefficientState:
    """Closed-form amplitudes at scaled time tau."""
    half_s = 0.5 * drive.sigma_t * tau
    half_o = 0.5 * drive.Omega_t * tau
    sh = math.sin(half_s)
    ch = math.cos(half_s)
    slow = cmath.exp(-1j * half_o)
    c_a = slow * complex(ch, drive.ratio_Omega * sh)
    c_b = complex(0.0, -drive.ratio_nu * sh) * slow.conjugate()
    return CoefficientState(c_a=c_a, c_b=c_b, tau=float(tau))


def coefficient_arrays(tau, drive: DriveParameters):
    """Closed-form amplitudes on an array of scaled times.

    Returns (c_a, c_b) as complex arrays shaped like tau.
    """
    tau = np.asarray(tau, dtype=float)
    half_s = 0.5 * drive.sigma_t * tau
    sh = np.sin(half_s)
    ch = np.cos(half_s)
    slow = np.exp(-0.5j * drive.Omega_t * tau)
    c_a = slow * (ch + 1j * drive.ratio_Omega * sh)
    c_b = (-1j * drive.ratio_nu * sh) * np.conj(slow)
    return c_a, c_b


def _sincos(x, out=None):
    """(sin x, cos x) from one tangent, through numpy.

    With t = tan(x/2) and e = 2/(1 + t^2), sin x = t e and cos x = e - 1.
    This numpy runs float64 np.tan as a SIMD loop, at a quarter or less
    of the cost of its scalar-libm np.sin or np.cos per element.  sin
    stays within a few ulp relative, and both stay within a few ulp of 1
    absolute; cos near its zeros is accurate in that absolute sense
    only, as is any cos of a rounded angle.  NaN and +-inf give NaN, as
    np.sin does.  A Python float (the row rhs) gives numpy scalars,
    rounded as the same value in an array would be.

    out, a pair of float arrays shaped like x (the first may be x
    itself, which is then overwritten), takes the same operations in
    place and receives (sin x, cos x); None allocates.
    """
    if out is None:
        t = np.tan(0.5 * x)
        e = 2.0 / (1.0 + t * t)
        return t * e, e - 1.0
    t, e = out
    np.tan(np.multiply(0.5, x, out=t), out=t)
    np.divide(2.0, np.add(1.0, np.multiply(t, t, out=e), out=e), out=e)
    return np.multiply(t, e, out=t), np.subtract(e, 1.0, out=e)


def _closed_form_terms(xp, drive: DriveParameters, rn: float):
    """tau -> (ca2, cb2, tp, im) of the closed-form amplitudes.

    ca2 = |c_a|^2, cb2 = |c_b|^2 and tp + i im = c_a* c_b e^(-i tau),
    from two angles, the Rabi half angle and the reduced fast phase
    omega~ tau, with rn standing for nu/sigma.  xp is math for Python
    floats or numpy for arrays.  Floats take each angle's sine and
    cosine from math.sin and math.cos, which on one float cost less than
    any helper call would, and reduce with round; arrays take them from
    one _sincos call and reduce with np.rint (which rounds as np.round
    does at zero decimals but skips its Python-level wrapper).  Both
    round halves to even, so angles reduce alike.

    The array form takes an optional out, six float arrays shaped like
    tau (the first may be tau itself, which is then overwritten): the
    same operations then run in place, in the same order, and the terms
    come back in four of those arrays.  None allocates, as numpy
    operators do; a Python float tau (the row rhs) must take that way,
    since a ufunc call on a scalar costs several times an operator.
    """
    arrays = xp is np
    rint = np.rint if arrays else round
    rO, sigma_t, omega_t = drive.ratio_Omega, drive.sigma_t, drive.omega_t

    def cross_into(tau, out):
        b0, b1, b2, b3, b4, b5 = out
        half = np.multiply(0.5 * sigma_t, tau, out=b1)
        w = np.multiply(omega_t, tau, out=b0)
        turns = np.rint(np.divide(w, TWO_PI, out=b2), out=b2)
        w = np.subtract(w, np.multiply(TWO_PI, turns, out=b2), out=b0)
        sh, ch = _sincos(half, (b1, b2))
        sw, cw = _sincos(w, (b0, b3))
        q = np.multiply(rn, sh, out=b4)
        rs = np.multiply(rO, sh, out=b1)
        x = np.multiply(rs, cw, out=b5)
        y = np.multiply(rs, sw, out=b1)
        np.add(x, np.multiply(ch, sw, out=b0), out=x)
        np.subtract(y, np.multiply(ch, cw, out=b3), out=y)
        tp = np.multiply(np.negative(q, out=b0), x, out=b5)
        im = np.multiply(q, y, out=b1)
        cb2 = np.multiply(q, q, out=b4)
        return np.subtract(1.0, cb2, out=b0), cb2, tp, im

    def cross(tau, out=None):
        if out is not None:
            return cross_into(tau, out)
        half = 0.5 * sigma_t * tau
        w = omega_t * tau
        w = w - TWO_PI * rint(w / TWO_PI)
        if arrays:
            sh, ch = _sincos(half)
            sw, cw = _sincos(w)
        else:
            sh, ch = math.sin(half), math.cos(half)
            sw, cw = math.sin(w), math.cos(w)
        q = rn * sh
        cb2 = q * q
        tp = -q * (rO * sh * cw + ch * sw)
        im = q * (rO * sh * sw - ch * cw)
        return 1.0 - cb2, cb2, tp, im

    return cross


def _closed_form_at(tau, drive: DriveParameters, rn: float, part: int):
    """One of the closed-form (ca2, cb2, tp, im) at scalar or array tau."""
    out = _closed_form_terms(np, drive, rn)(np.asarray(tau, dtype=float))[part]
    return float(out) if np.ndim(out) == 0 else out


def transition_probability(tau, drive: DriveParameters):
    """|c_b|^2 = (nu/sigma)^2 sin^2(sigma~ tau / 2); scalar or array."""
    return _closed_form_at(tau, drive, drive.ratio_nu, 1)


def envelope_T(tau, drive: DriveParameters):
    """Slow/fast envelope T with (nu/2sigma) T = Im{c_a* c_b e^(-i tau)}.

    Twice the imaginary part of the closed form taken at nu/sigma = 1,
    so T stays defined when the coupling is switched off.
    """
    return 2.0 * _closed_form_at(tau, drive, 1.0, 3)


def envelope_Tprime(tau, drive: DriveParameters):
    """Envelope T' = Re{c_a* c_b e^(-i tau)}."""
    return _closed_form_at(tau, drive, drive.ratio_nu, 2)


def reversal_window(drive: DriveParameters, threshold: float = 0.02):
    """Scaled-time window around the first full population return.

    Returns (tau_lo, tau_hi) bracketing tau = 2 pi / sigma~ such that
    |c_b|^2 < threshold strictly inside the window.  Raises
    ParameterError when the flopping peak never reaches the threshold
    (the window would cover all times).
    """
    peak = drive.peak_transition_probability
    if not 0.0 < threshold < peak:
        raise ParameterError(
            "threshold %r must lie strictly between 0 and the flopping "
            "peak %r" % (threshold, peak)
        )
    # |c_b|^2 = peak sin^2(sigma~ tau/2) < threshold around sigma~ tau = 2 pi.
    delta = math.asin(math.sqrt(threshold / peak))
    period = drive.flop_period_tau
    half_width = delta * period / math.pi
    return period - half_width, period + half_width


def _complex_array(re, im):
    """complex(re, im) elementwise; re + 1j * im would turn -0.0 into 0.0."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _amplitude_rhs(drive: DriveParameters, xp=math):
    """(tau, c_a, c_b) -> (dc_a/dtau, dc_b/dtau) of the amplitude system.

    xp is math for Python complex numbers (the solve) or numpy for
    complex arrays (NumericSource's slopes).  Each real and imaginary
    part of a rate is one real expression in the parts of c_a and c_b,
    so the two forms round alike.
    """
    half_nu = 0.5 * drive.nu_t
    omt = drive.Omega_t
    cos, sin = xp.cos, xp.sin
    pack = complex if xp is math else _complex_array

    def rhs(tau, ca, cb):
        c = cos(omt * tau)
        s = sin(omt * tau)
        ar, ai, br, bi = ca.real, ca.imag, cb.real, cb.imag
        return (
            pack(half_nu * (c * bi - s * br), -half_nu * (c * br + s * bi)),
            pack(half_nu * (c * ai + s * ar), -half_nu * (c * ar - s * ai)),
        )

    return rhs


def solve_coefficients_numeric(
    tau_max: float,
    drive: DriveParameters,
    tol: float = 1e-10,
    stride: Optional[float] = None,
) -> list[CoefficientState]:
    """Integrate the amplitude system numerically; cross-check for the closed form.

    stepping.integrate_array advances (c_a, c_b) as two Python complex
    numbers through _amplitude_rhs, whose real and imaginary parts are
    the real form of the system written out part by part.

    Parameters
    ----------
    tau_max : float
        End of the integration span [0, tau_max]; must be finite and >= 0.
    drive : DriveParameters
        Rates for the system.
    tol : float
        Relative tolerance for the adaptive integrator, in (0, 1); the
        absolute tolerance is tol/100.
    stride : float, optional
        Sampling interval of the returned series; defaults to
        tau_max/1000.

    Returns
    -------
    list of CoefficientState sampled on the stride grid, starting at
    tau = 0 with (c_a, c_b) = (1, 0).
    """
    from .stepping import integrate_array

    if not (math.isfinite(tau_max) and tau_max >= 0.0):
        raise ParameterError("tau_max must be non-negative and finite, got %r" % (tau_max,))
    if not 0.0 < tol < 1.0:
        raise ParameterError("tol must lie in (0, 1), got %r" % (tol,))
    if tau_max == 0.0:
        return [CoefficientState(c_a=1.0 + 0.0j, c_b=0.0 + 0.0j, tau=0.0)]
    if stride is None:
        stride = tau_max / 1000.0
    if not 0.0 < stride <= tau_max:
        raise ParameterError("stride must lie in (0, tau_max], got %r" % (stride,))

    n_stops = int(round(tau_max / stride))
    stops = np.linspace(0.0, tau_max, n_stops + 1)
    if stops[-1] < tau_max:
        stops = np.append(stops, tau_max)

    series: list[CoefficientState] = []

    def observer(tau, c_a, c_b):
        series.append(CoefficientState(c_a=c_a, c_b=c_b, tau=float(tau)))

    integrate_array(
        _amplitude_rhs(drive),
        0.0,
        (1.0 + 0.0j, 0.0j),
        tau_max,
        rtol=tol,
        atol=tol / 100.0,
        stops=stops,
        observer=observer,
    )
    return series


# ---------------------------------------------------------------------------
# Coefficient sources
# ---------------------------------------------------------------------------


def _pair_terms(c_a: complex, c_b: complex):
    """(|c_a|^2, |c_b|^2, Re m, Im m) with m = c_a* c_b."""
    m = c_a.conjugate() * c_b
    return (
        c_a.real * c_a.real + c_a.imag * c_a.imag,
        c_b.real * c_b.real + c_b.imag * c_b.imag,
        m.real,
        m.imag,
    )


def _rotated(xp):
    """(ca2, cb2, mr, mi, tau) -> (ca2, cb2, tp, im) for m = c_a* c_b.

    tp + i im = m e^(-i tau) = (mr + i mi) e^(-i tau).  xp, the sines and
    cosines and the reduction are as in _closed_form_terms, with the
    reduced phase tau as the one angle; so is out, of which the array
    form uses the first four arrays.  ca2 and cb2 pass through as given.
    """
    arrays = xp is np
    rint = np.rint if arrays else round

    def rotated_into(ca2, cb2, mr, mi, tau, out):
        b0, b1, b2, b3 = out[:4]
        turns = np.rint(np.divide(tau, TWO_PI, out=b1), out=b1)
        w = np.subtract(tau, np.multiply(TWO_PI, turns, out=b1), out=b0)
        sw, cw = _sincos(w, (b0, b1))
        tp = np.add(np.multiply(mr, cw, out=b2), np.multiply(mi, sw, out=b3), out=b2)
        im = np.subtract(np.multiply(mi, cw, out=b1), np.multiply(mr, sw, out=b0), out=b1)
        return ca2, cb2, tp, im

    def rotated(ca2, cb2, mr, mi, tau, out=None):
        if out is not None:
            return rotated_into(ca2, cb2, mr, mi, tau, out)
        w = tau - TWO_PI * rint(tau / TWO_PI)
        if arrays:
            sw, cw = _sincos(w)
        else:
            sw, cw = math.sin(w), math.cos(w)
        # c_a* c_b e^(-i tau) = (mr + i mi)(cw - i sw)
        return ca2, cb2, mr * cw + mi * sw, mi * cw - mr * sw

    return rotated


class AnalyticSource:
    """Closed-form driven amplitudes; the default source.

    Driven: the semiclassical field is on.  cross_terms(xp) gives
    tau -> (ca2, cb2, tp, im), the amplitude terms of the guidance law:
    ca2 = |c_a|^2, cb2 = |c_b|^2 and tp + i im = c_a* c_b e^(-i tau).
    xp is math for Python floats or numpy for arrays; the array form
    also takes tau -> terms in six given work arrays (see
    _closed_form_terms).
    """

    is_driven = True

    def __init__(self, drive: DriveParameters):
        self.drive = drive

    @property
    def label(self) -> str:
        return "analytic"

    def eval(self, tau: float) -> CoefficientState:
        return coefficients(tau, self.drive)

    def cb_sq(self, tau):
        """|c_b|^2 at one time or an array of times."""
        return transition_probability(tau, self.drive)

    def cross_terms(self, xp):
        return _closed_form_terms(xp, self.drive, self.drive.ratio_nu)


class FrozenSource:
    """Constant amplitude pair; models an undriven superposition.

    The pair must be normalized: |c1|^2 + |c2|^2 = 1 within 1e-12.  Not
    driven (no field term in the local energy).  cross_terms(xp) gives
    the terms AnalyticSource's does, from the fixed pair turned by the
    fast phase, with the same optional work arrays (see _rotated); ca2
    and cb2 stay floats.
    """

    is_driven = False
    drive = None

    def __init__(self, c1: complex, c2: complex):
        c1 = complex(c1)
        c2 = complex(c2)
        norm = abs(c1) ** 2 + abs(c2) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ParameterError(
                "frozen amplitudes must satisfy |c1|^2 + |c2|^2 = 1; got %r"
                % (norm,)
            )
        self.c1 = c1
        self.c2 = c2

    @property
    def label(self) -> str:
        return "frozen(%r, %r)" % (self.c1, self.c2)

    def eval(self, tau: float) -> CoefficientState:
        return CoefficientState(c_a=self.c1, c_b=self.c2, tau=float(tau))

    def cross_terms(self, xp):
        rotated = _rotated(xp)
        terms = _pair_terms(self.c1, self.c2)
        return lambda tau, out=None: rotated(*terms, tau, out)


class NumericSource:
    """Amplitudes from the numeric ODE solve, Hermite-interpolated.

    Exists so trajectories can be driven by the independently
    integrated amplitudes instead of the closed form; the two agree to
    the solver tolerance.  The Hermite slopes at the solved points come
    from the solve's own rhs, _amplitude_rhs, run once on complex arrays
    of the whole series.  Driven.  cross_terms(xp) gives the terms
    AnalyticSource's does, from eval one time at a time; through numpy
    it maps that over an array of times, so batch propagation refuses
    this source.  The solve is sampled every tau_max/2000.
    """

    is_driven = True

    def __init__(self, drive: DriveParameters, tau_max: float, tol: float = 1e-10):
        if not (math.isfinite(tau_max) and tau_max > 0.0):
            raise ParameterError("tau_max must be positive and finite, got %r" % (tau_max,))
        self.drive = drive
        self.tau_max = float(tau_max)
        stride = tau_max / 2000.0
        series = solve_coefficients_numeric(tau_max, drive, tol=tol, stride=stride)
        self._tau = np.array([s.tau for s in series])
        c_a = np.array([s.c_a for s in series])
        c_b = np.array([s.c_b for s in series])
        f_a, f_b = _amplitude_rhs(drive, np)(self._tau, c_a, c_b)
        # Rows of (Re c_a, Im c_a, Re c_b, Im c_b) and of their rates.
        self._y = np.stack([c_a.real, c_a.imag, c_b.real, c_b.imag], axis=1)
        self._f = np.stack([f_a.real, f_a.imag, f_b.real, f_b.imag], axis=1)

    @property
    def label(self) -> str:
        return "numeric-ode"

    def eval(self, tau: float) -> CoefficientState:
        if not 0.0 <= tau <= self.tau_max * (1.0 + 1e-12):
            raise ParameterError(
                "tau=%r outside the solved span [0, %r]" % (tau, self.tau_max)
            )
        grid = self._tau
        i = int(np.searchsorted(grid, tau, side="right")) - 1
        i = max(0, min(i, len(grid) - 2))
        h = grid[i + 1] - grid[i]
        t = (tau - grid[i]) / h
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        y = (
            h00 * self._y[i]
            + h10 * h * self._f[i]
            + h01 * self._y[i + 1]
            + h11 * h * self._f[i + 1]
        )
        return CoefficientState(
            c_a=complex(y[0], y[1]), c_b=complex(y[2], y[3]), tau=float(tau)
        )

    def cross_terms(self, xp):
        rotated = _rotated(math)

        def cross(tau):
            state = self.eval(tau)
            return rotated(*_pair_terms(state.c_a, state.c_b), tau)

        if xp is np:
            return lambda tau: np.array([cross(t) for t in tau.tolist()]).T
        return cross
