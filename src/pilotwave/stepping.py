"""Adaptive Dormand-Prince 5(4) stepping.

One tableau, one trial step and one float PI controller:

* dp5_trial below, one trial step of a state with three slots: two
  that feed the rates and one carried along (for a trajectory, xi and
  theta feed dphi and phi is carried).  It is plain arithmetic on
  whatever it is given, so the scalar loop in engine.py runs it on
  Python floats, the batched ensemble loop in ensemble.py on numpy
  arrays with per-trajectory clocks and step sizes, and integrate_array
  below on one numpy state vector in the first slot with constant zeros
  in the other two.  Every loop reuses an accepted step's last stage as
  the next step's first (first-same-as-last).  The scalar loop samples
  between its steps with dp5_dense, which builds the step's continuous
  extension from the stages dp5_trial returns.
* next_step below, the PI step controller on Python floats, shared by
  the scalar loop and integrate_array.  The ensemble's sweep and row
  loop keep their own copy on np.power, which rounds differently from
  **: those two must stay bitwise equal to each other.
* integrate_array below, a generic driver for small numpy state vectors
  (used for the amplitude ODE) that lands on given stop times.

All drivers use the same embedded pair, the same RMS error norm with
scale atol + rtol*max(|y|, |y_new|), and the same PI step control
(growth factor safety * err^-0.14 * err_prev^0.08, clipped to
[0.2, 5], capped at 1 right after a rejection).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationError, ParameterError

# Dormand-Prince 5(4) coefficients.  The first-same-as-last property
# makes stage 7 of an accepted step reusable as stage 1 of the next.
C2 = 1.0 / 5.0
C3 = 3.0 / 10.0
C4 = 4.0 / 5.0
C5 = 8.0 / 9.0

A21 = 1.0 / 5.0
A31 = 3.0 / 40.0
A32 = 9.0 / 40.0
A41 = 44.0 / 45.0
A42 = -56.0 / 15.0
A43 = 32.0 / 9.0
A51 = 19372.0 / 6561.0
A52 = -25360.0 / 2187.0
A53 = 64448.0 / 6561.0
A54 = -212.0 / 729.0
A61 = 9017.0 / 3168.0
A62 = -355.0 / 33.0
A63 = 46732.0 / 5247.0
A64 = 49.0 / 176.0
A65 = -5103.0 / 18656.0

B1 = 35.0 / 384.0
B3 = 500.0 / 1113.0
B4 = 125.0 / 192.0
B5 = -2187.0 / 6784.0
B6 = 11.0 / 84.0

# Difference between the 5th- and 4th-order solutions.
E1 = 71.0 / 57600.0
E3 = -71.0 / 16695.0
E4 = 71.0 / 1920.0
E5 = -17253.0 / 339200.0
E6 = 22.0 / 525.0
E7 = -1.0 / 40.0

# Dense output: the step's quartic continuous extension (Dormand &
# Prince 1986; Hairer, Norsett & Wanner, Solving ODEs I, II.6), written
# in powers of x = (s - t) / h as
#     y(s) = y + h x (k1 + x (d2 + x (d3 + x d4))),
# where dj sums the stages with the weights Dij of stage i (stage 2 has
# weight zero).  These are the values of Hairer's DOPRI5.
D12 = -8048581381.0 / 2820520608.0
D13 = 8663915743.0 / 2820520608.0
D14 = -12715105075.0 / 11282082432.0
D32 = 131558114200.0 / 32700410799.0
D33 = -68118460800.0 / 10900136933.0
D34 = 87487479700.0 / 32700410799.0
D42 = -1754552775.0 / 470086768.0
D43 = 14199869525.0 / 1410260304.0
D44 = -10690763975.0 / 1880347072.0
D52 = 127303824393.0 / 49829197408.0
D53 = -318862633887.0 / 49829197408.0
D54 = 701980252875.0 / 199316789632.0
D62 = -282668133.0 / 205662961.0
D63 = 2019193451.0 / 616988883.0
D64 = -1453857185.0 / 822651844.0
D72 = 40617522.0 / 29380423.0
D73 = -110615467.0 / 29380423.0
D74 = 69997945.0 / 29380423.0

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
# PI controller exponents for a 5th-order error estimate.
PI_ALPHA = 0.7 / 5.0
PI_BETA = 0.4 / 5.0


def dp5_trial(rhs, t, h, xi, theta, phi, k1):
    """One Dormand-Prince 5(4) trial step of a trajectory.

    rhs(t, xi, theta) returns (dxi, dtheta, dphi) and possibly more,
    which rides along unused (the guidance rhs adds rho); phi does not
    feed back into the rates.  k1 is rhs at (t, xi, theta).  Every
    argument may be a Python float or an equal-length numpy array: the
    step is written once, in one operation order, for both.  A state
    with fewer parts passes constant zeros in the unused slots.

    Returns (xi_new, theta_new, phi_new, k7, e_xi, e_theta, e_phi,
    stages): the fifth-order state, rhs evaluated there (stage 1 of the
    next step under first-same-as-last), the embedded error of each
    component, and the stages (k1, k3, k4, k5, k6, k7) that dp5_dense
    needs.  The last two stages are evaluated at one shared time
    object, t + h.
    """
    k2 = rhs(t + C2 * h, xi + h * (A21 * k1[0]), theta + h * (A21 * k1[1]))
    k3 = rhs(
        t + C3 * h,
        xi + h * (A31 * k1[0] + A32 * k2[0]),
        theta + h * (A31 * k1[1] + A32 * k2[1]),
    )
    k4 = rhs(
        t + C4 * h,
        xi + h * (A41 * k1[0] + A42 * k2[0] + A43 * k3[0]),
        theta + h * (A41 * k1[1] + A42 * k2[1] + A43 * k3[1]),
    )
    k5 = rhs(
        t + C5 * h,
        xi + h * (A51 * k1[0] + A52 * k2[0] + A53 * k3[0] + A54 * k4[0]),
        theta + h * (A51 * k1[1] + A52 * k2[1] + A53 * k3[1] + A54 * k4[1]),
    )
    t_new = t + h
    k6 = rhs(
        t_new,
        xi + h * (A61 * k1[0] + A62 * k2[0] + A63 * k3[0] + A64 * k4[0] + A65 * k5[0]),
        theta
        + h * (A61 * k1[1] + A62 * k2[1] + A63 * k3[1] + A64 * k4[1] + A65 * k5[1]),
    )
    xi_new = xi + h * (B1 * k1[0] + B3 * k3[0] + B4 * k4[0] + B5 * k5[0] + B6 * k6[0])
    theta_new = theta + h * (
        B1 * k1[1] + B3 * k3[1] + B4 * k4[1] + B5 * k5[1] + B6 * k6[1]
    )
    phi_new = phi + h * (B1 * k1[2] + B3 * k3[2] + B4 * k4[2] + B5 * k5[2] + B6 * k6[2])
    k7 = rhs(t_new, xi_new, theta_new)
    e_xi = h * (
        E1 * k1[0] + E3 * k3[0] + E4 * k4[0] + E5 * k5[0] + E6 * k6[0] + E7 * k7[0]
    )
    e_theta = h * (
        E1 * k1[1] + E3 * k3[1] + E4 * k4[1] + E5 * k5[1] + E6 * k6[1] + E7 * k7[1]
    )
    e_phi = h * (
        E1 * k1[2] + E3 * k3[2] + E4 * k4[2] + E5 * k5[2] + E6 * k6[2] + E7 * k7[2]
    )
    return xi_new, theta_new, phi_new, k7, e_xi, e_theta, e_phi, (k1, k3, k4, k5, k6, k7)


def next_step(h, err, err_prev, just_rejected):
    """Next step size and controller memory after a trial of size h.

    err is the trial's error norm; the trial is accepted when err <= 1.
    An accepted step changes by the PI factor, capped at 1 right after a
    rejection, and its error (floored at 1e-4) becomes the new err_prev.
    A rejected step shrinks by the I factor alone, or halves when err is
    not finite, and err_prev is kept.
    """
    if not err < math.inf:
        return 0.5 * h, err_prev
    if err > 1.0:
        return h * max(MIN_FACTOR, SAFETY * err ** (-PI_ALPHA)), err_prev
    if err == 0.0:
        factor = MAX_FACTOR
    else:
        factor = SAFETY * err ** (-PI_ALPHA) * err_prev**PI_BETA
        factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
    if just_rejected:
        factor = min(1.0, factor)
    return h * factor, max(err, 1e-4)


def dp5_dense(h, state, stages):
    """Coefficients of an accepted step's continuous extension.

    state is the step's starting (xi, theta, phi) and stages the last
    element of its dp5_trial result.  Returns, per component, the
    polynomial (y, p1, p2, p3, p4) for dense_state; it is fourth-order
    accurate in between and meets the fifth-order state at x = 1 to
    rounding.
    """
    k1, k3, k4, k5, k6, k7 = stages
    polys = []
    for c, y in enumerate(state):
        a1, a3, a4, a5, a6, a7 = k1[c], k3[c], k4[c], k5[c], k6[c], k7[c]
        polys.append(
            (
                y,
                h * a1,
                h * (D12 * a1 + D32 * a3 + D42 * a4 + D52 * a5 + D62 * a6 + D72 * a7),
                h * (D13 * a1 + D33 * a3 + D43 * a4 + D53 * a5 + D63 * a6 + D73 * a7),
                h * (D14 * a1 + D34 * a3 + D44 * a4 + D54 * a5 + D64 * a6 + D74 * a7),
            )
        )
    return polys


def dense_state(polys, x):
    """The state at t + x h, 0 <= x <= 1, from dp5_dense's polynomials."""
    return tuple(y + x * (p1 + x * (p2 + x * (p3 + x * p4))) for y, p1, p2, p3, p4 in polys)


def initial_step(f, t0, y0, k1, t_end, rtol, atol, max_step):
    """Starting step size from the standard two-evaluation heuristic."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((k1 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t0), max_step)
    y1 = y0 + h0 * k1
    k2 = np.asarray(f(t0 + h0, y1))
    d2 = float(np.sqrt(np.mean(((k2 - k1) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, abs(t_end - t0), max_step)


def integrate_array(
    f: Callable,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
    min_step: float = 1e-12,
    stops: Optional[Sequence[float]] = None,
    observer: Optional[Callable] = None,
) -> tuple[float, np.ndarray, int, int]:
    """Advance y' = f(t, y) from t0 to t_end for a numpy state vector.

    The integrator lands exactly on every value in stops (which must be
    sorted, within [t0, t_end]) and calls observer(t, y) there, as well
    as at t0 if stops starts there.  Returns (t, y, accepted, rejected).
    Each trial is dp5_trial with y in its first slot.
    """
    if t_end < t0:
        raise ParameterError("integrate_array requires t_end >= t0")
    t = float(t0)
    y = np.array(y0, dtype=float)

    stop_list = [] if stops is None else [float(s) for s in stops]
    for s in stop_list:
        if s < t0 or s > t_end:
            raise ParameterError("stop %r outside [%r, %r]" % (s, t0, t_end))
    stop_idx = 0
    if observer is not None and stop_list and stop_list[0] == t:
        observer(t, y)
        stop_idx = 1
    if t_end == t0:
        return t, y, 0, 0

    def g(s, v, _):
        return np.asarray(f(s, v)), 0.0, 0.0

    k1 = g(t, y, 0.0)
    h = initial_step(f, t, y, k1[0], t_end, rtol, atol, max_step)
    err_prev = 1.0
    just_rejected = False
    n_acc = 0
    n_rej = 0

    while t < t_end:
        target = stop_list[stop_idx] if stop_idx < len(stop_list) else t_end
        if target <= t:
            stop_idx += 1
            continue
        h_try = min(h, max_step)
        hits_target = h_try >= target - t
        if hits_target:
            h_try = target - t
        # Written so that a NaN step (a zero error scale) raises too.
        if not h_try >= min_step:
            raise IntegrationError(
                "step size underflow at t=%r" % (t,), tau=t, state=tuple(y)
            )

        y_new, _, _, k7, err_vec = dp5_trial(g, t, h_try, y, 0.0, 0.0, k1)[:5]
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        # np.mean's own sum and division, without its per-call overhead.
        q = err_vec / scale
        err = math.sqrt(float(np.add.reduce(q * q)) / q.size)
        h, err_prev = next_step(h_try, err, err_prev, just_rejected)
        just_rejected = not err <= 1.0
        if just_rejected:
            n_rej += 1
            continue
        t = target if hits_target else t + h_try
        y = y_new
        k1 = k7
        n_acc += 1
        if stop_idx < len(stop_list) and t >= stop_list[stop_idx]:
            if observer is not None:
                observer(t, y)
            stop_idx += 1

    return t, y, n_acc, n_rej
