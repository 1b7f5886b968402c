"""Adaptive Dormand-Prince 5(4) stepping.

One tableau, one trial step and one float PI controller:

* dp5_trial below, one trial step of a state with three slots: two
  that feed the rates and one carried along (for a scalar trajectory,
  xi and theta feed dphi and phi is carried).  It is plain arithmetic
  on whatever it is given, so the scalar loop in engine.py runs it on
  Python floats, the batched ensemble loop in ensemble.py on numpy
  arrays of (xi, theta) with per-trajectory clocks and step sizes and
  0.0 in the carried slot (the ensemble does not propagate phi), and
  integrate_array below on a pair of Python complex numbers in the two
  rate-feeding slots with 0.0 in the carried one.  The rhs's first
  argument is each stage's time, except in the ensemble's sweep, which
  passes stage arguments instead: the amplitude terms at the five
  stage times, computed in one pass (see dp5_trial).  The sweep also
  hands dp5_trial work arrays, which it then writes into instead of
  allocating, with the same arithmetic to the bit.  Every loop reuses
  an accepted step's last stage as the next step's first
  (first-same-as-last).  The scalar loop samples between its steps
  with dp5_dense, which builds the step's continuous extension from
  the stages dp5_trial returns.
* next_step below, the PI step controller on Python floats, shared by
  the scalar loop and integrate_array.  The ensemble's sweep and row
  loop keep their own copy on np.power, which rounds differently from
  **: those two must stay bitwise equal to each other.
* integrate_array below, a driver for a pair of complex amplitudes
  (the amplitude ODE) that lands on given stop times.

All drivers use the same embedded pair, the same RMS error norm (over
the real parts they propagate: xi, theta and phi in the scalar loop,
xi and theta in the ensemble, the real and imaginary parts of the pair
in integrate_array) with scale atol + rtol*max(|y|, |y_new|), and the
same PI step control (growth factor safety * err^-0.14 *
err_prev^0.08, clipped to [0.2, 5], capped at 1 right after a
rejection).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import operand
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


# The stage times of a trial are t + c h for c in STAGE_C: stages 2 to
# 6 in order, and stage 7 at stage 6's time.
STAGE_C = (C2, C3, C4, C5, 1.0)


def dp5_trial(rhs, t, h, xi, theta, phi, k1, stage_args=None, work=None):
    """One Dormand-Prince 5(4) trial step of a trajectory.

    rhs(t, xi, theta) returns (dxi, dtheta, dphi) and possibly more,
    which rides along unused (the guidance rhs adds rho); phi does not
    feed back into the rates.  k1 is rhs at (t, xi, theta).  Every
    argument may be a Python float or an equal-length numpy array: the
    step is written once, in one operation order, for both.  A state
    with fewer parts passes constant zeros in the unused slots.

    stage_args, if given, replaces the stage times as rhs's first
    argument: five values, one per time t + c h for c in STAGE_C, of
    which stages 6 and 7 both take the last.  The batch sweep passes
    the amplitude terms at those times, computed in one pass over all
    five (dynamics.make_batch_stages); its rhs reads them in place of
    the times.  None passes the times themselves, as the scalar loop
    and integrate_array do.

    Returns (xi_new, theta_new, phi_new, k7, e_xi, e_theta, e_phi,
    stages): the fifth-order state, rhs evaluated there (stage 1 of the
    next step under first-same-as-last), the embedded error of each
    component, and the stages (k1, k3, k4, k5, k6, k7) that dp5_dense
    needs.  The last two stages are evaluated at one shared time
    object, t + h (or the last of stage_args).

    work, eight float arrays at least as long as the rows, makes the
    step write into their first len(xi) entries (see _dp5_trial_into):
    the arrays path of the batch sweep, which owns them and passes
    stage_args, and phi and the carried rates as 0.0, which it does not
    compute.  None runs the operator body below, on floats, complex
    numbers or arrays.
    """
    if work is not None:
        return _dp5_trial_into(rhs, h, xi, theta, k1, stage_args, work)
    if stage_args is None:
        s2, s3, s4, s5, s6 = t + C2 * h, t + C3 * h, t + C4 * h, t + C5 * h, t + h
    else:
        s2, s3, s4, s5, s6 = stage_args
    k2 = rhs(s2, xi + h * (A21 * k1[0]), theta + h * (A21 * k1[1]))
    k3 = rhs(
        s3,
        xi + h * (A31 * k1[0] + A32 * k2[0]),
        theta + h * (A31 * k1[1] + A32 * k2[1]),
    )
    k4 = rhs(
        s4,
        xi + h * (A41 * k1[0] + A42 * k2[0] + A43 * k3[0]),
        theta + h * (A41 * k1[1] + A42 * k2[1] + A43 * k3[1]),
    )
    k5 = rhs(
        s5,
        xi + h * (A51 * k1[0] + A52 * k2[0] + A53 * k3[0] + A54 * k4[0]),
        theta + h * (A51 * k1[1] + A52 * k2[1] + A53 * k3[1] + A54 * k4[1]),
    )
    k6 = rhs(
        s6,
        xi + h * (A61 * k1[0] + A62 * k2[0] + A63 * k3[0] + A64 * k4[0] + A65 * k5[0]),
        theta
        + h * (A61 * k1[1] + A62 * k2[1] + A63 * k3[1] + A64 * k4[1] + A65 * k5[1]),
    )
    xi_new = xi + h * (B1 * k1[0] + B3 * k3[0] + B4 * k4[0] + B5 * k5[0] + B6 * k6[0])
    theta_new = theta + h * (
        B1 * k1[1] + B3 * k3[1] + B4 * k4[1] + B5 * k5[1] + B6 * k6[1]
    )
    phi_new = phi + h * (B1 * k1[2] + B3 * k3[2] + B4 * k4[2] + B5 * k5[2] + B6 * k6[2])
    k7 = rhs(s6, xi_new, theta_new)
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


# The tableau's rows, as _dp5_trial_into sums them: stages 2 to 6, the
# fifth-order solution and the error (over k1, k3, ..., k7), as ufunc
# operands.
_A_ROWS = tuple(
    tuple(map(operand, row))
    for row in (
        (A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54), (A61, A62, A63, A64, A65)
    )
)
_B_ROW = tuple(map(operand, (B1, B3, B4, B5, B6)))
_E_ROW = tuple(map(operand, (E1, E3, E4, E5, E6, E7)))


def _dp5_trial_into(rhs, h, xi, theta, k1, stage_args, work):
    """dp5_trial on arrays, writing every array it makes into work.

    Each sum is the operator body's, term by term and left to right,
    as ufunc calls with out=, so every value is the same to the bit.
    work holds, in order, the stage state (two arrays, overwritten by
    each stage), the new state, the errors and two scratch arrays; the
    xi_new, theta_new, e_xi and e_theta returned are views of them,
    which the next trial on the same work overwrites.  Each stage
    overwrites the stage state, so the rates rhs returns must not be
    views of its state arguments.

    stage_args are required here, and may hold six entries instead of
    five, one per rhs call, so that stages 6 and 7, which share a time,
    can carry different arguments: the batch sweep gives each call its
    own output slot for the rates (see dynamics._numpy_rates).  The
    carried slot is not computed: the batch sweep, the one caller,
    passes phi = 0.0 and rates with 0.0 there, and phi_new and e_phi
    come back as 0.0.
    """
    m = len(xi)
    ys0, ys1, xi_new, theta_new, e_xi, e_theta, acc, tmp = [w[:m] for w in work]
    s2, s3, s4, s5, s6, *s7 = stage_args
    s7 = s7[0] if s7 else s6

    # Local names: a trial makes about 140 of these calls.
    multiply, add = np.multiply, np.add

    def combine(out, y, weights, ks, c):
        # y + h * (w1 k1[c] + w2 k2[c] + ...), or h * (...) when y is None.
        multiply(weights[0], ks[0][c], out=acc)
        for i in range(1, len(weights)):
            add(acc, multiply(weights[i], ks[i][c], out=tmp), out=acc)
        if y is None:
            return multiply(h, acc, out=out)
        return add(y, multiply(h, acc, out=acc), out=out)

    ks = [k1]
    for s, weights in zip((s2, s3, s4, s5, s6), _A_ROWS):
        combine(ys0, xi, weights, ks, 0)
        combine(ys1, theta, weights, ks, 1)
        ks.append(rhs(s, ys0, ys1))
    k1, k2, k3, k4, k5, k6 = ks
    high = (k1, k3, k4, k5, k6)
    combine(xi_new, xi, _B_ROW, high, 0)
    combine(theta_new, theta, _B_ROW, high, 1)
    k7 = rhs(s7, xi_new, theta_new)
    stages = (k1, k3, k4, k5, k6, k7)
    combine(e_xi, None, _E_ROW, stages, 0)
    combine(e_theta, None, _E_ROW, stages, 1)
    return xi_new, theta_new, 0.0, k7, e_xi, e_theta, 0.0, stages


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


def _parts(a, b):
    """The four real parts (Re a, Im a, Re b, Im b) of a complex pair."""
    return a.real, a.imag, b.real, b.imag


def _rms(num, den):
    """Root mean square of num[i] / den[i] over four real parts.

    The squares are summed left to right, as numpy's add.reduce sums
    four elements.  A zero in den gives NaN, as numpy's 0/0 did; a NaN
    error makes the step NaN or halves it until the underflow guard of
    integrate_array raises.
    """
    try:
        q0, q1, q2, q3 = [n / d for n, d in zip(num, den)]
    except ZeroDivisionError:
        return math.nan
    return math.sqrt((((q0 * q0 + q1 * q1) + q2 * q2) + q3 * q3) / 4)


def initial_step(f, t0, y0, k1, t_end, rtol, atol):
    """Starting step size from the standard two-evaluation heuristic.

    y0 and k1 are the complex pair and its rates, f as in integrate_array.
    """
    a, b = y0
    ka, kb = k1
    scale = [atol + rtol * abs(u) for u in _parts(a, b)]
    d0 = _rms(_parts(a, b), scale)
    d1 = _rms(_parts(ka, kb), scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t0))
    ka2, kb2 = f(t0 + h0, a + h0 * ka, b + h0 * kb)
    d2 = _rms(_parts(ka2 - ka, kb2 - kb), scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, abs(t_end - t0))


def integrate_array(
    f: Callable,
    t0: float,
    y0: tuple[complex, complex],
    t_end: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    stops: Optional[Sequence[float]] = None,
    observer: Optional[Callable] = None,
) -> tuple[float, tuple[complex, complex], int, int]:
    """Advance a complex pair (a, b) with (a', b') = f(t, a, b) from t0 to t_end.

    Each trial is dp5_trial on Python complex numbers, with a and b in
    the two slots that feed the rates and 0.0 in the carried one.  The
    error norm is the RMS over the four real parts.  The integrator
    lands exactly on every value in stops (strictly increasing, within
    [t0, t_end]) and calls observer(t, a, b) there, as well as at t0 if
    stops starts there.  t0 and t_end must be finite.  The step size
    has no cap; a step below 1e-12 raises IntegrationError.  Returns
    (t, (a, b), accepted, rejected).
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ParameterError("integrate_array requires finite t0 and t_end")
    if t_end < t0:
        raise ParameterError("integrate_array requires t_end >= t0")
    t = float(t0)
    a, b = y0

    stop_list = [] if stops is None else [float(s) for s in stops]
    for s in stop_list:
        if not t0 <= s <= t_end:
            raise ParameterError("stop %r outside [%r, %r]" % (s, t0, t_end))
    for s, s_next in zip(stop_list, stop_list[1:]):
        if not s < s_next:
            raise ParameterError("stops must increase strictly, got %r then %r" % (s, s_next))
    stop_idx = 0
    if observer is not None and stop_list and stop_list[0] == t:
        observer(t, a, b)
        stop_idx = 1
    if t_end == t0:
        return t, (a, b), 0, 0

    def g(s, u, v):
        du, dv = f(s, u, v)
        return du, dv, 0.0

    k1 = g(t, a, b)
    h = initial_step(f, t, (a, b), k1[:2], t_end, rtol, atol)
    err_prev = 1.0
    just_rejected = False
    n_acc = 0
    n_rej = 0

    while t < t_end:
        target = stop_list[stop_idx] if stop_idx < len(stop_list) else t_end
        if target <= t:
            stop_idx += 1
            continue
        hits_target = h >= target - t
        h_try = target - t if hits_target else h
        # Written so that a NaN step (a zero error scale) raises too.
        if not h_try >= 1e-12:
            raise IntegrationError(
                "step size underflow at t=%r" % (t,), tau=t, state=(a, b)
            )

        a_new, b_new, _, k7, e_a, e_b = dp5_trial(g, t, h_try, a, b, 0.0, k1)[:6]
        scale = [
            atol + rtol * max(abs(u), abs(v))
            for u, v in zip(_parts(a, b), _parts(a_new, b_new))
        ]
        err = _rms(_parts(e_a, e_b), scale)
        h, err_prev = next_step(h_try, err, err_prev, just_rejected)
        just_rejected = not err <= 1.0
        if just_rejected:
            n_rej += 1
            continue
        t = target if hits_target else t + h_try
        a, b = a_new, b_new
        k1 = k7
        n_acc += 1
        if stop_idx < len(stop_list) and t >= stop_list[stop_idx]:
            if observer is not None:
                observer(t, a, b)
            stop_idx += 1

    return t, (a, b), n_acc, n_rej
