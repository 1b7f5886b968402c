"""Two-level amplitude tests: closed form, numeric solver, envelopes.

Frozen reference values were generated once with mpmath at 40 digits
(closed form evaluated in extended precision) and with scipy's DOP853
at rtol 1e-13 (independent integration of the amplitude system).  They
are pinned here so regressions in the trig reduction or the rotating
frame bookkeeping show up as hard failures.
"""

from __future__ import annotations

import faulthandler
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotwave import (
    AnalyticSource,
    FrozenSource,
    IntegrationError,
    NumericSource,
    ParameterError,
    coefficients,
    derive_drive,
    envelope_T,
    envelope_Tprime,
    reversal_window,
    stepping,
    transition_probability,
)
from pilotwave.drive import (
    coefficient_arrays,
    reduce_angle,
    solve_coefficients_numeric,
)
from pilotwave.stepping import integrate_array

# ---------------------------------------------------------------------------
# Frozen oracle values (mpmath, mp.dps = 40), reference_drive configuration
# ---------------------------------------------------------------------------

SIGMA_PS_ORACLE = 5330337700371.3376
CA_500 = 0.99661505405359992 + 5.6450519238175901e-5j
CB_500 = -0.002056354225542141 + 0.082183953752408905j
CA_5000 = 0.68648679916915428 + 0.052101074113919452j
CB_5000 = -0.17954889854571737 + 0.70269733575251643j
T_1000 = -0.20357636424953101
TPRIME_1000 = 0.12895474530520839


def test_sigma_matches_oracle(reference_drive):
    assert math.isclose(
        reference_drive.sigma_ps, SIGMA_PS_ORACLE, rel_tol=1e-12
    )


@pytest.mark.parametrize(
    "tau, ca_ref, cb_ref",
    [(500.0, CA_500, CB_500), (5000.0, CA_5000, CB_5000)],
)
def test_closed_form_against_oracle(reference_drive, tau, ca_ref, cb_ref):
    state = coefficients(tau, reference_drive)
    assert abs(state.c_a - ca_ref) < 1e-13
    assert abs(state.c_b - cb_ref) < 1e-13


def test_envelopes_against_oracle(reference_drive):
    assert abs(envelope_T(1000.0, reference_drive) - T_1000) < 1e-11
    assert abs(envelope_Tprime(1000.0, reference_drive) - TPRIME_1000) < 1e-11


def test_initial_state_is_ground(reference_drive):
    state = coefficients(0.0, reference_drive)
    assert state.c_a == 1.0 + 0.0j
    assert state.c_b == 0.0 + 0.0j


# ---------------------------------------------------------------------------
# Structure of the closed form
# ---------------------------------------------------------------------------


@given(tau=st.floats(min_value=0.0, max_value=2.0e4))
@settings(max_examples=200, deadline=None)
def test_unitarity_property(tau):
    drive = derive_drive(
        8.8e7, 1.55e12, nu_override_ps=-5.1e12, omega0_ps=1.549e16
    )
    state = coefficients(tau, drive)
    norm = abs(state.c_a) ** 2 + abs(state.c_b) ** 2
    assert abs(norm - 1.0) < 1e-12


def test_envelope_identities(reference_drive):
    # (nu/2 sigma) T = Im{c_a* c_b e^(-i tau)} and
    # T' = Re{c_a* c_b e^(-i tau)}: the envelopes are the slow factors
    # of the interference cross term.
    half = 0.5 * reference_drive.ratio_nu
    for tau in (0.0, 137.0, 2500.0, 9148.0, 19999.0):
        state = coefficients(tau, reference_drive)
        cross = state.c_a.conjugate() * state.c_b * complex(
            math.cos(tau), -math.sin(tau)
        )
        assert abs(half * envelope_T(tau, reference_drive) - cross.imag) < 1e-10
        assert abs(envelope_Tprime(tau, reference_drive) - cross.real) < 1e-10


def test_transition_probability_array_matches_scalar(reference_drive):
    taus = np.linspace(0.0, 2.0e4, 401)
    arr = transition_probability(taus, reference_drive)
    scalars = [abs(coefficients(t, reference_drive).c_b) ** 2 for t in taus]
    np.testing.assert_allclose(arr, scalars, atol=1e-14)


def test_coefficient_arrays_match_scalar(reference_drive):
    taus = np.linspace(0.0, 1.0e4, 101)
    ca, cb = coefficient_arrays(taus, reference_drive)
    for i, tau in enumerate(taus):
        state = coefficients(float(tau), reference_drive)
        assert abs(ca[i] - state.c_a) < 1e-14
        assert abs(cb[i] - state.c_b) < 1e-14


def test_peak_probability_and_flop_period(literal_drive):
    # Peak population (nu/sigma)^2 at half the flop period pi/sigma~.
    peak = literal_drive.peak_transition_probability
    assert math.isclose(peak, (5.1 / 5.32) ** 2, rel_tol=1e-12)
    tau_peak = 0.5 * literal_drive.flop_period_tau
    assert math.isclose(
        tau_peak, math.pi * 1.549e16 / 5.32e12, rel_tol=1e-12
    )
    assert abs(transition_probability(tau_peak, literal_drive) - peak) < 1e-12


def test_zero_detuning_full_flopping():
    # Omega = 0 gives sigma = |nu| and complete population transfer.
    drive = derive_drive(8.8e7, 0.0, nu_override_ps=-5.1e12, omega0_ps=1.549e16)
    assert drive.peak_transition_probability == 1.0
    tau_peak = 0.5 * drive.flop_period_tau
    assert abs(transition_probability(tau_peak, drive) - 1.0) < 1e-12
    state = coefficients(tau_peak, drive)
    assert abs(state.c_a) < 1e-12


def test_zero_coupling_override_keeps_ground_state():
    # nu_override = 0 switches the coupling off: c_a picks up only a
    # detuning phase and the upper level never populates.
    drive = derive_drive(8.8e7, 1.55e12, nu_override_ps=0.0, omega0_ps=1.549e16)
    taus = np.linspace(0.0, 5000.0, 64)
    assert np.max(transition_probability(taus, drive)) == 0.0
    state = coefficients(777.0, drive)
    assert abs(abs(state.c_a) - 1.0) < 1e-14
    # T keeps its closed form, which does not vanish with the coupling;
    # T' carries a factor nu/sigma and does.
    s = drive.sigma_t * taus
    w = reduce_angle(drive.omega_t * taus)
    closed = drive.ratio_Omega * (1.0 - np.cos(s)) * np.sin(w) - np.sin(s) * np.cos(w)
    assert np.max(np.abs(closed)) > 0.1
    assert np.max(np.abs(envelope_T(taus, drive) - closed)) <= 1e-15
    assert np.all(envelope_Tprime(taus, drive) == 0.0)


# ---------------------------------------------------------------------------
# Parameter derivation and validation
# ---------------------------------------------------------------------------


def test_codata_derivation_near_reference_roundings(codata_drive):
    # The matrix-element route lands within 5 percent of the rounded
    # nu = -5.1e12 and within 0.1 percent of omega0 = 1.549e16.
    assert codata_drive.nu_ps < 0.0
    assert abs(codata_drive.nu_ps - (-5.1e12)) / 5.1e12 < 0.05
    assert abs(codata_drive.omega0_ps - 1.549e16) / 1.549e16 < 1e-3
    assert math.isclose(
        codata_drive.sigma_ps,
        math.hypot(codata_drive.Omega_ps, codata_drive.nu_ps),
        rel_tol=1e-13,
    )


def test_derive_rejects_bad_amplitude_and_detuning():
    with pytest.raises(ParameterError):
        derive_drive(0.0, 1.55e12)
    with pytest.raises(ParameterError):
        derive_drive(-8.8e7, 1.55e12)
    with pytest.raises(ParameterError):
        derive_drive(8.8e7, -1.0e12)
    with pytest.raises(ParameterError):
        derive_drive(8.8e7, 2.0e14)  # beyond the two-level regime
    for E0, Omega in ((math.inf, 1.55e12), (math.nan, 1.55e12), (8.8e7, math.nan)):
        with pytest.raises(ParameterError):
            derive_drive(E0, Omega)


def test_derive_warns_on_strained_detuning():
    with pytest.warns(UserWarning):
        derive_drive(8.8e7, 5.0e13)


def test_derive_rejects_nonfinite_override():
    with pytest.raises(ParameterError):
        derive_drive(8.8e7, 1.55e12, nu_override_ps=math.nan)
    with pytest.raises(ParameterError):
        derive_drive(8.8e7, 1.55e12, omega0_ps=math.inf)


def test_derive_rejects_fully_degenerate_drive():
    # nu = 0 and Omega = 0 leaves no dynamics at all.
    with pytest.raises(ParameterError):
        derive_drive(8.8e7, 0.0, nu_override_ps=0.0)


def test_scaled_frequencies_consistent(reference_drive):
    w0 = reference_drive.omega0_ps
    assert math.isclose(reference_drive.Omega_t, reference_drive.Omega_ps / w0)
    assert math.isclose(reference_drive.nu_t, reference_drive.nu_ps / w0)
    assert math.isclose(reference_drive.sigma_t, reference_drive.sigma_ps / w0)
    assert math.isclose(
        reference_drive.omega_t, 1.0 - reference_drive.Omega_t, rel_tol=1e-15
    )


# ---------------------------------------------------------------------------
# Numeric amplitude solver
# ---------------------------------------------------------------------------


def test_numeric_solver_matches_closed_form(reference_drive):
    states = solve_coefficients_numeric(
        2000.0, reference_drive, tol=1e-12, stride=100.0
    )
    assert states[0].tau == 0.0
    assert states[-1].tau == 2000.0
    worst = 0.0
    for st_ in states:
        ref = coefficients(st_.tau, reference_drive)
        worst = max(worst, abs(st_.c_a - ref.c_a), abs(st_.c_b - ref.c_b))
    assert worst < 1e-9


def test_numeric_solver_rejects_bad_inputs(reference_drive):
    # A zero error scale makes the first step NaN, which the underflow
    # guard must stop, or the solve retries it forever.  A hang ends the
    # test run with exit code 1 instead of stalling it.
    faulthandler.dump_traceback_later(60.0, exit=True)
    try:
        for tol in (0.0, math.nan, math.inf, -1.0, 1.0):
            with pytest.raises(ParameterError):
                solve_coefficients_numeric(10.0, reference_drive, tol=tol)
            with pytest.raises(ParameterError):
                NumericSource(reference_drive, 10.0, tol=tol)
        # Python floats raise on 0/0 where numpy gave NaN: the error
        # norm must still end in IntegrationError.
        with pytest.raises(IntegrationError):
            integrate_array(
                lambda t, a, b: (b, -a),
                0.0,
                (1.0 + 0.0j, 0.0j),
                1.0,
                rtol=0.0,
                atol=0.0,
            )
    finally:
        faulthandler.cancel_dump_traceback_later()
    for tau_max in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            NumericSource(reference_drive, tau_max)
    source = NumericSource(reference_drive, 10.0)
    for tau in (math.nan, -1.0, 11.0):
        with pytest.raises(ParameterError):
            source.eval(tau)


def test_verify_solve_takes_a_pinned_step_sequence(reference_drive, monkeypatch):
    # The coefficient-oracle solve of verify: tau 0 to 2e4 at tol 1e-10,
    # a stop every 20.  Its step counts pin the step sequence.  The
    # solve looks integrate_array up at call time, so a wrapper set on
    # the stepping module sees the call.
    original = stepping.integrate_array
    counts = []

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        counts.append(out[2:])
        return out

    monkeypatch.setattr(stepping, "integrate_array", counted)
    series = solve_coefficients_numeric(2.0e4, reference_drive, tol=1e-10, stride=20.0)
    assert counts == [(1005, 0)]
    assert len(series) == 1001 and series[-1].tau == 2.0e4


def test_numeric_solver_zero_span(reference_drive):
    states = solve_coefficients_numeric(0.0, reference_drive)
    assert len(states) == 1
    assert states[0].c_a == 1.0 + 0.0j


def test_reversal_window_brackets_flop_period(reference_drive):
    lo, hi = reversal_window(reference_drive, threshold=0.02)
    tau_rev = reference_drive.flop_period_tau
    assert lo < tau_rev < hi
    taus = np.linspace(lo, hi, 257)
    assert np.max(transition_probability(taus, reference_drive)) <= 0.02 + 1e-12


def test_reversal_window_unreachable_threshold(reference_drive):
    # Peak population 0.919 never dips below a negative threshold.
    with pytest.raises(ParameterError):
        reversal_window(reference_drive, threshold=-1.0)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def test_analytic_source_eval(reference_drive):
    src = AnalyticSource(reference_drive)
    assert src.is_driven
    assert src.drive is reference_drive
    state = src.eval(1234.5)
    ref = coefficients(1234.5, reference_drive)
    assert state.c_a == ref.c_a
    assert state.c_b == ref.c_b


def test_frozen_source_constant():
    c1 = complex(math.sqrt(0.5), 0.0)
    c2 = complex(0.0, math.sqrt(0.5))
    src = FrozenSource(c1, c2)
    assert not src.is_driven
    for tau in (0.0, 55.5, 9999.0):
        state = src.eval(tau)
        assert state.c_a == c1
        assert state.c_b == c2


def test_frozen_source_requires_normalization():
    with pytest.raises(ParameterError):
        FrozenSource(1.0, 1.0)
    with pytest.raises(ParameterError):
        FrozenSource(complex(math.nan, 0.0), 0.0)


def test_numeric_source_tracks_closed_form(reference_drive):
    src = NumericSource(reference_drive, 500.0, tol=1e-12)
    assert src.is_driven
    state = src.eval(321.0)
    ref = coefficients(321.0, reference_drive)
    assert abs(state.c_a - ref.c_a) < 1e-9
    assert abs(state.c_b - ref.c_b) < 1e-9


# ---------------------------------------------------------------------------
# Angle reduction helper
# ---------------------------------------------------------------------------


@given(st.floats(min_value=-1e8, max_value=1e8))
@settings(max_examples=200, deadline=None)
def test_reduce_angle_range_and_congruence(x):
    r = reduce_angle(x)
    assert -math.pi <= r <= math.pi
    # Compare against fmod reduction.  Both routes lose ~|x| ulps of
    # phase accuracy for large arguments, so the tolerance scales.
    tol = 1e-12 + 2e-15 * abs(x)
    assert abs(math.sin(r) - math.sin(math.fmod(x, 2.0 * math.pi))) < tol
