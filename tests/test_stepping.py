"""The shared Dormand-Prince trial step, its dense output, and the two
drivers built on them.

stepping.dp5_trial is written once for Python floats (the scalar
engine) and numpy arrays (the batched ensemble), so the two drivers
differ only in their step control: they must agree on the same
trajectories to within their tolerance.  The batch driver finishes its
last few rows one at a time (ensemble.TAIL_ROWS); that row loop must
give the sweep's result byte for byte.  integrate_array, which runs
the same trial step on a pair of complex numbers, is checked against
its contract on a harmonic oscillator.
"""

from __future__ import annotations

import faulthandler
import math

import numpy as np
import pytest

from pilotwave import (
    AnalyticSource,
    FrozenSource,
    IntegratorConfig,
    ParameterError,
    SpatialPoint,
    ensemble,
    integrate,
)
from pilotwave.dynamics import (
    make_batch_rhs,
    make_batch_stages,
    make_row_rhs,
    make_scalar_rhs,
)
from pilotwave.ensemble import SHARD_MIN_ROWS, TAIL_ROWS, _advance_batch, sample_arrays
from pilotwave.stepping import STAGE_C, dense_state, dp5_dense, dp5_trial, integrate_array


def _arith_rhs(t, x, y):
    # Plain arithmetic only, so floats and arrays take identical roundings.
    return (y - 0.1 * x * t, 0.3 * y * y - x, x * y + t, 1.0 + x * x)


def test_trial_step_bitwise_equal_on_floats_and_arrays():
    t, h, x, y, z = 0.3, 0.05, 1.2, 0.7, -0.4
    scalar = dp5_trial(_arith_rhs, t, h, x, y, z, _arith_rhs(t, x, y))
    arrays = [np.array([v]) for v in (t, h, x, y, z)]
    k1 = _arith_rhs(arrays[0], arrays[2], arrays[3])
    batch = dp5_trial(_arith_rhs, *arrays, k1)
    for i in (0, 1, 2, 4, 5, 6):
        assert batch[i].shape == (1,)
        assert batch[i][0] == scalar[i]
    for got, want in zip(batch[3], scalar[3]):
        assert got[0] == want


def test_dense_output_ends_on_the_fifth_order_state(reference_drive):
    # At x = 0 the interpolant is the step's start exactly; at x = 1 it
    # sums the same stages in another grouping, so it meets the
    # fifth-order state to rounding.  Bound: 4 ulp of max(|y|, 1);
    # measured: at most 1.
    rhs = make_scalar_rhs(AnalyticSource(reference_drive))
    for t, h, state in (
        (40.0, 0.4, (4.0, 1.0, 0.3)),
        (1234.5, 0.9, (2.5, 0.7, -12.0)),
        (7000.0, 0.05, (9.0, 2.2, 100.0)),
    ):
        trial = dp5_trial(rhs, t, h, *state, rhs(t, state[0], state[1]))
        polys = dp5_dense(h, state, trial[7])
        assert dense_state(polys, 0.0) == state
        for got, want in zip(dense_state(polys, 1.0), trial[:3]):
            assert abs(got - want) <= 4.0 * np.spacing(max(abs(want), 1.0))


def test_dense_output_reproduces_quartic_solutions():
    # The continuous extension has order 4, so on y' = f(t) with f a
    # cubic it is exact in between as well: only rounding remains.
    # Measured: 4.4e-16; with a fifth-degree term it misses by 1.3e-4.
    coeffs = np.array([[1.5, -0.4, 0.3, 0.2, -0.05], [0.2, 1.0, -0.6, 0.1, 0.03],
                       [-2.0, 0.5, 0.25, -0.3, 0.07]])
    exact = [np.polynomial.Polynomial(c) for c in coeffs]
    rates = [p.deriv() for p in exact]

    def rhs(t, x, y):
        return rates[0](t), rates[1](t), rates[2](t), 1.0

    t, h = 0.7, 0.9
    state = tuple(p(t) for p in exact)
    trial = dp5_trial(rhs, t, h, *state, rhs(t, *state[:2]))
    polys = dp5_dense(h, state, trial[7])
    for x in (0.1, 0.25, 0.5, 0.8, 1.0):
        for got, p in zip(dense_state(polys, x), exact):
            assert abs(got - p(t + x * h)) < 1e-14


def test_dense_samples_match_a_tight_run_landing_there(reference_drive):
    # Samples at rtol 1e-8 come from the interpolant; a run at rtol
    # 1e-12 that ends at the sample time lands on it.  The bound is
    # _assert_close's ten tolerances; measured: at most 1.3.
    source = AnalyticSource(reference_drive)
    start = SpatialPoint(xi=4.0, theta=1.0)
    cfg = IntegratorConfig(rel_tol=1e-8, output_stride=0.25)
    run = integrate(start, 300.0, source, cfg)
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    for tau in (37.25, 101.75, 233.5, 299.75):
        i = int(round(tau / cfg.output_stride))
        assert run.tau[i] == tau
        ref = integrate(start, tau, source, tight)
        _assert_close(
            (run.xi[i], run.theta[i], run.phi[i]),
            (ref.xi[-1], ref.theta[-1], ref.phi[-1]),
            cfg.rel_tol,
        )


def _oscillator(t, a, b):
    # (a, b) = (cos t, -sin t) from (a, b)(0) = (1, 0).
    return b, -a


Y0 = (1.0 + 0.0j, 0.0j)


def test_integrate_array_rejects_bad_spans():
    # Unchecked, an infinite span steps forever and a NaN start returns
    # at once; a hang ends the test run with exit code 1.
    faulthandler.dump_traceback_later(60.0, exit=True)
    try:
        for t0, t_end in ((1.0, 0.5), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ParameterError):
                integrate_array(_oscillator, t0, Y0, t_end)
    finally:
        faulthandler.cancel_dump_traceback_later()
    # Out of range, NaN, out of order and repeated stops; unchecked, the
    # last two skip or merge observations.
    for stops in ([-0.1], [2.5], [math.nan], [0.0, 1.5, 0.5, 2.0], [0.0, 1.0, 1.0, 2.0]):
        with pytest.raises(ParameterError):
            integrate_array(_oscillator, 0.0, Y0, 2.0, stops=stops)


def test_integrate_array_empty_span_still_observes_the_start():
    seen = []
    t, y, accepted, rejected = integrate_array(
        _oscillator, 0.5, Y0, 0.5, stops=[0.5],
        observer=lambda s, a, b: seen.append((s, a, b)),
    )
    assert (t, y, accepted, rejected) == (0.5, Y0, 0, 0)
    assert seen == [(0.5, *Y0)]


def test_integrate_array_lands_on_every_stop():
    stops = [0.0, 0.3, 1.0, 2.5, 4.0, 2.0 * math.pi]
    seen = []
    t, (a, b), accepted, _ = integrate_array(
        _oscillator, 0.0, Y0, stops[-1], rtol=1e-10, atol=1e-12,
        stops=stops, observer=lambda s, a, b: seen.append((s, a, b)),
    )
    assert [s for s, _, _ in seen] == stops
    assert t == stops[-1] and accepted > len(stops)
    for s, a_s, b_s in seen:
        assert abs(a_s - math.cos(s)) < 1e-8 and abs(b_s + math.sin(s)) < 1e-8
    assert abs(a - 1.0) < 1e-8 and abs(b) < 1e-8


def _source(kind, drive):
    if kind == "analytic":
        return AnalyticSource(drive)
    r = math.sqrt(0.5)
    return FrozenSource(complex(r, 0.0), complex(0.0, r))


def _sources(drive):
    return [_source(kind, drive) for kind in ("analytic", "frozen")]


def _same(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _advance(source, cloud, targets, cfg):
    return _advance_batch(
        make_batch_rhs(source),
        make_batch_stages(source),
        make_row_rhs(source),
        *cloud[:2],
        targets,
        cfg,
    )


def _same_bytes(got, want):
    # Every target's five arrays, drop-out masks included.
    assert len(got) == len(want)
    for g_state, w_state in zip(got, want):
        assert len(g_state) == len(w_state) == 5
        for g, w in zip(g_state, w_state):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# Each source with the default tail and with TAIL_ROWS = 0, which runs
# the sweep alone; the ids of the default cases are the plain kind.
KIND_AND_TAIL = [
    pytest.param(kind, tail, id=kind if tail else kind + "-sweep_only")
    for kind in ("analytic", "frozen")
    for tail in (TAIL_ROWS, 0)
]


def test_last_stage_is_the_rate_at_the_new_state(reference_drive):
    # Both drivers take an accepted step's k7 as the next step's k1, so
    # k7 must be bit for bit what a fresh rhs gives at the new state.
    xi, theta, phi = sample_arrays(16, 3)
    t = np.linspace(40.0, 41.5, 16)
    h = np.full(16, 0.3)
    for source in _sources(reference_drive):
        rhs = make_batch_rhs(source)
        k1 = rhs(t, xi, theta)
        xi_new, theta_new, _, k7 = dp5_trial(rhs, t, h, xi, theta, phi, k1)[:4]
        _same(k7, make_batch_rhs(source)(t + h, xi_new, theta_new))


def test_batch_rhs_reuses_cross_terms_only_at_equal_times(reference_drive):
    xi, theta, _ = sample_arrays(16, 4)
    tau = np.linspace(10.0, 12.0, 16)
    for source in _sources(reference_drive):
        rhs = make_batch_rhs(source)
        rhs(tau, xi, theta)
        # The same array changed in place: the cross terms are recomputed.
        tau += 0.25
        _same(rhs(tau, xi, theta), make_batch_rhs(source)(tau, xi, theta))
        # Equal times in a new array: the cached cross terms are exact.
        _same(rhs(tau.copy(), xi, theta), make_batch_rhs(source)(tau, xi, theta))
        # A first call with no rows has nothing cached to match.
        empty = make_batch_rhs(source)(np.empty(0), np.empty(0), np.empty(0))
        assert [np.shape(k) for k in empty] == [(0,), (0,), (), (0,)]


def _trial_bytes(trial):
    # Every array of a dp5_trial result: state, errors and the stages
    # k1, k3, ..., k7 that dense output reads (k7 among them).
    xi_new, theta_new, phi_new, _, e_xi, e_theta, e_phi, stages = trial
    arrays = [xi_new, theta_new, phi_new, e_xi, e_theta, e_phi]
    arrays += [a for k in stages for a in k]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_stage_table_rows_equal_cross_terms_bitwise(reference_drive, kind):
    # Row i of one stacked pass is the source's own array terms at
    # t + STAGE_C[i] h, over times up to 2e4, where the fast phase's
    # reduction is largest.
    source = _source(kind, reference_drive)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2e4, 3000)
    h = rng.uniform(1e-6, 2.0, 3000)
    cross = source.cross_terms(np)
    table = make_batch_stages(source)(t, h)
    assert len(table) == len(STAGE_C) == 5
    for c, row in zip(STAGE_C, table):
        want = cross(t + c * h)
        assert len(row) == len(want) == 4
        for got, w in zip(row, want):
            assert type(got) is type(w)
            assert np.asarray(got).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_trial_on_stage_arguments_equals_trial_on_times_bitwise(reference_drive, kind):
    # The sweep's trial, on whole rows and on gathered ones (a smaller
    # call after a larger one, so the work arrays are reused).
    source = _source(kind, reference_drive)
    rng = np.random.default_rng(12)
    xi, theta, _ = sample_arrays(64, 9)
    t = rng.uniform(0.0, 3000.0, 64)
    h = rng.uniform(0.01, 1.0, 64)
    rhs = make_batch_rhs(source)
    stages = make_batch_stages(source)
    gathered = np.nonzero(rng.random(64) < 0.5)[0]
    for rows in (slice(None), gathered):
        ti, hi, a0, a1 = t[rows], h[rows], xi[rows], theta[rows]
        k1 = rhs(ti, a0, a1)
        on_times = dp5_trial(rhs, ti, hi, a0, a1, 0.0, k1)
        on_stages = dp5_trial(rhs, ti, hi, a0, a1, 0.0, k1, stages(ti, hi))
        assert _trial_bytes(on_stages) == _trial_bytes(on_times)


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_stage_work_arrays_grow_with_the_row_count(reference_drive, kind):
    # A call with more rows than any before gets new work arrays; one
    # with fewer reuses them.  Each gives the source's terms.
    source = _source(kind, reference_drive)
    rng = np.random.default_rng(13)
    t = rng.uniform(0.0, 500.0, 200)
    h = rng.uniform(0.01, 1.0, 200)
    stages = make_batch_stages(source)
    cross = source.cross_terms(np)
    tables = {}
    for m in (8, 200, 16):
        tables[m] = stages(t[:m], h[:m])
        for c, row in zip(STAGE_C, tables[m]):
            for got, want in zip(row, cross(t[:m] + c * h[:m])):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    tp = {m: table[0][2] for m, table in tables.items()}
    assert tp[8].shape == (8,) and tp[200].shape == (200,) and tp[16].shape == (16,)
    assert not np.shares_memory(tp[8], tp[200])
    assert np.shares_memory(tp[16], tp[200])


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_stage_table_follows_each_call_at_a_repeated_row_count(reference_drive, kind):
    # The (5, m) views and the table are kept while the row count
    # repeats: a later call at the same count, at other times, still
    # gives its own times' terms, and so does a call at a new count.
    source = _source(kind, reference_drive)
    rng = np.random.default_rng(14)
    stages = make_batch_stages(source)
    cross = source.cross_terms(np)
    for m, start in ((40, 0.0), (40, 900.0), (40, 1.5e4), (24, 1200.0), (24, 30.0)):
        t = rng.uniform(start, start + 100.0, m)
        h = rng.uniform(0.01, 1.0, m)
        for c, row in zip(STAGE_C, stages(t, h)):
            for got, want in zip(row, cross(t + c * h)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_later_trial_leaves_earlier_stages_unchanged(reference_drive, kind):
    # The stage arguments are views of work arrays that the next trial
    # overwrites; the rates, states and errors a trial returns are its own.
    source = _source(kind, reference_drive)
    xi, theta, _ = sample_arrays(32, 10)
    t = np.linspace(100.0, 140.0, 32)
    h = np.full(32, 0.4)
    rhs = make_batch_rhs(source)
    stages = make_batch_stages(source)
    first = dp5_trial(rhs, t, h, xi, theta, 0.0, rhs(t, xi, theta), stages(t, h))
    before = _trial_bytes(first)
    t2 = t + 7.0
    dp5_trial(rhs, t2, h, xi, theta, 0.0, rhs(t2, xi, theta), stages(t2, h))
    assert _trial_bytes(first) == before


def _work_arrays(count, rows):
    # Longer than the rows, and full of NaN, so a read of an entry that
    # was not written shows.
    return [np.full(rows, np.nan) for _ in range(count)]


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_trial_into_work_arrays_equals_operator_trial_bitwise(reference_drive, kind):
    # dp5_trial with work arrays, on rows that include NaN and +-inf
    # states, against the operator body on the same rows: with the five
    # stage arguments, and with six that carry each rhs call's output
    # slot (as the sweep passes them).  Whole rows first, then a
    # gathered subset in the same longer work arrays.  The carried slot
    # (phi and dphi all 0.0) is not computed.
    source = _source(kind, reference_drive)
    rng = np.random.default_rng(15)
    n = 64
    xi, theta, _ = sample_arrays(n, 11)
    xi[[0, 1, 2]] = [math.nan, math.inf, -math.inf]
    theta[[3, 4, 5]] = [math.nan, math.inf, -math.inf]
    t = rng.uniform(0.0, 3000.0, n)
    h = rng.uniform(0.01, 1.0, n)
    rhs = make_batch_rhs(source)
    stages = make_batch_stages(source)
    trial_work = _work_arrays(8, n + 16)
    slot_work = _work_arrays(12 + 6, n + 16)
    gathered = np.union1d([0, 3, 4], np.nonzero(rng.random(n) < 0.5)[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in (slice(None), gathered):
            ti, hi, a0, a1 = t[rows], h[rows], xi[rows], theta[rows]
            m = len(ti)
            k1 = rhs(ti, a0, a1)
            want = dp5_trial(rhs, ti, hi, a0, a1, 0.0, k1, stages(ti, hi))
            shared = [w[:m] for w in slot_work[12:]]
            slots = [(slot_work[2 * i][:m], slot_work[2 * i + 1][:m], *shared) for i in range(6)]
            terms = stages(ti, hi)
            for stage_args in (
                terms,
                [(*terms[min(i, 4)], slot) for i, slot in enumerate(slots)],
            ):
                got = dp5_trial(rhs, ti, hi, a0, a1, 0.0, k1, stage_args, trial_work)
                assert got[2] == got[6] == 0.0
                for i in (0, 1, 4, 5):
                    assert got[i].tobytes() == want[i].tobytes()
                    assert np.shares_memory(got[i], trial_work[i + 2 if i < 2 else i])
                # Rates only: with output slots, rho is scratch that the
                # next stage overwrites.
                for g, w in zip(got[7], want[7]):
                    assert g[0].tobytes() == w[0].tobytes()
                    assert g[1].tobytes() == w[1].tobytes()
            assert np.isnan(want[0]).any() and np.isnan(want[4]).any()


def test_row_rhs_equals_batch_rhs_bitwise(reference_drive):
    # The row rhs runs the batch rhs's numpy code on floats; np.tan,
    # np.exp and friends round a scalar as they round an array element.
    rng = np.random.default_rng(8)
    n = 2000
    tau = rng.uniform(0.0, 9000.0, n)
    xi = rng.uniform(1e-3, 30.0, n)
    theta = rng.uniform(1e-6, math.pi - 1e-6, n)
    # As many rows again past the axis, where sweep trial stages reach,
    # and to tau = 2e4, where the fast phase's reduction is largest.
    tau = np.concatenate([tau, rng.uniform(0.0, 2e4, n)])
    xi = np.concatenate([xi, rng.uniform(1e-3, 30.0, n)])
    theta = np.concatenate([theta, rng.uniform(-1.0, math.pi + 1.0, n)])
    tau[1::2] = tau[::2]  # repeated times go through the row rhs's memo
    n = len(tau)
    for source in _sources(reference_drive):
        batch = make_batch_rhs(source)(tau, xi, theta)
        rates = (batch[0], batch[1], batch[3])
        row = make_row_rhs(source)
        for i in range(n):
            got = row(float(tau[i]), float(xi[i]), float(theta[i]))
            assert all(type(g) is float for g in got)
            assert got[2] == batch[2] == 0.0
            assert [got[0], got[1], got[3]] == [float(k[i]) for k in rates]


def _assert_close(got, want, rtol):
    # Each driver keeps its local error below rtol * |y|, so two step
    # sequences may end a few tolerances of accumulated error apart;
    # the bound is ten, per component, relative to max(|y|, 1).
    bound = 10.0 * rtol * np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(np.asarray(got) - np.asarray(want)) <= bound)


@pytest.mark.parametrize("kind, tail_rows", KIND_AND_TAIL)
def test_scalar_and_batch_drivers_agree(reference_drive, monkeypatch, kind, tail_rows):
    # Eight trajectories to tau = 200 at rtol 1e-8.  The output stride
    # equals the span, so the scalar driver lands only on the end point
    # and both drivers choose their own steps freely.  The batch carries
    # no phi, so xi and theta are compared.  Measured: at most 4.5e-9
    # (analytic) and 5.9e-8 (frozen) relative to max(|y|, 1).
    monkeypatch.setattr(ensemble, "TAIL_ROWS", tail_rows)
    source = _source(kind, reference_drive)
    tau = 200.0
    cfg = IntegratorConfig(rel_tol=1e-8, output_stride=tau)
    xi, theta, phi = sample_arrays(8, 5)
    [(bxi, btheta, ok, _, _)] = _advance(source, (xi, theta, phi), (tau,), cfg)
    assert ok.all()
    for i in range(len(xi)):
        start = SpatialPoint(xi=float(xi[i]), theta=float(theta[i]), phi=float(phi[i]))
        run = integrate(start, tau, source, cfg)
        assert run.tau[-1] == tau
        _assert_close((bxi[i], btheta[i]), (run.xi[-1], run.theta[-1]), cfg.rel_tol)


@pytest.mark.parametrize("kind, tail_rows", KIND_AND_TAIL)
def test_one_pass_through_targets_matches_separate_runs(
    reference_drive, monkeypatch, kind, tail_rows
):
    # Up to the first target one pass is the separate run, bit for bit.
    # Past it the step sequence changes (every row lands on tau = 100),
    # so the later target agrees only to within the drivers' bound.
    # Measured: 0.43 (analytic) and 0.15 (frozen) of rtol * max(|y|, 1).
    monkeypatch.setattr(ensemble, "TAIL_ROWS", tail_rows)
    source = _source(kind, reference_drive)
    cfg = IntegratorConfig(rel_tol=1e-8)
    cloud = sample_arrays(8, 5)

    def run(targets):
        return _advance(source, cloud, targets, cfg)

    at_100, at_200 = run((100.0, 200.0))
    [alone_100] = run((100.0,))
    [alone_200] = run((200.0,))
    _same(at_100, alone_100)
    assert at_200[2].all() and alone_200[2].all()
    for got, want in zip(at_200[:2], alone_200[:2]):
        _assert_close(got, want, cfg.rel_tol)


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_sharded_states_equal_one_batch_call(reference_drive, monkeypatch, kind):
    # Two CPUs whatever the machine has, and an odd cloud just above two
    # shards, so the slices are uneven.  min_step = 0.05 makes some rows
    # drop out, so the masks are checked with both values present.
    monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1})
    source = _source(kind, reference_drive)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, min_step=0.05)
    cloud = sample_arrays(2 * SHARD_MIN_ROWS + 1, 6)
    targets = (0.0, 20.0, 20.0, 40.0)
    assert ensemble._shard_count(len(cloud[0])) == 2
    sharded = ensemble._advance_sharded(source, *cloud[:2], targets, cfg)
    single = _advance(source, cloud, targets, cfg)
    assert len(single) == len(targets)
    _same_bytes(sharded, single)
    assert not single[-1][2].all()


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_row_loop_equals_sweep_bitwise(reference_drive, monkeypatch, kind):
    # 64 rows, so that with the default TAIL_ROWS one call runs both the
    # sweep and the row loop.  min_step = 0.05 makes rows drop out by
    # step underflow, and two rows start on the axis.  The row loop
    # alone (TAIL_ROWS above the cloud size) and with the sweep (the
    # default) must give the sweep alone's bytes.
    source = _source(kind, reference_drive)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, min_step=0.05)
    xi, theta, _ = sample_arrays(64, 21)
    theta[[5, 40]] = 1e-7
    targets = (0.0, 20.0, 20.0, 40.0)
    runs = {}
    for tail_rows in (0, TAIL_ROWS, 65):
        monkeypatch.setattr(ensemble, "TAIL_ROWS", tail_rows)
        batch_rhs = make_batch_rhs(source)
        row_rhs = make_row_rhs(source)
        batch_rows = []  # rows of each batch rhs call
        row_calls = []

        def counted_batch(tau, xi, theta):
            batch_rows.append(len(xi))
            return batch_rhs(tau, xi, theta)

        def counted_row(tau, xi, theta):
            row_calls.append(tau)
            return row_rhs(tau, xi, theta)

        runs[tail_rows] = _advance_batch(
            counted_batch, make_batch_stages(source), counted_row, xi, theta, targets, cfg
        )
        # Each segment starts with one batch call over the whole cloud;
        # any other batch call is a sweep.
        sweeps = batch_rows[1:]
        assert (len(row_calls) > 0) == (tail_rows > 0)
        if tail_rows == TAIL_ROWS:
            assert min(sweeps) >= TAIL_ROWS and len(set(sweeps)) > 1
        elif tail_rows > len(xi):
            assert set(batch_rows) == {len(xi)}
        _same_bytes(runs[tail_rows], runs[0])
    final = runs[0][-1]
    assert final[3].sum() == 2 and final[4].any() and final[2].sum() < len(xi) - 2


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_whole_array_sweep_equals_row_loop_bitwise(reference_drive, monkeypatch, kind):
    # The cloud and drop-outs of test_row_loop_equals_sweep_bitwise, but
    # no row starts on the axis: every row is active at first, so the
    # sweep works on whole arrays until a row lands or drops out, and
    # gathers rows through an index after that.  Both must give the row
    # loop's bytes.
    source = _source(kind, reference_drive)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, min_step=0.05)
    cloud = sample_arrays(64, 21)
    targets = (20.0, 40.0)
    runs = {}
    calls = {}  # rows of each batch rhs call
    for tail_rows in (0, 65):
        monkeypatch.setattr(ensemble, "TAIL_ROWS", tail_rows)
        batch_rhs = make_batch_rhs(source)
        batch_rows = calls[tail_rows] = []

        def counted_batch(tau, xi, theta):
            batch_rows.append(len(xi))
            return batch_rhs(tau, xi, theta)

        runs[tail_rows] = _advance_batch(
            counted_batch,
            make_batch_stages(source),
            make_row_rhs(source),
            *cloud[:2],
            targets,
            cfg,
        )
    # The first call starts the segment and six calls per sweep follow:
    # with the sweep alone, the first ten sweeps see every row and later
    # ones fewer.  The row loop alone calls the batch rhs only to start
    # each segment.
    sweeps = calls[0][1:]
    assert sweeps[:60] == [64] * 60 and min(sweeps) < 64
    assert calls[65] == [64] * len(targets)
    _same_bytes(runs[65], runs[0])
    assert runs[0][-1][4].any()


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_advanced_states_share_no_memory(reference_drive, kind):
    # The sweep writes into work arrays and keeps its state in arrays of
    # its own; the state returned for each target must share memory with
    # none of them, nor with any other target's.  The arrays the rhs is
    # handed, and the output slots in its stage arguments, lead to all
    # of them.
    source = _source(kind, reference_drive)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, min_step=0.05)
    xi, theta, _ = sample_arrays(64, 21)
    batch_rhs = make_batch_rhs(source)
    seen = []

    def recording(tau, xi, theta):
        seen.extend([xi, theta])
        # A stage argument's terms, and its output slot if it has one.
        for a in tau if type(tau) is tuple else ():
            seen.extend(a if type(a) is tuple else [a])
        return batch_rhs(tau, xi, theta)

    states = _advance_batch(
        recording, make_batch_stages(source), make_row_rhs(source),
        xi, theta, (20.0, 20.0, 40.0), cfg,
    )
    bases = {}
    for a in seen:
        if not isinstance(a, np.ndarray):
            continue  # the frozen source's ca2 and cb2 are floats
        while a.base is not None:
            a = a.base
        bases[id(a)] = a
    returned = [a for state in states for a in state]
    assert len(returned) == 15
    for i, a in enumerate(returned):
        for b in list(bases.values()) + returned[i + 1:]:
            assert not np.shares_memory(a, b)


# Each driver against a tight reference, per component, in units of
# rtol * max(|y|, 1): about twice the worst case measured, which is
# (xi / theta / phi for the scalar driver, xi / theta for the sweep and
# the row loop) analytic 0.79 / 0.28 / 0.56 and 0.46 / 0.15, frozen
# 25.6 / 25.8 / 8.8 and 20.7 / 19.9.
REFERENCE_BOUND = {"analytic": 2.0, "frozen": 50.0}


@pytest.mark.parametrize("kind", ["analytic", "frozen"])
def test_each_driver_is_close_to_a_tight_reference(reference_drive, monkeypatch, kind):
    # The cloud of test_scalar_and_batch_drivers_agree.  The scalar
    # driver, the sweep alone (TAIL_ROWS = 0) and the row loop alone
    # (TAIL_ROWS above the cloud size) each run at rtol 1e-8 and are
    # compared with the scalar driver at rtol 1e-13 and abs_tol 1e-15,
    # so no two of them need to share a step sequence.  (At the default
    # abs_tol the tight run of row 6 aborts at tau = 0: a trial stage of
    # its first step crosses the axis.)
    source = _source(kind, reference_drive)
    tau = 200.0
    cfg = IntegratorConfig(rel_tol=1e-8, output_stride=tau)
    tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15, output_stride=tau)
    xi, theta, phi = sample_arrays(8, 5)
    reference, scalar = [], []
    for i in range(len(xi)):
        start = SpatialPoint(xi=float(xi[i]), theta=float(theta[i]), phi=float(phi[i]))
        for ends, run_cfg in ((reference, tight), (scalar, cfg)):
            run = integrate(start, tau, source, run_cfg)
            assert run.tau[-1] == tau
            ends.append((run.xi[-1], run.theta[-1], run.phi[-1]))
    reference = np.array(reference)
    drivers = {"scalar": np.array(scalar)}
    for name, tail_rows in (("sweep", 0), ("row loop", len(xi) + 1)):
        monkeypatch.setattr(ensemble, "TAIL_ROWS", tail_rows)
        [(bxi, btheta, ok, _, _)] = _advance(source, (xi, theta), (tau,), cfg)
        assert ok.all()
        drivers[name] = np.stack([bxi, btheta], axis=1)
    for name, got in drivers.items():
        want = reference[:, : got.shape[1]]
        bound = REFERENCE_BOUND[kind] * cfg.rel_tol * np.maximum(np.abs(want), 1.0)
        assert np.all(np.abs(got - want) <= bound), name
