import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from contextlab import analysis
from contextlab.analysis import (
    DEFAULT_CHSH_SETTINGS,
    ChshResult,
    CorrelationEstimate,
    calibration_sweep,
    chsh,
    estimate_correlations,
    lhv_bound_enumeration,
    model_curves,
    no_signaling_report,
    quadrature_chsh,
)
from contextlab.errors import IncompleteDesignError, InsufficientDataError
from contextlab.models import (
    SettingPair,
    pair_expectation,
    shared_space_model,
)
from contextlab.simulate import (
    MalusModel,
    SelectiveModel,
    SettingsSchedule,
    run_counts,
    run_experiment,
)
from stream_records import records

PI = math.pi
A, AP, B, BP = DEFAULT_CHSH_SETTINGS


def synthetic_stream(rows):
    """rows: list of (x, y, a, b)."""
    return records(*zip(*rows))


def make_estimate(x, y, raw, se=0.0, coincidence=None, coincidence_se=None):
    pair = SettingPair(x, y)
    return pair, CorrelationEstimate(
        pair=pair,
        counts=np.zeros((3, 3), dtype=np.int64),
        n_trials=1,
        raw_expectation=raw,
        raw_se=se,
        n_coincidences=1 if coincidence is not None else 0,
        coincidence_expectation=coincidence,
        coincidence_se=coincidence_se,
    )


# --- estimators -----------------------------------------------------------------


def test_constant_stream_estimate():
    stream = synthetic_stream([(0.0, 1.0, 1, 1)] * 4)
    est = estimate_correlations(stream)[SettingPair(0.0, 1.0)]
    assert est.raw_expectation == 1.0
    assert est.coincidence_expectation == 1.0
    assert est.raw_se == 0.0
    assert est.n_trials == 4
    assert est.counts.sum() == 4
    assert est.counts[2, 2] == 4


def test_alternating_anticorrelated_stream():
    rows = [(0.0, 0.0, 1, -1), (0.0, 0.0, -1, 1)] * 10
    est = estimate_correlations(synthetic_stream(rows))[SettingPair(0.0, 0.0)]
    assert est.raw_expectation == -1.0
    assert est.coincidence_expectation == -1.0


def test_zero_coincidence_pair_keeps_raw_and_flags_conditional():
    rows = [(0.0, 0.0, 1, 0), (0.0, 0.0, -1, 0)] * 5
    est = estimate_correlations(synthetic_stream(rows))[SettingPair(0.0, 0.0)]
    assert est.raw_expectation == 0.0
    assert est.coincidence_expectation is None
    with pytest.raises(IncompleteDesignError):
        est.expectation("coincidence")


def test_estimator_matches_malus_curve_at_moderate_n():
    model = MalusModel()
    theta = PI / 6
    stream = run_experiment(model, SettingsSchedule("cycle", (0.0,), (theta,)), 200000, 31)
    est = estimate_correlations(stream)[SettingPair(0.0, theta)]
    target = -0.5 * math.cos(2 * theta)
    assert abs(est.raw_expectation - target) < 4 * est.raw_se


def test_angles_equal_modulo_two_pi_count_every_trial():
    rows = [(0.0, B, 1, 1), (2 * PI, B, -1, 1), (0.0, BP, 1, 0), (2 * PI, BP, 0, -1)] * 250
    stream = synthetic_stream(rows)
    estimates = estimate_correlations(stream)
    assert list(estimates) == [SettingPair(0.0, B), SettingPair(0.0, BP)]
    assert sum(est.n_trials for est in estimates.values()) == len(rows)
    assert estimates[SettingPair(0.0, B)].raw_expectation == 0.0
    report = no_signaling_report(stream)
    (a_raw,) = [t for t in report.raw_tests if t.name.startswith("raw-singles:A")]
    assert a_raw.n == len(rows)
    assert a_raw.details["counts"] == [[250, 0, 250], [0, 250, 250]]


def test_empty_stream_rejected():
    with pytest.raises(InsufficientDataError):
        estimate_correlations(records([], [], [], []))


# --- CHSH -----------------------------------------------------------------------


def test_chsh_of_zero_expectations_is_zero():
    estimates = dict(
        make_estimate(x, y, 0.0) for x, y in [(A, B), (A, BP), (AP, B), (AP, BP)]
    )
    assert chsh(estimates, A, AP, B, BP, "raw").s_value == 0.0


def test_chsh_of_cosine_law_reaches_tsirelson_value():
    estimates = dict(
        make_estimate(x, y, -math.cos(2 * (x - y)))
        for x, y in [(A, B), (A, BP), (AP, B), (AP, BP)]
    )
    result = chsh(estimates, A, AP, B, BP, "raw")
    assert result.s_value == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert abs(result.s_value) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_chsh_of_sign_model_saturates_classical_bound():
    # deterministic sign responses enumerated on a 720-cell angle grid
    phi = (np.arange(720) + 0.5) * (PI / 720)

    def expectation(x, y):
        a = np.sign(np.cos(2 * (phi - x)))
        b = np.sign(np.cos(2 * (phi + PI / 2 - y)))
        return float(np.mean(a * b))

    estimates = dict(
        make_estimate(x, y, expectation(x, y))
        for x, y in [(A, B), (A, BP), (AP, B), (AP, BP)]
    )
    result = chsh(estimates, A, AP, B, BP, "raw")
    assert abs(result.s_value) == pytest.approx(2.0, abs=1e-12)


def test_chsh_missing_pair_is_an_error():
    estimates = dict(make_estimate(x, y, 0.5) for x, y in [(A, B), (A, BP), (AP, B)])
    with pytest.raises(IncompleteDesignError):
        chsh(estimates, A, AP, B, BP)


def test_chsh_undefined_coincidence_is_an_error():
    estimates = dict(
        make_estimate(x, y, 0.5) for x, y in [(A, B), (A, BP), (AP, B), (AP, BP)]
    )
    with pytest.raises(IncompleteDesignError):
        chsh(estimates, A, AP, B, BP, "coincidence")


def test_chsh_se_is_quadrature_sum():
    estimates = dict(
        make_estimate(x, y, 0.0, se=0.1)
        for x, y in [(A, B), (A, BP), (AP, B), (AP, BP)]
    )
    assert chsh(estimates, A, AP, B, BP).se == pytest.approx(0.2)


# --- shared-space bound ------------------------------------------------------------


def test_lhv_enumeration_returns_exactly_two():
    result = lhv_bound_enumeration()
    assert result.max_abs_s == 2.0
    assert len(result.vertices) == 16
    assert all(row[4] in (-2, 2) for row in result.vertices)


def test_lhv_enumeration_bob_flip_negates_s():
    result = lhv_bound_enumeration()
    table = {row[:4]: row[4] for row in result.vertices}
    for (aa, ap, bb, bp), s in table.items():
        assert table[(aa, ap, -bb, -bp)] == -s


def test_shared_space_streams_respect_the_bound():
    for seed in range(6):
        model = shared_space_model(np.random.default_rng(seed))
        schedule = SettingsSchedule("random", (A, AP), (B, BP), seed=seed + 100)
        stream = run_experiment(model, schedule, 40000, master_seed=seed)
        result = chsh(estimate_correlations(stream), A, AP, B, BP, "raw")
        assert abs(result.s_value) <= 2.0 + 5.0 * result.se


def test_shared_space_expectations_match_enumeration():
    model = shared_space_model(np.random.default_rng(8))
    schedule = SettingsSchedule("random", (A, AP), (B, BP), seed=9)
    stream = run_experiment(model, schedule, 80000, master_seed=10)
    for pair, est in estimate_correlations(stream).items():
        exact = pair_expectation(model, pair.x, pair.y)
        assert abs(est.raw_expectation - exact) < 4 * max(est.raw_se, 1e-6)


# --- no-signaling reports ------------------------------------------------------------


def test_exact_equal_counts_give_p_one():
    rows = []
    for y in (B, BP):
        rows += [(A, y, 1, 1)] * 10 + [(A, y, -1, 1)] * 5 + [(A, y, 0, 1)] * 5
    report = no_signaling_report(synthetic_stream(rows))
    a_raw = [t for t in report.raw_tests if t.name.startswith("raw-singles:A")]
    assert len(a_raw) == 1
    assert a_raw[0].p_value == 1.0
    assert not a_raw[0].reject


def test_selective_model_signals_only_after_postselection():
    model = SelectiveModel(sharpness=2.0, asymmetry=0.25)
    schedule = SettingsSchedule("random", (A, AP), (B, BP), seed=4)
    stream = run_experiment(model, schedule, 200000, master_seed=6)
    report = no_signaling_report(stream, alpha_raw=0.01, alpha_postselected=0.001)
    assert not report.any_raw_rejection()
    assert report.any_postselected_rejection()


def test_insufficient_design_raises():
    rows = [(A, B, 1, 1)] * 100
    with pytest.raises(InsufficientDataError):
        no_signaling_report(synthetic_stream(rows))


def test_shuffled_bob_column_factorizes_coincidences():
    model = SelectiveModel(sharpness=2.0, asymmetry=0.25)
    stream = run_experiment(model, SettingsSchedule("cycle", (A,), (B,)), 300000, 15)
    rng = np.random.default_rng(0)
    shuffled = records(stream.x, stream.y, stream.a, rng.permutation(stream.b), stream.trial)
    est = estimate_correlations(shuffled)[SettingPair(A, B)]
    mask = (shuffled.a != 0) & (shuffled.b != 0)
    m_a = float(shuffled.a[mask].mean())
    m_b = float(shuffled.b[mask].mean())
    assert est.coincidence_expectation == pytest.approx(m_a * m_b, abs=5 * est.coincidence_se)


# --- quadrature curves and sweep ------------------------------------------------------


def test_malus_quadrature_recovers_half_cosine():
    curves = model_curves(MalusModel(), 0.0, PI / 8)
    assert curves["raw_expectation"] == pytest.approx(-0.5 * math.cos(PI / 4), abs=1e-9)
    assert curves["coincidence_expectation"] == curves["raw_expectation"]
    assert curves["detection_rate"] == pytest.approx(1.0, abs=1e-12)


def test_malus_raw_chsh_is_sqrt_two():
    s = quadrature_chsh(MalusModel(), mode="raw")
    assert abs(s) == pytest.approx(math.sqrt(2), abs=1e-9)


def untiled_curves(model, x, y, n_points):
    """`model_curves` as one whole-length pass, the reference its tiles must equal."""
    phi = (np.arange(n_points) + 0.5) * (math.pi / n_points)
    da = phi - x
    db = phi + math.pi / 2 - y
    ca = np.cos(2.0 * da)
    cb = np.cos(2.0 * db)
    w = model.survival(da, cos2=ca) * model.survival(db, cos2=cb)
    total = float(np.sum(w))
    if total <= 0.0:
        raise InsufficientDataError("joint detection rate vanishes")
    product = float(np.sum(w * ca * cb))
    return {
        "raw_expectation": product / n_points,
        "coincidence_expectation": product / total,
        "detection_rate": total / n_points,
        "postselected_marginal_a": float(np.sum(w * ca)) / total,
        "postselected_marginal_b": float(np.sum(w * cb)) / total,
    }


def curve_bits(curves, model, x, y, n_points):
    """Each value's float.hex, or the error's type, so equality means the same bits."""
    try:
        return {k: float(v).hex() for k, v in curves(model, x, y, n_points).items()}
    except InsufficientDataError as exc:
        return type(exc)


CURVE_PAIRS = ((A, B), (A, BP), (AP, B), (AP, BP))
CURVE_MODELS = [MalusModel()] + [
    SelectiveModel(d, asym) for d in (0.5, 1.5, 3.0, 8.0) for asym in (0.0, 0.25, 1.0)
]


@pytest.mark.parametrize(
    "n_points", [1, 7, analysis.TILE - 1, analysis.TILE, analysis.TILE + 1, 2 * analysis.TILE + 3]
)
def test_model_curves_equal_the_untiled_reference_bit_for_bit(n_points):
    for model in CURVE_MODELS:
        for x, y in CURVE_PAIRS:
            want = curve_bits(untiled_curves, model, x, y, n_points)
            assert curve_bits(model_curves, model, x, y, n_points) == want, (model, x, y)


def test_model_curves_at_the_default_grid_equal_the_untiled_reference():
    for model in (MalusModel(), SelectiveModel(3.0, 0.25)):
        for x, y in CURVE_PAIRS:
            want = curve_bits(untiled_curves, model, x, y, 200_001)
            assert curve_bits(model_curves, model, x, y, 200_001) == want, (model, x, y)


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_model_curves_do_not_depend_on_the_tile_size(monkeypatch, tile):
    monkeypatch.setattr(analysis, "TILE", tile)
    for model in (MalusModel(), SelectiveModel(1.5, 0.25), SelectiveModel(3.0, 1.0)):
        for x, y in CURVE_PAIRS:
            for n_points in (1, 2, 3, 6, 7, 8, 22):
                want = curve_bits(untiled_curves, model, x, y, n_points)
                assert curve_bits(model_curves, model, x, y, n_points) == want, (model, n_points)


def test_quadrature_memory_stays_at_its_four_sums():
    # nine whole-grid float temporaries of 200,001 points put this peak at about
    # 13.7 MiB; tiles leave the four summed arrays, 6.1 MiB, and one tile's work
    model = SelectiveModel(3.0, 0.25)
    quadrature_chsh(model)
    tracemalloc.start()
    try:
        quadrature_chsh(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak


def test_sweep_reports_both_routes_and_monotone_optimum():
    result = calibration_sweep(
        d_grid=(0.0, 1.0, 2.0),
        trials_per_point=20000,
        master_seed=3,
        asymmetry=0.25,
    )
    assert len(result.rows) == 3
    d0 = result.rows[0]
    assert abs(d0.s_quadrature) == pytest.approx(math.sqrt(2), abs=1e-6)
    assert abs(d0.s_monte_carlo - d0.s_quadrature) < 0.05
    assert abs(result.best.s_quadrature) >= abs(d0.s_quadrature)
    assert result.best.sharpness == 2.0
    for row in result.rows:
        assert row.discrepancy == abs(row.s_quadrature - row.s_monte_carlo)


def test_sweep_rejects_empty_grid():
    with pytest.raises(InsufficientDataError):
        calibration_sweep(d_grid=())


SWEEP_GRIDS = {"d0-asymmetry0": ((0.0, 2.0), 0.0), "asymmetry0.25": ((0.0, 1.5, 3.0), 0.25)}


def small_sweep(grid):
    d_grid, asymmetry = SWEEP_GRIDS[grid]
    return calibration_sweep(d_grid, trials_per_point=3000, master_seed=7, asymmetry=asymmetry)


def recording_threads(monkeypatch) -> list:
    """Patch the sweep's `run_counts` to note the thread of every job it runs."""
    idents = []

    def noting(*args, **kwargs):
        idents.append(threading.get_ident())
        return run_counts(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_counts", noting)
    return idents



@pytest.mark.parametrize("grid", SWEEP_GRIDS)
def test_sweep_does_not_depend_on_the_thread_count(grid, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    results = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(analysis, "SWEEP_THREADS", threads)
        before = threading.active_count()
        idents = recording_threads(monkeypatch)
        results.append(small_sweep(grid))
        assert threading.active_count() == before
        assert len(idents) == 4 * len(SWEEP_GRIDS[grid][0])
        assert 1 <= len(set(idents)) <= threads and threading.get_ident() not in idents
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize(
    "affinity, cpu_count", [({0}, 8), (None, 1), (None, None)], ids=["affinity", "count", "unknown"]
)
def test_one_usable_cpu_runs_the_sweep_on_one_thread(affinity, cpu_count, monkeypatch):
    expected = small_sweep("asymmetry0.25")
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    idents = recording_threads(monkeypatch)
    assert small_sweep("asymmetry0.25") == expected
    assert len(idents) == 12 and len(set(idents)) == 1


def test_a_failing_sweep_job_raises_its_own_exception_and_cancels_the_rest(monkeypatch):
    boom = RuntimeError("job (0, 1) failed")
    started = []

    def failing(model, schedule, n_trials, master_seed):
        started.append(master_seed)
        if master_seed[1:] == (0, 1):
            raise boom
        time.sleep(0.1)
        return run_counts(model, schedule, n_trials, master_seed)

    monkeypatch.setattr(analysis, "run_counts", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        small_sweep("asymmetry0.25")
    assert caught.value is boom
    assert threading.active_count() == before
    assert (7, 0, 1) in started and len(started) < 12, started


def test_chsh_result_guards_algebraic_maximum():
    with pytest.raises(ValueError):
        ChshResult((0, 1, 2, 3), "raw", 4.5, 0.0, (1, -1, 1, 1))
