"""Properties of the outcome-count tensor that every Bell estimate derives from."""

import math
import struct
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contextlab import simulate
from contextlab.analysis import estimate_correlations, no_signaling_report
from contextlab.errors import InsufficientDataError
from contextlab.models import SettingPair, normalize_angle, random_model
from contextlab.simulate import (
    PairCounts,
    SelectiveModel,
    SettingsSchedule,
    run_counts,
    run_experiment,
)
from stream_records import records

PI = math.pi
TWO_PI = 2 * PI

# raw angles that include negatives and pairs naming one setting modulo 2*pi
ANGLES = (0.0, TWO_PI, -TWO_PI, PI / 8, PI / 8 + TWO_PI, -PI / 4, 7 * PI / 4, 1.0, -1.0)
OUTCOMES = (-1, 0, 1)
# the old two-pass numpy standard deviation carries a few ulps of rounding
NUMPY_SE_RTOL = 64 * np.finfo(float).eps

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

trial_rows = st.lists(
    st.tuples(
        st.sampled_from(ANGLES),
        st.sampled_from(ANGLES),
        st.sampled_from(OUTCOMES),
        st.sampled_from(OUTCOMES),
    ),
    min_size=1,
    max_size=200,
)


def as_stream(rows):
    return records(*zip(*rows))


def per_pair(counts: PairCounts) -> list:
    """((x, y), 3x3 counts) for every occurring pair, in first-appearance order."""
    return [((pair.x, pair.y), cell.tolist()) for pair, cell in zip(counts.pairs, counts.counts)]


def estimate_fields(estimates) -> list:
    return [
        (pair, est.counts.tolist(), est.n_trials, est.raw_expectation, est.raw_se,
         est.n_coincidences, est.coincidence_expectation, est.coincidence_se)
        for pair, est in estimates.items()
    ]


def same_bits(u: float, v: float) -> bool:
    return struct.pack("<d", u) == struct.pack("<d", v)


def exact_se(n: int, s1: int, s2: int) -> Decimal:
    """The standard error of n values with sum s1 and sum of squares s2, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(n * s2 - s1 * s1) / Decimal(n * n * (n - 1))).sqrt()


@PROPERTY
# slices of a few rows, whose settings tables outgrow every slice, and longer
# slices that hold the whole stream or several pairs' first appearances
@given(trial_rows, st.one_of(st.integers(1, 8), st.integers(1, 250)))
@example([(x, y, 1, -1) for x in ANGLES for y in ANGLES[:3]], 5)
@example([(0.0, TWO_PI, 0, 1), (PI / 8, 1.0, -1, -1), (-TWO_PI, 0.0, 1, 0)] * 4, 200)
def test_fold_equals_per_trial_counting(rows, slice_rows):
    brute: dict = {}
    for x, y, a, b in rows:
        cell = brute.setdefault((normalize_angle(x), normalize_angle(y)), np.zeros((3, 3), int))
        cell[a + 1, b + 1] += 1
    with pytest.MonkeyPatch.context() as patch:  # from_stream folds this many rows at a time
        patch.setattr(simulate, "TILE", slice_rows)
        folded = PairCounts.from_stream(as_stream(rows))
    assert per_pair(folded) == [(key, cell.tolist()) for key, cell in brute.items()]
    assert len(folded) == len(rows)
    assert all(type(pair) is SettingPair for pair in folded.pairs)
    assert all(0.0 <= v < TWO_PI for pair in folded.pairs for v in (pair.x, pair.y))
    assert len(set(folded.pairs)) == len(folded.pairs)
    assert folded.pairs == tuple(SettingPair(x, y) for x, y in brute)
    assert list(estimate_correlations(folded)) == list(folded.pairs)


def test_fold_memory_stays_at_one_slice_not_the_stream():
    # folding the stream whole put this peak at about 12 MiB, and 65,536-row slices
    # at 3.1 MiB.  from_stream folds TILE rows at a time, and its peak is while
    # _index sorts a slice's y settings.  In TILE-row int64 arrays, alive then are:
    # this slice's xi (1); np.unique's flattened copy, argsort, sorted copy, cumsum
    # less one and inverse (5); and its boolean mask (1/8).  The bound allows 7/8 of one array more for the small objects; it
    # measured 6.36 arrays with numpy 2.4, and the count of 5 is numpy's own
    # np.unique internals, so another numpy release may move it.
    schedule = SettingsSchedule("random", (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=1)
    stream = run_experiment(SelectiveModel(3.0, 0.25), schedule, 4 * 65536, 1)
    PairCounts.from_stream(as_stream([(0.0, 0.0, 1, 1)]))
    tracemalloc.start()
    try:
        PairCounts.from_stream(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * simulate.TILE * 8, peak


def test_fold_memory_is_linear_in_a_stream_of_distinct_settings():
    # binning every pair of the settings tables peaked at 144 MB for these 1,000
    # distinct settings, quadratic in their number; the pairs that occur take 0.7 MB
    rng = np.random.default_rng(39)
    stream = records(rng.random(1000) * 6, rng.random(1000) * 6, *rng.integers(-1, 2, (2, 1000)))
    PairCounts.from_stream(as_stream([(0.0, 0.0, 1, 1)]))
    tracemalloc.start()
    try:
        folded = PairCounts.from_stream(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert folded.counts.shape == (1000, 3, 3) and len(folded) == 1000
    assert peak < 8 * 2**20, peak


def finite_case(seed):
    model = random_model(np.random.default_rng(seed))
    return model, model.alice_settings, model.bob_settings


def continuous_case(sharpness):
    return SelectiveModel(sharpness, 0.25), (0.0, PI / 4, -PI / 8), (PI / 8, 3 * PI / 8)


@settings(PROPERTY, max_examples=60)
@given(
    case=st.one_of(
        st.builds(finite_case, st.integers(0, 2**16)),
        st.builds(continuous_case, st.sampled_from((0.0, 1.5, 3.0))),
    ),
    mode=st.sampled_from(("random", "cycle")),
    n_trials=st.integers(1, 1500),
    chunk_size=st.integers(1, 600),
    seed=st.integers(0, 2**16),
)
def test_run_counts_equals_folding_run_experiment(case, mode, n_trials, chunk_size, seed):
    model, xs, ys = case
    schedule = SettingsSchedule(mode, xs, ys, seed=seed + 1)
    counts = run_counts(model, schedule, n_trials, seed, chunk_size)
    stream = run_experiment(model, schedule, n_trials, seed, chunk_size)
    folded = PairCounts.from_stream(stream)
    assert set(counts.pairs) <= {SettingPair(x, y) for x in xs for y in ys}
    assert counts.pairs == folded.pairs
    assert counts.counts.dtype == folded.counts.dtype
    assert np.array_equal(counts.counts, folded.counts)
    assert estimate_fields(estimate_correlations(counts)) == estimate_fields(
        estimate_correlations(stream)
    )
    try:
        expected = [t.to_dict() for t in no_signaling_report(stream).all_tests()]
    except InsufficientDataError:
        expected = None
    try:
        got = [t.to_dict() for t in no_signaling_report(counts).all_tests()]
    except InsufficientDataError:
        got = None
    assert got == expected


def check_mean_and_se(mean, se, products):
    """`mean` is numpy's mean of the integer products bit for bit; `se` is
    within one ulp of the exact standard error and close to the old estimate."""
    n = len(products)
    assert same_bits(mean, float(products.mean()))
    if n == 1:
        assert se == 0.0
        return
    exact = exact_se(n, int(products.sum()), int(np.sum(products * products)))
    assert abs(Decimal(se) - exact) < Decimal(math.ulp(se))
    old = float(products.astype(float).std(ddof=1) / math.sqrt(n))
    assert math.isclose(se, old, rel_tol=NUMPY_SE_RTOL)


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from((0.0, PI / 4)), st.sampled_from(OUTCOMES), st.sampled_from(OUTCOMES)
        ),
        min_size=1,
        max_size=400,
    )
)
def test_estimates_from_counts_match_masked_numpy(rows):
    x = np.array([r[0] for r in rows])
    a = np.array([r[1] for r in rows], dtype=np.int64)
    b = np.array([r[2] for r in rows], dtype=np.int64)
    y = np.full(len(x), PI / 8)
    estimates = estimate_correlations(records(x, y, a, b))
    assert sum(est.n_trials for est in estimates.values()) == len(rows)
    for pair, est in estimates.items():
        products = (a * b)[x == pair.x]
        check_mean_and_se(est.raw_expectation, est.raw_se, products)
        clicked = products[products != 0]
        assert est.n_coincidences == len(clicked)
        if len(clicked):
            check_mean_and_se(est.coincidence_expectation, est.coincidence_se, clicked)
        else:
            assert est.coincidence_expectation is None and est.coincidence_se is None
