import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from contextlab.errors import ConfigError, InsufficientDataError
from contextlab.randtests import (
    autocorrelation_test,
    binomial_pmf,
    block_variance_test,
    chi_square_table,
    chi_square_tails,
    encode_binary,
    exact_binomial_p_value,
    frequency_test,
    homogeneity_test,
    homogeneity_test_groups,
    inhomogeneity_breakdown_demo,
    runs_test,
    ternary_to_indicators,
    two_proportion_test,
)


def iid_stream(n, p, seed):
    return (np.random.default_rng(seed).random(n) < p).astype(np.uint8)


# --- encoding -------------------------------------------------------------------


def test_encode_binary_coin_symbols_default_to_blue():
    bits = encode_binary(np.array(["B", "R", "B"]))
    assert bits.tolist() == [1, 0, 1]


def test_encode_binary_plus_minus_and_bool():
    assert encode_binary(np.array([-1, 1, 1])).tolist() == [0, 1, 1]
    assert encode_binary(np.array([True, False])).tolist() == [1, 0]


def test_encode_binary_rejects_three_symbols():
    with pytest.raises(InsufficientDataError):
        encode_binary(np.array(["a", "b", "c"]))


@pytest.mark.parametrize(
    "stream, bits",
    [
        (["R"] * 4, [0] * 4),
        (["B"] * 4, [1] * 4),
        ([-1] * 4, [0] * 4),
        ([1] * 4, [1] * 4),
        ([0] * 4, [0] * 4),
        ([0.0, 1.0], [0, 1]),
        ([False] * 4, [0] * 4),
    ],
)
def test_one_symbol_streams_keep_their_success_symbol(stream, bits):
    assert encode_binary(np.array(stream)).tolist() == bits


@pytest.mark.parametrize(
    "stream",
    [
        [-1, 0, 1], [-1, 0], [0, 2], [0.5, 1.0], ["B", "X"], ["a", "b"], [math.nan],
        np.array(["B", 1], dtype=object),  # np.unique cannot sort these: no TypeError escapes
        [1 + 0j, 0],  # complex symbols, which sorted() cannot order
    ],
)
def test_encode_binary_refuses_other_alphabets(stream):
    with pytest.raises(InsufficientDataError):
        encode_binary(np.array(stream))


def test_all_red_and_all_blue_streams_are_told_apart():
    red, blue = np.full(100, "R"), np.full(100, "B")
    assert frequency_test(red).details == {"count": 0, "frequency": 0.0, "p0": 0.5}
    assert frequency_test(blue).details == {"count": 100, "frequency": 1.0, "p0": 0.5}
    report = homogeneity_test_groups([red, blue])
    assert report.details["frequencies"] == [0.0, 1.0] and report.reject


def test_ternary_indicators_partition_the_stream():
    values = np.array([-1, 0, 1, 1, 0, -1])
    ind = ternary_to_indicators(values)
    assert ind[1].tolist() == [0, 0, 1, 1, 0, 0]
    assert (ind[-1] + ind[0] + ind[1]).tolist() == [1] * 6


# --- runs test -------------------------------------------------------------------


def test_alternating_stream_rejected_with_large_z():
    stream = np.tile([1, 0], 50)  # 100 symbols, 100 runs
    report = runs_test(stream)
    assert report.details["runs"] == 100
    assert report.details["expected"] == pytest.approx(51.0)
    # z = (100 - 51) / sqrt(2*50*50*(2*50*50-100) / (100^2 * 99))
    assert report.statistic == pytest.approx(9.8499, abs=1e-3)
    assert report.reject


def test_single_symbol_stream_is_degenerate_exact():
    report = runs_test(np.ones(50, dtype=np.uint8))
    assert report.p_value == 0.0
    assert report.reject
    assert report.null_ref == "degenerate-exact"
    assert report.details == {"runs": 1, "n1": 50, "n2": 0, "degenerate": True}


def test_exact_runs_distribution_matches_brute_force():
    # every arrangement of 3 ones and 3 zeros, enumerated directly
    n1, n2 = 3, 3
    counts = {}
    for arrangement in itertools.permutations([1, 1, 1, 0, 0, 0]):
        runs = 1 + sum(a != b for a, b in zip(arrangement, arrangement[1:]))
        counts[runs] = counts.get(runs, 0) + 1
    total = sum(counts.values())
    for r_obs in range(2, 7):
        lower = sum(c for r, c in counts.items() if r <= r_obs) / total
        upper = sum(c for r, c in counts.items() if r >= r_obs) / total
        expected_p = min(1.0, 2 * min(lower, upper))
        stream = [1] * 0  # build a concrete stream with r_obs runs
        ones_left, zeros_left = n1, n2
        stream = []
        symbol = 1
        # r_obs blocks alternating, sized to use up all symbols
        blocks = [1] * r_obs
        extra_ones = n1 - (r_obs + 1) // 2
        extra_zeros = n2 - r_obs // 2
        blocks[0] += extra_ones
        blocks[1 if r_obs > 1 else 0] += extra_zeros
        for i, size in enumerate(blocks):
            stream += [1 - (i % 2)] * size
        report = runs_test(np.array(stream))
        assert report.null_ref == "exact-combinatorial"
        assert set(report.details) == {"runs", "expected", "n1", "n2"}
        assert report.details["runs"] == r_obs
        assert report.p_value == pytest.approx(expected_p, abs=1e-12)


def test_runs_test_calibration_under_null():
    rejections = sum(
        runs_test(iid_stream(10000, 0.5, seed), alpha=0.01).reject for seed in range(400)
    )
    assert 0.0 <= rejections / 400 <= 0.025


# --- frequency test -----------------------------------------------------------------


def test_balanced_stream_accepts_p_half():
    stream = np.tile([1, 0], 5000)
    report = frequency_test(stream, 0.5)
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert not report.reject


def test_forty_percent_stream_rejects_with_z_twenty():
    stream = np.concatenate([np.ones(4000, dtype=np.uint8), np.zeros(6000, dtype=np.uint8)])
    report = frequency_test(stream, 0.5)
    assert report.statistic == pytest.approx(-20.0, abs=1e-9)
    assert report.reject


def test_small_sample_uses_exact_binomial():
    stream = np.array([1] * 15 + [0] * 5)
    report = frequency_test(stream, 0.5)
    assert report.null_ref.startswith("binomial")
    assert report.p_value == pytest.approx(sstats.binomtest(15, 20, 0.5).pvalue)


def test_frequency_rejects_bad_p0():
    with pytest.raises(InsufficientDataError):
        frequency_test(np.ones(100, dtype=np.uint8), 1.0)


# --- block variance test --------------------------------------------------------------


def test_constant_block_counts_flag_underdispersion():
    # 30 blocks of 100 with exactly 50 ones each: zero dispersion
    block = np.array(([1] * 50 + [0] * 50))
    stream = np.tile(block, 30)
    report = block_variance_test(stream, 100)
    assert report.details["variance_ratio"] == 0.0
    assert report.reject
    assert report.p_value < 1e-10


def test_two_regime_blocks_flag_overdispersion():
    rng = np.random.default_rng(2)
    stream = np.concatenate(
        [(rng.random(5000) < 0.4).astype(np.uint8), (rng.random(5000) < 0.6).astype(np.uint8)]
    )
    report = block_variance_test(stream, 100)
    assert report.details["variance_ratio"] > 1.5
    assert report.reject


def test_iid_blocks_accept():
    report = block_variance_test(iid_stream(10000, 0.5, 3), 100)
    assert not report.reject
    assert report.details["variance_ratio"] == pytest.approx(1.0, abs=0.35)


def test_block_variance_preconditions():
    with pytest.raises(InsufficientDataError):
        block_variance_test(iid_stream(2000, 0.5, 1), 100)  # only 20 blocks
    report = block_variance_test(np.ones(5000, dtype=np.uint8), 100)  # single-symbol: degenerate
    assert (report.null_ref, report.p_value, report.reject, report.n) == ("degenerate-exact", 0.0, True, 5000)
    assert report.details == {"blocks": 50, "block_size": 100, "degenerate": True}


# --- homogeneity test ------------------------------------------------------------------


def test_planted_shift_detected():
    rng = np.random.default_rng(5)
    stream = np.concatenate(
        [(rng.random(5000) < 0.45).astype(np.uint8), (rng.random(5000) < 0.55).astype(np.uint8)]
    )
    assert homogeneity_test(stream, 10).reject


def test_iid_stream_is_homogeneous():
    assert not homogeneity_test(iid_stream(10000, 0.5, 11), 10).reject


def test_homogeneity_groups_api_and_preconditions():
    g1, g2 = iid_stream(500, 0.5, 1), iid_stream(500, 0.5, 2)
    report = homogeneity_test_groups([g1, g2])
    assert report.details["groups"] == 2
    with pytest.raises(InsufficientDataError):
        homogeneity_test_groups([g1])
    with pytest.raises(InsufficientDataError):
        homogeneity_test(iid_stream(400, 0.5, 1), 10)  # sub-samples of 40 < 50


def test_chi_square_drops_empty_categories():
    stat, dof, p = chi_square_table([[10, 0], [20, 0]])
    assert (stat, dof, p) == (0.0, 0, 1.0)


# --- p-values against mpmath ----------------------------------------------------------

PROPERTY = settings(
    max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
REL_TOL = 2e-13  # relative error allowed against the 50-digit reference
FLOOR = 1e-300  # below it only smallness is checked


def mp_tails(dof, stat):
    """Chi-square P and Q at 50 digits, each from its own integral (1 - Q cancels)."""
    with mpmath.workdps(50):
        a, x = mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2
        lower = mpmath.gammainc(a, 0, x, regularized=True)
        upper = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    return lower, upper


def relative_error(got, ref):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - ref) / ref)


def assert_matches_reference(got, ref):
    if ref >= FLOOR:
        assert relative_error(got, ref) <= REL_TOL, (got, ref)
    else:
        assert 0.0 <= got < 1.001 * FLOOR


def mp_ndtri(p):
    with mpmath.workdps(50):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def reference_chi_square_table(counts):
    table = np.asarray(counts, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, 0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat, (table.shape[0] - 1) * (table.shape[1] - 1)


@st.composite
def count_tables(draw):
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 8))
    cell = st.one_of(st.integers(0, 20), st.integers(0, 10**6))
    row = st.lists(cell, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@PROPERTY
@given(count_tables())
@example([[10, 30], [30, 10]])  # dof 1, p far in the tail
@example([[1, 1], [1, 1]])  # statistic 0
@example(np.arange(2000).reshape(2, 1000) % 7 + 1)  # dof 999
def test_chi_square_table_equals_the_reference_with_mpmath_tails(counts):
    stat, dof, p = chi_square_table(counts)
    assert (stat, dof) == reference_chi_square_table(counts)
    if dof == 0:
        assert p == 1.0
    else:
        assert_matches_reference(p, mp_tails(dof, stat)[1])


@st.composite
def binary_streams(draw, min_size):
    """iid, blockwise-balanced (under-dispersed) or two-regime (over-dispersed) bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_size, 6000))
    kind = draw(st.sampled_from(("iid", "balanced", "regimes")))
    if kind == "iid":
        return (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(np.uint8)
    if kind == "balanced":
        return np.tile([1, 0], n // 2 + 1)[:n].astype(np.uint8)
    p = np.where(np.arange(n) < n // 2, 0.3, 0.7)
    return (rng.random(n) < p).astype(np.uint8)


@PROPERTY
@given(binary_streams(min_size=3000), st.integers(1, 100), st.sampled_from((0.01, 0.05)))
@example(np.tile([1, 0, 0, 1], 750).astype(np.uint8), 2, 0.01)  # dof 1499, every block balanced
@example(iid_stream(6000, 0.5, 3), 1, 0.01)  # dof 5999
@example(np.tile([1, 0], 3000).astype(np.uint8), 3, 0.01)  # dof 1999, lower tail near 1e-189
def test_block_variance_equals_the_reference_with_mpmath_tails(bits, block_size, alpha):
    if len(bits) // block_size < 30:
        block_size = len(bits) // 30
    report = block_variance_test(bits, block_size, alpha)
    m = len(bits) // block_size
    counts = bits[: m * block_size].reshape(m, block_size).sum(axis=1).astype(float)
    p_hat = float(counts.sum()) / (m * block_size)
    stat = float(((counts - block_size * p_hat) ** 2).sum() / (block_size * p_hat * (1.0 - p_hat)))
    assert (report.statistic, report.n, report.null_ref) == (
        stat, m * block_size, f"chi2(df={m - 1}), two-sided"
    )
    assert report.details == {
        "blocks": m, "block_size": block_size, "variance_ratio": stat / (m - 1), "p_hat": p_hat
    }
    lower, upper = mp_tails(m - 1, stat)
    assert_matches_reference(report.p_value, min(1, 2 * min(lower, upper)))
    assert report.reject == (report.p_value < alpha)


def exact_autocorrelations(bits, max_lag):
    # n * (bits - mean) is an integer vector, so its lagged dot products are exact
    scaled = len(bits) * bits.astype(np.int64) - int(bits.sum())
    zero_lag = int(np.dot(scaled, scaled))
    return [Fraction(int(np.dot(scaled[:-k], scaled[k:])), zero_lag) for k in range(1, max_lag + 1)]


@PROPERTY
@given(binary_streams(min_size=100), st.integers(1, 60), st.sampled_from((0.01, 0.05, 0.001)))
@example(np.tile([1, 0], 600).astype(np.uint8), 1, 0.01)  # dof 1, statistic far in the tail
def test_autocorrelation_equals_the_reference_with_mpmath_tail_and_band(bits, max_lag, alpha):
    assume(0 < bits.sum() < len(bits))
    max_lag = min(max_lag, len(bits) // 100)
    n = len(bits)
    report = autocorrelation_test(bits, max_lag, alpha)
    r = np.array([float(v) for v in exact_autocorrelations(bits, max_lag)])
    lags = np.arange(1, max_lag + 1)
    q = float(n * (n + 2.0) * np.sum(r**2 / (n - lags)))
    assert (report.statistic, report.n, report.null_ref) == (q, n, f"chi2(df={max_lag}) (Ljung-Box)")
    assert report.details["lags"] == lags.tolist()
    assert report.details["autocorrelations"] == r.tolist()
    assert_matches_reference(report.p_value, mp_tails(max_lag, q)[1])
    band = mp_ndtri(1.0 - alpha / 2.0) / mpmath.sqrt(n)
    assert_matches_reference(report.details["band"], band)


@st.composite
def chi_square_points(draw):
    """A dof in 1-6000 (small ones often) and a statistic up to 60 SD from it, or anywhere."""
    dof = draw(st.one_of(st.integers(1, 40), st.integers(1, 6000)))
    if draw(st.booleans()):
        z = draw(st.floats(-60.0, 60.0))
        return dof, max(0.0, dof + z * math.sqrt(2.0 * dof))
    return dof, draw(st.floats(0.0, 1e5))


@settings(max_examples=300, deadline=None, database=None)
@given(chi_square_points())
@example((25, 0.001))  # 1 - Q in 50 digits would lose the whole of P here
@example((120, 0.001))  # log1p(lam - 1) lost 3.9e-10 here
@example((19, 1450.0))  # x >= 700 with a < 10
@example((5999, 5999.0))
@example((1, 5e-324))  # stat / 2 underflowed to 0 here
@example((1, 1.5e-323))  # and lost a bit here: the lower tail was 15.5% off
def test_chi_square_tails_match_mpmath(point):
    dof, stat = point
    lower, upper = chi_square_tails(dof, stat)
    ref_lower, ref_upper = mp_tails(dof, stat)
    assert_matches_reference(lower, ref_lower)
    assert_matches_reference(upper, ref_upper)


def test_chi_square_tails_are_at_most_twice_as_far_from_mpmath_as_scipy():
    from scipy.special import chdtr, chdtrc

    dofs = (1, 2, 3, 5, 10, 19, 20, 21, 49, 120, 999, 2499, 5999)
    zs = (-30, -12, -3, -1, 0, 1, 3, 12, 30, 60)
    grid = {(d, max(0.001, d + z * math.sqrt(2.0 * d))) for d in dofs for z in zs}
    grid |= {(25, 0.001), (120, 0.001), (19, 1450.0), (1, 1400.0), (2, 1500.0)}
    ours = scipy = 0.0
    for dof, stat in sorted(grid):
        lower, upper = chi_square_tails(dof, stat)
        for got, theirs, ref in zip(
            (lower, upper), (chdtr(dof, stat), chdtrc(dof, stat)), mp_tails(dof, stat)
        ):
            if ref >= FLOOR:
                ours = max(ours, relative_error(got, ref))
                scipy = max(scipy, relative_error(float(theirs), ref))
    assert ours <= REL_TOL
    assert ours <= 2 * scipy


@pytest.mark.parametrize("dof", [1, 2, 19, 20, 49, 5999])
@pytest.mark.parametrize("stat", [0.0, 1e-300, 1e-3, 1.0, 20.0, 6000.0, 1e4, 1e6, 1e300])
def test_chi_square_tails_stay_in_the_unit_interval(dof, stat):
    lower, upper = chi_square_tails(dof, stat)
    assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
    if stat == 0.0:
        assert (lower, upper) == (0.0, 1.0)


@st.composite
def binomial_cases(draw):
    n = draw(st.integers(1, 29))
    return n, draw(st.integers(0, n)), draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@PROPERTY
@given(binomial_cases())
@example((20, 15, 0.5))
@example((7, 2, 0.25))  # pmf(1) == pmf(2) exactly
@example((3, 1, 1 / 3))  # n * p0 rounds to k
@example((29, 2, 1e-300))  # pmf(2) underflows
def test_exact_binomial_p_value_equals_the_rational_reference(case):
    n, k, p0 = case
    p = exact_binomial_p_value(k, n, p0)
    if k == n * p0:  # the rule's shortcut compares the float product
        assert p == 1.0
        return
    # the same rule in exact rationals from the float p0
    exact = [math.comb(n, i) * Fraction(p0) ** i * (1 - Fraction(p0)) ** (n - i) for i in range(n + 1)]
    counted = {i for i, q in enumerate(exact) if q <= exact[k] * Fraction(1.0 + 1e-7)}
    ref = min(Fraction(1), sum(exact[i] for i in counted))
    pmf = binomial_pmf(n, p0)
    if pmf[k] >= FLOOR:
        assert {i for i, q in enumerate(pmf) if q <= pmf[k] * (1.0 + 1e-7)} == counted
        assert abs(Fraction(p) - ref) <= Fraction(1e-13) * ref
    else:  # every counted outcome is at most about as likely as k, which underflowed
        assert 0.0 <= p < 31 * FLOOR


@settings(max_examples=500, deadline=None, database=None)
@given(st.floats(1e-10, 1.0 - 1e-10))
@example(0.5)
@example(1.0 - 0.01 / 2.0)
def test_normal_quantile_is_within_eight_ulps_of_mpmath(p):
    got = NormalDist().inv_cdf(p)
    ref = mp_ndtri(p)
    assert abs(mpmath.mpf(got) - ref) <= 8 * math.ulp(float(ref))


# --- autocorrelation test ----------------------------------------------------------------


def test_alternating_stream_has_perfect_negative_lag_one():
    stream = np.tile([1, 0], 600)
    report = autocorrelation_test(stream, max_lag=5)
    assert report.details["autocorrelations"][0] == pytest.approx(-1.0, abs=0.01)
    assert report.reject


def test_iid_autocorrelations_stay_inside_bands():
    report = autocorrelation_test(iid_stream(20000, 0.5, 21), max_lag=10)
    assert not report.reject
    inside = [
        abs(r) < report.details["band"] for r in report.details["autocorrelations"]
    ]
    assert sum(inside) >= 9


@PROPERTY
@given(binary_streams(min_size=100), st.integers(1, 60))
@example(iid_stream(12000, 0.3, 5), 10)  # long enough for a threaded BLAS dot
@example(np.tile([1, 0, 0], 400).astype(np.uint8), 3)  # mean 1/3 is not a float
def test_autocorrelations_are_the_exact_ratios_rounded_once(bits, max_lag):
    assume(0 < bits.sum() < len(bits))
    max_lag = min(max_lag, len(bits) // 100)
    report = autocorrelation_test(bits, max_lag)
    assert report.details["autocorrelations"] == [float(r) for r in exact_autocorrelations(bits, max_lag)]


def test_autocorrelation_preconditions():
    with pytest.raises(InsufficientDataError):
        autocorrelation_test(iid_stream(400, 0.5, 1), max_lag=5)
    report = autocorrelation_test(np.ones(1000, dtype=np.uint8), max_lag=5)  # single-symbol: degenerate
    assert (report.null_ref, report.p_value, report.reject, report.n) == ("degenerate-exact", 0.0, True, 1000)
    assert report.details == {"lags": [1, 2, 3, 4, 5], "degenerate": True}


# --- two-proportion test ----------------------------------------------------------------


def test_two_proportion_z_value():
    report = two_proportion_test(40, 100, 60, 100)
    assert report.statistic == pytest.approx(-2.8284, abs=1e-3)
    assert report.p_value == pytest.approx(0.004678, abs=1e-5)


def test_two_proportion_degenerate_pool():
    report = two_proportion_test(0, 50, 0, 70)
    assert report.p_value == 1.0
    assert not report.reject


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.01, 2.0, math.nan, math.inf])
def test_alpha_outside_the_open_unit_interval_is_refused(alpha):
    stream = iid_stream(1000, 0.5, 0)
    for test in (
        lambda: runs_test(stream, alpha),
        lambda: frequency_test(stream, 0.5, alpha),
        lambda: two_proportion_test(40, 100, 60, 100, alpha=alpha),
    ):
        with pytest.raises(ConfigError, match="alpha"):
            test()


# --- calibration (rejection rate at the null) ----------------------------------------------


@pytest.mark.parametrize(
    "runner",
    [
        lambda s: runs_test(s, alpha=0.01),
        lambda s: frequency_test(s, 0.5, alpha=0.01),
        lambda s: block_variance_test(s, 100, alpha=0.01),
        lambda s: homogeneity_test(s, 10, alpha=0.01),
        lambda s: autocorrelation_test(s, 10, alpha=0.01),
    ],
    ids=["runs", "frequency", "block-variance", "homogeneity", "autocorrelation"],
)
def test_null_rejection_rate_close_to_alpha(runner):
    rejections = sum(runner(iid_stream(10000, 0.5, seed)).reject for seed in range(300))
    assert rejections / 300 <= 0.025


# --- breakdown demonstration -----------------------------------------------------------------


def test_mixture_defeats_pooled_interval_but_not_homogeneity():
    report = inhomogeneity_breakdown_demo((0.4, 0.6), n=4000, seed=1, replications=200)
    assert max(report.coverage) < 0.05
    assert report.mean_pooled_estimate == pytest.approx(0.5, abs=0.01)
    assert report.homogeneity_rejection_rate > 0.95


def test_identical_regimes_behave_like_a_single_one():
    report = inhomogeneity_breakdown_demo((0.5, 0.5), n=4000, seed=2, replications=300)
    for cov in report.coverage:
        assert cov == pytest.approx(0.95, abs=0.04)
    assert report.homogeneity_rejection_rate < 0.05


def test_breakdown_requires_two_regimes():
    with pytest.raises(InsufficientDataError):
        inhomogeneity_breakdown_demo((0.5,), n=1000, seed=1)


def test_homogeneity_power_grows_with_regime_separation():
    n_half = 10000
    powers = []
    for delta in (0.02, 0.05, 0.1):
        rejections = 0
        for seed in range(150):
            rng = np.random.default_rng(900 + seed)
            stream = np.concatenate(
                [
                    (rng.random(n_half) < 0.5 - delta / 2).astype(np.uint8),
                    (rng.random(n_half) < 0.5 + delta / 2).astype(np.uint8),
                ]
            )
            rejections += homogeneity_test(stream, 10, alpha=0.01).reject
        powers.append(rejections / 150)
    assert powers[0] <= powers[1] <= powers[2]
    assert powers[2] > 0.9


# --- determinism -------------------------------------------------------------------------------


def test_identical_streams_give_identical_reports():
    stream = iid_stream(5000, 0.5, 123)
    assert runs_test(stream) == runs_test(stream.copy())
    assert frequency_test(stream, 0.5) == frequency_test(stream.copy())
