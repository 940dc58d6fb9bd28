import math
import os
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from contextlab.errors import ConfigError, IncompleteDesignError, InsufficientDataError
from contextlab.models import (
    SettingPair,
    pair_expectation,
    shared_space_model,
)
from contextlab.seeding import substream
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


@pytest.mark.parametrize("seed", range(4))
def test_estimate_moments_are_the_per_trial_sums(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    x, y = rng.choice([0.0, PI / 4], n), rng.choice([PI / 8, 3 * PI / 8], n)
    a, b = rng.choice([-1, 0, 1], (2, n), p=[0.4, 0.2, 0.4])
    for pair, est in estimate_correlations(records(x, y, a, b)).items():
        rows = (x == pair.x) & (y == pair.y)
        product = [int(u) * int(v) for u, v in zip(a[rows], b[rows])]
        n_coinc = sum(p * p for p in product)
        assert (est.n_trials, est.n_coincidences) == (int(rows.sum()), n_coinc)
        assert est.raw_expectation == sum(product) / est.n_trials
        if n_coinc:
            assert est.coincidence_expectation == sum(product) / n_coinc


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


@pytest.mark.parametrize(
    "settings, pair",
    [
        ((A, A + 2 * PI, B, BP), (A, B)),  # a = a' mod 2 pi: (a, b') has weight 0
        ((A, AP, B, B), (AP, B)),  # b = b': (a, b) has weight 0
    ],
    ids=["a=a'", "b=b'"],
)
@pytest.mark.parametrize("mode", ["raw", "coincidence"])
def test_chsh_counts_a_repeated_setting_pair_once(settings, pair, mode):
    # two terms that name one pair are one estimate: its SE enters once, times the
    # sum of their signs (2 for `pair`), and S is still the four terms' combination
    schedule = SettingsSchedule("random", (A, AP), (B, BP), seed=5)
    estimates = estimate_correlations(run_counts(SelectiveModel(2.0, 0.25), schedule, 20000, 3))
    result = chsh(estimates, *settings, mode=mode)
    terms = [estimates[SettingPair(x, y)].expectation(mode)[0] for x, y in analysis._chsh_pairs(*settings)]
    assert result.s_value == terms[0] - terms[1] + terms[2] + terms[3]
    assert result.se == 2 * estimates[SettingPair(*pair)].expectation(mode)[1]


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


def test_quadrature_chsh_refuses_an_unknown_mode():
    # any mode but "coincidence" was read as "raw"
    with pytest.raises(ValueError, match="mode must be 'raw' or 'coincidence'"):
        quadrature_chsh(MalusModel(), mode="postselected")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: substream(1.5, 0, 1), ConfigError, "seed must be an int or tuple of ints"),
        (lambda: substream("7", 0, 1), ConfigError, "seed must be an int or tuple of ints"),
        (lambda: substream((), 0, 1), ConfigError, "seed words must be nonnegative"),
        (lambda: substream((3, -1), 0, 1), ConfigError, "seed words must be nonnegative"),
        (lambda: substream(-1, 0, 1), ConfigError, "seed words must be nonnegative"),
        (lambda: substream(1, -1, 1), ConfigError, "chunk_index must be nonnegative"),
        (lambda: make_estimate(0.0, 1.0, 0.5)[1].expectation("both"), ValueError, "mode must be"),
    ],
    ids=["float-seed", "str-seed", "empty-seed", "negative-word", "negative-seed",
         "negative-chunk", "expectation-mode"],
)
def test_guards_no_command_reaches_refuse_their_input(call, error, message):
    # the CLI validates seeds and modes before these run, so only a library
    # caller meets these guards
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error


def test_substream_entropy_is_zero_padded_to_four_words():
    # SeedSequence pads short entropy with zeros, as the seeding docstring says
    padded = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 0, 0, 0))))
    expected = padded.random(3)
    assert np.array_equal(substream(5, 0, 0).random(3), expected)
    assert np.array_equal(substream((5, 0), 0, 0).random(3), expected)


def untiled_curves(model, x, y, nodes, tile=None):
    """The values of `model_curves`' tanh-sinh rule at `nodes` per panel, formed
    one panel at a time and `tile` nodes at a time (all of them by default).

    `model_curves` forms every panel's nodes in one array.  Its sums are
    `math.fsum`s, correctly rounded whatever the order of their terms, so the
    two must agree bit for bit when numpy's elementwise results do not depend
    on the layout of the arrays they come from."""
    q = PI / 4
    ends = sorted({s % q + k * q for s in (x, y) for k in range(4)})
    h = 2 * analysis._DE_SPAN / nodes
    tile = tile or nodes
    terms = [[], [], [], []]
    for a, b in zip(ends, ends[1:] + [ends[0] + PI]):
        m = (b - a) / 2
        for start in range(0, nodes, tile):
            t = [(k - (nodes - 1) / 2) * h for k in range(start, min(start + tile, nodes))]
            u = [(PI / 2) * math.sinh(tk) for tk in t]
            gap = np.array([2 / (math.exp(2 * abs(uk)) + 1) for uk in u])
            weight = m * np.array([(h / 2) * math.cosh(tk) / math.cosh(uk) ** 2 for tk, uk in zip(t, u)])
            phi = np.where(np.array(t) < 0, a + m * gap, b - m * gap)
            da, db = phi - x, phi + PI / 2 - y
            ca, cb = np.cos(2.0 * da), np.cos(2.0 * db)
            power = analysis._math_power
            w = model.survival(abs(np.cos(da)), abs(ca), power)
            w = w * model.survival(abs(np.cos(db)), abs(cb), power)
            for k, f in enumerate((w, w * ca * cb, w * ca, w * cb)):
                terms[k] += (f * weight).tolist()
    w, p, pa, pb = (math.fsum(v) for v in terms)
    return {
        "raw_expectation": p,
        "coincidence_expectation": p / w,
        "detection_rate": w,
        "postselected_marginal_a": pa / w,
        "postselected_marginal_b": pb / w,
    }


def curve_bits(model, x, y, n_points, tile=None):
    """(model_curves' values, the untiled reference's at the nodes it ended
    with), each value as float.hex so equality means the same bits; or the
    error's type for both."""
    try:
        curves = model_curves(model, x, y, n_points)
    except InsufficientDataError as exc:
        return type(exc), type(exc)
    want = untiled_curves(model, x, y, curves["nodes"], tile)
    return ({k: float(v).hex() for k, v in want.items()},
            {k: float(curves[k]).hex() for k in want})


CURVE_PAIRS = ((A, B), (A, BP), (AP, B), (AP, BP))
CURVE_MODELS = [MalusModel()] + [
    SelectiveModel(d, asym) for d in (0.5, 1.5, 3.0, 8.0) for asym in (0.0, 0.25, 1.0)
]


# The first rule's nodes per panel.  These sizes straddled the tiles of the
# midpoint rule this quadrature replaced (TILE 8,192, then 16,384); they stay
# as rules of one node per panel (refined to 64), of a few, and of thousands,
# odd and even, where every node of the first rule is the last one's.
@pytest.mark.parametrize(
    "n_points", [1, 7, 8191, 8192, 8193, 16383, 16384, 16385, 16387, 32771]
)
def test_model_curves_equal_the_untiled_reference_bit_for_bit(n_points):
    if n_points < 100:
        cases = [(model, x, y) for model in CURVE_MODELS for x, y in CURVE_PAIRS]
    else:  # thousands of nodes per panel: a few models, each at a different pair
        cases = [(MalusModel(), A, B), (SelectiveModel(3.0, 0.25), AP, BP),
                 (SelectiveModel(8.0, 1.0), A, BP)]
    for model, x, y in cases:
        want, got = curve_bits(model, x, y, n_points)
        assert got == want, (model, x, y)


def test_model_curves_at_the_default_grid_equal_the_untiled_reference():
    for model in (MalusModel(), SelectiveModel(3.0, 0.25)):
        for x, y in CURVE_PAIRS:
            curves = model_curves(model, x, y)
            assert curves["nodes"] == 107
            want, got = curve_bits(model, x, y, 107)
            assert got == want, (model, x, y)


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_model_curves_do_not_depend_on_the_tile_size(tile):
    # the reference forms each panel's nodes `tile` at a time
    for model in (MalusModel(), SelectiveModel(1.5, 0.25), SelectiveModel(3.0, 1.0)):
        for x, y in CURVE_PAIRS:
            for n_points in (1, 2, 3, 6, 7, 22):
                want, got = curve_bits(model, x, y, n_points, tile)
                assert got == want, (model, n_points)


def test_quadrature_memory_stays_at_its_four_sums():
    # the midpoint rule this quadrature replaced held four 200,001-point
    # arrays, 6.1 MiB, at this peak; the default rule's arrays hold 8 panels
    # of 109 nodes, and its sums' lists as many Python floats
    model = SelectiveModel(3.0, 0.25)
    quadrature_chsh(model)
    tracemalloc.start()
    try:
        quadrature_chsh(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak


def test_model_curves_refuses_an_empty_rule():
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        model_curves(MalusModel(), A, B, 0)


def midpoint_curves(model, x, y, n):
    """The midpoint rule of n points over one period of phi, summed with fsum."""
    phi = (np.arange(n) + 0.5) * (PI / n)
    da, db = phi - x, phi + PI / 2 - y
    ca, cb = np.cos(2.0 * da), np.cos(2.0 * db)
    w = model.survival(abs(np.cos(da)), abs(ca)) * model.survival(abs(np.cos(db)), abs(cb))
    total, p, pa, pb = (math.fsum(v.tolist()) for v in (w, w * ca * cb, w * ca, w * cb))
    return {
        "raw_expectation": p / n,
        "coincidence_expectation": p / total,
        "detection_rate": total / n,
        "postselected_marginal_a": pa / total,
        "postselected_marginal_b": pb / total,
    }


@st.composite
def curve_cases(draw):
    """(model, x, y, reference, reference error) with a reference that holds.

    Sharpness 0 has a closed form: every trial clicks, E = -cos 2(x - y) / 2 and
    the marginals vanish.  Otherwise the reference is the midpoint rule at
    3**9 points, its error taken as its change from 3**8, where the integrand is
    smooth enough for that to fall below the tolerance: even d at asymmetry 0
    (a trigonometric polynomial, which the periodic midpoint rule sums exactly),
    or every kink |t|^p with p >= 3 (d >= 3, and d * asymmetry >= 3 or
    asymmetry 0), where its error falls like n**-(p + 1)."""
    x, y = (draw(st.floats(-PI, PI)) for _ in range(2))
    kind = draw(st.sampled_from(["d0", "even", "smooth"]))
    if kind == "d0":
        model = SelectiveModel(0.0, draw(st.floats(0.0, 2.0)))
        e = -math.cos(2 * (x - y)) / 2
        reference = {"raw_expectation": e, "coincidence_expectation": e, "detection_rate": 1.0,
                     "postselected_marginal_a": 0.0, "postselected_marginal_b": 0.0}
        return model, x, y, reference, dict.fromkeys(reference, 2**-50)
    if kind == "even":
        model = SelectiveModel(2.0 * draw(st.integers(1, 32)), 0.0)
    else:
        d = draw(st.floats(3.0, 64.0))
        model = SelectiveModel(d, draw(st.just(0.0) | st.floats(3.0 / d, 2.0)))
    fine, coarse = (midpoint_curves(model, x, y, 3**k) for k in (9, 8))
    return model, x, y, fine, {k: abs(fine[k] - coarse[k]) for k in fine}


@settings(max_examples=60, deadline=None, database=None)
@given(case=curve_cases())
def test_every_quadrature_value_is_within_its_bound_of_a_reference(case):
    model, x, y, reference, reference_error = case
    assume(max(reference_error.values()) <= analysis.QUADRATURE_TOLERANCE)
    curves = model_curves(model, x, y)
    for key, want in reference.items():
        bound = curves["bound"][key]
        assert abs(curves[key] - want) <= bound + reference_error[key], (key, bound)


def test_a_peak_at_each_panel_centre_is_within_its_bound():
    # w = (|sin 4 phi| / 4)**106 peaks at each panel's centre.  The 214-node rule
    # is off by 1.7e-12 of w, and its every-other-node half agreed with it to 3e-15
    model = SelectiveModel(53.0, 2.0)
    curves, want = model_curves(model, 0.0, 0.0), midpoint_curves(model, 0.0, 0.0, 3**9)
    for key in ("raw_expectation", "detection_rate"):
        assert abs(curves[key] - want[key]) <= curves["bound"][key], key


# small sharpnesses whose kinks the midpoint rule converges on too slowly to
# serve as a reference; mpmath's own tanh-sinh, at 25 digits, on the same panels
MPMATH_CASES = [(0.5, 0.25, 0.0, PI / 8), (1.5, 0.25, PI / 4, 3 * PI / 8),
                (2.7, 1.3, -0.4, 2.0), (0.3, 0.7, 1.0, 1.0)]


@pytest.mark.parametrize("d, asymmetry, x, y", MPMATH_CASES)
def test_small_sharpness_values_are_within_their_bound_of_mpmath(d, asymmetry, x, y):
    mp = mpmath.mp

    def survival(delta):
        return (abs(mp.cos(2 * delta)) * abs(mp.cos(delta)) ** asymmetry) ** d

    def integrand(k):
        def f(phi):
            da, db = phi - x, phi + mp.pi / 2 - y
            w = survival(da) * survival(db)
            return (w, w * mp.cos(2 * da) * mp.cos(2 * db), w * mp.cos(2 * da),
                    w * mp.cos(2 * db))[k]
        return f

    with mpmath.workdps(25):
        q = mp.pi / 4
        ends = sorted({mp.fmod(mp.mpf(s), q) % q + k * q for s in (x, y) for k in range(4)})
        w, p, pa, pb = (mp.quad(integrand(k), ends + [ends[0] + mp.pi]) / mp.pi for k in range(4))
        reference = {"raw_expectation": p, "coincidence_expectation": p / w, "detection_rate": w,
                     "postselected_marginal_a": pa / w, "postselected_marginal_b": pb / w}
        curves = model_curves(SelectiveModel(d, asymmetry), x, y)
        for key, want in reference.items():
            assert abs(curves[key] - want) <= curves["bound"][key], key


def test_the_sweep_grid_takes_the_first_rule_and_a_sharp_model_refines(monkeypatch):
    evaluations = []

    def counting(model, x, y, phi):
        evaluations.append(phi.size)
        return integrands(model, x, y, phi)

    integrands = analysis._integrands
    monkeypatch.setattr(analysis, "_integrands", counting)
    for d in analysis.DEFAULT_SWEEP_GRID:
        for asymmetry in (0.0, 0.25):
            for x, y in CURVE_PAIRS:
                evaluations.clear()
                assert model_curves(SelectiveModel(d, asymmetry), x, y)["nodes"] == 107
                assert evaluations == [8 * 109]
    # the quadrature the sweep compares against at d 200 needs two halvings
    model = SelectiveModel(200.0, 0.25)
    curves = model_curves(model, A, B)
    assert curves["nodes"] == 4 * 107
    want = midpoint_curves(model, A, B, 3**9)
    for key, bound in curves["bound"].items():
        assert abs(curves[key] - want[key]) <= bound, key


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


def test_sweep_rows_state_the_quadrature_bound_and_the_monte_carlo_se():
    result = small_sweep("asymmetry0.25")
    for di, row in enumerate(result.rows):
        model = SelectiveModel(row.sharpness, 0.25)
        bounds = [model_curves(model, x, y)["bound"]["coincidence_expectation"] for x, y in CURVE_PAIRS]
        assert row.s_quadrature_bound == math.fsum(bounds) + 3 * 2.0**-51 < 1e-11
        estimates = {}
        for pi, (x, y) in enumerate(CURVE_PAIRS):
            schedule = SettingsSchedule("cycle", (x,), (y,))
            estimates.update(estimate_correlations(run_counts(model, schedule, 3000, (7, di, pi))))
        expected = chsh(estimates, A, AP, B, BP, mode="coincidence")
        assert (row.s_monte_carlo, row.s_monte_carlo_se) == (expected.s_value, expected.se)


def test_a_sweep_point_runs_one_job_per_distinct_setting_pair(monkeypatch):
    # a = a': the four CHSH terms name two pairs, each run once at the raw angles
    # of the first term that names it and seeded with that term's index
    settings, grid = (A, A, B, BP), (0.0, 2.0)
    jobs = []

    def noting(model, schedule, n_trials, master_seed):
        jobs.append((schedule.x_settings + schedule.y_settings, master_seed))
        return run_counts(model, schedule, n_trials, master_seed)

    monkeypatch.setattr(analysis, "run_counts", noting)
    result = calibration_sweep(grid, settings, trials_per_point=3000, master_seed=7, asymmetry=0.25)
    assert sorted(jobs) == sorted(((A, y), (7, di, pi)) for di in range(2) for pi, y in enumerate((B, BP)))
    for di, row in enumerate(result.rows):
        model = SelectiveModel(grid[di], 0.25)
        estimates = {}
        for pi, y in enumerate((B, BP)):
            schedule = SettingsSchedule("cycle", (A,), (y,))
            estimates.update(estimate_correlations(run_counts(model, schedule, 3000, (7, di, pi))))
        expected = chsh(estimates, *settings, mode="coincidence")
        assert (row.s_monte_carlo, row.s_monte_carlo_se) == (expected.s_value, expected.se)


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
