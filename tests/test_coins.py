import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contextlab import coins
from contextlab.coins import (
    BoxEnsemble,
    box_run,
    d1_run,
    d1_step,
    d2_run,
    d3_run,
    e4_run,
    hole_protocol,
    read_coin_csv,
    remove_coins,
    write_coin_csv,
)
from contextlab.errors import ConfigError, EmptyUrnError, StreamFormatError
from contextlab.randtests import (
    autocorrelation_test,
    block_variance_test,
    frequency_test,
    runs_test,
)
from contextlab.seeding import substream

PROPERTY = settings(
    max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
SEEDS = st.one_of(
    st.integers(0, 2**63), st.tuples(st.integers(0, 2**32), st.integers(0, 2**32))
)


# --- references: the per-draw loops the array paths replaced -------------------------


def reference_d2_run(n, seed):
    rng = substream(seed, 0, 0)
    last = None
    out = []
    for _ in range(n):
        if last is None:
            last = "B" if rng.random() < 0.5 else "R"
        else:
            last = "R" if last == "B" else "B"
        out.append(last)
    return np.array(out)


def reference_e4_run(N, draws_per_round, rounds, seed):
    faces = np.empty(draws_per_round * rounds, dtype="<U1")
    blue_counts = np.empty(rounds, dtype=np.int64)
    pos = 0
    for r in range(rounds):
        rng = substream(seed, r, 0)
        m = 0
        for k in range(draws_per_round):
            if rng.random() < (N - m) / (2 * N - k):
                faces[pos] = "B"
                m += 1
            else:
                faces[pos] = "R"
            pos += 1
        blue_counts[r] = m
    return faces, blue_counts


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@PROPERTY
@given(st.integers(1, 60), st.data(), st.integers(1, 30), SEEDS)
def test_e4_run_equals_the_per_draw_reference_loop(N, data, rounds, seed):
    draws_per_round = data.draw(st.integers(1, 2 * N), label="draws_per_round")
    faces, blue_counts = e4_run(N, draws_per_round, rounds, seed)
    want_faces, want_counts = reference_e4_run(N, draws_per_round, rounds, seed)
    assert_same_array(faces, want_faces)
    assert_same_array(blue_counts, want_counts)


@PROPERTY
@given(st.integers(1, 20), st.data(), st.integers(1, 30), SEEDS)
def test_e4_run_in_blocks_equals_the_per_draw_reference_loop(N, data, rounds, seed):
    draws_per_round = data.draw(st.integers(1, 2 * N), label="draws_per_round")
    block = data.draw(st.integers(1, rounds * draws_per_round), label="block_draws")
    with mock.patch.object(coins, "E4_BLOCK_DRAWS", block):
        faces, blue_counts = e4_run(N, draws_per_round, rounds, seed)
    want_faces, want_counts = reference_e4_run(N, draws_per_round, rounds, seed)
    assert_same_array(faces, want_faces)
    assert_same_array(blue_counts, want_counts)


def test_e4_run_memory_beyond_its_output_stays_bounded_as_rounds_grow():
    def overhead(rounds):
        tracemalloc.start()
        try:
            faces, blue_counts = e4_run(500, 1000, rounds, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - faces.nbytes - blue_counts.nbytes

    overhead(1)  # first-call allocations are not the urn's
    small, large = overhead(300), overhead(2400)
    # one float64 uniform per draw held at once would add 8 bytes per extra draw
    assert large - small < 0.5 * (2400 - 300) * 1000


@PROPERTY
@given(st.integers(1, 300), SEEDS)
def test_d2_run_equals_the_per_flip_reference_loop(n, seed):
    assert_same_array(d2_run(n, seed), reference_d2_run(n, seed))


# --- D1 ---------------------------------------------------------------------------


def test_d1_inverts_and_is_an_involution():
    assert d1_step("B") == "R"
    assert d1_step("R") == "B"
    for face in ("B", "R"):
        assert d1_step(d1_step(face)) == face


def test_d1_run_is_the_constant_opposite():
    assert set(d1_run("B", 6).tolist()) == {"R"}
    assert set(d1_run("R", 4).tolist()) == {"B"}


def test_d1_rejects_bad_face():
    with pytest.raises(ConfigError):
        d1_step("G")
    with pytest.raises(ConfigError):
        d1_run("G", 3)


# --- D2 ---------------------------------------------------------------------------


def test_d2_output_is_one_of_the_two_alternations():
    for seed in range(20):
        stream = "".join(d2_run(6, seed))
        assert stream in ("BRBRBR", "RBRBRB")


def test_d2_runs_count_equals_length():
    stream = d2_run(101, seed=4)
    report = runs_test(stream)
    assert report.details["runs"] == 101


def test_d2_ignores_the_inserted_face_after_the_first_flip():
    # both devices are fed the same face every time: D1 follows it, D2 alternates
    assert set(d1_run("B", 501).tolist()) == {"R"}
    for seed in range(50):
        stream = d2_run(501, seed)
        assert np.all(stream[1:] != stream[:-1])


def test_d2_first_symbol_is_a_fair_draw():
    firsts = [d2_run(1, seed)[0] for seed in range(2000)]
    freq = firsts.count("B") / 2000
    assert abs(freq - 0.5) < 0.03


# --- D3 ---------------------------------------------------------------------------


def test_d3_frequency_and_reproducibility():
    stream = d3_run(10**6, seed=12)
    freq = float(np.mean(stream == "B"))
    assert abs(freq - 0.5) < 0.002
    assert np.array_equal(stream, d3_run(10**6, seed=12))
    pure = BoxEnsemble("pure", n_coins=7)  # a pure box is D3 at p_blue 0.5
    for n, seed in ((1, 0), (17, 3), (10**6, 12)):
        assert np.array_equal(box_run(pure, n, substream(seed, 0, 0)), d3_run(n, seed))


def test_d3_lag_one_autocorrelation_is_negligible():
    n = 10**6
    bits = (d3_run(n, seed=13) == "B").astype(float)
    centered = bits - bits.mean()
    r1 = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
    assert abs(r1) < 4 / math.sqrt(n)


def test_d3_bias_parameter():
    stream = d3_run(10**5, seed=14, p_blue=0.25)
    assert abs(float(np.mean(stream == "B")) - 0.25) < 0.006
    with pytest.raises(ConfigError):
        d3_run(10, seed=14, p_blue=1.5)


# --- urn draws ----------------------------------------------------------------------


def test_draw_probability_formula_values():
    # the first draw of every round is blue with chance 51/102 = 0.5 exactly
    faces, _ = e4_run(N=51, draws_per_round=100, rounds=40, seed=2)
    firsts = [substream(2, r, 0).random() < 0.5 for r in range(40)]
    assert (faces[::100] == "B").tolist() == firsts
    # once one color is used up, p(blue) is 0 (no blue left) or 1 (no red left)
    faces, _ = e4_run(N=3, draws_per_round=6, rounds=200, seed=4)
    for round_faces in faces.reshape(200, 6):
        no_blue_left = np.cumsum(round_faces == "B")[:-1] == 3
        no_red_left = np.cumsum(round_faces == "R")[:-1] == 3
        assert np.all(round_faces[1:][no_blue_left] == "R")
        assert np.all(round_faces[1:][no_red_left] == "B")


def test_empty_urn_raises():
    with pytest.raises(EmptyUrnError):
        box_run(BoxEnsemble("mixed"), 5, substream(0, 0, 0))
    with pytest.raises(ConfigError):
        e4_run(N=51, draws_per_round=103, rounds=1, seed=0)  # one more than the urn holds
    with pytest.raises(ConfigError):
        e4_run(N=0, draws_per_round=1, rounds=1, seed=0)


def test_e4_conservation_and_refill():
    N, draws, rounds = 51, 100, 300
    faces, blue_counts = e4_run(N=N, draws_per_round=draws, rounds=rounds, seed=7)
    per_round = (faces.reshape(rounds, draws) == "B").sum(axis=1)
    assert np.array_equal(blue_counts, per_round)
    assert np.all(blue_counts <= N) and np.all(draws - blue_counts <= N)
    # drawing the whole urn empties it exactly, round after round: it was refilled
    _, full = e4_run(N=N, draws_per_round=2 * N, rounds=20, seed=7)
    assert full.tolist() == [N] * 20


def test_e4_round_counts_are_pinched_by_the_supply():
    faces, blue_counts = e4_run(N=51, draws_per_round=100, rounds=2000, seed=3)
    assert len(faces) == 200000
    assert set(blue_counts.tolist()) <= {49, 50, 51}
    assert abs(float(blue_counts.mean()) - 50.0) < 0.1
    # hypergeometric variance 100 * 1/4 * (102-100)/(102-1), far below binomial 25
    assert float(blue_counts.var(ddof=1)) == pytest.approx(0.495, abs=0.15)


def test_e4_run_validation():
    with pytest.raises(ConfigError):
        e4_run(N=51, draws_per_round=103, rounds=1, seed=0)
    with pytest.raises(ConfigError):
        e4_run(N=51, draws_per_round=0, rounds=1, seed=0)
    # the largest urn whose draw probabilities are exact float64 quotients
    for got, want in zip(e4_run(2**52, 50, 3, 0), reference_e4_run(2**52, 50, 3, 0)):
        assert_same_array(got, want)
    with pytest.raises(ConfigError):
        e4_run(N=2**52 + 1, draws_per_round=1, rounds=1, seed=0)


@pytest.mark.parametrize("n", [0, -1])
def test_coin_runs_refuse_fewer_than_one_draw(n):
    rng = substream(0, 0, 0)
    for run in (
        lambda: d1_run("B", n),
        lambda: d2_run(n, 0),
        lambda: d3_run(n, 0),
        lambda: box_run(BoxEnsemble("mixed", n_blue=1, n_red=1), n, rng),
        lambda: box_run(BoxEnsemble("pure", n_coins=2), n, rng),
    ):
        with pytest.raises(ConfigError):
            run()


def test_e4_stream_passes_frequency_but_fails_dispersion_and_lags():
    faces, _ = e4_run(N=51, draws_per_round=100, rounds=1000, seed=9)
    assert not frequency_test(faces, 0.5).reject
    dispersion = block_variance_test(faces, 100)
    assert dispersion.reject
    assert dispersion.details["variance_ratio"] < 0.1
    lags = autocorrelation_test(faces, max_lag=5)
    assert lags.reject
    assert all(r < 0 for r in lags.details["autocorrelations"])


# --- boxes ---------------------------------------------------------------------------


def test_mixed_box_frequencies():
    box = BoxEnsemble("mixed", n_blue=50, n_red=50)
    stream = box_run(box, 10**5, substream(5, 0, 0))
    assert abs(float(np.mean(stream == "B")) - 0.5) < 0.006

    skewed = BoxEnsemble("mixed", n_blue=4, n_red=6)
    stream = box_run(skewed, 10**5, substream(6, 0, 0))
    assert float(np.mean(stream == "B")) == pytest.approx(0.4, abs=0.006)

    certain = BoxEnsemble("mixed", n_blue=1, n_red=0)
    stream = box_run(certain, 1000, substream(7, 0, 0))
    assert float(np.mean(stream == "B")) == 1.0


def test_single_trials_match_run_distribution():
    box = BoxEnsemble("mixed", n_blue=4, n_red=6)
    rng = substream(8, 0, 0)
    singles = np.concatenate([box_run(box, 1, rng) for _ in range(20000)])
    assert np.array_equal(singles, box_run(box, 20000, substream(8, 0, 0)))
    assert float(np.mean(singles == "B")) == pytest.approx(0.4, abs=0.015)


def test_box_validation():
    with pytest.raises(ConfigError):
        BoxEnsemble("mixed", n_blue=1, n_coins=5)
    with pytest.raises(ConfigError):
        BoxEnsemble("velvet")
    with pytest.raises(EmptyUrnError):
        box_run(BoxEnsemble("mixed"), 1, substream(0, 0, 0))
    with pytest.raises(EmptyUrnError):
        box_run(BoxEnsemble("pure"), 1, substream(0, 0, 0))


def test_pure_and_mixed_full_boxes_are_indistinguishable():
    mixed = box_run(BoxEnsemble("mixed", n_blue=50, n_red=50), 20000, substream(1, 0, 0))
    pure = box_run(BoxEnsemble("pure", n_coins=100), 20000, substream(2, 0, 0))
    from contextlab.randtests import homogeneity_test_groups

    assert not homogeneity_test_groups([mixed, pure]).reject


# --- hole protocol ---------------------------------------------------------------------


def find_removal_seed(target_blue, target_red, n_removed=90, trials=10**5):
    box = BoxEnsemble("mixed", n_blue=50, n_red=50)
    for seed in range(500):
        result = hole_protocol(box, n_removed, seed, trials)
        if (result.box_after.n_blue, result.box_after.n_red) == (target_blue, target_red):
            return result
    raise AssertionError("no seed produced the target removal")


def test_pure_box_is_unmoved_by_removal():
    box = BoxEnsemble("pure", n_coins=100)
    rejections = 0
    for seed in range(300):
        result = hole_protocol(box, 90, seed, trials_after=2000)
        rejections += result.report.reject
        assert result.box_after.n_coins == 10
        assert result.removed_blue is None
    assert rejections / 300 <= 0.03


def test_mixed_box_reduced_to_four_six_shifts_to_forty_percent():
    result = find_removal_seed(4, 6)
    assert result.removed_blue == 46 and result.removed_red == 44
    assert result.after_frequency == pytest.approx(0.4, abs=0.01)
    assert result.report.reject
    assert result.report.p_value < 1e-10


def test_ratio_preserving_removal_is_invisible():
    box = BoxEnsemble("mixed", n_blue=50, n_red=50)
    for seed in range(200):
        result = hole_protocol(box, 2, seed, trials_after=10**5)
        if (result.box_after.n_blue, result.box_after.n_red) == (49, 49):
            assert not result.report.reject
            return
    raise AssertionError("no seed removed one coin of each color")


def test_remove_coins_bounds():
    box = BoxEnsemble("mixed", n_blue=2, n_red=2)
    with pytest.raises(ConfigError):
        remove_coins(box, 4, substream(0, 0, 0))


@pytest.mark.parametrize("n_blue, n_red", [(10**9, 10), (10, 10**9), (10**20, 10)])
def test_remove_coins_refuses_a_color_beyond_the_draw_limit(n_blue, n_red):
    with pytest.raises(ConfigError, match=r"10\*\*9"):
        remove_coins(BoxEnsemble("mixed", n_blue=n_blue, n_red=n_red), 5, substream(0, 0, 0))


def test_remove_coins_draws_up_to_the_limit_and_skips_it_when_nothing_is_removed():
    big = BoxEnsemble("mixed", n_blue=10**9 - 1, n_red=10**9 - 1)
    after, blue, red = remove_coins(big, 5, substream(0, 0, 0))
    assert blue + red == 5 and after.size == big.size - 5
    huge = BoxEnsemble("mixed", n_blue=10**20, n_red=10)
    assert remove_coins(huge, 0, substream(0, 0, 0)) == (huge, 0, 0)


# --- persistence -------------------------------------------------------------------------


def test_coin_csv_round_trip(tmp_path):
    faces, _ = e4_run(N=5, draws_per_round=10, rounds=3, seed=1)
    path = tmp_path / "coins.csv"
    write_coin_csv(faces, path, metadata={"experiment": "e4", "seed": 1})
    assert np.array_equal(read_coin_csv(path), faces)
    assert (tmp_path / "coins.csv.meta.json").exists()


def test_coin_csv_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("trial,outcome\n0,Q\n")
    with pytest.raises(StreamFormatError):
        read_coin_csv(bad)
    bad.write_text("t,o\n")
    with pytest.raises(StreamFormatError):
        read_coin_csv(bad)
