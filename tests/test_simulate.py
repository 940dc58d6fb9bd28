import math

import numpy as np
import pytest
from scipy.integrate import quad

from contextlab.errors import ConfigError, StreamFormatError
from contextlab.models import (
    FiniteContextualModel,
    pair_expectation,
    postselected_marginal,
)
from contextlab.simulate import (
    MalusModel,
    SelectiveModel,
    SettingsSchedule,
    TrialStream,
    discretize,
    read_stream_csv,
    run_counts,
    run_experiment,
    stream_digest,
    stream_metadata,
    wing_outcome,
    write_stream_csv,
)

PI = math.pi


def constant_finite_model():
    source = np.full((2, 2), 0.25)
    dist = [0.5, 0.5]
    alice = {0.0: ((0, 1), dist, [[1, 1], [1, 1]])}
    bob = {0.0: ((0, 1), dist, [[-1, -1], [-1, -1]])}
    return FiniteContextualModel((0, 1), (0, 1), source, alice, bob)


# --- quadrature oracles --------------------------------------------------------


def survival_factor(delta, d, eta):
    return (abs(math.cos(2 * delta)) * abs(math.cos(delta)) ** eta) ** d


def quad_coincidence(x, y, d, eta):
    """Coincidence expectation of the selective model by adaptive quadrature."""

    def weight(phi):
        return survival_factor(phi - x, d, eta) * survival_factor(phi + PI / 2 - y, d, eta)

    def num(phi):
        return weight(phi) * math.cos(2 * (phi - x)) * math.cos(2 * (phi + PI / 2 - y))

    n, _ = quad(num, 0.0, PI, limit=400)
    den, _ = quad(weight, 0.0, PI, limit=400)
    return n / den


def quad_post_marginal_a(x, y, d, eta):
    def weight(phi):
        return survival_factor(phi - x, d, eta) * survival_factor(phi + PI / 2 - y, d, eta)

    def num(phi):
        return weight(phi) * math.cos(2 * (phi - x))

    n, _ = quad(num, 0.0, PI, limit=400)
    den, _ = quad(weight, 0.0, PI, limit=400)
    return n / den


# --- single-trial contract ------------------------------------------------------


def test_deterministic_tables_always_give_their_constants():
    m = constant_finite_model()
    for chunk_size in (1, 7, 50):
        folded = run_counts(m, SettingsSchedule("cycle", (0.0,), (0.0,)), 50, 3, chunk_size)
        assert folded.counts[0, 0, 2, 0] == 50  # every trial gave (a, b) = (+1, -1)


def test_aligned_malus_wing_always_clicks_plus():
    # cos^2(0) = 1: with the hidden angle equal to the setting, +1 is sure
    model = MalusModel()
    u = np.linspace(0.0, 0.999999, 1000)
    out = wing_outcome(model, 0.7, 0.7, u)
    assert np.all(out == 1)


def test_malus_product_mean_matches_analytic_curve():
    # raw correlation is -cos(2(x-y))/2; at x-y = -pi/4 it vanishes
    model = MalusModel()
    schedule = SettingsSchedule("cycle", (0.0,), (PI / 4,))
    stream = run_experiment(model, schedule, 10**6, master_seed=99)
    products = stream.a.astype(float) * stream.b.astype(float)
    se = products.std(ddof=1) / math.sqrt(len(products))
    assert abs(products.mean() - 0.0) < 3 * se

    # second point, nonzero target, against an adaptive-quadrature oracle
    target, _ = quad(
        lambda phi: math.cos(2 * phi) * math.cos(2 * (phi + PI / 2 - PI / 8)) / PI,
        0.0,
        PI,
    )
    assert target == pytest.approx(-0.5 * math.cos(2 * (0.0 - PI / 8)), abs=1e-12)
    stream2 = run_experiment(model, SettingsSchedule("cycle", (0.0,), (PI / 8,)), 10**6, 17)
    products2 = stream2.a.astype(float) * stream2.b.astype(float)
    se2 = products2.std(ddof=1) / math.sqrt(len(products2))
    assert abs(products2.mean() - target) < 3.5 * se2


# --- schedules -------------------------------------------------------------------


def test_cycle_schedule_walks_pairs_in_order():
    schedule = SettingsSchedule("cycle", (0.0, 1.0), (2.0, 3.0))
    stream = run_experiment(constant_finite_model_ext(), schedule, 8, master_seed=1)
    pairs = list(zip(stream.x, stream.y))
    expected_cycle = [(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)]
    assert pairs == expected_cycle + expected_cycle


def constant_finite_model_ext():
    source = np.full((2, 2), 0.25)
    dist = [0.5, 0.5]
    table = [[1, 1], [1, 1]]
    alice = {x: ((0, 1), dist, table) for x in (0.0, 1.0)}
    bob = {y: ((0, 1), dist, table) for y in (2.0, 3.0)}
    return FiniteContextualModel((0, 1), (0, 1), source, alice, bob)


def test_random_schedule_counts_are_binomial():
    n = 10**5
    schedule = SettingsSchedule("random", (0.0, 1.0), (2.0, 3.0), seed=5)
    stream = run_experiment(constant_finite_model_ext(), schedule, n, master_seed=2)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for x in (0.0, 1.0):
        for y in (2.0, 3.0):
            count = int(np.sum((stream.x == x) & (stream.y == y)))
            assert abs(count - n / 4) < 4 * sigma


def test_schedule_validation():
    with pytest.raises(ConfigError):
        SettingsSchedule("random", (0.0,), (1.0,))  # missing seed
    with pytest.raises(ConfigError):
        SettingsSchedule("cycle", (), (1.0,))
    with pytest.raises(ConfigError):
        SettingsSchedule("shuffled", (0.0,), (1.0,), seed=1)


@pytest.mark.parametrize(
    "x_settings",
    [(0.0, 2 * PI), (PI / 4, PI / 4), (-PI / 2, 3 * PI / 2), (float("nan"),), (0.0, float("inf"))],
)
def test_schedule_rejects_non_finite_and_colliding_settings(x_settings):
    with pytest.raises(ConfigError):
        SettingsSchedule("cycle", x_settings, (1.0,))
    with pytest.raises(ConfigError):
        SettingsSchedule("random", (1.0,), x_settings, seed=1)


# --- reproducibility and locality -------------------------------------------------


def test_identical_runs_are_byte_identical(tmp_path):
    model = SelectiveModel(sharpness=2.0, asymmetry=0.25)
    schedule = SettingsSchedule("random", (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=11)
    meta = stream_metadata(model, schedule, 20000, 21, 4096)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_stream_csv(run_experiment(model, schedule, 20000, 21, 4096), p1, meta)
    write_stream_csv(run_experiment(model, schedule, 20000, 21, 4096), p2, meta)
    assert stream_digest(p1) == stream_digest(p2)
    assert p1.with_suffix(".csv.meta.json").read_bytes() == p2.with_suffix(
        ".csv.meta.json"
    ).read_bytes()


def test_changing_bob_setting_never_moves_alice_outcomes():
    model = SelectiveModel(sharpness=3.0, asymmetry=0.25)
    base = run_experiment(model, SettingsSchedule("cycle", (0.3,), (0.9,)), 5000, 77)
    moved = run_experiment(model, SettingsSchedule("cycle", (0.3,), (2.1,)), 5000, 77)
    assert np.array_equal(base.a, moved.a)
    assert not np.array_equal(base.b, moved.b)


def test_settings_sequence_ignores_hidden_variable_seed():
    schedule = SettingsSchedule("random", (0.0, 1.0), (2.0, 3.0), seed=123)
    s1 = run_experiment(MalusModel(), schedule, 4000, master_seed=1)
    s2 = run_experiment(MalusModel(), schedule, 4000, master_seed=999)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert not np.array_equal(s1.a, s2.a)


def test_selective_with_zero_sharpness_reproduces_malus_stream():
    schedule = SettingsSchedule("cycle", (0.0,), (PI / 8,))
    malus = run_experiment(MalusModel(), schedule, 3000, 5)
    zeroed = run_experiment(SelectiveModel(sharpness=0.0, asymmetry=0.25), schedule, 3000, 5)
    assert np.array_equal(malus.a, zeroed.a)
    assert np.array_equal(malus.b, zeroed.b)


# --- selective model law -----------------------------------------------------------


def test_selective_rejection_probability_tracks_survival_law():
    model = SelectiveModel(sharpness=2.0)
    delta = 0.4
    n = 200000
    u = (np.arange(n) + 0.5) / n
    out = wing_outcome(model, delta, 0.0, u)
    survival = float(model.survival(delta))
    assert abs(np.mean(out == 0) - (1 - survival)) < 1e-4
    assert abs(np.mean(out == 1) - survival * math.cos(delta) ** 2) < 1e-4


@pytest.mark.parametrize(
    "sharpness, asymmetry",
    [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)],
)
def test_selective_rejects_non_finite_parameters(sharpness, asymmetry):
    with pytest.raises(ConfigError):
        SelectiveModel(sharpness, asymmetry)


def test_selective_rejects_negative_parameters():
    with pytest.raises(ConfigError):
        SelectiveModel(sharpness=-1.0)
    with pytest.raises(ConfigError):
        SelectiveModel(sharpness=1.0, asymmetry=-0.5)


# --- discretization -----------------------------------------------------------------


def test_discretized_malus_reproduces_half_cosine():
    m = discretize(MalusModel(), (0.0,), (PI / 8,), n_source=360, n_alice=1000, n_bob=1000)
    value = pair_expectation(m, 0.0, PI / 8)
    assert value == pytest.approx(-0.5 * math.cos(PI / 4), abs=0.01)


def test_zero_sharpness_discretization_is_bit_identical_to_malus():
    kwargs = dict(n_source=64, n_alice=50, n_bob=50)
    m_malus = discretize(MalusModel(), (0.0, PI / 4), (PI / 8,), **kwargs)
    m_zero = discretize(SelectiveModel(0.0, asymmetry=0.25), (0.0, PI / 4), (PI / 8,), **kwargs)
    assert np.array_equal(m_malus.source_dist, m_zero.source_dist)
    for x in m_malus.alice_settings:
        assert np.array_equal(m_malus.alice_tables(x).outcome, m_zero.alice_tables(x).outcome)
        assert np.array_equal(m_malus.alice_tables(x).dist, m_zero.alice_tables(x).dist)
    for y in m_malus.bob_settings:
        assert np.array_equal(m_malus.bob_tables(y).outcome, m_zero.bob_tables(y).outcome)


def test_discretized_selective_postselected_marginal_depends_on_bob_setting():
    d, eta = 2.0, 0.25
    m = discretize(
        SelectiveModel(d, eta), (0.0,), (PI / 8, 3 * PI / 8), n_source=240, n_alice=500, n_bob=500
    )
    m1 = postselected_marginal(m, 0.0, PI / 8, "A")
    m2 = postselected_marginal(m, 0.0, 3 * PI / 8, "A")
    assert m1 == pytest.approx(quad_post_marginal_a(0.0, PI / 8, d, eta), abs=0.02)
    assert m2 == pytest.approx(quad_post_marginal_a(0.0, 3 * PI / 8, d, eta), abs=0.02)
    assert abs(m1 - m2) > 0.2


def test_discretization_guards():
    with pytest.raises(ConfigError):
        discretize(MalusModel(), (0.0,), (0.0,), n_source=1)
    with pytest.raises(ConfigError):
        discretize(MalusModel(), (0.0,), (0.0,), n_source=400, n_alice=1000, n_bob=1000,
                   max_cells=10**5)


def test_calibrated_selective_tracks_full_cosine_better_than_malus():
    # coincidence curve of the swept-in model vs the -cos 2(x-y) target,
    # on the discretized tables, checked against the quadrature oracle
    from contextlab.models import coincidence_expectation

    d, eta = 3.0, 0.25
    thetas = [k * PI / 8 for k in range(8)]
    y_settings = [(-t) % (2 * PI) for t in thetas]
    grid = dict(n_source=240, n_alice=400, n_bob=400)
    selective = discretize(SelectiveModel(d, eta), (0.0,), y_settings, **grid)
    malus = discretize(MalusModel(), (0.0,), y_settings, **grid)
    err_selective = 0.0
    err_malus = 0.0
    for theta, y in zip(thetas, y_settings):
        target = -math.cos(2 * theta)
        e_sel = coincidence_expectation(selective, 0.0, y)
        assert e_sel == pytest.approx(quad_coincidence(0.0, y, d, eta), abs=0.02)
        err_selective = max(err_selective, abs(e_sel - target))
        err_malus = max(err_malus, abs(coincidence_expectation(malus, 0.0, y) - target))
    assert err_malus == pytest.approx(0.5, abs=0.02)
    assert err_selective < err_malus


# --- stream persistence ----------------------------------------------------------


def test_csv_round_trip_preserves_everything(tmp_path):
    model = SelectiveModel(1.5, 0.25)
    schedule = SettingsSchedule("random", (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=3)
    stream = run_experiment(model, schedule, 5000, 13)
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path, stream_metadata(model, schedule, 5000, 13, 65536))
    back = read_stream_csv(path)
    assert np.array_equal(back.trial, stream.trial)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.a, stream.a)
    assert np.array_equal(back.b, stream.b)


def test_stream_validation_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,x,y,a,b\n0,0.0,0.0,1,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)
    bad.write_text("trial,x_rad,y_rad,a,b\n0,0.0,0.0,7,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)
    with pytest.raises(StreamFormatError):
        TrialStream([0, 0], [0, 0], [0, 0], [1, 1], [1, 1])  # repeated trial index
    with pytest.raises(StreamFormatError):
        TrialStream([0, 1], [0.0, float("nan")], [0, 0], [1, 1], [1, 1])
    with pytest.raises(StreamFormatError):  # checked before narrowing to int8
        TrialStream([0, 1], [0.0, 0.0], [0.0, 0.0], np.array([1, 255]), [1, 1])
    with pytest.raises(StreamFormatError):
        TrialStream([0, 1], [0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [1, 1])
    bad.write_text("trial,x_rad,y_rad,a,b\n0,0.0,inf,1,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)


@pytest.mark.parametrize(
    "trial",
    [
        [0.5, 1.7],
        [0.0, float("inf")],
        [0, 2**63],
        [0, 2**64],
        [-1, 2**63],
        np.array([0, 2**63], np.uint64),
    ],
)
def test_trial_indices_are_checked_before_narrowing(trial):
    # int64 narrowing would truncate 0.5 and 1.7 to 0 and 1, and wrap or refuse 2**63
    with pytest.raises(StreamFormatError, match="int64 range"):
        TrialStream(trial, [0.0, 0.0], [0.0, 0.0], [1, 1], [1, 1])


def test_integral_trial_indices_of_any_dtype_are_kept():
    for trial in ([0.0, 2.0**62], np.array([3, 2**63 - 1], np.uint64), [False, True]):
        stream = TrialStream(trial, [0.0, 0.0], [0.0, 0.0], [1, 1], [1, 1])
        assert stream.trial.dtype == np.int64
        assert stream.trial.tolist() == [int(v) for v in trial]


def test_run_experiment_validation():
    with pytest.raises(ConfigError):
        run_experiment(MalusModel(), SettingsSchedule("cycle", (0.0,), (0.0,)), 0, 1)
