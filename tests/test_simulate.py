import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from contextlab import simulate
from contextlab.analysis import estimate_correlations
from contextlab.errors import ConfigError, StreamFormatError
from contextlab.models import (
    FiniteContextualModel,
    pair_expectation,
    postselected_marginal,
    random_model,
    shared_space_model,
)
from contextlab.seeding import substream
from contextlab.simulate import (
    MalusModel,
    SelectiveModel,
    STREAM_ROW,
    PairCounts,
    SettingsSchedule,
    discretize,
    read_stream_csv,
    run_counts,
    run_experiment,
    stream_metadata,
    wing_outcome,
    write_run_csv,
    write_stream_csv,
)
from stream_records import records

PI = math.pi


def stream_digest(path) -> str:
    """SHA-256 of a file, for reproducibility assertions."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        assert folded.counts[0, 2, 0] == 50  # every trial gave (a, b) = (+1, -1)


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


@settings(max_examples=200, deadline=None, database=None)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    start=st.integers(0, 10**12),
    count=st.integers(1, 300),
)
def test_cycle_indices_equal_the_modulo_form(nx, ny, start, count):
    schedule = SettingsSchedule("cycle", tuple(map(float, range(nx))), tuple(map(float, range(ny))))
    pair = np.arange(start, start + count) % (nx * ny)
    for got, want in zip(schedule.indices(start, count, 0), (pair // ny, pair % ny)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


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


def _wing_tables(seed, settings, n_source):
    rng = np.random.default_rng(seed)
    tables = {}
    for s in settings:
        n_inst = int(rng.integers(1, 4))
        dist = rng.random(n_inst) + 0.05
        outcome = rng.choice((-1, 0, 1), size=(n_source, n_inst))
        tables[s] = (tuple(range(n_inst)), dist / math.fsum(dist), outcome)
    return tables


def _setting_list(size):
    # multiples of 0.1 below 2*pi are distinct mod 2*pi
    return st.lists(st.integers(0, 62), min_size=size, max_size=size, unique=True).map(
        lambda ks: tuple(k / 10 for k in ks)
    )


@settings(
    max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    kind=st.sampled_from(["finite", "selective"]),
    mode=st.sampled_from(["random", "cycle"]),
    replaced=st.sampled_from(["A", "B"]),
    n_trials=st.integers(1, 400),
    chunk_size=st.integers(1, 150),
    seed=st.integers(0, 2**32),
)
def test_a_wing_column_is_blind_to_the_other_wing(
    data, kind, mode, replaced, n_trials, chunk_size, seed
):
    """Replay the hidden-variable streams with one wing's settings or tables replaced."""
    lists = {wing: data.draw(_setting_list(data.draw(st.integers(1, 3)))) for wing in "AB"}
    table_seeds = {"A": seed + 1, "B": seed + 2}
    n1, n2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    d, eta = data.draw(st.floats(0, 6)), data.draw(st.floats(0, 2))

    def replay():
        if kind == "finite":
            raw = np.random.default_rng(seed).random((n1, n2)) + 0.05
            source = raw / math.fsum(raw.flat)
            alice = _wing_tables(table_seeds["A"], lists["A"], n1)
            bob = _wing_tables(table_seeds["B"], lists["B"], n2)
            model = FiniteContextualModel(range(n1), range(n2), source, alice, bob)
        else:
            model = SelectiveModel(d, eta)
        schedule = SettingsSchedule(mode, lists["A"], lists["B"], seed=seed % 1000)
        return run_experiment(model, schedule, n_trials, seed, chunk_size)

    before = replay()
    # the replaced wing gets a new setting list or, for finite models, new tables
    if kind == "finite" and data.draw(st.booleans(), label="new tables"):
        table_seeds[replaced] += 2
    else:
        lists[replaced] = data.draw(_setting_list(len(lists[replaced])))
    after = replay()
    kept = "b" if replaced == "A" else "a"
    assert np.array_equal(getattr(before, kept), getattr(after, kept))


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


def reference_thresholds(model, delta):
    """sp*c and sp as the kernel formed them before np.cos(delta) was shared."""
    if model.sharpness == 0.0:
        sp = np.ones_like(delta)
    else:
        base = np.abs(np.cos(2.0 * delta))
        if model.asymmetry != 0.0:
            base = base * np.abs(np.cos(delta)) ** model.asymmetry
        sp = base ** model.sharpness
    return sp * np.cos(delta) ** 2, sp


def reference_wing_outcome(model, lam, setting, u):
    """The int64 `np.where` kernel that `wing_outcome` replaced."""
    lo, hi = reference_thresholds(model, np.asarray(lam, dtype=float) - np.asarray(setting))
    u = np.asarray(u, dtype=float)
    return np.where(u < lo, 1, np.where(u < hi, -1, 0)).astype(np.int8)


@settings(max_examples=300, deadline=None, database=None)
@given(
    data=st.data(),
    sharpness=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0, 6),
    asymmetry=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0, 6),
    grid=st.booleans(),
)
def test_wing_outcome_is_the_reference_kernel_bit_for_bit(data, sharpness, asymmetry, grid):
    model = SelectiveModel(sharpness, asymmetry)
    angle = st.floats(-10, 10) | st.just(math.nan)
    lam = np.array(data.draw(st.lists(angle, min_size=1, max_size=20)))
    n = len(lam)
    # discretize's shape is one scalar setting against lam[:, None] and u[None, :];
    # the trial kernel's is one setting per trial
    setting = data.draw(angle) if grid else np.array(data.draw(st.lists(angle, min_size=n, max_size=n)))
    lo, hi = reference_thresholds(model, lam - setting)
    u = []
    for j in range(data.draw(st.integers(1, 20)) if grid else n):
        i = data.draw(st.integers(0, n - 1)) if grid else j
        # a fresh uniform, or one exactly on sp*c or sp of a trial it meets
        u.append(data.draw(st.floats(0, 1, exclude_max=True) | st.sampled_from([lo[i], hi[i]])))
    u = np.array(u)
    if grid:
        lam, u = lam[:, None], u[None, :]
    out = wing_outcome(model, lam, setting, u)
    expected = reference_wing_outcome(model, lam, setting, u)
    assert out.dtype == np.int8 and out.shape == expected.shape
    assert np.array_equal(out, expected)


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
    for wing, settings in enumerate((m_malus.alice_settings, m_malus.bob_settings)):
        for s in settings:
            malus, zero = m_malus.tables(wing, s), m_zero.tables(wing, s)
            assert np.array_equal(malus.outcome, zero.outcome)
            assert np.array_equal(malus.dist, zero.dist)


def test_discretized_selective_postselected_marginal_depends_on_bob_setting():
    d, eta = 2.0, 0.25
    m = discretize(
        SelectiveModel(d, eta), (0.0,), (PI / 8, 3 * PI / 8), n_source=240, n_alice=500, n_bob=500
    )
    m1 = postselected_marginal(m, 0.0, PI / 8, 0)
    m2 = postselected_marginal(m, 0.0, 3 * PI / 8, 0)
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


def test_run_experiment_returns_the_stream_rows_that_the_benchmark_tracer_reads(tmp_path):
    # bench/tracer.py counts a stream's bytes as the nbytes of these five attributes
    schedule = SettingsSchedule("random", (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=2)
    stream = run_experiment(SelectiveModel(1.5, 0.25), schedule, 1000, 7, 300)
    assert isinstance(stream, np.recarray) and stream.dtype == STREAM_ROW
    assert sum(getattr(stream, name).nbytes for name in ("trial", "x", "y", "a", "b")) == 26 * 1000
    assert stream.trial.tolist() == list(range(1000))
    write_stream_csv(stream, tmp_path / "s.csv")
    back = read_stream_csv(tmp_path / "s.csv")
    assert isinstance(back, np.recarray) and back.dtype == STREAM_ROW
    assert back.tobytes() == stream.tobytes()


def test_stream_validation_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,x,y,a,b\n0,0.0,0.0,1,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)
    bad.write_text("trial,x_rad,y_rad,a,b\n0,0.0,0.0,7,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)
    invalid = [
        ("strictly increasing", records([0, 0], [0, 0], [1, 1], [1, 1], trial=[0, 0])),
        ("finite", records([0.0, float("nan")], [0, 0], [1, 1], [1, 1])),
        ("outcomes", records([0.0, 0.0], [0.0, 0.0], [1, 2], [1, 1])),
        ("outcomes", records([0.0, 0.0], [0.0, 0.0], [1, 1], [-2, 1])),
    ]
    for message, stream in invalid:
        for consume in consumers(tmp_path):
            with pytest.raises(StreamFormatError, match=message):
                consume(stream)
    assert not (tmp_path / "written.csv").exists()  # refused before the file is opened
    bad.write_text("trial,x_rad,y_rad,a,b\n0,0.0,inf,1,1\n")
    with pytest.raises(StreamFormatError):
        read_stream_csv(bad)


def consumers(tmp_path):
    """The in-memory entries that check their stream: the fold, the estimates and the writer."""
    return (
        PairCounts.from_stream,
        estimate_correlations,
        lambda stream: write_stream_csv(stream, tmp_path / "written.csv"),
    )


def rows_with(field, values) -> np.ndarray:
    """Two valid stream rows, except that `field` holds `values` in their own dtype."""
    values = np.asarray(values)
    dtype = [(n, values.dtype if n == field else STREAM_ROW[n]) for n in STREAM_ROW.names]
    rows = np.zeros(2, dtype)
    rows["trial"], rows["a"], rows["b"] = [0, 1], [1, 1], [1, 1]
    rows[field] = values
    return rows


def assert_refused_as_not_stream_rows(rows, tmp_path):
    for consume in consumers(tmp_path):
        with pytest.raises(StreamFormatError, match="STREAM_ROW"):
            consume(rows)


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
def test_trial_indices_are_checked_before_narrowing(trial, tmp_path):
    # int64 narrowing would truncate 0.5 and 1.7 to 0 and 1, and wrap or refuse 2**63:
    # every trial dtype but STREAM_ROW's int64 is refused before a value is read
    assert_refused_as_not_stream_rows(rows_with("trial", trial), tmp_path)


def test_integral_trial_indices_of_any_dtype_are_kept(tmp_path):
    # the library refuses a float, uint64 or bool trial field even when every value is
    # integral; cast to int64 by the caller, those values are kept exactly
    for trial in ([0.0, 2.0**62], np.array([3, 2**63 - 1], np.uint64), [False, True]):
        assert_refused_as_not_stream_rows(rows_with("trial", trial), tmp_path)
        stream = records([0.0, 0.0], [0.0, 0.0], [1, 1], [1, 1], trial=np.asarray(trial, np.int64))
        write_stream_csv(stream, tmp_path / "kept.csv")
        assert read_stream_csv(tmp_path / "kept.csv").trial.tolist() == [int(v) for v in trial]
        assert len(PairCounts.from_stream(stream)) == 2


def test_strictly_increasing_trial_indices_that_span_the_int64_range_are_kept(tmp_path):
    # their np.diff wraps around int64 to a negative step
    extremes = [-(2**63) + 1, 2**63 - 1]
    stream = records([0.0, 0.0], [0.0, 0.0], [1, 1], [1, 1], trial=extremes)
    write_stream_csv(stream, tmp_path / "s.csv")
    assert read_stream_csv(tmp_path / "s.csv").trial.tolist() == extremes
    assert len(PairCounts.from_stream(stream)) == 2
    reversed_stream = records([0.0, 0.0], [0.0, 0.0], [1, 1], [1, 1], trial=extremes[::-1])
    for consume in consumers(tmp_path):
        with pytest.raises(StreamFormatError, match="strictly increasing"):
            consume(reversed_stream)


@pytest.mark.parametrize(
    "outcomes, valid",
    [
        (np.array([1, 0], np.uint8), True),
        (np.array([True, False]), True),
        (np.array([-1, 1], np.int16), True),
        (np.array([-1.0, 1.0]), True),
        (np.array([1, 2], np.uint8), False),
        (np.array([-2, 0]), False),
        (np.array([2**63, 0], np.uint64), False),
        (np.array([1, -1], object), True),
        (np.array([1, 2**64], object), False),
    ],
)
def test_outcomes_of_every_dtype_are_checked_before_narrowing(outcomes, valid, tmp_path):
    # narrowing to int8 would wrap 255 and 2**63 and truncate 1.5, so only
    # STREAM_ROW's int8 outcomes are read; those in range are kept
    assert_refused_as_not_stream_rows(rows_with("b", outcomes), tmp_path)
    if not (-128 <= min(outcomes) and max(outcomes) < 128):
        return  # no int8 holds these values
    stream = records([0.0, 0.0], [0.0, 0.0], [1, 1], np.asarray(outcomes, np.int8))
    if valid:
        write_stream_csv(stream, tmp_path / "s.csv")
        assert read_stream_csv(tmp_path / "s.csv").b.tolist() == [int(v) for v in outcomes]
        assert len(PairCounts.from_stream(stream)) == 2
    else:
        for consume in consumers(tmp_path):
            with pytest.raises(StreamFormatError, match="outcomes"):
                consume(stream)


def test_run_experiment_validation():
    with pytest.raises(ConfigError):
        run_experiment(MalusModel(), SettingsSchedule("cycle", (0.0,), (0.0,)), 0, 1)


# --- pinned stream bytes of every model kind ---------------------------------------


def _pinned_model(kind):
    rng = np.random.default_rng(2024)
    if kind == "random":
        return random_model(rng, n1=3, n2=4, n_inst=3)
    if kind == "shared":
        return shared_space_model(rng, n1=4, n2=3, n_inst=2)
    if kind == "discretized":
        grid = dict(n_source=24, n_alice=30, n_bob=40)
        return discretize(SelectiveModel(2.0, 0.25), (0.0, PI / 4), (PI / 8, 3 * PI / 8), **grid)
    if kind == "malus":
        return MalusModel()
    return SelectiveModel(0.0, 0.25)


# (stream, sidecar) sha256, recorded with the pair-grouped finite branch and
# the separate Malus survival before the model protocol replaced them
STREAM_PINS = {
    "random-random-7": (
        "304fefcdbd14981a4bf14e244a5696759c9f8e48e0796060cc1f73abd0b9cba3",
        "ea45e10d9f3813b0c4b2345f01ff71439cacbb32c052c446fdb87205524c8672",
    ),
    "random-random-65536": (
        "85474b9d3cb58a6d4931c51796a26bf2a02a3404c689a32caaeeac1899d9ad14",
        "624731b68d3025eb5ff4efb2d6f2a88194385ac8be3c0a9f7934c1a40d46e487",
    ),
    "random-cycle-7": (
        "de9bdbf9af48430a98654825aff44b73f373ce98e3036351565d2d22e02ffc5f",
        "2848a8de0004eff60c36f31a8c6fcde4bb37b4d4592ff1c45b1afdc2d5a46c88",
    ),
    "random-cycle-65536": (
        "c46831067fccac9245a9b529a39576a41248d2ee3a9c1d976c52fb3ebaac7a27",
        "fc3bc00bb4117ba59a92a727f85b5b5beb32f1654c09a8941ca01b2228f3ad65",
    ),
    "shared-random-7": (
        "22a8d7b6acd96d79b44ffa93afa9d401410dcc1d8445544a0b61c47d68b15e12",
        "3f25edf93d5f902768a4cee39f70cd3d55a128da38ba88bc2114186f5384a007",
    ),
    "shared-random-65536": (
        "d88cb9a812c107eee8d52881ef0d1d4e4eb40f3e206872b8ec68b53e4ee06991",
        "150180be1f821b55af9f27a63eac2145ce6de87bc2df7fa3269316073a26c5de",
    ),
    "shared-cycle-7": (
        "80332e604441c20e20de9098eec1c8110815cd647331dab9ef8271414b8fd851",
        "81033233ab7a3e3b0e4c31dc4b522c7d87fed1ceda7460dbfcc8f05f7799f7ae",
    ),
    "shared-cycle-65536": (
        "a1e512e879e1a200f66607391fa94ef25f9ae0d326f37d80848422a51b7ad8f1",
        "5b1b119edc98c0f4a46c9d78d6b8ca46733c2701659cccbb59b72a8bd54d03ba",
    ),
    "discretized-random-7": (
        "de2cccb378cdfa8dc47cb13863363945609924373d8398987790a735d26a9e59",
        "7fa6218500fbfc2a425bfa8d620560e9c507244b426c83ff4aacda8917b47268",
    ),
    "discretized-random-65536": (
        "3a876777e3559e147253a18ab8f36961241c977d622d1a9cf0fa7e0428717fe7",
        "921c5159883856c28f18d4e7e6b5684de5664620383c3b0243bd80ebba13bf7d",
    ),
    "discretized-cycle-7": (
        "50b9f799bd778d45a0e9df9dd15e75cd4a3a9a9b6f972ae126f5760320e69d61",
        "0c80138173a2b56f82442f0f842790ef1525e278da0a47e73663f02fa2f58b37",
    ),
    "discretized-cycle-65536": (
        "bd94771724dd5652e9509bd1a97fb4f59ee5f85406be62a6bf8bc7633163d388",
        "973be2218c710e496b9fc8c9ffc7fe414cc4b83e5cdd7c64a5aa82c788926b44",
    ),
    "malus-random-7": (
        "6dd36d51dccb24b3b6f234926d44e498284ea04e2a99d1e2626f1b6b545e7e25",
        "40cce1d99c3f9b6ae290fd5651b7ccc13a6f17b95a912ee3324c9eb373254e39",
    ),
    "malus-random-65536": (
        "d11df66560bdfc308cf1c5781bfead63df418a25abf0b9d38529cd74fc6410cf",
        "d86916a836ddb2ed8fdb952b4db071cf811cfb98a6e30977beda359224d649d2",
    ),
    "malus-cycle-7": (
        "7cc6389bfe3641baa0072b7a9d703d45e1ce1f6cb722f7a0191e8ce4cbd40855",
        "9fbf133ffad0552742c316d8211b27fc1a461bb5fe9675fbc2bcd236ab57bd8b",
    ),
    "malus-cycle-65536": (
        "07c6f119fca211f0273708743e729b31429a1beb1a5081113cc3b26e9c46718c",
        "05368788c427d8fa8cac46da62b25e003ae516ed538e0fe56f0a1899342dd38d",
    ),
    "selective-0-random-7": (
        "6dd36d51dccb24b3b6f234926d44e498284ea04e2a99d1e2626f1b6b545e7e25",
        "49cadf38240f00363eec73a5953fece36d4b2caffc7b383c85431f58e9c76290",
    ),
    "selective-0-random-65536": (
        "d11df66560bdfc308cf1c5781bfead63df418a25abf0b9d38529cd74fc6410cf",
        "39b0ab2cd579fdf6d7593dcdec5764b23a15b675906d2577b865a69f79038923",
    ),
    "selective-0-cycle-7": (
        "7cc6389bfe3641baa0072b7a9d703d45e1ce1f6cb722f7a0191e8ce4cbd40855",
        "f38c91baca31fb05ded14519300e18f27be04199eb832d34414d3ee7ab71495d",
    ),
    "selective-0-cycle-65536": (
        "07c6f119fca211f0273708743e729b31429a1beb1a5081113cc3b26e9c46718c",
        "7dfd17ed4e7c3d5e475c0630e141fc1fd17eba95289ee368c033f37ca8902cb4",
    ),
}


@pytest.mark.parametrize("chunk_size", [7, 65536])
@pytest.mark.parametrize("mode", ["random", "cycle"])
@pytest.mark.parametrize("kind", ["random", "shared", "discretized", "malus", "selective-0"])
def test_stream_bytes_of_every_model_kind_are_pinned(tmp_path, kind, mode, chunk_size):
    model = _pinned_model(kind)
    schedule = SettingsSchedule(mode, (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=5)
    path = tmp_path / "s.csv"
    meta = stream_metadata(model, schedule, 3000, (11, 4), chunk_size)
    write_stream_csv(run_experiment(model, schedule, 3000, (11, 4), chunk_size), path, meta)
    found = (stream_digest(path), stream_digest(tmp_path / "s.csv.meta.json"))
    assert found == STREAM_PINS[f"{kind}-{mode}-{chunk_size}"]


@pytest.mark.parametrize("chunk_size", [7, 65536])
@pytest.mark.parametrize("mode", ["random", "cycle"])
@pytest.mark.parametrize("kind", ["random", "shared", "discretized", "malus", "selective-0"])
def test_direct_writer_bytes_of_every_model_kind_are_pinned(tmp_path, kind, mode, chunk_size):
    model = _pinned_model(kind)
    schedule = SettingsSchedule(mode, (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=5)
    path = tmp_path / "s.csv"
    write_run_csv(path, model, schedule, 3000, (11, 4), chunk_size)
    found = (stream_digest(path), stream_digest(tmp_path / "s.csv.meta.json"))
    assert found == STREAM_PINS[f"{kind}-{mode}-{chunk_size}"]


# --- tiles: the kernel's working size is not part of the contract --------------------


def test_consecutive_generator_draws_concatenate_bit_for_bit():
    whole = substream((11, 4), 3, 1).random(1000)
    tiled = substream((11, 4), 3, 1)
    parts = [tiled.random(7), tiled.random(0), tiled.random(500)]
    rest = np.empty(493)
    tiled.random(out=rest)
    assert np.concatenate([*parts, rest]).tobytes() == whole.tobytes()


def _run_all(tmp_path, model, schedule, n, chunk_size):
    path = tmp_path / f"{simulate.TILE}.csv"
    write_run_csv(path, model, schedule, n, (11, 4), chunk_size)
    counts = run_counts(model, schedule, n, (11, 4), chunk_size)
    stream = run_experiment(model, schedule, n, (11, 4), chunk_size)
    columns = [getattr(stream, c).tobytes() for c in ("trial", "x", "y", "a", "b")]
    return counts.counts.tolist(), counts.pairs, columns, path.read_bytes()


# chunk sizes that are no multiple of the tile, and a tile beyond the chunk, whose
# reference at the default tile spans three tiles per chunk
@pytest.mark.parametrize(
    "tile, chunk_size, n", [(1, 13, 60), (3, 50, 230), (7, 50, 230), (1 << 20, 20000, 45000)]
)
@pytest.mark.parametrize("mode", ["random", "cycle"])
@pytest.mark.parametrize("kind", ["selective", "malus", "random"])
def test_outputs_do_not_depend_on_the_tile_size(tmp_path, monkeypatch, kind, mode, tile, chunk_size, n):
    model = SelectiveModel(3.0, 0.25) if kind == "selective" else _pinned_model(kind)
    schedule = SettingsSchedule(mode, (0.0, PI / 4), (PI / 8, 3 * PI / 8), seed=5)
    want = _run_all(tmp_path, model, schedule, n, chunk_size)
    monkeypatch.setattr(simulate, "TILE", tile)
    assert _run_all(tmp_path, model, schedule, n, chunk_size) == want


def test_generation_memory_stays_at_tiles_not_chunks():
    # whole-chunk float temporaries put this peak at about 8 MB; with tiles it
    # is about 3.6 MB, the fold's per-chunk integer arrays included
    model, schedule = SelectiveModel(3.0, 0.25), SettingsSchedule("cycle", (0.0,), (PI / 8,))
    run_counts(model, schedule, 1000, 1)
    tracemalloc.start()
    try:
        run_counts(model, schedule, 4 * 65536, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak
