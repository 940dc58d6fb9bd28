import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contextlab import models
from contextlab.errors import (
    ModelValidationError,
    UndefinedConditionalError,
    UnknownSettingError,
)
from contextlab.models import (
    FiniteContextualModel,
    SettingPair,
    coincidence_expectation,
    joint_detection_probability,
    load_model,
    marginal,
    model_from_dict,
    model_to_dict,
    normalize_angle,
    pair_expectation,
    postselected_marginal,
    random_model,
    save_model,
    shared_space_model,
)
from contextlab.simulate import MalusModel, SelectiveModel, discretize

X0, X1 = 0.0, math.pi / 4
Y0, Y1 = math.pi / 8, 3 * math.pi / 8


def constant_model(a_value, b_value, n1=2, n2=2, n_inst=2):
    """Model whose outcome tables are a single constant on every cell."""
    source = np.full((n1, n2), 1.0 / (n1 * n2))
    dist = np.full(n_inst, 1.0 / n_inst)
    a_table = np.full((n1, n_inst), a_value)
    b_table = np.full((n2, n_inst), b_value)
    alice = {x: (tuple(range(n_inst)), dist, a_table) for x in (X0, X1)}
    bob = {y: (tuple(range(n_inst)), dist, b_table) for y in (Y0, Y1)}
    return FiniteContextualModel(range(n1), range(n2), source, alice, bob)


def wing_settings(model, wing):
    return (model.alice_settings, model.bob_settings)[wing]


def wing_tables(model, wing):
    """Each setting's (space, dist, outcome) triple, as the constructor takes them."""
    return {s: model.tables(wing, s)[:3] for s in wing_settings(model, wing)}


def with_wing(model, wing, tables):
    """`model` with every table of one wing replaced by `tables`."""
    wings = [wing_tables(model, 0), wing_tables(model, 1)]
    wings[wing] = tables
    return FiniteContextualModel(
        model.lambda1_space, model.lambda2_space, model.source_dist, *wings
    )


def all_plus(tables):
    """The same tables with every outcome +1."""
    return {s: (space, dist, np.ones_like(outcome)) for s, (space, dist, outcome) in tables.items()}


# --- independent oracles -----------------------------------------------------


def brute_force_sums(model, x, y):
    """Plain four-deep loop over the full parameter space; no factoring."""
    at, bt = model.tables(0, x), model.tables(1, y)
    source = model.source_dist
    n1, n2 = source.shape
    product_sum = 0.0
    joint_det = 0.0
    a_masked = 0.0
    b_masked = 0.0
    for i in range(n1):
        for j in range(n2):
            for k in range(len(at.dist)):
                for l in range(len(bt.dist)):
                    w = source[i, j] * at.dist[k] * bt.dist[l]
                    a = int(at.outcome[i, k])
                    b = int(bt.outcome[j, l])
                    product_sum += a * b * w
                    if a != 0 and b != 0:
                        joint_det += w
                        a_masked += a * w
                        b_masked += b * w
    return product_sum, joint_det, a_masked, b_masked


def mc_sample_products(model, x, y, n, seed):
    """Direct Monte Carlo over the model tables, independent of the library sampler."""
    rng = np.random.default_rng(seed)
    at, bt = model.tables(0, x), model.tables(1, y)
    source = model.source_dist
    n1, n2 = source.shape
    flat = rng.choice(n1 * n2, size=n, p=source.ravel())
    i, j = flat // n2, flat % n2
    k = rng.choice(len(at.dist), size=n, p=at.dist)
    l = rng.choice(len(bt.dist), size=n, p=bt.dist)
    return at.outcome[i, k].astype(float) * bt.outcome[j, l].astype(float)


# --- construction and validation ---------------------------------------------


def test_setting_pair_normalizes_angles():
    p = SettingPair(-math.pi / 2, 2 * math.pi + 0.25)
    assert 0.0 <= p.x < 2 * math.pi
    assert p.x == pytest.approx(3 * math.pi / 2)
    assert p.y == pytest.approx(0.25)
    assert normalize_angle(2 * math.pi) == 0.0


@pytest.mark.parametrize("theta", [-2 * math.pi, -0.0, 0.0, 2 * math.pi, -4 * math.pi])
def test_normalize_angle_returns_positive_zero(theta):
    zero = normalize_angle(theta)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_rejects_out_of_tolerance_probabilities():
    source = np.array([[0.5, 0.5], [0.0, 1e-9]])  # sums to 1 + 1e-9
    dist = [0.5, 0.5]
    table = [[1, 1], [1, 1]]
    with pytest.raises(ModelValidationError):
        FiniteContextualModel(
            (0, 1), (0, 1), source, {0.0: ((0, 1), dist, table)}, {0.0: ((0, 1), dist, table)}
        )


def test_rejects_negative_probabilities_and_bad_outcomes():
    good_dist = [0.5, 0.5]
    good_table = [[1, -1], [0, 1]]
    with pytest.raises(ModelValidationError):
        FiniteContextualModel(
            (0, 1),
            (0, 1),
            [[0.6, 0.5], [-0.1, 0.0]],
            {0.0: ((0, 1), good_dist, good_table)},
            {0.0: ((0, 1), good_dist, good_table)},
        )
    with pytest.raises(ModelValidationError):
        constant_model(2, 1)
    with pytest.raises(ModelValidationError):
        constant_model(0.5, 1)


def test_probability_tables_sum_to_exactly_one():
    rng = np.random.default_rng(7)
    m = random_model(rng, n1=4, n2=3, n_inst=5)
    assert math.fsum(m.source_dist.flat) == 1.0
    for x in m.alice_settings:
        assert math.fsum(m.tables(0, x).dist) == 1.0


def test_sampling_cdfs_end_at_exactly_one():
    # np.cumsum([0.1] * 10) ends at 0.9999999999999999, so without the pinned last
    # entry the largest uniform below 1 would index past the source and instrument tables
    tenths = [0.1] * 10
    assert math.fsum(tenths) == 1.0 and np.cumsum(tenths)[-1] < 1.0
    last = [[0] * 9 + [1]]
    m = FiniteContextualModel(
        (0,), range(10), [tenths], {X0: (range(10), tenths, last)}, {Y0: ((0,), [1.0], [[1]] * 10)}
    )
    u = np.array([np.nextafter(1.0, 0.0)])
    i1, i2 = m.source(u)
    assert (i1.tolist(), i2.tolist()) == ([0], [9])
    assert m.sampling_tables(0, X0)[0][-1] == 1.0
    assert m.outcomes(0, i1, (X0,), np.array([0]), u).tolist() == [1]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_source_finds_the_cell_the_dense_cdf_finds(n1, n2, data):
    cells = n1 * n2
    weights = data.draw(st.lists(st.integers(0, 9), min_size=cells, max_size=cells), label="weights")
    trailing_zeros = data.draw(st.integers(0, cells - 1), label="trailing zeros")
    weights[cells - trailing_zeros :] = [0] * trailing_zeros
    weights[0] += not any(weights)
    source = np.array(weights, float).reshape(n1, n2) / sum(weights)
    m = FiniteContextualModel(
        range(n1), range(n2), source, {X0: ((0,), [1.0], [[1]] * n1)}, {Y0: ((0,), [1.0], [[1]] * n2)}
    )
    dense = np.cumsum(m.source_dist.ravel())
    dense[-1] = 1.0
    drawn = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20), label="u")
    u = np.concatenate([dense, np.nextafter(dense, 0.0), np.nextafter(dense, 2.0), [0.0], drawn])
    u = u[u < 1.0]
    want = np.divmod(np.searchsorted(dense, u, side="right"), n2)
    assert [i.tolist() for i in m.source(u)] == [i.tolist() for i in want]


def test_instrument_reductions_are_formed_once_at_construction(monkeypatch):
    calls = []
    fsum_rows = models._fsum_rows
    monkeypatch.setattr(models, "_fsum_rows", lambda terms: calls.append(1) or fsum_rows(terms))
    m = random_model(np.random.default_rng(11), n1=3, n2=4, n_inst=3)
    assert len(calls) == 2 * (len(m.alice_settings) + len(m.bob_settings))
    for _ in range(2):
        for x in m.alice_settings:
            for y in m.bob_settings:
                exact_values(m, x, y)
    assert len(calls) == 2 * (len(m.alice_settings) + len(m.bob_settings))
    for wing in (0, 1):
        for t in (m.tables(wing, s) for s in wing_settings(m, wing)):
            assert np.array_equal(t.response, ref_response(t))
            assert np.array_equal(t.detection, ref_detection(t))
            assert not any(a.flags.writeable for a in (t.cum, t.response, t.detection))


def test_unknown_setting_raises():
    m = constant_model(1, 1)
    with pytest.raises(UnknownSettingError):
        pair_expectation(m, 0.123, Y0)
    with pytest.raises(UnknownSettingError):
        marginal(m, 0, 1.0)
    with pytest.raises(UnknownSettingError, match=r"^Bob setting 1\.0 not declared"):
        marginal(m, 1, np.float64(1.0))


@pytest.mark.parametrize("wing", [-1, 2, "A", "bob"])
def test_tables_and_marginal_reject_a_wing_outside_zero_and_one(wing):
    # -1 must not silently mean Bob
    m = constant_model(1, 1)
    with pytest.raises(ValueError, match="wing must be 0"):
        m.tables(wing, Y0)
    with pytest.raises(ValueError, match="wing must be 0"):
        marginal(m, wing, Y0)


@pytest.mark.filterwarnings("error")  # refused before any table is computed
@pytest.mark.parametrize(
    "settings",
    [(X0, math.inf), (math.nan,), (0.0, 2 * math.pi), (X1, X1 - 2 * math.pi), ()],
    ids=["inf", "nan", "zero-and-2pi", "collide-mod-2pi", "none"],
)
def test_non_finite_colliding_and_missing_settings_are_refused(settings):
    good = constant_model(1, 1)
    alice = {s: good.tables(0, X0)[:3] for s in settings}
    with pytest.raises(ModelValidationError, match="alice: settings"):
        FiniteContextualModel((0, 1), (0, 1), good.source_dist, alice, wing_tables(good, 1))
    with pytest.raises(ModelValidationError, match="alice: settings"):
        discretize(MalusModel(), settings, (Y0,), n_source=4, n_alice=4, n_bob=4)


# --- pair expectation ---------------------------------------------------------


def test_constant_outcomes_give_constant_product():
    assert pair_expectation(constant_model(1, -1), X0, Y0) == -1.0
    assert pair_expectation(constant_model(1, 1), X1, Y1) == 1.0


def test_null_alice_annihilates_the_sum():
    assert pair_expectation(constant_model(0, 1), X0, Y0) == 0.0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pair_expectation_matches_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n1=3, n2=3, n_inst=2)
    n = 10**6
    for x in m.alice_settings:
        for y in m.bob_settings:
            exact = pair_expectation(m, x, y)
            products = mc_sample_products(m, x, y, n, seed=1000 + seed)
            se = products.std(ddof=1) / math.sqrt(n)
            assert abs(products.mean() - exact) < 3 * max(se, 1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_factored_contraction_equals_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    m = random_model(rng, n1=3, n2=2, n_inst=3)
    for x in m.alice_settings:
        for y in m.bob_settings:
            product_sum, joint_det, a_masked, b_masked = brute_force_sums(m, x, y)
            assert pair_expectation(m, x, y) == pytest.approx(product_sum, abs=1e-14)
            assert joint_detection_probability(m, x, y) == pytest.approx(joint_det, abs=1e-14)
            if joint_det > 0:
                assert coincidence_expectation(m, x, y) == pytest.approx(
                    product_sum / joint_det, abs=1e-12
                )
                assert postselected_marginal(m, x, y, 0) == pytest.approx(
                    a_masked / joint_det, abs=1e-12
                )
                assert postselected_marginal(m, x, y, 1) == pytest.approx(
                    b_masked / joint_det, abs=1e-12
                )


def test_expectations_stay_in_unit_interval():
    for seed in range(20):
        m = random_model(np.random.default_rng(seed), zero_weight=0.3)
        for x in m.alice_settings:
            for y in m.bob_settings:
                assert abs(pair_expectation(m, x, y)) <= 1 + 1e-12
                assert abs(coincidence_expectation(m, x, y)) <= 1 + 1e-12
            assert abs(marginal(m, 0, x)) <= 1 + 1e-12


# --- marginals -----------------------------------------------------------------


def test_constant_marginals():
    assert marginal(constant_model(1, -1), 0, X0) == 1.0
    assert marginal(constant_model(1, -1), 1, Y1) == -1.0


def test_antisymmetric_outcomes_cancel():
    # swapping the two instrument values flips the sign of A; uniform dist => 0
    source = np.full((2, 2), 0.25)
    dist = [0.5, 0.5]
    a_table = [[1, -1], [-1, 1]]
    b_table = [[1, 1], [1, 1]]
    m = FiniteContextualModel(
        (0, 1), (0, 1), source,
        {X0: ((0, 1), dist, a_table)},
        {Y0: ((0, 1), dist, b_table)},
    )
    assert marginal(m, 0, X0) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_marginal_equals_joint_with_other_wing_marginalized(seed):
    rng = np.random.default_rng(200 + seed)
    m = random_model(rng, n1=3, n2=3, n_inst=2)
    at = m.tables(0, X0)
    # independent marginalization oracle: contract everything with einsum
    abar = np.einsum("ik,k->i", at.outcome.astype(float), at.dist)
    expected = float(np.einsum("ij,i->", m.source_dist, abar))
    assert marginal(m, 0, X0) == pytest.approx(expected, abs=1e-14)
    bt = m.tables(1, Y1)
    bbar = np.einsum("jl,l->j", bt.outcome.astype(float), bt.dist)
    expected_b = float(np.einsum("ij,j->", m.source_dist, bbar))
    assert marginal(m, 1, Y1) == pytest.approx(expected_b, abs=1e-14)


def test_marginalization_consistency_is_bit_exact():
    # replacing B with the constant +1 table reproduces the Alice marginal exactly
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        m = random_model(rng, n1=3, n2=4, n_inst=3)
        m_ones = with_wing(m, 1, all_plus(wing_tables(m, 1)))
        for x in m.alice_settings:
            assert pair_expectation(m_ones, x, Y0) == marginal(m, 0, x)


def test_raw_no_signaling_is_bit_exact():
    # Alice marginals must be unchanged under arbitrary replacement of Bob tables
    rng = np.random.default_rng(42)
    m = random_model(rng, n1=3, n2=3, n_inst=2)
    baseline = {x: marginal(m, 0, x) for x in m.alice_settings}
    for seed in range(10):
        other = random_model(np.random.default_rng(5000 + seed), n1=3, n2=3, n_inst=4)
        hybrid = with_wing(m, 1, wing_tables(other, 1))
        for x in m.alice_settings:
            assert marginal(hybrid, 0, x) == baseline[x]


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    other_seed=st.integers(0, 2**32 - 1),
    wing=st.sampled_from((0, 1)),
    n1=st.integers(1, 4),
    n2=st.integers(1, 4),
    n_inst=st.integers(1, 4),
)
def test_marginals_are_bit_identical_under_table_swaps(seed, other_seed, wing, n1, n2, n_inst):
    # the other wing's tables, or all-(+1) outcome tables, leave the marginal's fsum bit for bit
    m = random_model(np.random.default_rng(seed), n1=n1, n2=n2)
    other = random_model(np.random.default_rng(other_seed), n1=n1, n2=n2, n_inst=n_inst)
    swapped = with_wing(m, 1 - wing, wing_tables(other, 1 - wing))
    plus = with_wing(m, 1 - wing, all_plus(wing_tables(other, 1 - wing)))
    for s in wing_settings(m, wing):
        expected = marginal(m, wing, s)
        assert marginal(swapped, wing, s) == expected
        for t in wing_settings(plus, 1 - wing):
            x, y = (s, t) if wing == 0 else (t, s)
            assert pair_expectation(plus, x, y) == expected


# --- conditioning ---------------------------------------------------------------


def test_conditioning_on_sure_event_is_identity():
    for seed in range(5):
        m = random_model(np.random.default_rng(400 + seed), zero_weight=0.0)
        for x in m.alice_settings:
            for y in m.bob_settings:
                assert coincidence_expectation(m, x, y) == pair_expectation(m, x, y)
                assert postselected_marginal(m, x, y, 0) == marginal(m, 0, x)
                assert postselected_marginal(m, x, y, 1) == marginal(m, 1, y)


def test_selective_cell_conditioning_matches_enumeration():
    # A is dead (0) on instrument cell 0, balanced +-1 elsewhere
    source = np.full((2, 2), 0.25)
    dist = [0.25, 0.375, 0.375]
    a_table = [[0, 1, -1], [0, -1, 1]]
    b_table = [[1, -1], [-1, 1]]
    m = FiniteContextualModel(
        (0, 1), (0, 1), source,
        {X0: ((0, 1, 2), dist, a_table)},
        {Y0: ((0, 1), [0.5, 0.5], b_table)},
    )
    product_sum, joint_det, _, _ = brute_force_sums(m, X0, Y0)
    assert joint_det == pytest.approx(0.75)
    assert coincidence_expectation(m, X0, Y0) == pytest.approx(product_sum / joint_det)


def test_all_dead_wing_raises_undefined_conditional():
    m = constant_model(1, 0)
    with pytest.raises(UndefinedConditionalError):
        coincidence_expectation(m, X0, Y0)
    with pytest.raises(UndefinedConditionalError):
        postselected_marginal(m, X0, Y0, 0)


def test_postselected_marginal_of_constant_wing_is_constant():
    # A always +1, B sometimes dark: conditioning cannot move a constant
    source = np.full((2, 2), 0.25)
    dist = [0.5, 0.5]
    a_table = [[1, 1], [1, 1]]
    b_table = [[0, 1], [1, 0]]
    m = FiniteContextualModel(
        (0, 1), (0, 1), source,
        {X0: ((0, 1), dist, a_table)},
        {Y0: ((0, 1), dist, b_table), Y1: ((0, 1), dist, b_table)},
    )
    assert postselected_marginal(m, X0, Y0, 0) == 1.0
    assert postselected_marginal(m, X0, Y1, 0) == 1.0


def test_postselected_marginal_rejects_unknown_wing():
    for wing in (-1, 2, "A", "alice"):
        with pytest.raises(ValueError, match="wing must be 0"):
            postselected_marginal(constant_model(1, 1), X0, Y0, wing)


# --- determinism and persistence -------------------------------------------------


def test_enumeration_is_reproducible_bit_for_bit():
    m1 = random_model(np.random.default_rng(77))
    m2 = random_model(np.random.default_rng(77))
    for x in m1.alice_settings:
        for y in m1.bob_settings:
            assert pair_expectation(m1, x, y) == pair_expectation(m2, x, y)


def test_model_json_round_trip(tmp_path):
    m = random_model(np.random.default_rng(5), n1=3, n2=2, n_inst=4)
    path = tmp_path / "model.json"
    save_model(m, path)
    assert path.read_text() == json.dumps(model_to_dict(m), indent=1, sort_keys=True)
    loaded = load_model(path)
    assert np.array_equal(loaded.source_dist, m.source_dist)
    for x in m.alice_settings:
        assert np.array_equal(loaded.tables(0, x).outcome, m.tables(0, x).outcome)
        assert np.array_equal(loaded.tables(0, x).dist, m.tables(0, x).dist)
        assert pair_expectation(loaded, x, m.bob_settings[0]) == pair_expectation(
            m, x, m.bob_settings[0]
        )


def test_model_dict_rejects_bad_format():
    m = constant_model(1, 1)
    doc = model_to_dict(m)
    doc["format"] = "something-else"
    with pytest.raises(ModelValidationError):
        model_from_dict(doc)


def test_shared_space_model_has_no_zeros_and_common_instruments():
    m = shared_space_model(np.random.default_rng(3))
    for wing in (0, 1):
        tables = [m.tables(wing, s) for s in wing_settings(m, wing)]
        assert np.array_equal(tables[0].dist, tables[1].dist)
        assert all(np.all(t.outcome != 0) for t in tables)


# --- the numpy-formed contraction against the scalar reference --------------------


def ref_response(t):
    dist = t.dist
    return np.array(
        [math.fsum(float(o) * float(p) for o, p in zip(row, dist)) for row in t.outcome]
    )


def ref_detection(t):
    dist = t.dist
    return np.array(
        [math.fsum(float(p) for o, p in zip(row, dist) if o != 0) for row in t.outcome]
    )


def ref_contract(source, a_factor, b_factor):
    n1, n2 = source.shape
    return math.fsum(
        float(source[i, j]) * float(a_factor[i]) * float(b_factor[j])
        for i in range(n1)
        for j in range(n2)
    )


def ref_exact_values(model, x, y) -> dict:
    """Every exact function at (x, y) by scalar generators fed to fsum."""
    at, bt = model.tables(0, x), model.tables(1, y)
    source = model.source_dist
    cells = [(i, j) for i in range(source.shape[0]) for j in range(source.shape[1])]
    abar, bbar = ref_response(at), ref_response(bt)
    sa, sb = ref_detection(at), ref_detection(bt)
    denom = ref_contract(source, sa, sb)
    pair = ref_contract(source, abar, bbar)
    conditional = denom > 0.0
    return {
        "pair": pair,
        "alice": math.fsum(float(source[i, j]) * float(abar[i]) for i, j in cells),
        "bob": math.fsum(float(source[i, j]) * float(bbar[j]) for i, j in cells),
        "joint": denom,
        "coincidence": pair / denom if conditional else None,
        "post_A": ref_contract(source, abar, sb) / denom if conditional else None,
        "post_B": ref_contract(source, sa, bbar) / denom if conditional else None,
    }


def exact_values(model, x, y) -> dict:
    def value(fn, *args):
        try:
            return fn(model, *args)
        except UndefinedConditionalError:
            return None

    return {
        "pair": pair_expectation(model, x, y),
        "alice": marginal(model, 0, x),
        "bob": marginal(model, 1, y),
        "joint": joint_detection_probability(model, x, y),
        "coincidence": value(coincidence_expectation, x, y),
        "post_A": value(postselected_marginal, x, y, 0),
        "post_B": value(postselected_marginal, x, y, 1),
    }


# zeros, subnormal products and widely spread magnitudes exercise every rounding
WEIGHTS = st.one_of(
    st.just(0.0),
    st.sampled_from((5e-324, 1e-300, 1e-160, 3.0, 1e12)),
    st.floats(1e-6, 1.0),
)
OUTCOME_ROWS = st.one_of(st.just("zero"), st.just("minus"), st.just("mixed"))


@st.composite
def finite_models(draw):
    """Models with unequal source sizes, dead cells and rows, and negative responses."""
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(1, 5).filter(lambda n: n != n1))

    def probabilities(shape):
        size = int(np.prod(shape))
        weights = draw(st.lists(WEIGHTS, min_size=size, max_size=size))
        if not any(weights):
            weights[draw(st.integers(0, size - 1))] = 1.0
        weights = np.array(weights).reshape(shape)
        return weights / math.fsum(weights.flat)

    def outcome_row(n_inst):
        kind = draw(OUTCOME_ROWS)
        if kind == "zero":
            return [0] * n_inst
        values = (-1, 0) if kind == "minus" else (-1, 0, 1)
        return draw(st.lists(st.sampled_from(values), min_size=n_inst, max_size=n_inst))

    def wing(n_source, settings):
        tables = {}
        for setting in settings:
            n_inst = draw(st.integers(1, 4))
            outcome = [outcome_row(n_inst) for _ in range(n_source)]
            tables[setting] = (tuple(range(n_inst)), probabilities((n_inst,)), outcome)
        return tables

    return FiniteContextualModel(
        range(n1), range(n2), probabilities((n1, n2)), wing(n1, (X0, X1)), wing(n2, (Y0, Y1))
    )


@settings(
    max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(finite_models())
@example(constant_model(1, 0, n1=2, n2=3))  # no joint detection: conditionals undefined
@example(constant_model(-1, -1, n1=3, n2=1, n_inst=3))
def test_exact_functions_equal_the_scalar_reference_bit_for_bit(model):
    for x in model.alice_settings:
        for y in model.bob_settings:
            got, want = exact_values(model, x, y), ref_exact_values(model, x, y)
            assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


def golden_exact_document() -> dict:
    """The repr of every exact function on two discretized and three random models."""
    sx, sy = (X0, X1), (Y0, Y1)
    models = {
        "malus": discretize(MalusModel(), sx, sy, n_source=36, n_alice=40, n_bob=50),
        "selective": discretize(
            SelectiveModel(2.0, 0.25), sx, sy, n_source=48, n_alice=60, n_bob=30
        ),
        "random0": random_model(np.random.default_rng(0)),
        "random1": random_model(np.random.default_rng(1), n1=2, n2=5, n_inst=3),
        "random2": random_model(np.random.default_rng(2), n1=4, n2=3, n_inst=4, zero_weight=0.6),
    }
    doc = {}
    for name, model in models.items():
        for x in model.alice_settings:
            for y in model.bob_settings:
                values = exact_values(model, x, y)
                doc[f"{name} {x!r} {y!r}"] = {k: repr(v) for k, v in values.items()}
    return doc


def test_exact_function_values_are_pinned():
    # recorded with the scalar generator contraction, before numpy formed the terms
    blob = json.dumps(golden_exact_document(), indent=1, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "4a574de913eedc0558b48e9e730a0425283af57ba2be2278adb01417bd521464"
    )
