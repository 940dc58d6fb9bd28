import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contextlab.errors import (
    ModelValidationError,
    UndefinedConditionalError,
    UnknownSettingError,
)
from contextlab.models import (
    FiniteContextualModel,
    SettingPair,
    alice_marginal,
    bob_marginal,
    coincidence_expectation,
    joint_detection_probability,
    load_model,
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


# --- independent oracles -----------------------------------------------------


def brute_force_sums(model, x, y):
    """Plain four-deep loop over the full parameter space; no factoring."""
    at, bt = model.alice_tables(x), model.bob_tables(y)
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
    at, bt = model.alice_tables(x), model.bob_tables(y)
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
        assert math.fsum(m.alice_tables(x).dist) == 1.0


def test_unknown_setting_raises():
    m = constant_model(1, 1)
    with pytest.raises(UnknownSettingError):
        pair_expectation(m, 0.123, Y0)
    with pytest.raises(UnknownSettingError):
        alice_marginal(m, 1.0)
    with pytest.raises(UnknownSettingError):
        bob_marginal(m, 1.0)


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
                assert postselected_marginal(m, x, y, "A") == pytest.approx(
                    a_masked / joint_det, abs=1e-12
                )
                assert postselected_marginal(m, x, y, "B") == pytest.approx(
                    b_masked / joint_det, abs=1e-12
                )


def test_expectations_stay_in_unit_interval():
    for seed in range(20):
        m = random_model(np.random.default_rng(seed), zero_weight=0.3)
        for x in m.alice_settings:
            for y in m.bob_settings:
                assert abs(pair_expectation(m, x, y)) <= 1 + 1e-12
                assert abs(coincidence_expectation(m, x, y)) <= 1 + 1e-12
            assert abs(alice_marginal(m, x)) <= 1 + 1e-12


# --- marginals -----------------------------------------------------------------


def test_constant_marginals():
    assert alice_marginal(constant_model(1, -1), X0) == 1.0
    assert bob_marginal(constant_model(1, -1), Y1) == -1.0


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
    assert alice_marginal(m, X0) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_marginal_equals_joint_with_other_wing_marginalized(seed):
    rng = np.random.default_rng(200 + seed)
    m = random_model(rng, n1=3, n2=3, n_inst=2)
    at = m.alice_tables(X0)
    # independent marginalization oracle: contract everything with einsum
    abar = np.einsum("ik,k->i", at.outcome.astype(float), at.dist)
    expected = float(np.einsum("ij,i->", m.source_dist, abar))
    assert alice_marginal(m, X0) == pytest.approx(expected, abs=1e-14)
    bt = m.bob_tables(Y1)
    bbar = np.einsum("jl,l->j", bt.outcome.astype(float), bt.dist)
    expected_b = float(np.einsum("ij,j->", m.source_dist, bbar))
    assert bob_marginal(m, Y1) == pytest.approx(expected_b, abs=1e-14)


def test_marginalization_consistency_is_bit_exact():
    # replacing B with the constant +1 table reproduces the Alice marginal exactly
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        m = random_model(rng, n1=3, n2=4, n_inst=3)
        ones = {
            y: (m.bob_tables(y).space, m.bob_tables(y).dist, np.ones_like(m.bob_tables(y).outcome))
            for y in m.bob_settings
        }
        m_ones = FiniteContextualModel(
            m.lambda1_space, m.lambda2_space, m.source_dist,
            {x: m.alice_tables(x) for x in m.alice_settings}, ones,
        )
        for x in m.alice_settings:
            assert pair_expectation(m_ones, x, Y0) == alice_marginal(m, x)


def test_raw_no_signaling_is_bit_exact():
    # Alice marginals must be unchanged under arbitrary replacement of Bob tables
    rng = np.random.default_rng(42)
    m = random_model(rng, n1=3, n2=3, n_inst=2)
    baseline = {x: alice_marginal(m, x) for x in m.alice_settings}
    for seed in range(10):
        other = random_model(np.random.default_rng(5000 + seed), n1=3, n2=3, n_inst=4)
        hybrid = FiniteContextualModel(
            m.lambda1_space, m.lambda2_space, m.source_dist,
            {x: m.alice_tables(x) for x in m.alice_settings},
            {y: other.bob_tables(y) for y in other.bob_settings},
        )
        for x in m.alice_settings:
            assert alice_marginal(hybrid, x) == baseline[x]


# --- conditioning ---------------------------------------------------------------


def test_conditioning_on_sure_event_is_identity():
    for seed in range(5):
        m = random_model(np.random.default_rng(400 + seed), zero_weight=0.0)
        for x in m.alice_settings:
            for y in m.bob_settings:
                assert coincidence_expectation(m, x, y) == pair_expectation(m, x, y)
                assert postselected_marginal(m, x, y, "A") == alice_marginal(m, x)
                assert postselected_marginal(m, x, y, "B") == bob_marginal(m, y)


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
        postselected_marginal(m, X0, Y0, "A")


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
    assert postselected_marginal(m, X0, Y0, "A") == 1.0
    assert postselected_marginal(m, X0, Y1, "A") == 1.0


def test_postselected_marginal_rejects_unknown_wing():
    with pytest.raises(ValueError):
        postselected_marginal(constant_model(1, 1), X0, Y0, "alice")


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
    loaded = load_model(path)
    assert np.array_equal(loaded.source_dist, m.source_dist)
    for x in m.alice_settings:
        assert np.array_equal(loaded.alice_tables(x).outcome, m.alice_tables(x).outcome)
        assert np.array_equal(loaded.alice_tables(x).dist, m.alice_tables(x).dist)
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
    dists = [m.alice_tables(x).dist for x in m.alice_settings]
    assert np.array_equal(dists[0], dists[1])
    for x in m.alice_settings:
        assert np.all(m.alice_tables(x).outcome != 0)
    for y in m.bob_settings:
        assert np.all(m.bob_tables(y).outcome != 0)


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
    at, bt = model.alice_tables(x), model.bob_tables(y)
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
        "alice": alice_marginal(model, x),
        "bob": bob_marginal(model, y),
        "joint": joint_detection_probability(model, x, y),
        "coincidence": value(coincidence_expectation, x, y),
        "post_A": value(postselected_marginal, x, y, "A"),
        "post_B": value(postselected_marginal, x, y, "B"),
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
