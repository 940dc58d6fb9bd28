"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (run with -s or -rP to see them);
a failed assertion is the FAIL line.
"""

import json
import math
import time

import numpy as np
import pytest

from contextlab.analysis import (
    DEFAULT_CHSH_SETTINGS,
    calibration_sweep,
    chsh,
    estimate_correlations,
    lhv_bound_enumeration,
    model_curves,
    no_signaling_report,
    quadrature_chsh,
)
from contextlab.cli import run_command
from contextlab.coins import (
    BoxEnsemble,
    d1_step,
    d2_run,
    e4_run,
    hole_protocol,
)
from contextlab.models import (
    FiniteContextualModel,
    marginal,
    pair_expectation,
    random_model,
    shared_space_model,
)
from contextlab.randtests import (
    autocorrelation_test,
    block_variance_test,
    frequency_test,
    homogeneity_test,
    homogeneity_test_groups,
    runs_test,
)
from contextlab.simulate import (
    MalusModel,
    SelectiveModel,
    SettingsSchedule,
    run_counts,
    run_experiment,
)
from stream_records import records

A, AP, B, BP = DEFAULT_CHSH_SETTINGS


def announce(k: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {k}: PASS - {message}")


# -----------------------------------------------------------------------------
# 1. Exact-sum oracle equivalence
# -----------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.time()
    n = 10**6
    worst = 0.0
    for seed in range(20):
        model = random_model(np.random.default_rng(seed))
        schedule = SettingsSchedule("cycle", model.alice_settings, model.bob_settings)
        counts = run_counts(model, schedule, n, master_seed=(1000, seed))
        for pair, est in estimate_correlations(counts).items():
            exact = pair_expectation(model, pair.x, pair.y)
            se = max(est.raw_se, 1e-12)
            pull = abs(est.raw_expectation - exact) / se
            worst = max(worst, pull)
            assert pull < 4.0, (
                f"model {seed} pair {pair}: MC {est.raw_expectation} vs "
                f"exact {exact} differs by {pull:.2f} SE"
            )
    elapsed = time.time() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s (bound 60s)"
    announce(
        1,
        f"20 random models, Monte Carlo at 1e6 trials within 4 SE of exact "
        f"enumeration for every pair (worst pull {worst:.2f} SE, {elapsed:.1f}s)",
    )


# -----------------------------------------------------------------------------
# 2. Raw no-signaling exactness
# -----------------------------------------------------------------------------


def dyadic_model():
    """All probabilities are dyadic rationals, so enumeration is float-exact."""
    source = [[0.25, 0.25], [0.25, 0.25]]
    dist = [0.5, 0.5]
    alice = {
        A: ((0, 1), dist, [[1, 0], [-1, 1]]),
        AP: ((0, 1), dist, [[-1, 1], [0, -1]]),
    }
    bob = {
        B: ((0, 1), dist, [[1, -1], [0, 1]]),
        BP: ((0, 1), dist, [[-1, -1], [1, 0]]),
    }
    return FiniteContextualModel((0, 1), (0, 1), source, alice, bob)


def exact_joint_distribution(model, x, y):
    """Test-local brute-force outcome distribution q[a][b]."""
    at, bt = model.tables(0, x), model.tables(1, y)
    q = {(a, b): 0.0 for a in (-1, 0, 1) for b in (-1, 0, 1)}
    n1, n2 = model.source_dist.shape
    for i in range(n1):
        for j in range(n2):
            for k, pk in enumerate(at.dist):
                for l, pl in enumerate(bt.dist):
                    q[(int(at.outcome[i, k]), int(bt.outcome[j, l]))] += (
                        model.source_dist[i, j] * pk * pl
                    )
    return q


def test_criterion_2_raw_no_signaling_exactness():
    # (a) each wing's marginals are bit-identical under arbitrary replacements
    # of the other wing's tables
    def wing_tables(m, wing):
        return {s: m.tables(wing, s)[:3] for s in (m.alice_settings, m.bob_settings)[wing]}

    for seed in range(20):
        model = random_model(np.random.default_rng(seed))
        for alt_seed in range(3):
            other = random_model(np.random.default_rng(7000 + 20 * seed + alt_seed), n_inst=3)
            for wing in (0, 1):
                wings = [wing_tables(model, 0), wing_tables(model, 1)]
                wings[1 - wing] = wing_tables(other, 1 - wing)
                swapped = FiniteContextualModel(
                    model.lambda1_space, model.lambda2_space, model.source_dist, *wings
                )
                for s in wings[wing]:
                    assert marginal(swapped, wing, s) == marginal(model, wing, s)

    # (b) on exact enumeration streams the per-outcome counts are equal across y
    model = dyadic_model()
    n = 1600
    rows = []
    counts_by_pair = {}
    for x in (A, AP):
        for y in (B, BP):
            q = exact_joint_distribution(model, x, y)
            counts = {}
            for (a, b), prob in q.items():
                c = prob * n
                assert c == int(c), "dyadic model must give integral counts"
                counts[(a, b)] = int(c)
                rows += [(x, y, a, b)] * int(c)
            counts_by_pair[(x, y)] = counts
    for x in (A, AP):
        va = [
            tuple(sum(c for (a, b), c in counts_by_pair[(x, y)].items() if a == v) for v in (-1, 0, 1))
            for y in (B, BP)
        ]
        assert va[0] == va[1], f"Alice counts differ across Bob settings at x={x}"
    x_col, y_col, a_col, b_col = zip(*rows)
    stream = records(x_col, y_col, a_col, b_col)
    report = no_signaling_report(stream)
    for t in report.raw_tests:
        assert t.p_value == 1.0 and not t.reject
    announce(
        2,
        "marginals bit-identical under Bob-side table swaps (20 models x 3 swaps); "
        "exact-stream raw counts equal across counterpart settings with p = 1",
    )


# -----------------------------------------------------------------------------
# 3. Shared-space bound
# -----------------------------------------------------------------------------


def extremal_shared_model(sign: int):
    """Deterministic one-cell instruments reaching S = 2*sign exactly."""
    source = [[0.5, 0.0], [0.0, 0.5]]
    dist = [1.0]
    a_plus = [[1], [1]]
    b_val = [[sign], [sign]]
    alice = {A: ((0,), dist, a_plus), AP: ((0,), dist, a_plus)}
    bob = {B: ((0,), dist, b_val), BP: ((0,), dist, b_val)}
    return FiniteContextualModel((0, 1), (0, 1), source, alice, bob)


def test_criterion_3_shared_space_bound():
    result = lhv_bound_enumeration()
    assert result.max_abs_s == 2.0
    assert all(abs(row[4]) <= 2 for row in result.vertices)

    models = [shared_space_model(np.random.default_rng(seed)) for seed in range(48)]
    models += [extremal_shared_model(1), extremal_shared_model(-1)]
    worst = -1.0
    for seed, model in enumerate(models):
        schedule = SettingsSchedule("random", (A, AP), (B, BP), seed=3000 + seed)
        stream = run_experiment(model, schedule, 20000, master_seed=(3000, seed))
        r = chsh(estimate_correlations(stream), A, AP, B, BP, "raw")
        margin = abs(r.s_value) - (2.0 + 5.0 * r.se)
        worst = max(worst, margin)
        assert margin <= 0.0, f"shared-space model {seed}: |S|={abs(r.s_value):.4f}, SE={r.se:.4f}"
    announce(
        3,
        f"enumeration bound exactly 2; 50 shared-space streams all satisfy "
        f"|S| <= 2 + 5 SE (worst margin {worst:+.4f})",
    )


# -----------------------------------------------------------------------------
# 4. Malus regression
# -----------------------------------------------------------------------------


def test_criterion_4_malus_regression():
    model = MalusModel()
    n = 10**6
    max_err = 0.0
    for k in range(8):
        theta = k * math.pi / 8
        stream = run_experiment(
            model, SettingsSchedule("cycle", (theta,), (0.0,)), n, master_seed=(4000, k)
        )
        est = next(iter(estimate_correlations(stream).values()))
        target = -0.5 * math.cos(2 * theta)
        max_err = max(max_err, abs(est.raw_expectation - target))
    assert max_err < 0.01, f"max-abs deviation {max_err:.4f} (tolerance 0.01)"

    estimates = {}
    for idx, (x, y) in enumerate(((A, B), (A, BP), (AP, B), (AP, BP))):
        stream = run_experiment(
            model, SettingsSchedule("cycle", (x,), (y,)), n, master_seed=(4100, idx)
        )
        estimates.update(estimate_correlations(stream))
    s = chsh(estimates, A, AP, B, BP, "raw")
    assert abs(s.s_value) == pytest.approx(math.sqrt(2), abs=0.03)
    announce(
        4,
        f"raw curve within {max_err:.4f} of -cos(2 theta)/2 over the 8-point grid; "
        f"CHSH at optimal angles |S| = {abs(s.s_value):.4f} (target sqrt(2) +- 0.03)",
    )


# -----------------------------------------------------------------------------
# 5. Contextual violation witness
# -----------------------------------------------------------------------------


def test_criterion_5_contextual_violation_witness():
    # Oracle pre-check of the symmetric rejection family: it does exceed 2 in
    # coincidence mode, but its half-period symmetry forces every post-selected
    # marginal to exactly zero, so the post-selected-singles comparison can
    # never fire. The asymmetric fallback law is therefore used for the full
    # conjunction below.
    symmetric_best = max(
        abs(quadrature_chsh(SelectiveModel(d, 0.0))) for d in (0.0, 1.0, 2.0, 3.0)
    )
    assert symmetric_best > 2.0
    for x, y in ((A, B), (A, BP), (AP, B), (AP, BP)):
        curves = model_curves(SelectiveModel(3.0, 0.0), x, y)
        assert abs(curves["postselected_marginal_a"]) < 1e-9
        assert abs(curves["postselected_marginal_b"]) < 1e-9

    sweep = calibration_sweep(
        trials_per_point=10**6, master_seed=20250809, asymmetry=0.25
    )
    best = sweep.best
    assert abs(best.s_monte_carlo) > 2.0
    assert abs(best.s_monte_carlo) >= 2.3, f"|S| = {abs(best.s_monte_carlo):.4f} below target"
    for row in sweep.rows:
        assert row.discrepancy <= 0.02, (
            f"d={row.sharpness}: Monte Carlo vs quadrature differ by {row.discrepancy:.4f}"
        )

    witness = SelectiveModel(best.sharpness, 0.25)
    stream = run_experiment(
        witness,
        SettingsSchedule("random", (A, AP), (B, BP), seed=101),
        10**6,
        master_seed=(20250809, 1),
    )
    report = no_signaling_report(stream, alpha_raw=0.01, alpha_postselected=0.001)
    assert not report.any_raw_rejection(), [
        (t.name, t.p_value) for t in report.raw_tests if t.reject
    ]
    # at these angles two comparisons coincide by the even symmetry of the
    # post-selected marginal in x - y; the dependence shows where it can
    assert report.any_postselected_rejection()
    fired = [t.name for t in report.postselected_tests if t.reject]
    announce(
        5,
        f"fallback law witness d={best.sharpness:g}: |S| = {abs(best.s_monte_carlo):.3f} "
        f"(quadrature {abs(best.s_quadrature):.3f}, all grid discrepancies <= 0.02); "
        f"raw singles quiet at alpha=0.01, post-selected fired: {fired}",
    )


# -----------------------------------------------------------------------------
# 6. Coin lab fidelity
# -----------------------------------------------------------------------------


def test_criterion_6_coin_lab_fidelity():
    # D1 involution, exact
    for face in ("B", "R"):
        assert d1_step(d1_step(face)) == face

    # D2: exact alternation, first symbol fair over 1e4 seeds
    for seed in range(100):
        stream = d2_run(40, seed)
        assert all(a != b for a, b in zip(stream, stream[1:]))
    firsts = sum(d2_run(1, seed)[0] == "B" for seed in range(10**4))
    first_freq = firsts / 10**4
    assert abs(first_freq - 0.5) < 0.02

    # E4: counts pinched to {49, 50, 51}, variance 0.495 +- 0.1 over 1e4 rounds
    _, blue_counts = e4_run(51, 100, 10**4, seed=42)
    assert set(blue_counts.tolist()) <= {49, 50, 51}
    variance = float(blue_counts.var(ddof=1))
    assert variance == pytest.approx(0.495, abs=0.1)

    # hole protocol: the removal that leaves 4 blue / 6 red shifts to 0.4
    box = BoxEnsemble("mixed", n_blue=50, n_red=50)
    result = hole_protocol(box, 90, seed=11, trials_after=10**5)
    assert (result.box_after.n_blue, result.box_after.n_red) == (4, 6)
    assert result.after_frequency == pytest.approx(0.4, abs=0.01)
    assert result.report.reject

    # pure box: removal changes nothing; detection rate stays at calibration
    pure = BoxEnsemble("pure", n_coins=100)
    rejections = sum(
        hole_protocol(pure, 90, seed, trials_after=2000, alpha=0.01).report.reject
        for seed in range(1000)
    )
    assert rejections / 1000 <= 0.01
    announce(
        6,
        f"D1 involution exact; D2 alternation exact, first-symbol {first_freq:.3f}; "
        f"urn round variance {variance:.3f}; 4/6 box frequency "
        f"{result.after_frequency:.4f}; pure-box false alarms {rejections}/1000",
    )


# -----------------------------------------------------------------------------
# 7. Purity suite calibration and power
# -----------------------------------------------------------------------------


def iid_stream(n, seed):
    return (np.random.default_rng(seed).random(n) < 0.5).astype(np.uint8)


def test_criterion_7_purity_calibration_and_power():
    alpha = 0.01
    runners = {
        "runs": lambda s: runs_test(s, alpha),
        "frequency": lambda s: frequency_test(s, 0.5, alpha),
        "block-variance": lambda s: block_variance_test(s, 100, alpha),
        "homogeneity": lambda s: homogeneity_test(s, 10, alpha),
        "autocorrelation": lambda s: autocorrelation_test(s, 10, alpha),
    }
    rates = {}
    for name, run in runners.items():
        rejections = sum(run(iid_stream(10**4, seed)).reject for seed in range(1000))
        rate = rejections / 1000
        rates[name] = rate
        assert alpha / 2 <= rate <= 2 * alpha, f"{name} calibrates at {rate}"

    # urn-vs-Bernoulli discrimination at 1e3 blocks
    for seed in range(50):
        faces, _ = e4_run(51, 100, 1000, seed=5000 + seed)
        report = block_variance_test(faces, 100, alpha)
        assert report.reject and report.p_value < 1e-6

    # planted two-regime inhomogeneity at n = 1e5
    detected = 0
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        stream = np.concatenate(
            [
                (rng.random(50000) < 0.45).astype(np.uint8),
                (rng.random(50000) < 0.55).astype(np.uint8),
            ]
        )
        detected += homogeneity_test(stream, 10, alpha).reject
    assert detected / 100 > 0.9

    # full-box mixed vs pure streams are indistinguishable
    from contextlab.coins import box_run
    from contextlab.seeding import substream

    mixed_box = BoxEnsemble("mixed", n_blue=50, n_red=50)
    pure_box = BoxEnsemble("pure", n_coins=100)
    false_alarms = 0
    for seed in range(1000):
        e5 = box_run(mixed_box, 2000, substream((7000, seed), 0, 0))
        e6 = box_run(pure_box, 2000, substream((7000, seed), 0, 1))
        false_alarms += homogeneity_test_groups([e5, e6], alpha).reject
    assert false_alarms / 1000 <= 0.02
    announce(
        7,
        f"null rates {rates} all in [0.005, 0.02]; urn flagged 50/50 at 1e3 blocks "
        f"(power > 0.999); two-regime power {detected}/100; "
        f"mixed-vs-pure false alarms {false_alarms}/1000",
    )


# -----------------------------------------------------------------------------
# 8. Reproducibility
# -----------------------------------------------------------------------------


def _digest_dir(paths):
    import hashlib

    out = {}
    for p in paths:
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    def run_all(base):
        base.mkdir(parents=True, exist_ok=True)
        # relative outputs under the env outdir keep the echoed configs
        # identical across the two runs
        monkeypatch.setenv("CONTEXTLAB_OUTDIR", str(base))
        artifacts = []
        assert (
            run_command(
                [
                    "bell-run",
                    "--model", "selective",
                    "--sharpness", "2.0",
                    "--asymmetry", "0.25",
                    "--n-trials", "20000",
                    "--master-seed", "9",
                    "--schedule-seed", "4",
                    "--out", "stream.csv",
                ]
            )
            == 0
        )
        artifacts += [base / "stream.csv", base / "stream.csv.meta.json",
                      base / "stream.csv.config.json"]
        assert (
            run_command(
                [
                    "bell-analyze",
                    "--stream", str(base / "stream.csv"),
                    "--report", "report.json",
                    "--plot-data", "curve.dat",
                ]
            )
            == 0
        )
        artifacts += [base / "report.json", base / "curve.dat"]
        assert (
            run_command(
                [
                    "coins-run",
                    "--experiment", "e4",
                    "--rounds", "50",
                    "--seed", "6",
                    "--out", "urn.csv",
                ]
            )
            == 0
        )
        artifacts += [base / "urn.csv", base / "urn.csv.meta.json"]
        assert (
            run_command(
                [
                    "stream-test",
                    "--stream", str(base / "urn.csv"),
                    "--kind", "coins",
                    "--report", "tests.json",
                ]
            )
            == 0
        )
        artifacts += [base / "tests.json"]
        assert (
            run_command(
                [
                    "sweep",
                    "--d-grid", "0,1",
                    "--trials-per-point", "20000",
                    "--master-seed", "2",
                    "--report", "sweep.json",
                ]
            )
            == 0
        )
        artifacts += [base / "sweep.json"]
        return _digest_dir(artifacts)

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert first == second
    announce(8, f"{len(first)} artifacts byte-identical across repeated runs")
