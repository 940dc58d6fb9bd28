"""Correlation estimation, CHSH combinations, and no-signaling reports.

Every Bell estimate is a function of `simulate.PairCounts`: the
`SettingPair`s that occur, which key the estimates, and one 3x3 block of
outcome counts `counts[k, a, b]` per pair.
One fold builds it from generated chunks (`simulate.run_counts`), from
`STREAM_ROW` records (`PairCounts.from_stream`) or from a stream file's blocks
(`PairCounts.from_blocks`), and all three agree in every field.
The raw expectation keeps non-detections in the product (a zero outcome
contributes a zero product), which puts the estimator on the same footing as
the exact finite-model contraction; the coincidence expectation conditions on
both wings having clicked.  Both come with standard errors from exact integer
moments.  The no-signaling tables sum the same blocks over the other wing's
outcomes.  One helper forms every CHSH combination.  The shared-space bound
is established constructively: enumerating all deterministic +-1 assignments
to the four CHSH observables shows every vertex reaches |S| = 2 and none
exceeds it, and mixtures are convex combinations of vertices.  The
calibration sweep runs its Monte Carlo pairs, each a `run_counts` job with its
own master seed, on up to `SWEEP_THREADS` threads, so its output does not
depend on the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import IncompleteDesignError, InsufficientDataError
from .models import SettingPair
from .randtests import TestReport, check_alpha, chi_square_table
from .simulate import TILE, PairCounts, SelectiveModel, SettingsSchedule, run_counts

# standard maximizer for cosine-law correlations in the 2*theta convention
DEFAULT_CHSH_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


# ---------------------------------------------------------------------------
# Correlation estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationEstimate:
    """Counts and expectations for one setting pair.

    `counts[i, j]` indexes outcomes (-1, 0, +1) for Alice (rows) and Bob
    (columns).  The coincidence fields are None when no trial had both wings
    click.
    """

    pair: SettingPair
    counts: np.ndarray
    n_trials: int
    raw_expectation: float
    raw_se: float
    n_coincidences: int
    coincidence_expectation: float | None
    coincidence_se: float | None

    def expectation(self, mode: str) -> tuple[float, float]:
        if mode == "raw":
            return self.raw_expectation, self.raw_se
        if mode == "coincidence":
            if self.coincidence_expectation is None:
                raise IncompleteDesignError(
                    f"coincidence expectation undefined at {self.pair}"
                )
            return self.coincidence_expectation, self.coincidence_se
        raise ValueError(f"mode must be 'raw' or 'coincidence', got {mode!r}")


def _counted(stream: np.ndarray | PairCounts) -> PairCounts:
    return stream if isinstance(stream, PairCounts) else PairCounts.from_stream(stream)


def _mean_and_se(n: int, s1: int, s2: int) -> tuple[float, float]:
    """Mean and standard error of n values with sum s1 and sum of squares s2.

    s1 / n is the float mean of the values bit for bit.  The squared standard
    error (n*s2 - s1**2) / (n**2 * (n - 1)) is a ratio of exact integers
    rounded once, so its square root is within one ulp of the exact value.
    """
    mean = s1 / n
    se = math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1))) if n > 1 else 0.0
    return mean, se


def _estimate(pair: SettingPair, counts: np.ndarray) -> CorrelationEstimate:
    """The estimate of one pair from its 3x3 outcome counts."""
    n = int(counts.sum())
    # the product a*b is +1 on the (-1,-1) and (+1,+1) cells, -1 on the
    # (-1,+1) and (+1,-1) cells and 0 elsewhere; its square marks coincidences
    s1 = int(counts[0, 0] + counts[2, 2] - counts[0, 2] - counts[2, 0])
    n_coinc = int(counts[0, 0] + counts[2, 2] + counts[0, 2] + counts[2, 0])
    raw, raw_se = _mean_and_se(n, s1, n_coinc)
    c_mean, c_se = _mean_and_se(n_coinc, s1, n_coinc) if n_coinc else (None, None)
    return CorrelationEstimate(pair, counts, n, raw, raw_se, n_coinc, c_mean, c_se)


def estimate_correlations(
    stream: np.ndarray | PairCounts,
) -> dict[SettingPair, CorrelationEstimate]:
    """One estimate per setting pair (angles taken modulo 2*pi), in order of
    first appearance; `STREAM_ROW` records are folded into `PairCounts` first."""
    folded = _counted(stream)
    if len(folded) == 0:
        raise InsufficientDataError("empty stream")
    return {pair: _estimate(pair, counts) for pair, counts in zip(folded.pairs, folded.counts)}


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


def _chsh_combination(e_ab, e_abp, e_apb, e_apbp):
    """E(a,b) - E(a,b') + E(a',b) + E(a',b'), summed left to right."""
    return e_ab - e_abp + e_apb + e_apbp


@dataclass(frozen=True)
class ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') with its quadrature-sum SE."""

    settings: tuple[float, float, float, float]
    mode: str
    s_value: float
    se: float
    terms: tuple[float, float, float, float]

    def __post_init__(self):
        if abs(self.s_value) > 4.0 + 1e-9:
            raise ValueError(f"|S| = {abs(self.s_value)} exceeds the algebraic maximum 4")


def chsh(
    estimates: Mapping[SettingPair, CorrelationEstimate],
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    mode: str = "raw",
) -> ChshResult:
    pairs = (
        SettingPair(a, b),
        SettingPair(a, b_prime),
        SettingPair(a_prime, b),
        SettingPair(a_prime, b_prime),
    )
    values, variances = [], []
    for pair in pairs:
        if pair not in estimates:
            raise IncompleteDesignError(f"setting pair {pair} missing from the stream")
        e, se = estimates[pair].expectation(mode)
        values.append(e)
        variances.append(se**2)
    return ChshResult(
        settings=(a, a_prime, b, b_prime),
        mode=mode,
        s_value=float(_chsh_combination(*values)),
        se=float(math.sqrt(sum(variances))),
        terms=tuple(values),
    )


# ---------------------------------------------------------------------------
# Shared-space bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LhvBoundResult:
    """Exhaustive enumeration of the 16 deterministic CHSH strategies."""

    max_abs_s: float
    vertices: tuple  # rows (A(a), A(a'), B(b), B(b'), S)
    argmax: tuple  # the assignments reaching max |S|
    note: str = (
        "mixtures of deterministic strategies are convex combinations of the "
        "16 vertices, so no shared-space model exceeds the vertex maximum"
    )


def lhv_bound_enumeration() -> LhvBoundResult:
    """Max |S| over all deterministic +-1 assignments to the four observables."""
    rows = []
    best: list[tuple] = []
    max_abs = 0.0
    for aa, ap, bb, bp in itertools.product((-1, 1), repeat=4):
        s = _chsh_combination(aa * bb, aa * bp, ap * bb, ap * bp)
        rows.append((aa, ap, bb, bp, s))
        if abs(s) > max_abs:
            max_abs = abs(s)
            best = [(aa, ap, bb, bp, s)]
        elif abs(s) == max_abs:
            best.append((aa, ap, bb, bp, s))
    return LhvBoundResult(max_abs_s=float(max_abs), vertices=tuple(rows), argmax=tuple(best))


# ---------------------------------------------------------------------------
# No-signaling reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoSignalingReport:
    """Chi-square comparisons of single-wing outcome distributions.

    For each wing and each of its settings, the raw tests compare the full
    (-1, 0, +1) outcome counts across the counterpart's settings; the
    post-selected tests repeat the comparison restricted to trials where both
    wings clicked.  Raw dependence would signal; post-selected dependence is
    an artifact of conditioning and does not.
    """

    raw_tests: tuple[TestReport, ...]
    postselected_tests: tuple[TestReport, ...]

    def any_raw_rejection(self) -> bool:
        return any(t.reject for t in self.raw_tests)

    def any_postselected_rejection(self) -> bool:
        return any(t.reject for t in self.postselected_tests)

    def all_tests(self) -> tuple[TestReport, ...]:
        return self.raw_tests + self.postselected_tests


def _singles_tests(
    folded: PairCounts, counts: np.ndarray, label: str, alpha: float
) -> list[TestReport]:
    """Chi-square tests of each wing's outcome counts (`counts`' per-pair blocks
    summed over the other wing's outcomes) across the counterpart settings that
    have trials, own and counterpart settings each in order of value."""
    reports = []
    for wing, singles in (("A", counts.sum(axis=2)), ("B", counts.sum(axis=1))):
        groups: dict[float, dict[float, np.ndarray]] = {}
        for pair, row in zip(folded.pairs, singles):
            own, other = (pair.x, pair.y) if wing == "A" else (pair.y, pair.x)
            if row.any():
                groups.setdefault(own, {})[other] = row
        for own in sorted(groups):
            others = sorted(groups[own])
            if len(others) < 2:
                continue
            table = np.array([groups[own][other] for other in others])
            stat, dof, p = chi_square_table(table)
            reports.append(
                TestReport(
                    name=f"{label}:{wing}|setting={own:g}",
                    statistic=stat,
                    null_ref=f"chi2(df={dof})",
                    p_value=p,
                    alpha=alpha,
                    n=int(table.sum()),
                    details={"counterpart_settings": others, "counts": table.tolist()},
                )
            )
    return reports


def no_signaling_report(
    stream: np.ndarray | PairCounts,
    alpha_raw: float = 0.01,
    alpha_postselected: float = 0.001,
) -> NoSignalingReport:
    check_alpha(alpha_raw)
    check_alpha(alpha_postselected)
    folded = _counted(stream)
    raw = _singles_tests(folded, folded.counts, "raw-singles", alpha_raw)
    if not raw:
        raise InsufficientDataError(
            "no-signaling comparison needs at least two counterpart settings "
            "for some setting of some wing"
        )
    clicked = np.array([1, 0, 1])  # keeps the block where both wings clicked
    both = folded.counts * np.outer(clicked, clicked)
    post = _singles_tests(folded, both, "postselected-singles", alpha_postselected)
    return NoSignalingReport(raw_tests=tuple(raw), postselected_tests=tuple(post))


# ---------------------------------------------------------------------------
# Quadrature curves for the continuous models
# ---------------------------------------------------------------------------


def model_curves(model, x: float, y: float, n_points: int = 200_001) -> dict:
    """Deterministic midpoint-rule values for one continuous-model pair.

    Returns raw/coincidence expectations, the joint detection rate and both
    post-selected marginals.  The integrands are formed `TILE` points at a
    time, then each is summed whole: np.sum's pairwise order sets the bits.
    """
    w, wab, wa, wb = (np.empty(n_points) for _ in range(4))
    for start in range(0, n_points, TILE):
        rows = slice(start, min(start + TILE, n_points))
        phi = (np.arange(rows.start, rows.stop) + 0.5) * (math.pi / n_points)
        da = phi - x
        db = phi + math.pi / 2 - y
        ca = np.cos(2.0 * da)
        cb = np.cos(2.0 * db)
        w[rows] = model.survival(da, cos2=ca) * model.survival(db, cos2=cb)
        np.multiply(w[rows], ca, out=wa[rows])
        np.multiply(wa[rows], cb, out=wab[rows])
        np.multiply(w[rows], cb, out=wb[rows])
    total = float(np.sum(w))
    rate = total / n_points
    if total <= 0.0:
        raise InsufficientDataError("joint detection rate vanishes")
    product = float(np.sum(wab))
    return {
        "raw_expectation": product / n_points,
        "coincidence_expectation": product / total,
        "detection_rate": rate,
        "postselected_marginal_a": float(np.sum(wa)) / total,
        "postselected_marginal_b": float(np.sum(wb)) / total,
    }


def quadrature_chsh(
    model,
    settings: Sequence[float] = DEFAULT_CHSH_SETTINGS,
    mode: str = "coincidence",
) -> float:
    a, ap, b, bp = settings
    key = "coincidence_expectation" if mode == "coincidence" else "raw_expectation"
    pairs = ((a, b), (a, bp), (ap, b), (ap, bp))
    return _chsh_combination(*(model_curves(model, xx, yy)[key] for xx, yy in pairs))


# ---------------------------------------------------------------------------
# Calibration sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    sharpness: float
    s_quadrature: float
    s_monte_carlo: float
    discrepancy: float
    min_coincidence_rate: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best: SweepRow
    settings: tuple[float, float, float, float]
    asymmetry: float
    trials_per_point: int
    master_seed: int

    def series(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("sharpness", "abs_s_quadrature", "abs_s_monte_carlo", "discrepancy")
        rows = [
            (r.sharpness, abs(r.s_quadrature), abs(r.s_monte_carlo), r.discrepancy)
            for r in self.rows
        ]
        return header, rows


DEFAULT_SWEEP_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SWEEP_THREADS = 2  # at most this many Monte Carlo jobs run at once


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_counts_on_threads(jobs) -> list[PairCounts]:
    """`run_counts(*job)` for every job, in job order, on a pool of
    min(`SWEEP_THREADS`, usable CPUs) threads.

    Each job has its own seed, so no result depends on the thread that ran it.
    Once a job raises, the jobs not yet started are cancelled and the first
    failed job in job order raises its exception.
    """
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(min(SWEEP_THREADS, _usable_cpus()))
    try:
        futures = [pool.submit(run_counts, *job) for job in jobs]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def calibration_sweep(
    d_grid: Sequence[float] = DEFAULT_SWEEP_GRID,
    settings: Sequence[float] = DEFAULT_CHSH_SETTINGS,
    trials_per_point: int = 10**6,
    master_seed: int = 0,
    asymmetry: float = 0.0,
) -> SweepResult:
    """Coincidence-mode CHSH across the rejection-sharpness grid.

    For each grid value the CHSH combination is evaluated twice: by the
    midpoint-rule oracle and from Monte Carlo streams of `trials_per_point`
    trials per setting pair.  The oracle runs first, point by point; then
    every grid value's and pair's `run_counts` job, seeded
    (master_seed, grid index, pair index), runs on the thread pool.  The
    returned best row maximizes the oracle |S| (deterministic in the grid;
    ties keep the first).
    """
    if not d_grid:
        raise InsufficientDataError("sharpness grid must be nonempty")
    a, ap, b, bp = settings
    pair_list = ((a, b), (a, bp), (ap, b), (ap, bp))
    models = [SelectiveModel(float(d), asymmetry) for d in d_grid]
    s_quads = [quadrature_chsh(model, settings, "coincidence") for model in models]
    jobs = [
        (model, SettingsSchedule("cycle", (xx,), (yy,)), trials_per_point, (master_seed, di, pi))
        for di, model in enumerate(models)
        for pi, (xx, yy) in enumerate(pair_list)
    ]
    estimates = [_estimate(c.pairs[0], c.counts[0]) for c in _run_counts_on_threads(jobs)]
    rows = []
    for di, (model, s_quad) in enumerate(zip(models, s_quads)):
        point = estimates[di * len(pair_list) : (di + 1) * len(pair_list)]
        s_mc = _chsh_combination(*(est.expectation("coincidence")[0] for est in point))
        min_rate = min(est.n_coincidences / est.n_trials for est in point)
        rows.append(
            SweepRow(
                sharpness=model.sharpness,
                s_quadrature=s_quad,
                s_monte_carlo=s_mc,
                discrepancy=abs(s_quad - s_mc),
                min_coincidence_rate=min_rate,
            )
        )
    best = max(rows, key=lambda r: abs(r.s_quadrature))
    return SweepResult(
        rows=tuple(rows),
        best=best,
        settings=tuple(settings),
        asymmetry=asymmetry,
        trials_per_point=trials_per_point,
        master_seed=master_seed,
    )
