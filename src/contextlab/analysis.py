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
outcomes.  One helper, `_chsh_pairs`, orders the four CHSH setting pairs, and
one, `_chsh_combination`, forms every CHSH combination from their terms.  The
shared-space bound is established constructively: enumerating all
deterministic +-1 assignments to the four CHSH observables shows every vertex
reaches |S| = 2 and none exceeds it, and mixtures are convex combinations of
vertices.  The calibration sweep runs its Monte Carlo pairs, each a
`run_counts` job with its own master seed, on up to `SWEEP_THREADS` threads,
so its output does not depend on the thread count.
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
from .simulate import PairCounts, SelectiveModel, SettingsSchedule, run_counts, source_angles

# standard maximizer for cosine-law correlations in the 2*theta convention
DEFAULT_CHSH_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
# a*b on each outcome cell counts[a + 1, b + 1]; its square marks where both clicked
_PRODUCT = np.multiply.outer((-1, 0, 1), (-1, 0, 1))


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
    n, s1, n_coinc = (int((weight * counts).sum()) for weight in (1, _PRODUCT, _PRODUCT**2))
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


def _chsh_pairs(a, a_prime, b, b_prime):
    """The four CHSH setting pairs in the order `_chsh_combination` takes their terms."""
    return (a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)


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
    pairs = [SettingPair(x, y) for x, y in _chsh_pairs(a, a_prime, b, b_prime)]
    terms = {}
    for pair in pairs:
        if pair not in estimates:
            raise IncompleteDesignError(f"setting pair {pair} missing from the stream")
        terms[pair] = estimates[pair].expectation(mode)
    values = [terms[pair][0] for pair in pairs]
    # two terms naming one pair (a = a' or b = b') are one estimate, weighted by their signs' sum
    weights = (_chsh_combination(*(q == pair for q in pairs)) for pair in terms)
    return ChshResult(
        settings=(a, a_prime, b, b_prime),
        mode=mode,
        s_value=float(_chsh_combination(*values)),
        se=float(math.sqrt(sum((w * se) ** 2 for w, (_, se) in zip(weights, terms.values())))),
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
    note: str = (
        "mixtures of deterministic strategies are convex combinations of the "
        "16 vertices, so no shared-space model exceeds the vertex maximum"
    )


def lhv_bound_enumeration() -> LhvBoundResult:
    """Max |S| over all deterministic +-1 assignments to the four observables."""
    vertices = tuple(
        (*signs, _chsh_combination(*(x * y for x, y in _chsh_pairs(*signs))))
        for signs in itertools.product((-1, 1), repeat=4)
    )
    return LhvBoundResult(float(max(abs(row[4]) for row in vertices)), vertices)


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
    both = folded.counts * _PRODUCT**2
    post = _singles_tests(folded, both, "postselected-singles", alpha_postselected)
    return NoSignalingReport(raw_tests=tuple(raw), postselected_tests=tuple(post))


# ---------------------------------------------------------------------------
# Quadrature curves for the continuous models
# ---------------------------------------------------------------------------


# Each value's bound, less its rounding part, that `model_curves` refines h to meet.
QUADRATURE_TOLERANCE = 1e-12
_DE_SPAN = 3.5  # a rule's nodes lie in t in (-_DE_SPAN, _DE_SPAN)
_DE_HALVINGS = 6  # h is halved at most this many times after the first rule
_U = 2.0**-53  # the unit roundoff of float64


def model_curves(model, x: float, y: float, n_points: int = 107) -> dict:
    """Double-exponential (tanh-sinh) quadrature for one continuous-model pair.

    Returns the raw and coincidence expectations, the joint detection rate and
    both post-selected marginals, each a mean over the source angle phi in
    [0, pi); `bound` maps each name to a bound on its error, and `nodes` is the
    nodes per panel of the rule that gave them.

    **The panels.**  With delta_A = phi - x and delta_B = phi + pi/2 - y, each
    wing's factors |cos 2 delta| and |cos delta| have their zeros and peaks
    where delta = 0, pi/4, pi/2 or 3pi/4 (mod pi).  So one period of phi,
    started at such a point, splits into at most 8 panels, each between two
    of them, and the four integrands (w, w ca cb, w ca and w cb, where w is
    the product of the wings' survivals and ca, cb their cos 2 delta) are
    analytic inside every panel.  Their |t|^p behaviour (p = d at a zero of
    cos 2 delta, d * asymmetry at one of cos delta) and a large sharpness's
    peaks sit at panel ends, where the rule's nodes cluster.

    **The rule.**  On a panel [a, b] of half-width m, phi = a + m (1 + tanh(pi/2
    sinh t)) turns the integral into one over the real t line, which the
    trapezoidal rule of step h sums; its error falls like exp(-c/h).  A rule of
    n nodes per panel takes h = 2 T / n and the nodes t_k = (k - (n-1)/2) h,
    T = `_DE_SPAN`.  Each node's distance from the nearer end, m * 2 / (exp(2
    |u|) + 1) with u = pi/2 sinh t, is formed directly, so no node is rounded
    onto an end.  Each integrand's terms are summed with `math.fsum`, so the
    sum is correctly rounded and does not depend on their order.  The node
    tables and the survival's powers come from the `math` module, not from
    numpy, whose float64 exp, sinh, cosh and pow kernels differ in last bits
    with the host's CPU features: with numpy's AVX-512 kernels off, and with
    AVX2, FMA and glibc's FMA variants off as well, every value kept its bits
    on the sweep's grids.

    **The bound** of each of the four means is the sum of three parts:

    - discretization: |Q_h - Q_2h|, where Q_2h sums every other node at twice
      the weight.  Once the rule resolves the integrand, halving h about
      squares the error, so the error of Q_h is far below that of Q_2h and
      |Q_h - Q_2h| bounds it.  It cannot see a feature that neither density
      resolves; the panels put the kinks and the peaks of a wing at nodes'
      clusters, and the test property checks the bound against references.
      A refined rule (n even) adds |Q_h - Q_prev|, its change from the rule it
      refines: its every-other-node half sits a quarter step off the nodes'
      symmetry about the panel's centre, so its leading error cancels for an
      integrand symmetric there, such as a peak of the product of both wings;
    - truncation: the nodes stop at |t| = (n-1)/2 h, 3e-22 of the half-width
      from the ends at the default rule.  The trapezoidal terms left out sum to
      at most the integral over that last sliver, at most its width times the
      larger of |f| at the last node and at the end (no extremum lies between
      them, so |f| is monotone there);
    - rounding, to first order in the unit roundoff u: each term's relative
      error is at most kappa u, with kappa = 2 d (9 + 4 asymmetry) + 47 +
      10 |u_k|.  That counts each cos, exp, sinh, cosh and pow as within 4
      ulp, raising to d multiplying a relative error by d, and the weight's
      exp(2 |u_k|) amplifying that of u_k.  Each node's position is also off by
      at most D = 8 u (pi + |x| + |y|) (the panel ends, the node, and
      delta = phi - s), which moves a term by D times its logarithmic
      derivative, at most (d + 1) 2 (|tan 2 delta_A| + |tan 2 delta_B|) +
      d asymmetry (|tan delta_A| + |tan delta_B|); and the fsum adds half an
      ulp.

    A ratio r = p / w with bounds e_p and e_w is within (e_p + |r| e_w) / (w -
    e_w) + u |r|.  The first rule has `n_points` nodes per panel, and n is
    doubled (h halved), up to `_DE_HALVINGS` times, until every value's bound
    without its rounding part is at most `QUADRATURE_TOLERANCE`.  The default
    107 nodes (h = 7/107) meet it for the sweep's grid in the first rule: at
    most 8 * 109 evaluations per pair, the panel ends included.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    previous = None
    for halving in range(_DE_HALVINGS + 1):
        nodes = n_points << halving
        means, refinable, rounding = _de_rule(model, x, y, nodes)
        if previous:
            refinable = [e + abs(m - p) for e, m, p in zip(refinable, means, previous)]
        previous = means
        if means[0] <= 0.0:
            raise InsufficientDataError("joint detection rate vanishes")
        if max(bound for _, bound in _curves(means, refinable).values()) <= QUADRATURE_TOLERANCE:
            break
    curves = _curves(means, [e + r for e, r in zip(refinable, rounding)])
    result: dict = {name: value for name, (value, _) in curves.items()}
    result["bound"] = {name: bound for name, (_, bound) in curves.items()}
    result["nodes"] = nodes
    return result


def _de_rule(model, x: float, y: float, n: int):
    """One tanh-sinh rule of `n` nodes per panel: the four means (w, w ca cb,
    w ca, w cb) and their discretization-plus-truncation and rounding bounds,
    as `model_curves` derives them."""
    q = math.pi / 4
    a = np.array(sorted({s % q + k * q for s in (x, y) for k in range(4)}))[:, None]
    b = np.append(a[1:], a[:1] + math.pi, axis=0)
    m = (b - a) / 2
    h = 2 * _DE_SPAN / n
    t = [(k - (n - 1) / 2) * h for k in range(n)]
    u = [(math.pi / 2) * math.sinh(tk) for tk in t]
    # each node's distance from the nearer end, in m, and its weight, (pi/2) dt over the period's pi
    gap = np.array([2 / (math.exp(2 * abs(uk)) + 1) for uk in u])
    weight = m * np.array([(h / 2) * math.cosh(tk) / math.cosh(uk) ** 2 for tk, uk in zip(t, u)])
    t, u = np.array(t), np.array(u)
    phi = np.concatenate([np.where(t < 0, a + m * gap, b - m * gap), a, b], axis=1)
    f, slope = _integrands(model, x, y, phi)
    terms = f[..., :n] * weight
    means = [math.fsum(v.ravel().tolist()) for v in terms]
    coarse = [2 * math.fsum(v[:, ::2].ravel().tolist()) for v in terms]
    # the sliver past each panel's last node at either end, over the period's pi
    sliver = m * gap[0] / math.pi
    tails = np.maximum(abs(f[..., [0, n - 1]]), abs(f[..., [n, n + 1]])) * sliver
    kappa = 2 * model.sharpness * (9 + 4 * model.asymmetry) + 47 + 10 * np.abs(u)
    shift = 8 * (math.pi + abs(x) + abs(y))
    error = abs(terms) * (kappa + shift * slope[:, :n])
    refinable = [abs(mean - c) + float(e.sum()) for mean, c, e in zip(means, coarse, tails)]
    rounding = [_U * (float(e.sum()) + abs(mean)) for mean, e in zip(means, error)]
    return means, refinable, rounding


def _integrands(model, x, y, phi):
    """(w, w ca cb, w ca, w cb) at source angles `phi`, stacked on a new first
    axis, and the bound on their logarithmic derivative in delta that
    `model_curves` derives."""
    lam1, lam2 = source_angles(phi)
    da, db = lam1 - x, lam2 - y
    ca, cb = np.cos(2.0 * da), np.cos(2.0 * db)
    w = model.survival(abs(np.cos(da)), abs(ca), _math_power)
    w = w * model.survival(abs(np.cos(db)), abs(cb), _math_power)
    wa = w * ca
    d, asym = model.sharpness, model.asymmetry
    slope = (d + 1) * 2 * (abs(np.tan(2.0 * da)) + abs(np.tan(2.0 * db)))
    if d * asym:
        slope += d * asym * (abs(np.tan(da)) + abs(np.tan(db)))
    return np.stack([w, wa * cb, wa, w * cb]), slope


def _math_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent elementwise by `math.pow`, whose bits numpy's CPU dispatch does not set."""
    return np.array([math.pow(b, exponent) for b in base.ravel().tolist()]).reshape(base.shape)


def _curves(means, errors) -> dict:
    """Each value of `model_curves` with its bound, from the four means and theirs."""
    w, p, pa, pb = means
    ew, ep, ea, eb = errors

    def ratio(num, e_num):
        r = num / w
        return r, (e_num + abs(r) * ew) / (w - ew) + _U * abs(r) if w > ew else math.inf

    return {
        "raw_expectation": (p, ep),
        "coincidence_expectation": ratio(p, ep),
        "detection_rate": (w, ew),
        "postselected_marginal_a": ratio(pa, ea),
        "postselected_marginal_b": ratio(pb, eb),
    }


def quadrature_chsh(
    model,
    settings: Sequence[float] = DEFAULT_CHSH_SETTINGS,
    mode: str = "coincidence",
) -> float:
    return _quadrature_chsh(model, settings, mode)[0]


def _quadrature_chsh(model, settings, mode) -> tuple[float, float]:
    """The quadrature CHSH combination and its bound: the sum of the four
    terms' bounds, plus the three additions' rounding, each at most half an ulp
    of a partial sum of magnitude at most 4."""
    if mode not in ("raw", "coincidence"):
        raise ValueError(f"mode must be 'raw' or 'coincidence', got {mode!r}")
    key = f"{mode}_expectation"
    curves = [model_curves(model, x, y) for x, y in _chsh_pairs(*settings)]
    s = _chsh_combination(*(c[key] for c in curves))
    return s, math.fsum(c["bound"][key] for c in curves) + 3 * 2.0**-51


# ---------------------------------------------------------------------------
# Calibration sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One sharpness of the sweep: the coincidence CHSH by quadrature, with the
    bound on its error, and by Monte Carlo, with its standard error, both as
    `chsh` gives them; `discrepancy` is their absolute difference."""

    sharpness: float
    s_quadrature: float
    s_monte_carlo: float
    discrepancy: float
    min_coincidence_rate: float
    s_quadrature_bound: float
    s_monte_carlo_se: float


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


def calibration_sweep(
    d_grid: Sequence[float] = DEFAULT_SWEEP_GRID,
    settings: Sequence[float] = DEFAULT_CHSH_SETTINGS,
    trials_per_point: int = 10**6,
    master_seed: int = 0,
    asymmetry: float = 0.0,
) -> SweepResult:
    """Coincidence-mode CHSH across the rejection-sharpness grid.

    For each grid value the CHSH combination is evaluated twice: by the
    tanh-sinh quadrature of `model_curves`, with its bound, and by `chsh` of
    Monte Carlo streams of `trials_per_point` trials per setting pair.  The
    oracle runs first, point by point; then one `run_counts` job per grid value
    and distinct pair, at the first CHSH term naming it and seeded (master_seed,
    grid index, term index), runs on min(`SWEEP_THREADS`, usable CPUs) threads
    and is read back in job order, so no result depends on the thread that ran
    it.  The first failed job in job order raises its own exception; the jobs
    not yet started are cancelled when the read reaches it, not when it fails,
    and the threads are joined first.  The returned best row maximizes the
    oracle |S| (deterministic in the grid; ties keep the first).
    """
    from concurrent.futures import ThreadPoolExecutor

    if not d_grid:
        raise InsufficientDataError("sharpness grid must be nonempty")
    raw = _chsh_pairs(*settings)
    pairs = [SettingPair(x, y) for x, y in raw]
    firsts = [pi for pi, pair in enumerate(pairs) if pair not in pairs[:pi]]
    models = [SelectiveModel(float(d), asymmetry) for d in d_grid]
    s_quads = [_quadrature_chsh(model, settings, "coincidence") for model in models]
    jobs = [
        (model, SettingsSchedule("cycle", (x,), (y,)), trials_per_point, (master_seed, di, pi))
        for di, model in enumerate(models)
        for pi, (x, y) in enumerate(raw)
        if pi in firsts
    ]
    with ThreadPoolExecutor(min(SWEEP_THREADS, _usable_cpus())) as pool:
        counts = list(pool.map(run_counts, *zip(*jobs)))
    estimates = [_estimate(c.pairs[0], c.counts[0]) for c in counts]
    rows = []
    for di, (model, (s_quad, bound)) in enumerate(zip(models, s_quads)):
        point = estimates[di * len(firsts) : (di + 1) * len(firsts)]
        mc = chsh({est.pair: est for est in point}, *settings, mode="coincidence")
        rows.append(
            SweepRow(
                sharpness=model.sharpness,
                s_quadrature=s_quad,
                s_monte_carlo=mc.s_value,
                discrepancy=abs(s_quad - mc.s_value),
                min_coincidence_rate=min(est.n_coincidences / est.n_trials for est in point),
                s_quadrature_bound=bound,
                s_monte_carlo_se=mc.se,
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
