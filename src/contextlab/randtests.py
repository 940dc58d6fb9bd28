"""Randomness and sample-purity tests for two-symbol streams.

The suite decides whether a time series behaves like a simple random sample:
independent draws from one fixed Bernoulli law.  Serial dependence is probed
by the runs and autocorrelation tests, marginal drift by the frequency test,
and block-level dispersion by the variance-ratio test (under-dispersion flags
without-replacement mechanics, over-dispersion flags regime mixtures).  The
homogeneity test compares consecutive sub-samples directly, which is the
operational version of asking whether every sub-ensemble of a collection
shows the same statistics.

Streams may be numpy arrays, lists of 0/1, of booleans, of +-1, or of the
coin symbols 'B'/'R'.  Normal approximations carry explicit small-sample
cutoffs with exact fallbacks (combinatorial runs distribution, exact binomial
test).  All tests are deterministic functions of their input.  Every p-value
comes from the standard library, so no test loads scipy: chi-square tails from
`chi_square_tails` (the regularized incomplete gamma function, a series or a
continued fraction in floats, with its prefactor in `decimal` off the centre),
normal tails from `math.erfc`, the normal quantile from `statistics.NormalDist`
(imported only where a quantile is taken) and the exact binomial test from
`math.comb` terms under `math.fsum`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from math import comb, erfc, fsum
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError

RUNS_NORMAL_CUTOFF = 20
FREQUENCY_NORMAL_CUTOFF = 30
MIN_BLOCKS = 30
MIN_SUBSAMPLE = 50


def check_alpha(alpha: float) -> None:
    """A significance level must lie strictly between 0 and 1 (NaN does not)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test; `reject` is derived from p and alpha."""

    name: str
    statistic: float
    null_ref: str
    p_value: float
    alpha: float
    n: int
    details: dict = field(default_factory=dict)
    reject: bool = field(init=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")
        object.__setattr__(self, "reject", bool(self.p_value < self.alpha))

    def to_dict(self) -> dict:
        return asdict(self)


def encode_binary(stream) -> np.ndarray:
    """Coerce a two-symbol sequence to a uint8 array of success indicators.

    The alphabet fixes the success symbol: True for booleans, 1 for 0/1 and
    -1/+1 streams, 'B' for the coin faces 'B'/'R', so a one-symbol stream
    keeps its meaning.  Any other alphabet, -1/0 included, is refused.
    """
    arr = np.asarray(stream)
    if arr.size == 0:
        raise InsufficientDataError("empty stream")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    success, failures = (1, (0, -1)) if arr.dtype.kind in "iuf" else ("B", ("R",))
    hit = arr == success
    if any(np.all(hit | (arr == failure)) for failure in failures):
        return hit.astype(np.uint8)
    try:
        symbols = np.unique(arr).tolist()
    except TypeError:  # an object array whose symbols do not compare
        symbols = "of mixed types"
    raise InsufficientDataError(f"not a two-symbol stream: symbols {symbols}")


def ternary_to_indicators(values) -> dict[int, np.ndarray]:
    """Map one Bell wing's ternary outcomes to three binary indicator streams."""
    arr = np.asarray(values)
    return {v: (arr == v).astype(np.uint8) for v in (-1, 0, 1)}


# ---------------------------------------------------------------------------
# Shared statistics
# ---------------------------------------------------------------------------

# the Stirling series of ln Gamma(a + 1) - (a ln a - a + ln(2 pi a) / 2) in 1/a:
# B(2k) / (2k (2k - 1)) for k = 1..8, whose next term is below 2e-18 at a = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _gamma_prefactor(a: float, stat: float) -> float:
    """x**a * exp(-x) / Gamma(a + 1) at x = stat/2, the factor both chi-square tails share.

    Off the range where the float formula is good to a few ulps, its
    logarithm a ln(x/a) - (x - a) - c(a), with c(a) = ln Gamma(a + 1) - a ln a + a,
    is formed in 40-digit `decimal` arithmetic: formed in floats, the
    rounding of its large terms cost up to 3.6e-13 relative in the far tails
    at large dof.  c(a) is small and needs only floats.
    """
    x = stat / 2.0
    if a < 10.0 and x < 700.0:
        power = x**a if stat >= 2.0**-1021 else stat**a * 0.5**a  # halving drops subnormal bits
        return math.exp(-x) * power / math.gamma(a + 1.0)
    from decimal import Decimal, localcontext

    if a < 10.0:
        c = math.lgamma(a + 1.0) - a * math.log(a) + a
    else:
        c = 0.5 * math.log(2.0 * math.pi * a) + fsum(
            k / a ** (2 * i + 1) for i, k in enumerate(_STIRLING)
        )
    with localcontext() as ctx:
        ctx.prec = 40
        xd, ad = Decimal(x), Decimal(a)
        return float((ad * (xd / ad).ln() - (xd - ad) - Decimal(c)).exp())


def chi_square_tails(dof: int, stat: float) -> tuple[float, float]:
    """Lower and upper tail of the chi-square law with `dof` degrees of freedom at `stat`.

    These are the regularized incomplete gamma functions P and Q at a = dof/2,
    x = stat/2.  Below x = a + 1, P is the prefactor times a power series
    summed with `fsum`; above, Q is the prefactor times a continued fraction
    (modified Lentz).  The other tail is the complement, which stays in
    [0, 1] because the tail computed directly is at most 0.92 in its region.
    """
    a, x = dof / 2.0, stat / 2.0
    prefactor = _gamma_prefactor(a, stat)
    if x < a + 1.0:
        terms, n = [1.0], 1
        while terms[-1] > 1e-17:  # the sum is at least 1 and the terms fall
            terms.append(terms[-1] * x / (a + n))
            n += 1
        lower = prefactor * fsum(terms)
        return lower, 1.0 - lower
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) >= 4e-16:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        delta = d * c
        h *= delta
    upper = prefactor * a * h
    return 1.0 - upper, upper


def chi_square_table(counts) -> tuple[float, int, float]:
    """Pearson chi-square of homogeneity for a contingency table.

    All-zero rows and columns are dropped; a table left with fewer than two
    rows or columns carries no evidence and returns (0, 0, 1).
    """
    table = np.asarray(counts, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, 0, 1.0
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    stat = float(((table - expected) ** 2 / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return stat, dof, chi_square_tails(dof, stat)[1]


def two_proportion_test(
    k1: int, n1: int, k2: int, n2: int, alpha: float = 0.01, name: str = "two-proportion"
) -> TestReport:
    """Pooled two-sided z-test for equality of two Bernoulli proportions."""
    if min(n1, n2) < 1:
        raise InsufficientDataError("both samples must be nonempty")
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        z, p = 0.0, 1.0
    else:
        se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        z = (p1 - p2) / se
        p = erfc(abs(z) / math.sqrt(2))
    return TestReport(
        name=name,
        statistic=float(z),
        null_ref="normal(0,1)",
        p_value=float(p),
        alpha=alpha,
        n=n1 + n2,
        details={"p1": p1, "p2": p2, "n1": n1, "n2": n2},
    )


def _degenerate(name: str, statistic: float, n: int, alpha: float, **details) -> TestReport:
    """The report on a single-symbol stream, which is no random sample of two
    symbols: rejected outright with an exact p-value of 0."""
    details["degenerate"] = True
    return TestReport(name, statistic, "degenerate-exact", 0.0, alpha, n, details)


# ---------------------------------------------------------------------------
# Runs test
# ---------------------------------------------------------------------------


def _exact_runs_p_value(n1: int, n2: int, r_obs: int) -> float:
    """Two-sided tail probability from the combinatorial runs distribution."""

    def ways(r: int) -> int:
        if r % 2 == 0:
            k = r // 2
            return 2 * comb(n1 - 1, k - 1) * comb(n2 - 1, k - 1)
        k = (r - 1) // 2
        return comb(n1 - 1, k) * comb(n2 - 1, k - 1) + comb(n1 - 1, k - 1) * comb(
            n2 - 1, k
        )

    total = comb(n1 + n2, n1)
    pmf = {r: ways(r) / total for r in range(2, n1 + n2 + 1)}
    lower = sum(p for r, p in pmf.items() if r <= r_obs)
    upper = sum(p for r, p in pmf.items() if r >= r_obs)
    return min(1.0, 2.0 * min(lower, upper))


def runs_test(stream, alpha: float = 0.01) -> TestReport:
    """Wald-Wolfowitz runs test for serial dependence.

    Uses the normal approximation from n >= 20 and the exact run-count
    distribution below; a single-symbol stream is rejected outright with an
    exact p-value of 0.
    """
    bits = encode_binary(stream)
    n = len(bits)
    n1 = int(bits.sum())
    n2 = n - n1
    runs = int(np.count_nonzero(np.diff(bits))) + 1
    if n1 == 0 or n2 == 0:
        return _degenerate("runs", float(runs), n, alpha, runs=runs, n1=n1, n2=n2)
    expected = 1.0 + 2.0 * n1 * n2 / n
    if n < RUNS_NORMAL_CUTOFF:
        statistic, null_ref = float(runs), "exact-combinatorial"
        p = _exact_runs_p_value(n1, n2, runs)
    else:
        variance = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
        statistic = float((runs - expected) / math.sqrt(variance))
        null_ref, p = "normal(0,1)", float(erfc(abs(statistic) / math.sqrt(2)))
    return TestReport(
        name="runs",
        statistic=statistic,
        null_ref=null_ref,
        p_value=p,
        alpha=alpha,
        n=n,
        details={"runs": runs, "expected": expected, "n1": n1, "n2": n2},
    )


# ---------------------------------------------------------------------------
# Frequency test
# ---------------------------------------------------------------------------


def binomial_pmf(n: int, p0: float) -> list[float]:
    """P(K = i) for K ~ binomial(n, p0), i = 0..n, each from `math.comb`."""
    return [comb(n, i) * p0**i * (1.0 - p0) ** (n - i) for i in range(n + 1)]


def exact_binomial_p_value(k: int, n: int, p0: float) -> float:
    """Two-sided exact binomial p-value by `scipy.stats.binomtest`'s rule.

    It sums pmf(i) over every outcome i with pmf(i) <= pmf(k) * (1 + 1e-7),
    capped at 1; k = n * p0 gives 1.
    """
    if k == n * p0:
        return 1.0
    pmf = binomial_pmf(n, p0)
    cut = pmf[k] * (1.0 + 1e-7)
    return min(1.0, fsum(q for q in pmf if q <= cut))


def frequency_test(stream, p0: float = 0.5, alpha: float = 0.01) -> TestReport:
    """Two-sided test of the success frequency against p0."""
    if not 0.0 < p0 < 1.0:
        raise InsufficientDataError(f"p0 must be inside (0, 1), got {p0}")
    bits = encode_binary(stream)
    n = len(bits)
    k = int(bits.sum())
    if n < FREQUENCY_NORMAL_CUTOFF:
        statistic, null_ref = float(k), f"binomial(n={n}, p={p0})"
        p = exact_binomial_p_value(k, n, p0)
    else:
        statistic = float((k / n - p0) / math.sqrt(p0 * (1.0 - p0) / n))
        null_ref, p = "normal(0,1)", float(erfc(abs(statistic) / math.sqrt(2)))
    return TestReport(
        name="frequency",
        statistic=statistic,
        null_ref=null_ref,
        p_value=p,
        alpha=alpha,
        n=n,
        details={"count": k, "frequency": k / n, "p0": p0},
    )


# ---------------------------------------------------------------------------
# Block variance test
# ---------------------------------------------------------------------------


def block_variance_test(stream, block_size: int, alpha: float = 0.01) -> TestReport:
    """Dispersion of per-block counts against the Bernoulli expectation.

    The statistic sum (c_i - B*p)^2 / (B*p*(1-p)) over m complete blocks is
    chi-square with m-1 degrees of freedom under simple random sampling; the
    two-sided p-value catches under-dispersion (without-replacement draws) as
    well as over-dispersion (mixtures).
    """
    bits = encode_binary(stream)
    if block_size < 1:
        raise InsufficientDataError("block_size must be >= 1")
    m = len(bits) // block_size
    if m < MIN_BLOCKS:
        raise InsufficientDataError(
            f"need at least {MIN_BLOCKS} complete blocks, have {m}"
        )
    blocks = bits[: m * block_size].reshape(m, block_size)
    counts = blocks.sum(axis=1).astype(float)
    p_hat = float(counts.sum()) / (m * block_size)
    if p_hat in (0.0, 1.0):
        return _degenerate("block-variance", 0.0, m * block_size, alpha, blocks=m, block_size=block_size)
    expected_var = block_size * p_hat * (1.0 - p_hat)
    stat = float(((counts - block_size * p_hat) ** 2).sum() / expected_var)
    dof = m - 1
    p = min(1.0, 2.0 * min(chi_square_tails(dof, stat)))
    return TestReport(
        name="block-variance",
        statistic=stat,
        null_ref=f"chi2(df={dof}), two-sided",
        p_value=p,
        alpha=alpha,
        n=m * block_size,
        details={
            "blocks": m,
            "block_size": block_size,
            "variance_ratio": stat / dof,
            "p_hat": p_hat,
        },
    )


# ---------------------------------------------------------------------------
# Homogeneity test
# ---------------------------------------------------------------------------


def homogeneity_test_groups(groups: Sequence, alpha: float = 0.01) -> TestReport:
    """Chi-square equality of success frequencies across explicit groups."""
    if len(groups) < 2:
        raise InsufficientDataError("need at least two groups")
    encoded = [encode_binary(g) for g in groups]
    if min(len(g) for g in encoded) < MIN_SUBSAMPLE:
        raise InsufficientDataError(f"every group needs >= {MIN_SUBSAMPLE} entries")
    table = np.array([[int(g.sum()), int(len(g) - g.sum())] for g in encoded])
    stat, dof, p = chi_square_table(table)
    return TestReport(
        name="homogeneity",
        statistic=stat,
        null_ref=f"chi2(df={dof})",
        p_value=p,
        alpha=alpha,
        n=int(table.sum()),
        details={
            "groups": len(encoded),
            "frequencies": [float(g.mean()) for g in encoded],
        },
    )


def homogeneity_test(stream, n_subsamples: int, alpha: float = 0.01) -> TestReport:
    """Split into consecutive sub-samples and compare their frequencies."""
    if n_subsamples < 2:
        raise InsufficientDataError("n_subsamples must be >= 2")
    bits = encode_binary(stream)
    size = len(bits) // n_subsamples
    if size < MIN_SUBSAMPLE:
        raise InsufficientDataError(
            f"sub-samples of {size} entries are below the minimum {MIN_SUBSAMPLE}"
        )
    groups = [bits[i * size : (i + 1) * size] for i in range(n_subsamples)]
    return homogeneity_test_groups(groups, alpha)


# ---------------------------------------------------------------------------
# Autocorrelation test
# ---------------------------------------------------------------------------


def _lag_product(bits: np.ndarray, k: int) -> int:
    """n**2 times the sum of (bits[i] - mean) * (bits[i + k] - mean) over i < n - k, exactly."""
    n, ones = len(bits), int(np.count_nonzero(bits))
    head, tail = bits[: n - k], bits[k:]
    both, h, t = (int(np.count_nonzero(v)) for v in (head & tail, head, tail))
    return n * n * both - n * ones * (h + t) + ones * ones * (n - k)


def autocorrelation_test(stream, max_lag: int, alpha: float = 0.01) -> TestReport:
    """Exact sample autocorrelations, rounded once, and their Ljung-Box statistic."""
    if max_lag < 1:
        raise InsufficientDataError("max_lag must be >= 1")
    bits = encode_binary(stream)
    n = len(bits)
    if n < 100 * max_lag:
        raise InsufficientDataError(f"need n >= {100 * max_lag}, have {n}")
    denom = _lag_product(bits, 0)
    lags = np.arange(1, max_lag + 1)
    if denom == 0:
        return _degenerate("autocorrelation", 0.0, n, alpha, lags=lags.tolist())
    r = np.array([_lag_product(bits, k) / denom for k in lags.tolist()])
    q = float(n * (n + 2.0) * np.sum(r**2 / (n - lags)))
    from statistics import NormalDist
    p = chi_square_tails(max_lag, q)[1]
    band = NormalDist().inv_cdf(1.0 - alpha / 2.0) / math.sqrt(n)
    return TestReport(
        name="autocorrelation",
        statistic=q,
        null_ref=f"chi2(df={max_lag}) (Ljung-Box)",
        p_value=p,
        alpha=alpha,
        n=n,
        details={
            "lags": lags.tolist(),
            "autocorrelations": r.tolist(),
            "band": band,
        },
    )


# ---------------------------------------------------------------------------
# Inhomogeneity breakdown demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakdownReport:
    """How a regime mixture defeats the pooled frequency analysis.

    `coverage[i]` is the fraction of replications whose naive pooled
    confidence interval contains regime i's true frequency; under a genuine
    mixture it collapses far below the nominal level while the homogeneity
    test flags the stream.
    """

    n: int
    nominal_coverage: float
    coverage: tuple[float, ...]
    mean_pooled_estimate: float
    homogeneity_rejection_rate: float


BREAKDOWN_CI_LEVEL = 0.95
BREAKDOWN_SUBSAMPLES = 10
BREAKDOWN_ALPHA = 0.01


def inhomogeneity_breakdown_demo(
    regimes: Sequence[float], n: int, seed: int, replications: int = 1000
) -> BreakdownReport:
    """Replicate a multi-regime stream and score naive CI coverage.

    Each replication concatenates equal-length segments with the given
    success probabilities, forms the pooled estimate with its normal-theory
    confidence interval, and checks that interval against every regime's
    truth; the homogeneity test runs on the same stream.
    """
    regimes = tuple(float(p) for p in regimes)
    if len(regimes) < 2:
        raise InsufficientDataError("need at least two regimes")
    seg = n // len(regimes)
    if seg * len(regimes) < MIN_SUBSAMPLE * BREAKDOWN_SUBSAMPLES:
        raise InsufficientDataError("stream too short for the demonstration")
    rng = np.random.default_rng(seed)
    from statistics import NormalDist
    z = NormalDist().inv_cdf(0.5 + BREAKDOWN_CI_LEVEL / 2.0)
    covered = np.zeros(len(regimes))
    rejected = 0
    pooled_sum = 0.0
    total = seg * len(regimes)
    for _ in range(replications):
        stream = np.concatenate(
            [(rng.random(seg) < p).astype(np.uint8) for p in regimes]
        )
        p_hat = float(stream.mean())
        half = z * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)
        covered += [(p_hat - half <= p <= p_hat + half) for p in regimes]
        pooled_sum += p_hat
        if homogeneity_test(stream, BREAKDOWN_SUBSAMPLES, BREAKDOWN_ALPHA).reject:
            rejected += 1
    return BreakdownReport(
        n=total,
        nominal_coverage=BREAKDOWN_CI_LEVEL,
        coverage=tuple(covered / replications),
        mean_pooled_estimate=pooled_sum / replications,
        homogeneity_rejection_rate=rejected / replications,
    )
