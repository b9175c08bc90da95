"""Monte Carlo engine and experiment harness for the probabilistic estimates.

Every experiment is a pure function of (config, seed): sampling goes through
streams keyed by sample index and bootstraps are seeded, so reruns with any
worker count reproduce the same tables byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import ConfigurationError, DisorderSpec, Region, StripGeometry
from .perturbation import grid_partition
from .sampling import sample_logdets, sample_spectral
from .transfer import lyapunov_spectrum

__all__ = [
    "MonteCarloSummary",
    "mc_logdet",
    "TailRow",
    "TailTable",
    "CartanRow",
    "cartan_tail_experiment",
    "LdtResult",
    "ldt_experiment",
    "NegTailRow",
    "NegTailResult",
    "negative_tail_experiment",
    "BernsteinRow",
    "bernstein_check",
    "block_logdet_summands",
    "delta_schedule",
    "MultiscaleRow",
    "multiscale_compare",
    "PipelineReport",
    "lyapunov_sum_pipeline",
    "linear_fit",
]


def _binom_sigma(fraction: float, n: int) -> float:
    return math.sqrt(max(fraction * (1.0 - fraction), 0.0) / n)


def _tail_fields(k, threshold, hits: np.ndarray, decay: float) -> dict:
    """The TailRow fields of one exceedance mask, against the bound exp(-k / decay)."""
    frac = float(np.mean(hits))
    return dict(
        k=float(k),
        threshold=float(threshold),
        count=int(np.sum(hits)),
        fraction=frac,
        sigma=_binom_sigma(frac, len(hits)),
        bound=math.exp(-k / decay),
    )


def _nonsingular(values: np.ndarray) -> np.ndarray:
    """The finite samples of a log-determinant ensemble; an all-singular one is a configuration error."""
    kept = values[np.isfinite(values)]
    if len(kept) == 0:
        raise ConfigurationError(f"all {len(values)} samples excluded as singular")
    return kept


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least squares line fit returning (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class MonteCarloSummary:
    """Moments and tails of a sampled statistic."""

    n: int
    mean: float
    variance: float
    central_moments: tuple[float, ...]
    seed: int
    wall_time: float
    n_excluded: int = 0
    samples: np.ndarray | None = None

    @classmethod
    def from_samples(
        cls, values: np.ndarray, seed: int, wall_time: float = 0.0, n_excluded: int = 0
    ) -> "MonteCarloSummary":
        values = np.asarray(values, dtype=float)
        n = len(values)
        if n < 1:
            raise ConfigurationError("summary needs at least one sample")
        mean = float(np.mean(values))
        centered = values - mean
        cms = tuple(float(np.mean(centered**k)) for k in range(2, 7))
        var = float(np.var(values, ddof=1)) if n > 1 else 0.0
        return cls(
            n=n,
            mean=mean,
            variance=var,
            central_moments=cms,
            seed=seed,
            wall_time=wall_time,
            n_excluded=n_excluded,
            samples=values,
        )

    def exceedance(self, thresholds, mode: str = "abs") -> np.ndarray:
        """Empirical tail function: fraction of samples past each threshold."""
        if self.samples is None:
            raise ConfigurationError("tail function needs retained samples")
        t = np.asarray(thresholds, dtype=float)
        if mode == "abs":
            return np.array([np.mean(np.abs(self.samples) > th) for th in t])
        if mode == "above":
            return np.array([np.mean(self.samples > th) for th in t])
        if mode == "below":
            return np.array([np.mean(self.samples < th) for th in t])
        raise ConfigurationError(f"unknown tail mode {mode!r}")


def mc_logdet(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloSummary:
    """Summary of log|det(H_region - E)| over the disorder ensemble.

    Exactly singular draws are excluded from the moments and counted in
    ``n_excluded``.
    """
    if n_samples < 2:
        raise ConfigurationError("n_samples must be at least 2")
    t0 = time.perf_counter()
    values, n_singular = sample_logdets(spec, geometry, region, energy, n_samples, seed, workers)
    kept = values[np.isfinite(values)]
    return MonteCarloSummary.from_samples(
        kept, seed=seed, wall_time=time.perf_counter() - t0, n_excluded=n_singular
    )


@dataclass(frozen=True)
class TailRow:
    k: float
    threshold: float
    count: int
    fraction: float
    sigma: float
    bound: float


@dataclass(frozen=True)
class TailTable:
    label: str
    n: int
    rows: list

    def onset(self) -> float | None:
        """Smallest grid K from which every fraction sits below bound + 3 sigma."""
        ok_from = None
        for row in reversed(self.rows):
            if row.fraction <= row.bound + 3.0 * row.sigma:
                ok_from = row.k
            else:
                break
        return ok_from

    def row_at(self, k: float):
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(f"no row at K={k}")


@dataclass(frozen=True)
class CartanRow(TailRow):
    norm_count: int
    dist_count: int
    implication_violations: int


def cartan_tail_experiment(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    energy: float,
    k_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> TailTable:
    """Tail of |log|det(H - E)|| at thresholds |region| K against exp(-K/4).

    Each sample also records whether log(|E| + ||H||) > K or
    log dist(E, spec H) < -K; exceedance of the determinant tail without one
    of those two causes is a pointwise violation and is counted (it must be
    zero up to roundoff).  On W = 2 rectangles log|det| comes from the Schur
    sweep (route (a) where it marks a sample bad) and the two causes from
    inertia counts of the same sweep at shifted energies, so the count
    compares two independent computations; elsewhere all three come from one
    ``eigvalsh`` per sample (``sample_spectral``).
    """
    data = sample_spectral(spec, geometry, region, energy, k_grid, n_samples, seed, workers)
    x = np.abs(data["log_abs"])
    size = region.size
    rows = []
    for k, dist_hits, norm_hits in zip(k_grid, data["dist_hits"], data["norm_hits"]):
        thr = size * k
        hits = x > thr
        violations = int(np.sum(hits & ~(norm_hits | dist_hits)))
        rows.append(
            CartanRow(
                **_tail_fields(k, thr, hits, 4.0),
                norm_count=int(np.sum(norm_hits)),
                dist_count=int(np.sum(dist_hits)),
                implication_violations=violations,
            )
        )
    return TailTable(label=f"cartan_{size}", n=n_samples, rows=rows)


@dataclass(frozen=True)
class LdtResult:
    tables: list
    var_points: list
    var_exponent: float
    var_r2: float
    degenerate: int


def ldt_experiment(
    spec: DisorderSpec,
    geometry: StripGeometry,
    rectangles: list,
    energy: float,
    epsilon: float,
    k_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> LdtResult:
    """Centered large-deviation tails at scale |region|^(1/2+eps) K vs exp(-K/2).

    Also fits Var(log|det|) against |region| across the rectangles, whose
    exponent should sit near one.  A rectangle whose m samples have a
    standard deviation of at most m eps max(1, max|log|det||) holds no
    spread but roundoff, and is counted as degenerate: (m - 1) eps max|x|
    bounds the summation error of a mean, and the 1 covers log-determinants
    that cancel to near zero from O(1) column terms, such as the resonant
    strip at E = 0.  Any degenerate rectangle leaves the exponent and its
    R^2 undefined (NaN).
    """
    for rect in rectangles:
        if not rect.is_rectangle:
            raise ConfigurationError("large deviation tails are stated for rectangles")
    tables, var_points, degenerate = [], [], 0
    for i, rect in enumerate(rectangles):
        values, _ = sample_logdets(spec, geometry, rect, energy, n_samples, seed + i, workers)
        kept = _nonsingular(values)
        centered = np.abs(kept - np.mean(kept))
        scale = rect.size ** (0.5 + epsilon)
        rows = [TailRow(**_tail_fields(k, scale * k, centered > scale * k, 2.0)) for k in k_grid]
        tables.append(TailTable(label=f"ldt_{rect.size}", n=len(kept), rows=rows))
        var = float(np.var(kept, ddof=1))
        degenerate += bool(math.sqrt(var) <= len(kept) * np.finfo(float).eps * max(1.0, -float(kept.min()), float(kept.max())))
        var_points.append((rect.size, var))
    sizes = [p[0] for p in var_points]
    variances = [max(p[1], 1e-300) for p in var_points]
    if len(set(sizes)) > 1 and not degenerate:
        exponent, _, r2 = linear_fit(np.log(sizes), np.log(variances))
    else:
        exponent, r2 = math.nan, math.nan
    return LdtResult(tables=tables, var_points=var_points, var_exponent=exponent, var_r2=r2, degenerate=degenerate)


@dataclass(frozen=True)
class NegTailRow(TailRow):
    naive_threshold: float
    naive_count: int


@dataclass(frozen=True)
class NegTailResult:
    table: TailTable
    min_log: float
    n: int


def negative_tail_experiment(
    spec: DisorderSpec,
    geometry: StripGeometry,
    energy: float,
    k_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> NegTailResult:
    """Tail of log|det(H_N - E)| below -10KW against exp(-K/4).

    Each row also counts crossings of the much deeper naive threshold -KNW;
    the contrast exhibits that abnormally small determinants live at depth
    proportional to W, not NW.
    """
    n, w = geometry.columns, geometry.width
    region = Region.rectangle(1, n, 1, w)
    values, _ = sample_logdets(spec, geometry, region, energy, n_samples, seed, workers)
    _nonsingular(values)  # the all-singular rule; singular samples of a mixed ensemble count as tail hits
    rows = []
    for k in k_grid:
        thr = -10.0 * k * w
        thr_naive = -k * n * w
        rows.append(
            NegTailRow(
                **_tail_fields(k, thr, values < thr, 4.0),
                naive_threshold=float(thr_naive),
                naive_count=int(np.sum(values < thr_naive)),
            )
        )
    table = TailTable(label=f"negtail_{n}x{w}", n=n_samples, rows=rows)
    return NegTailResult(table=table, min_log=float(np.min(values)), n=n_samples)


@dataclass(frozen=True)
class BernsteinRow:
    x: float
    count: int
    fraction: float
    sigma: float
    bound: float
    admissible: bool


def bernstein_check(
    summands: np.ndarray,
    x_grid,
    sigma: float | None = None,
    t_param: float | None = None,
) -> list:
    """Empirical tail of |sum of independent summands| against exp(-x/4T).

    ``summands`` has one trial per row and one independent summand per column
    (centered).  When sigma and T are not given they are estimated from the
    empirical moments through the factorial moment condition
    |E X^m| <= m! sigma^2 T^(m-2) / 2.
    """
    summands = np.asarray(summands, dtype=float)
    trials, n = summands.shape
    if sigma is None:
        sigma = float(np.sqrt(np.max(np.mean(summands**2, axis=0))))
    if t_param is None:
        t_param = sigma
        for m in range(3, 7):
            mom = float(np.max(np.abs(np.mean(summands**m, axis=0))))
            if mom > 0 and sigma > 0:
                t_param = max(t_param, (2.0 * mom / (math.factorial(m) * sigma**2)) ** (1.0 / (m - 2)))
    sums = np.abs(summands.sum(axis=1))
    x_min = n * sigma**2 / t_param if t_param > 0 else 0.0
    rows = []
    for x in x_grid:
        frac = float(np.mean(sums >= x))
        rows.append(
            BernsteinRow(
                x=float(x),
                count=int(np.sum(sums >= x)),
                fraction=frac,
                sigma=_binom_sigma(frac, trials),
                bound=math.exp(-x / (4.0 * t_param)) if t_param > 0 else (1.0 if x <= 0 else 0.0),
                admissible=bool(x >= x_min),
            )
        )
    return rows


def block_logdet_summands(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    cell: int,
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, list]:
    """Centered per-cell log determinants over a grid partition, one row per sample.

    Cells carry disjoint disorder, so within a row the entries are independent;
    all cells see the same underlying realization per row.
    """
    cells = grid_partition(region, cell)
    columns = []
    for part in cells:
        values, _ = sample_logdets(spec, geometry, part, energy, n_samples, seed, workers)
        _nonsingular(values)  # the all-singular rule, per cell
        columns.append(values)
    matrix = np.stack(columns, axis=1)
    matrix = matrix - np.mean(matrix, axis=0, keepdims=True)
    return matrix, cells


def delta_schedule(n: int) -> list[Fraction]:
    """Exact exponent schedule 1/2, 1/4, 1/6, ...: x_k = x_{k-1} / (1 + 2 x_{k-1})."""
    if n < 0:
        raise ConfigurationError("schedule length must be nonnegative")
    out = [Fraction(1, 2)]
    for _ in range(n):
        prev = out[-1]
        out.append(prev / (1 + 2 * prev))
    return out


@dataclass(frozen=True)
class MultiscaleRow:
    n_small: int
    n_large: int
    mean_small: float
    mean_large: float
    gap: float
    gap_se: float
    fitted_c: float


def multiscale_compare(
    spec: DisorderSpec,
    energy: float,
    width: int,
    bandwidth: int,
    n_small_values,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Per-step means at scales N and N^2 and the fitted comparison constant.

    The gap |E log|det| / N1 - E log|det| / N2| with N1 = N2^2 is measured
    against W log(N1 W) / N2, whose prefactor should be stable across scales.
    """
    rows = []
    for i, n2 in enumerate(n_small_values):
        if n2 <= 1:
            raise ConfigurationError("multiscale comparison needs N2 > 1")
        n1 = n2 * n2
        geo = StripGeometry(width, bandwidth, n1)
        reg_small = Region.rectangle(1, n2, 1, width)
        reg_large = Region.rectangle(1, n1, 1, width)
        v_small, _ = sample_logdets(spec, geo, reg_small, energy, n_samples, seed + 2 * i, workers)
        v_large, _ = sample_logdets(spec, geo, reg_large, energy, n_samples, seed + 2 * i + 1, workers)
        v_small = _nonsingular(v_small)
        v_large = _nonsingular(v_large)
        m_small = float(np.mean(v_small)) / n2
        m_large = float(np.mean(v_large)) / n1
        se = math.sqrt(
            np.var(v_small, ddof=1) / len(v_small) / n2**2
            + np.var(v_large, ddof=1) / len(v_large) / n1**2
        )
        gap = abs(m_large - m_small)
        scale = width * math.log(n1 * width) / n2
        rows.append(
            MultiscaleRow(
                n_small=n2,
                n_large=n1,
                mean_small=m_small,
                mean_large=m_large,
                gap=gap,
                gap_se=float(se),
                fitted_c=gap / scale,
            )
        )
    return rows


@dataclass(frozen=True)
class PipelineReport:
    """Exponent sum vs determinant mean, with the truncated decomposition."""

    gamma_sum: float
    gamma_stderr: float
    mean_per_step: float
    mean_se: float
    gap: float
    gap_scale: float
    fitted_c: float
    threshold: float
    part_negative: float
    part_middle: float
    part_upper: float
    mean_identity_gap: float
    middle_second_moment: float
    chain_lhs: float
    chain_rhs: float
    chain_holds: bool
    insufficient_n: bool


def lyapunov_sum_pipeline(
    spec: DisorderSpec,
    energy: float,
    width: int,
    bandwidth: int,
    n_steps: int,
    epsilon: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
    gamma_steps: int | None = None,
) -> PipelineReport:
    """Compare the exponent sum with E log|det(H_N - E)| / N and decompose the mean.

    The mean splits over {x < 0}, {0 <= x <= 2 (NW)^(1/2+eps)} and the upper
    remainder; the reported chain is
    mean >= (NW)^(-1/2-eps) E(X_mid^2) / 2 + E(X_neg), which holds pointwise
    on any sample set.
    """
    nw = n_steps * width
    insufficient = n_steps < 4 * width ** (1.0 + 5.0 * epsilon)
    geo = StripGeometry(width, bandwidth, n_steps)
    region = Region.rectangle(1, n_steps, 1, width)
    values, _ = sample_logdets(spec, geo, region, energy, n_samples, seed, workers)
    values = _nonsingular(values)
    n_kept = len(values)
    if gamma_steps is None:
        gamma_steps = max(100_000, 20 * n_steps)
    spectrum = lyapunov_spectrum(
        spec, StripGeometry(width, bandwidth, 1), energy, gamma_steps, seed + 1
    )
    gamma_sum = float(np.sum(spectrum.exponents))
    gamma_se = float(np.sqrt(np.sum(spectrum.stderr**2)))
    threshold = 2.0 * nw ** (0.5 + epsilon)
    neg = values[values < 0.0]
    mid = values[(values >= 0.0) & (values <= threshold)]
    upper = values[values > threshold]
    part_neg = float(np.sum(neg)) / n_kept
    part_mid = float(np.sum(mid)) / n_kept
    part_up = float(np.sum(upper)) / n_kept
    mean = part_neg + part_mid + part_up
    x2 = float(np.sum(mid**2)) / n_kept
    chain_rhs = 0.5 * nw ** (-0.5 - epsilon) * x2 + part_neg
    mean_se = float(np.std(values, ddof=1) / math.sqrt(n_kept))
    gap = abs(gamma_sum - mean / n_steps)
    gap_scale = width * math.log(nw) / n_steps
    return PipelineReport(
        gamma_sum=gamma_sum,
        gamma_stderr=gamma_se,
        mean_per_step=mean / n_steps,
        mean_se=mean_se / n_steps,
        gap=gap,
        gap_scale=gap_scale,
        fitted_c=gap / gap_scale,
        threshold=threshold,
        part_negative=part_neg,
        part_middle=part_mid,
        part_upper=part_up,
        mean_identity_gap=abs(mean - float(np.mean(values))),
        middle_second_moment=x2,
        chain_lhs=mean,
        chain_rhs=chain_rhs,
        chain_holds=bool(mean >= chain_rhs - 1e-12 * max(1.0, abs(mean))),
        insufficient_n=insufficient,
    )
