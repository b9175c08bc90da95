"""Logarithmic potentials of empirical measures and interval variances.

The central objects are the empirical law of the single-site Schur shift and
its potential u(x) = integral of log|x - zeta|, whose variance over dyadic
style intervals drives the variance growth of log|det(H - E)|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, DisorderSpec, Region, StripGeometry
from .sampling import _nonsingular, bootstrap_ci, sample_logdets, sample_site_shifts

__all__ = [
    "EmpiricalMeasure",
    "IntervalSpec",
    "QuadratureWarning",
    "log_potential",
    "potential_function",
    "interval_variance",
    "site_shift_samples",
    "conditional_potential",
    "split_measure",
    "interval_l2_norm",
    "variance_growth_experiment",
    "VarianceGrowthRow",
]

_EVAL_BLOCK = 1024  # nodes per block when pairing nodes with atoms


class QuadratureWarning(UserWarning):
    """Quadrature failed to converge under node doubling."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Atoms with nonnegative weights totalling at most one."""

    atoms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        raw = np.asarray(self.atoms, dtype=float)
        order = np.argsort(raw, kind="stable")
        atoms = raw[order]
        object.__setattr__(self, "atoms", atoms)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != raw.shape or np.any(w < 0):
                raise ConfigurationError("weights must be nonnegative, one per atom")
            if w.sum() > 1.0 + 1e-12:
                raise ConfigurationError("total mass must be at most 1")
            object.__setattr__(self, "weights", w[order])
        atoms.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)

    @property
    def mass(self) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.sum())

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.full(len(self.atoms), 1.0 / len(self.atoms))
        return self.weights

    def tail_mass(self, radius: float) -> float:
        w = self.weight_array()
        return float(w[np.abs(self.atoms) > radius].sum())


def log_potential(measure: EmpiricalMeasure, x) -> float | np.ndarray:
    """Weighted sum of log|x - atom|; -inf exactly on an atom."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(len(x_arr))
    w = measure.weight_array()
    atoms = measure.atoms
    for start in range(0, len(x_arr), _EVAL_BLOCK):
        block = x_arr[start : start + _EVAL_BLOCK]
        gaps = np.abs(block[:, None] - atoms[None, :])
        with np.errstate(divide="ignore"):
            out[start : start + _EVAL_BLOCK] = np.log(gaps) @ w
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def potential_function(measure: EmpiricalMeasure):
    """The potential as a vectorized callable."""
    return lambda x: log_potential(measure, x)


@dataclass(frozen=True)
class IntervalSpec:
    """Quadrature interval [lo, hi] with a base Gauss-Legendre order."""

    lo: float
    hi: float
    nodes: int = 16

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError("interval must satisfy lo < hi")
        if self.nodes < 2:
            raise ConfigurationError("need at least 2 quadrature nodes")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _graded_panels(lo: float, hi: float, singular: tuple[float, ...]) -> list[tuple[float, float]]:
    """Panels of [lo, hi], geometrically refined toward singular points.

    A sliver of relative size 2^-54 is excluded next to each singular point;
    its contribution is negligible for locally integrable log singularities.
    """
    sing = set(singular)
    cuts = sorted({lo, hi} | {s for s in singular if lo < s < hi})
    levels = 54
    panels: list[tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a in sing and b in sing:
            mid = 0.5 * (a + b)
            pieces = [(a, mid, "left"), (mid, b, "right")]
        elif a in sing:
            pieces = [(a, b, "left")]
        elif b in sing:
            pieces = [(a, b, "right")]
        else:
            panels.append((a, b))
            continue
        for p, q, side in pieces:
            length = q - p
            if side == "left":
                edges = [p + length * 2.0 ** (-j) for j in range(levels, -1, -1)]
            else:
                edges = [q - length * 2.0 ** (-j) for j in range(levels, -1, -1)][::-1]
            panels.extend(zip(edges[:-1], edges[1:]))
    return panels


def _panel_nodes(panels, order: int) -> tuple[np.ndarray, np.ndarray]:
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    for a, b in panels:
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def interval_variance(
    u,
    interval: IntervalSpec,
    singular_points: tuple[float, ...] = (),
    tol: float = 1e-6,
    max_doublings: int = 6,
) -> float:
    """Variance of u under the uniform probability measure on the interval.

    Composite Gauss-Legendre with geometric panel grading toward any declared
    singular points (and toward interval endpoints that coincide with them).
    The node order doubles until two successive estimates differ by less than
    tol; failure to converge raises QuadratureWarning but still returns the
    last estimate.
    """
    panels = _graded_panels(interval.lo, interval.hi, tuple(singular_points))
    total = interval.length
    prev = None
    var = math.nan
    order = interval.nodes
    for _ in range(max_doublings + 1):
        xs, ws = _panel_nodes(panels, order)
        vals = np.asarray(u(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("u must evaluate finite on quadrature nodes")
        mean = float(ws @ vals) / total
        var = float(ws @ (vals - mean) ** 2) / total
        if prev is not None and abs(var - prev) <= tol * max(1.0, abs(var)):
            return var
        prev = var
        order *= 2
    warnings.warn("interval variance did not converge under node doubling", QuadratureWarning)
    return var


def site_shift_samples(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    k: tuple[int, int],
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[EmpiricalMeasure, int]:
    """Empirical law of the single-site Schur shift at k over the ensemble.

    Singular draws are dropped; the measure keeps total mass (kept / drawn),
    so it is a sub-probability measure exactly when exclusions happened.
    """
    values, n_failed = sample_site_shifts(spec, geometry, region, k, energy, n_samples, seed, workers)
    kept = values[np.isfinite(values)]
    if len(kept) == 0:
        raise ConfigurationError("all site shift draws failed")
    weights = np.full(len(kept), 1.0 / n_samples)
    return EmpiricalMeasure(atoms=kept, weights=weights), n_failed


def conditional_potential(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    k: tuple[int, int],
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
):
    """The conditional mean of log|V_k - xi| given V_k = x, as a callable of x."""
    measure, _ = site_shift_samples(spec, geometry, region, k, energy, n_samples, seed, workers)
    return potential_function(measure)


def split_measure(measure: EmpiricalMeasure, radius: float) -> tuple[EmpiricalMeasure, EmpiricalMeasure]:
    """Split into the parts inside and outside [-radius, radius] (mass preserved)."""
    w = measure.weight_array()
    inside = np.abs(measure.atoms) <= radius
    def part(mask):
        if not np.any(mask):
            return EmpiricalMeasure(atoms=np.array([0.0]), weights=np.array([0.0]))
        return EmpiricalMeasure(atoms=measure.atoms[mask], weights=w[mask])
    return part(inside), part(~inside)


def interval_l2_norm(u, interval: IntervalSpec, singular_points=(), order: int | None = None) -> float:
    """L2 norm of u under the uniform probability measure on the interval."""
    panels = _graded_panels(interval.lo, interval.hi, tuple(singular_points))
    xs, ws = _panel_nodes(panels, order or interval.nodes)
    vals = np.asarray(u(xs), dtype=float)
    return math.sqrt(max(float(ws @ vals**2) / interval.length, 0.0))


@dataclass(frozen=True)
class VarianceGrowthRow:
    label: str
    n_sites: int
    variance: float
    ci_lo: float
    ci_hi: float
    ratio: float | None
    n_kept: int


def variance_growth_experiment(
    spec: DisorderSpec,
    geometry: StripGeometry,
    shapes: list[Region],
    energy: float,
    interval: IntervalSpec,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list[VarianceGrowthRow]:
    """Empirical variance of log|det(H - E)| per shape with bootstrap intervals.

    The reported ratio is Var / (|region| |I| inf_I rho); for laws without a
    density (point mass) the ratio is None.  Singular samples are left out
    (``n_kept``), and an all-singular shape is a configuration error.
    """
    try:
        grid = np.linspace(interval.lo, interval.hi, 512)
        inf_rho = float(np.min(spec.density_at(grid)))
    except ConfigurationError:
        inf_rho = None
    rows = []
    for i, shape in enumerate(shapes):
        values, _ = sample_logdets(spec, geometry, shape, energy, n_samples, seed + i, workers)
        kept = _nonsingular(values)
        var = float(np.var(kept, ddof=1)) if len(kept) > 1 else 0.0
        if len(kept) > 1 and var > 0:
            lo, hi = bootstrap_ci(kept, lambda v: np.var(v, ddof=1), seed=seed + i, n_boot=500)
        else:
            lo = hi = var
        denom = None if inf_rho is None else shape.size * interval.length * inf_rho
        ratio = None if not denom else var / denom
        rows.append(
            VarianceGrowthRow(
                label=f"{shape.bounds()}",
                n_sites=shape.size,
                variance=var,
                ci_lo=lo,
                ci_hi=hi,
                ratio=ratio,
                n_kept=len(kept),
            )
        )
    return rows
