"""Rank-perturbation inequalities: Weyl interlacing, log-det gaps, partitions.

Correctness over speed: spectral distances come from full eigensolves, which
is fine at the matrix sizes these verification routines target.  One
eigensolve per matrix feeds the Weyl chains, ||H1||_2 = max |lambda(H1)| and
dist(E, spec H2); the two slogdets stay as the independent left side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinants import _signed_logdets, logdet_direct
from .model import ConfigurationError, Region, StripGeometry, boundary

__all__ = [
    "InterlacingReport",
    "numerical_rank",
    "interlacing_checks",
    "grid_partition",
    "partition_boundary",
    "partition_defect",
    "log_plus",
    "log_minus",
]

RANK_RTOL = 1e-9  # singular values below this times the norm count as zero
WEYL_TOL = 1e-9  # chain slack, relative to the largest |eigenvalue| (at least 1)


def log_plus(x: float) -> float:
    """max(log x, 0), with 0 for nonpositive arguments."""
    return max(math.log(x), 0.0) if x > 0 else 0.0


def log_minus(x: float) -> float:
    """max(-log x, 0); +inf at zero."""
    if x == 0:
        return math.inf
    return max(-math.log(x), 0.0)


def numerical_rank(matrix: np.ndarray):
    """Numerical rank of one matrix (an int) or of each matrix of an (m, n, n) stack."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    rank = np.count_nonzero(sv > RANK_RTOL * sv[..., :1], axis=-1)
    return rank if np.ndim(rank) else int(rank)


def _weyl_chains(e1: np.ndarray, e2: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """Both interlacing chains for rank-r differences, from increasing spectra.

    The chains are E1_j <= E2_{j+r} and E2_j <= E1_{j+r} for j < n - r; rank
    zero asks for equal spectra.  Takes (m, n) spectra and m ranks and returns
    m bools.
    """
    r = np.asarray(r)[:, None]
    n = e1.shape[-1]
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(e1), axis=-1), np.max(np.abs(e2), axis=-1)))
    slack = (tol * scale)[:, None]
    j = np.arange(n)
    outside = j >= n - r
    partner = np.minimum(j + r, n - 1)
    up = outside | (e1 <= np.take_along_axis(e2, partner, axis=-1) + slack)
    down = outside | (e2 <= np.take_along_axis(e1, partner, axis=-1) + slack)
    return np.where(r[:, 0] == 0, np.all(np.abs(e1 - e2) <= slack, axis=-1), np.all(up & down, axis=-1))


@dataclass(frozen=True)
class InterlacingReport:
    """The Weyl chains and both sides of the rank-perturbation log-det bound on one pair."""

    lhs: float
    rhs: float
    rank: int
    norm_term: float
    dist_term: float
    vacuous: bool
    weyl: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.vacuous or self.lhs <= self.rhs + 1e-8


def interlacing_checks(h1: np.ndarray, h2: np.ndarray, energy: float | np.ndarray) -> list[InterlacingReport]:
    """Weyl chains and the log-det gap bound for each pair of two (m, n, n) stacks.

    The gap log|det(H1-E)| - log|det(H2-E)| is held against
    4 rank(H1-H2) max(log+(|E| + ||H1||), log-(dist(E, spec H2))); a singular
    H2 - E makes the bound vacuous, which is flagged, not raised.  ``energy``
    is a scalar or one per pair.  The rank, each spectrum and each slogdet
    run once on the whole stack.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.ndim != 3 or h1.shape != h2.shape:
        raise ConfigurationError("expected two (m, n, n) stacks of the same shape")
    m, n = h1.shape[:2]
    e = np.broadcast_to(np.asarray(energy, dtype=float), (m,))
    ranks = numerical_rank(h1 - h2)
    e1 = np.linalg.eigvalsh(h1)
    e2 = np.linalg.eigvalsh(h2)
    weyl = _weyl_chains(e1, e2, ranks, WEYL_TOL)
    (_, log1), (sign2, log2) = (_signed_logdets(h - e[:, None, None] * np.eye(n)) for h in (h1, h2))
    norms = np.max(np.abs(e1), axis=1)
    dists = np.min(np.abs(e2 - e[:, None]), axis=1)
    reports = []
    rows = zip(e.tolist(), ranks.tolist(), norms.tolist(), dists.tolist(), sign2.tolist(), log1.tolist(), log2.tolist())
    for (energy, r, norm, dist, s2, l1, l2), ok in zip(rows, weyl.tolist()):
        norm_term = log_plus(abs(energy) + norm)
        dist_term = log_minus(dist)
        vacuous = s2 == 0.0 or not math.isfinite(dist_term)
        lhs = l1 - l2 if not vacuous else -math.inf
        rhs = 4.0 * r * max(norm_term, dist_term)
        reports.append(InterlacingReport(lhs, rhs, r, norm_term, dist_term, vacuous, weyl=ok))
    return reports


def grid_partition(region: Region, cell: int) -> list[Region]:
    """Partition a rectangle by the cells of an l-periodic grid.

    Cells are anchored at the lower-left corner, so at most four distinct cell
    shapes occur (interior, two edge families, one corner family).
    """
    if not region.is_rectangle:
        raise ConfigurationError("grid_partition expects a rectangle")
    if cell < 1:
        raise ConfigurationError("cell side must be at least 1")
    n0, n1, w0, w1 = region.bounds()
    cells = []
    for a in range(n0, n1 + 1, cell):
        for c in range(w0, w1 + 1, cell):
            cells.append(Region.rectangle(a, min(a + cell - 1, n1), c, min(c + cell - 1, w1)))
    return cells


def partition_boundary(
    region: Region, partition: list[Region], geometry: StripGeometry
) -> frozenset:
    """Union over the partition of the cells' bond boundaries inside the region."""
    out: set = set()
    for part in partition:
        out |= boundary(region, part, geometry)
    return frozenset(out)


def _cell_labels(region: Region, partition: list[Region]) -> np.ndarray:
    """Index of the cell holding each site of the region, in ``region.sites`` order.

    Raises unless the cells partition the region: no overlaps, full cover.
    """
    cell_of: dict = {}
    for c, part in enumerate(partition):
        overlap = cell_of.keys() & set(part.sites)
        if overlap:
            raise ConfigurationError(f"partition overlaps at {sorted(overlap)[:3]}")
        cell_of.update(dict.fromkeys(part.sites, c))
    if cell_of.keys() != set(region.sites):
        raise ConfigurationError("partition does not cover the region")
    return np.array([cell_of[s] for s in region.sites])


def _partition_terms(h: np.ndarray, region: Region, partition: list[Region], geometry: StripGeometry, energy: float):
    """``partition_defect``'s (defect, bound), then the cell labels and the boundary it built them from."""
    labels = _cell_labels(region, partition)
    if np.shape(h) != (region.size, region.size):
        raise ConfigurationError(f"H is {np.shape(h)}, the region has {region.size} sites")
    cells = [h[np.ix_(labels == c, labels == c)] for c in range(len(partition))]
    full = logdet_direct(h, energy)
    defect = abs(full.log_abs - sum(logdet_direct(hc, energy).log_abs for hc in cells))
    bnd_sites = partition_boundary(region, partition, geometry)
    dist = float(min(np.min(np.abs(np.linalg.eigvalsh(m) - energy)) for m in [h, *cells]))
    norm_term = log_plus(abs(energy) + float(np.linalg.norm(h, 2)))
    bound = 4.0 * len(bnd_sites) * max(norm_term, log_minus(dist))
    return float(defect), float(bound), labels, bnd_sites


def partition_defect(
    h: np.ndarray, region: Region, partition: list[Region], geometry: StripGeometry, energy: float
) -> tuple[float, float]:
    """Determinant defect of a partition against its deterministic bound.

    ``h`` is the region's H, rows in ``region.sites`` order.  defect =
    |log|det(H - E)| - sum of the per-cell values|; the bound is
    4 |union of cell boundaries| max(log+(|E| + ||H||), log-(dist to the joint
    spectrum of the region and all cells)).  Each cell's operator is the
    principal submatrix of H on the cell's sites, the Dirichlet restriction.
    """
    return _partition_terms(h, region, partition, geometry, energy)[:2]
