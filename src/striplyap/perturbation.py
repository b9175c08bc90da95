"""Rank-perturbation inequalities: Weyl interlacing, log-det gaps, partitions.

Correctness over speed: spectral distances come from full eigensolves, which
is fine at the matrix sizes these verification routines target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .determinants import _signed_logdets, logdet_direct
from .model import (
    ConfigurationError,
    DisorderSample,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    boundary,
)

__all__ = [
    "InterlacingReport",
    "numerical_rank",
    "weyl_check",
    "logdet_gap_bound",
    "grid_partition",
    "partition_boundary",
    "partition_defect",
    "log_plus",
    "log_minus",
]

RANK_RTOL = 1e-9  # singular values below this times the norm count as zero


def log_plus(x: float) -> float:
    """max(log x, 0), with 0 for nonpositive arguments."""
    return max(math.log(x), 0.0) if x > 0 else 0.0


def log_minus(x: float) -> float:
    """max(-log x, 0); +inf at zero."""
    if x == 0:
        return math.inf
    return max(-math.log(x), 0.0)


def _one_or_stack(func):
    """Let a function of (m, n, n) stacks take single (n, n) matrices too.

    Single matrices go in as stacks of one, and the one result comes back as
    a plain value: an int, a bool or a report.
    """

    @functools.wraps(func)
    def call(*args, **kwargs):
        if np.ndim(args[0]) != 2:
            return func(*args, **kwargs)
        (out,) = func(*(np.asarray(a)[None] if np.ndim(a) == 2 else a for a in args), **kwargs)
        return out.item() if isinstance(out, np.generic) else out

    return call


@_one_or_stack
def numerical_rank(matrix: np.ndarray, rtol: float = RANK_RTOL):
    """Numerical rank of each matrix of an (m, n, n) stack, or of one matrix (an int)."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return np.count_nonzero(sv > rtol * sv[..., :1], axis=-1)


@_one_or_stack
def weyl_check(h1: np.ndarray, h2: np.ndarray, tol: float = 1e-9, rank: int | np.ndarray | None = None):
    """Both interlacing chains for a rank-r difference of symmetric matrices.

    With eigenvalues in increasing order the chains are E1_j <= E2_{j+r} and
    E2_{j-r} <= E1_j; the rank is the numerical rank of the difference unless
    given.  On (m, n, n) stacks (``rank`` then one per matrix) it returns a
    boolean array, on two matrices a bool.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ConfigurationError("matrices must have the same shape")
    e1 = np.linalg.eigvalsh(h1)
    e2 = np.linalg.eigvalsh(h2)
    r = np.broadcast_to(numerical_rank(h1 - h2) if rank is None else rank, e1.shape[:-1])[..., None]
    n = e1.shape[-1]
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(e1), axis=-1), np.max(np.abs(e2), axis=-1)))
    slack = (tol * scale)[..., None]
    # chain entry j compares E1_j with E2_{j+r} (and E2_j with E1_{j+r}) for j < n - r
    j = np.arange(n)
    outside = j >= n - r
    partner = np.minimum(j + r, n - 1)
    up = outside | (e1 <= np.take_along_axis(e2, partner, axis=-1) + slack)
    down = outside | (e2 <= np.take_along_axis(e1, partner, axis=-1) + slack)
    return np.where(r[..., 0] == 0, np.all(np.abs(e1 - e2) <= slack, axis=-1), np.all(up & down, axis=-1))


@dataclass(frozen=True)
class InterlacingReport:
    """Both sides of the rank-perturbation log-det bound on one instance."""

    lhs: float
    rhs: float
    rank: int
    norm_term: float
    dist_term: float
    vacuous: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.vacuous or self.lhs <= self.rhs + 1e-8


@_one_or_stack
def logdet_gap_bound(
    h1: np.ndarray,
    h2: np.ndarray,
    energy: float | np.ndarray,
    rank: int | np.ndarray | None = None,
):
    """Evaluate log|det(H1-E)| - log|det(H2-E)| against the rank bound.

    The bound is 4 rank(H1-H2) max(log+(|E| + ||H1||), log-(dist(E, spec H2))).
    A singular H2 - E makes the bound vacuous; this is flagged, not raised.
    On (m, n, n) stacks, with ``energy`` and ``rank`` scalars or one per
    matrix, it returns a list of m reports; the factorizations run once on
    each stack and the scalar terms per matrix.  A single pair gives a report.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    m, n = h1.shape[:2]
    e = np.broadcast_to(np.asarray(energy, dtype=float), (m,))
    ranks = np.broadcast_to(numerical_rank(h1 - h2) if rank is None else np.asarray(rank, dtype=int), (m,))
    (_, log1), (sign2, log2) = (_signed_logdets(h - e[:, None, None] * np.eye(n)) for h in (h1, h2))
    dists = np.min(np.abs(np.linalg.eigvalsh(h2) - e[:, None]), axis=1)
    norms = np.linalg.norm(h1, 2, axis=(1, 2))
    reports = []
    rows = zip(e.tolist(), ranks.tolist(), norms.tolist(), dists.tolist(), sign2.tolist(), log1.tolist(), log2.tolist())
    for energy, r, norm, dist, s2, l1, l2 in rows:
        norm_term = log_plus(abs(energy) + norm)
        dist_term = log_minus(dist)
        vacuous = s2 == 0.0 or not math.isfinite(dist_term)
        lhs = l1 - l2 if not vacuous else -math.inf
        rhs = 4.0 * r * max(norm_term, dist_term)
        reports.append(InterlacingReport(lhs, rhs, rank=r, norm_term=norm_term, dist_term=dist_term, vacuous=vacuous))
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


def partition_defect(
    sample: DisorderSample,
    region: Region,
    partition: list[Region],
    energy: float,
) -> tuple[float, float]:
    """Determinant defect of a partition against its deterministic bound.

    defect = |log|det(H - E)| - sum of the per-cell values|; the bound is
    4 |union of cell boundaries| max(log+(|E| + ||H||), log-(dist to the joint
    spectrum of the region and all cells)).  H is assembled once; each cell's
    operator is its principal submatrix on the cell's sites, the Dirichlet
    restriction.
    """
    labels = _cell_labels(region, partition)
    h = assemble_hamiltonian(sample, region)
    cells = [h[np.ix_(labels == c, labels == c)] for c in range(len(partition))]
    full = logdet_direct(h, energy)
    defect = abs(full.log_abs - sum(logdet_direct(hc, energy).log_abs for hc in cells))
    bnd_sites = partition_boundary(region, partition, sample.geometry)
    dist = float(min(np.min(np.abs(np.linalg.eigvalsh(m) - energy)) for m in [h, *cells]))
    norm_term = log_plus(abs(energy) + float(np.linalg.norm(h, 2)))
    bound = 4.0 * len(bnd_sites) * max(norm_term, log_minus(dist))
    return float(defect), float(bound)
