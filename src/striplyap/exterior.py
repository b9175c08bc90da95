"""W-th exterior power machinery: wedge bases, transfer minors, boundary operators.

The entries of the W-th exterior power of a 2W x 2W transfer product are its
W x W minors.  Minors of long products are evaluated through log-scaled column
shadows, never through naive products.  The determinant of the whole
exterior power comes from one stabilized product T = Q R instead: the
C(2W, W)-square matrix of minors of T has condition number (s_1 ... s_W)^2
in the singular values of T, which no column rescaling removes, while
Lambda^W T = Lambda^W Q . Lambda^W R with Lambda^W Q orthogonal and
Lambda^W R triangular in lexicographic order.

Frames are plain 2W x W arrays whose columns span a decomposable wedge
vector, and a boundary-modified operator H_N(u, v) is the plain H_N array of
the strip with its two corner blocks changed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .determinants import SignedLogDet, _rectangle_steps, logdet_direct, signed_logdet
from .model import ConfigurationError, DisorderSample, _column_blocks, _stack_columns
from .transfer import CocycleAccumulator, accumulate, shadow_product

__all__ = [
    "WedgeIndex",
    "wedge_indices",
    "canonical_frame",
    "expand_standard",
    "wedge_inner",
    "wedge_coordinates",
    "minor",
    "boundary_operator",
    "boundary_logdet",
    "boundary_identity_check",
    "sylvester_franke_check",
    "frame_det_gap",
    "MAX_EXTERIOR_WIDTH",
]

MAX_EXTERIOR_WIDTH = 5  # binom(10, 5) = 252 is the largest materialized dimension


@dataclass(frozen=True)
class WedgeIndex:
    """A W-element subset of {1, .., 2W}, kept sorted."""

    elements: tuple[int, ...]
    width: int

    def __post_init__(self):
        if len(self.elements) != self.width:
            raise ConfigurationError("wedge index must have exactly W elements")
        if list(self.elements) != sorted(set(self.elements)):
            raise ConfigurationError("wedge index elements must be strictly increasing")
        if self.elements and (self.elements[0] < 1 or self.elements[-1] > 2 * self.width):
            raise ConfigurationError("wedge index elements must lie in [1, 2W]")

    @classmethod
    def of(cls, elements, width: int) -> "WedgeIndex":
        return cls(tuple(sorted(int(e) for e in elements)), width)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.intp) - 1


@cache
def wedge_indices(width: int) -> tuple[WedgeIndex, ...]:
    return tuple(WedgeIndex(c, width) for c in itertools.combinations(range(1, 2 * width + 1), width))


@cache
def _wedge_rows(width: int) -> np.ndarray:
    """Read-only (C(2W, W), W) array of the zero-based elements of each wedge index, in basis order."""
    rows = np.array([idx.zero_based() for idx in wedge_indices(width)])
    rows.setflags(write=False)
    return rows


def _pairing(alpha: WedgeIndex) -> dict[int, int]:
    """Order-preserving bijection from [1, W] minus alpha onto alpha above W."""
    w = alpha.width
    lower_missing = [i for i in range(1, w + 1) if i not in alpha.elements]
    upper_present = [a for a in alpha.elements if a > w]
    return dict(zip(lower_missing, upper_present))


def canonical_frame(alpha: WedgeIndex) -> np.ndarray:
    """Basis frame, a read-only 2W x W array: identity top block, a contraction as bottom block.

    Column i is e_i when i is in alpha, and e_i + e_{phi(i)} otherwise, with
    phi the order-preserving pairing into the upper half of alpha.  A frame
    stands for the decomposable wedge vector of its columns.
    """
    w = alpha.width
    phi = _pairing(alpha)
    m = np.zeros((2 * w, w))
    for i in range(1, w + 1):
        m[i - 1, i - 1] = 1.0
        if i not in alpha.elements:
            m[phi[i] - 1, i - 1] = 1.0
    m.setflags(write=False)
    return m


def _sort_parity(seq) -> int:
    """Sign of the permutation sorting seq ascending (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def expand_standard(alpha: WedgeIndex) -> dict[WedgeIndex, int]:
    """Coefficients c in {-1, 0, +1} with e_alpha = sum c_beta u_beta.

    Expanding each mixed column (e_i + e_phi(i)) - e_i of the canonical frames
    produces one signed canonical frame per subset of the upper-half elements
    of alpha; the permutation sign comes from reordering the wedge slots.
    """
    w = alpha.width
    phi = _pairing(alpha)
    phi_inv = {v: k for k, v in phi.items()}
    lower = [a for a in alpha.elements if a <= w]
    upper = [a for a in alpha.elements if a > w]
    slots = lower + [phi_inv[a] for a in upper]
    base_sign = _sort_parity(slots)
    coeffs: dict[WedgeIndex, int] = {}
    for r in range(len(upper) + 1):
        for picked in itertools.combinations(upper, r):
            beta_elems = set(lower)
            beta_elems.update(phi_inv[a] for a in picked)
            beta_elems.update(a for a in upper if a not in picked)
            beta = WedgeIndex.of(beta_elems, w)
            coeffs[beta] = base_sign * (-1) ** r
    return coeffs


def wedge_inner(u, v) -> float:
    """Inner product of decomposable wedge vectors, det([u]^t [v])."""
    return float(np.linalg.det(np.asarray(u, dtype=float).T @ np.asarray(v, dtype=float)))


def wedge_coordinates(frame, width: int) -> np.ndarray:
    """Coordinates of a decomposable vector in the standard wedge basis: every W x W row minor, one stacked det."""
    return np.linalg.det(np.asarray(frame, dtype=float)[_wedge_rows(width)])


def minor(beta: WedgeIndex, alpha: WedgeIndex, transfer) -> SignedLogDet:
    """SignedLogDet of the (beta, alpha) minor of a transfer matrix or product.

    ``transfer`` is either a dense 2W x 2W array or the shadow_product of the
    standard columns of alpha (log-scaled product route).
    """
    if isinstance(transfer, CocycleAccumulator):
        scale = SignedLogDet(1, float(np.sum(transfer.log_radii)))
        return signed_logdet(transfer.frame[beta.zero_based(), :]) * scale
    t = np.asarray(transfer, dtype=float)
    return signed_logdet(t[np.ix_(beta.zero_based(), alpha.zero_based())])


def _strip_hamiltonian(sample: DisorderSample, n_steps: int) -> np.ndarray:
    """H_N on [1, n_steps] x [1, W], stacked from its column blocks."""
    n = _rectangle_steps(sample, n_steps)
    return _stack_columns(_column_blocks(sample.potentials, sample.u_law, sample.u_band, 0.0, (0, n)))


def _add_corners(h: np.ndarray, u: np.ndarray, v: np.ndarray, w: int) -> np.ndarray:
    """Turn H_N into H_N(u, v) in place, as ``boundary_operator`` describes, and return it."""
    h[:w, :w] -= u[w:] @ np.linalg.inv(u[:w])
    h[-w:, -w:] += (v[w:] @ np.linalg.inv(v[:w])).T
    return h


def boundary_operator(sample: DisorderSample, u, v, n_steps: int) -> np.ndarray:
    """Operator whose spectrum encodes the boundary conditions carried by frames (u, v).

    The first diagonal block becomes S_1 - B_u A_u^{-1} and the last becomes
    S_N + (B_v A_v^{-1})^t, with A the top and B the bottom W x W block of a
    2W x W frame; everything else matches the Dirichlet restriction to
    [1, n_steps] x [1, W].  The result is a read-only array.
    """
    h = _strip_hamiltonian(sample, n_steps)
    w = sample.geometry.width
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    for name, frame in (("u", u), ("v", v)):
        if abs(np.linalg.det(frame[:w])) < 1e-12:
            raise ConfigurationError(f"top block of frame {name} is singular")
    _add_corners(h, u, v, w)
    h.setflags(write=False)
    return h


def boundary_logdet(sample: DisorderSample, u, v, n_steps: int, energy: float) -> SignedLogDet:
    """SignedLogDet of the boundary-modified operator at energy E."""
    h = boundary_operator(sample, u, v, n_steps)
    return signed_logdet(h - energy * np.eye(len(h)))


def boundary_identity_check(
    sample: DisorderSample,
    energy: float,
    n_steps: int,
    u,
    v,
) -> tuple[SignedLogDet, SignedLogDet]:
    """Both sides of det(A_u A_v) det(H_N(u,v) - E) = det([v]^t T_N [u]).

    The right-hand side runs through a log-scaled shadow of the product
    applied to [u], then contracts with [v]; the left side goes through the
    boundary-modified operator.  The two sides must agree.
    """
    w = sample.geometry.width
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    lhs = signed_logdet(u[:w]) * signed_logdet(v[:w]) * boundary_logdet(sample, u, v, n_steps, energy)
    sh = shadow_product(sample, energy, n_steps, u)
    rhs = signed_logdet(v.T @ sh.frame) * SignedLogDet(1, float(np.sum(sh.log_radii)))
    return lhs, rhs


def sylvester_franke_check(sample: DisorderSample, energy: float, n_steps: int) -> float:
    """|log |det| of the W-th exterior power| of the N-step product.

    The exterior power of a unit-determinant symplectic product has modulus
    one determinant, so the return value measures pure numerical drift and
    should stay below a small multiple of N.  With T = Q R from one sweep,
    Lambda^W R is triangular with diagonal exp(sum of r_i over alpha), and
    each index lies in C(2W-1, W-1) of the subsets alpha, so
    log |det Lambda^W T| = log |det Lambda^W Q| + C(2W-1, W-1) sum_i r_i.
    """
    w = sample.geometry.width
    if w > MAX_EXTERIOR_WIDTH:
        raise ConfigurationError(f"exterior power materialized only for width <= {MAX_EXTERIOR_WIDTH}")
    acc = accumulate(sample, energy, n_steps)
    rows = _wedge_rows(w)
    # compound[b, a] = det of the rows beta_b and columns alpha_a of Q
    compound = np.linalg.det(acc.frame[rows[:, None, :, None], rows[None, :, None, :]])
    log_q = signed_logdet(compound).log_abs
    return abs(log_q + math.comb(2 * w - 1, w - 1) * float(np.sum(acc.log_radii)))


def frame_det_gap(sample: DisorderSample, energy: float, n_steps: int) -> float:
    """Max over canonical frame pairs of log|det(u,v)-modified| - log|Dirichlet|.

    Enumerates all pairs of canonical frames (identity top blocks), so it is
    restricted to small widths.  H_N is stacked once; each pair changes the
    two corner blocks of a copy.
    """
    w = sample.geometry.width
    if w > 4:
        raise ConfigurationError("frame pair enumeration restricted to width <= 4")
    h = _strip_hamiltonian(sample, n_steps)
    base = logdet_direct(h, energy)
    shift = energy * np.eye(len(h))
    frames = [canonical_frame(a) for a in wedge_indices(w)]
    gap = -math.inf
    for fu in frames:
        for fv in frames:
            val = signed_logdet(_add_corners(h.copy(), fu, fv, w) - shift)
            if val.sign == 0:
                continue
            gap = max(gap, val.log_abs - base.log_abs)
    return float(gap)
