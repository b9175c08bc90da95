"""Signed log determinants of H_region - E by three independent routes.

Everything is carried as (sign, log|det|) pairs so that regions with tens of
thousands of sites never overflow, and so that products of partial results
compose exactly.  The routes are (a) LAPACK's Bunch-Kaufman LDL^t, run in
overlapping 256-row windows along the band with the pivots of one dense call,
so that its cost grows linearly in N W on a strip instead of as (N W)^3,
(b) the stabilized transfer product and (c) the Schur sweep over column
blocks.  Route (a) reads H through a window source, (start, end) ->
H[start:end, start:end]: slices of a dense matrix, or, given the disorder
sample, windows stacked one at a time from the column blocks of the columns
they cover, so that a strip's dense matrix is never built.  Route (c) is
written once, for a stack of samples: ``logdet_via_schur`` is its one-sample
call, and ``sampling.sample_logdets`` runs it on every rectangle of a Monte
Carlo ensemble.  At W = 2 the sweep inverts its 2 x 2 blocks in closed form,
elementwise over the samples; every other width calls LAPACK on the stack
once per column.  Route (a) takes ``dsytrf``, ``dsytrf_lwork`` and ``dsytrs``
from ``transfer._FLAPACK`` (SciPy's ``_flapack`` alone), nearly halving start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import ConfigurationError, DisorderSample, Region, _column_blocks, _stack_columns, assemble_hamiltonian
from .transfer import _FLAPACK, NumericError, accumulate

__all__ = [
    "SignedLogDet",
    "NearSingularError",
    "signed_logdet",
    "logdet_direct",
    "logdet_via_transfer",
    "logdet_via_schur",
    "site_shift",
]

PIVOT_FLOOR = 1e-300  # pivots below this count as exact zeros (safety net)
COND_LIMIT = 1e14  # Schur blocks worse conditioned than this go to the dense route
_WINDOW = 256  # rows per dsytrf call of the direct route
_MARGIN = 64  # rows a window keeps past its cut


_SYTRF, _SYTRF_LWORK, _SYTRS = _FLAPACK.dsytrf, _FLAPACK.dsytrf_lwork, _FLAPACK.dsytrs


def _compute_lwork(size: int) -> int:
    lwork, info = _SYTRF_LWORK(size, lower=1)
    if info:
        raise ValueError(f"dsytrf work size query failed: info {info}")
    return int(lwork)


class NearSingularError(ArithmeticError):
    """Shifted Hamiltonian too close to singular for a resolvent evaluation."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class SignedLogDet:
    """Sign in {-1, 0, +1} plus log magnitude; sign 0 pairs with -inf."""

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.log_abs == -math.inf):
            raise ValueError("sign 0 must pair with log_abs -inf and vice versa")

    @classmethod
    def zero(cls) -> "SignedLogDet":
        return cls(0, -math.inf)

    @classmethod
    def one(cls) -> "SignedLogDet":
        return cls(1, 0.0)

    @classmethod
    def from_value(cls, x: float) -> "SignedLogDet":
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def __mul__(self, other: "SignedLogDet") -> "SignedLogDet":
        if self.sign == 0 or other.sign == 0:
            return SignedLogDet.zero()
        return SignedLogDet(self.sign * other.sign, self.log_abs + other.log_abs)

    def value(self) -> float:
        """Plain float value; overflows to +-inf for large log_abs."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf


def _signed_logdets(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and log|det| of each matrix of an (m, n, n) stack via pivoted LU; sign 0 pairs with -inf."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.slogdet(stack)


def signed_logdet(matrix: np.ndarray) -> SignedLogDet:
    """SignedLogDet of an arbitrary square matrix via pivoted LU."""
    (sign,), (log_abs,) = _signed_logdets(np.asarray(matrix, dtype=float)[None])
    if sign == 0.0:
        return SignedLogDet.zero()
    return SignedLogDet(int(sign), float(log_abs))


def _ldl_signed_logdet(window, n: int, b: int, energy: float) -> tuple[SignedLogDet, float, float]:
    """Symmetric-indefinite route on H - E: returns (result, min pivot, max pivot).

    ``window(start, end)`` returns H[start:end, start:end] of an n-row
    symmetric matrix H of bandwidth at most b, as a float array of its own;
    each window is shifted by E on its diagonal in place, so H - E is never
    formed whole.  The pivots are the magnitudes of the 1x1 and 2x2 block
    determinants of LAPACK's Bunch-Kaufman LDL^t (``dsytrf``); their ratio
    doubles as a cheap condition estimate.  ``dsytrf`` runs on overlapping
    windows of _WINDOW rows along the band.  A window keeps its pivots up to
    a cut: a block boundary at least _MARGIN rows before its end, which no
    earlier interchange reaches, with no earlier L entry in its last b rows.
    Up to rounding these are the pivots one call on the whole matrix picks;
    the next window starts at the cut, its leading b x b block reduced by
    A21 A11^-1 A12 of the kept block.  A window without a cut runs to the end
    of the matrix, and a matrix of at most _WINDOW rows gets the one call of
    ``scipy.linalg.ldl``, bit for bit.
    """
    sign, log_abs, pivots = 1, 0.0, []
    start, to_end = 0, b >= _MARGIN
    while start < n:
        end = n if to_end else min(n, start + _WINDOW)
        size = end - start
        shifted = window(start, end)
        shifted.flat[:: size + 1] -= energy
        if start:
            shifted[:b, :b] = corner
        ldu, ipiv, _ = _SYTRF(shifted, lower=1, lwork=_compute_lwork(size))
        piv, diag, sub = ipiv.tolist(), ldu.diagonal().tolist(), ldu.diagonal(-1).tolist()
        blocks, i = [], 0  # (start, block determinant); ipiv < 0 marks a 2x2 block
        while i < size:
            blocks.append((i, diag[i] * diag[i + 1] - sub[i] * sub[i] if piv[i] < 0 else diag[i]))
            i += 2 if piv[i] < 0 else 1
        cut = size
        if end < n:
            limit = np.argmax(np.append(ldu[size - b :, : size - _MARGIN].any(axis=0), True))
            cut = reach = 0
            for i, _ in blocks:
                if i > limit:
                    break
                cut = i if reach < i else cut
                reach = max(reach, abs(piv[i]) - 1)
            if not cut:
                to_end = True
                continue
        for i, p in blocks:
            if i >= cut:
                break
            pivots.append(abs(p))
            if abs(p) < PIVOT_FLOOR:
                return SignedLogDet.zero(), 0.0, max(pivots)
            sign *= 1 if p > 0 else -1
            log_abs += math.log(abs(p))
        if cut < size:
            x, _ = _SYTRS(ldu[:cut, :cut], ipiv[:cut], shifted[:cut, cut : cut + b], lower=1)
            corner = shifted[cut : cut + b, cut : cut + b] - shifted[cut : cut + b, :cut] @ x
        start += cut
    return SignedLogDet(sign, log_abs), min(pivots), max(pivots)


def _symmetric_bandwidth(h: np.ndarray) -> int | None:
    """Bandwidth (at least 1) of a square matrix if it is exactly symmetric, else None.

    The lower and upper bandwidths read off the nonzero pattern must be equal,
    so both sides are zero outside one band b, and the off-diagonals 1..b
    must equal their mirrors.  Every pass reads h along its rows;
    ``np.array_equal(h, h.T)`` reads it across them, at ten times the cost.
    A zero row of H - E needs no wider band: it stays zero through every
    elimination and gives an exact zero pivot.
    """
    nz = h != 0
    first, last = nz.argmax(axis=1), h.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
    rows = np.flatnonzero(nz[np.arange(h.shape[0]), first])  # rows with a nonzero entry
    b = int(np.max(rows - first[rows], initial=0))
    if b != int(np.max(last[rows] - rows, initial=0)):
        return None
    if not all(np.array_equal(np.diagonal(h, o), np.diagonal(h, -o)) for o in range(1, b + 1)):
        return None
    return max(1, b)


def _matrix_source(hamiltonian: np.ndarray):
    """(rows, bandwidth, window source) of a dense matrix, after its input checks.

    The source hands out copies, which the factorization may shift in place.
    """
    h = np.asarray(hamiltonian, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries")
    b = _symmetric_bandwidth(h) if h.shape[0] == h.shape[1] else None
    if b is None:
        raise ValueError("logdet_direct expects an exactly symmetric matrix")
    return h.shape[0], b, lambda start, end: h[start:end, start:end].copy()


def _rectangle_steps(sample: DisorderSample, n_steps: int | None) -> int:
    n = sample.potentials.shape[0] if n_steps is None else n_steps
    if n < 1 or n > sample.potentials.shape[0]:
        raise ConfigurationError("n_steps outside the sampled extent")
    return n


def _sample_source(sample: DisorderSample, n_steps: int | None):
    """(rows, bandwidth, window source) of H on the rectangle [1, n] x [1, W].

    The column blocks S_k of the n columns are built once, O(n W^2), and
    checked finite.  Each window [start, end) is stacked from the blocks of
    the columns it covers and cut to its rows; from two columns on, the
    horizontal hops set the bandwidth to W.  One column has the bandwidth of
    its couplings, so its one block is read off like a matrix.
    """
    n, w = _rectangle_steps(sample, n_steps), sample.geometry.width
    blocks = _column_blocks(sample.potentials, sample.u_law, sample.u_band, 0.0, (0, n))
    if n == 1:
        return _matrix_source(blocks[0])
    if not np.all(np.isfinite(blocks)):
        raise ValueError("Hamiltonian has non-finite entries")

    def window(start, end):
        first = start // w
        rows = slice(start - first * w, end - first * w)
        return _stack_columns(blocks[first : -(-end // w)])[rows, rows]

    return n * w, w, window


def logdet_direct(
    hamiltonian: np.ndarray | DisorderSample,
    energy: float,
    with_condition: bool = False,
    n_steps: int | None = None,
):
    """SignedLogDet of H - E through a symmetric-indefinite factorization.

    H is a symmetric matrix, or a ``DisorderSample`` standing for H on the
    rectangle [1, n_steps] x [1, W] (the whole sampled extent by default),
    as in ``logdet_via_transfer``.
    E must be finite.  A matrix is checked for finite entries and exact
    symmetry.  A sample of two or more columns is never assembled whole:
    each window of the band is stacked from the column blocks it covers, the
    blocks the dense matrix is stacked from, so it is bit for bit the slice
    of the dense matrix, and on a strip narrower than _MARGIN memory stays
    O(_WINDOW^2 + N W^2).

    With ``with_condition=True`` also returns max|pivot|/min|pivot|, a crude
    estimate of how close E sits to the spectrum.
    """
    if not math.isfinite(energy):
        raise ValueError("energy is non-finite")
    if isinstance(hamiltonian, DisorderSample):
        rows, b, window = _sample_source(hamiltonian, n_steps)
    elif n_steps is not None:
        raise ConfigurationError("n_steps applies to a DisorderSample only")
    else:
        rows, b, window = _matrix_source(hamiltonian)
    result, pmin, pmax = _ldl_signed_logdet(window, rows, b, energy)
    if with_condition:
        cond = math.inf if pmin == 0.0 else pmax / pmin
        return result, cond
    return result


def logdet_via_transfer(sample: DisorderSample, energy: float, n_steps: int | None = None) -> SignedLogDet:
    """Determinant of the top-left W x W block of the N-step transfer product.

    For the full rectangle [1, N] x [1, W] this block determinant equals
    det(H_N - E).  The block is recovered from the stabilized factorization
    P = Q R with log diag R = r: R is upper triangular, so
    det(P[:W, :W]) = det(Q[:W, :W]) * exp(r_1 + .. + r_W).
    """
    n = _rectangle_steps(sample, n_steps)
    w = sample.geometry.width
    acc = accumulate(sample, energy, n)
    return signed_logdet(acc.frame[:w, :w]) * SignedLogDet(1, float(np.sum(acc.log_radii[:w])))


def _norm1(m: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest column sum) of each matrix of a stack.

    Column sums come out column-major and the max runs as W - 1 elementwise
    maxima: numpy's reductions over a short trailing axis cost ten times more.
    """
    return reduce(np.maximum, np.einsum("...ij->j...", np.abs(m)))


def _lapack_sweep(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c) at any width: one ``inv`` and one ``slogdet`` per column on (m, W, W) stacks."""
    m, n, w, _ = blocks.shape
    eye = np.eye(w)
    sign = np.ones(m)
    log_abs = np.zeros(m)
    bad = np.zeros(m, dtype=bool)
    b = blocks[:, 0].copy()
    for k in range(n):
        if k:
            binv = np.linalg.inv(b)
            with np.errstate(over="ignore", invalid="ignore"):
                hit = ~(_norm1(b) * _norm1(binv) <= COND_LIMIT)
            b = blocks[:, k] - binv
            if hit.any():
                bad |= hit
                b[hit] = eye
        s, la = np.linalg.slogdet(b)
        hit = s == 0.0
        if hit.any():
            bad |= hit
            b[hit] = eye
        sign *= s
        log_abs += la
    return sign, log_abs, bad


def _closed_form_sweep(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c) at W = 2: B_k as four length-m vectors, inverted by its adjugate.

    Every step is elementwise over the samples, with the condition test and
    the identity swap of ``_lapack_sweep``; the det(B_k) go into one (n, m)
    array that is reduced to sign and log|det| at the end.
    """
    s = np.moveaxis(blocks, 0, -1)  # (n, 2, 2, m): one length-m vector per entry
    n, m = s.shape[0], s.shape[-1]
    dets = np.empty((n, m))
    bad = np.zeros(m, dtype=bool)
    a, b, c, d = (s[0, i, j].copy() for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    ill = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            if k:
                det = dets[k - 1]
                ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
                norm = np.maximum(abs(a) + abs(c), abs(b) + abs(d))
                ill = ~(norm * np.maximum(abs(ia) + abs(ic), abs(ib) + abs(id_)) <= COND_LIMIT)
                a, b, c, d = s[k, 0, 0] - ia, s[k, 0, 1] - ib, s[k, 1, 0] - ic, s[k, 1, 1] - id_
            det = a * d - b * c
            hit = ill | (det == 0.0)
            if hit.any():
                bad |= hit
                a[hit], b[hit], c[hit], d[hit], det[hit] = 1.0, 0.0, 0.0, 1.0, 1.0
            dets[k] = det
    sign = 1.0 - 2.0 * (np.count_nonzero(dets < 0.0, axis=0) % 2)
    # in place, and rows summed in order, so a sample's log|det| never depends on m
    return sign, reduce(np.add, np.log(np.abs(dets, out=dets), out=dets)), bad


def _schur_sweep(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c) for a stack of samples: sign, log|det| and a bad mask per sample.

    ``blocks`` is (m, n, W, W), the column blocks S_k - E of m samples.  The
    sweep runs B_k = S_k - E - B_{k-1}^{-1} for the whole stack, and
    det(H_N - E) is the product of the det(B_k).  At W = 2 each step is
    elementwise numpy over the samples, with the inverse and determinant in
    closed form; every other width calls one ``inv`` and one ``slogdet`` per
    column on the stack.  A sample is bad on an exactly singular B_k, or when
    a block to be inverted has |B|_1 |B^-1|_1 > COND_LIMIT (a NaN counts),
    read off the inverse already computed.  The offending block is swapped
    for the identity, so one singular sample never fails the stack; a bad
    sample comes back as sign 0 and log|det| nan, for the caller to
    recompute.  No sample's arithmetic depends on the rest of the stack.
    """
    if not np.all(np.isfinite(blocks)):
        raise NumericError("non-finite transfer matrix entries")
    sign, log_abs, bad = (_closed_form_sweep if blocks.shape[-1] == 2 else _lapack_sweep)(blocks)
    sign[bad] = 0.0
    log_abs[bad] = np.nan
    return sign, log_abs, bad


def logdet_via_schur(
    sample: DisorderSample,
    energy: float,
    n_steps: int | None = None,
    return_info: bool = False,
):
    """Column-sweep determinant via the block recursion B_k = S_k - E - B_{k-1}^{-1}.

    Each B_k is the Schur complement of the leading (k-1) column blocks, so
    det(H_N - E) is the product of det(B_k).  This is the one-sample call of
    the batched sweep that ``sample_logdets`` runs on rectangles.  If an
    intermediate block is singular or ill conditioned the routine falls back
    to the direct factorization and reports it through the info flag.
    """
    n = _rectangle_steps(sample, n_steps)
    blocks = _column_blocks(sample.potentials, sample.u_law, sample.u_band, energy, (0, n))
    sign, log_abs, bad = _schur_sweep(blocks[None])
    fallback = bool(bad[0])
    if fallback:
        result = logdet_direct(sample, energy, n_steps=n)
    else:
        result = SignedLogDet(int(sign[0]), float(log_abs[0]))
    if return_info:
        return result, fallback
    return result


def site_shift(
    sample: DisorderSample,
    region: Region,
    k: tuple[int, int],
    energy: float,
) -> float:
    """The scalar xi with det(H_region - E) = (V_k - xi) det(H_{region minus k} - E).

    Obtained from the Schur complement of the single site k: the coupling row
    against the rest of the region applied to the resolvent of the punctured
    Hamiltonian, plus the diagonal coupling and the energy.
    """
    if k not in region:
        raise ConfigurationError(f"site {k} not in region")
    u_kk = float(sample.u_matrix(k[0])[k[1] - 1, k[1] - 1])
    if region.size == 1:
        return u_kk + energy
    h = assemble_hamiltonian(sample, region)
    i = region.sites.index(k)
    rest = np.arange(region.size) != i
    shifted = h[np.ix_(rest, rest)] - energy * np.eye(region.size - 1)
    cond = float(np.linalg.cond(shifted))
    if not np.isfinite(cond) or cond > 1e14:
        raise NearSingularError("punctured Hamiltonian nearly singular at this energy", cond)
    gamma = h[i, rest]
    x = np.linalg.solve(shifted, gamma)
    return u_kk + energy + float(gamma @ x)
