"""Signed log determinants of H_region - E by three independent routes.

Everything is carried as (sign, log|det|) pairs so that regions with tens of
thousands of sites never overflow, and so that products of partial results
compose exactly.  The routes are (a) one banded LU with partial pivoting,
LAPACK's ``dgbtrf`` on the band storage of H - E, so that its cost grows
linearly in N on a strip instead of as (N W)^3, (b) the stabilized transfer
product and (c) the Schur sweep over column blocks.  Route (a) reads the band
off a dense matrix, or writes it from column blocks, so that a strip's dense
matrix is never built; it takes ``dgbtrf`` from ``transfer._FLAPACK``
(SciPy's ``_flapack`` alone), nearly halving start-up.  A sample route (c)
marks bad, in ``logdet_via_schur`` or ``sampling.sample_logdets``, goes to
route (a) on the blocks route (c) already holds.  Route (c) runs every
rectangle of a ``sampling.sample_logdets`` ensemble as a stack: at W = 2 it
inverts the 2 x 2 blocks in closed form, elementwise over the samples, on
samples-last entries (one contiguous vector over the samples per entry and
column), which an (m, n, 2, 2) stack is transposed to; every other width
calls LAPACK on the stack once per column.  One sample, all
``logdet_via_schur`` passes, runs as a loop over its columns with the
operations the stacked kernels make on it, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import ConfigurationError, DisorderSample, Region, _column_blocks, assemble_hamiltonian
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

COND_LIMIT = 1e14  # Schur blocks worse conditioned than this go to the dense route
_SWEEP_COLUMNS = 4096  # columns the one-sample W = 2 loop holds as Python floats at a time
_GBTRF = _FLAPACK.dgbtrf


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


def _matrix_band(hamiltonian: np.ndarray) -> np.ndarray:
    """LAPACK band storage (kl = ku = b) of a dense matrix, after its input checks.

    The diagonals -b..b of H go into rows 3b..b of a (3b + 1, n) array in
    Fortran order; ``dgbtrf`` keeps its fill-in in rows 0..b-1.
    """
    h = np.asarray(hamiltonian, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries")
    b = _symmetric_bandwidth(h) if h.shape[0] == h.shape[1] else None
    if b is None:
        raise ValueError("logdet_direct expects an exactly symmetric matrix")
    n = h.shape[0]
    ab = np.zeros((3 * b + 1, n), order="F")
    for o in range(-b, b + 1):
        ab[2 * b - o, max(o, 0) : n + min(o, 0)] = np.diagonal(h, o)
    return ab


def _rectangle_steps(sample: DisorderSample, n_steps: int | None) -> int:
    n = sample.potentials.shape[0] if n_steps is None else n_steps
    if n < 1 or n > sample.potentials.shape[0]:
        raise ConfigurationError("n_steps outside the sampled extent")
    return n


def _block_band(blocks: np.ndarray) -> np.ndarray:
    """``_matrix_band`` of the block tridiagonal matrix of (n, W, W) column blocks, -I beside them, written from the blocks.

    The blocks are checked finite.  From two columns on the hops make the
    bandwidth W; one column has the bandwidth of its couplings, so its one
    block is read off like a matrix.  The dense matrix is never assembled.
    """
    n, w, _ = blocks.shape
    if n == 1:
        return _matrix_band(blocks[0])
    if not np.all(np.isfinite(blocks)):
        raise ValueError("Hamiltonian has non-finite entries")
    ab = np.zeros((3 * w + 1, n * w), order="F")
    columns = ab.T  # C order: row j holds column j of the band
    p, q = np.indices((w, w))
    columns.reshape(n, w, 3 * w + 1)[:, q, 2 * w + p - q] = blocks  # H[kW + p, kW + q] = S_k[p, q]
    columns[w:, w] = columns[:-w, 3 * w] = -1.0  # the hops, H[j - W, j] and H[j + W, j]
    return ab


def _band_logdet(ab: np.ndarray, energy: float) -> tuple[SignedLogDet, float]:
    """Route (a) on the band storage of H, overwritten: ``dgbtrf`` of H - E, its relative pivot floor and condition estimate."""
    b = (len(ab) - 1) // 3
    ab[2 * b] -= energy
    lu, ipiv, info = _GBTRF(ab, b, b, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    u = lu[2 * b]
    mags = np.abs(u)
    top, bottom = float(mags.max()), float(mags.min())
    if bottom <= len(u) * np.finfo(float).eps * top:
        return SignedLogDet.zero(), math.inf
    flips = int(np.count_nonzero(ipiv != np.arange(len(u))) + np.count_nonzero(u < 0.0))  # ipiv is 0-based
    return SignedLogDet(1 - 2 * (flips % 2), float(np.sum(np.log(mags)))), top / bottom


def logdet_direct(
    hamiltonian: np.ndarray | DisorderSample,
    energy: float,
    with_condition: bool = False,
    n_steps: int | None = None,
):
    """SignedLogDet of H - E through one banded LU with partial pivoting (LAPACK ``dgbtrf``).

    H is a symmetric matrix, or a ``DisorderSample`` standing for H on the
    rectangle [1, n_steps] x [1, W] (the whole sampled extent by default),
    as in ``logdet_via_transfer``.
    E must be finite.  A matrix is checked for finite entries and exact
    symmetry, and its bandwidth b read off.  A sample is never assembled
    whole: its band storage is written from the column blocks the dense
    matrix is stacked from, bit for bit the same array, so memory stays
    O(N W^2).  The factorization costs O(N W^3) on a strip.

    The sign is that of the diagonal of U times the parity of the row
    interchanges, and log|det| is the sum of log|u_ii|.  A pivot with
    |u_ii| <= n eps max|u_jj| counts as an exact zero, so an exactly singular
    H - E comes out singular (sign 0) rather than as roundoff.
    With ``with_condition=True`` also returns max|u_ii| / min|u_ii|, a crude
    estimate of how close E sits to the spectrum (inf when singular).
    """
    if not math.isfinite(energy):
        raise ValueError("energy is non-finite")
    if isinstance(hamiltonian, DisorderSample):
        n = _rectangle_steps(hamiltonian, n_steps)
        ab = _block_band(_column_blocks(hamiltonian.potentials, hamiltonian.u_law, hamiltonian.u_band, 0.0, (0, n)))
    elif n_steps is not None:
        raise ConfigurationError("n_steps applies to a DisorderSample only")
    else:
        ab = _matrix_band(hamiltonian)
    result = _band_logdet(ab, energy)
    return result if with_condition else result[0]


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
    eye, sign, log_abs, bad = np.eye(w), np.ones(m), np.zeros(m), np.zeros(m, dtype=bool)
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


def _closed_form_sweep(sa, sb, sc, sd) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c) at W = 2 on samples-last entries: ``_schur_sweep``'s sign, log|det| and bad mask.

    ``sa``, ``sb``, ``sc`` and ``sd`` are the entries (0, 0), (0, 1), (1, 0)
    and (1, 1) of the column blocks S_k - E as (n, m) arrays, one contiguous
    length-m vector per column, or (n, 1) for an entry every sample shares.
    Each B_k is inverted by its adjugate, elementwise over the samples, with
    the checks and the identity swap of ``_lapack_sweep``; the det(B_k) go
    into one (n, m) array that is reduced to sign and log|det| at the end.
    """
    if not all(np.all(np.isfinite(x)) for x in (sa, sb, sc, sd)):
        raise NumericError("non-finite transfer matrix entries")
    n, m = len(sa), max(x.shape[1] for x in (sa, sb, sc, sd))
    dets = np.empty((n, m))
    bad = np.zeros(m, dtype=bool)
    a, b, c, d = (np.broadcast_to(x[0], m).copy() for x in (sa, sb, sc, sd))
    ill = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            det = dets[k]
            if k:
                prev = dets[k - 1]
                # B^-1 = [[d, -b], [-c, a]] / det, with the two negations folded into S_k - B^-1
                ia, qb, qc, id_ = d / prev, b / prev, c / prev, a / prev
                norm = np.maximum(abs(a) + abs(c), abs(b) + abs(d))
                ill = ~(norm * np.maximum(abs(ia) + abs(qc), abs(qb) + abs(id_)) <= COND_LIMIT)
                a, b, c, d = sa[k] - ia, sb[k] + qb, sc[k] + qc, sd[k] - id_
            np.subtract(np.multiply(a, d, out=det), b * c, out=det)
            hit = ill | (det == 0.0)
            if hit.any():
                bad |= hit
                a[hit], b[hit], c[hit], d[hit], det[hit] = 1.0, 0.0, 0.0, 1.0, 1.0
    sign = 1.0 - 2.0 * (np.count_nonzero(dets < 0.0, axis=0) % 2)
    # in place, and rows summed in order, so a sample's log|det| never depends on m
    log_abs = reduce(np.add, np.log(np.abs(dets, out=dets), out=dets))
    sign[bad] = 0.0
    log_abs[bad] = np.nan
    return sign, log_abs, bad


def _closed_form_loop(blocks: np.ndarray) -> tuple[float, float, bool]:
    """``_closed_form_sweep`` on one sample's (n, 2, 2) blocks, on Python floats: its operations in its order.

    -b / det there is -(b / det) and s - (-q) is s + q, exactly, as IEEE rounding is symmetric in sign.
    ``max`` keeps a NaN as ``np.maximum`` does: B_{k-1} is finite when tested, its inverse all NaN or none.
    """
    dets, a, ill = np.empty(len(blocks)), None, False
    for start in range(0, len(blocks), _SWEEP_COLUMNS):
        window = []
        for p, q, r, t in blocks[start : start + _SWEEP_COLUMNS].reshape(-1, 4).tolist():
            if a is None:  # B_1 = S_1 - E
                a, b, c, d = p, q, r, t
            else:
                ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
                ill = not max(abs(a) + abs(c), abs(b) + abs(d)) * max(abs(ia) + abs(ic), abs(ib) + abs(id_)) <= COND_LIMIT
                a, b, c, d = p - ia, q - ib, r - ic, t - id_
            det = a * d - b * c
            if ill or det == 0.0:
                return 0.0, math.nan, True
            window.append(det)
        dets[start : start + len(window)] = window
    sign = 1.0 - 2.0 * (np.count_nonzero(dets < 0.0) % 2)
    return sign, np.add.accumulate(np.log(np.abs(dets)))[-1], False


def _lapack_loop(blocks: np.ndarray) -> tuple[float, float, bool]:
    """``_lapack_sweep`` on one sample's (n, W, W) blocks: one ``inv`` and one ``slogdet`` per column."""
    sign, log_abs, b = 1.0, 0.0, blocks[0]
    for k in range(len(blocks)):
        if k:
            binv = np.linalg.inv(b)
            norm, inv_norm = _norm1(np.array((b, binv))).tolist()  # Python floats overflow without a warning
            if not norm * inv_norm <= COND_LIMIT:
                return 0.0, math.nan, True
            b = blocks[k] - binv
        s, la = np.linalg.slogdet(b)
        if s == 0.0:
            return 0.0, math.nan, True
        sign, log_abs = sign * s, log_abs + la
    return sign, log_abs, False


def _schur_sweep(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c) for a stack of samples: sign, log|det| and a bad mask per sample.

    ``blocks`` is (m, n, W, W), the column blocks S_k - E of m samples.  The
    sweep runs B_k = S_k - E - B_{k-1}^{-1} for the whole stack, and
    det(H_N - E) is the product of the det(B_k).  At W = 2 the stack is
    transposed to samples last for ``_closed_form_sweep``; every other width
    calls one ``inv`` and one ``slogdet`` per column on the stack.  A stack of
    one runs the same operations as a loop over its columns.  A sample is bad on an exactly singular B_k, or when a
    block to be inverted has |B|_1 |B^-1|_1 > COND_LIMIT (a NaN counts), read
    off the inverse already computed.  The offending block is swapped for the
    identity, so one singular sample never fails the stack; a bad sample comes
    back as sign 0 and log|det| nan, for the caller to recompute.  No sample's
    arithmetic depends on the rest of the stack.
    """
    m, n, w, _ = blocks.shape
    if w == 2 and m > 1:  # samples last, a copy: a contiguous length-m vector per entry and column
        return _closed_form_sweep(*np.moveaxis(blocks, 0, -1).reshape(n, 4, m).transpose(1, 0, 2))
    if not np.all(np.isfinite(blocks)):
        raise NumericError("non-finite transfer matrix entries")
    loop = _closed_form_loop if w == 2 else _lapack_loop
    sign, log_abs, bad = (np.array([x]) for x in loop(blocks[0])) if m == 1 else _lapack_sweep(blocks)
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
    to the direct factorization on the same blocks, bit for bit
    ``logdet_direct``, and reports it through the info flag.
    """
    n = _rectangle_steps(sample, n_steps)
    blocks = _column_blocks(sample.potentials, sample.u_law, sample.u_band, energy, (0, n))
    (sign,), (log_abs,), (fallback,) = _schur_sweep(blocks[None])
    result = _band_logdet(_block_band(blocks), 0.0)[0] if fallback else SignedLogDet(int(sign), float(log_abs))
    if return_info:
        return result, bool(fallback)
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
    spectrum = np.abs(np.linalg.eigvalsh(shifted))  # cond_2 of a symmetric matrix is max|lambda| / min|lambda|
    cond = math.inf if spectrum.min() == 0.0 else float(spectrum.max() / spectrum.min())
    if not math.isfinite(cond) or cond > 1e14:
        raise NearSingularError("punctured Hamiltonian nearly singular at this energy", cond)
    gamma = h[i, rest]
    x = np.linalg.solve(shifted, gamma)
    return u_kk + energy + float(gamma @ x)
