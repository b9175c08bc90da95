"""Transfer-matrix cocycles, stabilized products, and Lyapunov spectra.

The N-step product of one-step blocks [[S_k - E, -I], [I, 0]] is carried as
an orthogonal frame Q and accumulated log radii r, the log diagonal of the
triangular factor: P = Q R with log diag R = r.  Both stay finite for very
long products, so growth rates and determinant minors never overflow.  The
blocks S_k - E come from the model's column-block builder, as every entry of
H does.
Every product runs through one QR sweep, which fixes the column signs of Q
once, at the end: negating a column of B Q leaves the next Householder Q
unchanged and only negates the matching pivot of R, so the per-QR signs
just multiply up.

The sweep is blocked.  It builds the one-step matrices a window of 4096
steps at a time, multiplies them by pairwise doubling into blocks of up to
64 steps, and does one QR per block.  Doubling stops for the whole window as
soon as a doubled product has |B|_F^2 > e^20: a symplectic B has
cond_2(B) = |B|_2^2 <= |B|_F^2, so the smallest pivot of a block QR loses at
most about e^20 eps.  Heavy-tailed potentials therefore fall back to shorter
blocks on their own.  The n mod 64 steps at the end of a product run one QR
per step, so a product shorter than 64 steps is the plain per-step sweep,
bit for bit.  The sweep records the radii its main chain passes through:
at step 0, after every multiple of 64 steps and after each of the n mod 64
tail steps.  ``lyapunov_spectrum`` sets its burn-in and block edges on these
steps, so they cost no extra QR.  This needs every multiple of 64 to stay a
block end (spans are powers of two dividing 64, windows multiples of 64); a
per-block split of the doubling budget must keep that.

Each QR is one direct dgeqrf and dorgqr call on SciPy's ``_flapack`` with
LAPACK's queried work sizes: ``np.linalg.qr`` bit for bit (past 128 columns
with one BLAS thread).  The loop over a window's blocks only multiplies and
factors, writing each raw diagonal of R into a pivot table; one vectorized
pass per window checks the rank, multiplies up the signs and adds the log
pivots in order, so a rank-deficient step raises at the end of its window.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from itertools import chain
from typing import Sequence

import numpy as np

from .model import (
    _DOMAIN_BOOT, ConfigurationError, DisorderSample, DisorderSpec, StripGeometry, _column_blocks, _diagonal, s_matrix,
    sample_disorder, split_stream,
)

__all__ = [
    "NumericError",
    "one_step",
    "symplectic_form",
    "symplectic_defect",
    "CocycleAccumulator",
    "accumulate",
    "shadow_product",
    "LyapunovSpectrum",
    "lyapunov_spectrum",
    "recurrence_check",
    "MIN_COCYCLE_STEPS",
]

MIN_COCYCLE_STEPS = 16
_BLOCK_STEPS = 64  # longest run of one-step matrices multiplied before one QR
_WINDOW_STEPS = 4096  # one-step matrices built at a time, a multiple of _BLOCK_STEPS
_FROB_SQ_BUDGET = np.exp(20.0)  # cap on |B|_F^2, which bounds cond_2(B) for a symplectic block B
_BURN_IN_STEPS = 2000  # burn-in target of lyapunov_spectrum: min(N // 8, this)
_BOOT_BLOCKS = 64  # bootstrap blocks of lyapunov_spectrum
_BOOT_REPLICATES = 400


class NumericError(ArithmeticError):
    """Non-finite values encountered in a cocycle product."""


def _load_flapack():
    """``scipy.linalg._flapack`` from SciPy's ``linalg`` directory; the package would load ~290 more modules."""
    scipy = PathFinder.find_spec("scipy")
    where = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations or ()] if scipy else sys.path
    if (spec := scipy and PathFinder.find_spec("scipy.linalg._flapack", where)) is None:
        raise ImportError(f"scipy.linalg._flapack not found in {where}")
    return module_from_spec(spec)


_FLAPACK = _load_flapack()  # also the source of route (a)'s banded LU, ``dgbtrf``, in ``determinants``


def one_step(s_block: np.ndarray, energy: float) -> np.ndarray:
    """One-step transfer matrices [[S - E, -I], [I, 0]], unit determinant.

    ``s_block`` is one W x W block S or a (..., W, W) stack of them.
    """
    s_block = np.asarray(s_block, dtype=float)
    w = s_block.shape[-1]
    t = np.empty(s_block.shape[:-2] + (2 * w, 2 * w))
    t[...] = symplectic_form(w)
    t[..., :w, :w] = s_block
    if energy:
        _diagonal(t)[..., :w] -= energy
    return t


def symplectic_form(width: int) -> np.ndarray:
    j = np.zeros((2 * width, 2 * width))
    j[:width, width:] = -np.eye(width)
    j[width:, :width] = np.eye(width)
    return j


def symplectic_defect(t: np.ndarray) -> float:
    """Operator-norm distance of T^t J T from J."""
    w = t.shape[0] // 2
    j = symplectic_form(w)
    return float(np.linalg.norm(t.T @ j @ t - j, 2))


@cache
def _lwork(m: int, n: int) -> tuple[int, int]:
    """LAPACK's optimal work sizes of dgeqrf and dorgqr on an m x n matrix, as ``np.linalg.qr`` queries them."""
    a = np.zeros((m, n))
    return int(_FLAPACK.dgeqrf(a, -1)[2][0]), int(_FLAPACK.dorgqr(a, np.zeros(n), -1)[1][0])


def _qr(a: np.ndarray, d: np.ndarray, lwork: tuple[int, int]) -> np.ndarray:
    """Q of the reduced QR of an m x n ``a``, m >= n, by dgeqrf and dorgqr as in ``np.linalg.qr``; diag R goes into ``d``.

    ``lwork`` is ``_lwork(m, n)``.
    """
    qr, tau, _, info = _FLAPACK.dgeqrf(a, lwork[0])  # positional arguments parse faster than keywords
    d[:] = qr.diagonal()  # dorgqr overwrites qr
    q, _, info_q = _FLAPACK.dorgqr(qr, tau, lwork[1], 1)
    if info or info_q:
        raise NumericError(f"LAPACK QR failed: dgeqrf info {info}, dorgqr info {info_q}")
    return q


def _qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` = Q R with diag R > 0: Q and log diag R."""
    d = np.empty(a.shape[1])
    q = _qr(a, d, _lwork(*a.shape))
    r = np.abs(d)
    if not r.min() > 0.0:
        raise NumericError("rank-deficient or non-finite init_frame")
    return q * np.copysign(1.0, d), np.log(r)


def _qr_step(m: np.ndarray, q: np.ndarray, pivots: np.ndarray, lwork: tuple[int, int]) -> np.ndarray:
    """Reorthonormalize ``m @ q``; the raw diagonal of its R goes into ``pivots``."""
    return _qr(m.dot(q), pivots, lwork)  # the BLAS call of m @ q, with less overhead


def _recorded_steps(n_steps: int) -> np.ndarray:
    """Step counts at which ``_sweep`` records the radii: 0, the multiples of 64, then every step of the tail."""
    n_full = n_steps - n_steps % _BLOCK_STEPS
    return np.concatenate([np.arange(0, n_full, _BLOCK_STEPS), np.arange(n_full, n_steps + 1)])


def _sweep(
    sample: DisorderSample, energy: float, start: int, n_steps: int, frame: np.ndarray, log_radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR-stabilized product of the one-step matrices of columns start+1 .. start+n_steps on ``frame``.

    Returns the sign-fixed frame, ``log_radii`` plus the accumulated log
    pivots, and the radii after each of the ``_recorded_steps(n_steps)``.
    """
    q, radii, signs = frame, np.array(log_radii, dtype=float), np.ones(frame.shape[1])
    record, lwork = [radii[None]], _lwork(*frame.shape)
    for w0 in range(0, n_steps, _WINDOW_STEPS):
        n = min(_WINDOW_STEPS, n_steps - w0)
        blocks = _column_blocks(sample.potentials, sample.u_law, sample.u_band, energy, (start + w0, start + w0 + n))
        if not np.all(np.isfinite(blocks)):
            raise NumericError("non-finite transfer matrix entries")
        mats = one_step(blocks, 0.0)  # the blocks are S_k - E already
        n_full = n - n % _BLOCK_STEPS
        prods, span = mats[:n_full], 1
        while span < _BLOCK_STEPS:
            doubled = prods[1::2] @ prods[0::2]
            if not np.all(np.einsum("kij,kij->k", doubled, doubled) <= _FROB_SQ_BUDGET):
                break
            prods, span = doubled, 2 * span
        table = np.empty((len(prods) + n - n_full + 1, len(radii)))  # row 0 the radii, row i the pivots of QR i
        table[0] = radii
        for m, pivots in zip(chain(prods, mats[n_full:]), table[1:]):
            q = _qr_step(m, q, pivots, lwork)
        signs *= np.copysign(1.0, table[1:]).prod(axis=0)
        logs = np.abs(table[1:], out=table[1:])
        if not logs.min() > 0.0:
            raise NumericError("rank-deficient step in cocycle product")
        np.log(logs, out=logs)
        radii = np.cumsum(table, axis=0, out=table)[-1]  # adds in order, as radii += log|d| per QR would
        stride = _BLOCK_STEPS // span  # blocks per 64 steps
        record.append(np.concatenate((table[stride : len(prods) + 1 : stride], table[len(prods) + 1 :])))
    if not np.all(np.isfinite(radii)):
        raise NumericError("cocycle state lost finiteness")
    return q * signs, radii, np.concatenate(record)


@dataclass
class CocycleAccumulator:
    """Stabilized product state: P = frame . R with log diag R = log_radii.

    ``frame`` is 2W x k with orthonormal columns: k = 2W for the whole
    product, fewer for the shadow of P on a k-column frame, so det of any k
    row selection of the shadow is det(frame[rows]) * exp(sum(log_radii)).
    """

    frame: np.ndarray
    log_radii: np.ndarray
    steps: int = 0

    @classmethod
    def identity(cls, width: int) -> "CocycleAccumulator":
        m = 2 * width
        return cls(frame=np.eye(m), log_radii=np.zeros(m), steps=0)


def accumulate(
    sample: DisorderSample,
    energy: float,
    n_steps: int,
    start: int = 0,
    init: CocycleAccumulator | None = None,
) -> CocycleAccumulator:
    """Stabilized product of one-step matrices for columns start+1 .. start+n_steps.

    Passing ``init`` chains a previous accumulator, so the product over [1, N]
    equals the product over [M+1, N] applied after the product over [1, M].
    """
    if start + n_steps > sample.potentials.shape[0]:
        raise ConfigurationError("accumulation range exceeds sampled extent")
    if init is None:
        init = CocycleAccumulator.identity(sample.geometry.width)
    frame, radii, _ = _sweep(sample, energy, start, n_steps, init.frame, init.log_radii)
    return CocycleAccumulator(frame=frame, log_radii=radii, steps=init.steps + n_steps)


def shadow_product(
    sample: DisorderSample,
    energy: float,
    n_steps: int,
    init_frame: np.ndarray,
    start: int = 0,
) -> CocycleAccumulator:
    """Carry a k-column shadow of the transfer product: init_frame = Q0 R0, radii from log diag R0."""
    if start + n_steps > sample.potentials.shape[0]:
        raise ConfigurationError("shadow range exceeds sampled extent")
    x = np.asarray(init_frame, dtype=float)
    if x.ndim != 2 or x.shape[0] != 2 * sample.geometry.width or x.shape[1] > x.shape[0]:
        raise ConfigurationError("init_frame must be 2W x k")
    q, radii, _ = _sweep(sample, energy, start, n_steps, *_qr_positive(x))
    return CocycleAccumulator(frame=q, log_radii=radii, steps=n_steps)


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Top-W exponents with block-bootstrap error bars plus all 2W raw radii; NaN error bars below two blocks."""

    exponents: np.ndarray
    stderr: np.ndarray
    radii: np.ndarray
    n_steps: int
    burn_in: int
    n_blocks: int


def lyapunov_spectrum(
    spec: DisorderSpec, geometry: StripGeometry, energy: float, n_steps: int, seed: int
) -> LyapunovSpectrum:
    """Estimate the non-negative Lyapunov exponents from one long product.

    The estimate is the mean per-step log growth after a burn-in window, which
    removes the O(1)/N transient of the raw radii.  Error bars come from a
    block bootstrap over contiguous segments of the post-burn-in increments,
    each replicate the resampled growth over the resampled steps.  The
    burn-in min(N // 8, 2000) moves up to a step the sweep records (down if
    none is before N), and each of the 64 evenly spaced block edges down.
    """
    if n_steps * geometry.width < MIN_COCYCLE_STEPS:
        raise ConfigurationError(f"n_steps * width must be at least {MIN_COCYCLE_STEPS}, got {n_steps * geometry.width}")
    w = geometry.width
    sample = sample_disorder(StripGeometry(w, geometry.bandwidth, n_steps), spec, seed)
    _, final, record = _sweep(sample, energy, 0, n_steps, np.eye(2 * w), np.zeros(2 * w))
    steps = _recorded_steps(n_steps)
    first = min(int(np.searchsorted(steps, min(n_steps // 8, _BURN_IN_STEPS))), len(steps) - 2)
    burn_in = int(steps[first])
    span = n_steps - burn_in
    targets = burn_in + np.linspace(0, span, min(_BOOT_BLOCKS, span) + 1).astype(int)
    rows = np.unique(np.searchsorted(steps, targets, side="right") - 1)
    increments, lengths = np.diff(record[rows], axis=0), np.diff(steps[rows])
    gamma_all = (final - record[first]) / span
    rng = split_stream(seed, _DOMAIN_BOOT, 0)
    idx = rng.integers(0, len(increments), size=(_BOOT_REPLICATES, len(increments)))
    boot = increments[idx].sum(axis=1) / lengths[idx].sum(axis=1)[:, None]
    stderr = boot.std(axis=0, ddof=1) if len(increments) > 1 else np.full(2 * w, np.nan)
    order = np.argsort(-gamma_all[:w])  # descending by construction, enforced anyway
    return LyapunovSpectrum(
        gamma_all[order], stderr[order], radii=final, n_steps=n_steps, burn_in=burn_in, n_blocks=len(increments)
    )


def recurrence_check(
    sample: DisorderSample,
    energy: float,
    n_steps: int,
    initial: Sequence[float],
) -> float:
    """Gap between site-by-site iteration of H psi = E psi and the matrix product.

    The stencil route iterates psi_{k+1} = (S_k - E) psi_k - psi_{k-1} from
    (psi_1, psi_0) = initial; the matrix route applies the one-step factors to
    the same vector.  Returns the euclidean norm of the difference.
    """
    w = sample.geometry.width
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (2 * w,):
        raise ConfigurationError(f"initial vector must have length {2 * w}")
    psi_cur = initial[:w].copy()
    psi_prev = initial[w:].copy()
    for k in range(1, n_steps + 1):
        psi_cur, psi_prev = (s_matrix(sample, k) - energy * np.eye(w)) @ psi_cur - psi_prev, psi_cur
    stencil = np.concatenate([psi_cur, psi_prev])
    v = initial.copy()
    for k in range(1, n_steps + 1):
        v = one_step(s_matrix(sample, k), energy) @ v
    return float(np.linalg.norm(stencil - v))
