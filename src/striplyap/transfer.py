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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    _DOMAIN_BOOT, ConfigurationError, DisorderSample, DisorderSpec, StripGeometry, _column_blocks, s_matrix, sample_disorder,
    split_stream,
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


def one_step(s_block: np.ndarray, energy: float) -> np.ndarray:
    """One-step transfer matrices [[S - E, -I], [I, 0]], unit determinant.

    ``s_block`` is one W x W block S or a (..., W, W) stack of them.
    """
    s_block = np.asarray(s_block, dtype=float)
    w = s_block.shape[-1]
    t = np.zeros(s_block.shape[:-2] + (2 * w, 2 * w))
    t[..., :w, :w] = s_block - energy * np.eye(w)
    t[..., :w, w:] = -np.eye(w)
    t[..., w:, :w] = np.eye(w)
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


def _qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(a)
    signs = np.copysign(1.0, np.diag(r))
    return q * signs, r * signs[:, None]


def _qr_step(m: np.ndarray, q: np.ndarray, radii: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Reorthonormalize ``m @ q``: add log|pivots| to ``radii``, multiply ``signs`` by theirs."""
    q, r = np.linalg.qr(m @ q)
    d = np.diagonal(r)
    a = np.abs(d)
    if not np.all(a > 0.0):
        raise NumericError("rank-deficient step in cocycle product")
    radii += np.log(a)
    signs *= np.copysign(1.0, d)
    return q


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
    q = frame
    radii = np.array(log_radii, dtype=float)
    signs = np.ones(frame.shape[1])
    out = np.empty((len(_recorded_steps(n_steps)), len(radii)))
    out[0] = radii
    row = 1
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
        for b, block in enumerate(prods, 1):
            q = _qr_step(block, q, radii, signs)
            if b * span % _BLOCK_STEPS == 0:
                out[row] = radii
                row += 1
        for k in range(n_full, n):
            q = _qr_step(mats[k], q, radii, signs)
            out[row] = radii
            row += 1
    if not np.all(np.isfinite(radii)):
        raise NumericError("cocycle state lost finiteness")
    return q * signs, radii, out


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
    if x.ndim != 2 or x.shape[0] != 2 * sample.geometry.width:
        raise ConfigurationError("init_frame must be 2W x k")
    q, r = _qr_positive(x)
    q, radii, _ = _sweep(sample, energy, start, n_steps, q, np.log(np.diag(r)))
    return CocycleAccumulator(frame=q, log_radii=radii, steps=n_steps)


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Top-W exponents with block-bootstrap error bars plus all 2W raw radii."""

    exponents: np.ndarray
    stderr: np.ndarray
    radii: np.ndarray
    n_steps: int
    burn_in: int


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
    stderr = boot.std(axis=0, ddof=1)
    order = np.argsort(-gamma_all[:w])  # descending by construction, enforced anyway
    return LyapunovSpectrum(
        exponents=gamma_all[order], stderr=stderr[order], radii=final, n_steps=n_steps, burn_in=burn_in
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
