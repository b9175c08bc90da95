"""Chunked, worker-parallel Monte Carlo kernels over disorder ensembles.

Draws come in chunks: chunk k of an ensemble is a pure function of (spec,
geometry, seed, k), with a chunk size set by the dense memory budget of the
region.  A kernel batch is a run of consecutive whole chunks, and workers
only schedule whole batches, so every sampler here returns the same arrays
for any worker count.  A batch draws its chunks as it reads them and keeps no
chunk past its copy into the batch.  Rectangles in ``sample_logdets`` go
through the batched Schur sweep (route c), in batches of up to DEFAULT_CHUNK
samples: at W = 2 on samples-last entries, elementwise numpy over the batch,
so a second worker speeds it up, and on one (m, n, W, W) array of column
blocks at other widths.  A sample the sweep marks bad goes to route (a), one
banded LU on its own blocks.  Every other kernel factors the dense stack of
H_region - E that ``model.build_hamiltonians`` stacks from the same column
blocks, one chunk per batch; ``sample_site_shifts`` reads the coupling row of
the peeled site off its row of that stack.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .determinants import _band_logdet, _block_band, _closed_form_sweep, _schur_sweep
from .model import (
    _DOMAIN_BOOT_CI,
    ConfigurationError,
    DisorderSpec,
    Region,
    StripGeometry,
    _column_blocks,
    _couplings,
    _draw_entries,
    build_hamiltonians,
    draw_chunk,
    split_stream,
)

__all__ = [
    "sample_logdets",
    "sample_spectral",
    "sample_site_shifts",
    "sample_resolvent_entries",
    "bootstrap_ci",
    "DEFAULT_CHUNK",
]

DEFAULT_CHUNK = 4096
_CHUNK_BUDGET = 1 << 23  # doubles per batch of stacked Hamiltonians or column blocks (~64 MB)


def _effective_chunk(matrix_dim: int) -> int:
    return max(16, min(DEFAULT_CHUNK, _CHUNK_BUDGET // max(matrix_dim * matrix_dim, 1)))


def _map_draws(batch, spec, geometry, sites: int, n_samples: int, seed: int, workers: int, sample_doubles: int) -> list[np.ndarray]:
    """Run ``batch(draws, m)`` over the ensemble batch by batch and join its results.

    The draws are cut into chunks of ``_effective_chunk(sites)`` samples.  A
    batch is a run of consecutive whole chunks of at most DEFAULT_CHUNK samples
    whose working set, at ``sample_doubles`` per sample, fits in _CHUNK_BUDGET
    doubles, and always at least one chunk.  ``batch`` gets the batch's m
    samples as ``draws``, which draws its chunks in order as it is iterated,
    and returns a tuple of arrays with one value per sample of the batch.
    """
    if n_samples < 1:
        raise ConfigurationError("need at least one sample")
    chunk = _effective_chunk(sites)
    n_chunks = -(-n_samples // chunk)
    per_batch = max(1, min(DEFAULT_CHUNK, _CHUNK_BUDGET // sample_doubles) // chunk)

    def task(first: int) -> tuple:
        last = min(first + per_batch, n_chunks)
        draws = (draw_chunk(spec, geometry, idx, min(chunk, n_samples - idx * chunk), seed) for idx in range(first, last))
        return batch(draws, min(last * chunk, n_samples) - first * chunk)

    batches = range(0, n_chunks, per_batch)
    if workers <= 1:
        results = list(map(task, batches))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, batches))
    return [np.concatenate(parts) for parts in zip(*results)]


def _map_chunks(batch, spec, geometry, region, shift: float, n_samples: int, seed: int, workers: int) -> list[np.ndarray]:
    """Run ``batch(h)`` on the dense stack h of H_region - shift, one chunk at a time."""

    def dense(draws, m):
        ((pot, u_band),) = draws  # the chunk is the batch: its length fits the stack's budget
        return batch(build_hamiltonians(region, pot, spec.u_law, u_band, shift))

    return _map_draws(dense, spec, geometry, region.size, n_samples, seed, workers, region.size**2)


def _solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of h x = rhs; a singular sample gives a nan row, not a failed chunk."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        for i in range(len(h)):
            try:
                x[i] = np.linalg.solve(h[i], rhs[i])
            except np.linalg.LinAlgError:
                pass  # stays nan, counted by the caller
        return x


def sample_logdets(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """log|det(H_region - E)| over independent realizations.

    A rectangle goes through the batched Schur sweep, and a sample the sweep
    marks bad through route (a), one banded LU on the sample's own column
    blocks, bit for bit ``logdet_direct`` on its rectangle.  Any other region
    is factored densely by slogdet.  Samples found singular, by route (a)'s
    pivot floor or by an exact zero pivot of slogdet, are returned as -inf;
    the count is reported so callers can exclude them explicitly.
    """
    if region.is_rectangle:
        n0, n1, w0, w1 = region.bounds()
        cols, rows, w = (n0 - 1, n1), (w0 - 1, w1), w1 - w0 + 1

        def batch(draws, m):
            if w == 2:
                entries = _draw_entries(draws, m, spec.u_law, energy, cols, rows)
                _, log_abs, bad = _closed_form_sweep(*entries)
                # sample i's (n, 2, 2) blocks, gathered from the entries
                blocks_of = lambda i: np.stack([x[:, i if x.shape[1] > 1 else 0] for x in entries], axis=-1).reshape(-1, 2, 2)
            else:
                blocks, lo = np.empty((m, n1 - n0 + 1, w, w)), 0
                for pot, u_band in draws:
                    blocks[lo : lo + len(pot)] = _column_blocks(pot, spec.u_law, u_band, energy, cols, rows)
                    lo += len(pot)
                    del pot, u_band  # before the next chunk is drawn
                _, log_abs, bad = _schur_sweep(blocks)
                blocks_of = blocks.__getitem__
            for i in np.flatnonzero(bad):  # route (a) on the sample's own blocks, -inf where its pivot floor finds H - E singular
                log_abs[i] = _band_logdet(_block_band(blocks_of(i)), 0.0)[0].log_abs
            return (log_abs,)

        out = _map_draws(batch, spec, geometry, region.size, n_samples, seed, workers, (n1 - n0 + 1) * w * w)[0]
    else:
        sign, log_abs = _map_chunks(np.linalg.slogdet, spec, geometry, region, energy, n_samples, seed, workers)
        out = np.where(sign == 0.0, -np.inf, log_abs)
    return out, int(np.sum(np.isneginf(out)))


def sample_spectral(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Joint samples of log|det(H - E)|, dist(E, spec H), and ||H||.

    One eigendecomposition per sample feeds all three, which keeps the
    pointwise relations between them exact.
    """

    def batch(h):
        eigs = np.linalg.eigvalsh(h)
        gaps = np.abs(eigs - energy)
        with np.errstate(divide="ignore"):
            log_abs = np.sum(np.log(gaps), axis=1)
        return log_abs, np.min(gaps, axis=1), np.max(np.abs(eigs), axis=1)

    # the spectrum of H itself is factored, so the stack is not shifted
    log_abs, dist, norm = _map_chunks(batch, spec, geometry, region, 0.0, n_samples, seed, workers)
    return {"log_abs": log_abs, "dist": dist, "norm": norm}


def sample_site_shifts(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    k: tuple[int, int],
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """Samples of the single-site Schur shift xi at site k over the ensemble.

    Exactly singular punctured Hamiltonians are counted and returned as nan.
    """
    if k not in region:
        raise ConfigurationError(f"site {k} not in region")
    n0, w0 = k
    i = region.sites.index(k)
    rest = np.flatnonzero(np.arange(region.size) != i)

    def batch(draws, m):
        ((pot, u_band),) = draws
        h = build_hamiltonians(region, pot, spec.u_law, u_band, energy)
        u_kk = _couplings(pot.shape[:1], spec.u_law, u_band, (n0 - 1, n0), (w0 - 1, w0))[:, 0, 0, 0]
        g = h[:, i, rest]
        return (u_kk + energy + np.sum(g * _solve(h[:, rest[:, None], rest], g), axis=1),)

    # the chunk length fixes the draws, and stays keyed to the punctured region
    out = _map_draws(batch, spec, geometry, region.size - 1, n_samples, seed, workers, region.size**2)[0]
    return out, int(np.sum(~np.isfinite(out)))


def sample_resolvent_entries(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    site_a: tuple[int, int],
    site_b: tuple[int, int],
    energy: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Samples of the resolvent entry (H_region - E)^-1(a, b) over the ensemble."""
    for site in (site_a, site_b):
        if site not in region:
            raise ConfigurationError(f"site {site} not in region")
    ia, ib = region.sites.index(site_a), region.sites.index(site_b)

    def batch(h):
        rhs = np.zeros((len(h), region.size))
        rhs[:, ib] = 1.0
        return (_solve(h, rhs)[:, ia],)

    return _map_chunks(batch, spec, geometry, region, energy, n_samples, seed, workers)[0]


def bootstrap_ci(
    values: np.ndarray,
    statistic,
    seed: int,
    n_boot: int = 1000,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a statistic of an i.i.d. sample."""
    values = np.asarray(values)
    rng = split_stream(seed, _DOMAIN_BOOT_CI)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    stats = np.array([statistic(values[row]) for row in idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha))
