"""Chunked, worker-parallel Monte Carlo kernels over disorder ensembles.

Chunk k of an ensemble is a pure function of (spec, geometry, seed, k), and
workers only schedule whole chunks, so every sampler here returns the same
arrays for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .model import (
    _DOMAIN_BOOT_CI,
    ConfigurationError,
    DisorderSpec,
    Region,
    StripGeometry,
    assembly_plan,
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
_CHUNK_BUDGET = 1 << 23  # doubles per chunk of stacked Hamiltonians (~64 MB)


def _effective_chunk(matrix_dim: int) -> int:
    return max(16, min(DEFAULT_CHUNK, _CHUNK_BUDGET // max(matrix_dim * matrix_dim, 1)))


def _map_chunks(batch, spec, geometry, region, shift: float, n_samples: int, seed: int, workers: int) -> list[np.ndarray]:
    """Run ``batch`` over the ensemble chunk by chunk and join its results.

    Each chunk is drawn, assembled into a stack of H_region - shift, and handed
    to ``batch(h, u_band)``, which returns a tuple of arrays with one value per
    sample of the chunk.
    """
    if n_samples < 1:
        raise ConfigurationError("need at least one sample")
    plan = assembly_plan(region, geometry)
    chunk = _effective_chunk(len(plan.sites))
    diag = np.arange(len(plan.sites))

    def task(idx: int) -> tuple:
        m = min(chunk, n_samples - idx * chunk)
        pot, u_band = draw_chunk(spec, geometry, idx, m, seed)
        h = build_hamiltonians(plan, pot, spec.u_law, u_band)
        h[:, diag, diag] -= shift
        return batch(h, u_band)

    chunks = range(-(-n_samples // chunk))
    if workers <= 1:
        results = list(map(task, chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, chunks))
    return [np.concatenate(parts) for parts in zip(*results)]


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

    Exactly singular samples are returned as -inf; the count is reported so
    callers can exclude them explicitly.
    """

    def batch(h, u_band):
        sign, log_abs = np.linalg.slogdet(h)
        return (np.where(sign == 0.0, -np.inf, log_abs),)

    out = _map_chunks(batch, spec, geometry, region, energy, n_samples, seed, workers)[0]
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

    def batch(h, u_band):
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
    random_band = spec.u_law == "random_band"
    if region.size == 1:
        if not random_band:
            return np.full(n_samples, energy), 0

        # diagonal coupling still fluctuates for the random band law
        def batch(h, u_band):
            return (energy + u_band[:, n0 - 1, 0, w0 - 1],)

        return _map_chunks(batch, spec, geometry, region, energy, n_samples, seed, workers)[0], 0
    rest = region.without_site(k)
    sites = rest.sites
    d = geometry.bandwidth
    hor_pos = [j for j, (n, w) in enumerate(sites) if w == w0 and abs(n - n0) == 1]
    ver_pos = [(j, abs(w - w0), min(w, w0)) for j, (n, w) in enumerate(sites) if n == n0 and 0 < abs(w - w0) <= d]

    def batch(h, u_band):
        m = len(h)
        g = np.zeros((m, len(sites)))
        if hor_pos:
            g[:, hor_pos] = -1.0
        for j, off, wlo in ver_pos:
            if spec.u_law == "adjacency":
                g[:, j] = -1.0 if off == 1 else 0.0
            elif random_band:
                g[:, j] = -u_band[:, n0 - 1, off, wlo - 1]
        u_kk = u_band[:, n0 - 1, 0, w0 - 1] if random_band else np.zeros(m)
        return (u_kk + energy + np.sum(g * _solve(h, g), axis=1),)

    out = _map_chunks(batch, spec, geometry, rest, energy, n_samples, seed, workers)[0]
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
    sites = list(region.sites)
    ia, ib = sites.index(site_a), sites.index(site_b)

    def batch(h, u_band):
        rhs = np.zeros((len(h), len(sites)))
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
