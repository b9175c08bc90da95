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
banded LU on its own blocks.  ``sample_spectral`` on W = 2 rectangles takes
log|det(H - E)| from the same sweep, and the distance and norm tests of the
Cartan estimate from inertia counts of the sweep of H - t at shifted
energies t (Sylvester's law of inertia), so no eigenvalue is computed unless
a sample is bad at a shift.  Every other kernel factors the dense stack of
H_region - E that ``model.build_hamiltonians`` stacks from the same column
blocks, one chunk per batch; ``sample_site_shifts`` reads the coupling row of
the peeled site off its row of that stack.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

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
    _stack_columns,
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
_SHIFT_DOUBLES = 1 << 15  # entries of one (n, 2 * samples) diagonal in an inertia sweep of shifted samples


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


def _entry_blocks(entries, idx) -> np.ndarray:
    """The (n, 2, 2) column blocks of sample ``idx``, or (len(idx), n, 2, 2) of an index array, gathered from samples-last W = 2 entries."""
    x = np.stack([e[:, idx if e.shape[1] > 1 else idx * 0].T for e in entries], axis=-1)
    return x.reshape(*x.shape[:-1], 2, 2)


def _reroute(log_abs: np.ndarray, bad: np.ndarray, blocks_of, energy: float) -> None:
    """Route (a) in place on the samples the Schur sweep marked bad, each on its own blocks ``blocks_of(i)`` of H - E + ``energy``.

    One banded LU per sample; -inf where its pivot floor finds H - E singular.
    """
    for i in np.flatnonzero(bad):
        log_abs[i] = _band_logdet(_block_band(blocks_of(i)), energy)[0].log_abs


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
                blocks_of = partial(_entry_blocks, entries)
            else:
                blocks, lo = np.empty((m, n1 - n0 + 1, w, w)), 0
                for pot, u_band in draws:
                    blocks[lo : lo + len(pot)] = _column_blocks(pot, spec.u_law, u_band, energy, cols, rows)
                    lo += len(pot)
                    del pot, u_band  # before the next chunk is drawn
                _, log_abs, bad = _schur_sweep(blocks)
                blocks_of = blocks.__getitem__
            _reroute(log_abs, bad, blocks_of, 0.0)
            return (log_abs,)

        out = _map_draws(batch, spec, geometry, region.size, n_samples, seed, workers, (n1 - n0 + 1) * w * w)[0]
    else:
        sign, log_abs = _map_chunks(np.linalg.slogdet, spec, geometry, region, energy, n_samples, seed, workers)
        out = np.where(sign == 0.0, -np.inf, log_abs)
    return out, int(np.sum(np.isneginf(out)))


def _spectral_masks(eigs: np.ndarray, energy: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, K) masks log dist(E, spec H) < -K and log(|E| + ||H||) > K of (m, s) spectra of H."""
    with np.errstate(divide="ignore"):
        dist = np.log(np.min(np.abs(eigs - energy), axis=1))
    norm = np.log(abs(energy) + np.max(np.abs(eigs), axis=1))
    return dist[:, None] < -k, norm[:, None] > k


def _interval_counts(entries, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many eigenvalues of H lie in [lo_i, hi_i), for the samples ``idx`` of a W = 2 batch, and which of them are bad at either end.

    ``entries`` are the samples-last blocks of H itself.  ``_closed_form_sweep``
    on H - t counts the eigenvalues below t; the two ends go through one
    sweep, side by side along the sample axis.
    """
    sa, sb, sc, sd = entries
    t = np.stack([lo, hi])
    take = lambda x: np.take(x, idx, axis=1) if x.shape[1] > 1 else x  # C order, unlike x[:, idx]
    diagonal = lambda x: (take(x)[:, None] - t).reshape(len(x), -1)
    side = lambda x: np.tile(take(x), 2) if x.shape[1] > 1 else x
    count, bad = _closed_form_sweep(diagonal(sa), side(sb), side(sc), diagonal(sd), inertia=True)
    below, above = count.reshape(2, -1)
    return above - below, bad.reshape(2, -1).any(axis=0)


def _inertia_masks(entries, energy: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_spectral_masks`` of a W = 2 batch from negative-eigenvalue counts, plus the mask of samples they fail on.

    ``entries`` are the samples-last blocks of H itself.  dist(E, spec H) < e^-K
    iff an eigenvalue lies in [E - e^-K, E + e^-K), and ||H|| > e^K - |E| iff
    one lies outside [|E| - e^K, e^K - |E|) (``_interval_counts``).  An
    eigenvalue exactly at an end, where these tests and the strict ones
    part, makes H - t singular and the sample bad.  The K run in increasing
    order, and a sample that misses either test at K misses it at every
    larger K, so it is swept for that test only while it hit at the previous
    K.  Nor is it swept where its own bounds on ||H|| settle the test:
    Gershgorin's max row sum of |H| from above, max_i ||H e_i|| from below.
    Every sweep holds at most _SHIFT_DOUBLES entries per diagonal.  A sample bad at any shift is in the returned
    mask, and its rows are left for the caller.
    """
    sa, sb, sc, sd = entries
    n, m = sa.shape
    col = np.arange(n)[:, None]
    hops = np.minimum(col, 1) + np.minimum(n - 1 - col, 1)  # the -1 to each neighbouring column
    upper = np.max(np.maximum(abs(sa) + abs(sb), abs(sc) + abs(sd)) + hops, axis=0)
    lower = np.sqrt(np.max(np.maximum(sa * sa + sc * sc, sb * sb + sd * sd) + hops, axis=0))
    delta, reach = np.exp(-k), np.exp(k) - abs(energy)
    dist_hits, norm_hits = np.zeros((m, len(k)), dtype=bool), np.zeros((m, len(k)), dtype=bool)
    dist, norm, bad = np.ones(m, dtype=bool), np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    span = max(1, _SHIFT_DOUBLES // (2 * n))
    for j in np.argsort(k, kind="stable"):
        lo, hi, r = energy - delta[j], energy + delta[j], reach[j]
        dist &= (lo < upper) & (hi > -upper)
        norm &= upper > r
        sure = norm & (lower > r)
        d, s = np.flatnonzero(dist), np.flatnonzero(norm & ~sure)
        idx, ends = np.concatenate([d, s]), [np.repeat(x, (len(d), len(s))) for x in ((lo, -r), (hi, r))]
        within, hit = np.empty(len(idx), dtype=np.intp), np.empty(len(idx), dtype=bool)
        for at in range(0, len(idx), span):
            piece = slice(at, at + span)
            within[piece], hit[piece] = _interval_counts(entries, idx[piece], ends[0][piece], ends[1][piece])
        bad[idx[hit]] = True
        dist[d], norm[s] = within[: len(d)] > 0, within[len(d) :] < 2 * n
        dist &= ~bad
        norm &= ~bad
        dist_hits[:, j], norm_hits[:, j] = dist, norm
    return dist_hits, norm_hits, bad


def sample_spectral(
    spec: DisorderSpec,
    geometry: StripGeometry,
    region: Region,
    energy: float,
    k_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Joint samples of log|det(H - E)| and, for each K of ``k_grid``, of the causes of a large one.

    Returns ``log_abs``, the (len(k_grid), n_samples) boolean masks
    ``dist_hits`` (log dist(E, spec H) < -K) and ``norm_hits``
    (log(|E| + ||H||) > K), and ``eigvalsh``, the number of samples whose
    masks came from an eigendecomposition.  On W = 2 rectangles log|det|
    is ``sample_logdets``'s, bit for bit: the closed-form Schur sweep, and
    route (a) where it marks a sample bad.  The masks come from inertia
    counts of the same sweep at shifted energies (``_inertia_masks``), so
    they are computed independently of log|det|; a sample the sweep marks
    bad at any shift takes them from ``eigvalsh``.  Any other region takes
    all three from one ``eigvalsh`` per sample.
    """
    k = np.asarray(k_grid, dtype=float)
    n0, n1, w0, w1 = region.bounds()
    if region.is_rectangle and w1 - w0 == 1:
        cols, rows, chunk = (n0 - 1, n1), (w0 - 1, w1), _effective_chunk(region.size)

        def batch(draws, m):
            entries = _draw_entries(draws, m, spec.u_law, 0.0, cols, rows)  # the blocks of H itself
            sa, sb, sc, sd = entries
            _, log_abs, bad = _closed_form_sweep(sa - energy, sb, sc, sd - energy)
            blocks_of = partial(_entry_blocks, entries)
            _reroute(log_abs, bad, blocks_of, energy)
            dist_hits, norm_hits, bad = _inertia_masks(entries, energy, k)
            redo = np.flatnonzero(bad)
            for lo in range(0, len(redo), chunk):
                idx = redo[lo : lo + chunk]
                dist_hits[idx], norm_hits[idx] = _spectral_masks(np.linalg.eigvalsh(_stack_columns(blocks_of(idx))), energy, k)
            return log_abs, dist_hits, norm_hits, bad

        log_abs, dist_hits, norm_hits, redone = _map_draws(batch, spec, geometry, region.size, n_samples, seed, workers, (n1 - n0 + 1) * 4)
        n_eig = int(np.count_nonzero(redone))
    else:

        def batch(h):
            eigs = np.linalg.eigvalsh(h)
            with np.errstate(divide="ignore"):
                log_abs = np.sum(np.log(np.abs(eigs - energy)), axis=1)
            return (log_abs, *_spectral_masks(eigs, energy, k))

        # the spectrum of H itself is factored, so the stack is not shifted
        log_abs, dist_hits, norm_hits = _map_chunks(batch, spec, geometry, region, 0.0, n_samples, seed, workers)
        n_eig = n_samples
    return {"log_abs": log_abs, "dist_hits": dist_hits.T, "norm_hits": norm_hits.T, "eigvalsh": n_eig}


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
