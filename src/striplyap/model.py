"""Strip lattice, disorder laws, and Dirichlet Hamiltonian assembly.

Sites live on [1, N] x [1, W] (column index first, 1-based).  The operator
couples horizontal neighbours with -1 and sites inside the same column with
the entries of a symmetric band matrix U_n of half-width d, so the column
blocks are S_n = diag(V_n) - U_n.

Every matrix entry comes from one builder, the column blocks S_k - E of
``_column_blocks``, with U_k from ``_couplings``.  The dense H_region - E
stacks the blocks of the region's bounding box block-tridiagonally, -I
between neighbouring columns, and keeps the principal submatrix on the
region's sites, which is its Dirichlet restriction.  The transfer sweep, the
Schur route and the band storage of the direct route read the same blocks;
the W = 2 ensemble sweep forms the entries of S_k by the same operations,
samples last, copying a batch's draws in piece by piece, and shifts them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
import numpy.random  # noqa: F401 - numpy 2 loads random on first use; here, at import, rather than inside the first command

__all__ = [
    "ConfigurationError",
    "StripGeometry",
    "Region",
    "DisorderSpec",
    "DisorderSample",
    "split_stream",
    "sample_disorder",
    "s_matrix",
    "boundary",
    "assemble_hamiltonian",
    "build_hamiltonians",
]

DENSITIES = ("uniform", "cauchy", "point", "table")
U_LAWS = ("zero", "adjacency", "random_band")

# stream domains: every split_stream path in the package starts with one of these
_DOMAIN_SAMPLE = 0  # sample_disorder, then (sample index, field)
_DOMAIN_CHUNK = 1  # draw_chunk, then (block index, field), entered at the sample's offset in its block
_DOMAIN_BOOT = 2  # block bootstrap of lyapunov_spectrum
_DOMAIN_VERIFY = 7  # verify suites, then the suite number
_DOMAIN_BOOT_CI = 9  # bootstrap_ci resampling

_DRAW_BLOCK = 4096  # samples per (seed, _DOMAIN_CHUNK, block) stream
_PIECE_DOUBLES = 1 << 14  # raw doubles per piece of draw_pieces: 128 KB, copied whole into a batch


class ConfigurationError(ValueError):
    """Invalid geometry, disorder description, or run configuration."""


def split_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator derived from (seed, path) by counter-based splitting.

    Streams for distinct paths are independent regardless of the order in
    which they are created, which makes parallel sampling order-independent.
    """
    mask = (1 << 63) - 1
    key = tuple(int(p) & mask for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & mask, spawn_key=key))


@dataclass(frozen=True)
class StripGeometry:
    """Strip shape: width W, intra-column band width d, horizontal extent N."""

    width: int
    bandwidth: int
    columns: int

    def __post_init__(self):
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1, got {self.width}")
        if not 1 <= self.bandwidth <= self.width:
            raise ConfigurationError(
                f"bandwidth must be in [1, width], got {self.bandwidth} with width {self.width}"
            )
        if self.columns < 1:
            raise ConfigurationError(f"columns must be >= 1, got {self.columns}")

    @property
    def n_sites(self) -> int:
        return self.width * self.columns


@dataclass(frozen=True)
class Region:
    """A finite set of strip sites, sorted, with a fast path for full rectangles."""

    sites: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.sites:
            raise ConfigurationError("region must be nonempty")
        if list(self.sites) != sorted(set(self.sites)):
            raise ConfigurationError("region sites must be sorted and unique")
        for n, w in self.sites:
            if n < 1 or w < 1:
                raise ConfigurationError(f"site {(n, w)} outside the lattice")

    @classmethod
    def rectangle(cls, n0: int, n1: int, w0: int, w1: int) -> "Region":
        if n1 < n0 or w1 < w0:
            raise ConfigurationError("empty rectangle")
        return cls(sites=tuple((n, w) for n in range(n0, n1 + 1) for w in range(w0, w1 + 1)))

    @classmethod
    def from_sites(cls, sites: Iterable[tuple[int, int]]) -> "Region":
        return cls(sites=tuple(sorted({(int(n), int(w)) for n, w in sites})))

    @cached_property
    def is_rectangle(self) -> bool:
        """Whether the sites fill their bounding box."""
        n0, n1, w0, w1 = self.bounds()
        return self.size == (n1 - n0 + 1) * (w1 - w0 + 1)

    @property
    def size(self) -> int:
        return len(self.sites)

    def bounds(self) -> tuple[int, int, int, int]:
        ns, ws = zip(*self.sites)
        return min(ns), max(ns), min(ws), max(ws)

    def __contains__(self, site: tuple[int, int]) -> bool:
        return site in set(self.sites)

    def without_site(self, site: tuple[int, int]) -> "Region":
        if site not in self.sites:
            raise ConfigurationError(f"site {site} not in region")
        return Region.from_sites(s for s in self.sites if s != site)

    def issubset(self, other: "Region") -> bool:
        return set(self.sites) <= set(other.sites)


def _check_density(density: str, params: dict) -> None:
    # every test below is false on NaN, so a NaN parameter is rejected
    if density == "uniform":
        lo, hi = params["lo"], params["hi"]
        if not -np.inf < lo < hi < np.inf:
            raise ConfigurationError("uniform density needs finite lo < hi")
    elif density == "cauchy":
        scale = params["scale"]
        cutoff = params.get("cutoff", 1e6)
        if not (0 < scale < np.inf and cutoff > 0):  # an infinite cutoff is the untruncated law
            raise ConfigurationError("cauchy density needs finite positive scale and positive cutoff")
    elif density == "point":
        if not np.isfinite(params["value"]):
            raise ConfigurationError("point mass needs a finite value")
    elif density == "table":
        edges = np.asarray(params["edges"], dtype=float)
        masses = np.asarray(params["masses"], dtype=float)
        if edges.ndim != 1 or len(edges) != len(masses) + 1 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
            raise ConfigurationError("table density needs finite increasing edges, one more than masses")
        if np.any(masses < 0) or not np.isclose(masses.sum(), 1.0):
            raise ConfigurationError("table masses must be nonnegative and sum to 1")
    else:
        raise ConfigurationError(f"unsupported density {density!r}")


@dataclass(frozen=True)
class DisorderSpec:
    """Law of the on-site potentials and of the intra-column couplings U_n."""

    density: str
    params: dict = field(default_factory=dict)
    u_law: str = "zero"
    u_params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_density(self.density, self.params)
        if self.u_law not in U_LAWS:
            raise ConfigurationError(f"unsupported u_law {self.u_law!r}")
        if self.u_law == "random_band" and not 0 <= self.u_params.get("coupling", 1.0) < np.inf:
            raise ConfigurationError("random_band coupling must be finite and nonnegative")

    @classmethod
    def uniform(cls, lo: float, hi: float, u_law: str = "zero", **u_params) -> "DisorderSpec":
        return cls("uniform", {"lo": float(lo), "hi": float(hi)}, u_law, dict(u_params))

    @classmethod
    def cauchy(cls, scale: float, cutoff: float = 1e6, u_law: str = "zero", **u_params) -> "DisorderSpec":
        return cls("cauchy", {"scale": float(scale), "cutoff": float(cutoff)}, u_law, dict(u_params))

    @classmethod
    def point(cls, value: float, u_law: str = "zero", **u_params) -> "DisorderSpec":
        return cls("point", {"value": float(value)}, u_law, dict(u_params))

    @property
    def sup_density(self) -> float:
        """D0, the sup of the potential density (inf for a point mass)."""
        if self.density == "uniform":
            return 1.0 / (self.params["hi"] - self.params["lo"])
        if self.density == "cauchy":
            s, t = self.params["scale"], self.params.get("cutoff", 1e6)
            return 1.0 / (2.0 * s * np.arctan(t / s))
        if self.density == "point":
            return float("inf")
        edges = np.asarray(self.params["edges"], dtype=float)
        masses = np.asarray(self.params["masses"], dtype=float)
        return float(np.max(masses / np.diff(edges)))

    @property
    def tail_constant(self) -> float:
        """D1 with P(|V| >= T) <= D1/T for all T >= 1 (U law included)."""
        if self.density == "uniform":
            d1 = max(abs(self.params["lo"]), abs(self.params["hi"]))
        elif self.density == "cauchy":
            s, t = self.params["scale"], self.params.get("cutoff", 1e6)
            d1 = s / np.arctan(t / s)
        elif self.density == "point":
            d1 = abs(self.params["value"])
        else:
            edges = self.params["edges"]
            d1 = max(abs(edges[0]), abs(edges[-1]))
        if self.u_law == "adjacency":
            d1 = max(d1, 2.0)
        elif self.u_law == "random_band":
            d1 = max(d1, 2.0 * self.u_params.get("coupling", 1.0))
        return float(max(d1, 1.0))

    def density_at(self, x) -> np.ndarray:
        """Evaluate the potential density pointwise."""
        x = np.asarray(x, dtype=float)
        if self.density == "uniform":
            lo, hi = self.params["lo"], self.params["hi"]
            return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
        if self.density == "cauchy":
            s, t = self.params["scale"], self.params.get("cutoff", 1e6)
            c = s / (2.0 * np.arctan(t / s))
            return np.where(np.abs(x) <= t, c / (s * s + x * x), 0.0)
        if self.density == "point":
            raise ConfigurationError("point mass has no density")
        edges = np.asarray(self.params["edges"], dtype=float)
        masses = np.asarray(self.params["masses"], dtype=float)
        rho = masses / np.diff(edges)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(rho) - 1)
        inside = (x >= edges[0]) & (x <= edges[-1])
        return np.where(inside, rho[idx], 0.0)

    def potentials_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniform(0,1) draws to potential values."""
        return self._from_uniform(np.array(u, dtype=float))

    def _from_uniform(self, u: np.ndarray) -> np.ndarray:
        """``potentials_from_uniform`` on a float array it may overwrite: the uniform and Cauchy laws map it in place."""
        if self.density == "uniform":
            u *= self.params["hi"] - self.params["lo"]
            u += self.params["lo"]  # lo + (hi - lo) u
            return u
        if self.density == "cauchy":
            s, t = self.params["scale"], self.params.get("cutoff", 1e6)
            u *= 2.0
            u -= 1.0
            u *= np.arctan(t / s)
            return np.multiply(np.tan(u, out=u), s, out=u)  # s tan((2u - 1) arctan(t / s))
        if self.density == "point":
            return np.full_like(u, self.params["value"])
        edges = np.asarray(self.params["edges"], dtype=float)
        masses = np.asarray(self.params["masses"], dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        cum[-1] = 1.0
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(masses) - 1)
        frac = (u - cum[idx]) / np.maximum(masses[idx], 1e-300)
        return edges[idx] + np.clip(frac, 0.0, 1.0) * np.diff(edges)[idx]

    def to_json(self) -> str:
        doc = {
            "density": self.density,
            "params": self.params,
            "D0": None if np.isinf(self.sup_density) else self.sup_density,
            "D1": self.tail_constant,
            "u_law": self.u_law,
            "u_params": self.u_params,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DisorderSpec":
        doc = json.loads(text)
        return cls(
            density=doc["density"],
            params=dict(doc.get("params", {})),
            u_law=doc.get("u_law", "zero"),
            u_params=dict(doc.get("u_params", {})),
        )


@dataclass(frozen=True)
class DisorderSample:
    """One realization: potentials (N, W) plus intra-column coupling entries.

    ``u_band[n-1, o, x-1]`` holds U_n(x, x + o) for offsets o = 0..d; entries
    with x + o > W are ignored.  For the zero and adjacency laws the band is
    implicit and ``u_band`` is None.
    """

    geometry: StripGeometry
    u_law: str
    potentials: np.ndarray
    u_band: np.ndarray | None = None

    def __post_init__(self):
        self.potentials.setflags(write=False)
        if self.u_band is not None:
            self.u_band.setflags(write=False)

    def potential(self, n: int, w: int) -> float:
        return float(self.potentials[n - 1, w - 1])

    def u_matrix(self, n: int) -> np.ndarray:
        """The symmetric W x W coupling matrix U_n."""
        if not 1 <= n <= self.potentials.shape[0]:
            raise ConfigurationError(f"column {n} outside sampled extent")
        return _couplings((), self.u_law, self.u_band, (n - 1, n), (0, self.geometry.width))[0]


def sample_disorder(
    geometry: StripGeometry, spec: DisorderSpec, seed: int, index: int = 0
) -> DisorderSample:
    """Draw one disorder realization, a pure function of (geometry, spec, seed, index)."""
    pot, u_band = _draw(spec, geometry, _streams(spec, geometry, seed, _DOMAIN_SAMPLE, index), 1)
    return DisorderSample(
        geometry=geometry, u_law=spec.u_law, potentials=pot[0], u_band=None if u_band is None else u_band[0]
    )


def s_matrix(sample: DisorderSample, n: int) -> np.ndarray:
    """Column block S_n = diag(V_n) - U_n."""
    if not 1 <= n <= sample.potentials.shape[0]:
        raise ConfigurationError(f"column {n} outside sampled extent")
    return _column_blocks(sample.potentials, sample.u_law, sample.u_band, 0.0, (n - 1, n))[0]


def boundary(region: Region, subregion: Region, geometry: StripGeometry) -> frozenset:
    """Sites of region \\ subregion that carry a bond into the subregion."""
    if not subregion.issubset(region):
        raise ConfigurationError("subregion must be contained in region")
    inner = set(subregion.sites)
    outer = [s for s in region.sites if s not in inner]
    d = geometry.bandwidth
    out = set()
    for site in outer:
        n, w = site
        # the sites bonded to this one: its horizontal neighbours and the same-column sites within the band
        for cand in [(n - 1, w), (n + 1, w)] + [(n, w2) for w2 in range(w - d, w + d + 1) if w2 != w]:
            if cand in inner:
                out.add(site)
                break
    return frozenset(out)


_BOX_DOUBLES = 1 << 16  # bounding-box doubles per slice when a region fills part of its box


def _diagonal(a: np.ndarray, offset: int = 0) -> np.ndarray:
    """Writable view of diagonal ``offset`` (below the main one if negative) of a C-contiguous square stack."""
    n = a.shape[-1]
    flat = a.reshape(a.shape[:-2] + (n * n,))
    return flat[..., offset : (n - offset) * n : n + 1] if offset >= 0 else flat[..., -offset * n :: n + 1]


def _couplings(lead: tuple, u_law: str, u_band: np.ndarray | None, cols: tuple[int, int], rows: tuple[int, int]) -> np.ndarray:
    """U_k on columns cols[0]+1 .. cols[1], cut to rows rows[0]+1 .. rows[1]: a (*lead, n, w, w) stack.

    The one reader of the band layout: ``u_band`` is (*lead, N, d+1, W) with
    U_k(x, x+o) at ``u_band[..., k-1, o, x-1]``.  The adjacency law couples
    neighbours inside a column by 1, the zero law not at all.
    """
    (c0, c1), (r0, r1) = cols, rows
    w = r1 - r0
    u = np.zeros(lead + (c1 - c0, w, w))
    if u_law == "random_band":
        band = u_band[..., c0:c1, :, r0:r1]
        for o in range(min(band.shape[-2], w)):
            _diagonal(u, o)[...] = band[..., o, : w - o]
            _diagonal(u, -o)[...] = band[..., o, : w - o]
    elif u_law == "adjacency":
        _diagonal(u, 1)[...] = 1.0
        _diagonal(u, -1)[...] = 1.0
    return u


def _column_blocks(
    potentials: np.ndarray,
    u_law: str,
    u_band: np.ndarray | None,
    energy: float,
    cols: tuple[int, int],
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """S_k - E = diag(V_k) - U_k - E on columns cols[0]+1 .. cols[1] and rows rows[0]+1 .. rows[1].

    ``potentials`` is (..., N, W) and ``u_band`` (..., N, d+1, W), as drawn;
    the result is an (..., n, w, w) stack with the same leading axes.  Rows
    default to the full width.  The entries are not checked: each caller
    applies its own finiteness test.
    """
    r0, r1 = (0, potentials.shape[-1]) if rows is None else rows
    if cols[1] > potentials.shape[-2] or r1 > potentials.shape[-1]:
        raise ConfigurationError("sites outside the sampled extent")
    s = _couplings(potentials.shape[:-2], u_law, u_band, cols, (r0, r1))
    np.subtract(0.0, s, out=s)
    diag = potentials[..., cols[0] : cols[1], r0:r1] + _diagonal(s)
    diag -= energy
    _diagonal(s)[...] = diag
    return s


def _draw_entries(draws, m: int, u_law: str, cols: tuple[int, int], rows: tuple[int, int]) -> tuple:
    """The blocks S_k of H on W = 2 rows of m samples, samples last: entries (0, 0), (0, 1), (1, 0), (1, 1).

    ``draws`` yields the (potentials, u_band) pieces of the m samples in order,
    each small enough to copy whole into its slice of the batch, and let go.
    Each entry is (n, m), by the same operations in the same order (the
    diagonal two contiguous, so E comes off in place unbuffered); off the
    diagonal (n, 1) where the coupling law gives every sample the same U.
    """
    (c0, c1), (r0, r1) = cols, rows
    band = u_law == "random_band"
    diag, u, lo = np.empty((2, c1 - c0, m)), np.empty((c1 - c0, 2, 2, m)) if band else None, 0
    for pot, u_band in draws:
        if c1 > pot.shape[-2] or r1 > pot.shape[-1]:
            raise ConfigurationError("sites outside the sampled extent")
        into, lo = slice(lo, lo + len(pot)), lo + len(pot)
        diag[..., into] = pot[:, c0:c1, r0:r1].transpose(2, 1, 0)
        if band:
            u[..., into] = np.moveaxis(_couplings(pot.shape[:1], u_law, u_band, cols, rows), 0, -1)
        del pot, u_band  # before the next piece is drawn
    s = np.subtract(0.0, u, out=u) if band else np.subtract(0.0, _couplings((), u_law, None, cols, rows)[..., None])
    diag += s.transpose(1, 2, 0, 3)[(0, 1), (0, 1)]
    return diag[0], s[:, 0, 1], s[:, 1, 0], diag[1]


def _stack_columns(blocks: np.ndarray) -> np.ndarray:
    """Block tridiagonal H - E of consecutive columns: the blocks S_k - E on the diagonal, -I beside them."""
    *lead, n, w, _ = blocks.shape
    h = np.zeros((*lead, n * w, n * w))
    np.einsum("...kikj->...kij", h.reshape(*lead, n, w, n, w))[...] = blocks
    _diagonal(h, w)[...] = -1.0
    _diagonal(h, -w)[...] = -1.0
    return h


def build_hamiltonians(
    region: Region,
    potentials: np.ndarray,
    u_law: str,
    u_band: np.ndarray | None,
    energy: float,
) -> np.ndarray:
    """Stack (m, s, s) of H_region - E from batched draws, (m, N, W) potentials or one (N, W).

    H is stacked from the column blocks of the region's bounding box.  Any
    other region takes the principal submatrix on its sites, which is the
    Dirichlet restriction.  It is cut from the boxes a slice of samples at a
    time: a slice's boxes hold no more doubles than the output, nor than
    _BOX_DOUBLES, so they stay in cache, and at least one sample.
    """
    if potentials.ndim == 2:
        potentials = potentials[None]
        u_band = None if u_band is None else u_band[None]
    n0, n1, w0, w1 = region.bounds()

    def box(sel: slice) -> np.ndarray:
        u = None if u_band is None else u_band[sel]
        return _stack_columns(_column_blocks(potentials[sel], u_law, u, energy, (n0 - 1, n1), (w0 - 1, w1)))

    if region.is_rectangle:
        return box(slice(None))
    height = w1 - w0 + 1
    idx = np.array([(n - n0) * height + w - w0 for n, w in region.sites])
    m, s, size = len(potentials), region.size, (n1 - n0 + 1) * height
    entries = (idx[:, None] * size + idx).ravel()  # flat positions of H_region in the box
    step = max(1, min(m * s * s, _BOX_DOUBLES) // (size * size))
    h = np.empty((m, s, s))
    for lo in range(0, m, step):
        out = h[lo : lo + step].reshape(-1, s * s)
        # the positions are in range; mode "raise" would buffer the output
        np.take(box(slice(lo, lo + step)).reshape(len(out), -1), entries, axis=1, out=out, mode="clip")
    return h


def assemble_hamiltonian(sample: DisorderSample, region: Region) -> np.ndarray:
    """Dirichlet restriction H_region of a single disorder sample, read-only, rows in ``region.sites`` order.

    The H of a subregion is the principal submatrix of this one on its sites,
    so callers cut sub-regions from one H instead of assembling them again.
    """
    _, n1, _, w1 = region.bounds()
    if n1 > sample.geometry.columns or w1 > sample.geometry.width:
        raise ConfigurationError("region outside the geometry")
    h = build_hamiltonians(region, sample.potentials, sample.u_law, sample.u_band, 0.0)[0]
    h.setflags(write=False)
    return h


def draw_chunk(spec: DisorderSpec, geometry: StripGeometry, first: int, m: int, seed: int, *, streams: list | None = None) -> tuple:
    """Draws of samples first .. first + m - 1 of one block, a pure function of (spec, geometry, seed, first, m).

    Sample i is draw i % _DRAW_BLOCK of the streams of block i // _DRAW_BLOCK;
    ``streams`` are that block's, already at ``first``, continued rather than opened again.
    """
    if first % _DRAW_BLOCK + m > _DRAW_BLOCK:
        raise ConfigurationError("a draw must lie in one block of samples")
    return _draw(spec, geometry, streams or _streams(spec, geometry, seed, _DOMAIN_CHUNK, first), m)


def draw_pieces(spec: DisorderSpec, geometry: StripGeometry, first: int, m: int, seed: int):
    """Yield the draws of samples first .. first + m - 1 in ``draw_chunk`` pieces of at most _PIECE_DOUBLES raw doubles (one sample at least), opening each block's streams once."""
    piece, end = max(1, _PIECE_DOUBLES // sum(_field_doubles(spec, geometry))), first + m
    while first < end:
        stop, streams = min(end, (first // _DRAW_BLOCK + 1) * _DRAW_BLOCK), _streams(spec, geometry, seed, _DOMAIN_CHUNK, first)
        for lo in range(first, stop, piece):
            yield draw_chunk(spec, geometry, lo, min(piece, stop - lo), seed, streams=streams)
        first = stop


def _field_doubles(spec: DisorderSpec, geometry: StripGeometry) -> tuple[int, ...]:
    """Raw doubles per sample of each stream: potentials, then band entries under the random band law."""
    n, w, d = geometry.columns, geometry.width, geometry.bandwidth
    return (n * w, n * (d + 1) * w) if spec.u_law == "random_band" else (n * w,)


def _streams(spec: DisorderSpec, geometry: StripGeometry, seed: int, domain: int, index: int) -> list:
    """The streams (seed, domain, index, field); under _DOMAIN_CHUNK, those of sample ``index``'s block, advanced to it."""
    block, skip = divmod(index, _DRAW_BLOCK) if domain == _DOMAIN_CHUNK else (index, 0)
    streams = [split_stream(seed, domain, block, f) for f in range(len(_field_doubles(spec, geometry)))]
    for rng, size in zip(streams, _field_doubles(spec, geometry)):
        rng.bit_generator.advance(skip * size)  # one 64-bit output per double
    return streams


def _draw(spec: DisorderSpec, geometry: StripGeometry, streams: list, m: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The next m realizations off ``streams``: (m, N, W) potentials and (m, N, d+1, W) band entries."""
    n, w, d = geometry.columns, geometry.width, geometry.bandwidth
    pot = spec._from_uniform(streams[0].random((m, n, w)))
    u_band = None
    if spec.u_law == "random_band":
        c = spec.u_params.get("coupling", 1.0)
        u_band = c * (2.0 * streams[1].random((m, n, d + 1, w)) - 1.0)
    return pot, u_band
