"""Strip lattice, disorder laws, and Dirichlet Hamiltonian assembly.

Sites live on [1, N] x [1, W] (column index first, 1-based).  The operator
couples horizontal neighbours with -1 and sites inside the same column with
the entries of a symmetric band matrix U_n of half-width d, so the column
blocks are S_n = diag(V_n) - U_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "ConfigurationError",
    "StripGeometry",
    "Region",
    "DisorderSpec",
    "DisorderSample",
    "HamiltonianMatrix",
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
_DOMAIN_CHUNK = 1  # draw_chunk, then (chunk index, field)
_DOMAIN_BOOT = 2  # block bootstrap of lyapunov_spectrum
_DOMAIN_VERIFY = 7  # verify suites, then the suite number
_DOMAIN_BOOT_CI = 9  # bootstrap_ci resampling


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

    def contains(self, site: tuple[int, int]) -> bool:
        n, w = site
        return 1 <= n <= self.columns and 1 <= w <= self.width


def _detect_rectangle(sites: tuple[tuple[int, int], ...]) -> bool:
    ns = sorted({s[0] for s in sites})
    ws = sorted({s[1] for s in sites})
    if ns != list(range(ns[0], ns[-1] + 1)) or ws != list(range(ws[0], ws[-1] + 1)):
        return False
    return len(sites) == len(ns) * len(ws)


@dataclass(frozen=True)
class Region:
    """A finite set of strip sites, with a fast path for full rectangles."""

    sites: tuple[tuple[int, int], ...]
    is_rectangle: bool

    def __post_init__(self):
        if not self.sites:
            raise ConfigurationError("region must be nonempty")
        if list(self.sites) != sorted(set(self.sites)):
            raise ConfigurationError("region sites must be sorted and unique")
        for n, w in self.sites:
            if n < 1 or w < 1:
                raise ConfigurationError(f"site {(n, w)} outside the lattice")
        if self.is_rectangle != _detect_rectangle(self.sites):
            raise ConfigurationError("rectangle flag inconsistent with the site set")

    @classmethod
    def rectangle(cls, n0: int, n1: int, w0: int, w1: int) -> "Region":
        if n1 < n0 or w1 < w0:
            raise ConfigurationError("empty rectangle")
        sites = tuple((n, w) for n in range(n0, n1 + 1) for w in range(w0, w1 + 1))
        return cls(sites=tuple(sorted(sites)), is_rectangle=True)

    @classmethod
    def from_sites(cls, sites: Iterable[tuple[int, int]]) -> "Region":
        ordered = tuple(sorted({(int(n), int(w)) for n, w in sites}))
        return cls(sites=ordered, is_rectangle=_detect_rectangle(ordered) if ordered else False)

    @property
    def size(self) -> int:
        return len(self.sites)

    def bounds(self) -> tuple[int, int, int, int]:
        ns = [s[0] for s in self.sites]
        ws = [s[1] for s in self.sites]
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
    if density == "uniform":
        lo, hi = params["lo"], params["hi"]
        if not lo < hi:
            raise ConfigurationError("uniform density needs lo < hi")
    elif density == "cauchy":
        scale = params["scale"]
        cutoff = params.get("cutoff", 1e6)
        if scale <= 0 or cutoff <= 0:
            raise ConfigurationError("cauchy density needs positive scale and cutoff")
    elif density == "point":
        params["value"]
    elif density == "table":
        edges = np.asarray(params["edges"], dtype=float)
        masses = np.asarray(params["masses"], dtype=float)
        if edges.ndim != 1 or len(edges) != len(masses) + 1 or np.any(np.diff(edges) <= 0):
            raise ConfigurationError("table density needs increasing edges, one more than masses")
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
        if self.u_law == "random_band" and self.u_params.get("coupling", 1.0) < 0:
            raise ConfigurationError("random_band coupling must be nonnegative")

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
        if self.density == "uniform":
            lo, hi = self.params["lo"], self.params["hi"]
            return lo + (hi - lo) * u
        if self.density == "cauchy":
            s, t = self.params["scale"], self.params.get("cutoff", 1e6)
            return s * np.tan((2.0 * u - 1.0) * np.arctan(t / s))
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
        w = self.geometry.width
        u = np.zeros((w, w))
        if self.u_law == "adjacency":
            idx = np.arange(w - 1)
            u[idx, idx + 1] = 1.0
            u[idx + 1, idx] = 1.0
        elif self.u_law == "random_band":
            for o in range(self.u_band.shape[1]):
                x = np.arange(w - o)
                u[x, x + o] = self.u_band[n - 1, o, : w - o]
                u[x + o, x] = self.u_band[n - 1, o, : w - o]
        return u


def sample_disorder(
    geometry: StripGeometry, spec: DisorderSpec, seed: int, index: int = 0
) -> DisorderSample:
    """Draw one disorder realization, a pure function of (geometry, spec, seed, index)."""
    pot, u_band = _draw(spec, geometry, seed, (_DOMAIN_SAMPLE, index), 1)
    return DisorderSample(
        geometry=geometry, u_law=spec.u_law, potentials=pot[0], u_band=None if u_band is None else u_band[0]
    )


def s_matrix(sample: DisorderSample, n: int) -> np.ndarray:
    """Column block S_n = diag(V_n) - U_n."""
    if not 1 <= n <= sample.potentials.shape[0]:
        raise ConfigurationError(f"column {n} outside sampled extent")
    return np.diag(sample.potentials[n - 1]) - sample.u_matrix(n)


def _bonded(a: tuple[int, int], b: tuple[int, int], bandwidth: int) -> bool:
    # horizontal hop or same-column coupling within the band
    if a[1] == b[1] and abs(a[0] - b[0]) == 1:
        return True
    return a[0] == b[0] and 0 < abs(a[1] - b[1]) <= bandwidth


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
        for cand in [(n - 1, w), (n + 1, w)] + [(n, w2) for w2 in range(w - d, w + d + 1) if w2 != w]:
            if cand in inner and _bonded(site, cand, d):
                out.add(site)
                break
    return frozenset(out)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense symmetric restriction of the operator to a region (Dirichlet)."""

    matrix: np.ndarray
    sites: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.sites)

    def index(self, site: tuple[int, int]) -> int:
        return self.sites.index(site)


@dataclass(frozen=True)
class AssemblyPlan:
    sites: tuple[tuple[int, int], ...]
    diag_n: np.ndarray
    diag_w: np.ndarray
    hor_i: np.ndarray
    hor_j: np.ndarray
    ver_i: np.ndarray
    ver_j: np.ndarray
    ver_n: np.ndarray
    ver_x: np.ndarray
    ver_off: np.ndarray

    def block(self, start: int, end: int) -> "AssemblyPlan":
        """Plan of the diagonal block H[start:end, start:end] of this plan's matrix.

        It keeps the entries whose row and column both fall in [start, end).
        Bonds run from a site to a later one and are listed by ascending first
        site, so each list is cut by two binary searches and one mask.
        """
        hor = slice(*np.searchsorted(self.hor_i, (start, end)))
        ver = slice(*np.searchsorted(self.ver_i, (start, end)))
        keep_hor = self.hor_j[hor] < end
        keep_ver = self.ver_j[ver] < end
        return AssemblyPlan(
            sites=self.sites[start:end],
            diag_n=self.diag_n[start:end],
            diag_w=self.diag_w[start:end],
            hor_i=self.hor_i[hor][keep_hor] - start,
            hor_j=self.hor_j[hor][keep_hor] - start,
            ver_i=self.ver_i[ver][keep_ver] - start,
            ver_j=self.ver_j[ver][keep_ver] - start,
            ver_n=self.ver_n[ver][keep_ver],
            ver_x=self.ver_x[ver][keep_ver],
            ver_off=self.ver_off[ver][keep_ver],
        )


@lru_cache(maxsize=256)
def assembly_plan(region: Region, geometry: StripGeometry) -> AssemblyPlan:
    """Index arrays for vectorized Hamiltonian assembly over a region."""
    for site in region.sites:
        if not geometry.contains(site):
            raise ConfigurationError(f"site {site} outside geometry")
    sites = region.sites
    index = {s: i for i, s in enumerate(sites)}
    hor, ver = [], []
    for (n, w), i in index.items():
        j = index.get((n + 1, w))
        if j is not None:
            hor.append((i, j))
        for o in range(1, geometry.bandwidth + 1):
            j = index.get((n, w + o))
            if j is not None:
                ver.append((i, j, n, w, o))
    hor_arr = np.array(hor, dtype=np.intp).reshape(-1, 2)
    ver_arr = np.array(ver, dtype=np.intp).reshape(-1, 5)
    return AssemblyPlan(
        sites=sites,
        diag_n=np.array([s[0] - 1 for s in sites], dtype=np.intp),
        diag_w=np.array([s[1] - 1 for s in sites], dtype=np.intp),
        hor_i=hor_arr[:, 0],
        hor_j=hor_arr[:, 1],
        ver_i=ver_arr[:, 0],
        ver_j=ver_arr[:, 1],
        ver_n=ver_arr[:, 2] - 1,
        ver_x=ver_arr[:, 3] - 1,
        ver_off=ver_arr[:, 4],
    )


def _vertical_values(plan: AssemblyPlan, u_law: str, u_band: np.ndarray | None) -> np.ndarray | None:
    """Coupling values -U_n(x, x+o) for every vertical bond, batched over samples."""
    if len(plan.ver_i) == 0:
        return None
    if u_law == "zero":
        return None
    if u_law == "adjacency":
        return np.where(plan.ver_off == 1, -1.0, 0.0)[None, :]
    return -u_band[:, plan.ver_n, plan.ver_off, plan.ver_x]


def _diag_u_values(plan: AssemblyPlan, u_law: str, u_band: np.ndarray | None):
    if u_law == "random_band":
        return u_band[:, plan.diag_n, 0, plan.diag_w]
    return 0.0


def build_hamiltonians(
    plan: AssemblyPlan,
    potentials: np.ndarray,
    u_law: str,
    u_band: np.ndarray | None,
) -> np.ndarray:
    """Assemble a stack of Hamiltonians (m, s, s) from batched disorder arrays."""
    if potentials.ndim == 2:
        potentials = potentials[None]
        if u_band is not None:
            u_band = u_band[None]
    m, s = potentials.shape[0], len(plan.sites)
    h = np.zeros((m, s, s))
    diag_idx = np.arange(s)
    h[:, diag_idx, diag_idx] = potentials[:, plan.diag_n, plan.diag_w] - _diag_u_values(plan, u_law, u_band)
    if len(plan.hor_i):
        h[:, plan.hor_i, plan.hor_j] = -1.0
        h[:, plan.hor_j, plan.hor_i] = -1.0
    vv = _vertical_values(plan, u_law, u_band)
    if vv is not None:
        h[:, plan.ver_i, plan.ver_j] = vv
        h[:, plan.ver_j, plan.ver_i] = vv
    return h


def assemble_hamiltonian(sample: DisorderSample, region: Region) -> HamiltonianMatrix:
    """Dirichlet restriction H_region for a single disorder sample."""
    n_max = max(s[0] for s in region.sites)
    if n_max > sample.potentials.shape[0]:
        raise ConfigurationError("region exceeds the sampled extent")
    plan = assembly_plan(region, sample.geometry)
    h = build_hamiltonians(plan, sample.potentials, sample.u_law, sample.u_band)[0]
    return HamiltonianMatrix(matrix=h, sites=plan.sites)


def draw_chunk(
    spec: DisorderSpec, geometry: StripGeometry, chunk_idx: int, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched draw of m realizations; depends only on (spec, geometry, seed, chunk_idx)."""
    return _draw(spec, geometry, seed, (_DOMAIN_CHUNK, chunk_idx), m)


def _draw(
    spec: DisorderSpec, geometry: StripGeometry, seed: int, path: tuple[int, int], m: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """(m, N, W) potentials and (m, N, d+1, W) band entries from the streams (seed, *path, field)."""
    n, w, d = geometry.columns, geometry.width, geometry.bandwidth
    pot = spec.potentials_from_uniform(split_stream(seed, *path, 0).random((m, n, w)))
    u_band = None
    if spec.u_law == "random_band":
        c = spec.u_params.get("coupling", 1.0)
        u_band = c * (2.0 * split_stream(seed, *path, 1).random((m, n, d + 1, w)) - 1.0)
    return pot, u_band
