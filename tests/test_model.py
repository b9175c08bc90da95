import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplyap.model import (
    _DOMAIN_CHUNK,
    ConfigurationError,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    boundary,
    draw_chunk,
    draw_pieces,
    s_matrix,
    sample_disorder,
    split_stream,
)


def test_geometry_validation():
    StripGeometry(3, 2, 5)
    with pytest.raises(ConfigurationError):
        StripGeometry(0, 1, 5)
    with pytest.raises(ConfigurationError):
        StripGeometry(3, 4, 5)
    with pytest.raises(ConfigurationError):
        StripGeometry(3, 0, 5)
    with pytest.raises(ConfigurationError):
        StripGeometry(3, 1, 0)


def test_region_rectangle_flag():
    r = Region.rectangle(1, 3, 1, 2)
    assert r.is_rectangle and r.size == 6
    holey = Region.from_sites([(1, 1), (1, 2), (2, 2)])
    assert not holey.is_rectangle
    with pytest.raises(ConfigurationError):
        Region.from_sites([])


def test_point_mass_sample_is_degenerate():
    geo = StripGeometry(1, 1, 3)
    spec = DisorderSpec.point(0.0)
    s = sample_disorder(geo, spec, seed=7)
    assert np.all(s.potentials == 0.0)
    assert np.all(s.u_matrix(1) == 0.0)


def test_sampling_determinism():
    geo = StripGeometry(3, 2, 5)
    spec = DisorderSpec.uniform(-1, 1, u_law="random_band", coupling=0.5)
    a = sample_disorder(geo, spec, seed=123)
    b = sample_disorder(geo, spec, seed=123)
    assert np.array_equal(a.potentials, b.potentials)
    assert np.array_equal(a.u_band, b.u_band)


@pytest.mark.parametrize("spec", [DisorderSpec.uniform(-1.5, 2.5), DisorderSpec.cauchy(0.7, cutoff=1e6)])
def test_chunk_draws_are_the_public_inverse_cdf(spec):
    # the chunk draw maps its own uniform array in place; the public map copies.
    # Sample 3 * 4096 + 5 is draw 5 of block 3's stream, 10 doubles per sample
    u = split_stream(9, _DOMAIN_CHUNK, 3, 0).random((12, 5, 2))[5:]
    kept = u.copy()
    pot = spec.potentials_from_uniform(u)
    assert np.array_equal(u, kept)
    assert np.array_equal(pot, draw_chunk(spec, StripGeometry(2, 1, 5), 3 * 4096 + 5, 7, 9)[0])
    if spec.density == "uniform":
        assert np.array_equal(pot, -1.5 + (2.5 - -1.5) * u)
    else:
        assert np.array_equal(pot, 0.7 * np.tan((2.0 * u - 1.0) * np.arctan(1e6 / 0.7)))


DRAW_LAWS = [
    DisorderSpec.uniform(-1.5, 2.5, u_law="adjacency"),
    DisorderSpec.cauchy(0.7, cutoff=1e6),
    DisorderSpec("table", {"edges": [-1.0, 0.0, 2.0], "masses": [0.25, 0.75]}),
    DisorderSpec.uniform(-1.0, 1.0, u_law="random_band", coupling=0.5),
]


@pytest.mark.parametrize("spec", DRAW_LAWS, ids=["uniform", "cauchy", "table", "random band"])
def test_draws_at_an_offset_are_the_slice_of_the_block(spec):
    # sample i depends on (seed, i) alone: any run of a block, drawn alone or in pieces, is its slice of the whole block
    geo = StripGeometry(3, 2, 7)
    blocks = [draw_chunk(spec, geo, first, 4096, seed=4) for first in (0, 4096)]
    for first, (pot, u_band) in zip((0, 4096), blocks):
        for lo, m in ((0, 1), (1, 5), (333, 700), (4095, 1)):
            part, band = draw_chunk(spec, geo, first + lo, m, seed=4)
            assert np.array_equal(part, pot[lo : lo + m])
            assert band is None if u_band is None else np.array_equal(band, u_band[lo : lo + m])
    # 21 or 84 raw doubles per sample: pieces of 780 or 195 samples, which continue their block's streams
    pieces = list(draw_pieces(spec, geo, 3000, 2000, seed=4))
    assert len(pieces) >= 4 and sum(len(p) for p, _ in pieces) == 2000
    for field in (0, 1) if spec.u_law == "random_band" else (0,):
        ref = np.concatenate([blocks[0][field][3000:], blocks[1][field][:904]])
        assert np.array_equal(np.concatenate([piece[field] for piece in pieces]), ref)


def test_draws_keep_to_one_block():
    with pytest.raises(ConfigurationError, match="one block"):
        draw_chunk(DisorderSpec.uniform(-1.0, 1.0), StripGeometry(2, 1, 3), 4000, 97, seed=1)


def test_neighbouring_seeds_differ():
    # oracle: count collisions over 100 seed pairs
    geo = StripGeometry(2, 1, 4)
    spec = DisorderSpec.uniform(-1, 1)
    collisions = 0
    for s in range(100):
        a = sample_disorder(geo, spec, seed=s)
        b = sample_disorder(geo, spec, seed=s + 1)
        if np.array_equal(a.potentials, b.potentials):
            collisions += 1
    assert collisions == 0


def test_s_matrix_examples():
    geo = StripGeometry(2, 1, 1)
    zero = DisorderSpec.point(0.0)
    s = sample_disorder(geo, zero, seed=1)
    assert np.array_equal(s_matrix(s, 1), np.zeros((2, 2)))
    # V = (a, b) with adjacency coupling gives [[a, -1], [-1, b]]
    from striplyap.model import DisorderSample

    samp = DisorderSample(geometry=geo, u_law="adjacency", potentials=np.array([[2.0, 3.0]]))
    assert np.array_equal(s_matrix(samp, 1), np.array([[2.0, -1.0], [-1.0, 3.0]]))
    with pytest.raises(ConfigurationError):
        s_matrix(samp, 2)


def test_s_matrix_matches_raw_fields():
    geo = StripGeometry(4, 2, 3)
    spec = DisorderSpec.uniform(-1, 1, u_law="random_band", coupling=0.7)
    s = sample_disorder(geo, spec, seed=5)
    for n in (1, 2, 3):
        expected = np.diag(s.potentials[n - 1]) - s.u_matrix(n)
        assert np.array_equal(s_matrix(s, n), expected)


def test_assemble_single_site_and_chain():
    geo = StripGeometry(1, 1, 2)
    from striplyap.model import DisorderSample

    samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[1.5], [0.0]]))
    single = assemble_hamiltonian(samp, Region.rectangle(1, 1, 1, 1))
    assert single.shape == (1, 1) and single[0, 0] == 1.5
    chain = assemble_hamiltonian(samp, Region.rectangle(1, 2, 1, 1))
    assert np.array_equal(chain, np.array([[1.5, -1.0], [-1.0, 0.0]]))


def test_assemble_laplacian_eigenvalues():
    # oracle: closed-form eigenvalues -2cos(pi j/(N+1)) - 2cos(pi k/(W+1))
    n_cols, width = 5, 3
    geo = StripGeometry(width, 1, n_cols)
    spec = DisorderSpec.point(0.0, u_law="adjacency")
    s = sample_disorder(geo, spec, seed=0)
    h = assemble_hamiltonian(s, Region.rectangle(1, n_cols, 1, width))
    eigs = np.linalg.eigvalsh(h)
    expected = np.sort(
        [
            -2 * np.cos(np.pi * j / (n_cols + 1)) - 2 * np.cos(np.pi * k / (width + 1))
            for j in range(1, n_cols + 1)
            for k in range(1, width + 1)
        ]
    )
    assert np.allclose(eigs, expected, atol=1e-10)


def test_assembly_exactly_symmetric():
    geo = StripGeometry(4, 3, 6)
    spec = DisorderSpec.cauchy(1.0, u_law="random_band", coupling=1.0)
    s = sample_disorder(geo, spec, seed=3)
    h = assemble_hamiltonian(s, Region.rectangle(1, 6, 1, 4))
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("n_steps", [50, 33, 2, 1])
def test_sample_band_is_the_dense_band(n_steps):
    # route (a) writes the band storage from the column blocks; one column keeps its coupling bandwidth
    from striplyap.determinants import _block_band, _matrix_band
    from striplyap.model import _column_blocks

    geo = StripGeometry(4, 3, 50)
    s = sample_disorder(geo, DisorderSpec.uniform(-1, 1, u_law="random_band"), seed=8)
    h = assemble_hamiltonian(s, Region.rectangle(1, n_steps, 1, 4))
    band = _block_band(_column_blocks(s.potentials, s.u_law, s.u_band, 0.0, (0, n_steps)))
    assert band.shape == (3 * (4 if n_steps > 1 else 3) + 1, 4 * n_steps) and band.flags.f_contiguous
    assert np.array_equal(band, _matrix_band(h))


def test_holey_region_is_the_principal_submatrix():
    geo = StripGeometry(4, 3, 50)
    s = sample_disorder(geo, DisorderSpec.uniform(-1, 1, u_law="random_band"), seed=8)
    rectangle = Region.rectangle(1, 50, 1, 4)
    holey = Region.from_sites([(n, w) for n in range(1, 51) for w in range(1, 5) if (n * w) % 9])
    keep = [i for i, site in enumerate(rectangle.sites) if site in set(holey.sites)]
    h = assemble_hamiltonian(s, rectangle)
    assert holey.size == 169 and np.array_equal(assemble_hamiltonian(s, holey), h[np.ix_(keep, keep)])


def _entrywise_hamiltonian(sample, region):
    """H_region from the raw draws and the bond rule, one entry at a time."""
    d, band = sample.geometry.bandwidth, sample.u_band
    h = np.zeros((region.size, region.size))
    for i, (n, w) in enumerate(region.sites):
        for j, (n2, w2) in enumerate(region.sites):
            if (n, w) == (n2, w2):
                h[i, j] = sample.potentials[n - 1, w - 1] - (band[n - 1, 0, w - 1] if band is not None else 0.0)
            elif w == w2 and abs(n - n2) == 1:
                h[i, j] = -1.0
            elif n == n2 and 0 < abs(w - w2) <= d:
                if sample.u_law == "adjacency":
                    h[i, j] = -1.0 if abs(w - w2) == 1 else 0.0
                elif sample.u_law == "random_band":
                    h[i, j] = -band[n - 1, abs(w - w2), min(w, w2) - 1]
    return h


@pytest.mark.parametrize("u_law", ["zero", "adjacency", "random_band"])
@pytest.mark.parametrize("bandwidth", [1, 2, 3])
def test_assembly_matches_the_entrywise_oracle(u_law, bandwidth):
    geo = StripGeometry(4, bandwidth, 7)
    s = sample_disorder(geo, DisorderSpec.uniform(-1, 1, u_law=u_law, coupling=0.6), seed=10 + bandwidth)
    regions = [
        Region.rectangle(2, 6, 2, 4),
        Region.rectangle(1, 7, 1, 4).without_site((4, 2)),
        Region.from_sites([(n, w) for n in range(1, 8) for w in range(1, 5) if (n * w) % 5]),
    ]
    for region in regions:
        assert np.array_equal(assemble_hamiltonian(s, region), _entrywise_hamiltonian(s, region))


def test_assemble_rejects_out_of_extent():
    geo = StripGeometry(2, 1, 3)
    s = sample_disorder(geo, DisorderSpec.point(0.0), seed=1)
    with pytest.raises(ConfigurationError):
        assemble_hamiltonian(s, Region.rectangle(1, 4, 1, 2))


def test_boundary_examples():
    geo = StripGeometry(2, 1, 4)
    region = Region.rectangle(1, 4, 1, 2)
    sub = Region.rectangle(1, 2, 1, 2)
    assert boundary(region, sub, geo) == {(3, 1), (3, 2)}
    assert boundary(region, region, geo) == frozenset()
    # single interior site: the four bond neighbours
    geo3 = StripGeometry(3, 1, 5)
    reg3 = Region.rectangle(1, 5, 1, 3)
    site = Region.from_sites([(3, 2)])
    assert boundary(reg3, site, geo3) == {(2, 2), (4, 2), (3, 1), (3, 3)}


def test_boundary_requires_containment():
    geo = StripGeometry(2, 1, 4)
    region = Region.rectangle(1, 2, 1, 2)
    outside = Region.from_sites([(4, 1)])
    with pytest.raises(ConfigurationError):
        boundary(region, outside, geo)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_boundary_is_outside_subregion(n_cols, width, seed):
    geo = StripGeometry(width, 1, n_cols)
    region = Region.rectangle(1, n_cols, 1, width)
    rng = np.random.default_rng(seed)
    pick = [s for s in region.sites if rng.random() < 0.5]
    if not pick:
        pick = [region.sites[0]]
    sub = Region.from_sites(pick)
    bnd = boundary(region, sub, geo)
    assert bnd <= set(region.sites) - set(sub.sites)


def test_cauchy_tail_bound():
    # ensemble check of P(|V| >= T) <= D1/T at T = 1, 2, 4, ..., 64
    spec = DisorderSpec.cauchy(1.0)
    geo = StripGeometry(1, 1, 1)
    draws = np.concatenate(
        [sample_disorder(StripGeometry(1, 1, 100_000), spec, seed=11).potentials.ravel()]
    )
    n = len(draws)
    d1 = spec.tail_constant
    for t in [1, 2, 4, 8, 16, 32, 64]:
        frac = np.mean(np.abs(draws) >= t)
        bound = d1 / t
        sigma = np.sqrt(bound * (1 - bound) / n)
        assert frac <= bound + 3 * sigma


def test_uniform_d0_d1():
    spec = DisorderSpec.uniform(-2.0, 2.0)
    assert spec.sup_density == pytest.approx(0.25)
    assert spec.tail_constant >= 2.0
    point = DisorderSpec.point(3.0)
    assert np.isinf(point.sup_density)


def test_table_density_sampling():
    spec = DisorderSpec(
        "table", {"edges": [-1.0, 0.0, 2.0], "masses": [0.25, 0.75]}, u_law="zero"
    )
    assert spec.sup_density == pytest.approx(0.375)
    s = sample_disorder(StripGeometry(1, 1, 50_000), spec, seed=2)
    vals = s.potentials.ravel()
    assert np.all((vals >= -1.0) & (vals <= 2.0))
    assert np.mean(vals < 0.0) == pytest.approx(0.25, abs=0.01)


def test_spec_json_roundtrip():
    spec = DisorderSpec.cauchy(0.5, cutoff=100.0, u_law="random_band", coupling=0.3)
    doc = spec.to_json()
    back = DisorderSpec.from_json(doc)
    assert back == spec
    parsed = json.loads(doc)
    assert set(parsed) >= {"density", "params", "D0", "D1", "u_law"}


def test_unsupported_density_rejected():
    with pytest.raises(ConfigurationError):
        DisorderSpec("gaussian", {"sigma": 1.0})
    with pytest.raises(ConfigurationError):
        DisorderSpec.uniform(1.0, -1.0)


@pytest.mark.parametrize(
    "density, params, u_params",
    [
        ("uniform", {"lo": -1.0, "hi": np.inf}, {}),
        ("cauchy", {"scale": np.inf, "cutoff": 1e6}, {}),
        ("cauchy", {"scale": np.nan, "cutoff": 1e6}, {}),
        ("cauchy", {"scale": 1.0, "cutoff": np.nan}, {}),
        ("point", {"value": -np.inf}, {}),
        ("table", {"edges": [-np.inf, 0.0, 2.0], "masses": [0.25, 0.75]}, {}),
        ("table", {"edges": [-1.0, np.nan, 2.0], "masses": [0.25, 0.75]}, {}),
        ("table", {"edges": [-1.0, 0.0, 2.0], "masses": [np.nan, 0.75]}, {}),
        ("uniform", {"lo": -1.0, "hi": 1.0}, {"coupling": np.inf}),
    ],
)
def test_non_finite_parameters_rejected(density, params, u_params):
    with pytest.raises(ConfigurationError, match="finite|sum to 1"):
        DisorderSpec(density, params, "random_band", u_params)


def test_infinite_cauchy_cutoff_is_the_untruncated_law():
    spec = DisorderSpec.cauchy(2.0, cutoff=np.inf)
    assert spec.sup_density == pytest.approx(1.0 / (np.pi * 2.0))
    assert np.all(np.isfinite(sample_disorder(StripGeometry(1, 1, 1000), spec, seed=4).potentials))


def test_diagonal_includes_coupling_diagonal():
    # diagonal entries are V_k minus the diagonal of the coupling matrix
    geo = StripGeometry(3, 2, 2)
    spec = DisorderSpec.uniform(-1, 1, u_law="random_band", coupling=0.9)
    s = sample_disorder(geo, spec, seed=31)
    region = Region.rectangle(1, 2, 1, 3)
    h = assemble_hamiltonian(s, region)
    for i, (n, w) in enumerate(region.sites):
        expected = s.potential(n, w) - s.u_matrix(n)[w - 1, w - 1]
        assert h[i, i] == expected


def test_potential_truncation_monotonicity():
    # dropping far atoms moves the potential by at most their mass times the
    # largest log distance among them
    from striplyap.logpotential import EmpiricalMeasure, log_potential, split_measure

    rng = np.random.default_rng(8)
    atoms = np.concatenate([rng.uniform(-1, 1, 50), rng.uniform(40, 60, 5)])
    mu = EmpiricalMeasure(atoms=atoms)
    inner, outer = split_measure(mu, 10.0)
    for x in (2.0, 5.0, -3.0):
        full = log_potential(mu, x)
        trimmed = log_potential(inner, x)
        cap = mu.tail_mass(10.0) * np.max(np.abs(np.log(np.abs(x - outer.atoms))))
        assert abs(full - trimmed) <= cap + 1e-12
