import tracemalloc

import numpy as np
import pytest

import striplyap.model as model
import striplyap.sampling as sampling
from striplyap import determinants
from striplyap.determinants import SignedLogDet, _closed_form_sweep, _lapack_sweep, _schur_sweep, logdet_direct, logdet_via_schur
from striplyap.model import ConfigurationError, DisorderSpec, Region, StripGeometry, _column_blocks, _draw_entries, _stack_columns, assemble_hamiltonian, build_hamiltonians, draw_chunk, sample_disorder
from striplyap.sampling import _map_chunks, sample_logdets, sample_resolvent_entries, sample_site_shifts, sample_spectral
from striplyap.transfer import NumericError

UNIFORM = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
RESONANT = DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency")
CAUCHY = DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency")
BAND = DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0)
LAWS = (UNIFORM, DisorderSpec.uniform(-1.5, 1.5), BAND)


def _dense_logdets(spec, geometry, region, energy, n, seed):
    """Dense slogdet of H_region - E on the same draws as sample_logdets."""

    def batch(h):
        sign, log_abs = np.linalg.slogdet(h)
        return (np.where(sign == 0.0, -np.inf, log_abs),)

    return _map_chunks(batch, spec, geometry, region, energy, n, seed, 1)[0]


KERNEL_CASES = [
    ("resonant 17x2", RESONANT, StripGeometry(2, 1, 17), Region.rectangle(1, 17, 1, 2), 0.0),
    ("cauchy 30x2", CAUCHY, StripGeometry(2, 1, 30), Region.rectangle(1, 30, 1, 2), 0.5),
    ("band d=2 20x4", BAND, StripGeometry(4, 2, 20), Region.rectangle(1, 20, 1, 4), 0.3),
    *[
        (f"W={w}", LAWS[w % 3], StripGeometry(w, 1, 12), Region.rectangle(1, 12, 1, w), 0.2)
        for w in range(1, 7)
    ],
    ("adjacency (5..30)x(2..4) of 40x4", UNIFORM, StripGeometry(4, 1, 40), Region.rectangle(5, 30, 2, 4), 0.1),
    ("band (5..30)x(2..4) of 40x4", BAND, StripGeometry(4, 2, 40), Region.rectangle(5, 30, 2, 4), 0.1),
]


@pytest.mark.parametrize("name, spec, geometry, region, energy", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_rectangle_kernel_matches_dense_slogdet(name, spec, geometry, region, energy):
    got, n_singular = sample_logdets(spec, geometry, region, energy, 1500, seed=41)
    ref = _dense_logdets(spec, geometry, region, energy, 1500, seed=41)
    assert n_singular == 0 and np.all(np.isfinite(ref))
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-9


def test_point_mass_stays_singular_and_counted():
    geo = StripGeometry(1, 1, 9)
    region = Region.rectangle(1, 9, 1, 1)
    got, n_singular = sample_logdets(DisorderSpec.point(0.0), geo, region, 0.0, 200, seed=3)
    ref = _dense_logdets(DisorderSpec.point(0.0), geo, region, 0.0, 200, seed=3)
    assert np.array_equal(got, ref) and np.all(np.isneginf(got))
    assert n_singular == 200


def _masked_blocks(w):
    rng = np.random.default_rng(5)
    blocks = rng.uniform(-2.0, 2.0, (5, 7, w, w))
    blocks = blocks + np.swapaxes(blocks, -1, -2)
    # sample 1: B_1 = I, so B_2 = I - I^-1 is an exact zero block mid-sweep
    blocks[1, 0] = blocks[1, 1] = np.eye(w)
    # sample 3: B_1 = I and B_2 = diag(1e17, 1, ..), of condition 1e17, inverted at step 3
    blocks[3, 0] = np.eye(w)
    blocks[3, 1] = np.diag([1e17] + [2.0] * (w - 1))
    return blocks


def _check_masks_and_spares(blocks):
    sign, log_abs, bad = _schur_sweep(blocks)
    assert bad.tolist() == [False, True, False, True, False]
    assert np.all(sign[bad] == 0.0) and np.all(np.isnan(log_abs[bad]))
    _assert_rows_are_stacks_of_one(blocks)  # bad samples included
    for i in np.flatnonzero(~bad):
        assert log_abs[i] == pytest.approx(np.linalg.slogdet(_block_tridiagonal(blocks[i]))[1], rel=1e-12)


def test_schur_sweep_masks_bad_samples_and_spares_the_rest():
    _check_masks_and_spares(_masked_blocks(2))


def test_schur_sweep_masks_bad_samples_at_width_3():
    # W = 3 runs the LAPACK loop, which the 2 x 2 case above no longer reaches
    _check_masks_and_spares(_masked_blocks(3))


ADVERSARIAL = [
    *[
        (f"point {v:g} E={e:g} {n}x2", DisorderSpec.point(v, u_law="adjacency"), n, e, 64)
        for n in (17, 301)
        for v, e in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    ],
    ("resonant E=0 17x2", RESONANT, 17, 0.0, 4096),
    ("cauchy E=0.5 32x2", CAUCHY, 32, 0.5, 4096),
]


def _strip_blocks(spec, columns, energy, m, seed=23):
    pot, u_band = draw_chunk(spec, StripGeometry(2, 1, columns), 0, m, seed)
    return _column_blocks(pot, spec.u_law, u_band, energy, (0, columns))


@pytest.mark.parametrize("name, spec, columns, energy, m", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
def test_closed_form_sweep_matches_lapack_loop(name, spec, columns, energy, m):
    blocks = _strip_blocks(spec, columns, energy, m)
    sign, log_abs, bad = _schur_sweep(blocks)
    ref_sign, ref_log, ref_bad = _lapack_sweep(blocks)
    assert np.array_equal(bad, ref_bad)
    good = ~bad
    assert np.array_equal(sign[good], ref_sign[good])
    assert np.all(np.abs(log_abs[good] - ref_log[good]) <= 1e-9 * np.maximum(1.0, np.abs(ref_log[good])))


@pytest.mark.parametrize("spec, columns, energy", [(RESONANT, 17, 0.0), (CAUCHY, 32, 0.5)], ids=["resonant", "cauchy"])
def test_closed_form_sweep_is_independent_of_batch_composition(spec, columns, energy):
    blocks = _strip_blocks(spec, columns, energy, 3000)
    long, short = _schur_sweep(blocks), _schur_sweep(blocks[:1000])
    assert all(np.array_equal(x[:1000], y, equal_nan=True) for x, y in zip(long, short))


def _assert_rows_are_stacks_of_one(blocks):
    """Each sample alone (the per-column loop) against its row of the stacked kernel, bit for bit."""
    stacked = _schur_sweep(blocks)
    for i in range(len(blocks)):
        alone = _schur_sweep(blocks[i : i + 1])
        for x, y in zip(alone, stacked):
            assert x.dtype == y.dtype and np.array_equal(x, y[i : i + 1], equal_nan=True)
    return stacked[2]


@pytest.mark.parametrize("name, spec, columns, energy, m", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
def test_one_sample_loop_matches_stacked_sweep_on_adversarial_strips(name, spec, columns, energy, m):
    _assert_rows_are_stacks_of_one(_strip_blocks(spec, columns, energy, m))


WIDE_STRIPS = [
    (f"{law} W={w}", spec, w, d)
    for w in (1, 3, 4, 6)
    for law, spec, d in (("band", BAND, min(2, w)), ("point 0", DisorderSpec.point(0.0, u_law="adjacency"), 1))
]


@pytest.mark.parametrize("name, spec, width, bandwidth", WIDE_STRIPS, ids=[c[0] for c in WIDE_STRIPS])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_one_sample_loop_matches_stacked_sweep_at_other_widths(name, spec, width, bandwidth, energy):
    pot, u_band = draw_chunk(spec, StripGeometry(width, bandwidth, 24), 0, 40, seed=29)
    bad = _assert_rows_are_stacks_of_one(_column_blocks(pot, spec.u_law, u_band, energy, (0, 24)))
    if spec.density == "point" and energy == 0.0:
        assert bad.all()  # the clean strip is singular at E = 0 at every width here


def test_one_sample_loop_crosses_its_column_windows():
    blocks = _strip_blocks(CAUCHY, 2 * determinants._SWEEP_COLUMNS + 5, 0.5, 2)
    assert not _assert_rows_are_stacks_of_one(blocks).any()


@pytest.mark.parametrize(
    "spec, width, bandwidth, columns", [(CAUCHY, 2, 1, 2000), (BAND, 4, 2, 500)], ids=["cauchy 2000x2", "band 500x4"]
)
def test_logdet_via_schur_is_the_stacked_sweep_on_the_routes_strips(spec, width, bandwidth, columns):
    sample = sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=1)
    blocks = _column_blocks(sample.potentials, sample.u_law, sample.u_band, 0.5, (0, columns))
    sign, log_abs, bad = _schur_sweep(np.stack([blocks, blocks]))
    assert not bad[0]
    assert logdet_via_schur(sample, 0.5) == SignedLogDet(int(sign[0]), float(log_abs[0]))


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_one_sample_sweep_rejects_non_finite_blocks(w, value):
    blocks = _masked_blocks(w)[:1].copy()
    blocks[0, 4, 0, 0] = value
    with pytest.raises(NumericError, match="non-finite"):
        _schur_sweep(blocks)


def _assert_samples_last_is_the_stack(pot, u_law, u_band, energy, cols, rows):
    """The sweep on entries built from the draws against ``_schur_sweep`` on the (m, n, 2, 2) stack, bit for bit."""
    got = _closed_form_sweep(*_draw_entries([(pot, u_band)], len(pot), u_law, energy, cols, rows))
    ref = _schur_sweep(_column_blocks(pot, u_law, u_band, energy, cols, rows))
    for x, y in zip(got, ref):
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
    return got[2]


@pytest.mark.parametrize("name, spec, columns, energy, m", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
def test_samples_last_sweep_is_the_stacked_sweep_on_adversarial_strips(name, spec, columns, energy, m):
    pot, u_band = draw_chunk(spec, StripGeometry(2, 1, columns), 0, m, seed=23)
    bad = _assert_samples_last_is_the_stack(pot, spec.u_law, u_band, energy, (0, columns), (0, 2))
    assert bad.all() if spec.density == "point" else not bad.any()  # every clean strip here is Schur-bad


SUB_RECTANGLES = [
    # (name, spec, geometry, columns, rows): ldt's 16 x 2 inside its 32 columns, rows 2-3 of W = 4 strips
    ("uniform 16x2 of 32x2", DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency"), StripGeometry(2, 1, 32), (0, 16), (0, 2)),
    *[(f"{law} rows 2-3 of 24x4", spec, StripGeometry(4, d, 24), (3, 20), (1, 3)) for law, spec, d in (("band", BAND, 2), ("adjacency", UNIFORM, 1), ("zero", LAWS[1], 1))],
    ("band d=1 24x2", DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=0.7), StripGeometry(2, 1, 24), (0, 24), (0, 2)),
]


@pytest.mark.parametrize("name, spec, geometry, cols, rows", SUB_RECTANGLES, ids=[c[0] for c in SUB_RECTANGLES])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_samples_last_sweep_is_the_stacked_sweep_on_sub_rectangles(name, spec, geometry, cols, rows, energy):
    pot, u_band = draw_chunk(spec, geometry, 0, 700, seed=31)
    _assert_samples_last_is_the_stack(pot, spec.u_law, u_band, energy, cols, rows)


def _masked_draws():
    """Zero-coupling potentials whose column blocks are ``_masked_blocks(2)``'s bad cases: samples 1 and 3 go bad."""
    pot = np.random.default_rng(5).uniform(-2.0, 2.0, (5, 7, 2))
    pot[1, :2] = pot[3, 0] = 1.0  # sample 1: B_2 = I - I^-1 = 0; sample 3: B_2 of condition 1e17, inverted at step 3
    pot[3, 1] = (1e17, 2.0)
    return pot


def test_samples_last_sweep_masks_bad_samples_and_the_sampler_recomputes_them(monkeypatch):
    pot = _masked_draws()
    bad = _assert_samples_last_is_the_stack(pot, "zero", None, 0.0, (0, 7), (0, 2))
    assert bad.tolist() == [False, True, False, True, False]
    monkeypatch.setattr(sampling, "draw_pieces", lambda spec, geometry, first, m, seed: [(pot[first : first + m].copy(), None)])
    got, n_singular = sample_logdets(LAWS[1], StripGeometry(2, 1, 7), Region.rectangle(1, 7, 1, 2), 0.0, 5, seed=1)
    h = _stack_columns(_column_blocks(pot, "zero", None, 0.0, (0, 7)))
    routed = [logdet_direct(h[i], 0.0) for i in range(5)]
    sign, ref = np.linalg.slogdet(h)
    # a bad sample is route (a) on its dense rectangle, bit for bit; sample 3's 1e17 entry sinks the other pivots under its floor
    assert [got[i] for i in np.flatnonzero(bad)] == [routed[i].log_abs for i in np.flatnonzero(bad)]
    assert n_singular == [r.sign for r in routed].count(0) == 1 and np.isneginf(got[3])
    # where route (a) finds H - E nonsingular it is slogdet to roundoff, with slogdet's sign
    assert routed[1].sign == sign[1] and got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    assert np.array_equal(got[~bad], _schur_sweep(_column_blocks(pot, "zero", None, 0.0, (0, 7)))[1][~bad])


def _block_draws(spec, geometry, n_samples, seed):
    """Samples 0 .. n_samples - 1 as whole-block ``draw_chunk`` calls, joined: the reference the samplers' pieces must reproduce."""
    block = model._DRAW_BLOCK
    draws = [draw_chunk(spec, geometry, lo, min(block, n_samples - lo), seed) for lo in range(0, n_samples, block)]
    return np.concatenate([p for p, _ in draws]), None if draws[0][1] is None else np.concatenate([u for _, u in draws])


STREAMED = [
    # (name, spec, geometry, region): rectangles of more than 45 sites, which a layout sized by the region would draw differently
    ("adjacency 40x2", UNIFORM, StripGeometry(2, 1, 40), Region.rectangle(1, 40, 1, 2)),
    ("band 23x2", BAND, StripGeometry(2, 1, 23), Region.rectangle(1, 23, 1, 2)),
    ("zero rows 3-4 of 40x4", LAWS[1], StripGeometry(4, 1, 40), Region.rectangle(1, 40, 3, 4)),
    ("band d=2 rows 2-3, columns 5-44 of 48x4", BAND, StripGeometry(4, 2, 48), Region.rectangle(5, 44, 2, 3)),
    ("band d=2 columns 3-22 of 24x4", BAND, StripGeometry(4, 2, 24), Region.rectangle(3, 22, 1, 4)),
    ("adjacency columns 2-28 of 30x3", UNIFORM, StripGeometry(3, 1, 30), Region.rectangle(2, 28, 1, 3)),
]


@pytest.mark.parametrize("spec, geometry, region", [c[1:] for c in STREAMED], ids=[c[0] for c in STREAMED])
def test_sampler_matches_the_stacked_sweep_across_chunks_and_workers(monkeypatch, spec, geometry, region):
    # 5,000 samples cross the first block of draws; the sweep on whole-block draws is the reference
    n0, n1, w0, w1 = region.bounds()
    pot, u_band = _block_draws(spec, geometry, 5000, 17)
    _, ref, bad = _schur_sweep(_column_blocks(pot, spec.u_law, u_band, 0.2, (n0 - 1, n1), (w0 - 1, w1)))
    assert not bad.any()
    for workers in (1, 2):
        got, _ = sample_logdets(spec, geometry, region, 0.2, 5000, seed=17, workers=workers)
        assert np.array_equal(got, ref)
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 1 << 14)  # batches of 51-178 samples
    got, _ = sample_logdets(spec, geometry, region, 0.2, 5000, seed=17, workers=2)
    assert np.array_equal(got, ref)


KEYED = [
    # (name, spec, geometry, region, site): more than 45 sites, where a layout sized by the region would show; dense and Schur paths
    ("adjacency 23x2", UNIFORM, StripGeometry(2, 1, 23), Region.rectangle(1, 23, 1, 2), (12, 1)),
    ("adjacency 24x2 minus (5, 2)", UNIFORM, StripGeometry(2, 1, 24), Region.rectangle(1, 24, 1, 2).without_site((5, 2)), (12, 1)),
    ("band d=2 12x4", BAND, StripGeometry(4, 2, 12), Region.rectangle(1, 12, 1, 4), (6, 3)),
]


@pytest.mark.parametrize("spec, geometry, region, site", [c[1:] for c in KEYED], ids=[c[0] for c in KEYED])
def test_every_kernel_keys_its_draws_by_sample_index(monkeypatch, spec, geometry, region, site):
    # the same arrays under any batch budget and worker count, and a shorter run is a prefix; 4,160 samples cross sample 4,096
    def kernels(n, workers):
        spectral = sample_spectral(spec, geometry, region, 0.3, [0.5, 2.0], n, seed=11, workers=workers)
        return (
            sample_logdets(spec, geometry, region, 0.3, n, seed=11, workers=workers)[0],
            *(spectral[key] for key in ("log_abs", "dist_hits", "norm_hits")),
            sample_site_shifts(spec, geometry, region, site, 0.3, n, seed=11, workers=workers)[0],
            sample_resolvent_entries(spec, geometry, region, site, region.sites[-1], 0.3, n, seed=11, workers=workers),
        )

    ref = kernels(4160, 1)
    for budget, n, workers in ((1 << 20, 4160, 2), (1 << 16, 4160, 1), (1 << 16, 100, 2)):
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", budget)
        for x, y in zip(kernels(n, workers), ref):
            assert np.array_equal(x, y[..., :n], equal_nan=True)


@pytest.mark.parametrize(
    "spec", [DisorderSpec.uniform(-1e308, 1e308, u_law="adjacency"), DisorderSpec.uniform(-1.0, 1.0, u_law="random_band", coupling=np.inf)],
    ids=["potential", "coupling"],
)
@pytest.mark.parametrize("width", [2, 3])
def test_sampler_rejects_non_finite_draws(spec, width):
    geometry = StripGeometry(width, 1, 6)
    with pytest.raises(NumericError, match="non-finite"):
        sample_logdets(spec, geometry, Region.rectangle(1, 6, 1, width), 0.0, 40, seed=2)


def test_schur_route_matches_direct_on_cauchy_strip():
    # the Cauchy 2000 x 2 strip of the routes benchmark, one sample through the closed form
    sample = sample_disorder(StripGeometry(2, 1, 2000), CAUCHY, seed=1)
    got, fell_back = logdet_via_schur(sample, 0.5, return_info=True)
    ref = logdet_direct(assemble_hamiltonian(sample, Region.rectangle(1, 2000, 1, 2)), 0.5)
    assert not fell_back and got.sign == ref.sign
    assert got.log_abs == pytest.approx(ref.log_abs, rel=1e-8)


def _block_tridiagonal(diag_blocks):
    n, w, _ = diag_blocks.shape
    h = np.zeros((n * w, n * w))
    for k in range(n):
        h[k * w : (k + 1) * w, k * w : (k + 1) * w] = diag_blocks[k]
        if k:
            h[k * w : (k + 1) * w, (k - 1) * w : k * w] = -np.eye(w)
            h[(k - 1) * w : k * w, k * w : (k + 1) * w] = -np.eye(w)
    return h


def test_rectangle_batches_are_deterministic(monkeypatch):
    geo = StripGeometry(2, 1, 40)
    region = Region.rectangle(1, 40, 1, 2)
    one, _ = sample_logdets(UNIFORM, geo, region, 0.0, 9000, seed=17, workers=1)
    two, _ = sample_logdets(UNIFORM, geo, region, 0.0, 9000, seed=17, workers=2)
    assert np.array_equal(one, two)
    long, _ = sample_logdets(UNIFORM, geo, region, 0.0, 3000, seed=17)
    short, _ = sample_logdets(UNIFORM, geo, region, 0.0, 1000, seed=17)
    assert np.array_equal(long[:1000], short) and np.array_equal(one[:3000], long)
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 160 * 1000)  # batches of 1,000 samples, two of them across samples 4,096 and 8,192
    assert np.array_equal(sample_logdets(UNIFORM, geo, region, 0.0, 9000, seed=17)[0], one)


def test_fallback_factors_each_bad_sample_from_its_own_blocks(monkeypatch):
    # odd chains at E = 0 are singular: every sample of a 33 x 2 strip without
    # vertical coupling goes back to route (a), one sample's blocks at a time, in one batch of many pieces
    geo = StripGeometry(2, 1, 33)
    region = Region.rectangle(1, 33, 1, 2)
    shapes = []
    band = sampling._block_band

    def recording(blocks):
        shapes.append(blocks.shape)
        return band(blocks)

    monkeypatch.setattr(sampling, "_block_band", recording)
    got, n_singular = sample_logdets(DisorderSpec.point(0.0), geo, region, 0.0, 3000, seed=3)
    assert shapes == [(33, 2, 2)] * 3000
    assert np.all(np.isneginf(got)) and n_singular == 3000


BAD_ENSEMBLES = [
    # every sample is Schur-bad at its first column, where S - E is singular
    ("point 0 adjacency E=1 columns 3-12 of 14x2", DisorderSpec.point(0.0, u_law="adjacency"), StripGeometry(2, 1, 14), Region.rectangle(3, 12, 1, 2)),
    ("point 1 zero E=1 rows 2-4, columns 2-9 of 10x4", DisorderSpec.point(1.0), StripGeometry(4, 1, 10), Region.rectangle(2, 9, 2, 4)),
    ("point 1 zero E=1 rows 2-4, columns 2-8 of 10x4", DisorderSpec.point(1.0), StripGeometry(4, 1, 10), Region.rectangle(2, 8, 2, 4)),
]


@pytest.mark.parametrize("spec, geometry, region", [c[1:] for c in BAD_ENSEMBLES], ids=[c[0] for c in BAD_ENSEMBLES])
def test_bad_samples_are_route_a_on_their_dense_rectangle(spec, geometry, region):
    got, n_singular = sample_logdets(spec, geometry, region, 1.0, 40, seed=7)
    pot, u_band = draw_chunk(spec, geometry, 0, 40, 7)
    ref = [logdet_direct(h, 1.0) for h in build_hamiltonians(region, pot, spec.u_law, u_band, 0.0)]
    assert got.tolist() == [r.log_abs for r in ref] and n_singular == [r.sign for r in ref].count(0)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_batches_hold_one_chunk_of_draws():
    # ldt's 32 x 2 rectangle in batches of 4,096 samples: 7.6 MB traced when a batch joined its draws
    spec, geo = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency"), StripGeometry(2, 1, 32)
    assert _traced_peak(lambda: sample_logdets(spec, geo, Region.rectangle(1, 32, 1, 2), 0.0, 16_384, seed=5)) < 5e6


def test_route_a_fallback_keeps_to_one_sample():
    # point mass 0 at E = 1 is Schur-bad at the first column; a dense stack of the 4 samples would take 128 MB
    spec, geo = DisorderSpec.point(0.0, u_law="adjacency"), StripGeometry(2, 1, 1000)
    out = []
    peak = _traced_peak(lambda: out.extend(sample_logdets(spec, geo, Region.rectangle(1, 1000, 1, 2), 1.0, 4, seed=5)))
    assert peak < 16e6
    assert out[1] == 0 and out[0].tolist() == [logdet_direct(sample_disorder(geo, spec, seed=5), 1.0).log_abs] * 4


@pytest.mark.parametrize("region", [Region.rectangle(1, 5, 1, 2), Region.rectangle(1, 4, 2, 3), Region.from_sites([(1, 1), (5, 2)])])
def test_samplers_reject_sites_outside_the_geometry(region):
    geo = StripGeometry(2, 1, 4)
    with pytest.raises(ConfigurationError):
        sample_logdets(UNIFORM, geo, region, 0.0, 8, seed=1)
    with pytest.raises(ConfigurationError):
        sample_spectral(UNIFORM, geo, region, 0.0, [1.0], 8, seed=1)


def test_samplers_reject_sites_outside_the_region():
    geo = StripGeometry(2, 1, 4)
    region = Region.rectangle(1, 3, 1, 2)
    for site_a, site_b in [((9, 9), (1, 1)), ((1, 1), (4, 1))]:
        with pytest.raises(ConfigurationError, match="not in region"):
            sampling.sample_resolvent_entries(UNIFORM, geo, region, site_a, site_b, 0.0, 8, seed=1)
    with pytest.raises(ConfigurationError, match="not in region"):
        sampling.sample_site_shifts(UNIFORM, geo, region, (4, 1), 0.0, 8, seed=1)


def test_sparse_region_assembles_in_small_slices():
    # two sites 299 columns apart: the bounding box of one sample is 300 x 300,
    # 46 MB over 64 samples if the boxes were built all at once
    geo = StripGeometry(2, 1, 300)
    region = Region.from_sites([(1, 1), (300, 1)])
    tracemalloc.start()
    try:
        got = sample_spectral(UNIFORM, geo, region, 0.0, [1.0], 64, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    pot, _ = draw_chunk(UNIFORM, geo, 0, 64, 3)  # no bond joins the two sites: H = diag(V_1, V_300)
    assert np.allclose(got["log_abs"], np.log(np.abs(pot[:, 0, 0])) + np.log(np.abs(pot[:, 299, 0])), rtol=1e-12, atol=0)


POINT0 = DisorderSpec.point(0.0, u_law="adjacency")
UNIFORM_2 = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency")
# -2 cos(pi j / 6) +- 1 with the point value added: the 5 x 2 point-mass strips have eigenvalues at every integer v - 2 .. v + 2
INERTIA_CASES = [
    ("point 0 5x2", POINT0, 5, (-2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)),
    ("point 1 5x2", DisorderSpec.point(1.0, u_law="adjacency"), 5, (-1.0, 0.0, 0.25, 1.0, 2.0, 2.5, 3.0)),
    ("resonant 17x2", RESONANT, 17, (-1.0, -np.exp(-3.0), -1e-8, 1e-8, np.exp(-3.0), 1.0, 2.5)),
    ("cauchy 32x2", CAUCHY, 32, (-30.0, -np.exp(1.0), 0.5 - np.exp(-2.0), 0.5, 0.5 + np.exp(-2.0), 4.0, 1e4)),
    ("uniform 4x2", UNIFORM_2, 4, tuple(np.concatenate([s * np.exp(-np.arange(0.0, 8.5, 0.5)) for s in (-1.0, 1.0)]))),
]


@pytest.mark.parametrize("name, spec, columns, shifts", INERTIA_CASES, ids=[c[0] for c in INERTIA_CASES])
def test_inertia_counts_match_eigvalsh(name, spec, columns, shifts):
    # count(t) = #{eigenvalues of H below t}, from the signs of the Schur blocks of H - t (Sylvester's law of inertia)
    pot, u_band = draw_chunk(spec, StripGeometry(2, 1, columns), 0, 300, seed=19)
    sa, sb, sc, sd = _draw_entries([(pot, u_band)], len(pot), spec.u_law, 0.0, (0, columns), (0, 2))
    eigs = np.linalg.eigvalsh(build_hamiltonians(Region.rectangle(1, columns, 1, 2), pot, spec.u_law, u_band, 0.0))
    for t in shifts:
        count, bad = _closed_form_sweep(sa - t, sb, sc, sd - t, inertia=True)
        ref = np.count_nonzero(eigs < t, axis=1)
        if spec.density == "point":  # every sample is the clean strip: bad exactly where t is one of its eigenvalues
            assert bad.all() == (float(t).is_integer() and -2.0 <= t - spec.params["value"] <= 2.0) and (bad.all() or not bad.any()), t
        else:
            assert not bad.any(), t
        assert np.array_equal(count[~bad], ref[~bad]), t


def _eigvalsh_spectral(spec, geometry, region, energy, k_grid, n, seed):
    """``sample_spectral``'s three results from ``eigvalsh`` of the dense H on the same draws."""
    pot, u_band = draw_chunk(spec, geometry, 0, n, seed)
    eigs = np.linalg.eigvalsh(build_hamiltonians(region, pot, spec.u_law, u_band, 0.0))
    k = np.asarray(k_grid)[:, None]
    with np.errstate(divide="ignore"):
        gaps = np.log(np.abs(eigs - energy))
    return np.sum(gaps, axis=1), np.min(gaps, axis=1) < -k, np.log(abs(energy) + np.max(np.abs(eigs), axis=1)) > k


# out of order: the inertia masks run the K in increasing order and skip the samples a smaller K already missed
K_SPECTRAL = [3.0, 0.0, 8.0, 1.0, 0.5, 6.0, 1.5, 4.0, 2.0]
SPECTRAL_CASES = [
    # (name, spec, geometry, region, energy, masks from eigvalsh: "all", "none" or a count)
    ("point 0 5x2 E=0, singular, eigenvalues at +-1", POINT0, StripGeometry(2, 1, 5), Region.rectangle(1, 5, 1, 2), 0.0, "all"),
    ("point 0 5x2 E=1, singular, eigenvalues at 0 and 2", POINT0, StripGeometry(2, 1, 5), Region.rectangle(1, 5, 1, 2), 1.0, "all"),
    ("point 0 4x2 E=0, B_1 singular at +-1", POINT0, StripGeometry(2, 1, 4), Region.rectangle(1, 4, 1, 2), 0.0, "all"),
    ("resonant 17x2 E=0", RESONANT, StripGeometry(2, 1, 17), Region.rectangle(1, 17, 1, 2), 0.0, "none"),
    ("cauchy 32x2 E=0.5", CAUCHY, StripGeometry(2, 1, 32), Region.rectangle(1, 32, 1, 2), 0.5, "none"),
    ("uniform 4x2 E=0", UNIFORM_2, StripGeometry(2, 1, 4), Region.rectangle(1, 4, 1, 2), 0.0, "none"),
    ("uniform 4x2 E=3, norm test true below K = log 3", UNIFORM_2, StripGeometry(2, 1, 4), Region.rectangle(1, 4, 1, 2), 3.0, "none"),
    ("band rows 2-3, columns 3-10 of 12x4", BAND, StripGeometry(4, 2, 12), Region.rectangle(3, 10, 2, 3), 0.3, "none"),
    ("W=3 8x3", UNIFORM, StripGeometry(3, 1, 8), Region.rectangle(1, 8, 1, 3), 0.2, "all"),
    ("6x2 minus (3, 1)", UNIFORM, StripGeometry(2, 1, 6), Region.rectangle(1, 6, 1, 2).without_site((3, 1)), 0.2, "all"),
]


@pytest.mark.parametrize("spec, geometry, region, energy, redone", [c[1:] for c in SPECTRAL_CASES], ids=[c[0] for c in SPECTRAL_CASES])
def test_spectral_masks_match_eigvalsh(spec, geometry, region, energy, redone):
    got = sample_spectral(spec, geometry, region, energy, K_SPECTRAL, 500, seed=13)
    log_abs, dist_hits, norm_hits = _eigvalsh_spectral(spec, geometry, region, energy, K_SPECTRAL, 500, 13)
    assert got["dist_hits"].shape == got["norm_hits"].shape == (len(K_SPECTRAL), 500)
    assert np.array_equal(got["dist_hits"], dist_hits) and np.array_equal(got["norm_hits"], norm_hits)
    assert got["eigvalsh"] == {"all": 500, "none": 0}[redone]
    n0, n1, w0, w1 = region.bounds()
    if region.is_rectangle and w1 - w0 == 1:  # log|det| is the sampler's, bit for bit
        assert np.array_equal(got["log_abs"], sample_logdets(spec, geometry, region, energy, 500, seed=13)[0])
    else:
        assert np.array_equal(got["log_abs"], log_abs)


def test_spectral_masks_are_the_same_across_batches_and_workers():
    # 3 x 2 = 6 sites: batches of 4,096 samples, so 9,000 samples make three
    geometry, region = StripGeometry(2, 1, 3), Region.rectangle(1, 3, 1, 2)
    one = sample_spectral(CAUCHY, geometry, region, 0.5, K_SPECTRAL, 9000, seed=8)
    two = sample_spectral(CAUCHY, geometry, region, 0.5, K_SPECTRAL, 9000, seed=8, workers=2)
    short = sample_spectral(CAUCHY, geometry, region, 0.5, K_SPECTRAL, 4096, seed=8)
    for key in ("log_abs", "dist_hits", "norm_hits"):
        assert np.array_equal(one[key], two[key]) and np.array_equal(one[key][..., :4096], short[key])


def test_spectral_masks_hold_a_few_shifts_at_a_time():
    # the cartan run of the tails benchmark: 4 x 2, 16,384 samples; its eigvalsh pass peaked at 3.5 MB traced
    geometry, region = StripGeometry(2, 1, 4), Region.rectangle(1, 4, 1, 2)
    k_grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]
    assert _traced_peak(lambda: sample_spectral(UNIFORM_2, geometry, region, 0.0, k_grid, 16_384, seed=907)) < 3.5e6
