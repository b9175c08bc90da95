import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplyap.determinants import logdet_direct, logdet_via_transfer
from striplyap.exterior import (
    WedgeIndex,
    _wedge_rows,
    boundary_identity_check,
    boundary_logdet,
    boundary_operator,
    canonical_frame,
    expand_standard,
    frame_det_gap,
    minor,
    sylvester_franke_check,
    wedge_coordinates,
    wedge_indices,
    wedge_inner,
)
from striplyap.model import (
    ConfigurationError,
    DisorderSample,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    s_matrix,
    sample_disorder,
)
from striplyap.transfer import one_step, shadow_product
from striplyap.verify import verify_wedge


def _sample(width, columns, seed, spec=None):
    spec = spec or DisorderSpec.uniform(-1, 1, u_law="adjacency")
    return sample_disorder(StripGeometry(width, 1, columns), spec, seed=seed)


def test_wedge_index_validation():
    WedgeIndex.of([1, 3], 2)
    with pytest.raises(ConfigurationError):
        WedgeIndex.of([1, 1], 2)
    with pytest.raises(ConfigurationError):
        WedgeIndex.of([0, 1], 2)
    with pytest.raises(ConfigurationError):
        WedgeIndex.of([1, 5], 2)
    with pytest.raises(ConfigurationError):
        WedgeIndex.of([1], 2)


def test_canonical_frame_w1():
    f1 = canonical_frame(WedgeIndex.of([1], 1))
    assert np.array_equal(f1, np.array([[1.0], [0.0]])) and not f1.flags.writeable
    f2 = canonical_frame(WedgeIndex.of([2], 1))
    assert np.array_equal(f2, np.array([[1.0], [1.0]]))


def test_canonical_frame_w2_mixed():
    f = canonical_frame(WedgeIndex.of([1, 3], 2))
    assert np.array_equal(f[:2], np.eye(2))
    expected_bottom = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(f[2:], expected_bottom)
    assert np.linalg.norm(f[2:], 2) == pytest.approx(1.0)


def test_canonical_frame_structure_all_indices():
    for w in (1, 2, 3):
        for alpha in wedge_indices(w):
            f = canonical_frame(alpha)
            assert np.array_equal(f[:w], np.eye(w))
            assert np.linalg.norm(f[w:], 2) <= 1.0 + 1e-15


def test_expand_standard_w1():
    w1 = expand_standard(WedgeIndex.of([1], 1))
    assert w1 == {WedgeIndex.of([1], 1): 1}
    w2 = expand_standard(WedgeIndex.of([2], 1))
    assert w2 == {WedgeIndex.of([2], 1): 1, WedgeIndex.of([1], 1): -1}


def test_expand_standard_reconstructs_exactly():
    for w in (1, 2, 3):
        idxs = wedge_indices(w)
        for alpha in idxs:
            coeffs = expand_standard(alpha)
            assert all(c in (-1, 1) for c in coeffs.values())
            recon = np.zeros(len(idxs))
            for beta, c in coeffs.items():
                recon += c * wedge_coordinates(canonical_frame(beta), w)
            target = np.zeros(len(idxs))
            target[idxs.index(alpha)] = 1.0
            assert np.array_equal(recon, target)


def test_wedge_inner_orthonormal_basis():
    w = 2
    for alpha, beta in itertools.product(wedge_indices(w), repeat=2):
        ea = np.zeros((4, 2))
        ea[alpha.zero_based(), [0, 1]] = 1.0
        eb = np.zeros((4, 2))
        eb[beta.zero_based(), [0, 1]] = 1.0
        val = wedge_inner(ea, eb)
        assert val == pytest.approx(1.0 if alpha == beta else 0.0)


@given(st.integers(0, 10_000))
def test_wedge_inner_nonnegative_self(seed):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, 4))
    m = rng.normal(size=(2 * w, w))
    gram = np.linalg.det(m.T @ m)
    assert wedge_inner(m, m) == pytest.approx(gram, rel=1e-9, abs=1e-12)
    assert wedge_inner(m, m) >= -1e-9


def test_minor_of_identity():
    w = 2
    eye = np.eye(4)
    for alpha, beta in itertools.product(wedge_indices(w), repeat=2):
        sld = minor(beta, alpha, eye)
        if alpha == beta:
            assert sld.sign == 1 and sld.log_abs == pytest.approx(0.0)
        else:
            assert sld.sign == 0


def test_minor_dirichlet_block_equals_transfer_logdet():
    s = _sample(3, 9, seed=2)
    top = WedgeIndex.of([1, 2, 3], 3)
    a = minor(top, top, shadow_product(s, 0.4, 9, np.eye(6)[:, :3]))
    b = logdet_via_transfer(s, 0.4, 9)
    assert a.sign == b.sign
    assert a.log_abs == pytest.approx(b.log_abs, rel=1e-10)


def test_exterior_action_on_decomposables():
    # oracle: the matrix of minors acts on decomposable vectors as the wedge
    # of the images of the columns
    rng = np.random.default_rng(4)
    for w in (1, 2, 3):
        t = rng.normal(size=(2 * w, 2 * w))
        idxs = wedge_indices(w)
        compound = np.array(
            [[minor(b, a, t).value() for a in idxs] for b in idxs]
        )
        u = rng.normal(size=(2 * w, w))
        image_coords = wedge_coordinates(t @ u, w)
        via_compound = compound @ wedge_coordinates(u, w)
        assert np.allclose(via_compound, image_coords, rtol=1e-9, atol=1e-9)


def test_boundary_operator_dirichlet_case():
    s = _sample(2, 5, seed=6)
    dirich = np.vstack([np.eye(2), np.zeros((2, 2))])
    op = boundary_operator(s, dirich, dirich, 5)
    h = assemble_hamiltonian(s, Region.rectangle(1, 5, 1, 2))
    assert np.array_equal(op, h)
    assert np.array_equal(op, op.T)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_boundary_operator_is_the_assembled_h_with_corner_terms(width):
    w = width
    s = _sample(w, 6, seed=20 + w, spec=DisorderSpec.cauchy(1.0, u_law="adjacency"))
    frames = [canonical_frame(a) for a in wedge_indices(w)]
    for n in (1, 4, 6):
        h = assemble_hamiltonian(s, Region.rectangle(1, n, 1, w))
        for fu, fv in itertools.product(frames, repeat=2):
            ref = h.copy()
            ref[:w, :w] -= fu[w:] @ np.linalg.inv(fu[:w])
            ref[-w:, -w:] += (fv[w:] @ np.linalg.inv(fv[:w])).T
            op = boundary_operator(s, fu, fv, n)
            assert np.array_equal(op, ref) and not op.flags.writeable


def test_boundary_operator_w1_scalar_shifts():
    geo = StripGeometry(1, 1, 3)
    samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[1.0], [2.0], [3.0]]))
    u = np.array([[1.0], [0.4]])
    v = np.array([[1.0], [-0.7]])
    op = boundary_operator(samp, u, v, 3)
    assert op[0, 0] == pytest.approx(1.0 - 0.4)
    assert op[2, 2] == pytest.approx(3.0 + (-0.7))


def test_boundary_operator_norm_bound_for_canonical_frames():
    s = _sample(2, 6, seed=7)
    h = assemble_hamiltonian(s, Region.rectangle(1, 6, 1, 2))
    base = np.linalg.norm(h, 2)
    for alpha in wedge_indices(2):
        for beta in wedge_indices(2):
            op = boundary_operator(s, canonical_frame(alpha), canonical_frame(beta), 6)
            assert np.linalg.norm(op, 2) <= base + 2.0 + 1e-9


def test_boundary_identity_dirichlet_pair():
    s = _sample(2, 6, seed=8)
    dirich = np.vstack([np.eye(2), np.zeros((2, 2))])
    lhs, rhs = boundary_identity_check(s, 0.3, 6, dirich, dirich)
    ref = logdet_via_transfer(s, 0.3, 6)
    for side in (lhs, rhs):
        assert side.sign == ref.sign
        assert side.log_abs == pytest.approx(ref.log_abs, rel=1e-9)


def test_boundary_identity_hand_case():
    # V = (1, 2), E = 0, u = [1;1], v = [1;0]: both sides equal -1
    geo = StripGeometry(1, 1, 2)
    samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[1.0], [2.0]]))
    u = np.array([[1.0], [1.0]])
    v = np.array([[1.0], [0.0]])
    lhs, rhs = boundary_identity_check(samp, 0.0, 2, u, v)
    assert lhs.sign == rhs.sign == -1
    assert lhs.log_abs == pytest.approx(0.0, abs=1e-12)
    assert rhs.log_abs == pytest.approx(0.0, abs=1e-12)


def test_boundary_identity_random_canonical_pairs():
    rng = np.random.default_rng(10)
    for t in range(12):
        w = int(rng.integers(1, 4))
        n = int(rng.integers(2, 17))
        s = _sample(w, n, seed=40 + t)
        frames = [canonical_frame(a) for a in wedge_indices(w)]
        u = frames[int(rng.integers(0, len(frames)))]
        v = frames[int(rng.integers(0, len(frames)))]
        e = float(rng.uniform(-1.5, 1.5))
        lhs, rhs = boundary_identity_check(s, e, n, u, v)
        assert lhs.sign == rhs.sign
        assert lhs.log_abs == pytest.approx(rhs.log_abs, rel=1e-8)


def test_sylvester_franke_w1_exact():
    s = _sample(1, 5, seed=12)
    assert sylvester_franke_check(s, 0.6, 5) < 1e-10


def test_sylvester_franke_single_factor_dense():
    # W=2, N=1: the 6x6 exterior power of one block factor has |det| = 1
    s = _sample(2, 1, seed=13)
    t = one_step(s_matrix(s, 1), 0.2)
    idxs = wedge_indices(2)
    compound = np.array([[minor(b, a, t).value() for a in idxs] for b in idxs])
    assert abs(abs(np.linalg.det(compound)) - 1.0) < 1e-10
    assert sylvester_franke_check(s, 0.2, 1) < 1e-10


def test_sylvester_franke_w3_product():
    s = _sample(3, 8, seed=14)
    assert sylvester_franke_check(s, 0.1, 8) < 1e-6 * 8
    # long products have singular values up to exp(N gamma_1); the compound
    # determinant must not inherit their conditioning
    laws = [
        (1, DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")),
        (1, DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency")),
        (2, DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0)),
    ]
    cases = itertools.product((2, 3), (300, 2000), laws)
    for seed, (width, columns, (bandwidth, spec)) in enumerate(cases, start=60):
        s = sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=seed)
        drift = sylvester_franke_check(s, 0.5, columns)
        assert math.isfinite(drift) and drift < 1e-6 * columns, (width, columns, spec.density, spec.u_law)


@pytest.mark.parametrize("seed", [17, 123, 21000])
def test_verify_wedge_drift_on_every_trial(seed):
    # these seeds draw W=3, n=12 trials whose matrix of minors, of condition
    # (s_1 ... s_W)^2, loses 1.8e-6 to 2.9e-6 per step in its determinant
    report = verify_wedge(seed=seed, trials=25)
    assert report["passed"], report
    assert report["worst_unimodular_drift"] <= 1e-11


def test_frame_det_gap_known_case():
    # oracle: enumerate the four pairs directly at W=1
    s = _sample(1, 4, seed=15)
    e = 0.2
    base = logdet_direct(assemble_hamiltonian(s, Region.rectangle(1, 4, 1, 1)), e)
    frames = [canonical_frame(a) for a in wedge_indices(1)]
    best = -math.inf
    for fu in frames:
        for fv in frames:
            val = boundary_logdet(s, fu, fv, 4, e)
            if val.sign != 0:
                best = max(best, val.log_abs - base.log_abs)
    assert frame_det_gap(s, e, 4) == pytest.approx(best, rel=1e-12)
    # the Dirichlet pair contributes gap 0, so the max is nonnegative
    assert frame_det_gap(s, e, 4) >= -1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_frame_det_gap_is_the_pairwise_maximum(width):
    # one H_N with the corners changed per pair equals one boundary operator per pair, bit for bit
    s = _sample(width, 7, seed=30 + width, spec=DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=0.8))
    e = 0.3
    base = logdet_direct(assemble_hamiltonian(s, Region.rectangle(1, 7, 1, width)), e)
    frames = [canonical_frame(a) for a in wedge_indices(width)]
    vals = [boundary_logdet(s, fu, fv, 7, e) for fu in frames for fv in frames]
    assert frame_det_gap(s, e, 7) == max(v.log_abs - base.log_abs for v in vals if v.sign != 0)


def test_frame_det_gap_rejects_large_width():
    s = _sample(5, 2, seed=16, spec=DisorderSpec.uniform(-1, 1))
    with pytest.raises(ConfigurationError):
        frame_det_gap(s, 0.0, 2)


def test_exterior_width_guard():
    s = _sample(6, 2, seed=17, spec=DisorderSpec.uniform(-1, 1))
    with pytest.raises(ConfigurationError):
        sylvester_franke_check(s, 0.0, 2)


def test_compound_norm_bounded_by_canonical_minor_sum():
    # the operator norm of the minor matrix is controlled by the sum of
    # canonical-frame minors up to a factor exp(C W); C is measured, not given
    rng = np.random.default_rng(20)
    worst_c = 0.0
    for t in range(10):
        w = 1 + t % 3
        n = int(rng.integers(2, 9))
        s = _sample(w, n, seed=60 + t)
        e = float(rng.uniform(-1, 1))
        dense = np.eye(2 * w)
        for k in range(1, n + 1):
            dense = one_step(s_matrix(s, k), e) @ dense
        idxs = wedge_indices(w)
        compound = np.array([[minor(b, a, dense).value() for a in idxs] for b in idxs])
        norm = np.linalg.norm(compound, 2)
        frames = [canonical_frame(a) for a in idxs]
        total = sum(
            abs(np.linalg.det(fv.T @ dense @ fu))
            for fu in frames
            for fv in frames
        )
        assert norm <= total * math.exp(2.0 * w)
        if norm > 0 and total > 0:
            worst_c = max(worst_c, math.log(max(norm / total, 1e-300)) / w)
    assert worst_c <= 2.0


def test_frame_gap_tail_harness():
    # ensemble tail of the boundary gap against exp(-K/4) past a small onset
    import striplyap.model as model_mod

    n, w = 8, 2
    geo = StripGeometry(w, 1, n)
    spec = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency")
    gaps = np.empty(600)
    for i in range(600):
        s = model_mod.sample_disorder(geo, spec, seed=77, index=i)
        gaps[i] = frame_det_gap(s, 0.0, n)
    k_grid = np.array([1.0, 1.5, 2.0, 3.0])
    onset_seen = False
    for k in k_grid:
        frac = float(np.mean(gaps > 8.0 * k * w))
        sigma = math.sqrt(max(frac * (1 - frac), 0.0) / len(gaps))
        if frac <= math.exp(-k / 4.0) + 3 * sigma:
            onset_seen = True
        if onset_seen:
            assert frac <= math.exp(-k / 4.0) + 3 * sigma
    assert onset_seen


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_wedge_coordinates_stacked_det_is_the_per_index_loop(w):
    rng = np.random.default_rng(60 + w)
    frames = [canonical_frame(a) for a in wedge_indices(w)] + [rng.normal(size=(2 * w, w)) for _ in range(20)]
    for frame in frames:
        loop = np.array([np.linalg.det(frame[idx.zero_based(), :]) for idx in wedge_indices(w)])
        assert np.array_equal(wedge_coordinates(frame, w), loop)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_wedge_index_tables_are_cached_and_read_only(w):
    assert wedge_indices(w) is wedge_indices(w) and isinstance(wedge_indices(w), tuple)
    rows = _wedge_rows(w)
    assert rows is _wedge_rows(w) and not rows.flags.writeable
    assert rows.tolist() == [list(idx.zero_based()) for idx in wedge_indices(w)]
