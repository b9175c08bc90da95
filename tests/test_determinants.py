import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import given
from hypothesis import strategies as st

from striplyap.determinants import (
    NearSingularError,
    SignedLogDet,
    logdet_direct,
    logdet_via_schur,
    logdet_via_transfer,
    signed_logdet,
    site_shift,
)
from striplyap.exterior import WedgeIndex, minor
from striplyap.model import (
    DisorderSample,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    sample_disorder,
    split_stream,
)
from striplyap.sampling import sample_logdets
from striplyap.transfer import CocycleAccumulator

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _sample(width, columns, seed, spec=None):
    spec = spec or DisorderSpec.uniform(-1, 1, u_law="adjacency")
    geo = StripGeometry(width, 1, columns)
    return sample_disorder(geo, spec, seed=seed)


class TestSignedLogDet:
    def test_consistency_validation(self):
        with pytest.raises(ValueError):
            SignedLogDet(0, 1.0)
        with pytest.raises(ValueError):
            SignedLogDet(1, -math.inf)
        with pytest.raises(ValueError):
            SignedLogDet(2, 0.0)

    @given(finite, finite)
    def test_composition_law(self, a, b):
        x, y = SignedLogDet.from_value(a), SignedLogDet.from_value(b)
        prod = x * y
        assert prod.value() == pytest.approx(a * b, rel=1e-12, abs=1e-300)

    @given(finite)
    def test_zero_absorbs(self, a):
        z = SignedLogDet.zero()
        assert (SignedLogDet.from_value(a) * z).sign == 0
        assert (z * SignedLogDet.from_value(a)).log_abs == -math.inf

    def test_from_value(self):
        sld = SignedLogDet.from_value(-math.exp(2.0))
        assert sld.sign == -1 and sld.log_abs == pytest.approx(2.0)

    @pytest.mark.parametrize("x", [-2.5, 0.0, 1e-300, 3.0])
    def test_one_by_one_matches_from_value(self, x):
        assert signed_logdet(np.array([[x]])) == SignedLogDet.from_value(x)

    def test_w1_shadow_minor_with_zero_frame_entry(self):
        shadow = CocycleAccumulator(frame=np.array([[0.0], [1.0]]), log_radii=np.array([3.0]), steps=1)
        top = WedgeIndex.of([1], 1)
        assert minor(top, top, shadow) == SignedLogDet.zero()


class TestDirect:
    def test_single_site(self):
        h = np.array([[0.0]])
        sld = logdet_direct(h, 1.0)
        assert sld.sign == -1 and sld.log_abs == pytest.approx(0.0)

    def test_diagonal_two_sites(self):
        h = np.diag([2.0, 3.0])
        sld = logdet_direct(h, 1.0)
        assert sld.sign == 1 and sld.log_abs == pytest.approx(math.log(2.0))

    def test_laplacian_two_by_two(self):
        # det over the 2x2 block lattice at E=1 is (-3)(-1)(-1)(1) = -3
        geo = StripGeometry(2, 1, 2)
        spec = DisorderSpec.point(0.0, u_law="adjacency")
        s = sample_disorder(geo, spec, seed=0)
        h = assemble_hamiltonian(s, Region.rectangle(1, 2, 1, 2))
        sld = logdet_direct(h, 1.0)
        assert sld.sign == -1 and sld.log_abs == pytest.approx(math.log(3.0), abs=1e-12)

    def test_exact_singularity_gives_sign_zero(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert logdet_direct(h, 0.0).sign == 0

    def test_matches_slogdet(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            a = rng.normal(size=(dim, dim))
            h = (a + a.T) / 2
            e = float(rng.uniform(-1, 1))
            mine = logdet_direct(h, e)
            ref = signed_logdet(h - e * np.eye(dim))
            assert mine.sign == ref.sign
            assert mine.log_abs == pytest.approx(ref.log_abs, rel=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            logdet_direct(np.array([[0.0, 1.0], [0.5, 0.0]]), 0.0)

    @pytest.mark.parametrize(
        "row, col", [(50, 51), (50, 54), (50, 55), (119, 0)], ids=["in band", "band edge", "past band", "far corner"]
    )
    def test_rejects_asymmetric_entry_of_a_banded_matrix(self, row, col):
        spec = DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0)
        sample = sample_disorder(StripGeometry(4, 2, 30), spec, seed=8)
        h = assemble_hamiltonian(sample, Region.rectangle(1, 30, 1, 4)).copy()
        rows, cols = np.nonzero(h)
        assert np.max(cols - rows) == 4  # sites in column order: the band reaches the next column
        logdet_direct(h, 0.5)
        h[row, col] += 1e-3
        with pytest.raises(ValueError):
            logdet_direct(h, 0.5)

    def test_block_diagonal_additivity(self):
        rng = np.random.default_rng(5)
        blocks = []
        for dim in (3, 4, 2):
            a = rng.normal(size=(dim, dim))
            blocks.append((a + a.T) / 2)
        full = np.zeros((9, 9))
        pos = 0
        total = SignedLogDet.one()
        for b in blocks:
            d = b.shape[0]
            full[pos : pos + d, pos : pos + d] = b
            total = total * logdet_direct(b, 0.25)
            pos += d
        combined = logdet_direct(full, 0.25)
        assert combined.sign == total.sign
        assert combined.log_abs == pytest.approx(total.log_abs, abs=1e-10)

    def test_sign_flips_at_eigenvalues(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        h = (a + a.T) / 2
        eigs = np.linalg.eigvalsh(h)
        for i in range(5):
            mid = 0.5 * (eigs[i] + eigs[i + 1])
            assert logdet_direct(h, mid).sign == (-1) ** (i + 1)


def _dense_lu(h, energy):
    """H - E by dense LU: ``np.linalg.slogdet``'s sign and log|det|, and the U-diagonal ratio of ``scipy.linalg.lu_factor``."""
    m = np.asarray(h, dtype=float) - energy * np.eye(len(h))
    sign, log_abs = np.linalg.slogdet(m)
    u = np.abs(np.diagonal(scipy.linalg.lu_factor(m)[0]))
    return int(sign), float(log_abs), float(u.max() / u.min())


def _strip_sample(spec, width, bandwidth, columns, seed):
    return sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=seed)


def _strip(spec, width, bandwidth, columns, seed):
    return _dense(_strip_sample(spec, width, bandwidth, columns, seed))


def _dense(sample, n_steps=None):
    n = sample.potentials.shape[0] if n_steps is None else n_steps
    return assemble_hamiltonian(sample, Region.rectangle(1, n, 1, sample.geometry.width))


RESONANT = DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency")
# (spec, W, d, N, E): strips of several hundred rows; one column has
# bandwidth d, not W
BAND_STRIPS = {
    "cauchy": (DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency"), 2, 1, 400, 0.5),
    "one column": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 800, 1, 1, 0.3),
    "random_band": (DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0), 4, 2, 200, 0.5),
    "resonant": (RESONANT, 2, 1, 400, 0.0),
    "uniform": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 6, 1, 150, 0.0),
}


class TestWindowedDirect:
    """Route (a) factors the band of H - E by one banded LU (``dgbtrf``).

    It must agree with the dense LU: equal sign, log|det| within 1e-12 of
    ``np.linalg.slogdet`` and the U-diagonal condition within 1e-9 of
    ``scipy.linalg.lu_factor``'s, relative.  Given the disorder sample
    instead of H, it writes the band from the column blocks and must return
    exactly what the dense matrix gives.
    """

    @staticmethod
    def _assert_matches_dense(h, energy):
        got, cond = logdet_direct(h, energy, with_condition=True)
        sign, log_abs, ref_cond = _dense_lu(h, energy)
        assert got.sign == sign
        assert got.log_abs == pytest.approx(log_abs, rel=1e-12, abs=1e-12)
        assert cond == pytest.approx(ref_cond, rel=1e-9)

    @staticmethod
    def _assert_sample_form_exact(sample, energy, n_steps=None):
        got = logdet_direct(sample, energy, with_condition=True, n_steps=n_steps)
        assert got == logdet_direct(_dense(sample, n_steps), energy, with_condition=True)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(BAND_STRIPS))
    def test_matches_one_dense_call(self, name, seed):
        spec, width, bandwidth, columns, energy = BAND_STRIPS[name]
        sample = _strip_sample(spec, width, bandwidth, columns, 50 + seed)
        self._assert_matches_dense(_dense(sample), energy)
        self._assert_sample_form_exact(sample, energy)

    @pytest.mark.parametrize("width", [2, 3])
    def test_pivoting_strips_at_every_length(self, width):
        # near-zero diagonals: partial pivoting interchanges rows all along the band
        sample = _strip_sample(RESONANT, width, 1, 600 // width, 3)
        h = _dense(sample)
        _, piv = scipy.linalg.lu_factor(h)
        assert np.sum(piv != np.arange(len(h))) > 100
        self._assert_matches_dense(h, 0.0)
        for n_steps in (None, 250 // width, 17):
            self._assert_sample_form_exact(sample, 0.0, n_steps)

    @pytest.mark.parametrize("width, columns", [(1, 501), (3, 333)])
    def test_point_mass_zero_stays_singular(self, width, columns):
        sample = _strip_sample(DisorderSpec.point(0.0, u_law="adjacency"), width, 1, columns, 1)
        h = _dense(sample)
        assert logdet_direct(h, 0.0).sign == 0 and np.linalg.slogdet(h)[0] == 0
        assert logdet_direct(sample, 0.0).sign == 0

    @pytest.mark.parametrize("energy", [0.0, 0.7])
    def test_zero_row_of_shifted_matrix_gives_sign_zero(self, energy):
        # row 300 of H - E is zero, while the band around it is narrow
        rng = np.random.default_rng(7)
        a = np.triu(np.tril(rng.normal(size=(600, 600)), 3), -3)
        h = a + a.T
        h[300, :] = h[:, 300] = 0.0
        h[300, 300] = energy
        got, cond = logdet_direct(h, energy, with_condition=True)
        assert (got.sign, cond) == (0, math.inf) and np.linalg.slogdet(h - energy * np.eye(600))[0] == 0

    def test_criterion_01_and_verify_matrices_match_dense_lu(self):
        cases = []
        rng = split_stream(101, 0)  # criterion 01's configurations
        for t in range(200):
            width, columns = int(rng.integers(1, 7)), int(rng.integers(2, 33))
            energy = float(rng.choice([0.0, 1.0, -1.0]))
            spec = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency") if t % 2 == 0 else DisorderSpec.cauchy(1.0, u_law="adjacency")
            cases.append((_strip(spec, width, 1, columns, 1000 + t), energy))
        rng = np.random.default_rng(3)  # verify_determinants' random symmetric matrices
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            h = (a + a.T) / 2.0
            eigs = np.linalg.eigvalsh(h)
            cases += [(h, 0.5 * (lo + hi)) for lo, hi in zip(eigs, eigs[1:])]
        sample = sample_disorder(StripGeometry(4, 2, 64), DisorderSpec.uniform(-1.5, 1.5, u_law="random_band"), seed=4)
        holey = Region.from_sites([(n, w) for n in range(1, 65) for w in range(1, 5) if (n + w) % 7])
        cases.append((assemble_hamiltonian(sample, holey), 0.25))
        for h, energy in cases:
            self._assert_matches_dense(h, energy)
        # the sample form, one column included, is the dense rectangle's call bit for bit
        for n_steps in (64, 33, 1):
            self._assert_sample_form_exact(sample, 0.25, n_steps)

    @pytest.mark.parametrize("columns", [20, 300])
    @pytest.mark.parametrize("u_law", ["adjacency", "random_band"])
    def test_sample_form_rejects_non_finite_entries(self, columns, u_law):
        sample = _strip_sample(DisorderSpec.uniform(-1, 1, u_law=u_law), 3, 2, columns, 5)
        potentials = sample.potentials.copy()
        potentials[columns // 2, 1] = np.inf
        bad = [DisorderSample(sample.geometry, u_law, potentials, sample.u_band)]
        if u_law == "random_band":
            u_band = sample.u_band.copy()
            u_band[columns - 1, 2, 0] = np.nan  # U(1, 3) of the last column
            bad.append(DisorderSample(sample.geometry, u_law, sample.potentials, u_band))
        for s in bad:
            with pytest.raises(ValueError, match="non-finite"):
                logdet_direct(s, 0.3)
            with pytest.raises(ValueError, match="non-finite"):
                logdet_direct(_dense(s), 0.3)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_raises(self, energy):
        sample = _strip_sample(DisorderSpec.uniform(-1, 1, u_law="adjacency"), 2, 1, 20, 5)
        for h in (sample, _dense(sample)):
            with pytest.raises(ValueError, match="non-finite"):
                logdet_direct(h, energy)

    def test_sample_form_never_builds_the_dense_matrix(self):
        # the dense 4000 x 4000 H alone is 128 MB
        spec, width, bandwidth = BAND_STRIPS["cauchy"][:3]
        sample = _strip_sample(spec, width, bandwidth, 2000, 5)
        logdet_direct(sample, 0.5)
        tracemalloc.start()
        try:
            logdet_direct(sample, 0.5, with_condition=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_wide_strip_stays_banded(self):
        # W = 64, N = 100: the dense H would be 328 MB; the band storage is 9.9 MB
        sample = _strip_sample(DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 64, 1, 100, 5)
        tracemalloc.start()
        try:
            got = logdet_direct(sample, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.sign != 0 and peak < 16e6


class TestTransferRoute:
    def test_single_factor(self):
        s = _sample(2, 1, seed=3)
        via_t = logdet_via_transfer(s, 0.7, 1)
        direct = signed_logdet(np.diag(s.potentials[0]) - s.u_matrix(1) - 0.7 * np.eye(2))
        assert via_t.sign == direct.sign
        assert via_t.log_abs == pytest.approx(direct.log_abs, rel=1e-12)

    def test_w1_two_constant_steps(self):
        # top-left of [[a, -1], [1, 0]]^2 is a^2 - 1, the 2-chain determinant
        a = 1.7
        geo = StripGeometry(1, 1, 2)
        samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.full((2, 1), a))
        sld = logdet_via_transfer(samp, 0.0, 2)
        assert sld.sign == 1 and sld.log_abs == pytest.approx(math.log(a * a - 1.0))

    def test_agrees_with_direct(self):
        rng = np.random.default_rng(11)
        specs = [
            DisorderSpec.uniform(-1, 1, u_law="adjacency"),
            DisorderSpec.cauchy(1.0, u_law="adjacency"),
        ]
        for t in range(25):
            w = int(rng.integers(1, 7))
            n = int(rng.integers(2, 33))
            e = float(rng.choice([0.0, 1.0, -1.0]))
            s = _sample(w, n, seed=100 + t, spec=specs[t % 2])
            direct = logdet_direct(assemble_hamiltonian(s, Region.rectangle(1, n, 1, w)), e)
            via_t = logdet_via_transfer(s, e, n)
            assert via_t.sign == direct.sign
            assert via_t.log_abs == pytest.approx(direct.log_abs, rel=1e-8)


class TestSchurRoute:
    def test_single_column(self):
        s = _sample(3, 1, seed=9)
        a = logdet_via_schur(s, 0.2, 1)
        b = logdet_via_transfer(s, 0.2, 1)
        assert a.sign == b.sign and a.log_abs == pytest.approx(b.log_abs, rel=1e-12)

    def test_w1_matches_three_term_recurrence_symbolically(self):
        # oracle: f_{k+1} = (v_{k+1} - E) f_k - f_{k-1} in exact arithmetic
        v1, v2, v3, e = sympy.symbols("v1 v2 v3 e")
        f0, f1 = sympy.Integer(1), v1 - e
        f2 = (v2 - e) * f1 - f0
        f3 = sympy.expand((v3 - e) * f2 - f1)
        vals = {v1: sympy.Rational(3, 2), v2: sympy.Rational(-1, 3), v3: sympy.Rational(7, 5), e: sympy.Rational(1, 4)}
        expected = float(f3.subs(vals))
        geo = StripGeometry(1, 1, 3)
        samp = DisorderSample(
            geometry=geo,
            u_law="zero",
            potentials=np.array([[1.5], [-1.0 / 3.0], [1.4]]),
        )
        got = logdet_via_schur(samp, 0.25, 3)
        assert got.sign == np.sign(expected)
        assert got.log_abs == pytest.approx(math.log(abs(expected)), rel=1e-10)

    def test_agrees_with_direct(self):
        rng = np.random.default_rng(13)
        for t in range(20):
            w = int(rng.integers(1, 5))
            n = int(rng.integers(2, 17))
            s = _sample(w, n, seed=300 + t)
            e = float(rng.uniform(-1, 1))
            direct = logdet_direct(assemble_hamiltonian(s, Region.rectangle(1, n, 1, w)), e)
            via_s = logdet_via_schur(s, e, n)
            assert via_s.sign == direct.sign
            assert via_s.log_abs == pytest.approx(direct.log_abs, rel=1e-8)

    def test_fallback_on_singular_block(self):
        # first block equals the energy, so B_1 is singular
        geo = StripGeometry(1, 1, 2)
        samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[0.5], [2.0]]))
        sld, fell_back = logdet_via_schur(samp, 0.5, 2, return_info=True)
        assert fell_back
        direct = logdet_direct(assemble_hamiltonian(samp, Region.rectangle(1, 2, 1, 1)), 0.5)
        assert sld.sign == direct.sign
        assert sld.log_abs == pytest.approx(direct.log_abs, rel=1e-10)

    def test_fallback_past_one_window_matches_dense(self):
        # V(1, 1) = E makes B_1 singular on a 300 x 2 strip with no vertical bonds
        sample = _sample(2, 300, seed=12, spec=DisorderSpec.uniform(-1, 1))
        potentials = sample.potentials.copy()
        potentials[0, 0] = 0.5
        samp = DisorderSample(geometry=sample.geometry, u_law="zero", potentials=potentials)
        sld, fell_back = logdet_via_schur(samp, 0.5, return_info=True)
        assert fell_back and sld.sign != 0
        assert sld == logdet_direct(_dense(samp), 0.5)


class TestSiteShift:
    def test_isolated_site(self):
        geo = StripGeometry(1, 1, 1)
        samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[4.2]]))
        region = Region.rectangle(1, 1, 1, 1)
        assert site_shift(samp, region, (1, 1), 0.8) == pytest.approx(0.8)

    def test_two_site_chain_formula(self):
        # xi_k = E + 1/(V_j - E) for a horizontal pair without coupling
        geo = StripGeometry(1, 1, 2)
        samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[0.9], [2.5]]))
        region = Region.rectangle(1, 2, 1, 1)
        e = 0.3
        xi = site_shift(samp, region, (1, 1), e)
        assert xi == pytest.approx(e + 1.0 / (2.5 - e), rel=1e-12)

    def test_peel_identity_random_regions(self):
        rng = np.random.default_rng(17)
        spec = DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=0.6)
        for t in range(15):
            w = int(rng.integers(2, 4))
            n = int(rng.integers(2, 6))
            geo = StripGeometry(w, 1, n)
            s = sample_disorder(geo, spec, seed=700 + t)
            full = Region.rectangle(1, n, 1, w)
            # random sub-region containing an interior target site
            sites = [site for site in full.sites if rng.random() < 0.8]
            if len(sites) < 2:
                continue
            region = Region.from_sites(sites)
            k = region.sites[int(rng.integers(0, region.size))]
            e = float(rng.uniform(-1, 1))
            try:
                xi = site_shift(s, region, k, e)
            except NearSingularError:
                continue
            lhs = logdet_direct(assemble_hamiltonian(s, region), e)
            rest = logdet_direct(assemble_hamiltonian(s, region.without_site(k)), e)
            rhs = SignedLogDet.from_value(s.potential(*k) - xi) * rest
            assert lhs.sign == rhs.sign
            assert lhs.log_abs == pytest.approx(rhs.log_abs, rel=1e-8)

    def test_near_singular_raises(self):
        # puncturing leaves a single site with V = E, an exactly singular block
        geo = StripGeometry(1, 1, 2)
        samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.array([[0.0], [0.5]]))
        region = Region.rectangle(1, 2, 1, 1)
        with pytest.raises(NearSingularError):
            site_shift(samp, region, (1, 1), 0.5)

    def test_near_singular_but_not_exact_raises(self):
        # E at an eigenvalue of the punctured 2-site chain, as eigvalsh returns it: singular to roundoff only
        samp = DisorderSample(geometry=StripGeometry(1, 1, 3), u_law="zero", potentials=np.array([[0.0], [0.3], [-0.2]]))
        region = Region.rectangle(1, 3, 1, 1)
        punctured = assemble_hamiltonian(samp, Region.rectangle(2, 3, 1, 1))
        for e in np.linalg.eigvalsh(punctured):
            shifted = punctured - e * np.eye(2)
            assert np.linalg.cond(shifted) > 1e14 and np.min(np.abs(np.linalg.eigvalsh(shifted))) > 0.0
            with pytest.raises(NearSingularError):
                site_shift(samp, region, (1, 1), float(e))
            assert math.isfinite(site_shift(samp, region, (1, 1), float(e) + 1e-3))


def _bareiss(rows):
    """Exact determinant of an integer matrix by fraction-free elimination (Bareiss, Math. Comp. 1968)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _exact_dets(value, u_law, width, energy, lengths):
    """Exact det(H_N - E) of a point-mass strip for each N in ``lengths``, as Python integers.

    Every column block is A = S - E = (value - E) I - U, an integer matrix.
    det(H_N - E) is the determinant of the top-left W x W block C_N of T^N,
    T = [[A, -I], [I, 0]], as route (b) reads it; the blocks follow
    C_n = A C_{n-1} - C_{n-2} from C_0 = I and C_{-1} = 0.
    """
    w = width
    a = [[(value - energy) * (i == j) - (u_law == "adjacency" and abs(i - j) == 1) for j in range(w)] for i in range(w)]
    prev, c, out = [[0] * w for _ in range(w)], [[int(i == j) for j in range(w)] for i in range(w)], {}
    for n in range(1, max(lengths) + 1):
        ac = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in a]
        prev, c = c, [[x - y for x, y in zip(r, q)] for r, q in zip(ac, prev)]
        if n in lengths:
            out[n] = _bareiss(c)
    return out


POINT_MASS_LAWS = [(0, "adjacency"), (0, "zero"), (1, "adjacency"), (1, "zero")]
WIDTHS_AND_ENERGIES = [(w, e) for w in range(1, 5) for e in range(-2, 3)]


class TestExactIntegerOracle:
    """Point-mass strips at an integer value and E have an integer H - E, whose determinant is exact.

    Route (a), both forms, routes (b) and (c) and ``sample_logdets`` must
    give sign 0 (-inf) exactly where det(H_N - E) = 0: for odd N, point mass
    0 at E = 1 on an adjacency strip of width 2 is singular (its spectrum is
    -2 cos(pi j / (N + 1)) +- 1), and so are the N = W adjacency strips whose
    last Schur block is singular only to roundoff.  Elsewhere the three
    routes must give the exact sign and ``sample_logdets`` the exact
    log|det|, within 1e-12.
    """

    LENGTHS = (1, 2, 3, 4, 5, 8, 11, 50, 301)

    def test_transfer_oracle_matches_bareiss(self):
        for (value, u_law), (width, energy) in itertools.product(POINT_MASS_LAWS, WIDTHS_AND_ENERGIES):
            exact = _exact_dets(value, u_law, width, energy, range(1, 7))
            sample = _strip_sample(DisorderSpec.point(float(value), u_law=u_law), width, 1, 6, 0)
            for n in range(1, 7):
                h = _dense(sample, n) - energy * np.eye(n * width)
                assert _bareiss(h.astype(int).tolist()) == exact[n]

    @pytest.mark.parametrize("value, u_law", POINT_MASS_LAWS)
    def test_routes_give_the_exact_determinant(self, value, u_law):
        spec = DisorderSpec.point(float(value), u_law=u_law)
        singular = 0
        for width, energy in WIDTHS_AND_ENERGIES:
            exact = _exact_dets(value, u_law, width, energy, self.LENGTHS)
            geo = StripGeometry(width, 1, max(self.LENGTHS))
            sample = sample_disorder(geo, spec, seed=0)
            for n in self.LENGTHS:
                det, e = exact[n], float(energy)
                direct = [logdet_direct(sample, e, n_steps=n), logdet_direct(_dense(sample, n), e)]
                (sampled,), excluded = sample_logdets(spec, geo, Region.rectangle(1, n, 1, width), e, 1, 1)
                if det == 0:
                    singular += 1
                    others = [logdet_via_transfer(sample, e, n), logdet_via_schur(sample, e, n)]
                    assert [r.sign for r in direct + others] == [0, 0, 0, 0], (width, energy, n)
                    assert sampled == -math.inf and excluded == 1, (width, energy, n)
                    continue
                sign, log_abs = (1 if det > 0 else -1), math.log(abs(det))
                for r in direct + [logdet_via_transfer(sample, e, n), logdet_via_schur(sample, e, n)]:
                    assert r.sign == sign and r.log_abs == pytest.approx(log_abs, rel=1e-12, abs=1e-12), (width, energy, n)
                assert excluded == 0 and sampled == pytest.approx(log_abs, rel=1e-12, abs=1e-12), (width, energy, n)
        assert singular

    def test_sampler_gives_the_exact_determinant_on_long_strips(self):
        singular = 0
        for (value, u_law), (width, energy) in itertools.product(POINT_MASS_LAWS, WIDTHS_AND_ENERGIES):
            spec = DisorderSpec.point(float(value), u_law=u_law)
            for n, det in _exact_dets(value, u_law, width, energy, (500, 1000)).items():
                (sampled,), excluded = sample_logdets(spec, StripGeometry(width, 1, n), Region.rectangle(1, n, 1, width), float(energy), 1, 1)
                if det == 0:
                    singular += 1
                    assert sampled == -math.inf and excluded == 1, (value, u_law, width, energy, n)
                else:
                    assert excluded == 0 and sampled == pytest.approx(math.log(abs(det)), rel=1e-12, abs=1e-12), (value, u_law, width, energy, n)
        assert singular
