import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplyap.model import (
    ConfigurationError, DisorderSample, DisorderSpec, Region, StripGeometry, assemble_hamiltonian, s_matrix, sample_disorder
)
from striplyap import transfer
from striplyap.determinants import logdet_direct, logdet_via_transfer
from striplyap.transfer import (
    CocycleAccumulator,
    NumericError,
    accumulate,
    lyapunov_spectrum,
    one_step,
    recurrence_check,
    shadow_product,
    symplectic_defect,
    symplectic_form,
)

GOLDEN = np.log((3.0 + np.sqrt(5.0)) / 2.0)


def _const_sample(columns, width=1, value=0.0, u_law="zero"):
    geo = StripGeometry(width, 1, columns)
    return DisorderSample(
        geometry=geo, u_law=u_law, potentials=np.full((columns, width), value)
    )


def test_one_step_examples():
    assert np.array_equal(one_step(np.array([[0.0]]), 0.0), np.array([[0.0, -1.0], [1.0, 0.0]]))
    stack = np.random.default_rng(2).normal(size=(3, 4, 2, 2))
    assert np.array_equal(one_step(stack, 0.3)[1, 2], one_step(stack[1, 2], 0.3))
    t = one_step(np.array([[2.5]]), 1.0)
    assert np.array_equal(t, np.array([[1.5, -1.0], [1.0, 0.0]]))
    assert np.linalg.det(t) == pytest.approx(1.0)
    stack = np.random.default_rng(4).normal(size=(5, 3, 3))
    eye, zero = np.broadcast_to(np.eye(3), stack.shape), np.zeros(stack.shape)
    for energy in (0.0, 0.7, -1.3):
        assert np.array_equal(one_step(stack, energy), np.block([[stack - energy * eye, -eye], [eye, zero]]))


@given(st.integers(0, 1000))
def test_one_step_unit_determinant(seed):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, 4))
    a = rng.uniform(-2, 2, size=(w, w))
    s = (a + a.T) / 2
    t = one_step(s, float(rng.uniform(-2, 2)))
    assert abs(np.linalg.det(t) - 1.0) < 1e-12


def test_empty_accumulator_is_identity():
    acc = CocycleAccumulator.identity(2)
    assert np.array_equal(acc.frame, np.eye(4))
    assert np.array_equal(acc.log_radii, np.zeros(4))
    assert acc.steps == 0


def test_accumulate_composition_chaining():
    geo = StripGeometry(2, 1, 20)
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    sample = sample_disorder(geo, spec, seed=4)
    full = accumulate(sample, 0.3, 20)
    first = accumulate(sample, 0.3, 12)
    chained = accumulate(sample, 0.3, 8, start=12, init=first)
    assert np.allclose(full.log_radii, chained.log_radii, atol=1e-8)
    assert np.allclose(full.frame, chained.frame, atol=1e-8)


def test_small_product_frame_and_radii_match_dense_qr():
    # oracle: naive dense product P = Q R with diag R > 0; QR is unique, so
    # frame must be Q and log_radii must be log diag R
    for width, n, seed in [(1, 6, 0), (2, 8, 1), (3, 10, 2)]:
        geo = StripGeometry(width, 1, n)
        spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
        sample = sample_disorder(geo, spec, seed=seed)
        acc = accumulate(sample, 0.4, n)
        dense = np.eye(2 * width)
        for k in range(1, n + 1):
            dense = one_step(s_matrix(sample, k), 0.4) @ dense
        q, r = np.linalg.qr(dense)
        signs = np.sign(np.diag(r))
        oracle_frame, oracle_radii = q * signs, np.log(np.abs(np.diag(r)))
        assert np.max(np.abs(acc.frame - oracle_frame)) < 1e-8
        assert np.max(np.abs(acc.log_radii - oracle_radii) / np.maximum(np.abs(oracle_radii), 1.0)) < 1e-8


def test_constant_hyperbolic_radii():
    # closed form: top eigenvalue of [[3, -1], [1, 0]] is (3+sqrt(5))/2
    sample = _const_sample(50)
    acc = accumulate(sample, -3.0, 50)  # S - E = 0 - (-3) = 3
    # raw radii carry an O(1)/N transient; the windowed estimator removes it
    assert abs(acc.log_radii[0] / 50 - GOLDEN) < 1e-2
    spec = DisorderSpec.point(0.0)
    spect = lyapunov_spectrum(spec, StripGeometry(1, 1, 1), 3.0, 50, seed=1)
    assert abs(spect.exponents[0] - GOLDEN) < 1e-6


def test_lyapunov_closed_forms():
    spec = DisorderSpec.point(0.0)
    geo = StripGeometry(1, 1, 1)
    hyper = lyapunov_spectrum(spec, geo, 3.0, 4000, seed=1)
    assert abs(hyper.exponents[0] - GOLDEN) < 1e-3
    elliptic = lyapunov_spectrum(spec, geo, 0.0, 4000, seed=1)
    assert abs(elliptic.exponents[0]) < 1e-3


def test_lyapunov_radii_pairing():
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    spect = lyapunov_spectrum(spec, StripGeometry(2, 1, 1), 0.0, 4000, seed=3)
    paired = spect.radii + spect.radii[::-1]
    assert np.all(np.abs(paired) < 5e-2 * spect.n_steps)


def test_lyapunov_minimum_steps():
    spec = DisorderSpec.point(0.0)
    with pytest.raises(ConfigurationError):
        lyapunov_spectrum(spec, StripGeometry(1, 1, 1), 0.0, 8, seed=1)


def test_lyapunov_spectrum_deterministic():
    spec = DisorderSpec.cauchy(0.5, u_law="adjacency")
    a = lyapunov_spectrum(spec, StripGeometry(2, 1, 1), 0.5, 2000, seed=9)
    b = lyapunov_spectrum(spec, StripGeometry(2, 1, 1), 0.5, 2000, seed=9)
    assert np.array_equal(a.exponents, b.exponents)
    assert np.array_equal(a.stderr, b.stderr)


def test_symplectic_defect_examples():
    j = symplectic_form(2)
    assert symplectic_defect(j) == 0.0
    t = one_step(np.array([[0.7, -0.2], [-0.2, 1.1]]), 0.3)
    assert symplectic_defect(t) < 1e-12
    # product of 100 bounded factors: defect small relative to the growth factor
    geo = StripGeometry(2, 1, 100)
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    sample = sample_disorder(geo, spec, seed=8)
    dense = np.eye(4)
    for k in range(1, 101):
        dense = one_step(s_matrix(sample, k), 0.0) @ dense
    acc = accumulate(sample, 0.0, 100)
    growth = np.exp(2 * acc.log_radii[0])
    assert symplectic_defect(dense) < 1e-6 * growth


def test_recurrence_single_factor():
    sample = _const_sample(1, width=2, value=0.3)
    gap = recurrence_check(sample, 0.1, 1, np.array([1.0, -2.0, 0.5, 0.0]))
    assert gap < 1e-14


def test_recurrence_linear_solution():
    # V = 0, E = -2 makes S - E = 2, so psi_{k+1} = 2 psi_k - psi_{k-1} (linear growth)
    sample = _const_sample(30)
    gap = recurrence_check(sample, -2.0, 30, np.array([1.0, 1.0]))
    assert gap < 1e-10
    # explicit solution: psi_k = k for initial (psi_1, psi_0) = (1, 0)
    psi_prev, psi_cur = 0.0, 1.0
    for _ in range(30):
        psi_cur, psi_prev = 2 * psi_cur - psi_prev, psi_cur
    assert psi_cur == pytest.approx(31.0)


def test_recurrence_random_sample():
    geo = StripGeometry(3, 1, 20)
    spec = DisorderSpec.uniform(-1.2, 1.2, u_law="random_band", coupling=0.5)
    sample = sample_disorder(geo, spec, seed=21)
    init = np.arange(1.0, 7.0)
    gap = recurrence_check(sample, 0.7, 20, init)
    # compare against the solution magnitude
    v = init.copy()
    for k in range(1, 21):
        v = one_step(s_matrix(sample, k), 0.7) @ v
    assert gap < 1e-8 * np.linalg.norm(v)


def test_shadow_product_matches_dense_minor():
    geo = StripGeometry(2, 1, 12)
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    sample = sample_disorder(geo, spec, seed=5)
    frame = np.zeros((4, 2))
    frame[0, 0] = frame[2, 1] = 1.0
    sh = shadow_product(sample, 0.2, 12, frame)
    dense = np.eye(4)
    for k in range(1, 13):
        dense = one_step(s_matrix(sample, k), 0.2) @ dense
    target = dense @ frame
    rows = [0, 1]
    minor_dense = np.linalg.det(target[rows, :])
    minor_shadow = np.linalg.det(sh.frame[rows, :]) * np.exp(np.sum(sh.log_radii))
    assert minor_shadow == pytest.approx(minor_dense, rel=1e-10)


@pytest.mark.parametrize(
    "width, bandwidth, spec",
    [
        (2, 1, DisorderSpec.uniform(-1, 1, u_law="adjacency")),
        (3, 2, DisorderSpec.uniform(-1.2, 1.2, u_law="random_band", coupling=0.5)),
    ],
)
def test_lyapunov_radii_are_the_accumulated_radii(width, bandwidth, spec):
    # lyapunov_spectrum and accumulate run the same product, bit for bit
    n, seed = 400, 8
    spectrum = lyapunov_spectrum(spec, StripGeometry(width, bandwidth, 1), 0.3, n, seed)
    acc = accumulate(sample_disorder(StripGeometry(width, bandwidth, n), spec, seed), 0.3, n)
    assert np.array_equal(spectrum.radii, acc.log_radii)


def test_non_finite_potential_raises_numeric_error():
    pot = np.zeros((6, 2))
    pot[3, 1] = np.inf
    sample = DisorderSample(geometry=StripGeometry(2, 1, 6), u_law="adjacency", potentials=pot)
    runs = (
        lambda: accumulate(sample, 0.1, 6),
        lambda: shadow_product(sample, 0.1, 6, np.eye(4)[:, :2]),
        lambda: logdet_via_transfer(sample, 0.1),
    )
    for run in runs:
        with pytest.raises(NumericError, match="non-finite"):
            run()


STRIP_CASES = [
    (2, 1, DisorderSpec.uniform(-1, 1, u_law="adjacency")),
    (3, 2, DisorderSpec.uniform(-1.2, 1.2, u_law="random_band", coupling=0.5)),
]


@pytest.mark.parametrize("width, bandwidth, spec", STRIP_CASES)
@pytest.mark.parametrize("n", [1, 12, 63])
def test_short_products_match_per_step_oracle(width, bandwidth, spec, n):
    # products shorter than one block run one QR per step, bit for bit as this loop
    energy = 0.3
    sample = sample_disorder(StripGeometry(width, bandwidth, n), spec, seed=13)
    q, radii, signs = np.eye(2 * width), np.zeros(2 * width), np.ones(2 * width)
    for k in range(1, n + 1):
        q, r = np.linalg.qr(one_step(s_matrix(sample, k), energy) @ q)
        d = np.diagonal(r)
        radii += np.log(np.abs(d))
        signs *= np.copysign(1.0, d)
    acc = accumulate(sample, energy, n)
    assert np.array_equal(acc.frame, q * signs)
    assert np.array_equal(acc.log_radii, radii)


BLOCKED_CASES = {
    "uniform": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 1, 0.0),
    "cauchy": (DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency"), 1, 0.5),
    "resonant": (DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency"), 1, 0.0),
    "random_band": (DisorderSpec.uniform(-1.2, 1.2, u_law="random_band", coupling=0.5), 2, 0.5),
    "point": (DisorderSpec.point(0.0, u_law="adjacency"), 1, 0.3),
}


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("name", sorted(BLOCKED_CASES))
def test_blocked_transfer_route_matches_dense(name, width):
    spec, bandwidth, energy = BLOCKED_CASES[name]
    n = 300
    sample = sample_disorder(StripGeometry(width, bandwidth, n), spec, seed=31)
    direct = logdet_direct(assemble_hamiltonian(sample, Region.rectangle(1, n, 1, width)), energy)
    transfer = logdet_via_transfer(sample, energy)
    assert transfer.sign == direct.sign != 0
    assert abs(transfer.log_abs - direct.log_abs) <= 1e-9 * max(1.0, abs(direct.log_abs))


UNIMODULAR_LAWS = {
    "point 0": (DisorderSpec.point(0.0, u_law="adjacency"), 1),
    "point 1": (DisorderSpec.point(1.0, u_law="adjacency"), 1),
    "uniform": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 1),
    "random_band": (DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0), 2),
}


@pytest.mark.parametrize("name", sorted(UNIMODULAR_LAWS))
def test_sweep_keeps_the_product_unimodular(name):
    # sum(log_radii) is log|det T_N| = 0; a block's QR may lose about e^20 eps of it (the doubling budget on |B|_F^2),
    # so the bound is one budget per started 64-step block.  The worst drift here is 2.9e-7, point 1 at W = 4, N = 1000.
    spec, bandwidth = UNIMODULAR_LAWS[name]
    for width, n, energy in itertools.product((1, 2, 4, 8), (10, 64, 300, 1000), (0.0, 0.3, 1.0)):
        sample = sample_disorder(StripGeometry(width, min(bandwidth, width), n), spec, seed=3)
        drift = abs(float(np.sum(accumulate(sample, energy, n).log_radii)))
        assert drift <= -(-n // 64) * transfer._FROB_SQ_BUDGET * np.finfo(float).eps, (width, n, energy, drift)


@pytest.mark.parametrize("width, bandwidth, spec", STRIP_CASES)
def test_lyapunov_checkpoints_inside_blocks(width, bandwidth, spec):
    # the burn-in target N // 8 = 125 moves up to the recorded step 128, a block end of the main chain
    n, seed, energy = 1000, 5, 0.3
    spectrum = lyapunov_spectrum(spec, StripGeometry(width, bandwidth, 1), energy, n, seed)
    assert spectrum.burn_in == 128
    sample = sample_disorder(StripGeometry(width, bandwidth, n), spec, seed)
    growth = (accumulate(sample, energy, n).log_radii - accumulate(sample, energy, 128).log_radii) / (n - 128)
    expected = np.sort(growth[:width])[::-1]
    assert np.allclose(spectrum.exponents, expected, rtol=1e-12, atol=0.0)


QR_COUNT_LAWS = {
    "criterion 11": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 2, 1, 0.0),
    "cauchy": (DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency"), 2, 1, 0.5),
    "resonant": (DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency"), 2, 1, 0.0),
    "random_band": (DisorderSpec.uniform(-1.2, 1.2, u_law="random_band", coupling=0.5), 3, 2, 0.5),
}


@pytest.mark.parametrize("name", sorted(QR_COUNT_LAWS))
def test_lyapunov_spectrum_runs_the_accumulated_chain_only(name, monkeypatch):
    # burn-in and block edges come from the main chain: not one QR more than accumulate
    spec, width, bandwidth, energy = QR_COUNT_LAWS[name]
    n, seed = 5000, 8  # two windows and an 8-step tail
    calls = []
    step = transfer._qr_step
    monkeypatch.setattr(transfer, "_qr_step", lambda *args: calls.append(1) or step(*args))
    spectrum = lyapunov_spectrum(spec, StripGeometry(width, bandwidth, 1), energy, n, seed)
    spectrum_calls = len(calls)
    calls.clear()
    acc = accumulate(sample_disorder(StripGeometry(width, bandwidth, n), spec, seed), energy, n)
    assert spectrum_calls == len(calls)
    assert np.array_equal(spectrum.radii, acc.log_radii)


@pytest.mark.parametrize("n, n_blocks", [(64, 1), (65, 1), (128, 1), (129, 1), (192, 2), (50_000, 64)])
def test_lyapunov_error_bars_need_two_blocks(n, n_blocks):
    # one bootstrap block has no spread to measure: its error bar is undefined, not roundoff
    spectrum = lyapunov_spectrum(DisorderSpec.uniform(-1, 1, u_law="adjacency"), StripGeometry(1, 1, 1), 0.3, n, seed=3)
    assert spectrum.n_blocks == n_blocks
    if n_blocks < 2:
        assert np.all(np.isnan(spectrum.stderr))
    else:
        assert np.all(spectrum.stderr > 0.0)


QR_KERNEL_LAWS = {
    "cauchy": (DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency"), 0.5),
    "resonant": (DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency"), 0.0),
    "point": (DisorderSpec.point(0.0, u_law="adjacency"), 0.3),
    "uniform": (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), 0.0),
}


def _kernel_inputs(spec, width, energy, n=64, seed=17):
    """(m, q) pairs as a sweep meets them: each step on the running frame, each doubled block of 2 to 64 steps on one."""
    sample = sample_disorder(StripGeometry(width, 1, n), spec, seed)
    mats = one_step(np.stack([s_matrix(sample, k) for k in range(1, n + 1)]), energy)
    q, frames = np.eye(2 * width), []
    for m in mats:
        frames.append(q)
        q, _ = np.linalg.qr(m @ q)
    pairs, prods = list(zip(mats, frames)), mats
    while len(prods) > 1:
        prods = prods[1::2] @ prods[0::2]
        pairs.extend(zip(prods, frames))
    return pairs


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("name", sorted(QR_KERNEL_LAWS))
def test_qr_kernel_is_numpy_qr_bit_for_bit(name, width):
    spec, energy = QR_KERNEL_LAWS[name]
    for m, q in _kernel_inputs(spec, width, energy):
        for frame in (q, q[:, :width], np.asfortranarray(q)):
            d = np.empty(frame.shape[1])
            got = transfer._qr_step(m, frame, d, transfer._lwork(*frame.shape))
            q_ref, r_ref = np.linalg.qr(m @ frame)
            assert np.array_equal(got, q_ref)
            assert np.array_equal(d, np.diagonal(r_ref))


WIDE_QR = """
import json
import numpy as np
from striplyap import transfer
unequal = []
for n in range(129, 301):
    rng = np.random.default_rng(n)
    m, (q, _) = rng.standard_normal((n, n)), np.linalg.qr(rng.standard_normal((n, n)))
    for frame in (q, q[:, : n // 2]):
        d = np.empty(frame.shape[1])
        got = transfer._qr_step(m, frame, d, transfer._lwork(*frame.shape))
        q_ref, r_ref = np.linalg.qr(m @ frame)
        if not (np.array_equal(got, q_ref) and np.array_equal(d, np.diagonal(r_ref))):
            unequal.append(frame.shape)
print(json.dumps(unequal))
"""


def test_qr_kernel_is_numpy_qr_bit_for_bit_past_the_blocking_crossover(tmp_path):
    # past 128 columns LAPACK runs blocked code, whose panel width follows the work size.  One BLAS
    # thread: a threaded BLAS splits the panel updates by thread count, so np.linalg.qr alone is not
    # reproducible across thread counts there.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", WIDE_QR], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def _per_qr_sweep(sample, energy, n_steps, frame):
    """The blocked sweep one QR at a time: radii += log|d| and signs *= sign d per QR, the record written per block."""
    q, radii, signs = frame, np.zeros(frame.shape[1]), np.ones(frame.shape[1])
    record = [radii.copy()]
    for w0 in range(0, n_steps, 4096):
        n = min(4096, n_steps - w0)
        mats = one_step(np.stack([s_matrix(sample, k) for k in range(w0 + 1, w0 + n + 1)]), energy)
        n_full = n - n % 64
        prods, span = mats[:n_full], 1
        while span < 64:
            doubled = prods[1::2] @ prods[0::2]
            if not np.all(np.einsum("kij,kij->k", doubled, doubled) <= np.exp(20.0)):
                break
            prods, span = doubled, 2 * span
        for b, m in enumerate([*prods, *mats[n_full:]], 1):
            q, r = np.linalg.qr(m @ q)
            d = np.diagonal(r)
            radii += np.log(np.abs(d))
            signs *= np.copysign(1.0, d)
            if b > len(prods) or b * span % 64 == 0:
                record.append(radii.copy())
    return q * signs, radii, np.array(record)


@pytest.mark.parametrize("n", [63, 64, 4095, 4096, 4097, 8192 + 37])
@pytest.mark.parametrize("name", sorted(QR_COUNT_LAWS))
def test_window_reduction_matches_per_qr_accumulation(name, n):
    # the pivot table's sign product, log and in-order cumulative sum are the per-QR updates, bit for bit
    spec, width, bandwidth, energy = QR_COUNT_LAWS[name]
    sample = sample_disorder(StripGeometry(width, bandwidth, n), spec, seed=19)
    for k in (2 * width, width):
        frame = np.eye(2 * width)[:, :k]
        got = transfer._sweep(sample, energy, 0, n, frame, np.zeros(k))
        for a, b in zip(got, _per_qr_sweep(sample, energy, n, frame)):
            assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")
def test_rank_deficient_init_frame_raises_at_once():
    sample = sample_disorder(StripGeometry(2, 1, 12), DisorderSpec.uniform(-1, 1, u_law="adjacency"), seed=5)
    for frame in (np.eye(4)[:, [0, 0]], np.zeros((4, 2)), np.eye(4)[:, [1, 2, 1]]):
        with pytest.raises(NumericError, match="rank-deficient"):
            shadow_product(sample, 0.2, 12, frame)
    with pytest.raises(ConfigurationError, match="2W x k"):
        shadow_product(sample, 0.2, 12, np.ones((4, 5)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [40, 5000])
def test_rank_deficient_step_raises_at_the_end_of_its_window(n):
    # the pivots are checked before any log is taken, so log(0) never warns
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    sample = sample_disorder(StripGeometry(2, 1, n), spec, seed=5)
    with pytest.raises(NumericError, match="rank-deficient step"):
        transfer._sweep(sample, 0.2, 0, n, np.zeros((4, 2)), np.zeros(2))
    pot = sample.potentials.copy()
    pot[n - 3, 1] = np.nan
    sample = DisorderSample(geometry=sample.geometry, u_law="adjacency", potentials=pot)
    with pytest.raises(NumericError, match="non-finite transfer matrix entries"):
        transfer._sweep(sample, 0.2, 0, n, np.eye(4), np.zeros(4))


def test_lyapunov_point_mass_has_no_spread():
    # every step is the same hyperbolic matrix, so every block grows at the same rate up to roundoff
    spectrum = lyapunov_spectrum(DisorderSpec.point(0.0), StripGeometry(1, 1, 1), 3.0, 10_000, seed=7)
    assert spectrum.stderr[0] <= 1e-12
    assert spectrum.exponents[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert spectrum.burn_in == 1280
