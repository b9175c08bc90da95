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


def test_lyapunov_point_mass_has_no_spread():
    # every step is the same hyperbolic matrix, so every block grows at the same rate up to roundoff
    spectrum = lyapunov_spectrum(DisorderSpec.point(0.0), StripGeometry(1, 1, 1), 3.0, 10_000, seed=7)
    assert spectrum.stderr[0] <= 1e-12
    assert spectrum.exponents[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert spectrum.burn_in == 1280
