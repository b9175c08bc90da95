import math
import warnings

import numpy as np
import pytest

from striplyap.logpotential import (
    EmpiricalMeasure,
    IntervalSpec,
    QuadratureWarning,
    conditional_potential,
    interval_l2_norm,
    interval_variance,
    log_potential,
    potential_function,
    site_shift_samples,
    split_measure,
    variance_growth_experiment,
)
from striplyap.determinants import site_shift
from striplyap.model import ConfigurationError, DisorderSample, DisorderSpec, Region, StripGeometry, draw_chunk
from striplyap.sampling import sample_logdets, sample_resolvent_entries, sample_site_shifts
from striplyap.statistics import linear_fit


def uniform_log_var(ratio: float) -> float:
    """Variance of log under the uniform law on [1, ratio] (scale invariant)."""
    l = ratio - 1.0
    m1 = (ratio * (math.log(ratio) - 1.0) + 1.0) / l
    m2 = (ratio * (math.log(ratio) ** 2 - 2.0 * math.log(ratio) + 2.0) - 2.0) / l
    return m2 - m1 * m1


def test_log_potential_point_mass():
    mu = EmpiricalMeasure(atoms=np.array([0.0]))
    assert log_potential(mu, math.e) == pytest.approx(1.0)


def test_log_potential_symmetric_pair():
    mu = EmpiricalMeasure(atoms=np.array([-1.0, 1.0]))
    assert log_potential(mu, 0.0) == pytest.approx(0.0)


def test_log_potential_uniform_sample_matches_integral():
    # midpoint quantiles of the uniform law: Riemann sum error is O(n^-2)
    n = 10_000
    atoms = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    mu = EmpiricalMeasure(atoms=atoms)
    target = (3.0 * math.log(3.0) - 2.0) / 2.0
    assert abs(log_potential(mu, 2.0) - target) < 1e-3


def test_log_potential_atom_collision():
    mu = EmpiricalMeasure(atoms=np.array([0.5, 1.5]))
    assert log_potential(mu, 0.5) == -math.inf


def test_log_potential_vectorized():
    mu = EmpiricalMeasure(atoms=np.array([0.0, 2.0]))
    u = potential_function(mu)
    xs = np.array([1.0, 3.0])
    out = u(xs)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(0.0)


def test_measure_mass_validation():
    with pytest.raises(ConfigurationError):
        EmpiricalMeasure(atoms=np.array([0.0, 1.0]), weights=np.array([0.9, 0.9]))
    sub = EmpiricalMeasure(atoms=np.array([0.0, 1.0]), weights=np.array([0.25, 0.25]))
    assert sub.mass == pytest.approx(0.5)
    assert sub.tail_mass(0.5) == pytest.approx(0.25)


def test_interval_variance_constant():
    assert interval_variance(lambda x: np.full_like(x, 3.7), IntervalSpec(0.0, 2.0)) == pytest.approx(0.0, abs=1e-14)


def test_interval_variance_log_from_zero():
    var = interval_variance(lambda x: np.log(np.abs(x)), IntervalSpec(0.0, 5.0), singular_points=(0.0,))
    assert abs(var - 1.0) < 1e-4


def test_interval_variance_matches_closed_form():
    for ratio in (1e2, 1e3, 1e4):
        var = interval_variance(lambda x: np.log(np.abs(x)), IntervalSpec(1.0, ratio))
        assert var == pytest.approx(uniform_log_var(ratio), rel=1e-8)


def test_interval_variance_ratio_trend():
    # larger interval ratios push the variance toward 1 monotonically
    gaps = [
        abs(interval_variance(lambda x: np.log(np.abs(x)), IntervalSpec(1.0, r)) - 1.0)
        for r in (1e2, 1e3, 1e4)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_interval_variance_warns_on_hard_integrand():
    rng = np.random.default_rng(0)
    jagged = lambda x: np.sin(1e4 * x) * np.log(np.abs(x - 0.371) + 1e-300)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        interval_variance(jagged, IntervalSpec(0.0, 1.0, nodes=2), max_doublings=1)
    assert any(issubclass(w.category, QuadratureWarning) for w in captured)


def test_site_shift_samples_isolated_site():
    geo = StripGeometry(1, 1, 1)
    spec = DisorderSpec.uniform(-1, 1)
    region = Region.rectangle(1, 1, 1, 1)
    mu, failed = site_shift_samples(spec, geo, region, (1, 1), 0.7, 200, seed=1)
    assert failed == 0
    assert np.all(mu.atoms == 0.7)


def test_site_shift_samples_two_site_formula():
    # oracle: xi = E + 1/(V_j - E) for the horizontal pair
    geo = StripGeometry(1, 1, 2)
    spec = DisorderSpec.uniform(2.0, 3.0)
    region = Region.rectangle(1, 2, 1, 1)
    e = 0.5
    mu, failed = site_shift_samples(spec, geo, region, (1, 1), e, 500, seed=3)
    assert failed == 0
    lo = e + 1.0 / (3.0 - e)
    hi = e + 1.0 / (2.0 - e)
    assert np.all((mu.atoms >= lo - 1e-12) & (mu.atoms <= hi + 1e-12))


PEEL_CASES = [
    (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), StripGeometry(2, 1, 20), (9, 2)),
    (DisorderSpec.cauchy(1.0, u_law="random_band", coupling=0.8), StripGeometry(4, 2, 10), (5, 2)),
    # past 45 sites, where the draws once depended on the region's size
    (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), StripGeometry(2, 1, 23), (12, 1)),
    (DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency"), StripGeometry(2, 1, 40), (12, 1)),
    (DisorderSpec.cauchy(1.0, u_law="random_band", coupling=0.8), StripGeometry(4, 2, 12), (6, 2)),
]


@pytest.mark.parametrize("spec, geo, k", PEEL_CASES)
def test_site_shift_peel_across_kernels(spec, geo, k):
    # det(H - E) = (V_k - xi) det(H without k - E) pointwise, so the kernels
    # must see the same realization for every (seed, sample index), whatever
    # the region's size; draw_chunk reproduces the 4096 samples
    n, seed, energy = 4096, 17, 0.3
    region = Region.rectangle(1, geo.columns, 1, geo.width)
    full, _ = sample_logdets(spec, geo, region, energy, n, seed)
    rest, _ = sample_logdets(spec, geo, region.without_site(k), energy, n, seed)
    xi, n_failed = sample_site_shifts(spec, geo, region, k, energy, n, seed)
    pot, _ = draw_chunk(spec, geo, 0, n, seed)
    assert n_failed == 0
    gap = np.abs(full - rest - np.log(np.abs(pot[:, k[0] - 1, k[1] - 1] - xi)))
    assert np.max(gap) < 1e-9


@pytest.mark.parametrize("spec, geo, k", PEEL_CASES)
def test_sample_site_shifts_match_site_shift(spec, geo, k):
    # the batched kernel and the one-sample call on the same draws
    n, seed, energy = 64, 17, 0.3
    region = Region.rectangle(1, geo.columns, 1, geo.width)
    xi, n_failed = sample_site_shifts(spec, geo, region, k, energy, n, seed)
    pot, u_band = draw_chunk(spec, geo, 0, n, seed)
    assert n_failed == 0
    for i in range(n):
        sample = DisorderSample(geo, spec.u_law, pot[i], None if u_band is None else u_band[i])
        assert xi[i] == pytest.approx(site_shift(sample, region, k, energy), rel=1e-12)


def test_site_shift_tail_decay():
    # the law of the shift has tails no heavier than R^(-1/3)
    geo = StripGeometry(2, 1, 3)
    spec = DisorderSpec.cauchy(1.0, u_law="adjacency")
    region = Region.rectangle(1, 3, 1, 2)
    mu, _ = site_shift_samples(spec, geo, region, (2, 1), 0.0, 20_000, seed=5)
    worst = 0.0
    for r in (2.0, 4.0, 8.0, 16.0, 32.0):
        worst = max(worst, mu.tail_mass(r) * r ** (1.0 / 3.0))
    assert worst < 2.0


def test_resolvent_entry_tail():
    # entry tails of the resolvent decay like D0/T
    geo = StripGeometry(2, 1, 3)
    spec = DisorderSpec.uniform(-2, 2, u_law="adjacency")
    region = Region.rectangle(1, 3, 1, 2)
    vals = sample_resolvent_entries(spec, geo, region, (1, 1), (2, 2), 0.0, 20_000, seed=6)
    vals = np.abs(vals[np.isfinite(vals)])
    n = len(vals)
    d0 = spec.sup_density
    for t in (4.0, 8.0, 16.0, 32.0):
        frac = float(np.mean(vals >= t))
        bound = 4.0 * d0 / t
        sigma = math.sqrt(bound * (1 - bound) / n)
        assert frac <= bound + 3 * sigma


def test_conditional_potential_single_site():
    geo = StripGeometry(1, 1, 1)
    spec = DisorderSpec.uniform(-1, 1)
    region = Region.rectangle(1, 1, 1, 1)
    u = conditional_potential(spec, geo, region, (1, 1), 0.4, 100, seed=2)
    xs = np.array([1.7, -0.3, 5.0])
    assert np.allclose(u(xs), np.log(np.abs(xs - 0.4)))


def test_conditional_potential_interval_variance_bound():
    # the potential of the shift law keeps variance >= 1/8 on dyadic intervals
    geo = StripGeometry(2, 1, 3)
    spec = DisorderSpec.cauchy(1.0, u_law="adjacency")
    region = Region.rectangle(1, 3, 1, 2)
    u = conditional_potential(spec, geo, region, (2, 1), 0.0, 4000, seed=7)
    r0 = 10.0
    var = interval_variance(u, IntervalSpec(10.0 * r0, 1000.0 * r0), tol=1e-5)
    assert var >= 0.125


def test_split_measure_cauchy_schwarz_step():
    geo = StripGeometry(2, 1, 3)
    spec = DisorderSpec.cauchy(1.0, u_law="adjacency")
    region = Region.rectangle(1, 3, 1, 2)
    mu, _ = site_shift_samples(spec, geo, region, (2, 1), 0.0, 4000, seed=8)
    r0 = 20.0
    inner, outer = split_measure(mu, r0)
    assert inner.mass + outer.mass == pytest.approx(mu.mass)
    tail = mu.tail_mass(r0)
    xs = np.linspace(100.0, 10_000.0, 64)
    u2 = log_potential(outer, xs)
    w = mu.weight_array()
    sq = np.sqrt(np.array([np.sum(w * np.log(np.abs(x - mu.atoms)) ** 2) for x in xs]))
    assert np.all(np.abs(u2) <= math.sqrt(tail) * sq + 1e-9)


def test_potential_moment_bound_shape():
    # |u| stays within a small multiple of max(1, log M, -log|I|, log C0, log C1)
    geo = StripGeometry(2, 1, 3)
    spec = DisorderSpec.cauchy(1.0, u_law="adjacency")
    region = Region.rectangle(1, 3, 1, 2)
    mu, _ = site_shift_samples(spec, geo, region, (2, 1), 0.0, 4000, seed=9)
    c0 = max(np.max(np.abs(mu.atoms) * 0 + 1.0), 1.0)
    for r in (4.0, 16.0, 64.0):
        c0 = max(c0, mu.tail_mass(r) * r)
    u = potential_function(mu)
    for lo, hi in [(2.0, 3.0), (50.0, 51.0), (0.1, 0.11), (1000.0, 2000.0)]:
        norm = interval_l2_norm(u, IntervalSpec(lo, hi))
        cap = max(1.0, math.log(hi), -math.log(hi - lo), math.log(max(c0, 1.0)))
        assert norm <= 10.0 * cap


def test_moment_growth_of_absolute_logdet():
    # m-th moment roots of |log det| grow at most linearly in m
    geo = StripGeometry(2, 1, 6)
    spec = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
    region = Region.rectangle(1, 6, 1, 2)
    vals, _ = sample_logdets(spec, geo, region, 0.0, 20_000, seed=10)
    x = np.abs(vals[np.isfinite(vals)])
    norms = [float(np.mean(x**m)) ** (1.0 / m) for m in range(1, 7)]
    ratios = [norms[m - 1] / m for m in range(1, 7)]
    assert max(ratios) <= 3.0 * ratios[1] + 1e-9


def test_variance_growth_point_mass():
    geo = StripGeometry(2, 1, 8)
    spec = DisorderSpec.point(0.3, u_law="adjacency")
    shapes = [Region.rectangle(1, 4, 1, 2), Region.rectangle(1, 8, 1, 2)]
    rows = variance_growth_experiment(
        spec, geo, shapes, 0.1, IntervalSpec(10.0, 100.0), 100, seed=4
    )
    for row in rows:
        assert row.variance == pytest.approx(0.0, abs=1e-20)
        assert row.ratio is None


def test_variance_growth_linear_scaling():
    geo = StripGeometry(2, 1, 32)
    spec = DisorderSpec.cauchy(1.0, u_law="adjacency")
    shapes = [Region.rectangle(1, c, 1, 2) for c in (4, 8, 16, 32)]
    rows = variance_growth_experiment(
        spec, geo, shapes, 0.0, IntervalSpec(10.0, 1000.0), 3000, seed=11
    )
    slope, _, r2 = linear_fit([r.n_sites for r in rows], [r.variance for r in rows])
    assert slope > 0
    assert r2 >= 0.9
    for row in rows:
        assert row.ci_lo <= row.variance <= row.ci_hi
        assert row.ratio is not None and row.ratio > 0


def test_variance_bessel_inequality():
    # Var(X) >= sum over sites of Var(E[X | V_k]), nested sampling with
    # inner-noise correction
    geo = StripGeometry(2, 1, 2)
    spec = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
    region = Region.rectangle(1, 2, 1, 2)
    energy = 0.2
    n_total = 4000
    vals, _ = sample_logdets(spec, geo, region, energy, n_total, seed=12)
    total_var = float(np.var(vals, ddof=1))
    from striplyap.model import assemble_hamiltonian, sample_disorder
    from striplyap.determinants import logdet_direct

    rng = np.random.default_rng(99)
    n_outer, n_inner = 36, 120
    rhs = 0.0
    for k in region.sites:
        cond_means = np.empty(n_outer)
        inner_vars = np.empty(n_outer)
        for i in range(n_outer):
            vk = float(rng.uniform(-1.5, 1.5))
            draws = np.empty(n_inner)
            for j in range(n_inner):
                s = sample_disorder(geo, spec, seed=13, index=rng.integers(1 << 30))
                pot = s.potentials.copy()
                pot[k[0] - 1, k[1] - 1] = vk
                s2 = type(s)(geometry=geo, u_law=s.u_law, potentials=pot, u_band=s.u_band)
                draws[j] = logdet_direct(assemble_hamiltonian(s2, region), energy).log_abs
            cond_means[i] = draws.mean()
            inner_vars[i] = draws.var(ddof=1) / n_inner
        rhs += max(float(np.var(cond_means, ddof=1) - inner_vars.mean()), 0.0)
    assert total_var >= rhs - 0.1 * total_var


def test_measure_sorts_weights_with_atoms():
    mu = EmpiricalMeasure(atoms=np.array([3.0, -1.0]), weights=np.array([0.7, 0.3]))
    assert np.array_equal(mu.atoms, np.array([-1.0, 3.0]))
    assert np.array_equal(mu.weight_array(), np.array([0.3, 0.7]))
    # potential at 0 mixes the weights correctly
    assert log_potential(mu, 0.0) == pytest.approx(0.3 * math.log(1.0) + 0.7 * math.log(3.0))
