import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from striplyap.model import DisorderSample, DisorderSpec, Region, StripGeometry
from striplyap.sampling import bootstrap_ci, sample_logdets
from striplyap.statistics import (
    MonteCarloSummary,
    bernstein_check,
    block_logdet_summands,
    cartan_tail_experiment,
    delta_schedule,
    ldt_experiment,
    linear_fit,
    lyapunov_sum_pipeline,
    mc_logdet,
    multiscale_compare,
    negative_tail_experiment,
)

UNIFORM = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")


class TestSummary:
    def test_moments(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        s = MonteCarloSummary.from_samples(values, seed=0)
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(np.var(values, ddof=1))
        assert s.central_moments[0] == pytest.approx(np.mean((values - 2.5) ** 2))
        assert s.central_moments[1] == pytest.approx(np.mean((values - 2.5) ** 3))

    def test_exceedance_modes(self):
        s = MonteCarloSummary.from_samples(np.array([-2.0, -1.0, 1.0, 3.0]), seed=0)
        assert s.exceedance([1.5], mode="abs")[0] == pytest.approx(0.5)
        assert s.exceedance([0.0], mode="above")[0] == pytest.approx(0.5)
        assert s.exceedance([0.0], mode="below")[0] == pytest.approx(0.5)


class TestMcLogdet:
    def test_point_mass_is_deterministic(self):
        geo = StripGeometry(2, 1, 4)
        spec = DisorderSpec.point(0.7, u_law="adjacency")
        s = mc_logdet(spec, geo, Region.rectangle(1, 4, 1, 2), 0.1, 64, seed=1)
        assert s.variance == pytest.approx(0.0, abs=1e-24)

    def test_worker_count_invariance(self):
        geo = StripGeometry(2, 1, 8)
        region = Region.rectangle(1, 8, 1, 2)
        v1, _ = sample_logdets(UNIFORM, geo, region, 0.0, 3000, seed=5, workers=1)
        v4, _ = sample_logdets(UNIFORM, geo, region, 0.0, 3000, seed=5, workers=4)
        assert np.array_equal(v1, v4)

    def test_half_sample_consistency(self):
        geo = StripGeometry(2, 1, 8)
        region = Region.rectangle(1, 8, 1, 2)
        s = mc_logdet(UNIFORM, geo, region, 0.0, 4000, seed=2)
        half = s.samples[: len(s.samples) // 2]
        lo, hi = bootstrap_ci(half, np.mean, seed=3)
        assert lo - 0.2 <= s.mean <= hi + 0.2


def test_cartan_tail_pointwise_implication():
    geo = StripGeometry(2, 1, 4)
    region = Region.rectangle(1, 4, 1, 2)
    table = cartan_tail_experiment(UNIFORM, geo, region, 0.0, [0.5, 1.0, 2.0, 4.0], 5000, seed=4)
    fractions = [r.fraction for r in table.rows]
    assert fractions == sorted(fractions, reverse=True)
    for row in table.rows:
        assert row.implication_violations == 0
    assert table.rows[-1].fraction <= table.rows[-1].bound + 3 * table.rows[-1].sigma


def test_ldt_experiment_shapes():
    geo = StripGeometry(2, 1, 16)
    rects = [Region.rectangle(1, 8, 1, 2), Region.rectangle(1, 16, 1, 2)]
    res = ldt_experiment(UNIFORM, geo, rects, 0.0, 0.25, [1.0, 2.0, 4.0], 4000, seed=6)
    assert len(res.tables) == 2
    for table in res.tables:
        assert table.onset() is not None
    assert 0.3 <= res.var_exponent <= 1.7 and res.degenerate == 0


@pytest.mark.parametrize(
    "spec, energy",
    [(DisorderSpec.point(0.0, u_law="adjacency"), 1.0), (DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency"), 0.0)],
    ids=["point 0 E=1", "resonant E=0"],
)
def test_ldt_reports_a_roundoff_variance_as_degenerate(spec, energy):
    # every point-mass sample has one log|det|, and the resonant strip's spread is second order in 2.5e-9;
    # np.var returns 1e-31 to 1e-29 from roundoff alone, and a fit through it moves from 1.6e-13 to 11.8 on a one-ulp change
    geo = StripGeometry(2, 1, 18)
    res = ldt_experiment(spec, geo, [Region.rectangle(1, 16, 1, 2), Region.rectangle(1, 18, 1, 2)], energy, 0.25, [1.0], 2048, seed=11)
    assert res.degenerate == 2 and all(v < 1e-28 for _, v in res.var_points)
    assert math.isnan(res.var_exponent) and math.isnan(res.var_r2)
    # 0.3 off E = 0 the resonant spread is first order, a standard deviation near 3e-9, and is fitted
    shifted = ldt_experiment(spec, geo, [Region.rectangle(1, 16, 1, 2), Region.rectangle(1, 18, 1, 2)], energy + 0.3, 0.25, [1.0], 2048, seed=11)
    assert shifted.degenerate == (spec.density == "point") * 2


def test_negative_tail_counts_nested():
    # for N >= 10 the naive threshold -KNW sits below -10KW
    geo = StripGeometry(2, 1, 16)
    res = negative_tail_experiment(UNIFORM, geo, 0.0, [0.5, 1.0, 2.0], 4000, seed=7)
    for row in res.table.rows:
        assert row.naive_threshold <= row.threshold
        assert row.naive_count <= row.count
    assert math.isfinite(res.min_log)


class TestBernstein:
    def test_coin_against_exact_binomial(self):
        # oracle: exact binomial tail for +-1 coins
        rng = np.random.default_rng(8)
        n = 100
        trials = 20_000
        summands = rng.choice([-1.0, 1.0], size=(trials, n))
        rows = bernstein_check(summands, [10.0, 20.0, 40.0, 100.0], sigma=1.0, t_param=1.0)
        for row in rows:
            # P(|sum| >= x) for sum of n coins: 2 P(Bin(n, 1/2) >= (n+x)/2)
            k = math.ceil((n + row.x) / 2.0)
            exact = 2.0 * binom.sf(k - 1, n, 0.5) if k <= n else 0.0
            assert abs(row.fraction - exact) <= 3.0 * math.sqrt(exact * (1 - exact) / trials) + 1e-4
            if row.admissible:
                assert exact <= row.bound + 1e-12

    def test_block_summands_bound(self):
        geo = StripGeometry(2, 1, 16)
        region = Region.rectangle(1, 16, 1, 2)
        summands, cells = block_logdet_summands(UNIFORM, geo, region, 2, 0.0, 3000, seed=9)
        assert summands.shape == (3000, len(cells))
        assert np.allclose(summands.mean(axis=0), 0.0, atol=1e-10)
        top = float(np.quantile(np.abs(summands.sum(axis=1)), 0.999)) * 1.2
        rows = bernstein_check(summands, list(np.linspace(1.0, max(top, 2.0), 6)))
        for row in rows:
            if row.admissible:
                assert row.fraction <= row.bound + 3.0 * row.sigma


def test_delta_schedule_closed_form():
    sched = delta_schedule(100)
    assert sched[0] == Fraction(1, 2)
    assert sched[1] == Fraction(1, 4)
    assert sched[2] == Fraction(1, 6)
    for n, val in enumerate(sched):
        assert val == Fraction(1, 2 * n + 2)


def test_multiscale_deterministic_disorder():
    # oracle: scalar recurrence determinants of the constant chain
    spec = DisorderSpec.point(0.0)
    rows = multiscale_compare(spec, -3.0, 1, 1, [4], 16, seed=10)
    row = rows[0]

    def logdet_chain(n):
        f_prev, f_cur = 1.0, 3.0
        for _ in range(n - 1):
            f_cur, f_prev = 3.0 * f_cur - f_prev, f_cur
        return math.log(abs(f_cur))

    assert row.mean_small == pytest.approx(logdet_chain(4) / 4, rel=1e-12)
    assert row.mean_large == pytest.approx(logdet_chain(16) / 16, rel=1e-12)
    assert row.gap == pytest.approx(abs(logdet_chain(16) / 16 - logdet_chain(4) / 4), rel=1e-12)


def test_multiscale_gap_shrinks():
    rows = multiscale_compare(UNIFORM, 0.0, 2, 1, [4, 8], 4000, seed=11)
    assert rows[1].gap <= rows[0].gap + 3.0 * (rows[0].gap_se + rows[1].gap_se)


class TestPipeline:
    def test_deterministic_hyperbolic_case(self):
        spec = DisorderSpec.point(0.0)
        report = lyapunov_sum_pipeline(
            spec, 3.0, 1, 1, 64, 0.25, 8, seed=12, gamma_steps=20_000
        )
        golden = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert report.gamma_sum == pytest.approx(golden, abs=1e-6)
        assert report.mean_per_step == pytest.approx(golden, abs=0.05)
        assert report.gap <= 2.0 * report.gap_scale
        assert report.mean_identity_gap <= 1e-12 * max(1.0, abs(report.chain_lhs))
        assert report.chain_holds

    def test_decomposition_identity_random(self):
        report = lyapunov_sum_pipeline(
            UNIFORM, 0.0, 2, 1, 24, 0.25, 2000, seed=13, gamma_steps=20_000
        )
        assert report.mean_identity_gap <= 1e-12 * max(1.0, abs(report.chain_lhs))
        assert report.chain_holds
        assert report.part_upper >= 0.0
        assert report.part_negative <= 0.0
        assert not report.insufficient_n

    def test_insufficient_n_flagged(self):
        report = lyapunov_sum_pipeline(
            UNIFORM, 0.0, 2, 1, 4, 0.25, 128, seed=14, gamma_steps=20_000
        )
        assert report.insufficient_n


def test_cross_scale_mean_consistency():
    # doubling N changes the per-step mean within the fitted multiscale bound
    rows = multiscale_compare(UNIFORM, 0.0, 2, 1, [4], 6000, seed=15)
    row = rows[0]
    assert row.gap <= 1.0 * row.n_small ** -1 * 2 * math.log(row.n_large * 2) + 5 * row.gap_se


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([1, 2, 3], [2.0, 4.0, 6.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_mc_logdet_all_singular_raises():
    # point mass exactly at the energy makes every draw singular
    geo = StripGeometry(1, 1, 1)
    spec = DisorderSpec.point(0.5)
    with pytest.raises(Exception):
        mc_logdet(spec, geo, Region.rectangle(1, 1, 1, 1), 0.5, 16, seed=1)


def test_pipeline_gap_decays_like_log_over_n():
    # deterministic disorder: the per-step mean approaches the exponent sum
    # at the log(N)/N scale
    spec = DisorderSpec.point(0.0)
    reports = [
        lyapunov_sum_pipeline(spec, 3.0, 1, 1, n, 0.25, 4, seed=16, gamma_steps=20_000)
        for n in (32, 128)
    ]
    assert reports[1].gap < reports[0].gap
    for rep, n in zip(reports, (32, 128)):
        assert rep.gap <= 2.0 * math.log(n) / n
