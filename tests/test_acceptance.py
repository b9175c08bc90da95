"""Acceptance suite: one test per criterion, each printing a pass line.

Budgets follow the stated sample counts; every run is seeded, so the suite is
deterministic end to end.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from striplyap.cli import main as cli_main
from striplyap.determinants import logdet_direct, logdet_via_schur, logdet_via_transfer
from striplyap.exterior import (
    boundary_identity_check,
    canonical_frame,
    expand_standard,
    sylvester_franke_check,
    wedge_coordinates,
    wedge_indices,
)
from striplyap.logpotential import IntervalSpec, interval_variance, variance_growth_experiment
from striplyap.model import (
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    sample_disorder,
    split_stream,
)
from striplyap.perturbation import (
    grid_partition,
    interlacing_checks,
    numerical_rank,
    partition_boundary,
    partition_defect,
)
from striplyap.sampling import _map_chunks, sample_logdets
from striplyap.statistics import (
    cartan_tail_experiment,
    delta_schedule,
    ldt_experiment,
    linear_fit,
    negative_tail_experiment,
)
from striplyap.transfer import lyapunov_spectrum

UNIFORM = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency")
CAUCHY = DisorderSpec.cauchy(1.0, u_law="adjacency")
GOLDEN = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def _report(num: int, message: str) -> None:
    print(f"criterion {num:02d} PASS: {message}")


def test_criterion_01_determinant_route_agreement():
    rng = split_stream(101, 0)
    worst = 0.0
    for t in range(200):
        width = int(rng.integers(1, 7))
        columns = int(rng.integers(2, 33))
        energy = float(rng.choice([0.0, 1.0, -1.0]))
        spec = UNIFORM if t % 2 == 0 else CAUCHY
        geo = StripGeometry(width, 1, columns)
        sample = sample_disorder(geo, spec, seed=1000 + t)
        region = Region.rectangle(1, columns, 1, width)
        direct, cond = logdet_direct(assemble_hamiltonian(sample, region), energy, with_condition=True)
        relax = max(1.0, min(cond, 1e12) * 1e-4)
        for other in (
            logdet_via_transfer(sample, energy, columns),
            logdet_via_schur(sample, energy, columns),
        ):
            assert other.sign == direct.sign
            gap = abs(other.log_abs - direct.log_abs) / max(1.0, abs(direct.log_abs))
            assert gap <= 1e-8 * relax
            worst = max(worst, gap / relax)
    _report(1, f"three routes agree on 200 configs, worst relaxed gap {worst:.2e}")


def test_criterion_02_boundary_determinant_identity():
    rng = split_stream(102, 0)
    worst = 0.0
    for t in range(50):
        width = 1 + t % 3
        columns = int(rng.integers(2, 17))
        energy = float(rng.uniform(-1.5, 1.5))
        spec = UNIFORM if t % 2 == 0 else CAUCHY
        sample = sample_disorder(StripGeometry(width, 1, columns), spec, seed=2000 + t)
        frames = [canonical_frame(a) for a in wedge_indices(width)]
        for fu in frames:
            for fv in frames:
                lhs, rhs = boundary_identity_check(sample, energy, columns, fu, fv)
                assert lhs.sign == rhs.sign
                if lhs.sign != 0:
                    gap = abs(lhs.log_abs - rhs.log_abs) / max(1.0, abs(lhs.log_abs))
                    assert gap <= 1e-8
                    worst = max(worst, gap)
    _report(2, f"boundary determinant identity on all frame pairs, worst gap {worst:.2e}")


def test_criterion_03_compound_determinant_unimodular():
    rng = split_stream(103, 0)
    worst = 0.0
    for t in range(20):
        width = 1 + t % 4
        columns = int(rng.integers(2, 9))
        energy = float(rng.uniform(-1.0, 1.0))
        sample = sample_disorder(StripGeometry(width, 1, columns), UNIFORM, seed=3000 + t)
        drift = sylvester_franke_check(sample, energy, columns)
        assert drift <= 1e-6 * columns
        worst = max(worst, drift / columns)
    _report(3, f"exterior power determinant modulus one, worst drift per step {worst:.2e}")


def test_criterion_04_canonical_frame_structure():
    for width in (1, 2, 3):
        idxs = wedge_indices(width)
        for alpha in idxs:
            frame = canonical_frame(alpha)
            assert np.array_equal(frame[:width], np.eye(width))
            assert np.linalg.norm(frame[width:], 2) <= 1.0
            coeffs = expand_standard(alpha)
            assert all(c in (-1, 0, 1) for c in coeffs.values())
            recon = np.zeros(len(idxs))
            for beta, c in coeffs.items():
                recon += c * wedge_coordinates(canonical_frame(beta), width)
            target = np.zeros(len(idxs))
            target[idxs.index(alpha)] = 1.0
            assert np.array_equal(recon, target)
    _report(4, "identity top blocks, contraction bottom blocks, exact expansions")


def test_criterion_05_interlacing_suite():
    rng = split_stream(105, 0)
    by_dim = {}  # dimension -> (H1, H2, E) of its trials, in draw order
    for _ in range(10_000):
        dim = int(rng.integers(4, 25))
        a = rng.normal(size=(dim, dim))
        h1 = (a + a.T) / 2.0
        r = int(rng.integers(1, 4))
        x = rng.normal(size=(dim, r))
        h2 = h1 + (x * rng.uniform(-2.0, 2.0, size=r)) @ x.T
        by_dim.setdefault(dim, []).append((h1, h2, float(rng.uniform(-1.0, 1.0))))
    assert sum(map(len, by_dim.values())) == 10_000
    for trials in by_dim.values():
        h1, h2, energy = (np.stack(part) for part in zip(*trials))
        for rep in interlacing_checks(h1, h2, energy):
            assert rep.weyl and rep.holds
    _report(5, "zero Weyl or log-det bound violations in 10^4 low-rank trials")


def test_criterion_06_partition_defect():
    rng = split_stream(106, 0)
    specs = [UNIFORM, CAUCHY, DisorderSpec.uniform(-1.0, 1.0, u_law="random_band", coupling=0.6)]
    for t in range(1000):
        columns = int(rng.integers(2, 11))
        width = int(rng.integers(1, 4))
        geo = StripGeometry(width, 1, columns)
        sample = sample_disorder(geo, specs[t % 3], seed=6000 + t)
        region = Region.rectangle(1, columns, 1, width)
        cells = grid_partition(region, int(rng.integers(1, 5)))
        energy = float(rng.uniform(-1.0, 1.0))
        h_full = assemble_hamiltonian(sample, region)
        defect, bound = partition_defect(h_full, region, cells, geo, energy)
        assert defect <= bound + 1e-8
        h_split = np.zeros_like(h_full)
        pos = {s: i for i, s in enumerate(region.sites)}
        for cell in cells:
            ids = [pos[s] for s in cell.sites]
            h_split[np.ix_(ids, ids)] = assemble_hamiltonian(sample, cell)
        assert numerical_rank(h_full - h_split) <= len(partition_boundary(region, cells, geo))
    _report(6, "partition defect within bound and rank within boundary on 10^3 configs")


def test_criterion_07_closed_form_lyapunov():
    point = DisorderSpec.point(0.0)
    geo1 = StripGeometry(1, 1, 1)
    hyper = lyapunov_spectrum(point, geo1, 3.0, 10_000, seed=7)
    assert abs(hyper.exponents[0] - GOLDEN) < 1e-3
    elliptic = lyapunov_spectrum(point, geo1, 0.0, 10_000, seed=7)
    assert abs(elliptic.exponents[0]) < 1e-3
    spect = lyapunov_spectrum(
        DisorderSpec.uniform(-1.0, 1.0, u_law="adjacency"), StripGeometry(2, 1, 1), 0.0, 20_000, seed=7
    )
    paired = spect.radii + spect.radii[::-1]
    noise = 8.0 * float(np.max(spect.stderr)) + 1e-3
    assert np.all(np.abs(paired) / spect.n_steps <= noise)
    _report(7, f"gamma(E=3) within 1e-3 of {GOLDEN:.5f}, gamma(E=0) ~ 0, radii paired")


def test_criterion_08_log_potential_variance():
    var = interval_variance(lambda x: np.log(np.abs(x)), IntervalSpec(0.0, 11.0), singular_points=(0.0,))
    assert abs(var - 1.0) <= 1e-4
    gaps = []
    for ratio in (1e2, 1e3, 1e4):
        v = interval_variance(lambda x: np.log(np.abs(x)), IntervalSpec(1.0, ratio))
        gaps.append(abs(v - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    _report(8, f"variance of log on [0, M] is 1 within 1e-4; |var-1| trend {[round(g, 4) for g in gaps]}")


def test_criterion_09_variance_growth():
    geo = StripGeometry(2, 1, 64)
    shapes = [Region.rectangle(1, c, 1, 2) for c in (8, 16, 32, 64)]
    rows = variance_growth_experiment(
        CAUCHY, geo, shapes, 0.0, IntervalSpec(10.0, 1000.0), 10_000, seed=9, workers=2
    )
    sizes = [r.n_sites for r in rows]
    variances = [r.variance for r in rows]
    slope, _, r2 = linear_fit(sizes, variances)
    assert slope > 0.0
    assert r2 >= 0.9
    # log-log exponent of the same scaling stays near one
    exponent, _, _ = linear_fit(np.log(sizes), np.log(variances))
    assert 0.8 <= exponent <= 1.3
    _report(9, f"Var(log|det|) vs region size: slope {slope:.3f}, R^2 {r2:.4f}, exponent {exponent:.3f}")


def _eigvalsh_cartan_counts(spec, geometry, region, energy, k_grid, n, seed):
    """Per K, the cartan row's count, norm, dist and violation counts with all three quantities from one ``eigvalsh`` per sample."""

    def batch(h):
        eigs = np.linalg.eigvalsh(h)
        with np.errstate(divide="ignore"):
            gaps = np.log(np.abs(eigs - energy))
        return np.sum(gaps, axis=1), np.min(gaps, axis=1), np.log(abs(energy) + np.max(np.abs(eigs), axis=1))

    log_abs, log_dist, log_norm = _map_chunks(batch, spec, geometry, region, 0.0, n, seed, 1)
    rows = []
    for k in k_grid:
        hits, dist, norm = np.abs(log_abs) > region.size * k, log_dist < -k, log_norm > k
        rows.append((int(hits.sum()), int(norm.sum()), int(dist.sum()), int(np.sum(hits & ~(norm | dist)))))
    return rows


def test_criterion_10_tail_suites():
    n = 100_000
    k_grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]
    cartan_args = (UNIFORM, StripGeometry(2, 1, 4), Region.rectangle(1, 4, 1, 2), 0.0, k_grid, n)
    cartan = cartan_tail_experiment(*cartan_args, seed=21, workers=2)
    assert cartan.onset() is not None and cartan.onset() < k_grid[-1]
    for row in cartan.rows:
        assert row.implication_violations == 0
    # the Schur sweep's log|det| and inertia masks give the table of one eigendecomposition per sample
    got = [(r.count, r.norm_count, r.dist_count, r.implication_violations) for r in cartan.rows]
    assert got == _eigvalsh_cartan_counts(*cartan_args, seed=21)
    ldt = ldt_experiment(
        UNIFORM,
        StripGeometry(2, 1, 32),
        [Region.rectangle(1, 16, 1, 2), Region.rectangle(1, 32, 1, 2)],
        0.0,
        0.25,
        k_grid,
        n,
        seed=22,
        workers=2,
    )
    for table in ldt.tables:
        onset = table.onset()
        assert onset is not None and onset <= 2.0
    neg_plain = negative_tail_experiment(
        UNIFORM, StripGeometry(2, 1, 16), 0.0, k_grid, n, seed=23, workers=2
    )
    assert neg_plain.table.onset() is not None
    # contrast configuration: two clean zero modes at E = 0 put the typical
    # log determinant at the -10KW scale while -KNW stays out of reach
    resonant = DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency")
    neg = negative_tail_experiment(resonant, StripGeometry(2, 1, 17), 0.0, k_grid, n, seed=24, workers=2)
    onset = neg.table.onset()
    assert onset is not None and onset < k_grid[-1]
    row2 = neg.table.row_at(2.0)
    assert row2.count > 0, "depth -10KW at K=2 must be attained"
    assert row2.naive_count == 0, "naive depth -KNW at K=2 must never be crossed"
    assert neg.min_log > row2.naive_threshold
    _report(
        10,
        "tails below bounds beyond onsets "
        f"(cartan {cartan.onset()}, ldt {[t.onset() for t in ldt.tables]}, neg {onset}); "
        f"W-vs-NW contrast: {row2.count} hits at -10KW, 0 at -KNW",
    )


def test_criterion_11_convergence_rate():
    width, bandwidth, energy = 2, 1, 0.0
    spec = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
    spectrum = lyapunov_spectrum(spec, StripGeometry(width, bandwidth, 1), energy, 600_000, seed=31)
    gamma_sum = float(np.sum(spectrum.exponents))
    cs = []
    for columns, n in [(16, 20_000), (64, 20_000), (256, 10_000)]:
        geo = StripGeometry(width, bandwidth, columns)
        values, _ = sample_logdets(
            spec, geo, Region.rectangle(1, columns, 1, width), energy, n, seed=32, workers=2
        )
        kept = values[np.isfinite(values)]
        gap = abs(gamma_sum - float(np.mean(kept)) / columns)
        scale = width * math.log(columns * width) / columns
        cs.append(gap / scale)
    spread = max(cs) / min(cs)
    assert spread <= 3.0
    _report(11, f"fitted constants {[round(c, 4) for c in cs]}, spread {spread:.2f} <= 3")


def test_criterion_12_delta_schedule_exact():
    sched = delta_schedule(100)
    for n, value in enumerate(sched):
        assert value == Fraction(1, 2 * n + 2)
    _report(12, "schedule equals 1/(2n+2) exactly for n <= 100")


def test_criterion_13_determinism_across_workers(tmp_path):
    config = {
        "disorder": {"density": "cauchy", "params": {"scale": 1.0, "cutoff": 1e6}, "u_law": "adjacency", "u_params": {}},
        "geometry": {"width": 2, "bandwidth": 1, "columns": 12},
        "energy": 0.5,
        "n_samples": 4000,
        "seed": 77,
        "params": {"k_grid": [0.5, 1.0, 2.0, 4.0]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        rc = cli_main(
            ["experiment", "negtail", "--config", str(cfg), "--workers", str(workers), "--out", str(out)]
        )
        assert rc == 0
        outs.append((out / "negtail.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(13, "byte-identical tables for worker counts 1 and 3")
