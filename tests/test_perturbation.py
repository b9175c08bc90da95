import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplyap import perturbation
from striplyap.determinants import logdet_direct
from striplyap.verify import _SPECS, verify_interlacing
from striplyap.model import (
    ConfigurationError,
    DisorderSample,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    sample_disorder,
)
from striplyap.perturbation import (
    WEYL_TOL,
    _weyl_chains,
    grid_partition,
    interlacing_checks,
    log_minus,
    log_plus,
    numerical_rank,
    partition_boundary,
    partition_defect,
)


def _sym(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2


def test_log_plus_minus():
    assert log_plus(math.e) == pytest.approx(1.0)
    assert log_plus(0.5) == 0.0
    assert log_minus(0.5) == pytest.approx(math.log(2.0))
    assert log_minus(2.0) == 0.0
    assert log_minus(0.0) == math.inf


def _check(h1, h2, energy=0.0):
    """interlacing_checks on one pair, as a stack of one."""
    (rep,) = interlacing_checks(h1[None], h2[None], energy)
    return rep


def test_weyl_equal_matrices():
    rng = np.random.default_rng(0)
    h = _sym(rng, 8)
    assert _check(h, h).weyl


def test_weyl_rank_one_update():
    # oracle: rank-1 positive update shifts eigenvalues up within one position
    rng = np.random.default_rng(1)
    h1 = _sym(rng, 10)
    x = rng.normal(size=10)
    h2 = h1 + 1.3 * np.outer(x, x)
    assert _check(h1, h2).weyl
    e1 = np.linalg.eigvalsh(h1)
    e2 = np.linalg.eigvalsh(h2)
    assert np.all(e1 <= e2 + 1e-9)
    assert np.all(e1[:-1] <= e2[1:] + 1e-9)


@given(st.integers(0, 5000))
def test_weyl_random_low_rank(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 21))
    h1 = _sym(rng, dim)
    r = int(rng.integers(1, 4))
    x = rng.normal(size=(dim, r))
    scales = rng.uniform(-2, 2, size=r)
    h2 = h1 + (x * scales) @ x.T
    assert _check(h1, h2).weyl


def test_gap_bound_equal_matrices():
    rng = np.random.default_rng(2)
    h = _sym(rng, 6)
    rep = _check(h, h, 0.4)
    assert rep.rank == 0
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == 0.0
    assert rep.holds


def test_gap_bound_chain_partition_example():
    # oracle: scalar three-term recurrence determinants of the free 4-chain
    geo = StripGeometry(1, 1, 4)
    samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.zeros((4, 1)))
    region = Region.rectangle(1, 4, 1, 1)
    h_full = assemble_hamiltonian(samp, region)
    h_split = h_full.copy()
    h_split[1, 2] = h_split[2, 1] = 0.0
    energy = 0.5
    f4 = 0.3125  # f_k = -0.5 f_{k-1} - f_{k-2}, f_4 computed by hand
    f2 = -0.75
    lhs = abs(math.log(abs(f4)) - math.log(f2 * f2))
    rep = _check(h_full, h_split, energy)
    assert rep.rank == 2
    assert abs(abs(rep.lhs) - lhs) < 1e-10
    assert abs(rep.lhs) <= rep.rhs


@given(st.integers(0, 5000))
def test_gap_bound_random_low_rank(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 21))
    h1 = _sym(rng, dim)
    r = int(rng.integers(1, 4))
    x = rng.normal(size=(dim, r))
    h2 = h1 + (x * rng.uniform(-1, 1, size=r)) @ x.T
    rep = _check(h1, h2, float(rng.uniform(-1, 1)))
    assert rep.holds


def _five_pairs():
    # rank 0, 1, 2 and full-rank differences, and E on the spectrum of H2
    rng = np.random.default_rng(11)
    h1 = np.stack([_sym(rng, 7) for _ in range(5)])
    h2 = h1.copy()
    h2[1] += np.outer(*(2 * [rng.normal(size=7)]))
    x = rng.normal(size=(7, 2))
    h2[2] += x @ x.T
    h2[3] = _sym(rng, 7)
    h2[4] += np.outer(*(2 * [rng.normal(size=7)]))
    energy = rng.uniform(-1, 1, size=5)
    energy[4] = np.linalg.eigvalsh(h2[4])[2]  # E on the spectrum of H2: a vacuous bound
    return h1, h2, energy


def _random_pairs(m=200):
    rng = np.random.default_rng(12)
    h1 = np.stack([_sym(rng, 9) for _ in range(m)])
    x = rng.normal(size=(m, 9, 3))
    h2 = h1 + (x * rng.uniform(-2, 2, size=(m, 1, 3))) @ x.transpose(0, 2, 1)
    return h1, h2, rng.uniform(-1, 1, size=m)


def test_stacks_match_single_matrices():
    h1, h2, energy = _five_pairs()
    ranks = numerical_rank(h1 - h2)
    assert ranks.tolist() == [0, 1, 2, 7, 1]
    assert [numerical_rank(d) for d in h1 - h2] == ranks.tolist()
    assert isinstance(numerical_rank(h1[0] - h2[1]), int)
    reports = interlacing_checks(h1, h2, energy)
    assert [rep.rank for rep in reports] == ranks.tolist() and all(rep.weyl for rep in reports)
    assert reports[4].vacuous and reports[4].lhs == -math.inf and not any(rep.vacuous for rep in reports[:4])
    assert reports == [_check(a, b, e) for a, b, e in zip(h1, h2, energy.tolist())]
    assert interlacing_checks(h1[:1], h2[:1], energy[0]) == reports[:1]


@pytest.mark.parametrize("pairs", [_five_pairs, _random_pairs], ids=["five pairs", "200 random pairs"])
def test_terms_match_norm_and_separate_spectrum(pairs):
    # oracle: ||H1||_2 by SVD and dist(E, spec H2) from its own eigensolve
    h1, h2, energy = pairs()
    norms = np.linalg.norm(h1, 2, axis=(1, 2))
    dists = np.min(np.abs(np.linalg.eigvalsh(h2) - energy[:, None]), axis=1)
    ranks = numerical_rank(h1 - h2)
    for rep, e, norm, dist, r in zip(interlacing_checks(h1, h2, energy), energy, norms, dists, ranks):
        norm_term = log_plus(abs(e) + norm)
        dist_term = log_minus(dist)
        assert rep.norm_term == pytest.approx(norm_term, rel=1e-12, abs=0.0)
        assert rep.dist_term == pytest.approx(dist_term, rel=1e-12, abs=0.0)
        assert rep.rhs == pytest.approx(4.0 * r * max(norm_term, dist_term), rel=1e-12, abs=0.0)


def test_interlacing_checks_rejects_mismatched_stacks():
    h = np.zeros((2, 3, 3))
    with pytest.raises(ConfigurationError):
        interlacing_checks(h, np.zeros((2, 4, 4)), 0.0)
    with pytest.raises(ConfigurationError):
        interlacing_checks(h[0], h[0], 0.0)


def test_weyl_rejects_an_understated_rank():
    # a rank-2 drop moves two eigenvalues past their rank-1 neighbours
    h1, h2 = np.zeros((4, 4)), np.diag([-5.0, -5.0, 0.0, 0.0])
    assert _check(h1, h2).weyl and _check(h1, h2).rank == 2
    e1, e2 = np.linalg.eigvalsh(h1)[None], np.linalg.eigvalsh(h2)[None]
    assert _weyl_chains(e1, e2, [2], WEYL_TOL).tolist() == [True]
    assert _weyl_chains(e1, e2, [1], WEYL_TOL).tolist() == [False]


def test_grid_partition_single_cell():
    region = Region.rectangle(2, 4, 1, 3)
    cells = grid_partition(region, 10)
    assert len(cells) == 1 and cells[0] == region


def test_grid_partition_shapes_5x3():
    # oracle: direct enumeration of the anchored grid cells
    cells = grid_partition(Region.rectangle(1, 5, 1, 3), 2)
    shapes = Counter()
    for c in cells:
        n0, n1, w0, w1 = c.bounds()
        shapes[(n1 - n0 + 1, w1 - w0 + 1)] += 1
    assert shapes == Counter({(2, 2): 2, (2, 1): 2, (1, 2): 1, (1, 1): 1})
    assert sum(c.size for c in cells) == 15


def test_grid_partition_shapes_5x5():
    cells = grid_partition(Region.rectangle(1, 5, 1, 5), 2)
    shapes = Counter()
    for c in cells:
        n0, n1, w0, w1 = c.bounds()
        shapes[(n1 - n0 + 1, w1 - w0 + 1)] += 1
    assert shapes == Counter({(2, 2): 4, (2, 1): 2, (1, 2): 2, (1, 1): 1})
    assert len(shapes) <= 4


def test_grid_partition_boundary_scaling():
    # boundary site count stays under c d |region| / l with a small c
    geo = StripGeometry(4, 1, 24)
    region = Region.rectangle(1, 24, 1, 4)
    worst = 0.0
    for l in (2, 3, 4, 6):
        cells = grid_partition(region, l)
        bnd = partition_boundary(region, cells, geo)
        worst = max(worst, len(bnd) * l / (geo.bandwidth * region.size))
    assert worst <= 6.0


def test_partition_trivial():
    geo = StripGeometry(2, 1, 4)
    s = sample_disorder(geo, DisorderSpec.uniform(-1, 1, u_law="adjacency"), seed=3)
    region = Region.rectangle(1, 4, 1, 2)
    defect, bound = partition_defect(assemble_hamiltonian(s, region), region, [region], geo, 0.3)
    assert defect == pytest.approx(0.0, abs=1e-10)
    assert bound == 0.0


def test_partition_chain_split():
    geo = StripGeometry(1, 1, 4)
    samp = DisorderSample(geometry=geo, u_law="zero", potentials=np.zeros((4, 1)))
    region = Region.rectangle(1, 4, 1, 1)
    parts = [Region.rectangle(1, 2, 1, 1), Region.rectangle(3, 4, 1, 1)]
    defect, bound = partition_defect(assemble_hamiltonian(samp, region), region, parts, geo, 0.5)
    assert defect == pytest.approx(abs(math.log(0.3125) - math.log(0.5625)), rel=1e-10)
    assert defect <= bound


def test_partition_rejects_bad_cover():
    geo = StripGeometry(1, 1, 4)
    s = sample_disorder(geo, DisorderSpec.uniform(-1, 1), seed=1)
    region = Region.rectangle(1, 4, 1, 1)
    h = assemble_hamiltonian(s, region)
    with pytest.raises(ConfigurationError):
        partition_defect(h, region, [Region.rectangle(1, 2, 1, 1)], geo, 0.0)
    with pytest.raises(ConfigurationError):
        partition_defect(h, region, [Region.rectangle(1, 3, 1, 1), Region.rectangle(3, 4, 1, 1)], geo, 0.0)
    with pytest.raises(ConfigurationError):
        partition_defect(h[:3, :3], region, [region], geo, 0.0)


def test_partition_defect_random_grids():
    rng = np.random.default_rng(9)
    specs = [
        DisorderSpec.uniform(-1, 1, u_law="adjacency"),
        DisorderSpec.cauchy(0.8, u_law="random_band", coupling=0.5),
    ]
    for t in range(30):
        n = int(rng.integers(3, 10))
        w = int(rng.integers(1, 4))
        geo = StripGeometry(w, 1, n)
        s = sample_disorder(geo, specs[t % 2], seed=50 + t)
        region = Region.rectangle(1, n, 1, w)
        cells = grid_partition(region, int(rng.integers(1, 4)))
        defect, bound = partition_defect(assemble_hamiltonian(s, region), region, cells, geo, float(rng.uniform(-1, 1)))
        assert defect <= bound + 1e-8


def _per_cell_defect(sample, region, cells, energy):
    """partition_defect's defect and bound with each cell's H assembled on its own."""
    h = assemble_hamiltonian(sample, region)
    parts = [assemble_hamiltonian(sample, cell) for cell in cells]
    defect = abs(logdet_direct(h, energy).log_abs - sum(logdet_direct(p, energy).log_abs for p in parts))
    dist = float(min(np.min(np.abs(np.linalg.eigvalsh(m) - energy)) for m in [h, *parts]))
    norm_term = log_plus(abs(energy) + float(np.linalg.norm(h, 2)))
    bound = 4.0 * len(partition_boundary(region, cells, sample.geometry)) * max(norm_term, log_minus(dist))
    return float(defect), float(bound)


@pytest.mark.parametrize("spec", _SPECS, ids=["uniform adjacency", "cauchy adjacency", "random band"])
def test_partition_defect_slices_equal_assembled_cells(spec):
    rng = np.random.default_rng(23)
    for w in (1, 2, 3):
        for cell in (1, 2, 3, 4):
            geo = StripGeometry(w, min(2, w), 7)
            s = sample_disorder(geo, spec, seed=10 * w + cell)
            region = Region.rectangle(1, 7, 1, w)
            cells = grid_partition(region, cell)
            energy = float(rng.uniform(-1, 1))
            h = assemble_hamiltonian(s, region)
            assert partition_defect(h, region, cells, geo, energy) == _per_cell_defect(s, region, cells, energy)


def test_rank_bounded_by_boundary():
    rng = np.random.default_rng(19)
    spec = DisorderSpec.uniform(-1, 1, u_law="adjacency")
    for t in range(20):
        n = int(rng.integers(3, 9))
        w = int(rng.integers(1, 4))
        geo = StripGeometry(w, 1, n)
        s = sample_disorder(geo, spec, seed=80 + t)
        region = Region.rectangle(1, n, 1, w)
        cells = grid_partition(region, int(rng.integers(1, 4)))
        h_full = assemble_hamiltonian(s, region)
        h_split = np.zeros_like(h_full)
        pos = {site: i for i, site in enumerate(region.sites)}
        for cell in cells:
            ids = [pos[site] for site in cell.sites]
            h_split[np.ix_(ids, ids)] = assemble_hamiltonian(s, cell)
        bnd = partition_boundary(region, cells, geo)
        assert numerical_rank(h_full - h_split) <= len(bnd)


@pytest.mark.parametrize(
    "seed, worst_slack", [(1, 2.2215566078025435), (8, 3.71193281323318), (21000, 3.4377037636924768)]
)
def test_verify_interlacing_pinned(seed, worst_slack):
    # reference worst_slack computed with ||H1||_2 by SVD; max |lambda(H1)| agrees to roundoff
    report = verify_interlacing(seed, 1000)
    counts = ["weyl_violations", "bound_violations", "partition_defect_violations", "rank_violations"]
    assert report["passed"] and [report[key] for key in counts] == [0, 0, 0, 0]
    assert report["worst_slack"] == pytest.approx(worst_slack, rel=1e-12, abs=0.0)


def test_verify_interlacing_builds_labels_and_boundary_once_per_partition_trial(monkeypatch):
    calls = Counter()
    for name in ("_cell_labels", "partition_boundary"):
        original = getattr(perturbation, name)
        monkeypatch.setattr(perturbation, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
    report = verify_interlacing(seed=1, trials=1000)
    assert report["partition_trials"] == 50
    assert calls == {"_cell_labels": 50, "partition_boundary": 50}
