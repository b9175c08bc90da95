"""Invariant verification suites behind the command line interface.

Each suite returns a JSON-friendly report with a ``passed`` flag and the
worst observed gaps, and is a pure function of its seed and trial budget.
"""

from __future__ import annotations

import math

import numpy as np

from .determinants import SignedLogDet, logdet_direct, logdet_via_schur, logdet_via_transfer, site_shift
from .exterior import (
    boundary_identity_check,
    canonical_frame,
    expand_standard,
    sylvester_franke_check,
    wedge_coordinates,
    wedge_indices,
)
from .model import (
    _DOMAIN_VERIFY,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    sample_disorder,
    split_stream,
)
from .perturbation import _partition_terms, grid_partition, interlacing_checks, numerical_rank

__all__ = ["verify_wedge", "verify_interlacing", "verify_determinants", "verify_all"]

_SPECS = [
    DisorderSpec.uniform(-1.0, 1.0, u_law="adjacency"),
    DisorderSpec.cauchy(1.0, u_law="adjacency"),
    DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=0.8),
]


def _rel_log_gap(a, b) -> float:
    if a.sign == 0 and b.sign == 0:
        return 0.0
    if a.sign == 0 or b.sign == 0:
        return math.inf
    return abs(a.log_abs - b.log_abs) / max(1.0, abs(a.log_abs))


def verify_wedge(seed: int = 1, trials: int = 20) -> dict:
    """Exterior power identity suite: frames, expansions, minors, drift."""
    rng = split_stream(seed, _DOMAIN_VERIFY, 0)
    worst_structure = 0.0
    worst_expand = 0.0
    worst_identity = 0.0
    worst_drift = 0.0
    sign_mismatches = 0
    for w in (1, 2, 3):
        idxs = wedge_indices(w)
        for alpha in idxs:
            f = canonical_frame(alpha)
            worst_structure = max(
                worst_structure,
                float(np.max(np.abs(f[:w] - np.eye(w)))),
                max(float(np.linalg.norm(f[w:], 2)) - 1.0, 0.0),
            )
            target = np.zeros(len(idxs))
            target[idxs.index(alpha)] = 1.0
            recon = sum(
                c * wedge_coordinates(canonical_frame(beta), w)
                for beta, c in expand_standard(alpha).items()
            )
            worst_expand = max(worst_expand, float(np.max(np.abs(recon - target))))
    for t in range(trials):
        w = int(rng.integers(1, 4))
        n = int(rng.integers(2, 13))
        energy = float(rng.uniform(-1.5, 1.5))
        spec = _SPECS[t % len(_SPECS)]
        geo = StripGeometry(w, 1, n)
        sample = sample_disorder(geo, spec, seed=seed + 100 + t)
        frames = [canonical_frame(a) for a in wedge_indices(w)]
        picks = rng.integers(0, len(frames), size=2)
        lhs, rhs = boundary_identity_check(sample, energy, n, frames[picks[0]], frames[picks[1]])
        if lhs.sign != rhs.sign:
            sign_mismatches += 1
        worst_identity = max(worst_identity, _rel_log_gap(lhs, rhs))
        worst_drift = max(worst_drift, sylvester_franke_check(sample, energy, n) / n)
    passed = (
        worst_structure == 0.0
        and worst_expand < 1e-12
        and worst_identity < 1e-8
        and worst_drift < 1e-6
        and sign_mismatches == 0
    )
    return {
        "suite": "wedge",
        "passed": bool(passed),
        "trials": trials,
        "worst_structure": worst_structure,
        "worst_expand": worst_expand,
        "worst_identity_gap": worst_identity,
        "worst_unimodular_drift": worst_drift,
        "sign_mismatches": sign_mismatches,
    }


def verify_interlacing(seed: int = 1, trials: int = 2000) -> dict:
    """Weyl chains and the rank-perturbation log-det bound on random instances."""
    rng = split_stream(seed, _DOMAIN_VERIFY, 1)
    stacks = {}  # (dimension, rank) -> the raw draws (A, X, scales, E) of its trials, all drawn before any is evaluated
    for _ in range(trials):
        dim = int(rng.integers(4, 25))
        a = rng.normal(size=(dim, dim))
        r = int(rng.integers(1, 4))
        x = rng.normal(size=(dim, r))
        scales = rng.uniform(-2.0, 2.0, size=r)
        stacks.setdefault((dim, r), []).append((a, x, scales, float(rng.uniform(-1.0, 1.0))))
    weyl_violations = bound_violations = 0
    worst_slack = math.inf
    for trials_of_shape in stacks.values():
        a, x, scales, energy = (np.stack(part) for part in zip(*trials_of_shape))
        h1 = (a + np.swapaxes(a, 1, 2)) / 2.0
        # a stacked matmul makes the gemm call of each matrix, so H2 is bit for bit its one-matrix product
        h2 = h1 + (x * scales[:, None]) @ np.swapaxes(x, 1, 2)
        for rep in interlacing_checks(h1, h2, energy):
            weyl_violations += not rep.weyl
            bound_violations += not rep.holds
            if not rep.vacuous:
                worst_slack = min(worst_slack, rep.slack)
    rank_violations = 0
    defect_violations = 0
    part_trials = max(trials // 20, 10)
    for t in range(part_trials):
        n = int(rng.integers(3, 9))
        w = int(rng.integers(1, 4))
        geo = StripGeometry(w, 1, n)
        spec = _SPECS[t % len(_SPECS)]
        sample = sample_disorder(geo, spec, seed=seed + 500 + t)
        region = Region.rectangle(1, n, 1, w)
        cells = grid_partition(region, int(rng.integers(1, 4)))
        h_full = assemble_hamiltonian(sample, region)
        defect, bound, labels, bnd = _partition_terms(h_full, region, cells, geo, float(rng.uniform(-1, 1)))
        defect_violations += defect > bound + 1e-8
        # H of the split operator: the cells' Dirichlet blocks, no bonds between cells
        h_split = np.where(labels[:, None] == labels, h_full, 0.0)
        rank_violations += numerical_rank(h_full - h_split) > len(bnd)
    passed = weyl_violations == 0 and bound_violations == 0 and rank_violations == 0 and defect_violations == 0
    return {
        "suite": "interlacing",
        "passed": bool(passed),
        "trials": trials,
        "weyl_violations": weyl_violations,
        "bound_violations": bound_violations,
        "worst_slack": worst_slack,
        "partition_trials": part_trials,
        "partition_defect_violations": defect_violations,
        "rank_violations": rank_violations,
    }


def verify_determinants(seed: int = 1, trials: int = 50) -> dict:
    """Three-route agreement, the single-site peel identity, and sign flips."""
    rng = split_stream(seed, _DOMAIN_VERIFY, 2)
    worst_route = 0.0
    sign_mismatches = 0
    worst_peel = 0.0
    flip_errors = 0
    for t in range(trials):
        w = int(rng.integers(1, 7))
        n = int(rng.integers(2, 33))
        energy = float(rng.choice([0.0, 1.0, -1.0]))
        spec = _SPECS[t % len(_SPECS)]
        geo = StripGeometry(w, 1, n)
        sample = sample_disorder(geo, spec, seed=seed + 900 + t)
        region = Region.rectangle(1, n, 1, w)
        h = assemble_hamiltonian(sample, region)
        direct, cond = logdet_direct(h, energy, with_condition=True)
        via_t = logdet_via_transfer(sample, energy, n)
        via_s = logdet_via_schur(sample, energy, n)
        # near an eigenvalue the agreement degrades with the condition estimate
        relax = max(1.0, min(cond, 1e12) * 1e-4)
        for other in (via_t, via_s):
            if other.sign != direct.sign:
                sign_mismatches += 1
            worst_route = max(worst_route, _rel_log_gap(direct, other) / relax)
        if region.size >= 2:
            i = int(rng.integers(0, region.size))
            k = region.sites[i]
            try:
                xi = site_shift(sample, region, k, energy)
            except ArithmeticError:
                continue
            rest = logdet_direct(np.delete(np.delete(h, i, axis=0), i, axis=1), energy)
            rhs = SignedLogDet.from_value(sample.potential(*k) - xi) * rest
            worst_peel = max(worst_peel, _rel_log_gap(direct, rhs))
    for t in range(10):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim))
        h = (a + a.T) / 2.0
        eigs = np.linalg.eigvalsh(h)
        for i in range(dim - 1):
            mid = 0.5 * (eigs[i] + eigs[i + 1])
            # i + 1 eigenvalues sit below the midpoint
            if logdet_direct(h, mid).sign != (-1) ** (i + 1):
                flip_errors += 1
    passed = worst_route < 1e-8 and sign_mismatches == 0 and worst_peel < 1e-8 and flip_errors == 0
    return {
        "suite": "determinants",
        "passed": bool(passed),
        "trials": trials,
        "worst_route_gap": worst_route,
        "sign_mismatches": sign_mismatches,
        "worst_peel_gap": worst_peel,
        "sign_flip_errors": flip_errors,
    }


def verify_all(seed: int = 1, trials: int = 50) -> dict:
    """Run every suite at a budget that finishes quickly at desk scale."""
    reports = [
        verify_wedge(seed=seed, trials=max(trials // 2, 10)),
        verify_interlacing(seed=seed, trials=max(trials * 20, 500)),
        verify_determinants(seed=seed, trials=trials),
    ]
    spec = _SPECS[0]
    geo = StripGeometry(2, 1, 6)
    s1 = sample_disorder(geo, spec, seed=seed)
    s2 = sample_disorder(geo, spec, seed=seed)
    reproducible = np.array_equal(s1.potentials, s2.potentials)
    region = Region.rectangle(1, 6, 1, 2)
    h = assemble_hamiltonian(s1, region)
    symmetric = np.array_equal(h, h.T)
    passed = all(r["passed"] for r in reports) and reproducible and symmetric
    return {
        "suite": "all",
        "passed": bool(passed),
        "sampling_reproducible": bool(reproducible),
        "assembly_symmetric": bool(symmetric),
        "suites": reports,
    }
