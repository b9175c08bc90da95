"""Benchmark workloads: CLI commands generated from a seed, and output checks.

Every check is statistical or an invariant of the outputs, never a comparison
with stored draws, so it keeps holding when the realized samples change.
Checks take the parsed outputs and return a list of ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

UNIFORM_15 = {"density": "uniform", "params": {"lo": -1.5, "hi": 1.5}, "u_law": "adjacency", "u_params": {}}
# criterion 10 tail suites: uniform on [-2, 2], and the resonant contrast strip
# whose clean Hamiltonian has two zero modes at E = 0
UNIFORM_2 = {"density": "uniform", "params": {"lo": -2.0, "hi": 2.0}, "u_law": "adjacency", "u_params": {}}
RESONANT = {"density": "uniform", "params": {"lo": -2.5e-9, "hi": 2.5e-9}, "u_law": "adjacency", "u_params": {}}
CAUCHY = {"density": "cauchy", "params": {"scale": 1.0, "cutoff": 1e6}, "u_law": "adjacency", "u_params": {}}
BAND = {"density": "uniform", "params": {"lo": -1.5, "hi": 1.5}, "u_law": "random_band", "u_params": {"coupling": 1.0}}
K_GRID = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]

LOGDET_SAMPLES = 400
TAIL_SAMPLES = 16_384
# with two workers on a two-core shared host the IQR / median of the suite's
# wall time over ten seeds was 0.12-0.37, against 0.06-0.17 with one
TAIL_WORKERS = 1
COCYCLE_STEPS = 50_000
VERIFY_TRIALS = 50

# E log|det(H_N - E)| / N for UNIFORM_15, W = 2, E = 0, with its standard
# error; computed by reference.py from 40000 samples per size
LOGDET_REFERENCE = {16: (0.19397056, 0.00059586), 256: (0.23411637, 0.00012783)}
# top exponents of the same law from one 600k-step product (criterion 11's
# spectrum config, seed 31) and their block-bootstrap standard errors
GAMMA_REFERENCE = (0.15714883, 0.07900763)
GAMMA_REFERENCE_SE = (0.00032207, 0.00037260)
# allowed distance from a reference, in combined standard errors
K_SE = 5.0
# radii of a symplectic product pair up: r_i + r_{2W+1-i} stays O(1) while
# each radius grows like N gamma_i
RADII_PAIR_TOL = 1e-3
DETS_REL_TOL = 1e-8


@dataclass(frozen=True)
class Command:
    """One CLI call. ``config`` is written to a JSON file and passed as --config."""

    label: str
    argv: list
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list]
    check: Callable[[Path], list]
    samples: int  # disorder realizations factored per pass, 0 when not a sampling workload
    steps: int  # cocycle steps per pass, 0 when not a cocycle workload


def _config(disorder, columns, seed, *, width=2, bandwidth=1, energy=0.0, n_samples=1, workers=1, params=None) -> dict:
    return {
        "disorder": disorder,
        "geometry": {"width": width, "bandwidth": bandwidth, "columns": columns},
        "energy": energy,
        "n_samples": n_samples,
        "seed": seed,
        "workers": workers,
        "params": params or {},
    }


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def _non_increasing(rows, key: str = "fraction") -> bool:
    values = [float(r[key]) for r in rows]
    return all(b <= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- logdet-long


def logdet_commands(seed: int) -> list:
    cfg = _config(UNIFORM_15, 256, seed, n_samples=LOGDET_SAMPLES, params={"n_small": [16]})
    return [Command("convergence", ["experiment", "convergence"], cfg)]


def check_convergence(rows: list) -> list:
    """Per-step means at N = 16 and N = 256 lie within K_SE gap_se of the references."""
    if len(rows) != 1 or int(rows[0]["n_small"]) != 16 or int(rows[0]["n_large"]) != 256:
        return [("convergence.shape", False, f"rows {[(r['n_small'], r['n_large']) for r in rows]}")]
    row = rows[0]
    se = float(row["gap_se"])
    out = [("convergence.gap_se", math.isfinite(se) and se > 0.0, f"gap_se {se}")]
    for key, n in (("mean_small", 16), ("mean_large", 256)):
        ref, ref_se = LOGDET_REFERENCE[n]
        value = float(row[key])
        tol = K_SE * math.hypot(se, ref_se)
        out.append((f"convergence.{key}", abs(value - ref) <= tol, f"{key} {value} vs {ref} +- {tol}"))
    return out


def check_logdet(out: Path) -> list:
    return check_convergence(read_csv(out / "convergence" / "convergence.csv"))


# ---------------------------------------------------------------- tails-small


def tail_commands(seed: int) -> list:
    run = {"n_samples": TAIL_SAMPLES, "workers": TAIL_WORKERS}
    tails = {"k_grid": K_GRID}
    ldt = {**tails, "columns": [16, 32], "epsilon": 0.25}
    return [
        Command("cartan", ["experiment", "cartan"], _config(UNIFORM_2, 4, seed, **run, params=tails)),
        Command("ldt", ["experiment", "ldt"], _config(UNIFORM_2, 32, seed + 1, **run, params=ldt)),
        Command("negtail", ["experiment", "negtail"], _config(UNIFORM_2, 16, seed + 2, **run, params=tails)),
        Command("contrast", ["experiment", "negtail"], _config(RESONANT, 17, seed + 3, **run, params=tails)),
    ]


def check_cartan(rows: list) -> list:
    bad = [r["k"] for r in rows if int(r["violations"]) != 0]
    return [
        ("cartan.violations", bool(rows) and not bad, f"violations at K {bad}"),
        ("cartan.monotone", _non_increasing(rows), "fraction non-increasing in K"),
    ]


def check_ldt(rows: list) -> list:
    labels = sorted({r["label"] for r in rows})
    out = [("ldt.tables", len(labels) == 2, f"labels {labels}")]
    for label in labels:
        table = [r for r in rows if r["label"] == label]
        out.append((f"ldt.{label}.monotone", _non_increasing(table), "fraction non-increasing in K"))
    return out


def check_negtail(rows: list, name: str) -> list:
    return [
        (f"{name}.rows", len(rows) == len(K_GRID), f"{len(rows)} rows"),
        (f"{name}.monotone", _non_increasing(rows) and _non_increasing(rows, "naive_count"), "counts non-increasing in K"),
    ]


def check_contrast(rows: list) -> list:
    """At K = 2 the depth -10KW is attained and the naive depth -KNW never is."""
    out = check_negtail(rows, "contrast")
    at2 = [r for r in rows if float(r["k"]) == 2.0]
    ok = len(at2) == 1 and int(at2[0]["count"]) > 0 and int(at2[0]["naive_count"]) == 0
    detail = f"K=2 count {at2[0]['count']} naive {at2[0]['naive_count']}" if at2 else "no K=2 row"
    return out + [("contrast.k2", ok, detail)]


def check_tails(out: Path) -> list:
    return (
        check_cartan(read_csv(out / "cartan" / "cartan.csv"))
        + check_ldt(read_csv(out / "ldt" / "ldt.csv"))
        + check_negtail(read_csv(out / "negtail" / "negtail.csv"), "negtail")
        + check_contrast(read_csv(out / "contrast" / "negtail.csv"))
    )


# ---------------------------------------------------------------- cocycle-long


def cocycle_commands(seed: int) -> list:
    cfg = _config(UNIFORM_15, 1, seed, params={"n_steps": COCYCLE_STEPS})
    return [Command("lyapunov", ["lyapunov"], cfg)]


def check_spectrum(doc: dict) -> list:
    gamma, stderr, radii = doc["gamma"], doc["stderr"], doc["radii"]
    m = len(radii)
    out = [
        ("lyapunov.ordered", len(gamma) == 2 and gamma[0] > gamma[1] > 0.0, f"gamma {gamma}"),
        (
            "lyapunov.radii_pair",
            m == 4 and all(abs(radii[i] + radii[m - 1 - i]) <= RADII_PAIR_TOL * max(map(abs, radii)) for i in range(m // 2)),
            f"radii {radii}",
        ),
    ]
    for i, (g, se) in enumerate(zip(gamma, stderr)):
        tol = K_SE * math.hypot(se, GAMMA_REFERENCE_SE[i])
        ok = se > 0.0 and abs(g - GAMMA_REFERENCE[i]) <= tol
        out.append((f"lyapunov.gamma{i + 1}", ok, f"{g} vs {GAMMA_REFERENCE[i]} +- {tol}"))
    return out


def check_cocycle(out: Path) -> list:
    return check_spectrum(read_json(out / "lyapunov" / "lyapunov.json"))


# ---------------------------------------------------------------- routes


def route_commands(seed: int) -> list:
    return [
        Command("dets_cauchy", ["dets", "--route", "all"], _config(CAUCHY, 2000, seed, energy=0.5)),
        Command("dets_band", ["dets", "--route", "all"], _config(BAND, 500, seed + 1, width=4, bandwidth=2, energy=0.5)),
        Command("verify", ["verify", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]),
    ]


def check_dets(doc: dict, name: str) -> list:
    results = doc["results"]
    signs = {r["sign"] for r in results.values()}
    scale = max(1.0, abs(results["direct"]["log_abs"])) if "direct" in results else math.inf
    gap = doc["agreement_gap"]
    return [
        (f"{name}.routes", sorted(results) == ["direct", "schur", "transfer"], f"routes {sorted(results)}"),
        (f"{name}.signs", len(signs) == 1 and 0 not in signs, f"signs {sorted(signs)}"),
        (f"{name}.gap", gap <= DETS_REL_TOL * scale, f"gap {gap} vs {DETS_REL_TOL} x {scale}"),
    ]


def check_verify(doc: dict) -> list:
    return [("verify.passed", doc.get("passed") is True, f"suites {[s['suite'] for s in doc.get('suites', [])]}")]


def check_routes(out: Path) -> list:
    return (
        check_dets(read_json(out / "dets_cauchy" / "dets.json"), "dets_cauchy")
        + check_dets(read_json(out / "dets_band" / "dets.json"), "dets_band")
        + check_verify(read_json(out / "verify" / "verify_all.json"))
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("logdet-long", logdet_commands, check_logdet, samples=2 * LOGDET_SAMPLES, steps=0),
        Workload("tails-small", tail_commands, check_tails, samples=5 * TAIL_SAMPLES, steps=0),
        Workload("cocycle-long", cocycle_commands, check_cocycle, samples=0, steps=COCYCLE_STEPS),
        Workload("routes", route_commands, check_routes, samples=0, steps=0),
    )
}
