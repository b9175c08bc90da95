#!/usr/bin/env python3
"""Time the stabilized transfer products, the log-determinant and spectral samplers, routes (a) and (c), dense assembly, the verify suites or CLI start-up.

Suite ``cocycle``: `lyapunov_spectrum` on uniform [-1.5, 1.5] adjacency
strips of width 2 and 4 at 50k and 600k steps (E = 0, seed 31, criterion
11's law), and `logdet_via_transfer` on the two strips of the benchmark's
`routes` workload (Cauchy 2000 x 2 and random band 500 x 4, d = 2, both at
E = 0.5).  Unit: steps.  Each case also records ``qr_calls``, the
``transfer._qr_step`` calls of one more, untimed run, and ``us_per_qr``, the
median time over ``qr_calls``: the whole run's cost per QR.

Suite ``logdets``: `sample_logdets` on full rectangles with one worker:
criterion 11's law (uniform [-1.5, 1.5], adjacency, W = 2, E = 0) at N = 16,
64 and 256; Cauchy (scale 1, cutoff 1e6, adjacency) 32 x 2 at E = 0.5; the
resonant contrast strip (uniform +-2.5e-9, adjacency) 17 x 2 at E = 0; as
a control off the closed-form W = 2 sweep, a random band (uniform
[-1.5, 1.5], coupling 1, d = 2) 32 x 4 at E = 0.3; and point mass 0
(adjacency, W = 2) at E = 1, 17 x 2 over 4,096 samples and 500 x 2 over 16,
where every sample is Schur-bad at its first column and goes to the
sampler's fallback.  Unit: samples.

Suite ``spectral``: `cartan_tail_experiment` over 16,384 samples with one
worker and the K grid of the benchmark's `tails-small` workload (0.5-3 in
steps of 0.5, then 4, 6, 8), seed 907, on full rectangles: the workload's
cartan run (uniform [-2, 2], adjacency, 4 x 2, E = 0), Cauchy (scale 1,
cutoff 1e6, adjacency) 4 x 2 at E = 0.5, both on the W = 2 Schur sweep and
its inertia counts, and, as a control that keeps one ``eigvalsh`` per
sample, uniform [-2, 2] adjacency 4 x 3 at E = 0.  Unit: samples.

Suite ``direct``: `logdet_direct`, route (a)'s one banded LU (`dgbtrf`, with
its condition estimate), on the two strips of the `routes` workload (Cauchy
2000 x 2 and random band 500 x 4, d = 2, both at E = 0.5, seed 1) and on a
uniform [-1.5, 1.5] adjacency strip 1000 x 6 at E = 0, in both input forms:
the dense matrix, assembled outside the timer, and the disorder sample, as
`striplyap dets` calls it.  Unit: sites.

Suite ``assemble``: `build_hamiltonians`, the dense stack of H_region - E
that every non-Schur sampler factors, on one `draw_chunk` of the uniform
[-1.5, 1.5] adjacency law at E = 0: the 4 x 2 rectangle of the `tails-small`
cartan run (4096 samples), a 40 x 2 rectangle (1310 samples, the dense batch
of an 80-site region) and a 16 x 2 rectangle minus the site (8, 1) (4096 samples);
plus `logdet_direct` on the Cauchy 2000 x 2 `routes` strip given as the
sample, whose band storage is written from its column blocks.  Unit:
samples (the route-(a) case counts its one sample).

Suite ``verify``: the three suites of `striplyap verify all --trials 50`
at seed 1, with the trial budgets `verify_all` gives them (`verify_wedge`
25, `verify_interlacing` 1000 and `verify_determinants` 50 trials), plus
`frame_det_gap` on the first 100 strips of criterion 02 (W = 1 + t mod 3,
2-16 columns, uniform [-2, 2] and Cauchy adjacency laws in turn), drawn
outside the timer.  Unit: trials (one strip per `frame_det_gap` trial).

Suite ``schur``: `logdet_via_schur`, route (c) on one sample, on the three
strips of the ``direct`` suite (seed 1), and `verify_determinants` at seed 1
with 50 trials, which runs all three routes on strips of W = 1-6 and 2-32
columns.  Unit: columns (the `verify_determinants` case counts its trials).

Suite ``startup``: what every `striplyap` call pays before its command runs.
`python -c "import striplyap.cli"` runs 15 times, each in a fresh process on
this checkout's `src` with one BLAS thread; the file records each process's
wall time from spawn to exit and its peak RSS (`ru_maxrss`), their medians,
and `len(sys.modules)` after the import.

Each case of the other suites runs three times in this process with one BLAS
thread, then once more under `tracemalloc`; the file records every timed run,
the median in seconds and in microseconds per unit, the traced peak in MB,
and the host (nproc, CPU model, numpy and BLAS versions, git revision, with
-dirty for uncommitted changes).  With ``--append`` the runs are added to
those already in the output file and the medians taken over all of them, so
that two checkouts can be recorded in alternation, one round at a time:
medians of three runs in one process mostly record the host's drift.

Run from the repository root:
    python3 scripts/bench.py {assemble,cocycle,direct,logdets,schur,spectral,startup,verify} [--out PATH] [--append]
The default output is BENCH_<suite>.json in the repository root.
"""

import os

# one BLAS thread, set before numpy loads BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from striplyap import transfer
from striplyap.determinants import logdet_direct, logdet_via_schur, logdet_via_transfer
from striplyap.exterior import frame_det_gap
from striplyap.model import DisorderSpec, Region, StripGeometry, assemble_hamiltonian, build_hamiltonians, draw_chunk, sample_disorder, split_stream
from striplyap.sampling import sample_logdets
from striplyap.statistics import cartan_tail_experiment
from striplyap.transfer import lyapunov_spectrum
from striplyap.verify import verify_determinants, verify_interlacing, verify_wedge

REPEATS = 3
UNIFORM = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
CAUCHY = DisorderSpec.cauchy(1.0, cutoff=1e6, u_law="adjacency")
BAND = DisorderSpec.uniform(-1.5, 1.5, u_law="random_band", coupling=1.0)
RESONANT = DisorderSpec.uniform(-2.5e-9, 2.5e-9, u_law="adjacency")
POINT0 = DisorderSpec.point(0.0, u_law="adjacency")
UNIFORM_2 = DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency")
K_GRID = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]


def lyapunov_case(width, n_steps):
    def run():
        lyapunov_spectrum(UNIFORM, StripGeometry(width, 1, 1), 0.0, n_steps, seed=31)

    return f"lyapunov uniform adjacency W={width} N={n_steps}", n_steps, run


def transfer_case(name, spec, width, bandwidth, columns):
    sample = sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=1)

    def run():
        logdet_via_transfer(sample, 0.5)

    return f"logdet_via_transfer {name} {columns}x{width}", columns, run


def logdets_case(name, spec, columns, energy, n_samples, width=2, bandwidth=1):
    geometry = StripGeometry(width, bandwidth, columns)
    region = Region.rectangle(1, columns, 1, width)

    def run():
        sample_logdets(spec, geometry, region, energy, n_samples, seed=32)

    return f"sample_logdets {name} {columns}x{width} E={energy} n={n_samples}", n_samples, run


def spectral_case(name, spec, columns, width, energy, n_samples=16_384):
    geometry, region = StripGeometry(width, 1, columns), Region.rectangle(1, columns, 1, width)

    def run():
        cartan_tail_experiment(spec, geometry, region, energy, K_GRID, n_samples, seed=907)

    return f"cartan_tail_experiment {name} {columns}x{width} E={energy} n={n_samples}", n_samples, run


def direct_case(name, spec, width, bandwidth, columns, energy, form):
    sample = sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=1)
    h = assemble_hamiltonian(sample, Region.rectangle(1, columns, 1, width)) if form == "matrix" else sample

    def run():
        logdet_direct(h, energy, with_condition=True)

    return f"logdet_direct {form} {name} {columns}x{width} E={energy}", columns * width, run


def schur_case(name, spec, width, bandwidth, columns, energy):
    sample = sample_disorder(StripGeometry(width, bandwidth, columns), spec, seed=1)

    def run():
        logdet_via_schur(sample, energy)

    return f"logdet_via_schur {name} {columns}x{width} E={energy}", columns, run


def assemble_case(name, region, columns, n_samples):
    pot, u_band = draw_chunk(UNIFORM, StripGeometry(2, 1, columns), 0, n_samples, seed=32)

    def run():
        build_hamiltonians(region, pot, UNIFORM.u_law, u_band, 0.0)

    return f"build_hamiltonians {name} n={n_samples}", n_samples, run


def route_a_case():
    name, _, run = direct_case("cauchy", CAUCHY, 2, 1, 2000, 0.5, "sample")
    return name, 1, run


def verify_case(suite, trials):
    def run():
        suite(seed=1, trials=trials)

    return f"{suite.__name__} seed=1 trials={trials}", trials, run


def frame_gap_case(n_strips):
    # criterion 02's strips: its stream, widths, column counts, energies, laws and seeds
    rng = split_stream(102, 0)
    laws = (DisorderSpec.uniform(-2.0, 2.0, u_law="adjacency"), CAUCHY)
    strips = []
    for t in range(n_strips):
        width, columns, energy = 1 + t % 3, int(rng.integers(2, 17)), float(rng.uniform(-1.5, 1.5))
        strips.append((sample_disorder(StripGeometry(width, 1, columns), laws[t % 2], seed=2000 + t), energy, columns))

    def run():
        for sample, energy, columns in strips:
            frame_det_gap(sample, energy, columns)

    return f"frame_det_gap criterion-02 strips n={n_strips}", n_strips, run


DIRECT_STRIPS = [
    ("cauchy", CAUCHY, 2, 1, 2000, 0.5),
    ("random_band d=2", BAND, 4, 2, 500, 0.5),
    ("uniform adjacency", UNIFORM, 6, 1, 1000, 0.0),
]


SUITES = {
    "assemble": lambda: [
        assemble_case("4x2", Region.rectangle(1, 4, 1, 2), 4, 4096),
        assemble_case("40x2", Region.rectangle(1, 40, 1, 2), 40, 1310),
        assemble_case("16x2 minus (8, 1)", Region.rectangle(1, 16, 1, 2).without_site((8, 1)), 16, 4096),
        route_a_case(),
    ],
    "cocycle": lambda: [
        lyapunov_case(2, 50_000),
        lyapunov_case(4, 50_000),
        lyapunov_case(2, 600_000),
        lyapunov_case(4, 600_000),
        transfer_case("cauchy", CAUCHY, 2, 1, 2000),
        transfer_case("random_band d=2", BAND, 4, 2, 500),
    ],
    "direct": lambda: [direct_case(*strip, form) for form in ("matrix", "sample") for strip in DIRECT_STRIPS],
    "logdets": lambda: [
        logdets_case("uniform adjacency", UNIFORM, 16, 0.0, 20_000),
        logdets_case("uniform adjacency", UNIFORM, 64, 0.0, 4_000),
        logdets_case("uniform adjacency", UNIFORM, 256, 0.0, 1_000),
        logdets_case("cauchy", CAUCHY, 32, 0.5, 16_384),
        logdets_case("resonant", RESONANT, 17, 0.0, 16_384),
        logdets_case("random_band d=2", BAND, 32, 0.3, 16_384, width=4, bandwidth=2),
        logdets_case("point 0", POINT0, 17, 1.0, 4_096),
        logdets_case("point 0", POINT0, 500, 1.0, 16),
    ],
    "schur": lambda: [*(schur_case(*strip) for strip in DIRECT_STRIPS), verify_case(verify_determinants, 50)],
    "spectral": lambda: [
        spectral_case("uniform +-2 adjacency", UNIFORM_2, 4, 2, 0.0),
        spectral_case("cauchy", CAUCHY, 4, 2, 0.5),
        spectral_case("uniform +-2 adjacency", UNIFORM_2, 4, 3, 0.0),
    ],
    "verify": lambda: [
        verify_case(verify_wedge, 25),
        verify_case(verify_interlacing, 1000),
        verify_case(verify_determinants, 50),
        frame_gap_case(100),
    ],
}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    cpu = platform.processor()
    try:
        models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": rev,
    }


def peak_mb(run) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def qr_calls(run) -> int:
    """``transfer._qr_step`` calls of one run."""
    step, calls = transfer._qr_step, []
    transfer._qr_step = lambda *args: calls.append(None) or step(*args)
    try:
        run()
    finally:
        transfer._qr_step = step
    return len(calls)


def startup(runs: int = 15) -> dict:
    """Wall time and peak RSS of ``runs`` fresh ``import striplyap.cli`` processes, and the modules it loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, rss_mb = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import striplyap.cli"], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise RuntimeError(f"import striplyap.cli exited with {proc.returncode}")
        rss_mb.append(usage.ru_maxrss / 1024.0)  # ru_maxrss is in KB on Linux
    count = [sys.executable, "-c", "import sys, striplyap.cli; print(len(sys.modules))"]
    modules = int(subprocess.run(count, env=env, capture_output=True, text=True, check=True).stdout)
    result = {"case": "python -c 'import striplyap.cli'", "runs": runs, "seconds": seconds, "median_s": statistics.median(seconds)}
    result.update(peak_rss_mb=rss_mb, median_peak_rss_mb=statistics.median(rss_mb), modules=modules)
    print(f"import striplyap.cli: {result['median_s']:.3f} s, {result['median_peak_rss_mb']:.1f} MB, {modules} modules", flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("suite", choices=sorted([*SUITES, "startup"]))
    parser.add_argument("--out", help="output path (default BENCH_<suite>.json in the repository root)")
    parser.add_argument("--append", action="store_true", help="add this round's runs to those in the output file")
    args = parser.parse_args()
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.suite}.json"
    if args.suite == "startup":
        if args.append:
            parser.error("--append applies to the timed suites, not startup")
        out.write_text(json.dumps({"host": host(), "results": [startup()]}, indent=2) + "\n")
        return 0
    unit = {"assemble": "samples", "cocycle": "steps", "direct": "sites", "logdets": "samples", "schur": "columns", "spectral": "samples", "verify": "trials"}[args.suite]
    earlier, rounds = {}, 1
    if args.append and out.exists():
        previous = json.loads(out.read_text())
        earlier, rounds = {r["case"]: r["seconds"] for r in previous["results"]}, previous.get("rounds", 1) + 1
    results = []
    for name, units, run in SUITES[args.suite]():
        seconds = list(earlier.get(name, []))
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - t0)
        median = statistics.median(seconds)
        per_unit = 1e6 * median / units
        peak = peak_mb(run)
        result = {"case": name, unit: units, "seconds": seconds, "median_s": median, f"us_per_{unit[:-1]}": per_unit, "peak_mb": peak}
        if args.suite == "cocycle":
            result["qr_calls"] = qr_calls(run)
            result["us_per_qr"] = 1e6 * median / result["qr_calls"]
        results.append(result)
        print(f"{name}: {median:.3f} s over {len(seconds)} runs, {per_unit:.2f} us/{unit[:-1]}, peak {peak:.1f} MB", flush=True)
    out.write_text(json.dumps({"host": host(), "repeats": REPEATS, "rounds": rounds, "results": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
