"""striplyap benchmark harness (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/striplyap``. Each pass of a workload
runs the workload's ``striplyap`` CLI commands in a fresh child process with
``PYTHONPATH=src`` and BLAS pinned to one thread, so worker threads never
exceed the core count. Passes repeat until S seconds have gone by (at least
``MIN_PASSES``); pass i draws its inputs from seeds ``1000 N + 10 i + j``,
j < 10. Every pass's outputs go through the workload's correctness checks
(workloads.py), and CLI outputs are written under ``.perfbench_out/``.

End-to-end metrics (``--trace 0``), medians over passes:

* ``wall_s``: seconds spent in the workload's CLI commands, after set-up.
* ``setup_s``: from spawning the child until ``striplyap`` is imported and a
  config is parsed, as every CLI call pays it. Median over ``SETUP_PROBES``
  set-up-only children and every pass.
* ``peak_rss_mb``: peak resident memory of a pass's child process.

Human-readable lines before the result also give ``samples_per_s``
(realizations factored per second, for logdet-long and tails-small),
``steps_per_s`` (cocycle steps per second, for cocycle-long) and
``error_rate`` (failed CLI calls plus failed checks over those attempted).
The error rate is the ``failed`` / ``attempted`` pair of the result line, and
stays out of the metrics because it is 0 when the program is correct; the
two rates stay out because every metric must apply to every workload.

Spreads over ten seeds on a shared two-core host (IQR / median of wall_s):
0.05-0.09 on most workloads, up to 0.17 while the host's speed drifts, which
it does by tens of percent over minutes. Hence the 0.25 bounds.

``--trace 1`` alternates untraced passes with traced passes on the same
inputs and reports the per-layer metrics of spans.py (medians over traced
passes), ``determinants.route_gap`` and ``trace.overhead_s`` (traced minus
untraced median ``wall_s``). Traced runs also check that child spans nest in
their parents and that no self time is negative.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is run
metadata. Without ``src/striplyap`` the harness exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "model.draw_s": "s",
    "model.draw_calls": "count",
    "model.assemble_s": "s",
    "model.assemble_calls": "count",
    "sampling.kernel_s": "s",
    "sampling.factor_self_s": "s",
    "sampling.samples": "count",
    "sampling.chunks": "count",
    "sampling.us_per_sample": "us",
    "sampling.excluded": "count",
    "sampling.kept_fraction": "1",
    "transfer.lyapunov_s": "s",
    "transfer.steps": "count",
    "transfer.us_per_step": "us",
    "transfer.accumulate_s": "s",
    "transfer.shadow_s": "s",
    "determinants.direct_s": "s",
    "determinants.transfer_s": "s",
    "determinants.schur_s": "s",
    "determinants.schur_fallbacks": "count",
    "determinants.route_gap": "1",
    "statistics.experiment_s": "s",
    "statistics.reduce_self_s": "s",
    "verify.wedge_s": "s",
    "verify.interlacing_s": "s",
    "verify.determinants_s": "s",
    "cli.command_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    checks: list
    failed_commands: list
    attempted: int
    layers: dict = field(default_factory=dict)
    largest_self: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["STRIPLYAP_OUT"] = str(OUT / "default")
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def run_child(plan: dict, work: Path, flags: list) -> tuple[dict, float]:
    """Spawn child.py on a plan; returns its report and the spawn time."""
    work.mkdir(parents=True, exist_ok=True)
    plan_path, report_path = work / "plan.json", work / "report.json"
    plan_path.write_text(json.dumps(plan))
    with open(work / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(report_path), *flags],
            cwd=ROOT,
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0 or not report_path.exists():
        tail = (work / "child.log").read_text()[-2000:]
        raise BenchError(f"child process failed with code {proc.returncode}:\n{tail}")
    return json.loads(report_path.read_text()), spawned


def make_plan(workload, seed: int, work: Path) -> dict:
    commands = workload.commands(seed)
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    setup = None
    for cmd in commands:
        argv = list(cmd.argv) + ["--out", str(work / cmd.label)]
        if cmd.config is not None:
            cfg_path = work / f"{cmd.label}.json"
            cfg_path.write_text(json.dumps(cmd.config, indent=1))
            argv += ["--config", str(cfg_path)]
            if setup is None:
                setup = (str(cfg_path), cmd.argv[-1] if cmd.argv[0] == "experiment" else cmd.argv[0])
        argvs.append(argv)
    return {"setup_config": setup[0], "setup_command": setup[1], "commands": argvs}


def route_gap(work: Path) -> float:
    """Largest relative gap between determinant routes over the pass's dets outputs."""
    gaps = [0.0]
    for path in work.glob("*/dets.json"):
        doc = json.loads(path.read_text())
        direct = doc["results"].get("direct", {}).get("log_abs", 0.0)
        gaps.append(doc["agreement_gap"] / max(1.0, abs(direct)))
    return max(gaps)


def run_pass(workload, seed: int, work: Path, traced: bool) -> Pass:
    plan = make_plan(workload, seed, work)
    report, spawned = run_child(plan, work, ["--trace"] if traced else [])
    failed_commands = [c["argv"][:2] for c in report["commands"] if c["rc"] != 0]
    try:
        checks = workload.check(work)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        checks = [("outputs.readable", False, f"{type(exc).__name__}: {exc}")]
    result = Pass(
        wall_s=sum(c["seconds"] for c in report["commands"]),
        setup_s=report["ready"] - spawned,
        peak_rss_mb=report["peak_rss_kb"] / 1024.0,
        checks=checks,
        failed_commands=failed_commands,
        attempted=len(report["commands"]),
    )
    if traced:
        recorded = report["spans"]
        bad_nesting = spans.nesting_errors(recorded)
        negative = [k for k, v in spans.self_times(recorded).items() if v < 0.0]
        result.checks = checks + [
            ("trace.nesting", not bad_nesting, f"{len(bad_nesting)} spans outside their parent"),
            ("trace.self_time", not negative, f"{len(negative)} spans with negative self time"),
        ]
        result.layers = spans.layer_metrics(recorded)
        result.layers["determinants.route_gap"] = route_gap(work)
        result.largest_self = spans.largest_self_layer(recorded)
    return result


def setup_probe(workload, seed: int, work: Path) -> tuple[float, dict]:
    report, spawned = run_child(make_plan(workload, seed, work), work, ["--setup-only"])
    return report["ready"] - spawned, report["meta"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _spread(values: list) -> str:
    return f"median of {len(values)}: " + " ".join(f"{v:.4g}" for v in sorted(values))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "striplyap" / "cli.py").is_file():
        raise BenchError(f"no striplyap sources under {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    setups = []
    meta = None
    for i in range(SETUP_PROBES):
        value, meta = setup_probe(workload, seed, OUT / f"setup{i}")
        setups.append(value)
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    i = 0
    while i < MIN_PASSES or time.monotonic() < deadline:
        pass_seed = 1000 * seed + 10 * i  # commands of a pass use pass_seed + 0..9
        plain.append(run_pass(workload, pass_seed, OUT / f"pass{i}", traced=False))
        if trace:
            traced.append(run_pass(workload, pass_seed, OUT / f"pass{i}t", traced=True))
        i += 1
    passes = plain + traced
    attempted = sum(p.attempted + len(p.checks) for p in passes)
    failures = [f"command {c}" for p in passes for c in p.failed_commands]
    failures += [f"check {name}: {detail}" for p in passes for name, ok, detail in p.checks if not ok]

    walls = [p.wall_s for p in plain]
    setups += [p.setup_s for p in passes]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
    }
    lines = [f"workload {workload_name} seed {seed}: {len(plain)} passes" + (f" + {len(traced)} traced" if trace else "")]
    wall_s = e2e["wall_s"]
    lines.append(f"  wall_s {wall_s:.4f} s ({_spread(walls)})")
    lines.append(f"  setup_s {e2e['setup_s']:.4f} s ({_spread(setups)})")
    if workload.samples:
        lines.append(f"  samples_per_s {workload.samples / wall_s:.1f} 1/s ({workload.samples} per pass)")
    if workload.steps:
        lines.append(f"  steps_per_s {workload.steps / wall_s:.1f} 1/s ({workload.steps} per pass)")
    lines.append(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"  error_rate {len(failures) / attempted:.4g} ({len(failures)} of {attempted})")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if trace:
        layers = {k: statistics.median(p.layers[k] for p in traced) for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall_s
        metrics = {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
        top = sorted({p.largest_self for p in traced})
        lines.append(f"  largest self time: {', '.join(str(t) for t in top)}")
        lines += [f"  {k} {v:.6g} {PER_LAYER_UNITS[k]}" for k, v in layers.items()]
    lines += [f"  FAILED {f}" for f in failures]
    meta = {
        **meta,
        "nproc": os.cpu_count(),
        "workers": sorted({c.config.get("workers", 1) for c in workload.commands(seed) if c.config}),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
        "workload": workload_name,
        "seconds": seconds,
        "trace": trace,
    }
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated harness kills its running child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
