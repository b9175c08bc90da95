"""Command line entry point: sampling, spectra, determinants, verification, experiments.

Exit codes: 0 success, 1 runtime error, 2 configuration error, 3 invariant
violation.  All tables are CSV, summaries are JSON, plots are standalone SVG;
rerunning any command with the same config and seed reproduces the tables
byte for byte regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .determinants import logdet_direct, logdet_via_schur, logdet_via_transfer
from .logpotential import IntervalSpec, variance_growth_experiment
from .model import (
    ConfigurationError,
    DisorderSpec,
    Region,
    StripGeometry,
    sample_disorder,
)
from .statistics import (
    BernsteinRow,
    MultiscaleRow,
    NegTailRow,
    TailRow,
    bernstein_check,
    block_logdet_summands,
    cartan_tail_experiment,
    ldt_experiment,
    linear_fit,
    lyapunov_sum_pipeline,
    multiscale_compare,
    negative_tail_experiment,
)
from .transfer import lyapunov_spectrum
from .verify import verify_all, verify_determinants, verify_interlacing, verify_wedge

OUT_ROOT_ENV = "STRIPLYAP_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; serialized verbatim into every output."""

    command: str
    disorder: DisorderSpec
    geometry: StripGeometry
    energy: float = 0.0
    n_samples: int = 1000
    seed: int = 1
    workers: int = 1
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "command": self.command,
            "disorder": json.loads(self.disorder.to_json()),
            "geometry": {
                "width": self.geometry.width,
                "bandwidth": self.geometry.bandwidth,
                "columns": self.geometry.columns,
            },
            "energy": self.energy,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "workers": self.workers,
            "params": self.params,
            "tolerances": self.tolerances,
        }

    def config_hash(self) -> str:
        doc = self.to_document()
        doc.pop("workers")  # worker count must not change any output
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_config(path: str | Path, command: str, overrides: dict | None = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_document(doc, command, overrides)


def config_from_document(doc: dict, command: str, overrides: dict | None = None) -> RunConfig:
    overrides = overrides or {}
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    dis = doc.get("disorder")
    geo = doc.get("geometry")
    if not isinstance(dis, dict) or not isinstance(geo, dict):
        raise ConfigurationError("config needs 'disorder' and 'geometry' objects")
    try:
        spec = DisorderSpec.from_json(json.dumps(dis))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad disorder: {exc}") from exc
    try:
        geometry = StripGeometry(
            width=int(geo["width"]),
            bandwidth=int(geo.get("bandwidth", 1)),
            columns=int(geo.get("columns", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad geometry: {exc}") from exc
    try:
        config = RunConfig(
            command=command,
            disorder=spec,
            geometry=geometry,
            energy=float(doc.get("energy", 0.0)),
            n_samples=int(overrides.get("n_samples", doc.get("n_samples", 1000))),
            seed=int(overrides.get("seed", doc.get("seed", 1))),
            workers=int(overrides.get("workers", doc.get("workers", 1))),
            params=dict(doc.get("params", {})),
            tolerances=dict(doc.get("tolerances", {})),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad run setting: {exc}") from exc
    if config.n_samples < 1 or config.workers < 1:
        raise ConfigurationError("n_samples and workers must be positive")
    if not math.isfinite(config.energy):
        raise ConfigurationError("energy must be finite")
    return config


def _fmt(value) -> str:
    if value is None:  # a value that does not apply to the row
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, config: RunConfig | None, outputs: list, started: float) -> Path:
    manifest = {
        "version": __version__,
        "config_hash": config.config_hash() if config else None,
        "config": config.to_document() if config else None,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def _resolve_out(arg_out: str | None, command: str) -> Path:
    if arg_out:
        root = Path(arg_out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs")) / command
    root.mkdir(parents=True, exist_ok=True)
    return root


# ---------------------------------------------------------------- commands


def cmd_sample(config: RunConfig, out_dir: Path) -> list:
    sample = sample_disorder(config.geometry, config.disorder, config.seed)
    site_rows = [
        (n, w, sample.potentials[n - 1, w - 1])
        for n in range(1, config.geometry.columns + 1)
        for w in range(1, config.geometry.width + 1)
    ]
    sites_csv = out_dir / "sites.csv"
    write_csv(sites_csv, ["n", "w", "potential"], site_rows)
    u_rows = []
    for n in range(1, config.geometry.columns + 1):
        u = sample.u_matrix(n)
        for x in range(config.geometry.width):
            for y in range(config.geometry.width):
                if u[x, y] != 0.0:
                    u_rows.append((n, x + 1, y + 1, u[x, y]))
    u_csv = out_dir / "u_blocks.csv"
    write_csv(u_csv, ["n", "row", "col", "value"], u_rows)
    return [sites_csv, u_csv]


def cmd_lyapunov(config: RunConfig, out_dir: Path) -> list:
    n_steps = int(config.params.get("n_steps", config.geometry.columns))
    spectrum = lyapunov_spectrum(
        config.disorder, config.geometry, config.energy, n_steps, config.seed
    )
    doc = {
        "E": config.energy,
        "N": n_steps,
        "W": config.geometry.width,
        "gamma": spectrum.exponents.tolist(),
        "stderr": spectrum.stderr.tolist(),
        "radii": spectrum.radii.tolist(),
        "burn_in": spectrum.burn_in,
        "n_blocks": spectrum.n_blocks,
    }
    json_path = out_dir / "lyapunov.json"
    write_json(json_path, doc)
    csv_path = out_dir / "lyapunov.csv"
    write_csv(
        csv_path,
        ["index", "gamma", "stderr"],
        [(i + 1, g, s) for i, (g, s) in enumerate(zip(spectrum.exponents, spectrum.stderr))],
    )
    return [json_path, csv_path]


def cmd_dets(config: RunConfig, out_dir: Path, route: str) -> list:
    sample = sample_disorder(config.geometry, config.disorder, config.seed)
    results = {}
    cond = None
    if route in ("direct", "all"):
        sld, cond = logdet_direct(sample, config.energy, with_condition=True)
        results["direct"] = sld
    if route in ("transfer", "all"):
        results["transfer"] = logdet_via_transfer(sample, config.energy)
    if route in ("schur", "all"):
        results["schur"] = logdet_via_schur(sample, config.energy)
    logs = [r.log_abs for r in results.values() if r.sign != 0]
    gap = max(logs) - min(logs) if len(logs) > 1 else 0.0
    doc = {
        "route": route,
        "results": {k: {"sign": v.sign, "log_abs": v.log_abs} for k, v in results.items()},
        "agreement_gap": gap,
        "condition": cond,
    }
    path = out_dir / "dets.json"
    write_json(path, doc)
    return [path]


# Runners take (spec, geometry, energy, params, (n_samples, seed, workers))
# and return the CSV rows and the summary document of one experiment kind.


def _variance(spec, geo, energy, p, mc):
    shapes = [Region.rectangle(1, int(cols), 1, geo.width) for cols in p.get("columns", [8, 16, 32, 64])]
    interval = IntervalSpec(*p.get("interval", [10.0, 1000.0]))
    rows = variance_growth_experiment(spec, geo, shapes, energy, interval, *mc)
    slope, intercept, r2 = linear_fit([r.n_sites for r in rows], [r.variance for r in rows])
    return rows, {"slope": slope, "intercept": intercept, "r2": r2}


def _ldt(spec, geo, energy, p, mc):
    rectangles = [Region.rectangle(1, int(c), 1, geo.width) for c in p.get("columns", [16, 32])]
    k_grid = p.get("k_grid", [1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    res = ldt_experiment(spec, geo, rectangles, energy, float(p.get("epsilon", 0.25)), k_grid, *mc)
    rows = [SimpleNamespace(label=t.label, **vars(r)) for t in res.tables for r in t.rows]
    summary = {"var_points": res.var_points, "var_exponent": res.var_exponent, "var_r2": res.var_r2, "degenerate": res.degenerate}
    return rows, {**summary, "onsets": {t.label: t.onset() for t in res.tables}}


def _negtail(spec, geo, energy, p, mc):
    k_grid = p.get("k_grid", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
    res = negative_tail_experiment(spec, geo, energy, k_grid, *mc)
    return res.table.rows, {"min_log": res.min_log, "onset": res.table.onset(), "n": res.n}


def _cartan(spec, geo, energy, p, mc):
    region = Region.rectangle(1, geo.columns, 1, geo.width)
    table = cartan_tail_experiment(spec, geo, region, energy, p.get("k_grid", [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]), *mc)
    rows = [SimpleNamespace(**vars(r), violations=r.implication_violations) for r in table.rows]
    return rows, {"onset": table.onset(), "n": table.n}


def _bernstein(spec, geo, energy, p, mc):
    region = Region.rectangle(1, geo.columns, 1, geo.width)
    cell = int(p.get("cell", 2))
    summands, cells = block_logdet_summands(spec, geo, region, cell, energy, *mc)
    x_grid = p.get("x_grid")
    if x_grid is None:
        top = float(np.quantile(np.abs(summands.sum(axis=1)), 0.999)) * 1.5
        x_grid = list(np.linspace(0.0, max(top, 1.0), 9)[1:])
    return bernstein_check(summands, x_grid), {"n_cells": len(cells), "cell": cell}


def _convergence(spec, geo, energy, p, mc):
    n2_values = [int(v) for v in p.get("n_small", [4, 8])]
    rows = multiscale_compare(spec, energy, geo.width, geo.bandwidth, n2_values, *mc)
    cs = [r.fitted_c for r in rows if r.fitted_c > 0]
    return rows, {"c_values": cs, "c_spread": max(cs) / min(cs) if cs else None}


def _pipeline(spec, geo, energy, p, mc):
    n_steps, epsilon = int(p.get("n_steps", geo.columns)), float(p.get("epsilon", 0.25))
    report = lyapunov_sum_pipeline(
        spec, energy, geo.width, geo.bandwidth, n_steps, epsilon, *mc, gamma_steps=p.get("gamma_steps")
    )
    return [report], dataclasses.asdict(report)


def _fields(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


_TAIL = _fields(TailRow)

# kind -> (runner, CSV name, CSV columns as row attributes, summary JSON name)
_EXPERIMENT_TABLE = {
    "variance": (
        _variance, "variance.csv", ("label", "n_sites", "variance", "ci_lo", "ci_hi", "ratio"), "variance_summary.json"
    ),
    "ldt": (_ldt, "ldt.csv", ("label", *_TAIL), "ldt_summary.json"),
    "negtail": (_negtail, "negtail.csv", _fields(NegTailRow), "negtail_summary.json"),
    "cartan": (_cartan, "cartan.csv", (*_TAIL, "norm_count", "dist_count", "violations"), "cartan_summary.json"),
    "bernstein": (_bernstein, "bernstein.csv", _fields(BernsteinRow), "bernstein_summary.json"),
    "convergence": (_convergence, "convergence.csv", _fields(MultiscaleRow), "convergence_summary.json"),
    "pipeline": (
        _pipeline,
        "pipeline.csv",
        (
            "gamma_sum", "mean_per_step", "gap", "fitted_c", "part_negative",
            "part_middle", "part_upper", "chain_lhs", "chain_rhs",
        ),
        "pipeline.json",
    ),
}

EXPERIMENTS = tuple(_EXPERIMENT_TABLE)


def run_experiment(config: RunConfig, out_dir: Path) -> list:
    if config.command not in _EXPERIMENT_TABLE:
        raise ConfigurationError(f"unknown experiment {config.command!r}")
    runner, csv_name, columns, summary_name = _EXPERIMENT_TABLE[config.command]
    mc = (config.n_samples, config.seed, config.workers)
    rows, summary = runner(config.disorder, config.geometry, config.energy, config.params, mc)
    csv_path, json_path = out_dir / csv_name, out_dir / summary_name
    write_csv(csv_path, columns, [[getattr(r, col) for col in columns] for r in rows])
    write_json(json_path, summary)
    return [csv_path, json_path]


# ---------------------------------------------------------------- plotting


def _svg_document(width, height, body) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def _polyline(points, color, dashed=False) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>'


def plot_export(table_path: Path, kind: str, out_dir: Path) -> list:
    """Deterministic SVG + CSV pair for tail curves, fits, or spectra."""
    with open(table_path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    width, height, pad = 480, 320, 48
    body = [
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
    ]
    out_rows = []
    if rows:
        if kind == "tail":
            xs = [float(r["k"]) for r in rows]
            frac = [float(r["fraction"]) for r in rows]
            bound = [float(r["bound"]) for r in rows]
            ys = [math.log10(max(f, 1e-12)) for f in frac]
            reference = [math.log10(max(b, 1e-12)) for b in bound]
            lo, hi = min(ys + reference), max(ys + reference + [0.0])
            out_rows = list(zip(xs, frac, bound))
        elif kind == "fit":
            header = list(rows[0].keys())
            xcol, ycol = header[1], header[2]
            xs = [float(r[xcol]) for r in rows]
            ys = [float(r[ycol]) for r in rows]
            slope, intercept, _ = linear_fit(xs, ys)
            reference = [slope * x + intercept for x in xs]
            lo, hi = min(ys), max(ys)
            out_rows = list(zip(xs, ys, reference))
        elif kind == "spectrum":
            xs = [float(r["index"]) for r in rows]
            ys = [float(r["gamma"]) for r in rows]
            errs = [float(r.get("stderr", 0.0)) for r in rows]
            lo, hi = min(ys), max(ys)
            out_rows = list(zip(xs, ys, errs))
        else:
            raise ConfigurationError(f"unknown plot kind {kind!r}")

        def to_xy(x, y):
            fx = pad + (x - min(xs)) / max(max(xs) - min(xs), 1e-12) * (width - 2 * pad)
            fy = height - pad - (y - lo) / max(hi - lo, 1e-12) * (height - 2 * pad)
            return fx, fy

        body.append(_polyline([to_xy(x, y) for x, y in zip(xs, ys)], "steelblue"))
        if kind == "spectrum":
            for x, y, e in zip(xs, ys, errs):
                x0, y0 = to_xy(x, y - e)
                _, y1 = to_xy(x, y + e)
                body.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="gray"/>')
        else:
            body.append(_polyline([to_xy(x, y) for x, y in zip(xs, reference)], "firebrick", dashed=True))
    svg_path = out_dir / f"plot_{kind}.svg"
    svg_path.write_text(_svg_document(width, height, "\n".join(body)))
    csv_path = out_dir / f"plot_{kind}.csv"
    write_csv(csv_path, ["x", "y", "reference"], out_rows)
    return [svg_path, csv_path]


# ---------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="striplyap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--out", default=None, help=f"output dir (default ${OUT_ROOT_ENV}/<command>)")

    common(sub.add_parser("sample", help="draw one disorder realization and export it"))
    common(sub.add_parser("lyapunov", help="estimate the Lyapunov spectrum"))
    dets = sub.add_parser("dets", help="signed log determinants by route")
    common(dets)
    dets.add_argument("--route", choices=["direct", "transfer", "schur", "all"], default="all")
    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("suite", choices=["wedge", "interlacing", "determinants", "all"])
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--out", default=None)
    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    exp.add_argument("kind", choices=EXPERIMENTS)
    common(exp)
    plot = sub.add_parser("plot", help="export plot data and SVG from a table")
    plot.add_argument("--table", required=True)
    plot.add_argument("--kind", choices=["tail", "fit", "spectrum"], required=True)
    plot.add_argument("--out", default=None)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.time()
    out_dir = None
    try:
        if args.command == "verify":
            out_dir = _resolve_out(args.out, "verify")
            fn = {
                "wedge": verify_wedge,
                "interlacing": verify_interlacing,
                "determinants": verify_determinants,
                "all": verify_all,
            }[args.suite]
            report = fn(seed=args.seed, trials=args.trials)
            path = out_dir / f"verify_{args.suite}.json"
            write_json(path, report)
            write_manifest(out_dir, None, [path], started)
            print(json.dumps({"suite": args.suite, "passed": report["passed"]}))
            return 0 if report["passed"] else 3
        if args.command == "plot":
            out_dir = _resolve_out(args.out, "plot")
            outputs = plot_export(Path(args.table), args.kind, out_dir)
            write_manifest(out_dir, None, outputs, started)
            return 0
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        command = args.kind if args.command == "experiment" else args.command
        config = load_config(args.config, command, overrides)
        out_dir = _resolve_out(args.out, command)
        if args.command == "sample":
            outputs = cmd_sample(config, out_dir)
        elif args.command == "lyapunov":
            outputs = cmd_lyapunov(config, out_dir)
        elif args.command == "dets":
            outputs = cmd_dets(config, out_dir, args.route)
        else:
            outputs = run_experiment(config, out_dir)
        write_manifest(out_dir, config, outputs, started)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit codes
        print(f"error: {exc}", file=sys.stderr)
        if out_dir is not None:
            (out_dir / "traceback.txt").write_text(traceback.format_exc())
        return 1


if __name__ == "__main__":
    sys.exit(main())
