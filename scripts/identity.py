#!/usr/bin/env python3
"""Fingerprint the CLI's outputs over a fixed matrix of commands, or compare two fingerprints.

The matrix:

* the commands of the four perfbench workloads (``perfbench/workloads.py``)
  at seeds 1, 5 and 907;
* the ``routes`` workload's ``verify all`` at seeds 8, 21 and 21000, and its
  two ``dets --route all`` strips (Cauchy 2000 x 2, random band 500 x 4) at
  seeds 8, 21 and 901;
* ``experiment negtail`` and ``experiment ldt`` on the adversarial laws, all
  adjacency, W = 2: point mass 0 at E = 0 and at E = 1, the resonant
  +-2.5e-9 strip at E = 0 and Cauchy (scale 1, cutoff 1e6) at E = 0.5.
  negtail runs 17 columns, where the point-mass strips are exactly
  singular, and ldt the 16 x 2 and 18 x 2 rectangles, where they are not;
* ``dets --route all`` on point mass 0 at E = 1 over 5, 11 and 301 columns,
  all exactly singular, and on the resonant strip at E = 0 over 400 columns.

Every command runs in this process through ``striplyap.cli.main``, with one
BLAS thread, as perfbench's child runs it.  The fingerprint is one JSON
object: the exit code of each command, and per output file its sha256 and,
for JSON and CSV files, every number in file order.  ``manifest.json``
(run times and paths) and ``traceback.txt`` (paths) are left out.
``--compare A B`` lists the entries that differ, with the largest relative
gap between the numbers of a JSON or CSV file, and exits 1 if any differ.
A run takes about 3 s on two cores.

Run from the repository root:
    python3 scripts/identity.py OUT.json
    python3 scripts/identity.py --compare A.json B.json
"""

import os

# one BLAS thread, set before numpy loads BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 5, 907)
# more seeds of the routes workload: its verify and dets commands, by label
ROUTES_SEEDS = {8: ("dets_cauchy", "dets_band", "verify"), 21: ("dets_cauchy", "dets_band", "verify"), 901: ("dets_cauchy", "dets_band"), 21000: ("verify",)}
SKIPPED = ("manifest.json", "traceback.txt")
ADVERSARIAL = {
    "point0 E=0": ({"density": "point", "params": {"value": 0.0}}, 0.0),
    "point0 E=1": ({"density": "point", "params": {"value": 0.0}}, 1.0),
    "resonant E=0": ({"density": "uniform", "params": {"lo": -2.5e-9, "hi": 2.5e-9}}, 0.0),
    "cauchy E=0.5": ({"density": "cauchy", "params": {"scale": 1.0, "cutoff": 1e6}}, 0.5),
}


def _adversarial(law: dict, columns: int, energy: float, params: dict) -> dict:
    """Run config of a W = 2 adjacency strip under one of the adversarial laws."""
    return {
        "disorder": {**law, "u_law": "adjacency", "u_params": {}},
        "geometry": {"width": 2, "bandwidth": 1, "columns": columns},
        "energy": energy,
        "n_samples": 2048,
        "seed": 11,
        "workers": 1,
        "params": params,
    }


def matrix() -> list:
    """(label, argv, config or None) of every command, in run order."""
    out = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            out += [(f"{name}@{seed}/{c.label}", list(c.argv), c.config) for c in workload.commands(seed)]
    for seed, labels in ROUTES_SEEDS.items():
        out += [(f"routes@{seed}/{c.label}", list(c.argv), c.config) for c in WORKLOADS["routes"].commands(seed) if c.label in labels]
    for name, (law, energy) in ADVERSARIAL.items():
        for kind, columns, params in (("negtail", 17, {}), ("ldt", 18, {"columns": [16, 18]})):
            out.append((f"{kind} {name}", ["experiment", kind], _adversarial(law, columns, energy, params)))
    for name, columns in (("point0 E=1", 5), ("point0 E=1", 11), ("point0 E=1", 301), ("resonant E=0", 400)):
        law, energy = ADVERSARIAL[name]
        out.append((f"dets {name} {columns}x2", ["dets", "--route", "all"], _adversarial(law, columns, energy, {})))
    return out


def _numbers(path: Path) -> list | None:
    """Every number of a JSON or CSV file, in file order; None for other files."""
    if path.suffix == ".csv":
        out = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        out.append(float(cell))
                    except ValueError:
                        pass
        return out
    if path.suffix == ".json":
        out = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                out.append(float(node))

        walk(json.loads(path.read_text()))
        return out
    return None


def fingerprint(work: Path, exits: dict) -> dict:
    """The fingerprint of the outputs under ``work`` and the commands' exit codes."""
    files = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file() and p.name not in SKIPPED):
        files[path.relative_to(work).as_posix()] = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "numbers": _numbers(path),
        }
    return {"exit": exits, "files": files}


def run(commands: list, work: Path) -> dict:
    """Run ``commands`` through ``cli.main`` with outputs under ``work``; return their fingerprint."""
    import striplyap.cli as cli

    exits = {}
    with tempfile.TemporaryDirectory() as configs:
        for i, (label, argv, config) in enumerate(commands):
            argv = argv + ["--out", str(work / label)]
            if config is not None:
                path = Path(configs) / f"{i}.json"
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            try:
                exits[label] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed argv
                exits[label] = exc.code if isinstance(exc.code, int) else 2
    return fingerprint(work, exits)


def _gap(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(a: dict, b: dict) -> list:
    """One line per entry that differs between two fingerprints."""
    lines = []
    for label in sorted(a["exit"].keys() | b["exit"].keys()):
        x, y = a["exit"].get(label), b["exit"].get(label)
        if x != y:
            lines.append(f"exit {label}: {x} -> {y}")
    for name in sorted(a["files"].keys() | b["files"].keys()):
        x, y = a["files"].get(name), b["files"].get(name)
        if x is None or y is None:
            lines.append(f"{name}: only in {'B' if x is None else 'A'}")
        elif x["sha256"] != y["sha256"]:
            nx, ny = x["numbers"], y["numbers"]
            if nx is None:
                detail = "bytes differ"
            elif len(nx) != len(ny):
                detail = f"{len(nx)} -> {len(ny)} numbers"
            else:
                detail = f"largest relative gap {max(map(_gap, nx, ny), default=0.0):.3g}"
            lines.append(f"{name}: {detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="fingerprint file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprint files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    with tempfile.TemporaryDirectory() as work:
        doc = run(matrix(), Path(work))
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"{len(doc['exit'])} commands, {len(doc['files'])} files -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
