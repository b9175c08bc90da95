"""Start-up of the CLI: which modules ``import striplyap.cli`` loads, and route (a)'s direct LAPACK binding.

The import tests run in a fresh interpreter with ``PYTHONPATH=src``, since the
test process has loaded modules of its own.  ``LAZY`` are modules only some
code paths need: ``numpy.ma`` (numpy's ``np.unique`` and ``np.quantile``),
``concurrent.futures`` and its ``logging`` (a run with ``workers`` > 1), and
``fractions`` and its ``decimal`` (``delta_schedule``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from striplyap import determinants, transfer
from striplyap.model import DisorderSpec, Region, StripGeometry, assemble_hamiltonian, sample_disorder

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing", "unittest")
EAGER = ("numpy.random",)
LAZY = ("numpy.ma", "concurrent.futures", "logging", "fractions", "decimal")


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter on the package sources; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_set(tmp_path):
    doc = run_fresh(
        "import json, sys\nimport striplyap.cli\n"
        f"print(json.dumps({{m: m in sys.modules for m in {HEAVY + LAZY + EAGER!r}}}))",
        tmp_path,
    )
    assert doc == {**{m: False for m in HEAVY + LAZY}, **{m: True for m in EAGER}}


COMMANDS = r"""
import json, sys
from pathlib import Path
import striplyap.cli as cli

base = {
    "disorder": {"density": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "u_law": "adjacency", "u_params": {}},
    "geometry": {"width": 2, "bandwidth": 1, "columns": 8},
    "energy": 0.0, "n_samples": 100, "seed": 3, "workers": 1, "params": {},
}
params = {
    "variance": {"columns": [4, 8], "interval": [10.0, 100.0]}, "ldt": {"columns": [4, 8]}, "negtail": {},
    "cartan": {}, "bernstein": {"cell": 2}, "convergence": {"n_small": [3]},
    "pipeline": {"n_steps": 8, "gamma_steps": 20000},
}

def config(name, **updates):
    path = Path(f"{name}.json")
    path.write_text(json.dumps({**base, **updates}))
    return str(path)

cli.load_config(config("setup"), "sample")
runs = [["experiment", kind, "--config", config(kind, params=p), "--out", kind] for kind, p in params.items()]
runs += [
    ["experiment", "negtail", "--config", config("workers", workers=2), "--out", "workers"],
    ["sample", "--config", config("sample"), "--out", "sample"],
    ["lyapunov", "--config", config("lyapunov"), "--out", "lyapunov"],
    ["dets", "--route", "all", "--config", config("dets"), "--out", "dets"],
    ["verify", "all", "--trials", "5", "--out", "verify"],
    ["plot", "--table", "negtail/negtail.csv", "--kind", "tail", "--out", "plot"],
]
report = {}
for argv in runs:
    before = set(sys.modules)
    rc = cli.main(argv)
    report[argv[-1]] = [rc, sorted(set(sys.modules) - before)]
report["heavy"] = sorted(m for m in %r if m in sys.modules)
print(json.dumps(report))
"""


def test_no_command_imports_a_module(tmp_path):
    """Every command runs on the modules of the import, except that a run with workers loads ``concurrent.futures``."""
    pool = run_fresh(
        "import json, sys\nimport striplyap.cli\nbefore = set(sys.modules)\n"
        "from concurrent.futures import ThreadPoolExecutor\nprint(json.dumps(sorted(set(sys.modules) - before)))",
        tmp_path,
    )
    report = run_fresh(COMMANDS % (HEAVY,), tmp_path)
    assert report.pop("heavy") == []
    assert "concurrent.futures" in pool and report.pop("workers") == [0, pool]
    assert len(report) == 12
    assert report == {name: [0, []] for name in report}


@pytest.mark.parametrize("case", ["random 300x300", "point-mass strip 301x2"])
def test_direct_binding_is_scipy_lapack_bit_for_bit(case):
    from scipy.linalg import lapack

    if case.startswith("random"):
        a = np.random.default_rng(5).standard_normal((300, 300))
        a = a + a.T
    else:
        spec = DisorderSpec.point(0.0, u_law="adjacency")
        sample = sample_disorder(StripGeometry(2, 1, 301), spec, seed=1)
        a = assemble_hamiltonian(sample, Region.rectangle(1, 301, 1, 2)) - np.eye(602)
    ab = determinants._matrix_band(a)
    b = (len(ab) - 1) // 3
    ours = determinants._GBTRF(ab.copy(order="F"), b, b)
    theirs = lapack.dgbtrf(ab.copy(order="F"), b, b)
    for x, y in zip(ours, theirs):
        np.testing.assert_array_equal(x, y)


def test_one_lapack_extension_serves_both_modules():
    # route (a) and the QR sweep share the extension module loaded once, at import of ``transfer``
    assert determinants._FLAPACK is transfer._FLAPACK
    assert determinants._GBTRF is transfer._FLAPACK.dgbtrf


def test_missing_scipy_names_the_searched_directory(tmp_path, monkeypatch):
    empty, moved = tmp_path / "empty", tmp_path / "moved"
    empty.mkdir()
    (moved / "scipy").mkdir(parents=True)
    (moved / "scipy" / "__init__.py").write_text("")
    for root, searched in ((empty, empty), (moved, moved / "scipy" / "linalg")):
        monkeypatch.setattr(sys, "path", [str(root)])
        with pytest.raises(ImportError, match="scipy.linalg._flapack not found") as info:
            transfer._load_flapack()
        assert str(searched) in str(info.value)
