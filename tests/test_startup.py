"""Start-up of the CLI: which modules ``import striplyap.cli`` loads, and route (a)'s direct LAPACK binding.

The import tests run in a fresh interpreter with ``PYTHONPATH=src``, since the
test process has loaded modules of its own.
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
EAGER = ("numpy.random", "numpy.ma")


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter on the package sources; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_set(tmp_path):
    doc = run_fresh(
        "import json, sys\nimport striplyap.cli\n"
        f"print(json.dumps({{m: m in sys.modules for m in {HEAVY + EAGER!r}}}))",
        tmp_path,
    )
    assert doc == {**{m: False for m in HEAVY}, **{m: True for m in EAGER}}


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
    report[" ".join(argv[:2])] = [rc, sorted(set(sys.modules) - before)]
report["heavy"] = sorted(m for m in %r if m in sys.modules)
print(json.dumps(report))
"""


def test_no_command_imports_a_module(tmp_path):
    report = run_fresh(COMMANDS % (HEAVY,), tmp_path)
    assert report.pop("heavy") == []
    assert len(report) == 12
    assert report == {name: [0, []] for name in report}


def scipy_lapack():
    """``dsytrf``, ``dsytrf_lwork``, ``dsytrs`` and the work-size query as ``scipy.linalg.ldl`` gets them."""
    from scipy.linalg import lapack

    sytrf, sytrf_lwork, sytrs = lapack.get_lapack_funcs(("sytrf", "sytrf_lwork", "sytrs"), dtype=np.float64)
    return sytrf, sytrs, lambda n: lapack._compute_lwork(sytrf_lwork, n, lower=1)


@pytest.mark.parametrize("case", ["random 300x300", "point-mass strip 301x2"])
def test_direct_binding_is_scipy_lapack_bit_for_bit(case):
    sytrf, sytrs, query = scipy_lapack()
    if case.startswith("random"):
        a = np.random.default_rng(5).standard_normal((300, 300))
        a = a + a.T
    else:
        spec = DisorderSpec.point(0.0, u_law="adjacency")
        sample = sample_disorder(StripGeometry(2, 1, 301), spec, seed=1)
        a = assemble_hamiltonian(sample, Region.rectangle(1, 301, 1, 2)) - np.eye(602)
    n = a.shape[0]
    rhs = np.random.default_rng(6).standard_normal((n, 3))
    lwork = determinants._compute_lwork(n)
    assert lwork == query(n)
    ours = determinants._SYTRF(a, lower=1, lwork=lwork)
    theirs = sytrf(a, lower=1, lwork=lwork)
    for x, y in zip(ours, theirs):
        np.testing.assert_array_equal(x, y)
    solved = determinants._SYTRS(ours[0], ours[1], rhs, lower=1)
    reference = sytrs(theirs[0], theirs[1], rhs, lower=1)
    for x, y in zip(solved, reference):
        np.testing.assert_array_equal(x, y)


def test_one_lapack_extension_serves_both_modules():
    # route (a) and the QR sweep share the extension module loaded once, at import of ``transfer``
    assert determinants._FLAPACK is transfer._FLAPACK
    lapack = transfer._FLAPACK
    assert determinants._SYTRF is lapack.dsytrf and determinants._SYTRS is lapack.dsytrs
    assert determinants._SYTRF_LWORK is lapack.dsytrf_lwork


def test_lwork_matches_scipy_query():
    _, _, query = scipy_lapack()
    assert [determinants._compute_lwork(n) for n in range(1, 601)] == [query(n) for n in range(1, 601)]


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
