import csv
import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"
NEGTAIL = (
    "negtail",
    ["experiment", "negtail"],
    {
        "disorder": {"density": "uniform", "params": {"lo": -2.0, "hi": 2.0}, "u_law": "adjacency", "u_params": {}},
        "geometry": {"width": 2, "bandwidth": 1, "columns": 8},
        "energy": 0.0,
        "n_samples": 256,
        "seed": 3,
        "workers": 1,
        "params": {},
    },
)


def _identity(monkeypatch):
    # the script pins BLAS threads and extends sys.path when loaded: undo both after the test
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_flags_one_changed_file(tmp_path, capsys, monkeypatch):
    identity = _identity(monkeypatch)
    a = identity.run([NEGTAIL], tmp_path / "a")
    b = identity.run([NEGTAIL], tmp_path / "b")
    assert a == b and a["exit"] == {"negtail": 0}
    assert sorted(a["files"]) == ["negtail/negtail.csv", "negtail/negtail_summary.json"]  # no manifest
    table = tmp_path / "b" / "negtail" / "negtail.csv"
    rows = list(csv.reader(table.read_text().splitlines()))
    rows[1][0] = repr(float(rows[1][0]) * (1.0 + 1e-6))
    with table.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    b = identity.fingerprint(tmp_path / "b", {"negtail": 2})
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, doc in zip(paths, (a, b)):
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert identity.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == ["exit negtail: 0 -> 2", "negtail/negtail.csv: largest relative gap 1e-06"]
    assert identity.main(["--compare", str(paths[0]), str(paths[0])]) == 0
