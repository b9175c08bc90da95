import csv
import io
import json
import math
from pathlib import Path

import pytest

from striplyap.cli import main
from striplyap.model import ConfigurationError
import striplyap.cli as cli_mod


BASE_CONFIG = {
    "disorder": {
        "density": "uniform",
        "params": {"lo": -1.0, "hi": 1.0},
        "u_law": "adjacency",
        "u_params": {},
    },
    "geometry": {"width": 2, "bandwidth": 1, "columns": 8},
    "energy": 0.0,
    "n_samples": 500,
    "seed": 3,
    "workers": 1,
    "params": {},
}


def write_config(tmp_path: Path, **updates) -> Path:
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(updates)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"disorder": {"density": "uniform", "params": {"lo": -1, "hi": 1}}}))
    assert main(["experiment", "negtail", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    path.write_text("{not json")
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    neg = write_config(tmp_path, geometry={"width": -2, "columns": 4})
    assert main(["sample", "--config", str(neg), "--out", str(tmp_path / "o")]) == 2
    for bad in (
        {"disorder": {"density": "uniform", "params": {"lo": -1}}},
        {"energy": "zero"},
        {"n_samples": "many"},
    ):
        cfg = write_config(tmp_path, **bad)
        assert main(["experiment", "negtail", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    singular = write_config(
        tmp_path,
        disorder={"density": "point", "params": {"value": 0.0}, "u_law": "zero", "u_params": {}},
        geometry={"width": 1, "bandwidth": 1, "columns": 5},
        n_samples=200,
        params={"gamma_steps": 2000},
    )
    assert main(["experiment", "pipeline", "--config", str(singular), "--out", str(tmp_path / "o")]) == 2
    assert "all 200 samples excluded as singular" in capsys.readouterr().err
    # odd chains at E = 0 with zero potential are singular, at both scales of the comparison
    for kind, params in (("ldt", {"columns": [9]}), ("convergence", {"n_small": [3]})):
        singular = write_config(
            tmp_path,
            disorder={"density": "point", "params": {"value": 0.0}, "u_law": "zero", "u_params": {}},
            geometry={"width": 1, "bandwidth": 1, "columns": 9},
            n_samples=200,
            params=params,
        )
        assert main(["experiment", kind, "--config", str(singular), "--out", str(tmp_path / "o")]) == 2
        assert "all 200 samples excluded as singular" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["negtail", "bernstein", "variance"])
def test_all_singular_tail_experiments_exit_2(tmp_path, kind, capsys):
    # point mass 0 at E = 0: the 5-site chain is singular, and so is bernstein's one-column cell
    singular = write_config(
        tmp_path,
        disorder={"density": "point", "params": {"value": 0.0}, "u_law": "adjacency", "u_params": {}},
        geometry={"width": 1, "bandwidth": 1, "columns": 5},
        n_samples=64,
        params={"columns": [5]} if kind == "variance" else {},
    )
    assert main(["experiment", kind, "--config", str(singular), "--out", str(tmp_path / "o")]) == 2
    assert "all 64 samples excluded as singular" in capsys.readouterr().err


def test_sample_command_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    sites = (out / "sites.csv").read_text().splitlines()
    assert sites[0] == "n,w,potential"
    assert len(sites) == 1 + 8 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"sites.csv", "u_blocks.csv"}
    assert manifest["config_hash"]


def test_lyapunov_command(tmp_path):
    cfg = write_config(tmp_path, params={"n_steps": 400})
    out = tmp_path / "lyap"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "lyapunov.json").read_text())
    assert doc["W"] == 2 and doc["N"] == 400
    assert len(doc["gamma"]) == 2 and len(doc["radii"]) == 4
    assert doc["n_blocks"] == 8


def test_dets_command_routes_agree(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "dets"
    assert main(["dets", "--config", str(cfg), "--route", "all", "--out", str(out)]) == 0
    doc = json.loads((out / "dets.json").read_text())
    assert set(doc["results"]) == {"direct", "transfer", "schur"}
    assert doc["agreement_gap"] < 1e-8 * max(1.0, abs(doc["results"]["direct"]["log_abs"]))


@pytest.mark.parametrize("energy", [float("nan"), float("inf")])
def test_non_finite_energy_exits_2(tmp_path, energy, capsys):
    cfg = write_config(tmp_path, energy=energy)
    for argv in (["dets", "--route", "direct"], ["dets", "--route", "all"], ["lyapunov"], ["experiment", "negtail"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "energy must be finite" in capsys.readouterr().err
        assert not (out / "dets.json").exists()


NAN_POINT = {"density": "point", "params": {"value": math.nan}, "u_law": "adjacency", "u_params": {}}


@pytest.mark.parametrize(
    "disorder, width, argv, code",
    [
        (NAN_POINT, 2, ["experiment", "negtail"], 2),
        (NAN_POINT, 2, ["experiment", "cartan"], 2),
        (NAN_POINT, 2, ["dets"], 2),
        ({"density": "uniform", "params": {"lo": -math.inf, "hi": 1.0}, "u_law": "adjacency", "u_params": {}}, 2, ["lyapunov"], 2),
        (
            {"density": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "u_law": "random_band", "u_params": {"coupling": math.nan}},
            3,
            ["experiment", "cartan"],
            2,
        ),
        # an infinite Cauchy cutoff is the untruncated law, not a malformed one
        *(
            ({"density": "cauchy", "params": {"scale": 1.0, "cutoff": math.inf}, "u_law": "adjacency", "u_params": {}}, 2, argv, 0)
            for argv in (["experiment", "negtail"], ["experiment", "cartan"], ["dets"])
        ),
    ],
    ids=[
        "nan-value-negtail", "nan-value-cartan", "nan-value-dets", "inf-lo-lyapunov", "nan-coupling-cartan",
        "inf-cutoff-negtail", "inf-cutoff-cartan", "inf-cutoff-dets",
    ],
)
def test_non_finite_disorder_exits_2(tmp_path, disorder, width, argv, code, capsys):
    cfg = write_config(tmp_path, disorder=disorder, geometry={"width": width, "bandwidth": 1, "columns": 4}, n_samples=64)
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("finite" in err) if code else not err


@pytest.mark.parametrize("kind", cli_mod.EXPERIMENTS)
def test_experiment_with_one_sample_exits_2(tmp_path, kind, capsys):
    cfg = write_config(tmp_path, n_samples=1)
    out = tmp_path / kind
    assert main(["experiment", kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert "n_samples >= 2" in capsys.readouterr().err
    assert not (out / f"{kind}.csv").exists()


def test_manifest_config_document(tmp_path):
    cfg = write_config(tmp_path, tolerances={"rel": 1e-9})
    out = tmp_path / "neg"
    assert main(["experiment", "negtail", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())["config"]
    assert sorted(doc) == ["command", "disorder", "energy", "geometry", "n_samples", "params", "seed", "workers"]
    assert doc["geometry"] == {"width": 2, "bandwidth": 1, "columns": 8}
    assert doc["disorder"]["D0"] == 0.5 and doc["disorder"]["D1"] == 2.0
    assert (doc["command"], doc["n_samples"], doc["seed"], doc["workers"]) == ("negtail", 500, 9, 1)


def test_experiment_determinism_across_workers(tmp_path):
    cfg = write_config(tmp_path, params={"k_grid": [0.5, 1.0, 2.0]})
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(["experiment", "negtail", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "negtail", "--config", str(cfg), "--workers", "4", "--out", str(out4)]) == 0
    assert (out1 / "negtail.csv").read_bytes() == (out4 / "negtail.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m4 = json.loads((out4 / "manifest.json").read_text())
    assert m1["outputs"] == m4["outputs"]
    assert m1["config_hash"] == m4["config_hash"]


def test_experiment_variance_and_convergence(tmp_path):
    cfg = write_config(
        tmp_path,
        n_samples=300,
        params={"columns": [4, 8], "interval": [10.0, 100.0]},
    )
    out = tmp_path / "var"
    assert main(["experiment", "variance", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "variance_summary.json").read_text())
    assert "slope" in summary and "r2" in summary
    cfg2 = write_config(tmp_path, n_samples=200, params={"n_small": [3]})
    out2 = tmp_path / "conv"
    assert main(["experiment", "convergence", "--config", str(cfg2), "--out", str(out2)]) == 0
    rows = (out2 / "convergence.csv").read_text().splitlines()
    assert rows[0].startswith("n_small,n_large")


@pytest.mark.parametrize(
    "kind, params, header",
    [
        ("variance", {"columns": [4, 8], "interval": [10.0, 100.0]}, "label,n_sites,variance,ci_lo,ci_hi,ratio"),
        ("ldt", {"columns": [4, 8]}, "label,k,threshold,count,fraction,sigma,bound"),
        ("negtail", {}, "k,threshold,count,fraction,sigma,bound,naive_threshold,naive_count"),
        ("cartan", {}, "k,threshold,count,fraction,sigma,bound,norm_count,dist_count,violations"),
        ("bernstein", {"cell": 2}, "x,count,fraction,sigma,bound,admissible"),
        ("convergence", {"n_small": [3]}, "n_small,n_large,mean_small,mean_large,gap,gap_se,fitted_c"),
        (
            "pipeline",
            {"n_steps": 8, "gamma_steps": 20000},
            "gamma_sum,mean_per_step,gap,fitted_c,part_negative,part_middle,part_upper,chain_lhs,chain_rhs",
        ),
    ],
)
def test_experiment_csv_header(tmp_path, kind, params, header):
    cfg = write_config(tmp_path, n_samples=100, params=params)
    out = tmp_path / kind
    assert kind in cli_mod.EXPERIMENTS
    assert main(["experiment", kind, "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / f"{kind}.csv").read_text()
    assert text.splitlines()[0] == header
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)


def test_experiment_pipeline_and_bernstein(tmp_path):
    cfg = write_config(tmp_path, n_samples=200, params={"n_steps": 8, "gamma_steps": 20000})
    out = tmp_path / "pipe"
    assert main(["experiment", "pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "pipeline.json").read_text())
    assert doc["mean_identity_gap"] <= 1e-12 * max(1.0, abs(doc["chain_lhs"]))
    cfgb = write_config(tmp_path, n_samples=300, params={"cell": 2})
    outb = tmp_path / "bern"
    assert main(["experiment", "bernstein", "--config", str(cfgb), "--out", str(outb)]) == 0
    assert (outb / "bernstein.csv").exists()


def test_verify_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "ver"
    assert main(["verify", "determinants", "--trials", "5", "--out", str(out)]) == 0
    report = json.loads((out / "verify_determinants.json").read_text())
    assert report["passed"] is True
    monkeypatch.setitem(
        main.__globals__,
        "verify_wedge",
        lambda seed, trials: {"suite": "wedge", "passed": False},
    )
    assert main(["verify", "wedge", "--trials", "2", "--out", str(tmp_path / "ver2")]) == 3


def test_verify_wedge_exits_0_on_drift_seed(tmp_path):
    out = tmp_path / "wedge"
    assert main(["verify", "wedge", "--seed", "21000", "--trials", "25", "--out", str(out)]) == 0
    assert json.loads((out / "verify_wedge.json").read_text())["passed"] is True


def test_plot_tail_and_fit(tmp_path):
    cfg = write_config(tmp_path, params={"k_grid": [0.5, 1.0, 2.0]})
    out = tmp_path / "neg"
    assert main(["experiment", "negtail", "--config", str(cfg), "--out", str(out)]) == 0
    plot_dir = tmp_path / "plots"
    assert main(["plot", "--table", str(out / "negtail.csv"), "--kind", "tail", "--out", str(plot_dir)]) == 0
    svg = (plot_dir / "plot_tail.svg").read_text()
    assert svg.startswith("<svg")
    assert "firebrick" in svg  # reference bound overlay
    assert (plot_dir / "plot_tail.csv").exists()
    # empty table still renders axes
    empty = tmp_path / "empty.csv"
    empty.write_text("k,threshold,count,fraction,sigma,bound\n")
    assert main(["plot", "--table", str(empty), "--kind", "tail", "--out", str(plot_dir)]) == 0


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIPLYAP_OUT", str(tmp_path / "root"))
    cfg = write_config(tmp_path)
    assert main(["sample", "--config", str(cfg)]) == 0
    assert (tmp_path / "root" / "sample" / "sites.csv").exists()


def test_runtime_error_exit_1(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    def boom(config, out_dir):
        raise RuntimeError("forced failure")
    monkeypatch.setitem(main.__globals__, "cmd_sample", boom)
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    # the error line goes to stderr and the full traceback to the output directory
    monkeypatch.setattr(cli_mod, "cmd_lyapunov", boom)
    out = tmp_path / "lyap"
    capsys.readouterr()
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: forced failure\n"
    text = (out / "traceback.txt").read_text()
    assert text.startswith("Traceback") and "in boom" in text
    assert text.rstrip().endswith("RuntimeError: forced failure")


def test_verify_all_fresh_checkout(tmp_path):
    out = tmp_path / "all"
    assert main(["verify", "all", "--trials", "20", "--out", str(out)]) == 0
    report = json.loads((out / "verify_all.json").read_text())
    assert report["passed"] is True
    assert {s["suite"] for s in report["suites"]} == {"wedge", "interlacing", "determinants"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert "verify_all.json" in manifest["outputs"]
