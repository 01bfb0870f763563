"""CLI subcommands through main(argv): exit codes, artifacts, determinism."""
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from decaylab.cauchy import solve_conjugated
from decaylab.cli import emit_plot, main
from decaylab.examples import example1
from decaylab.grid import Grid
from decaylab.svgplot import line_plot_svg
from decaylab.symbol import ConjugationSchedule, LambdaParams

FAST_SOLVE = [
    "--n", "128", "--L", "15", "--dt", "0.025", "--T", "0.1", "--tol", "0.01",
]


def _run(tmp_path, sub, *extra):
    out = tmp_path / "out"
    rc = main(["--out", str(out), sub, *extra])
    report = {}
    rp = out / "report.json"
    if rp.is_file():
        report = json.loads(rp.read_text())
    return rc, report, out


def test_solve_small_run(tmp_path):
    rc, report, out = _run(tmp_path, "solve", "--example", "1", *FAST_SOLVE)
    assert rc == 0
    assert report["pass"] is True
    assert report["linf_error"] <= 0.01
    assert (out / "trace.csv").is_file()
    assert (out / "final_state.csv").is_file()
    assert (out / "trace.svg").is_file()
    lines = (out / "final_state.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 129


def test_solve_exit_1_when_tolerance_unmet(tmp_path):
    rc, report, _ = _run(
        tmp_path, "solve", "--example", "1", "--n", "128", "--L", "15",
        "--dt", "0.025", "--T", "0.1", "--tol", "1e-12",
    )
    assert rc == 1
    assert report["pass"] is False
    assert not report["aborted"]


def test_rerun_is_byte_identical(tmp_path):
    args = ["solve", "--example", "1", *FAST_SOLVE]
    rc1 = main(["--out", str(tmp_path / "a"), *args])
    rc2 = main(["--out", str(tmp_path / "b"), *args])
    assert rc1 == rc2 == 0
    for name in ("trace.csv", "final_state.csv", "report.json", "trace.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "example": 1, "n": 128, "L": 15, "dt": 0.025, "T": 0.1, "tol": 1e-9,
    }))
    # explicit flags win over config values
    rc, report, _ = _run(tmp_path, "solve", "--config", str(cfg), "--tol", "0.01")
    assert rc == 0
    assert report["tol"] == 0.01
    assert report["n"] == 128


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "o"), "solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["exit_code"] == 2
    assert "config" in err["error"]


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"example": 1, "bogus": 3}')
    rc, _, _ = _run(tmp_path, "solve", "--config", str(cfg))
    assert rc == 2


def test_solve_without_example_exits_2(tmp_path):
    rc, _, _ = _run(tmp_path, "solve")
    assert rc == 2


def test_non_power_of_two_grid_exits_2(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "o"), "solve", "--example", "1", "--n", "1000"])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert "power of two" in err["error"]


def test_solve_method_auto_exits_2(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "o"), "solve", "--example", "1", "--method", "auto"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["exit_code"] == 2


def test_bad_example_id_exits_2(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "o"), "verify-example", "--id", "4"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["exit_code"] == 2


def test_verify_example_defaults(tmp_path):
    rc, report, _ = _run(tmp_path, "verify-example", "--id", "1")
    assert rc == 0
    assert report["max_residual"] <= 1e-12
    assert report["u0_max_diff"] <= 1e-14
    assert report["hypothesis"]["re_a_zero"] is True


def test_verify_example_critical_loss_tracks_horizon(tmp_path):
    rc, report, _ = _run(tmp_path, "verify-example", "--id", "2", "--T", "1.0")
    assert rc == 0
    assert report["membership"]["critical"] is True
    assert report["membership"]["infimal_delta"] == pytest.approx(1.0, rel=0.1)


def test_symbol_check(tmp_path):
    rc, report, out = _run(tmp_path, "symbol-check", "--n", "64", "--L", "10", "--h", "2")
    assert rc == 0
    assert report["transport"]["violations"] == 0
    assert report["c_of_lambda"] > 0
    assert report["c_of_lambda_lattice"] == {"dim": 1, "n": 64}
    assert (out / "symbol_field.csv").is_file()
    assert (out / "symbol_field.svg").is_file()


def test_conjugation_check(tmp_path):
    rc, report, out = _run(tmp_path, "conjugation-check", "--n", "64", "--h", "3,6")
    assert rc == 0
    norms = [r["norm_r1"] for r in report["rows"]]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 1
    assert report["h0"] == 3.0
    assert (out / "conjugation_sweep.csv").is_file()


def test_conjugation_check_matches_conjugated_solve(tmp_path):
    # both conjugated paths build the same weight pair and the same G_v:
    # the sweep's remainder and its min-eig at t = T must be the solver's
    # remainder and its last eig sample, bit for bit
    rc, report, _ = _run(tmp_path, "conjugation-check", "--n", "64", "--h", "3,6")
    assert rc == 0
    ep = example1(0.5, 1.8, T=0.5)
    sched = ConjugationSchedule(k0=2.0 * float(np.expm1(2.0 * 0.5)), Nconst=2.0, T=0.5, M=1.0)
    for row in report["rows"]:
        params = LambdaParams(M=1.0, h=row["h"], s=1.8, sigma=0.5)
        res = solve_conjugated(ep.problem, Grid(dim=1, n=64, L=0.5), 0.025, params, sched, eig_stride=20)
        assert row["norm_r1"] == res.report["remainder_norm"]
        assert res.eig_samples[-1]["t"] == 0.5
        assert row["min_eig"] == res.eig_samples[-1]["min_eig"]


def test_conjugation_check_ignores_seed(tmp_path):
    # the remainder norm is exact, so no verdict or number depends on --seed
    files = {}
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert main(["--out", str(out), "--seed", seed, "conjugation-check", "--n", "64", "--h", "5,10"]) == 0
        files[seed] = {name: (out / name).read_bytes() for name in ("report.json", "conjugation_sweep.csv")}
    assert files["0"] == files["7"]


@pytest.mark.parametrize(
    "argv",
    [("conjugation-check", "--n", "64", "--h", "3,6,12"), ("sharpness",), ("norm-sweep",)],
    ids=["conjugation-check", "sharpness", "norm-sweep"],
)
def test_threads_do_not_change_output(tmp_path, argv):
    # the sweep workers must not change a byte of any artifact
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["--out", str(out), "--threads", threads, *argv]) == 0
        files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files["1"] == files["2"]


def test_energy_plain(tmp_path):
    rc, report, out = _run(
        tmp_path, "energy", "--example", "1", "--n", "128", "--L", "15",
        "--dt", "0.0125", "--T", "0.25",
    )
    assert rc == 0
    assert np.isfinite(report["C0"])
    assert report["C0"] >= 1.0
    assert (out / "trace.csv").is_file()
    gm = report["gmres"]
    assert gm["worst_relres"] <= 1e-12
    assert 1 <= gm["applies_per_step"]["min"] <= gm["applies_per_step"]["mean"] <= gm["applies_per_step"]["max"]


def test_energy_plain_rerun_is_byte_identical(tmp_path):
    args = ["energy", "--example", "1", "--n", "128", "--L", "15", "--dt", "0.0125", "--T", "0.25"]
    files = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), *args]) == 0
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files["a"]) == ["report.json", "trace.csv", "trace.svg"]
    assert files["a"] == files["b"]
    assert json.loads(files["a"]["report.json"])["gmres"]["worst_relres"] <= 1e-12


def test_energy_conjugated(tmp_path):
    rc, report, _ = _run(
        tmp_path, "energy", "--example", "1", "--n", "128", "--L", "15",
        "--h", "12", "--dt", "0.0125", "--T", "0.25", "--conjugated",
        "--eig-stride", "5",
    )
    assert rc == 0
    assert 0 < report["remainder_norm"] < 1
    assert np.isfinite(report["min_eig_floor"])
    assert len(report["eig_samples"]) >= 3
    assert report["aborted"] is False and report["abort_reason"] is None
    assert report["gmres"]["worst_relres"] <= 1e-12


def test_energy_conjugated_rerun_is_byte_identical(tmp_path):
    args = [
        "energy", "--example", "1", "--conjugated", "--n", "128", "--L", "15", "--h", "12",
        "--dt", "0.0125", "--eig-stride", "5",
    ]
    files = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), *args]) == 0
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files["a"]) == ["report.json", "trace.csv", "trace.svg"]
    assert files["a"] == files["b"]
    report = json.loads(files["a"]["report.json"])
    assert 1.0 <= report["cond_e0"] < 1e12


def test_energy_conjugated_refuses_dense_method(tmp_path, capsys):
    rc, report, _ = _run(tmp_path, "energy", "--example", "1", "--conjugated", "--method", "dense")
    assert rc == 2
    assert report == {}
    err = json.loads(capsys.readouterr().out)
    assert err["exit_code"] == 2
    assert "--method dense" in err["error"]


def test_energy_conjugated_default_run_reports_no_abort(tmp_path):
    # criterion 9's settings: the boundary monitor watches u and stays quiet
    rc, report, _ = _run(tmp_path, "energy", "--example", "1", "--conjugated")
    assert rc == 0
    assert report["aborted"] is False
    assert report["pass"] is True


def test_sharpness_opposite_verdicts(tmp_path):
    rc, report, out = _run(tmp_path, "sharpness", "--deltas", "0.2,0.5,0.8")
    assert rc == 0
    assert report["below_all_convergent"] is True
    assert report["above_all_divergent"] is True
    rows = (out / "sharpness.csv").read_text().splitlines()
    assert len(rows) == 7  # header + 3 deltas per side


def test_norm_sweep_divergent_case(tmp_path):
    rc, report, _ = _run(tmp_path, "norm-sweep", "--Ls", "20,40", "--dx", "0.3125")
    assert rc == 0
    assert report["monotone"] is True
    assert report["ratio_last_first"] > 1.0


def test_norm_sweep_bad_box_exits_2(tmp_path):
    rc, _, _ = _run(tmp_path, "norm-sweep", "--Ls", "20,41", "--dx", "0.3125")
    assert rc == 2


# ---------------------------------------------------------------------------
# plot writer


def test_plot_two_rows_single_polyline():
    svg = line_plot_svg({"a": [(0.0, 1.0), (1.0, 2.0)]}, title="t", xlabel="x", ylabel="y")
    root = ET.fromstring(svg)
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 1
    pts = polys[0].attrib["points"].split()
    assert len(pts) == 2


def test_plot_empty_table_errors():
    with pytest.raises(ValueError):
        line_plot_svg({}, title="t", xlabel="x", ylabel="y")
    with pytest.raises(ValueError):
        line_plot_svg({"a": [(0.0, 1.0)]}, title="t", xlabel="x", ylabel="y")


def test_plot_log_scale_needs_positive_values():
    with pytest.raises(ValueError):
        line_plot_svg({"a": [(0.0, 1.0), (1.0, 0.0)]}, title="t", xlabel="x", ylabel="y", logy=True)


def test_plot_semilog_monotone_polyline():
    # growing series comes out as strictly descending pixel y coordinates
    series = {"n": [(20.0, 35.07), (40.0, 109.16), (80.0, 493.63)]}
    svg = line_plot_svg(series, title="t", xlabel="L", ylabel="norm", logy=True)
    root = ET.fromstring(svg)
    poly = next(e for e in root.iter() if e.tag.endswith("polyline"))
    ys = [float(p.split(",")[1]) for p in poly.attrib["points"].split()]
    assert all(b < a for a, b in zip(ys, ys[1:]))


def test_emit_plot_writes_identical_bytes(tmp_path):
    series = {"a": [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]}
    emit_plot(tmp_path / "p1.svg", series, title="t", xlabel="x", ylabel="y")
    emit_plot(tmp_path / "p2.svg", series, title="t", xlabel="x", ylabel="y")
    assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()
