"""CLI subcommands through main(argv): exit codes, artifacts, determinism."""
import json
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from decaylab.cauchy import solve_conjugated
import decaylab
from decaylab import cauchy, cli
from decaylab.cli import emit_plot, main
from decaylab.examples import example1
from decaylab.grid import Grid, StateVector
from decaylab.pdo import WeightPair
from decaylab.svgplot import line_plot_svg
from decaylab.symbol import ConjugationSchedule, LambdaParams, lambda_on_grid

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


def test_solve_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "example": 1, "n": 128, "L": 15, "dt": 0.025, "T": 0.1, "tol": 1e-9,
    }))
    # explicit flags win over config values
    rc, report, _ = _run(tmp_path, "solve", "--config", str(cfg), "--tol", "0.01")
    assert rc == 0
    assert report["tol"] == 0.01
    assert report["n"] == 128
    # a flag that repeats a default still wins over the config
    rc, report, _ = _run(tmp_path, "solve", "--config", str(cfg), "--tol", "0.01", "--n", "1024")
    assert rc == 0
    assert report["n"] == 1024
    # a config value is parsed as its flag parses it: "128" is the int 128
    cfg.write_text(json.dumps({"example": "1", "n": "128", "L": 15, "dt": "0.025", "T": 0.1, "tol": 0.01}))
    rc, report, _ = _run(tmp_path, "solve", "--config", str(cfg))
    assert rc == 0
    assert (report["example"], report["n"], report["L"], report["dt"]) == (1, 128, 15.0, 0.025)
    # a value its flag would refuse exits 2 with an error naming the key
    for bad in ({"n": 128.5}, {"n": "12x"}, {"dt": True}, {"method": "magic"}, {"example": 4}):
        cfg.write_text(json.dumps({"example": 1, **bad}))
        out = tmp_path / "bad"
        assert main(["--out", str(out), "solve", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        key = next(iter(bad))
        assert err["exit_code"] == 2 and f"config key {key!r}" in err["error"]


def test_solve_example_2_passes_at_its_defaults(tmp_path):
    # criterion 2's L=40 is too narrow for the critical family's state;
    # example 2 defaults to L=80 (linf 3.43e-4 against tol 1e-3)
    rc, report, _ = _run(tmp_path, "solve", "--example", "2")
    assert rc == 0
    assert report["pass"] is True
    assert (report["n"], report["L"]) == (1024, 80.0)


def test_solve_default_box_composes_with_config(tmp_path):
    # a config without L takes the example's box; a config L or a flag wins
    base = {"example": 2, "dt": 0.025, "T": 0.1, "tol": 0.01}
    for extra, flags, want in (({}, (), 80.0), ({"L": 40}, (), 40.0), ({}, ("--L", "60"), 60.0)):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**base, **extra}))
        rc, report, _ = _run(tmp_path, "solve", "--config", str(cfg), *flags)
        assert rc == 0
        assert report["L"] == want


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


@pytest.mark.parametrize(
    "sub, extra, want",
    [
        ("solve", ("--example", "2", *FAST_SOLVE), 2.0),
        ("verify-example", ("--id", "2"), 2.0),
        ("solve", ("--example", "1", *FAST_SOLVE), 1.7),
    ],
    ids=["solve-example-2", "verify-example-2", "solve-example-1"],
)
def test_reports_the_decay_index_the_run_used(tmp_path, sub, extra, want):
    # example 2 runs at its critical index 1/(1-sigma) = 2 whatever --s is;
    # example 1 runs at --s
    _, report, _ = _run(tmp_path, sub, *extra, "--s", "1.7")
    assert report["s"] == want


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


def test_conjugation_check_reports_cond_e0(tmp_path):
    # each row carries the exact cond(E0) of its h's weight pair, in the
    # report and as a column of the sweep table
    rc, report, out = _run(tmp_path, "conjugation-check", "--n", "64", "--h", "3,6")
    assert rc == 0
    grid = Grid(dim=1, n=64, L=0.5)
    for row in report["rows"]:
        params = LambdaParams(M=1.0, h=row["h"], s=1.8, sigma=0.5)
        assert row["cond_e0"] == WeightPair(grid, lambda_on_grid(grid, params)).cond()
    lines = (out / "conjugation_sweep.csv").read_text().splitlines()
    assert lines[0] == "h,norm_r1,min_eig,cond_e0,n"
    assert [float(line.split(",")[3]) for line in lines[1:]] == [r["cond_e0"] for r in report["rows"]]


@pytest.mark.parametrize(
    "argv, flag, work",
    [
        (("conjugation-check", "--n", "64", "--h", "5"), "--h", "conjugation_remainder_check"),
        (("sharpness", "--deltas", "0.5"), "--deltas", "estimate_loss_delta"),
        (("norm-sweep", "--Ls", "20"), "--Ls", "norm_box_sweep"),
    ],
    ids=["conjugation-check", "sharpness", "norm-sweep"],
)
def test_one_value_sweep_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, flag, work):
    # a one-point sweep has no trend to plot: it is invalid input, refused
    # before the sweep runs rather than after it
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, no_work)
    rc, report, _ = _run(tmp_path, *argv)
    assert rc == 2
    assert report == {}
    err = json.loads(capsys.readouterr().out)
    assert flag in err["error"] and "at least two values" in err["error"]


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "argv, work",
    [
        (("energy", "--example", "1", "--conjugated", "--n", "4096", "--L", "15", "--h", "400",
          "--dt", "0.0125", "--eig-stride", "5"), (cauchy, "lambda_on_grid")),
        (("conjugation-check", "--n", "4096"), (cli, "conjugation_remainder_check")),
    ],
    ids=["energy-eig-stride", "conjugation-check"],
)
def test_min_eig_past_the_node_cap_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    # each run takes min-eig samples, capped at 2048 nodes: a 4096-node grid
    # is refused before the weight field or the remainder sweep is built
    monkeypatch.setattr(*work, _reached)
    rc, report, _ = _run(tmp_path, *argv)
    assert rc == 2
    assert report == {}
    assert json.loads(capsys.readouterr().out)["error"] == "hermitian_min_eig caps nodes at 2048, got 4096"


@pytest.mark.parametrize(
    "argv, work, needle",
    [
        (("conjugation-check", "--t", "0.9"), (cli, "conjugation_remainder_check"), "t must lie in [0, 0.5]"),
        (("conjugation-check", "--N", "0"), (cli, "conjugation_remainder_check"), "Nconst must be > 0"),
        (("conjugation-check", "--T", "0"), (cli, "conjugation_remainder_check"), "T must be > 0"),
        (("conjugation-check", "--k0", "0.1"), (cli, "conjugation_remainder_check"), "k0 must be >="),
        (("energy", "--example", "1", "--eig-stride", "-3"), (cli, "solve"), "--eig-stride"),
        (("energy", "--example", "1", "--eig-stride", "5"), (cli, "solve"), "--eig-stride"),
    ],
    ids=["conjugation-check-t", "conjugation-check-N", "conjugation-check-T", "conjugation-check-k0",
         "energy-plain-eig-stride-neg", "energy-plain-eig-stride"],
)
def test_schedule_and_sample_flags_are_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, work, needle):
    # conjugation-check's rows each take a min-eig of G_v at t, so a
    # schedule or t it refuses exits 2 before the remainder sweep; the
    # plain route takes no eigenvalue sample, so --eig-stride without
    # --conjugated exits 2 before the run, where it ran with no sample
    monkeypatch.setattr(*work, _reached)
    rc, report, _ = _run(tmp_path, *argv)
    assert rc == 2
    assert report == {}
    assert needle in json.loads(capsys.readouterr().out)["error"]


def test_conjugated_run_without_eig_samples_is_not_held_to_the_eig_cap(tmp_path, monkeypatch):
    # with no eig sample the cap does not apply: the run goes on to build
    # its weight field
    monkeypatch.setattr(cauchy, "lambda_on_grid", _reached)
    with pytest.raises(_Reached):
        _run(tmp_path, "energy", "--example", "1", "--conjugated", "--n", "4096", "--L", "15", "--h", "400",
             "--dt", "0.0125")


def test_conjugation_check_frees_each_pair_before_its_eigen_solve(tmp_path, monkeypatch):
    # each h's weight pair (U, V_S, core^-1, [[core], [R_C]]) and generator are
    # gone before hermitian_min_eig copies the n x n sample
    refs = []

    class Tracked(WeightPair):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    live = []

    def counting(op, _real=cauchy.hermitian_min_eig):
        live.append(sum(r() is not None for r in refs))
        return _real(op)

    monkeypatch.setattr(cli, "WeightPair", Tracked)
    monkeypatch.setattr(cauchy, "hermitian_min_eig", counting)
    rc, report, _ = _run(tmp_path, "conjugation-check", "--n", "64", "--h", "3,6")
    assert rc == 0
    assert len(refs) == 2 and live == [0, 0]


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
def test_threads_above_one_are_refused(tmp_path, argv):
    # every command runs in the calling thread: --threads takes 1 alone,
    # and any other value is invalid input that writes no artifact
    assert main(["--out", str(tmp_path / "1"), "--threads", "1", *argv]) == 0
    assert main(["--out", str(tmp_path / "2"), "--threads", "2", *argv]) == 2
    assert not (tmp_path / "2").exists()


BOUNDARY_KEYS = ("boundary_initial", "boundary_final", "boundary_threshold")


def test_energy_plain(tmp_path):
    common = ["--example", "1", "--n", "128", "--L", "15", "--dt", "0.0125", "--T", "0.25"]
    rc, report, out = _run(tmp_path, "energy", *common)
    assert rc == 0
    assert np.isfinite(report["C0"])
    assert report["C0"] >= 1.0
    assert (out / "trace.csv").is_file()
    gm = report["gmres"]
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12
    assert 1 <= gm["applies_per_step"]["min"] <= gm["applies_per_step"]["mean"] <= gm["applies_per_step"]["max"]
    # the edge fractions are the run's own: solve at the same settings
    # runs the same loop and reports the same three values
    _, solved, _ = _run(tmp_path / "solve", "solve", *common)
    assert [report[k] for k in BOUNDARY_KEYS] == [solved[k] for k in BOUNDARY_KEYS]


def test_energy_plain_rerun_is_byte_identical(tmp_path):
    args = ["energy", "--example", "1", "--n", "128", "--L", "15", "--dt", "0.0125", "--T", "0.25"]
    files = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), *args]) == 0
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files["a"]) == ["report.json", "trace.csv", "trace.svg"]
    assert files["a"] == files["b"]
    gm = json.loads(files["a"]["report.json"])["gmres"]
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12


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
    assert all(np.isfinite(report[k]) for k in BOUNDARY_KEYS)
    gm = report["gmres"]
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12


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


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["solve", "--example", "1", "--dt", "0"], "dt must be finite and positive"),
        (["energy", "--example", "1", "--dt", "0"], "dt must be finite and positive"),
        (["energy", "--example", "1", "--conjugated", "--dt", "0"], "dt must be finite and positive"),
        (["norm-sweep", "--dx", "0"], "dx must be positive"),
        (["symbol-check", "--cap", "0"], "direction_cap must be at least 1"),
        (["symbol-check", "--dim", "2", "--n", "8", "--L", "1", "--h", "100"], "no frequency node has |xi| >= 2h = 200.0"),
        (["energy", "--example", "1", "--conjugated", "--eig-stride", "-1"], "eig_stride must be >= 0"),
    ],
    ids=[
        "solve-dt0", "energy-dt0", "energy-conjugated-dt0", "norm-sweep-dx0", "symbol-check-cap0",
        "symbol-check-closed-gate",
        "energy-conjugated-eig-stride-neg",
    ],
)
def test_degenerate_step_or_cap_exits_2(tmp_path, capsys, argv, needle):
    # a zero step divides by zero; a zero cap, or a lattice with no node
    # at |xi| >= 2h, checks no direction; a negative stride would pass
    # with no eigenvalue sample
    rc, report, _ = _run(tmp_path, *argv)
    assert rc == 2
    assert report == {}
    err = json.loads(capsys.readouterr().out)
    assert err["exit_code"] == 2
    assert needle in err["error"]


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    for out in (target, target / "sub"):
        rc = main(["--out", str(out), "sharpness", "--deltas", "0.5"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2
    assert target.read_text() == "not a directory\n"


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--example", "1", *FAST_SOLVE),
        # the boundary monitor aborts at t=0.88: linf_error is null
        ("solve", "--example", "1", "--n", "256", "--L", "40", "--T", "2", "--dt", "0.01"),
        ("verify-example", "--id", "2", "--n", "128"),
        ("symbol-check", "--n", "64"),
        ("conjugation-check", "--n", "64", "--h", "3,6,12"),
        ("energy", "--example", "1", "--n", "128", "--L", "15", "--dt", "0.025", "--T", "0.1"),
        ("energy", "--example", "1", "--conjugated", "--n", "128", "--L", "15", "--h", "12",
         "--dt", "0.0125", "--T", "0.05", "--eig-stride", "2"),
        ("sharpness", "--deltas", "0.3,0.6"),
        # every weighted norm overflows: each is null beside overflow true
        ("norm-sweep", "--rho2", "1000", "--Ls", "20,40", "--dx", "0.3125"),
    ],
    ids=["solve", "solve-aborted", "verify-example", "symbol-check", "conjugation-check", "energy",
         "energy-conjugated", "sharpness", "norm-sweep-overflow"],
)
def test_report_is_strict_json_and_printed_as_written(tmp_path, capsys, argv):
    rc, _, out = _run(tmp_path, *argv)
    assert rc in (0, 1)
    text = (out / "report.json").read_text()
    report = json.loads(text, parse_constant=_no_constant)
    assert capsys.readouterr().out == text
    if argv[0] == "solve" and report["aborted"]:
        assert report["linf_error"] is None and "boundary" in report["abort_reason"]
        assert rc == 1
    if argv[0] == "norm-sweep":
        assert all(r["norm"] is None and r["overflow"] for r in report["rows"])


def test_cached_parser_keeps_calls_independent(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"example": 1, "n": 128, "L": 15, "dt": 0.025, "T": 0.1, "tol": 0.01}))
    # a config run, a usage error, then a run that must take none of the
    # config's values (n, tol) from the shared parser
    calls = [
        ("solve", "--config", str(cfg)),
        ("solve", "--n", "64", "--bogus"),
        ("solve", "--example", "1", "--L", "15", "--dt", "0.025", "--T", "0.1"),
    ]
    seen = []
    for i, argv in enumerate(calls):
        rc = main(["--out", str(tmp_path / f"shared{i}"), *argv])
        seen.append((rc, capsys.readouterr().out))
    assert [rc for rc, _ in seen] == [0, 2, 0]
    for i, argv in enumerate(calls):
        cli._build_parser.cache_clear()
        rc = main(["--out", str(tmp_path / f"fresh{i}"), *argv])
        assert (rc, capsys.readouterr().out) == seen[i]
        if rc != 2:
            shared, fresh = (tmp_path / f"{d}{i}" / "report.json" for d in ("shared", "fresh"))
            assert shared.read_bytes() == fresh.read_bytes()
    last = json.loads(seen[2][1])
    assert (last["n"], last["tol"]) == (1024, 1e-3)


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


def test_plot_text_is_escaped():
    series = {"a<b": [(0.0, 1.0), (1.0, 3.0)]}
    svg = line_plot_svg(series, title="x & y > 0", xlabel="<x>", ylabel="y")
    texts = {e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")}
    assert {"a<b", "x & y > 0", "<x>"} <= texts


def test_cli_import_loads_no_network_stack():
    # a fresh interpreter: svgplot's escaping once pulled in xml.sax, and with
    # it urllib, http, email and ssl, on every import of the CLI
    code = (
        "import sys, decaylab.cli; "
        "print([m for m in ('xml.sax', 'urllib.request', 'http.client', 'email', 'ssl') if m in sys.modules])"
    )
    src = str(Path(decaylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("flags", [("--L", "40"), ("--s", "1.9")], ids=["L40", "s1.9"])
def test_verify_example_3_datum_gate_is_relative(tmp_path, monkeypatch, flags):
    # example 3's datum grows like e^(<x>^(1/s)); real and complex exp
    # differ there by an ulp or two, which the gate scales with the datum
    rc, report, _ = _run(tmp_path, "verify-example", "--id", "3", *flags)
    assert rc == 0
    assert report["u0_max_diff"] > 1e-14
    real_sample = cli.sample
    monkeypatch.setattr(cli, "sample", lambda g, f: StateVector(g, real_sample(g, f).values * (1.0 + 1e-12)))
    rc, report, _ = _run(tmp_path, "verify-example", "--id", "3", *flags)
    assert rc == 1
    assert report["pass"] is False
